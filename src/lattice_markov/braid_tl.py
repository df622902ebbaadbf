"""Braid-relation and Temperley-Lieb certification for two-site operators.

A two-site operator h on V (x) V is integrable in the sense used here when
it satisfies the braid identity h12 h23 h12 = h23 h12 h23 on V (x) V (x) V,
with h12 = h (x) 1 and h23 = 1 (x) h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .an_algebra import delta_casimir
from .linalg import as_matrix, embed_two_site, frobenius_norm
from .reporting import DEFAULT_TOL, Tolerance, VerificationReport


def _local_dim(h: np.ndarray) -> int:
    m = h.shape[0]
    local_dim = math.isqrt(m)
    if local_dim * local_dim != m:
        raise ValueError(f"operator size {m} is not a perfect square of the local dimension")
    return local_dim


def qybe_residual(h) -> float:
    """Frobenius residual of the braid identity for a two-site operator."""
    h = as_matrix(h)
    if h.shape[0] != h.shape[1]:
        raise ValueError("two-site operator must be square")
    d = _local_dim(h)
    h12, h23 = (embed_two_site(h, i, 3, d) for i in (1, 2))
    return frobenius_norm(h12 @ h23 @ h12 - h23 @ h12 @ h23)


def qybe_report(h, tol: Tolerance = DEFAULT_TOL, name: str = "qybe_braid") -> VerificationReport:
    """Braid check with the residual threshold scaled by the operator norm.

    The braid difference is cubic in h, so the pass threshold is
    abs_tol * max(1, |h|_F^3); without the scaling no fixed threshold is
    meaningful for operators with entries of order 10^2.
    """
    h = as_matrix(h)
    residual = qybe_residual(h)
    threshold = tol.abs_tol * max(1.0, frobenius_norm(h) ** 3)
    return VerificationReport.from_residuals(name, {"braid": residual}, threshold)


def spectral_qybe_residual(h, x: float, y: float, shift: float = 16.0) -> float:
    """Residual of the parameterized braid identity for the affine family.

    The family is h(x) = (x - 1) h + shift * I and the identity checked is
    h12(x) h23(x y) h12(y) = h23(y) h12(x y) h23(x), with the family on the
    three sites written as (x - 1) h12 + shift * I. The default shift of
    16 pairs with the ladder operator returned by su2_ladder.h_ladder().
    """
    return spectral_qybe_residuals(h, [(x, y)], shift)[0]


def spectral_qybe_residuals(h, points, shift: float = 16.0) -> list[float]:
    """spectral_qybe_residual at each (x, y) of points, from one embedding of h."""
    h = as_matrix(h)
    d = _local_dim(h)
    h12, h23 = (embed_two_site(h, i, 3, d) for i in (1, 2))
    s = shift * np.eye(d ** 3)

    def residual(x: float, y: float) -> float:
        lhs = ((x - 1.0) * h12 + s) @ ((x * y - 1.0) * h23 + s) @ ((y - 1.0) * h12 + s)
        rhs = ((y - 1.0) * h23 + s) @ ((x * y - 1.0) * h12 + s) @ ((x - 1.0) * h23 + s)
        return frobenius_norm(lhs - rhs)

    return [residual(x, y) for x, y in points]


@dataclass
class TLElement:
    """A candidate Temperley-Lieb generator E on a pair of d-dimensional sites.

    The algebra relations require E^2 = beta E together with the two
    contraction identities (E (x) 1)(1 (x) E)(E (x) 1) = E (x) 1 and its
    mirror image.
    """

    matrix: np.ndarray
    beta: float
    local_dim: int

    def __post_init__(self) -> None:
        self.matrix = as_matrix(self.matrix)
        d = self.local_dim
        if self.matrix.shape != (d * d, d * d):
            raise ValueError(f"TL element must be {d * d}x{d * d}")


def tl_check(e: TLElement, tol: Tolerance = DEFAULT_TOL) -> VerificationReport:
    """Certify the Temperley-Lieb relations for a candidate element."""
    m = e.matrix
    e1, e2 = (embed_two_site(m, i, 3, e.local_dim) for i in (1, 2))
    residuals = {
        "idempotent": frobenius_norm(m @ m - e.beta * m),
        "contract_left": frobenius_norm(e1 @ e2 @ e1 - e1),
        "contract_right": frobenius_norm(e2 @ e1 @ e2 - e2),
    }
    scale = max(1.0, frobenius_norm(m) ** 3)
    threshold = tol.abs_tol * scale
    return VerificationReport.from_residuals("tl_relations", residuals, threshold)


def tl_from_an(n: int) -> TLElement:
    """TL candidate built from the rank-n chain density: E = 1 - H/(n+1).

    The idempotent relation E^2 = 2 E holds for every n. The contraction
    identities hold only for n = 1: for local dimension d >= 3 each
    contraction defect equals the signed sum over the six three-site place
    permutations, whose Frobenius norm is exactly 6 sqrt(binomial(d, 3)).
    """
    d = n + 1
    h = delta_casimir(n) + np.eye(d * d)
    e = np.eye(d * d) - h / (n + 1)
    return TLElement(matrix=e, beta=2.0, local_dim=d)


def rmatrix_from_tl(e: TLElement, sign: int = 1) -> np.ndarray:
    """Braid solution E + (-beta +- sqrt(beta^2 - 4))/2 * I from a TL element.

    Only the real root branch |beta| >= 2 is supported; the complex branch
    would leave the all-real matrix carrier.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    disc = e.beta * e.beta - 4.0
    if disc < 0:
        raise ValueError(f"beta = {e.beta} has beta^2 - 4 < 0; complex branch unsupported")
    root = (-e.beta + sign * math.sqrt(disc)) / 2.0
    return e.matrix + root * np.eye(e.matrix.shape[0])
