"""Fundamental representation of the rank-n special linear algebra.

Generators are built from matrix units, the quadratic Casimir is assembled
from the invariant bilinear form, and its two-site coproduct image is
produced by two independent routes (an operator sum and a closed index
formula) that must agree entrywise. The coproduct Casimir satisfies a
quadratic relation that drives every integrability certificate downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, embed_two_site, frobenius_norm, kron


@dataclass
class AnRep:
    """Defining-representation generators.

    raising/lowering are ordered by their matrix-unit index pairs
    (alpha, beta) with beta > alpha, lexicographically; raising_pairs
    records that order. Lowering generators are the transposes of the
    raising ones.
    """

    n: int
    cartan: list[np.ndarray]
    raising: list[np.ndarray]
    lowering: list[np.ndarray]
    raising_pairs: list[tuple[int, int]]
    cartan_matrix: np.ndarray

    def all_generators(self) -> list[np.ndarray]:
        return list(self.cartan) + list(self.raising) + list(self.lowering)


def unit_matrix(alpha: int, beta: int, n: int) -> np.ndarray:
    """Matrix unit with a single 1 at (alpha, beta), 1-based, size n+1."""
    if not (1 <= alpha <= n + 1 and 1 <= beta <= n + 1):
        raise ValueError(f"indices ({alpha},{beta}) out of range 1..{n + 1}")
    m = np.zeros((n + 1, n + 1))
    m[alpha - 1, beta - 1] = 1.0
    return m


def cartan_matrix(n: int) -> np.ndarray:
    return 2 * np.eye(n, dtype=int) - np.eye(n, k=1, dtype=int) - np.eye(n, k=-1, dtype=int)


def fundamental_rep(n: int) -> AnRep:
    if n < 1:
        raise ValueError("rank must be >= 1")
    cartan = [unit_matrix(a, a, n) - unit_matrix(a + 1, a + 1, n) for a in range(1, n + 1)]
    pairs = [(a, b) for a in range(1, n + 2) for b in range(a + 1, n + 2)]
    raising = [unit_matrix(a, b, n) for a, b in pairs]
    lowering = [unit_matrix(b, a, n) for a, b in pairs]
    return AnRep(n=n, cartan=cartan, raising=raising, lowering=lowering,
                 raising_pairs=pairs, cartan_matrix=cartan_matrix(n))


def casimir(n: int, shift: float = 0.0) -> np.ndarray:
    """Quadratic Casimir in the defining representation, minus shift * I.

    With shift 0 it evaluates to n(n+2) times the identity.
    """
    rep = fundamental_rep(n)
    d = n + 1
    out = np.zeros((d, d))
    for e, f in zip(rep.raising, rep.lowering):
        out += (n + 1) * (e @ f + f @ e)
    for a in range(1, n + 1):
        h = rep.cartan[a - 1]
        out += a * (n + 1 - a) * (h @ h)
    for a in range(1, n + 1):
        for b in range(1, n - a + 1):
            ha, hb = rep.cartan[a - 1], rep.cartan[a + b - 1]
            out += 2 * a * (n + 1 - a - b) * (ha @ hb)
    return out - shift * np.eye(d)


def delta_casimir_sum(n: int) -> np.ndarray:
    """Two-site coproduct image of the Casimir, assembled as an operator sum.

    The shift constant is fixed to 2n(n+2) so that the two single-site
    Casimir copies cancel and only cross terms survive.
    """
    rep = fundamental_rep(n)
    d = n + 1
    out = np.zeros((d * d, d * d))
    for a in range(1, d + 1):
        for b in range(1, d + 1):
            if a != b:
                out += (n + 1) * kron(unit_matrix(a, b, n), unit_matrix(b, a, n))
    for a in range(1, n + 1):
        h = rep.cartan[a - 1]
        out += a * (n + 1 - a) * kron(h, h)
    for a in range(1, n + 1):
        for b in range(1, n - a + 1):
            ha, hb = rep.cartan[a - 1], rep.cartan[a + b - 1]
            out += a * (n + 1 - a - b) * (kron(ha, hb) + kron(hb, ha))
    return out


def index_classes(n: int) -> tuple[list[int], list[int], list[int]]:
    """The three 1-based index families entering the closed entry formula.

    diagonal class: l(n+2)+1 for l = 0..n (the doubly-occupied pair states);
    the other two classes list the paired off-diagonal positions.
    """
    diag = [l * (n + 2) + 1 for l in range(n + 1)]
    upper = [j * (n + 2) + k + 2 for j in range(n) for k in range(n - j)]
    lower = [(j + 1) * (n + 2) + k * (n + 1) for j in range(n) for k in range(n - j)]
    return diag, upper, lower


def delta_casimir_indexed(n: int) -> np.ndarray:
    """Two-site coproduct Casimir from the closed Kronecker-delta formula."""
    d = n + 1
    m = d * d
    out = -np.eye(m)
    diag, upper, lower = index_classes(n)
    for idx in diag:
        out[idx - 1, idx - 1] += n + 1
    for a, b in zip(upper, lower):
        out[a - 1, b - 1] += n + 1
        out[b - 1, a - 1] += n + 1
    return out


def delta_casimir(n: int) -> np.ndarray:
    """Canonical two-site coproduct Casimir (the indexed route)."""
    return delta_casimir_indexed(n)


def index_partition_check(n: int) -> bool:
    """True iff the three index families partition 1..(n+1)^2."""
    diag, upper, lower = index_classes(n)
    seen = diag + upper + lower
    return len(seen) == (n + 1) ** 2 and set(seen) == set(range(1, (n + 1) ** 2 + 1))


def coproduct(op: np.ndarray) -> np.ndarray:
    """Two-site coproduct x (x) 1 + 1 (x) x."""
    op = as_matrix(op)
    ident = np.eye(len(op))
    return np.kron(op, ident) + np.kron(ident, op)


def casimir_quadratic_residual(n: int) -> float:
    """Residual of (DC)^2 + 2 DC - n(n+2) I for the coproduct Casimir DC."""
    dc = delta_casimir(n)
    m = dc.shape[0]
    return frobenius_norm(dc @ dc + 2.0 * dc - n * (n + 2) * np.eye(m))


def casimir_cubic_residuals(n: int) -> tuple[float, float]:
    """Residuals of the two three-site exchange identities for the coproduct Casimir.

    With A = DC (x) 1 and B = 1 (x) DC on the (n+1)^3-dimensional space the
    claimed identities are

        A B A - n (B A + A B) + (n^2 - 1) A + n^2 B + n (1 - n^2) = 0
        B A B - n (B A + A B) + (n^2 - 1) B + n^2 A + n (1 - n^2) = 0

    Both hold only for n = 1. For n >= 2 each left side equals
    -(n+1)^3 times the signed sum over the six three-site place
    permutations (the alternating projector, scaled), so the residual is
    exactly 6 (n+1)^3 sqrt(binomial(n+1, 3)).
    """
    d = n + 1
    dc = delta_casimir(n)
    a, b = (embed_two_site(dc, i, 3, d) for i in (1, 2))
    i3 = np.eye(d ** 3)
    lhs1 = a @ b @ a - n * (b @ a + a @ b) + (n * n - 1) * a + n * n * b + n * (1 - n * n) * i3
    lhs2 = b @ a @ b - n * (b @ a + a @ b) + (n * n - 1) * b + n * n * a + n * (1 - n * n) * i3
    return frobenius_norm(lhs1), frobenius_norm(lhs2)
