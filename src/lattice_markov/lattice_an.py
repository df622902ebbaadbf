"""Open chains of interchange type with rank-n special-linear symmetry.

The two-site density is the shifted coproduct Casimir, which in the
defining representation is (n+1) times the pair-swap operator. The chain
Hamiltonian is the open sum of embedded densities; its global symmetry
generators are single-site sums of the algebra generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .an_algebra import delta_casimir, fundamental_rep
from .braid_tl import tl_from_an
from .linalg import DENSE_SIZE_GUARD  # noqa: F401  re-exported
from .linalg import (_one_site_sum, as_matrix, check_dense_size, embedded_sum, frobenius_norm,
                     invariance_residual, symmetric_eigenvalues)
from .reporting import DEFAULT_TOL, Tolerance


class _LatticeSpec:
    """L sites of local_dim states each: the part ChainSpec and LadderSpec share."""

    def _check_length(self, sites: str) -> None:
        if self.L < 2:
            raise ValueError(f"need at least two {sites}")

    @property
    def dim(self) -> int:
        return self.local_dim ** self.L

    def guard_dense(self) -> None:
        check_dense_size(self.dim)


@dataclass(frozen=True)
class ChainSpec(_LatticeSpec):
    """A rank-n chain with L sites; the state space has (n+1)^L states."""

    n: int
    L: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("rank must be >= 1")
        self._check_length("sites")

    @property
    def local_dim(self) -> int:
        return self.n + 1


@dataclass
class LatticeHamiltonian:
    spec: ChainSpec
    matrix: np.ndarray


def two_site_h(n: int) -> np.ndarray:
    """Two-site density: coproduct Casimir plus the pair identity.

    Entrywise this is (n+1) times the swap of the two sites.
    """
    d = n + 1
    return delta_casimir(n) + np.eye(d * d)


def hamiltonian(spec: ChainSpec) -> LatticeHamiltonian:
    total = embedded_sum(two_site_h(spec.n), spec.L, spec.local_dim)
    return LatticeHamiltonian(spec=spec, matrix=total)


def global_generators(spec: ChainSpec) -> list[np.ndarray]:
    """Single-site sums of every algebra generator over all L sites."""
    spec.guard_dense()
    return [_one_site_sum(g, spec.L, spec.local_dim)
            for g in fundamental_rep(spec.n).all_generators()]


def symmetry_residual(h: LatticeHamiltonian) -> float:
    """Largest commutator norm of the Hamiltonian with a global generator."""
    return invariance_residual(h.matrix, global_generators(h.spec))


def chain_spectrum(h, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Ascending spectrum of a symmetric chain Hamiltonian."""
    matrix = h.matrix if isinstance(h, LatticeHamiltonian) else as_matrix(h)
    return symmetric_eigenvalues(matrix, tol)


def tl_decomposition_residuals(n: int, L: int) -> tuple[float, float]:
    """Residuals of the two candidate chain decompositions over TL generators.

    With e_i the embedded TL candidate E = 1 - H2/(n+1), the chain
    Hamiltonian can be conjectured to equal either

        (n+1) sum_i e_i + (n+1)(L-1)    ("plus" reading), or
        (n+1)(L-1) - (n+1) sum_i e_i    ("minus" reading).

    Returns (plus_residual, minus_residual); the minus reading is the one
    that holds, since E = 1 - H2/(n+1) gives H2 = (n+1)(1 - E).
    """
    spec = ChainSpec(n, L)
    h = hamiltonian(spec).matrix
    e_sum = embedded_sum(tl_from_an(n).matrix, L, spec.local_dim)
    ident = np.eye(spec.dim)
    plus = (n + 1) * e_sum + (n + 1) * (L - 1) * ident
    minus = (n + 1) * (L - 1) * ident - (n + 1) * e_sum
    return frobenius_norm(h - plus), frobenius_norm(h - minus)
