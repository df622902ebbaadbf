"""Open chains of interchange type with rank-n special-linear symmetry.

The two-site density is the shifted coproduct Casimir, which in the
defining representation is (n+1) times the pair-swap operator. The chain
Hamiltonian is the open sum of embedded densities, held as its entries as a
Markov chain is; its global symmetry generators are single-site sums of the
algebra generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .an_algebra import delta_casimir, fundamental_rep
from .braid_tl import tl_from_an
from .linalg import (Entries, _HeldAsEntries, _merged, check_dense_size, commutator_norm,
                     embedded_entries, symmetric_eigenvalues)
from .reporting import DEFAULT_TOL, Tolerance


class _LatticeSpec:
    """L sites of local_dim states each: the part ChainSpec and LadderSpec share."""

    def _check_length(self, sites: str) -> None:
        if self.L < 2:
            raise ValueError(f"need at least two {sites}")

    @property
    def dim(self) -> int:
        return self.local_dim ** self.L


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


@dataclass(frozen=True, eq=False)
class LatticeHamiltonian(_HeldAsEntries):
    """A chain Hamiltonian held as its read-only entries, with a cached read-only
    `matrix`, as a MarkovChain is."""

    spec: ChainSpec
    entries: Entries

    def __post_init__(self) -> None:
        if self.entries.dim != self.spec.dim:
            raise ValueError(f"entries of dimension {self.entries.dim} do not match "
                             f"the {self.spec.dim} states of the chain")


def two_site_h(n: int) -> np.ndarray:
    """Two-site density: coproduct Casimir plus the pair identity.

    Entrywise this is (n+1) times the swap of the two sites.
    """
    d = n + 1
    return delta_casimir(n) + np.eye(d * d)


def hamiltonian(spec: ChainSpec) -> LatticeHamiltonian:
    check_dense_size(spec.dim)
    return LatticeHamiltonian(spec, embedded_entries(two_site_h(spec.n), spec.L, spec.local_dim))


def symmetry_residual(h: LatticeHamiltonian) -> float:
    """Largest commutator norm of the Hamiltonian with a global generator.

    Each commutator is computed from entries: the Hamiltonian's own, each
    generator's from its one-site kernel, one at a time, so no dense generator
    or dense product is built.
    """
    spec = h.spec
    return max(commutator_norm(h.entries, embedded_entries(g, spec.L, spec.local_dim))
               for g in fundamental_rep(spec.n).all_generators())


def chain_spectrum(h: LatticeHamiltonian, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Ascending spectrum of a symmetric chain Hamiltonian."""
    return symmetric_eigenvalues(h.entries, tol)


def tl_decomposition_residuals(n: int, L: int) -> tuple[float, float]:
    """Residuals of the two candidate chain decompositions over TL generators.

    With e_i the embedded TL candidate E = 1 - H2/(n+1), the chain
    Hamiltonian can be conjectured to equal either

        (n+1) sum_i e_i + (n+1)(L-1)    ("plus" reading), or
        (n+1)(L-1) - (n+1) sum_i e_i    ("minus" reading).

    Returns (plus_residual, minus_residual); the minus reading is the one
    that holds, since E = 1 - H2/(n+1) gives H2 = (n+1)(1 - E). Each residual
    merges the entries of H, of -/+(n+1) sum_i e_i and of -(n+1)(L-1) on the
    diagonal, so no dense matrix is built.
    """
    spec = ChainSpec(n, L)
    h = hamiltonian(spec).entries
    e_sum = embedded_entries(tl_from_an(n).matrix, L, spec.local_dim)
    dim = spec.dim
    diagonal = np.arange(dim) * (dim + 1)
    keys = np.concatenate([h.cols * dim + h.rows, e_sum.cols * dim + e_sum.rows, diagonal])

    def residual(sign: int) -> float:
        values = np.concatenate([h.values, -sign * (n + 1) * e_sum.values,
                                 np.full(dim, -float((n + 1) * (L - 1)))])
        return float(np.linalg.norm(_merged(keys.copy(), values, dim).values))

    return residual(1), residual(-1)
