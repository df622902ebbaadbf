"""Stochastic matrices and intensity matrices built from the lattice models.

Convention: entry (i, j) of a transition matrix is the probability of
moving TO state i FROM state j, so columns sum to one. Intensity matrices
have non-negative off-diagonal entries and zero column sums. States are
indexed 1-based at the API surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice_an import ChainSpec, _LatticeSpec, two_site_h
from .linalg import (Entries, _components, _HeldAsEntries, _stacks,
                     _strongly_connected_components, check_dense_size,
                     embedded_entries, intensity_exp, nonzero_entries, symmetric_eigenvalues)
from .reporting import DEFAULT_TOL, Tolerance, VerificationReport
from .su2_ladder import column_sum_value, h_doubleprime

EDGE_THRESHOLD = 1e-12  # assembled entries are exact rationals; true zeros are exact


@dataclass(frozen=True)
class LadderParams:
    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.a, self.b, self.c)):
            raise ValueError(f"ladder parameters a, b, c must be finite, "
                             f"got a={self.a}, b={self.b}, c={self.c}")


@dataclass(frozen=True)
class LadderSpec(_LatticeSpec):
    """A two-leg ladder with L rungs; each rung holds four states."""

    L: int

    def __post_init__(self) -> None:
        self._check_length("rungs")

    @property
    def local_dim(self) -> int:
        return 4


@dataclass(frozen=True, eq=False)
class MarkovChain(_HeldAsEntries):
    """A transition or intensity matrix, held as its entries, plus its state encoding.

    The read-only entries, sorted by column, are the chain's one copy of its matrix:
    a lattice chain's are summed from its kernel, and `from_matrix` reads an ad-hoc
    matrix's once. Every analysis reads them; `matrix` scatters them into a read-only
    dense array on first use, for export. spec may be None for ad-hoc matrices that
    carry no lattice encoding.
    """

    kind: str  # "transition" | "intensity"
    entries: Entries
    spec: ChainSpec | LadderSpec | None

    def __post_init__(self) -> None:
        if self.kind not in ("transition", "intensity"):
            raise ValueError("kind must be 'transition' or 'intensity'")

    @classmethod
    def from_matrix(cls, kind: str, matrix, spec=None) -> MarkovChain:
        """The chain of a dense matrix, read once into entries; a matrix that is not
        square is refused."""
        return cls(kind, nonzero_entries(matrix), spec)

    @property
    def num_states(self) -> int:
        return self.entries.dim


# ---------------------------------------------------------------------------
# state encoding: site 1 is the most significant base-local_dim digit,
# indices are 1-based; a ladder rung (leg1, leg2) is the digit 2 leg1 + leg2


def _whole_number(value, what: str) -> int:
    if isinstance(value, (str, bytes)) or not float(value).is_integer():  # and NaN, inf
        raise ValueError(f"{what} must be a whole number, got {value!r}")
    return int(value)


def encode(label, spec: ChainSpec | LadderSpec) -> int:
    digits = list(label)
    if len(digits) != spec.L:
        raise ValueError(f"label length {len(digits)} != L = {spec.L}")
    if isinstance(spec, LadderSpec):
        rungs, digits = digits, []
        for leg1, leg2 in rungs:
            if leg1 not in (0, 1) or leg2 not in (0, 1):
                raise ValueError("leg values must be 0 or 1")
            digits.append(2 * leg1 + leg2)
    digits = [_whole_number(v, "site value") for v in digits]
    if any(not 0 <= v < spec.local_dim for v in digits):
        raise ValueError("site value out of range")
    index = 0
    for v in digits:
        index = index * spec.local_dim + v
    return index + 1


def decode(index: int, spec: ChainSpec | LadderSpec):
    index = _whole_number(index, "state index")
    if not 1 <= index <= spec.dim:
        raise ValueError(f"index {index} out of range 1..{spec.dim}")
    value = index - 1
    digits = []
    for _ in range(spec.L):
        value, v = divmod(value, spec.local_dim)
        digits.append(v)
    digits.reverse()
    if isinstance(spec, LadderSpec):
        return tuple((v >> 1, v & 1) for v in digits)
    return tuple(digits)


# ---------------------------------------------------------------------------
# construction


def _local_chain(spec: ChainSpec | LadderSpec, kernel: np.ndarray, column_sum: float,
                 kind: str) -> MarkovChain:
    """Markov matrix of a two-site kernel whose every column sums to column_sum.

    transition: (sum of embedded kernels) / ((L-1) column_sum);
    intensity: sum of embedded (kernel - column_sum * identity).
    """
    check_dense_size(spec.dim)
    if column_sum == 0.0:  # n + 1 cannot vanish; the ladder's 4 (18 + 4a + 4b + c) can
        raise ValueError("degenerate normalizer: 18 + 4a + 4b + c = 0")
    normalizer = (spec.L - 1) * column_sum if kind == "transition" else column_sum
    if not np.isfinite(normalizer):  # huge parameters overflow it, and P would read 0
        raise ValueError(f"normalizer {normalizer} is not finite")
    if kind == "transition":
        worst = float(kernel.min())
        if worst < 0:
            raise ValueError(f"parameters outside the non-negativity region "
                             f"(min entry value {worst})")
    elif kind == "intensity":
        worst = float(kernel[~np.eye(len(kernel), dtype=bool)].min(initial=0.0))
        if worst < 0:
            raise ValueError(f"parameters give a negative off-diagonal rate "
                             f"(min off-diagonal value {worst})")
        kernel = kernel - column_sum * np.eye(len(kernel))
    else:
        raise ValueError("kind must be 'transition' or 'intensity'")
    entries = embedded_entries(kernel, spec.L, spec.local_dim)
    if kind == "transition":
        entries = entries._replace(values=entries.values / normalizer)  # a new array
        entries.values.flags.writeable = False
    if not np.isfinite(entries.values).all():  # the sum of finite bond terms can overflow
        raise ValueError("matrix has non-finite entries")
    return MarkovChain(kind, entries, spec)


def build_an_markov(spec: ChainSpec, kind: str) -> MarkovChain:
    """Chain-model Markov matrices: P = H/((L-1)(n+1)), Q = H - (n+1)(L-1) I."""
    return _local_chain(spec, two_site_h(spec.n), spec.n + 1, kind)


def build_ladder_markov(params: LadderParams, L: int, kind: str) -> MarkovChain:
    """Ladder Markov matrices from the transformed density.

    transition: (sum of embedded densities) / (4 (L-1) (18 + 4a + 4b + c));
    intensity: sum of embedded (density - column-sum * identity).
    """
    a, b, c = params.a, params.b, params.c
    return _local_chain(LadderSpec(L), h_doubleprime(a, b, c),
                        column_sum_value(a, b, c), kind)


# ---------------------------------------------------------------------------
# validation and structure


def validate(chain: MarkovChain, tol: Tolerance = DEFAULT_TOL) -> VerificationReport:
    """Stochasticity / intensity validation under the column convention.

    Reports the worst entry (off-diagonal for intensity matrices), the
    worst column-sum deviation, and, informationally, whether rows satisfy
    the same normalization (true for symmetric matrices). Read from the entries:
    a column is summed in row order, as numpy sums a dense matrix's columns.
    """
    rows, cols, values, n = chain.entries
    target = 1.0 if chain.kind == "transition" else 0.0
    col_dev = float(np.max(np.abs(np.bincount(cols, values, n) - target), initial=0.0))
    row_dev = float(np.max(np.abs(np.bincount(rows, values, n) - target), initial=0.0))
    if chain.kind == "transition":  # a position with no entry, or a 0 x 0 matrix, reads 0.0
        min_entry = float(values.min(initial=np.inf if 0 < len(values) == n * n else 0.0))
    else:
        min_entry = float(values[rows != cols].min(initial=0.0))
    passed = min_entry >= -tol.abs_tol and col_dev <= tol.abs_tol
    return VerificationReport(
        name=f"markov_{chain.kind}",
        residuals={"min_entry": min_entry, "column_sum_deviation": col_dev},
        tol=tol.abs_tol,
        passed=passed,
        info={"row_normalized": row_dev <= tol.abs_tol, "row_sum_deviation": row_dev},
    )


def absorbing_states(chain: MarkovChain, tol: Tolerance = DEFAULT_TOL) -> list[int]:
    """States j that keep their mass, p_jj = 1 within tol, and that no flow leaves: no
    off-diagonal entry of column j exceeds EDGE_THRESHOLD, the edge rule of
    `closed_sets`; flow into j does not count. Read from the entries."""
    if chain.kind != "transition":
        raise ValueError("absorbing-state detection expects a transition matrix")
    rows, cols, values, _ = chain.entries
    absorbing = np.abs(chain.entries.diagonal() - 1.0) <= tol.abs_tol
    absorbing[cols[(rows != cols) & (values > EDGE_THRESHOLD)]] = False
    return (np.flatnonzero(absorbing) + 1).tolist()


def absorbing_states_formula(spec: ChainSpec) -> list[int]:
    """Closed-form absorbing set of the chain model: the all-equal states.

    State (l, l, ..., l) has index l ((n+1)^L - 1)/n + 1 for l = 0..n.
    """
    n, L = spec.n, spec.L
    step = ((n + 1) * ((n + 1) ** (L - 1) - 1) + n) // n
    return [l * step + 1 for l in range(n + 1)]


@dataclass
class ChainAnalysis:
    absorbing: list[int]
    closed_sets: list[list[int]]
    reducible: bool


def closed_sets(chain: MarkovChain) -> ChainAnalysis:
    """Minimal closed sets of the chain: sink components of the flow graph.

    The directed graph has an edge j -> i whenever the (i, j) entry exceeds
    EDGE_THRESHOLD (off the diagonal), i.e. whenever probability can flow
    from j to i. Sink components of the condensation have no outgoing
    flow, so they are exactly the minimal closed sets; a proper closed set
    exists (the chain is reducible) whenever there is more than one
    component. The edges are read from the chain's entries.

    Where every edge has its reverse, as in a reversible chain, no flow is one-way,
    so every component is a sink: one numpy pass (`linalg._components`) finds them.
    Only a chain with a one-way edge runs Tarjan's algorithm.
    """
    rows, cols, values, n = chain.entries
    edges = (values > EDGE_THRESHOLD) & (rows != cols)
    # flow from sources[k] into targets[k], grouped by source as the entries are by column
    sources, targets = cols[edges], rows[edges]
    del edges  # the mask, and a sorted copy below, would raise the memory peak
    # the keys source * n + target ascend, so every edge has its reverse exactly when
    # the reversed keys, sorted, equal them
    reversed_keys = targets * n + sources
    reversed_keys.sort()
    two_way = np.array_equal(reversed_keys, sources * n + targets)
    del reversed_keys
    if two_way:
        sinks = [(comp + 1).tolist() for comp in _components(n, targets, sources)]
        count = len(sinks)
    else:
        comps = _strongly_connected_components(n, sources, targets)
        comp_of = np.empty(n, dtype=np.intp)
        for cid, comp in enumerate(comps):
            comp_of[comp] = cid
        # components that some flow leaves
        leaky = set(comp_of[sources[comp_of[targets] != comp_of[sources]]].tolist())
        sinks = sorted(sorted(node + 1 for node in comp)
                       for cid, comp in enumerate(comps) if cid not in leaky)
        count = len(comps)
    absorbing = [s[0] for s in sinks if len(s) == 1]
    return ChainAnalysis(absorbing=absorbing, closed_sets=sinks, reducible=count > 1)


def _sink_laws(chain: MarkovChain, sinks: list[list[int]]) -> np.ndarray:
    """Stationary laws of an intensity chain on sink components (the closed sets
    `closed_sets` returns, 1-based), one full-length vector that holds each law on its
    set and 0 elsewhere. A sink component is irreducible, so its law is unique, and the
    bordered system, Q_S with its last row replaced by ones and right-hand side e_last,
    is regular: one LU solve (`np.linalg.solve`) per stack of equal-size sets
    (`linalg._stacks`). The package's one stationary-law solver."""
    laws = np.zeros(chain.num_states)
    for members, stack in _stacks(chain.entries, [np.array(s) - 1 for s in sinks]):
        stack[:, -1, :] = 1.0
        last = np.zeros(members.shape + (1,))
        last[:, -1] = 1.0
        laws[members] = np.linalg.solve(stack, last)[..., 0]
    return laws


def stationary_distribution(chain: MarkovChain, closed_set) -> np.ndarray:
    """Stationary law of an intensity matrix on a closed set of states (1-based).

    The law is unique exactly when one closed set of the chain (`closed_sets`, by its
    EDGE_THRESHOLD rule) lies inside the given set. It is then that class's law from
    `_sink_laws`: a full-length vector, 0 on the set's transient members and off the
    set. Raises if the set is not closed, if it holds no closed class or more than
    one, or if the solve gives an entry below -1e-9; negative entries above it are
    clipped to 0.
    """
    if chain.kind != "intensity":
        raise ValueError("stationary distributions are computed for intensity matrices")
    try:
        members = sorted(_whole_number(s, "state") for s in closed_set)
    except ValueError:
        raise ValueError("closed set members must be whole state numbers") from None
    if not members:
        raise ValueError("closed set is empty")
    if members[0] < 1 or members[-1] > chain.num_states or len(set(members)) < len(members):
        raise ValueError(f"closed set members must be distinct states in 1..{chain.num_states}")
    rows, cols, values, n = chain.entries
    inside = np.zeros(n, dtype=bool)
    inside[[s - 1 for s in members]] = True
    leak = float(np.abs(values[inside[cols] & ~inside[rows]]).max(initial=0.0))
    if leak > EDGE_THRESHOLD:
        raise ValueError(f"set is not closed: outgoing rate {leak}")
    # no flow leaves the set, so a closed class with a member in it lies inside it
    classes = [s for s in closed_sets(chain).closed_sets if inside[s[0] - 1]]
    if len(classes) != 1:
        raise ValueError(f"null space dimension {len(classes)} != 1; "
                         "stationary distribution is not unique on this set")
    law = _sink_laws(chain, classes)
    if law.min() < -1e-9:
        raise ValueError("stationary solution has a negative entry")
    return np.clip(law, 0.0, None, out=law)


def spectrum_coincidence(reference, chain: MarkovChain, scale: float, shift: float,
                         tol: Tolerance = DEFAULT_TOL) -> float:
    """Largest eigenvalue mismatch between the chain and an affine image of a
    reference spectrum, such as `chain_spectrum` of the chain's Hamiltonian.

    The chain's matrix must be symmetric (true for every chain built here); the
    spectra are compared sorted, elementwise, after mapping the reference
    spectrum through x -> scale * x + shift.
    """
    ref = np.asarray(reference, dtype=float)
    if ref.shape != (chain.num_states,):
        raise ValueError(f"reference spectrum of shape {ref.shape} does not match "
                         f"a chain of {chain.num_states} states")
    ref = np.sort(ref)
    got = symmetric_eigenvalues(chain.entries, tol)
    return float(np.max(np.abs(got - (scale * ref + shift))))


def transition_semigroup(chain: MarkovChain, t: float) -> np.ndarray:
    """e^(Q t) for an intensity chain; a valid transition matrix for t >= 0."""
    if chain.kind != "intensity":
        raise ValueError("semigroup is generated by an intensity matrix")
    return intensity_exp(chain.entries, t)
