"""Real linear algebra used by every model in the package.

Matrices are plain 2-D float64 numpy arrays. A lattice operator, a sum of
one small kernel over every site or bond, is held as its sorted non-zero
entries (`Entries`); spectra and the semigroup gather each connected block
from them, and its dense matrix is only for export. All public routines are
pure functions; their inputs are never mutated.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Iterator
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .reporting import DEFAULT_TOL, REL_TOL, Tolerance


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    # in blocks of rows, so that no bool temporary the size of m is made
    if not all(np.isfinite(m[i:i + 256]).all() for i in range(0, len(m), 256)):
        raise ValueError("matrix has non-finite entries")
    return m


def _pair(op: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(op (x) 1_d, 1_d (x) op) for a square float matrix op, the left factor the
    more significant index: each one broadcast product, equal to np.kron bit for bit."""
    m = len(op)
    eye = np.eye(d)
    left = (op[:, None, :, None] * eye[None, :, None, :]).reshape(m * d, m * d)
    right = (eye[:, None, :, None] * op[None, :, None, :]).reshape(m * d, m * d)
    return left, right


DENSE_SIZE_GUARD = 4096  # largest state space built as a dense matrix


def check_dense_size(dim: int) -> None:
    if dim > DENSE_SIZE_GUARD:
        raise ValueError(f"state space {dim} exceeds dense guard {DENSE_SIZE_GUARD}")


class Entries(NamedTuple):
    """The entries of a dim x dim matrix outside which it is zero, sorted by column
    and then by row, each position at most once: 0-based rows and cols, values."""

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    dim: int

    def dense(self) -> np.ndarray:
        """The matrix: the entries scattered into zeros."""
        m = np.zeros((self.dim, self.dim))
        m[self.rows, self.cols] = self.values
        return m

    def diagonal(self) -> np.ndarray:
        """The matrix's diagonal, 0.0 where no entry sits on it."""
        d, on = np.zeros(self.dim), self.rows == self.cols
        d[self.rows[on]] = self.values[on]
        return d


class _HeldAsEntries:
    """The part MarkovChain and LatticeHamiltonian share: a frozen value whose matrix
    is its read-only `entries`. `matrix` scatters them into a read-only dense array
    on first use and keeps it, for export."""

    @cached_property
    def matrix(self) -> np.ndarray:
        m = self.entries.dense()
        m.flags.writeable = False  # an in-place write would leave the entries stale
        return m


def nonzero_entries(m) -> Entries:
    """The non-zero entries of a square matrix, from one pass over it."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    n = len(m)
    rows, cols = np.nonzero(m != 0)
    return _merged(cols * n + rows, m[rows, cols], n)


def _merged(keys: np.ndarray, values: np.ndarray, dim: int) -> Entries:
    """Read-only entries of the sum of terms at positions keys = col * dim + row; keys
    and values are sorted in place. Terms at one position are added in the order
    given, from 0.0, as += would add them; sums that are exactly zero are dropped."""
    order = np.argsort(keys, kind="stable")
    keys[:] = keys[order]  # in place, so that no unsorted copy stays alive
    values[:] = values[order]
    del order
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    group = np.cumsum(first)
    group -= 1
    sums = np.bincount(group, weights=values).astype(float, copy=False)  # int if no terms
    del group
    kept = sums != 0.0
    cols, rows = np.divmod(keys[first][kept], dim)
    entries = Entries(rows, cols, sums[kept], dim)
    for array in entries[:3]:
        array.flags.writeable = False  # an edit would leave a cached dense matrix stale
    return entries


def embedded_entries(op, L: int, d: int) -> Entries:
    """Entries of the open-chain sum of op, taken from op's non-zero entries: a
    d x d op on every site i = 1..L, or a d^2 x d^2 op on every bond (i, i+1).

    With a = d^(i-1), k the size of op and b = d^L / (a k), entry (p, q) of op
    on sites i, i+1, ... lands at row c + p b and column c + q b for every
    corner c = x k b + y with x < a and y < b. Terms are merged in site order,
    so the entries equal the sum of the terms 1_a (x) op (x) 1_b, each padded by
    np.kron, bit for bit.
    """
    op = as_matrix(op)
    if op.shape not in ((d, d), (d * d, d * d)):
        raise ValueError(f"operator must be {d}x{d} or {d * d}x{d * d}, got {op.shape}")
    k, dim = len(op), d ** L
    q, p = np.nonzero(op.T)  # by column: each corner's keys come sorted, for the stable sort
    keys, values = [], []
    for i in range(1, L + 1 if k == d else L):  # sites, or bonds
        a = d ** (i - 1)
        b = dim // (a * k)
        corner = (np.arange(a)[:, None] * (k * b) + np.arange(b)).reshape(-1, 1)
        keys.append((corner * (dim + 1) + (q * dim + p) * b).ravel())  # col * dim + row
        values.append(np.broadcast_to(op[p, q], (len(corner), len(p))).ravel())
    keys, values = np.concatenate(keys), np.concatenate(values)  # the blocks are freed
    return _merged(keys, values, dim)


def embedded_sum(op, L: int, d: int) -> np.ndarray:
    """Open-chain sum of op: a d x d op on every site i = 1..L, or a
    d^2 x d^2 op on every bond (i, i+1), i = 1..L-1. Equal entry for entry
    to the sum of the np.kron-padded terms (`embedded_entries`)."""
    check_dense_size(d ** L)
    return embedded_entries(op, L, d).dense()


def commutator(a, b) -> np.ndarray:
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError("commutator needs square matrices of equal size")
    return a @ b - b @ a


def _product_terms(a: Entries, b: Entries) -> tuple[np.ndarray, np.ndarray]:
    """Unmerged terms a_ik b_kj of AB as (keys col * dim + row, values): each entry
    of b is paired with the entries of a's column k, which a holds contiguously."""
    ptr = np.searchsorted(a.cols, np.arange(a.dim + 1))
    count = np.diff(ptr)[b.rows]
    first = np.cumsum(count) - count  # where each entry of b's terms start
    pair_b = np.repeat(np.arange(len(b.rows)), count)
    pair_a = np.arange(len(pair_b)) - np.repeat(first - ptr[b.rows], count)
    return b.cols[pair_b] * a.dim + a.rows[pair_a], a.values[pair_a] * b.values[pair_b]


def commutator_norm(a: Entries, b: Entries) -> float:
    """Frobenius norm of AB - BA from the entries of A and B, with no dense product."""
    if a.dim != b.dim:
        raise ValueError("commutator needs square matrices of equal size")
    ab_keys, ab_values = _product_terms(a, b)
    ba_keys, ba_values = _product_terms(b, a)
    terms = _merged(np.concatenate([ab_keys, ba_keys]),
                    np.concatenate([ab_values, -ba_values]), a.dim)
    return float(np.linalg.norm(terms.values))


def invariance_residual(op, generators) -> float:
    """Largest commutator norm of op with any of the generators."""
    return max(frobenius_norm(commutator(op, g)) for g in generators)


def frobenius_norm(a) -> float:
    """Frobenius norm; raises OverflowError where the sum of squares overflows."""
    a = as_matrix(a)
    try:
        with np.errstate(over="raise"):
            return float(np.linalg.norm(a))
    except FloatingPointError:
        raise OverflowError(f"Frobenius norm of a matrix with entries up to "
                            f"{np.abs(a).max():.3g} overflows float64") from None


def _symmetrised(e: Entries, tol: Tolerance) -> Entries:
    """Entries of 0.5 (A + A^T), so that roundoff asymmetry cannot leak into an eigen
    solve. A is refused unless |A - A^T|_F <= max(abs_tol, REL_TOL |A|_F), both norms
    taken from entries."""
    n, v = e.dim, e.values
    keys = np.concatenate([e.cols * n + e.rows, e.rows * n + e.cols])  # A, then A^T
    defect = float(np.linalg.norm(_merged(keys.copy(), np.concatenate([v, -v]), n).values))
    if defect > max(tol.abs_tol, REL_TOL * float(np.linalg.norm(v))):
        raise ValueError(f"matrix is not symmetric within tolerance (defect {defect:.3e})")
    return _merged(keys, np.concatenate([0.5 * v, 0.5 * v]), n)


def _strongly_connected_components(n: int, tails: np.ndarray,
                                   heads: np.ndarray) -> list[list[int]]:
    """Tarjan's algorithm, iterative, on n nodes with an edge from each tails[k]
    to heads[k]; tails must be sorted. Returns components as lists of 0-based
    nodes."""
    bounds = np.searchsorted(tails, np.arange(n + 1)).tolist()
    flat = heads.tolist()
    adjacency = [flat[bounds[i]:bounds[i + 1]] for i in range(n)]
    index = [-1] * n  # set to n once a node's component is complete
    low = [0] * n
    stack: list[int] = []
    # the depth-first path: each node with its unread edges and its place on the stack
    work: list[tuple[int, Iterator[int], int]] = []
    components: list[list[int]] = []
    counter = itertools.count()

    def enter(node: int) -> None:
        index[node] = low[node] = next(counter)
        work.append((node, iter(adjacency[node]), len(stack)))
        stack.append(node)

    for root in range(n):
        if index[root] == -1:
            enter(root)
        while work:
            node, edges, place = work[-1]
            for nxt in edges:  # resumes after the child that was last entered
                if index[nxt] == -1:
                    enter(nxt)
                    break
                if index[nxt] < low[node]:  # nxt is on the stack: completed ones hold n
                    low[node] = index[nxt]
            else:
                work.pop()
                if low[node] == index[node]:
                    components.append(stack[place:])
                    del stack[place:]
                    for w in components[-1]:
                        index[w] = n
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
    return components


def _label_rounds(n: int, rows: np.ndarray, cols: np.ndarray) -> Iterator[np.ndarray]:
    """Min-label propagation with pointer jumping (after Shiloach and Vishkin,
    J. Algorithms 3 (1982) 57-67) on n nodes joined by a symmetric support, held as
    entries (rows, cols) sorted by column; yields the labels after each round.

    Each round every node takes the least label among its column's rows, and so
    does its root (the label it held) if that is lower; then the labels are
    pointer-jumped (label = label[label]) to a fixpoint. The first round that
    changes nothing is the last. A label is always a node of the same component, so
    never below its least node; after r rounds every label is at most the least node
    within distance r. So the loop ends within diameter + 1 <= n rounds, with each
    node labelled by its component's least node. Hooking the roots keeps a badly
    numbered graph from taking that many: a 4096-node path in random order takes 9
    rounds, not 1073. The next round may overwrite a yielded array in place.
    """
    label = np.arange(n)
    ptr = np.searchsorted(cols, np.arange(n + 1))
    nodes = np.flatnonzero(ptr[:-1] < ptr[1:])  # nodes whose column holds an entry
    starts = ptr[nodes]
    gathered = np.empty(len(rows), dtype=label.dtype)  # one buffer for every round
    while True:
        np.take(label, rows, out=gathered, mode="clip")  # "raise" would buffer out
        least = np.minimum.reduceat(gathered, starts)
        lower = least < label[nodes]
        if not lower.any():
            yield label
            return
        hooked, least = nodes[lower], least[lower]
        roots = label[hooked]  # each hooked node's root takes the least of its nodes too
        label[hooked] = least
        np.minimum.at(label, roots, least)
        while not np.array_equal(jumped := label[label], label):
            label = jumped
        yield label


def _components(n: int, rows: np.ndarray, cols: np.ndarray) -> list[np.ndarray]:
    """0-based sorted index arrays of the connected components of n nodes joined by a
    symmetric support, held as entries (rows, cols) sorted by column; ordered by
    first member. Labels come from `_label_rounds`."""
    for label in _label_rounds(n, rows, cols):  # yields at least once
        pass
    order = np.argsort(label, kind="stable")  # by least member, each block ascending
    return np.split(order, np.flatnonzero(np.diff(label[order])) + 1) if n else []


def _blocks(e: Entries) -> list[np.ndarray]:
    """0-based sorted index arrays of the connected components of the graph with an
    edge wherever (i, j) or (j, i) holds an entry, so no entry lies off the blocks;
    ordered by first member."""
    rows, cols, _, n = e
    edges = _merged(np.concatenate([cols * n + rows, rows * n + cols]), np.ones(2 * len(rows)), n)
    return _components(n, edges.rows, edges.cols)


_STACK_ENTRIES = 2 ** 20  # most entries (8 MiB of float64) in a stack of more than one block


def _stacks(e: Entries, blocks: list[np.ndarray]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The blocks m[np.ix_(b, b)] of the matrix m the entries hold, for disjoint non-empty
    0-based index arrays b, in stacks of equal size: yields (members, stack), a (B, size)
    array of B of the index arrays and a new (B, size, size) array of their blocks.
    Blocks go by size, then in the order given. A stack holds at most _STACK_ENTRIES
    entries unless it is one block, so a large block goes alone and the memory peak
    stays at one largest block. The entries are read once: each is mapped to its block
    and its place there, and those off the blocks are dropped."""
    sizes = np.array([len(b) for b in blocks], dtype=np.intp)
    order = np.argsort(sizes, kind="stable")
    sizes = sizes[order]
    members = np.concatenate([np.empty(0, np.intp)] + [blocks[k] for k in order])
    starts = np.cumsum(sizes) - sizes
    block_of = np.full(e.dim, -1)  # each state's block, numbered in size order
    block_of[members] = np.repeat(np.arange(len(sizes)), sizes)
    place = np.zeros(e.dim, dtype=np.intp)  # each state's place in its block
    place[members] = np.arange(len(members)) - np.repeat(starts, sizes)
    # each run of equal sizes is cut into stacks of `per` blocks: block k goes to
    # stack stack_of[k], at slot[k] in it
    run = np.flatnonzero(np.diff(sizes, prepend=-1))
    per = np.maximum(1, _STACK_ENTRIES // (sizes * sizes))
    slot = (np.arange(len(sizes)) - np.repeat(run, np.diff(run, append=len(sizes)))) % per
    stack_of = np.cumsum(slot == 0) - 1
    count = int(stack_of[-1]) + 1 if len(sizes) else 0  # stacks
    k = block_of[e.rows]
    inside = (k >= 0) & (k == block_of[e.cols])
    k = k[inside]
    offsets = (slot[k] * sizes[k] + place[e.rows[inside]]) * sizes[k] + place[e.cols[inside]]
    by_stack = np.argsort(stack_of[k], kind="stable")
    offsets, values = offsets[by_stack], e.values[inside][by_stack]
    bounds = np.searchsorted(stack_of[k][by_stack], np.arange(count + 1)).tolist()
    del k, inside, by_stack
    firsts = np.searchsorted(stack_of, np.arange(count + 1)).tolist()  # each stack's blocks
    for s in range(count):
        first, m = firsts[s], int(sizes[firsts[s]])
        held = (firsts[s + 1] - first) * m  # states in the stack
        stack = np.zeros(held * m)
        stack[offsets[bounds[s]:bounds[s + 1]]] = values[bounds[s]:bounds[s + 1]]
        yield members[starts[first]:starts[first] + held].reshape(-1, m), stack.reshape(-1, m, m)


def symmetric_eigenvalues(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Ascending eigenvalues (with multiplicity) of a symmetric matrix, dense or held
    as Entries, from the connected blocks of the support of its entries 0.5 (A + A^T)
    (`_symmetrised`, whose support is symmetric): one `np.linalg.eigvalsh` per stack
    of equal-size blocks (`_stacks`), which runs the same LAPACK solve on each; no
    eigenvectors are computed."""
    e = _symmetrised(a if isinstance(a, Entries) else nonzero_entries(a), tol)
    blocks = _components(e.dim, e.rows, e.cols)
    parts = [np.linalg.eigvalsh(stack).ravel() for _, stack in _stacks(e, blocks)]
    return np.sort(np.concatenate([np.empty(0)] + parts))  # [] for a 0 x 0 matrix


def intensity_exp(q, t: float, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Transition semigroup e^(Q t) of an intensity matrix (dense or Entries).

    Off-diagonal entries of q must be non-negative and every column must
    sum to zero (within tolerance); t must be finite and non-negative.
    Uniformization expands e^(Qt) as a Poisson mixture of powers of the
    substochastic jump kernel I + Q/lam, so the result is non-negative by
    construction. Each connected block of q's support (`_blocks`) is
    uniformized at its own rate lam, the blocks of one stack (`_stacks`) with
    one lam together; e^(Qt) is zero off them.
    """
    rows, cols, values, n = e = q if isinstance(q, Entries) else nonzero_entries(q)
    if not 0.0 <= t < math.inf:
        raise ValueError("time must be finite and non-negative")
    if values[rows != cols].min(initial=0.0) < -tol.abs_tol:
        raise ValueError("intensity matrix has a negative off-diagonal entry")
    bound = max(tol.abs_tol, REL_TOL * max(1.0, float(np.abs(values).max(initial=0.0))))
    if np.abs(np.bincount(cols, values, n)).max(initial=0.0) > bound:  # sums in row order
        raise ValueError("intensity matrix columns do not sum to zero")
    blocks = _blocks(e)
    result = None if len(blocks) == 1 else np.zeros((n, n))
    for members, stack in _stacks(e, blocks):
        rates = np.abs(np.diagonal(stack, axis1=1, axis2=2)).max(axis=1)
        for lam in np.unique(rates):
            same = rates == lam
            series = _uniformized(stack if same.all() else stack[same], float(lam), t, tol)
            if result is None:  # no copy out of a matrix that is one block
                return series[0]
            index = members[same]
            result[index[:, :, None], index[:, None, :]] = series
    return result


_SHORT_HORIZON_SQUARINGS = 10  # most squarings taken to shorten lam t to 1 or less


def _uniformized(kernel: np.ndarray, lam: float, t: float, tol: Tolerance) -> np.ndarray:
    """e^(Q t) of a stack of connected blocks Q of an intensity matrix, a (B, m, m)
    array that is overwritten, all at the rate lam, by scaling and squaring (Moler and
    Van Loan, SIAM Rev. 45 (2003) 3-49): the series runs over the horizon t / 2^s and
    its sum is squared s times, with batched products. s is the least count that
    brings lam t / 2^s to 500 or less, so that exp(-lam t / 2^s) stays far above
    underflow, or, if larger, the least that brings it to 1 or less, capped at
    _SHORT_HORIZON_SQUARINGS: a short horizon needs a few terms, the whole one about
    lam t. Each squaring doubles the Poisson mass the series leaves out and the
    roundoff, so truncation gets half the budget, a tail of abs_tol / 2^(s+1), and
    the squares' column mass, worst over the blocks, is checked against abs_tol."""
    m = kernel.shape[-1]
    if lam == 0.0 or t == 0.0:
        kernel[...] = np.eye(m)
        return kernel
    mu, squarings = lam * t, 0
    if mu == math.inf:  # halving would never bring it below 500
        raise ValueError(f"rate {lam} times time {t} overflows float64")
    # 500 keeps exp(-mu) above underflow; 1 makes the series a few terms long
    while mu > 500.0 or (mu > 1.0 and squarings < _SHORT_HORIZON_SQUARINGS):
        mu, squarings = mu / 2.0, squarings + 1
    kernel /= lam  # made I + Q/lam in place: one stack held
    kernel.reshape(len(kernel), m * m)[:, ::m + 1] += 1.0  # each block's diagonal
    np.clip(kernel, 0.0, None, out=kernel)  # clip roundoff-negative entries only
    weight = math.exp(-mu)  # k = 0 term
    series, power = weight * np.broadcast_to(np.eye(m), kernel.shape), np.eye(m)
    accumulated, k = weight, 0
    max_terms = int(mu + 12.0 * math.sqrt(mu) + 60.0)
    # truncation gets half of abs_tol, the squares' roundoff the other half
    tail = tol.abs_tol / 2.0 ** (squarings + 1) if squarings else tol.abs_tol
    while 1.0 - accumulated > tail and k < max_terms:
        k += 1
        power = kernel @ power
        weight *= mu / k
        series += weight * power
        accumulated += weight
    if 1.0 - accumulated > tail:
        raise ValueError(f"uniformization truncated after {k} terms and {squarings} squarings: "
                         f"Poisson mass {1.0 - accumulated:.3e} unaccounted (tolerance {tail:.3e})")
    del kernel, power  # so that the squares hold two stacks, not four
    for _ in range(squarings):  # e^(2Qs) = (e^(Qs))^2 keeps entries non-negative
        series = series @ series
    if squarings and (lost := float(np.abs(series.sum(axis=1) - 1.0).max())) > tol.abs_tol:
        raise ValueError(f"uniformization lost column mass {lost:.3e} over {squarings} squarings")
    return series


# ---------------------------------------------------------------------------
# serialization: CSV (row per line) and JSON {rows, cols, entries row-major}


def save_matrix_csv(a, path) -> None:
    np.savetxt(path, as_matrix(a), fmt="%.17g", delimiter=",")


def load_matrix_csv(path) -> np.ndarray:
    m = np.loadtxt(path, delimiter=",", ndmin=2, comments=None)
    if m.size == 0:
        raise ValueError(f"no matrix rows in {path}")
    return as_matrix(m)


def save_matrix_json(a, path) -> None:
    a = as_matrix(a)
    with open(path, "w", encoding="ascii") as fh:
        json.dump({"rows": int(a.shape[0]), "cols": int(a.shape[1]),
                   "entries": [float(x) for x in a.ravel(order="C")]}, fh)


def load_matrix_json(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        obj = json.load(fh)
    rows, cols = int(obj["rows"]), int(obj["cols"])
    entries = np.asarray(obj["entries"], dtype=float)
    if entries.size != rows * cols:
        raise ValueError("entry count does not match rows*cols")
    return as_matrix(entries.reshape(rows, cols))
