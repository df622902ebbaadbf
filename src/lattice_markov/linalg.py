"""Real linear algebra used by every model in the package.

Matrices are plain 2-D float64 numpy arrays. A lattice operator, a sum of
one small kernel over every site or bond, is also held as its sorted
non-zero entries (`Entries`), built from the kernel; its dense matrix is a
scatter of them. All public routines are pure functions; their inputs are
never mutated.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from .reporting import DEFAULT_TOL, Tolerance


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    # in blocks of rows, so that no bool temporary the size of m is made
    if not all(np.isfinite(m[i:i + 256]).all() for i in range(0, len(m), 256)):
        raise ValueError("matrix has non-finite entries")
    return m


def kron(a, b) -> np.ndarray:
    """Kronecker product with the left factor as the more significant index."""
    return np.kron(as_matrix(a), as_matrix(b))


DENSE_SIZE_GUARD = 4096  # largest state space built as a dense matrix


def check_dense_size(dim: int) -> None:
    if dim > DENSE_SIZE_GUARD:
        raise ValueError(f"state space {dim} exceeds dense guard {DENSE_SIZE_GUARD}")


def embed_two_site(op, i: int, L: int, d: int) -> np.ndarray:
    """Pad a two-site operator to sites (i, i+1) of an L-site chain.

    `op` acts on a pair of adjacent d-dimensional sites; the result is
    1^(i-1) (x) op (x) 1^(L-i-1) on the d^L-dimensional space. Site
    indices are 1-based, i in 1..L-1.
    """
    op = as_matrix(op)
    if op.shape != (d * d, d * d):
        raise ValueError(f"two-site operator must be {d * d}x{d * d}, got {op.shape}")
    if not 1 <= i <= L - 1:
        raise ValueError(f"site index i={i} out of range 1..{L - 1}")
    left = np.eye(d ** (i - 1))
    right = np.eye(d ** (L - i - 1))
    return np.kron(np.kron(left, op), right)


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
    so the entries equal the sum of embed_one_site or embed_two_site terms bit
    for bit.
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
    to the sum of embed_one_site or embed_two_site terms."""
    check_dense_size(d ** L)
    return embedded_entries(op, L, d).dense()


def embed_one_site(op, i: int, L: int, d: int) -> np.ndarray:
    """Pad a single-site operator to site i (1-based) of an L-site chain."""
    op = as_matrix(op)
    if op.shape != (d, d):
        raise ValueError(f"one-site operator must be {d}x{d}, got {op.shape}")
    if not 1 <= i <= L:
        raise ValueError(f"site index i={i} out of range 1..{L}")
    return np.kron(np.kron(np.eye(d ** (i - 1)), op), np.eye(d ** (L - i)))


def _off_diagonal(m: np.ndarray) -> np.ndarray:
    """The off-diagonal entries of a square matrix as an (n-1) x n view.

    In C order the diagonal entries sit n + 1 apart, so dropping the first
    one and the last column of the rest leaves only off-diagonal entries.
    Nothing is copied for a C-contiguous m.
    """
    n = m.shape[0]
    return m.ravel()[1:].reshape(n - 1, n + 1)[:, :-1]


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
    return float(np.linalg.norm(as_matrix(a)))


def symmetry_defect(a) -> float:
    a = as_matrix(a)
    return float(np.linalg.norm(a - a.T))


def is_symmetric(a, tol: Tolerance = DEFAULT_TOL) -> bool:
    a = as_matrix(a)
    bound = max(tol.abs_tol, tol.rel_tol * float(np.linalg.norm(a)))
    return symmetry_defect(a) <= bound


def _symmetrised(blocks: list[np.ndarray], tol: Tolerance) -> list[np.ndarray]:
    """0.5 (B + B^T) of each block, so that roundoff asymmetry cannot leak into an
    eigen solve. The test is is_symmetric's on the block-diagonal matrix they form:
    its defect and norm are the root-sum-squares of the blocks' ones."""
    defect = math.hypot(*map(symmetry_defect, blocks))
    if defect > max(tol.abs_tol, tol.rel_tol * math.hypot(*map(np.linalg.norm, blocks))):
        raise ValueError(f"matrix is not symmetric within tolerance (defect {defect:.3e})")
    return [0.5 * (b + b.T) for b in blocks]


def symmetric_eigensystem(a, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Full eigensystem of a symmetric matrix by LAPACK (`np.linalg.eigh`).

    Returns (w, V) with eigenvalues w ascending and A V = V diag(w). The
    input must be symmetric within tolerance and is symmetrised before the
    solve. A solver that fails to converge raises np.linalg.LinAlgError,
    a ValueError.
    """
    return np.linalg.eigh(_symmetrised([as_matrix(a)], tol)[0])


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


def _blocks(m: np.ndarray) -> list[np.ndarray]:
    """0-based sorted index arrays of the connected components of the graph with an
    edge wherever m[i, j] or m[j, i] is non-zero, so no entry of m lies off the
    blocks; ordered by first member."""
    n = len(m)
    rows, cols = np.nonzero(m != 0)  # faster than np.nonzero(m) on floats
    edges = _merged(np.concatenate([cols * n + rows, rows * n + cols]), np.ones(2 * len(rows)), n)
    comps = _strongly_connected_components(n, edges.cols, edges.rows)
    return sorted((np.sort(np.array(c, dtype=np.intp)) for c in comps), key=lambda b: b[0])


def symmetric_eigenvalues(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Ascending eigenvalues (with multiplicity) of a symmetric matrix, by
    `np.linalg.eigvalsh` on each connected block of its support (`_blocks`);
    no eigenvectors are computed. Symmetry is tested as in `is_symmetric`."""
    a = as_matrix(a)
    index = _blocks(a)  # a matrix that is one block is used as it is, not copied
    blocks = _symmetrised([a] if len(index) == 1 else [a[np.ix_(b, b)] for b in index], tol)
    parts = [np.linalg.eigvalsh(s) for s in blocks]
    return np.sort(np.concatenate([np.empty(0)] + parts))  # [] for a 0 x 0 matrix


def intensity_exp(q, t: float, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Transition semigroup e^(Q t) of an intensity matrix by uniformization.

    Off-diagonal entries of q must be non-negative and every column must
    sum to zero (within tolerance); t must be finite and non-negative.
    Uniformization expands e^(Qt) as a Poisson mixture of powers of the
    substochastic jump kernel I + Q/lam, so the result is non-negative by
    construction; the series is truncated once the Poisson tail weight
    drops below abs_tol. Each connected block of q's support (`_blocks`)
    is uniformized on its own, with its own rate lam; e^(Qt) is zero off them.
    """
    q = as_matrix(q)
    n = q.shape[0]
    if q.shape[0] != q.shape[1]:
        raise ValueError("intensity matrix must be square")
    if not 0.0 <= t < math.inf:
        raise ValueError("time must be finite and non-negative")
    if _off_diagonal(q).min(initial=0.0) < -tol.abs_tol:
        raise ValueError("intensity matrix has a negative off-diagonal entry")
    colsums = q.sum(axis=0)
    if np.max(np.abs(colsums)) > max(tol.abs_tol, tol.rel_tol * max(1.0, float(np.abs(q).max()))):
        raise ValueError("intensity matrix columns do not sum to zero")
    blocks = _blocks(q)
    if len(blocks) == 1:  # no copy in or out of a matrix that is one block
        return _uniformized(q, t, tol)
    result = np.zeros((n, n))
    for b in blocks:
        result[np.ix_(b, b)] = _uniformized(q[np.ix_(b, b)], t, tol)
    return result


def _uniformized(block: np.ndarray, t: float, tol: Tolerance) -> np.ndarray:
    """e^(Q t) of one connected block of an intensity matrix, at the block's own rate."""
    lam = float(np.max(np.abs(np.diag(block))))
    if lam == 0.0 or t == 0.0:
        return np.eye(len(block))
    mu, squarings = lam * t, 0
    while mu > 500.0:  # halve the horizon to keep exp(-mu) above underflow
        mu, squarings = mu / 2.0, squarings + 1
    # clip roundoff-negative entries only
    kernel = np.clip(np.eye(len(block)) + block / lam, 0.0, None)
    weight = math.exp(-mu)  # k = 0 term
    series = weight * np.eye(len(block))
    power = np.eye(len(block))
    accumulated, k = weight, 0
    max_terms = int(mu + 12.0 * math.sqrt(mu) + 60.0)
    while 1.0 - accumulated > tol.abs_tol and k < max_terms:
        k += 1
        power = kernel @ power
        weight *= mu / k
        series += weight * power
        accumulated += weight
    if 1.0 - accumulated > tol.abs_tol:
        raise ValueError(f"uniformization truncated after {k} terms with Poisson mass "
                         f"{1.0 - accumulated:.3e} unaccounted (tolerance {tol.abs_tol})")
    for _ in range(squarings):  # e^(2Qs) = (e^(Qs))^2 keeps entries non-negative
        series = series @ series
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
