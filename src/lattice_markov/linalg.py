"""Dense real linear algebra used by every model in the package.

Matrices are plain 2-D float64 numpy arrays. All routines are pure
functions; inputs are never mutated.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .reporting import DEFAULT_TOL, Tolerance


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def kron(a, b) -> np.ndarray:
    """Kronecker product with the left factor as the more significant index."""
    return np.kron(as_matrix(a), as_matrix(b))


DENSE_SIZE_GUARD = 4096  # largest state space built as a dense matrix


def check_dense_size(dim: int) -> None:
    if dim > DENSE_SIZE_GUARD:
        raise ValueError(f"state space {dim} exceeds dense guard {DENSE_SIZE_GUARD}")


def _two_site_operator(op, i: int, L: int, d: int) -> np.ndarray:
    op = as_matrix(op)
    if op.shape != (d * d, d * d):
        raise ValueError(f"two-site operator must be {d * d}x{d * d}, got {op.shape}")
    if not 1 <= i <= L - 1:
        raise ValueError(f"site index i={i} out of range 1..{L - 1}")
    return op


def embed_two_site(op, i: int, L: int, d: int) -> np.ndarray:
    """Pad a two-site operator to sites (i, i+1) of an L-site chain.

    `op` acts on a pair of adjacent d-dimensional sites; the result is
    1^(i-1) (x) op (x) 1^(L-i-1) on the d^L-dimensional space. Site
    indices are 1-based, i in 1..L-1.
    """
    op = _two_site_operator(op, i, L, d)
    left = np.eye(d ** (i - 1))
    right = np.eye(d ** (L - i - 1))
    return np.kron(np.kron(left, op), right)


def _add_on_sites(total: np.ndarray, op: np.ndarray, i: int, L: int, d: int) -> None:
    """Add op, acting on sites i, i+1, ... of an L-site chain, into total in place.

    With a = d^(i-1) and k the size of op, the embedded operator is op on the
    block diagonal of total viewed as (a, k, b, a, k, b) and exact zeros
    elsewhere, so op is added to that strided view with no d^L x d^L temporary.
    """
    a, k = d ** (i - 1), len(op)
    b = d ** L // (a * k)
    blocks = np.einsum("xpyxqy->xypq", total.reshape(a, k, b, a, k, b))
    blocks += op


def add_embedded(total: np.ndarray, op, i: int, L: int, d: int) -> np.ndarray:
    """Add embed_two_site(op, i, L, d) into total in place and return total."""
    op = _two_site_operator(op, i, L, d)
    if total.shape != (d ** L, d ** L) or not total.flags.c_contiguous:
        raise ValueError(f"total must be a C-contiguous {d ** L}x{d ** L} matrix")
    _add_on_sites(total, op, i, L, d)
    return total


def embedded_sum(op, L: int, d: int) -> np.ndarray:
    """Open-chain sum of op embedded on every bond (i, i+1), i = 1..L-1."""
    check_dense_size(d ** L)
    total = np.zeros((d ** L, d ** L))
    for i in range(1, L):
        add_embedded(total, op, i, L, d)
    return total


def embed_one_site(op, i: int, L: int, d: int) -> np.ndarray:
    """Pad a single-site operator to site i (1-based) of an L-site chain."""
    op = as_matrix(op)
    if op.shape != (d, d):
        raise ValueError(f"one-site operator must be {d}x{d}, got {op.shape}")
    if not 1 <= i <= L:
        raise ValueError(f"site index i={i} out of range 1..{L}")
    return np.kron(np.kron(np.eye(d ** (i - 1)), op), np.eye(d ** (L - i)))


def _one_site_sum(op, L: int, d: int) -> np.ndarray:
    """Sum of embed_one_site(op, i, L, d) over i = 1..L, added in place."""
    total = np.zeros((d ** L, d ** L))
    for i in range(1, L + 1):
        _add_on_sites(total, op, i, L, d)
    return total


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


def _blocks(m: np.ndarray) -> list[np.ndarray]:
    """0-based index arrays of the connected components of the graph with an edge
    wherever m[i, j] or m[j, i] is non-zero, so no entry of m lies off the blocks."""
    adj = m != 0
    adj |= adj.T
    free, blocks = np.ones(len(m), dtype=bool), []
    while free.any():
        reached = np.zeros(len(m), dtype=bool)
        reached[free.argmax()] = True
        frontier = reached.copy()
        while frontier.any():
            frontier = adj[frontier].any(axis=0) & ~reached
            reached |= frontier
        blocks.append(np.flatnonzero(reached))
        free &= ~reached
    return blocks


def symmetric_eigenvalues(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Ascending eigenvalues (with multiplicity) of a symmetric matrix, by
    `np.linalg.eigvalsh` on each connected block of its support (`_blocks`);
    no eigenvectors are computed. Symmetry is tested as in `is_symmetric`."""
    a = as_matrix(a)
    blocks = _symmetrised([a[np.ix_(b, b)] for b in _blocks(a)], tol)
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
    result = np.zeros((n, n))
    for b in _blocks(q):
        block = q[np.ix_(b, b)]
        lam = float(np.max(np.abs(np.diag(block))))
        if lam == 0.0 or t == 0.0:
            result[b, b] = 1.0
            continue
        mu, squarings = lam * t, 0
        while mu > 500.0:  # halve the horizon to keep exp(-mu) above underflow
            mu, squarings = mu / 2.0, squarings + 1
        # clip roundoff-negative entries only
        kernel = np.clip(np.eye(len(b)) + block / lam, 0.0, None)
        weight = math.exp(-mu)  # k = 0 term
        series = weight * np.eye(len(b))
        power = np.eye(len(b))
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
        result[np.ix_(b, b)] = series
    return result


# ---------------------------------------------------------------------------
# serialization: CSV (row per line) and JSON {rows, cols, entries row-major}


def save_matrix_csv(a, path) -> None:
    np.savetxt(path, as_matrix(a), fmt="%.17g", delimiter=",")


def load_matrix_csv(path) -> np.ndarray:
    m = np.loadtxt(path, delimiter=",", ndmin=2, comments=None)
    if m.size == 0:
        raise ValueError(f"no matrix rows in {path}")
    return as_matrix(m)


def matrix_to_json_dict(a) -> dict:
    a = as_matrix(a)
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]),
            "entries": [float(x) for x in a.ravel(order="C")]}


def matrix_from_json_dict(obj) -> np.ndarray:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    entries = np.asarray(obj["entries"], dtype=float)
    if entries.size != rows * cols:
        raise ValueError("entry count does not match rows*cols")
    return as_matrix(entries.reshape(rows, cols))


def save_matrix_json(a, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(matrix_to_json_dict(a), fh)


def load_matrix_json(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        return matrix_from_json_dict(json.load(fh))
