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


def kron_all(ops) -> np.ndarray:
    out = as_matrix(ops[0])
    for op in ops[1:]:
        out = np.kron(out, as_matrix(op))
    return out


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


def add_embedded(total: np.ndarray, op, i: int, L: int, d: int) -> np.ndarray:
    """Add embed_two_site(op, i, L, d) into total in place and return total.

    The embedded operator is op on the block diagonal of total viewed as
    (a, d^2, b, a, d^2, b) with a = d^(i-1), b = d^(L-i-1), so op is added
    to that strided view and no d^L x d^L temporary is built. Every other
    entry of the kron route is an exact zero, so the result is equal.
    """
    op = _two_site_operator(op, i, L, d)
    if total.shape != (d ** L, d ** L) or not total.flags.c_contiguous:
        raise ValueError(f"total must be a C-contiguous {d ** L}x{d ** L} matrix")
    a, b = d ** (i - 1), d ** (L - i - 1)
    blocks = np.einsum("xpyxqy->xypq", total.reshape(a, d * d, b, a, d * d, b))
    blocks += op
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


def commutator(a, b) -> np.ndarray:
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError("commutator needs square matrices of equal size")
    return a @ b - b @ a


def frobenius_norm(a) -> float:
    return float(np.linalg.norm(as_matrix(a)))


def symmetry_defect(a) -> float:
    a = as_matrix(a)
    return float(np.linalg.norm(a - a.T))


def is_symmetric(a, tol: Tolerance = DEFAULT_TOL) -> bool:
    a = as_matrix(a)
    bound = max(tol.abs_tol, tol.rel_tol * float(np.linalg.norm(a)))
    return symmetry_defect(a) <= bound


def _symmetrised(a, tol: Tolerance) -> np.ndarray:
    """0.5 (A + A^T), so that roundoff asymmetry cannot leak into an eigen solve."""
    a = as_matrix(a)
    if not is_symmetric(a, tol):
        raise ValueError(f"matrix is not symmetric within tolerance "
                         f"(defect {symmetry_defect(a):.3e})")
    return 0.5 * (a + a.T)


def symmetric_eigensystem(a, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Full eigensystem of a symmetric matrix by LAPACK (`np.linalg.eigh`).

    Returns (w, V) with eigenvalues w ascending and A V = V diag(w). The
    input must be symmetric within tolerance and is symmetrised before the
    solve. A solver that fails to converge raises np.linalg.LinAlgError,
    a ValueError.
    """
    return np.linalg.eigh(_symmetrised(a, tol))


def symmetric_eigenvalues(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Ascending eigenvalues (with multiplicity) of a symmetric matrix, by
    `np.linalg.eigvalsh`: no eigenvectors are computed."""
    return np.linalg.eigvalsh(_symmetrised(a, tol))


def intensity_exp(q, t: float, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Transition semigroup e^(Q t) of an intensity matrix by uniformization.

    Off-diagonal entries of q must be non-negative and every column must
    sum to zero (within tolerance). Uniformization expands e^(Qt) as a
    Poisson mixture of powers of the substochastic jump kernel I + Q/lam,
    so the result is non-negative by construction; the series is truncated
    once the Poisson tail weight drops below abs_tol.
    """
    q = as_matrix(q)
    n = q.shape[0]
    if q.shape[0] != q.shape[1]:
        raise ValueError("intensity matrix must be square")
    if t < 0:
        raise ValueError("time must be non-negative")
    off = q - np.diag(np.diag(q))
    if off.min() < -tol.abs_tol:
        raise ValueError("intensity matrix has a negative off-diagonal entry")
    colsums = q.sum(axis=0)
    if np.max(np.abs(colsums)) > max(tol.abs_tol, tol.rel_tol * max(1.0, float(np.abs(q).max()))):
        raise ValueError("intensity matrix columns do not sum to zero")
    lam = float(np.max(np.abs(np.diag(q))))
    if lam == 0.0 or t == 0.0:
        return np.eye(n)
    if lam * t > 500.0:
        # halve the horizon to keep the leading Poisson weight above underflow;
        # the semigroup property keeps entries non-negative
        half = intensity_exp(q, t / 2.0, tol)
        return half @ half
    kernel = np.eye(n) + q / lam
    kernel = np.clip(kernel, 0.0, None)  # clip roundoff-negative entries only
    mu = lam * t
    # k = 0 term
    weight = math.exp(-mu)
    result = weight * np.eye(n)
    power = np.eye(n)
    accumulated = weight
    k = 0
    max_terms = int(mu + 12.0 * math.sqrt(mu) + 60.0)
    while 1.0 - accumulated > tol.abs_tol and k < max_terms:
        k += 1
        power = kernel @ power
        weight *= mu / k
        result += weight * power
        accumulated += weight
    if 1.0 - accumulated > tol.abs_tol:
        raise ValueError(f"uniformization truncated after {k} terms with Poisson mass "
                         f"{1.0 - accumulated:.3e} unaccounted (tolerance {tol.abs_tol})")
    return result


# ---------------------------------------------------------------------------
# serialization: CSV (row per line) and JSON {rows, cols, entries row-major}

_FMT = "{:.17g}"


def save_matrix_csv(a, path) -> None:
    a = as_matrix(a)
    with open(path, "w", encoding="ascii") as fh:
        for row in a:
            fh.write(",".join(_FMT.format(x) for x in row))
            fh.write("\n")


def load_matrix_csv(path) -> np.ndarray:
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append([float(x) for x in line.split(",")])
    return as_matrix(rows)


def matrix_to_json_dict(a) -> dict:
    a = as_matrix(a)
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]),
            "entries": [float(x) for x in a.ravel(order="C")]}


def matrix_from_json_dict(obj) -> np.ndarray:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    entries = np.asarray(obj["entries"], dtype=float)
    if entries.size != rows * cols:
        raise ValueError("entry count does not match rows*cols")
    return entries.reshape(rows, cols)


def save_matrix_json(a, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(matrix_to_json_dict(a), fh)


def load_matrix_json(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        return matrix_from_json_dict(json.load(fh))
