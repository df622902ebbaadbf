"""Two-leg spin-1/2 ladder operators with global SU(2) symmetry.

A rung holds two spin-1/2 sites (legs), so a rung pair spans sixteen
states ordered rung-major: (leg1 of rung i, leg2 of rung i, leg1 of rung
i+1, leg2 of rung i+1). All operators are real: spin dot products between
two sites equal half the site swap minus a quarter of the identity, so no
complex intermediate is ever needed.

Normalization of the tabulated families. The coefficient tables for
h0/h_ladder/h_prime multiply triple products of the invariant couplings;
those products enter with Pauli-normalized spins (twice the spin-1/2
generators), which scales each triple product by 64 relative to
c_product. h_prime carries one further factor 4, fixed by the similarity
to the explicit sixteen-by-sixteen family h_doubleprime and its printed
column-sum normalization. Consequently h_prime(0,0,0) equals
4 * h_ladder() exactly, and the affine braid family (x-1) h + 16 I built
on h_ladder() satisfies the parameterized braid identity.

Label convention of the product tables. c_operator returns the three
invariant couplings in their defining order; the coefficient tables index
them with the roles of the second and third couplings interchanged. Both
facts are certified numerically in the test suite (exact braid residuals
and exact similarity), not assumed.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .linalg import as_matrix, embedded_sum, frobenius_norm, invariance_residual, kron
from .braid_tl import TLElement
from .reporting import DEFAULT_TOL, Tolerance, VerificationReport

# triple products of Pauli-normalized couplings vs spin-1/2 couplings
PRODUCT_SCALE = 64
# extra factor carried by the general three-parameter family
BASIS_CHANGE_SCALE = 4


def spin_generators() -> list[np.ndarray]:
    """Real 2x2 encoding of the spin-1/2 generators (Sx, Sy, Sz).

    The y generator is stored multiplied by the imaginary unit, which
    makes it real antisymmetric; its square therefore carries an extra
    minus sign relative to the true generator. Squared-y contributions
    must use g g^T (see spin_casimir), and the structure constants close
    as [Sz, Sx] = Sy', [Sx, Sy'] = -Sz, [Sy', Sz] = -Sx.
    """
    sx = np.array([[0.0, 0.5], [0.5, 0.0]])
    syi = np.array([[0.0, 0.5], [-0.5, 0.0]])
    sz = np.array([[0.5, 0.0], [0.0, -0.5]])
    return [sx, syi, sz]


def spin_casimir(generators: list[np.ndarray] | None = None) -> np.ndarray:
    """Sum of g g^T over the generators; equals (3/4) I for spin 1/2."""
    gens = spin_generators() if generators is None else generators
    return sum(g @ g.T for g in gens)


def swap_sites(p: int, q: int, sites: int) -> np.ndarray:
    """Permutation matrix exchanging spin-1/2 sites p and q (1-based)."""
    if not (1 <= p <= sites and 1 <= q <= sites and p != q):
        raise ValueError("site indices out of range or equal")
    dim = 2 ** sites
    # one row axis per site, site 1 most significant; swapping two permutes the rows
    return np.eye(dim).reshape((2,) * sites + (dim,)).swapaxes(p - 1, q - 1).reshape(dim, dim)


def pair_coupling(p: int, q: int, sites: int = 4) -> np.ndarray:
    """Spin dot product between sites p and q: swap/2 - identity/4.

    Equal to the sum over the three spin components of the generator at p
    times the generator at q, with the y (x) y sign handled exactly.
    """
    return swap_sites(p, q, sites) / 2.0 - np.eye(2 ** sites) / 4.0


_COUPLING_PAIRS = {
    1: [(1, 4), (2, 4), (3, 4)],
    2: [(1, 4), (1, 2), (1, 3)],
    3: [(1, 4), (2, 4), (1, 3), (2, 3)],
}


def c_operator(k: int) -> np.ndarray:
    """The k-th invariant two-rung coupling (k = 1, 2, 3), 16x16.

    c_operator(1) couples every other site to the last leg,
    c_operator(2) couples the first leg to every other site, and
    c_operator(3) is the rung-to-rung total-spin coupling.
    """
    if k not in _COUPLING_PAIRS:
        raise ValueError("k must be 1, 2 or 3")
    out = np.zeros((16, 16))
    for p, q in _COUPLING_PAIRS[k]:
        out += pair_coupling(p, q)
    return out


def c_product(i: int, j: int, k: int) -> np.ndarray:
    """Matrix product of three invariant couplings, C_i C_j C_k."""
    return c_operator(i) @ c_operator(j) @ c_operator(k)


# index order of every coefficient table below
PRODUCT_INDICES = [(1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 1), (1, 2, 2), (1, 2, 3),
                   (1, 3, 1), (1, 3, 2), (1, 3, 3), (2, 1, 1), (2, 1, 2), (2, 1, 3)]

_TABLE_LABEL = {1: 1, 2: 3, 3: 2}  # tables use the couplings with labels 2 and 3 interchanged


def _table_products() -> dict[tuple[int, int, int], np.ndarray]:
    ops = {k: c_operator(_TABLE_LABEL[k]) for k in (1, 2, 3)}
    return {(i, j, k): ops[i] @ ops[j] @ ops[k] for (i, j, k) in PRODUCT_INDICES}


_TABLE_PRODUCTS = _table_products()  # read-only after import


def _assemble(coeffs: dict[tuple[int, int, int], Fraction], scale: int) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):  # as_matrix refuses an overflow
        return as_matrix(sum((float(coeffs[ijk] * scale) * _TABLE_PRODUCTS[ijk]
                              for ijk in PRODUCT_INDICES), np.zeros((16, 16))))


def h0_coefficients(d, f) -> dict[tuple[int, int, int], Fraction]:
    """The two-parameter braid-solution coefficient table."""
    d, f = Fraction(d), Fraction(f)
    return {
        (1, 1, 1): (108 * d - 55 * f) / 108,
        (1, 1, 2): (-72 * d + 104 * f) / 288,
        (1, 1, 3): (-486 * d + 211 * f) / 270,
        (1, 2, 1): (-756 * d + 370 * f) / 216,
        (1, 2, 2): -29 * f / 108,
        (1, 2, 3): (90 * d - 31 * f) / 36,
        (1, 3, 1): (2 * d - f) / 2,
        (1, 3, 2): (-54 * d + 26 * f) / 108,
        (1, 3, 3): (-108 * d + 43 * f) / 540,
        (2, 1, 1): (-216 * d + 80 * f) / 864,
        (2, 1, 2): 11 * f / 108,
        (2, 1, 3): (216 * d - 119 * f) / 108,
    }


def h0(d: float, f: float) -> np.ndarray:
    """Two-parameter family of braid solutions on the rung pair, 16x16."""
    return _assemble(h0_coefficients(d, f), PRODUCT_SCALE)


def ladder_coefficients(a, b, c) -> dict[tuple[int, int, int], Fraction]:
    """Coefficient table of the general three-parameter ladder density."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    return {
        (1, 1, 1): (-45 + 23 * a - 4 * b - 28 * c) / 432,
        (1, 1, 2): (-99 - 3 * a - 3 * b - c) / 288,
        (1, 1, 3): (-1098 - 91 * a - 118 * b - 16 * c) / 540,
        (1, 2, 1): (-369 - 97 * a - 70 * b + 50 * c) / 432,
        (1, 2, 2): (396 + 4 * a + 31 * b + 25 * c) / 432,
        (1, 2, 3): (189 + 29 * a + 20 * b - 4 * c) / 144,
        (1, 3, 1): Fraction(3, 4),
        (1, 3, 2): (-306 - 2 * a - 29 * b - 14 * c) / 216,
        (1, 3, 3): (1557 - 71 * a + 172 * b + 124 * c) / 2160,
        (2, 1, 1): (495 - a + 53 * b + 47 * c) / 864,
        (2, 1, 2): (-720 - 22 * a - 49 * b - 43 * c) / 432,
        (2, 1, 3): (1179 + 91 * a + 118 * b + 16 * c) / 432,
    }


def fixed_coefficients() -> dict[tuple[int, int, int], Fraction]:
    """Coefficient table of the integrable ladder density, h_ladder.

    Identical to ladder_coefficients(0, 0, 0). A commonly quoted variant
    pairs the (1,2,1) and (1,2,2) coefficients as -41/48 (x - y); the
    self-consistent (1,2,2) value is 11/12, and only with it does the
    operator satisfy the braid identity (the -41/48 variant misses by a
    residual of about 0.067 in spin-1/2 units; see the tests).
    """
    return ladder_coefficients(0, 0, 0)


def h_ladder() -> np.ndarray:
    """Integrable ladder density, 16x16 and symmetric.

    Its spectrum is {-2 (x3), 18 (x13)}; the affine family
    (x - 1) h + 16 I satisfies the parameterized braid identity.
    """
    return _assemble(fixed_coefficients(), PRODUCT_SCALE)


def h_prime(a: float, b: float, c: float) -> np.ndarray:
    """General three-parameter ladder density, 16x16.

    Normalized so that conjugating by the rung basis change reproduces
    h_doubleprime(a, b, c) exactly; h_prime(0, 0, 0) equals 4 * h_ladder().
    """
    return _assemble(ladder_coefficients(a, b, c), PRODUCT_SCALE * BASIS_CHANGE_SCALE)


# 16x16 entry pattern of the transformed density over the nine entry values
_ENTRY_PATTERN = np.array([
    [1, 2, 2, 2, 3, 4, 4, 4, 3, 4, 4, 4, 3, 4, 4, 4],
    [2, 5, 6, 6, 7, 3, 8, 8, 8, 9, 4, 4, 8, 9, 4, 4],
    [2, 6, 5, 6, 8, 4, 9, 4, 7, 8, 3, 8, 8, 4, 9, 4],
    [2, 6, 6, 5, 8, 4, 4, 9, 8, 4, 4, 9, 7, 8, 8, 3],
    [3, 7, 8, 8, 5, 2, 6, 6, 9, 8, 4, 4, 9, 8, 4, 4],
    [4, 3, 4, 4, 2, 1, 2, 2, 4, 3, 4, 4, 4, 3, 4, 4],
    [4, 8, 9, 4, 6, 2, 5, 6, 8, 7, 3, 8, 4, 8, 9, 4],
    [4, 8, 4, 9, 6, 2, 6, 5, 4, 8, 4, 9, 8, 7, 8, 3],
    [3, 8, 7, 8, 9, 4, 8, 4, 5, 6, 2, 6, 9, 4, 8, 4],
    [4, 9, 8, 4, 8, 3, 7, 8, 6, 5, 2, 6, 4, 9, 8, 4],
    [4, 4, 3, 4, 4, 4, 3, 4, 2, 2, 1, 2, 4, 4, 3, 4],
    [4, 4, 8, 9, 4, 4, 8, 9, 6, 6, 2, 5, 8, 8, 7, 3],
    [3, 8, 8, 7, 9, 4, 4, 8, 9, 4, 4, 8, 5, 6, 6, 2],
    [4, 9, 4, 8, 8, 3, 8, 7, 4, 9, 4, 8, 6, 5, 6, 2],
    [4, 4, 9, 8, 4, 4, 9, 8, 8, 8, 3, 7, 6, 6, 5, 2],
    [4, 4, 4, 3, 4, 4, 4, 3, 4, 4, 4, 3, 2, 2, 2, 1],
])


def entry_values(a: float, b: float, c: float) -> list[float]:
    """The nine entry values of the transformed density, in pattern order."""
    return [
        66 + a + 4 * b + 4 * c,   # a1, corner diagonal
        -10 + a + 2 * b,          # a2
        6 + a + 2 * b,            # a3
        2 + a,                    # a4
        54 + a + 4 * b + 4 * c,   # a5, bulk diagonal
        -16 + a + 2 * b,          # a6, the binding non-negativity constraint
        14 + a,                   # a7
        8 + a,                    # a8
        a + 2 * b,                # a9
    ]


def h_doubleprime(a: float, b: float, c: float) -> np.ndarray:
    """Transformed ladder density with non-negative entries on a+2b >= 16.

    Every column sums to 4 (18 + 4a + 4b + c). The matrix is symmetric:
    the entry pattern assigns the same value to (i, j) and (j, i).
    """
    return np.array(entry_values(a, b, c), dtype=float)[_ENTRY_PATTERN - 1]


def column_sum_value(a: float, b: float, c: float) -> float:
    return 4.0 * (18.0 + 4.0 * a + 4.0 * b + c)


def basis_change() -> np.ndarray:
    """The 4x4 rung basis change relating h_prime to h_doubleprime."""
    return np.array([
        [-1.0, 1.0, 0.0, 0.0],
        [1.0, 0.5, -0.5, 1.0],
        [0.0, -0.5, -1.5, 0.0],
        [0.0, 1.0, 0.0, -1.0],
    ])


def similarity_residual(a: float, b: float, c: float) -> float:
    """Residual of (B (x) B) h_prime (B (x) B)^-1 = h_doubleprime.

    The 4x4 basis change acts per rung, so on the rung pair it enters as
    its Kronecker square.
    """
    bb = kron(basis_change(), basis_change())
    conj = bb @ h_prime(a, b, c) @ np.linalg.inv(bb)
    return frobenius_norm(conj - h_doubleprime(a, b, c))


def positivity_check(a: float, b: float, c: float,
                     tol: Tolerance = DEFAULT_TOL) -> VerificationReport:
    """Entrywise non-negativity of the transformed density.

    Evaluates the nine entry formulas exactly; the region is
    a + 2b >= 16 together with a >= -2 and a + 4b + 4c >= -54.
    """
    vals = entry_values(a, b, c)
    worst = min(vals)
    return VerificationReport(name="ladder_positivity",
                              residuals={"min_entry": worst},
                              tol=tol.abs_tol,
                              passed=worst >= -tol.abs_tol,
                              info={"entry_values": vals})


def tl_from_ladder() -> TLElement:
    """Temperley-Lieb element hidden in the ladder density.

    The density has two eigenvalues, -2 and 18; e = (10/3) (18 I - h)/20
    satisfies e^2 = (10/3) e and both contraction identities exactly.
    """
    h = h_ladder()
    projector = (18.0 * np.eye(16) - h) / 20.0
    return TLElement(matrix=(10.0 / 3.0) * projector, beta=10.0 / 3.0, local_dim=4)


def total_spin_generators(sites: int) -> list[np.ndarray]:
    """Sums of each (real-encoded) spin generator over all sites."""
    return [embedded_sum(g, sites, 2) for g in spin_generators()]


def su2_invariance_residual(op, sites: int = 4) -> float:
    """Largest commutator norm of an operator with the total spin components."""
    return invariance_residual(op, total_spin_generators(sites))


def spin_form_hamiltonian(L: int) -> np.ndarray:
    """Open-chain ladder Hamiltonian with exchange and biquadratic terms.

    Each factor (1/2 + 2 S.S) between two sites is exactly the swap of
    those sites, so each term is a product of two disjoint swaps on the
    rung pair. Site order is rung-major over 2L spin-1/2 sites.
    """
    if L < 2:
        raise ValueError("need at least two rungs")
    leg_leg = swap_sites(1, 3, 4) @ swap_sites(2, 4, 4)
    cross = swap_sites(1, 4, 4) @ swap_sites(2, 3, 4)
    rung_rung = swap_sites(1, 2, 4) @ swap_sites(3, 4, 4)
    density = 0.5 * leg_leg - 0.5 * cross + (5.0 / 6.0) * rung_rung
    return embedded_sum(density, L, 4)


def coefficient_match_report() -> dict:
    """How the fixed ladder table sits inside the three-parameter family.

    Solves the table-level least-squares match of ladder_coefficients over
    (a, b, c) against fixed_coefficients, and reports the matrix-level
    scale between h_prime at that point and h_ladder.
    """
    fixed = fixed_coefficients()
    rows, rhs = [], []
    for ijk in PRODUCT_INDICES:
        base = ladder_coefficients(0, 0, 0)[ijk]
        da = ladder_coefficients(1, 0, 0)[ijk] - base
        db = ladder_coefficients(0, 1, 0)[ijk] - base
        dc = ladder_coefficients(0, 0, 1)[ijk] - base
        rows.append([float(da), float(db), float(dc)])
        rhs.append(float(fixed[ijk] - base))
    sol, _, _, _ = np.linalg.lstsq(np.asarray(rows), np.asarray(rhs), rcond=None)
    table_residual = float(np.linalg.norm(np.asarray(rows) @ sol - np.asarray(rhs)))
    hp = h_prime(*sol)
    hl = h_ladder()
    scale = float(np.tensordot(hp, hl) / np.tensordot(hl, hl))
    matrix_residual = frobenius_norm(hp - scale * hl)
    return {
        "abc": [float(x) for x in sol],
        "table_residual": table_residual,
        "matrix_scale": scale,
        "matrix_residual": matrix_residual,
    }


def affine_spectrum_fit(reference, target) -> tuple[float, float, float]:
    """Least-squares affine map of one sorted spectrum onto another.

    Returns (scale, shift, residual) minimizing
    | scale * sorted(reference) + shift - sorted(target) |_2.
    """
    ref = np.sort(np.asarray(reference, dtype=float))
    tgt = np.sort(np.asarray(target, dtype=float))
    if ref.shape != tgt.shape:
        raise ValueError("spectra must have equal length")
    design = np.vstack([ref, np.ones_like(ref)]).T
    coef, _, _, _ = np.linalg.lstsq(design, tgt, rcond=None)
    residual = float(np.linalg.norm(design @ coef - tgt))
    return float(coef[0]), float(coef[1]), residual
