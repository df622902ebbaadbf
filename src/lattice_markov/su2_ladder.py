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

import math
from fractions import Fraction

import numpy as np

from .linalg import as_matrix, embedded_sum, frobenius_norm
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
    must use g g^T, and the structure constants close
    as [Sz, Sx] = Sy', [Sx, Sy'] = -Sz, [Sy', Sz] = -Sx.
    """
    sx = np.array([[0.0, 0.5], [0.5, 0.0]])
    syi = np.array([[0.0, 0.5], [-0.5, 0.0]])
    sz = np.array([[0.5, 0.0], [0.0, -0.5]])
    return [sx, syi, sz]


def swap_sites(p: int, q: int, sites: int) -> np.ndarray:
    """Permutation matrix exchanging spin-1/2 sites p and q (1-based)."""
    if not (1 <= p <= sites and 1 <= q <= sites and p != q):
        raise ValueError("site indices out of range or equal")
    dim = 2 ** sites
    # one row axis per site, site 1 most significant; swapping two permutes the rows
    return np.eye(dim).reshape((2,) * sites + (dim,)).swapaxes(p - 1, q - 1).reshape(dim, dim)


def pair_coupling(p: int, q: int) -> np.ndarray:
    """Spin dot product between sites p and q of the rung pair: swap/2 - identity/4.

    Equal to the sum over the three spin components of the generator at p
    times the generator at q, with the y (x) y sign handled exactly.
    """
    return swap_sites(p, q, 4) / 2.0 - np.eye(16) / 4.0


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


_TABLE_LABEL = {1: 1, 2: 3, 3: 2}  # tables use the couplings with labels 2 and 3 interchanged


def _table_products() -> dict[tuple[int, int, int], np.ndarray]:
    ops = {k: c_operator(_TABLE_LABEL[k]) for k in (1, 2, 3)}
    return {(i, j, k): ops[i] @ ops[j] @ ops[k] for (i, j, k) in PRODUCT_INDICES}


# Each coefficient is an integer combination of the parameters over an integer:
# key -> (denominator, constant, then one integer per parameter)
_H0_TABLE = {  # parameters d, f
    (1, 1, 1): (108, 0, 108, -55),
    (1, 1, 2): (288, 0, -72, 104),
    (1, 1, 3): (270, 0, -486, 211),
    (1, 2, 1): (216, 0, -756, 370),
    (1, 2, 2): (108, 0, 0, -29),
    (1, 2, 3): (36, 0, 90, -31),
    (1, 3, 1): (2, 0, 2, -1),
    (1, 3, 2): (108, 0, -54, 26),
    (1, 3, 3): (540, 0, -108, 43),
    (2, 1, 1): (864, 0, -216, 80),
    (2, 1, 2): (108, 0, 0, 11),
    (2, 1, 3): (108, 0, 216, -119),
}

_LADDER_TABLE = {  # parameters a, b, c
    (1, 1, 1): (432, -45, 23, -4, -28),
    (1, 1, 2): (288, -99, -3, -3, -1),
    (1, 1, 3): (540, -1098, -91, -118, -16),
    (1, 2, 1): (432, -369, -97, -70, 50),
    (1, 2, 2): (432, 396, 4, 31, 25),
    (1, 2, 3): (144, 189, 29, 20, -4),
    (1, 3, 1): (4, 3, 0, 0, 0),
    (1, 3, 2): (216, -306, -2, -29, -14),
    (1, 3, 3): (2160, 1557, -71, 172, 124),
    (2, 1, 1): (864, 495, -1, 53, 47),
    (2, 1, 2): (432, -720, -22, -49, -43),
    (2, 1, 3): (432, 1179, 91, 118, 16),
}

PRODUCT_INDICES = list(_LADDER_TABLE)  # index order of both coefficient tables

_TABLE_PRODUCTS = _table_products()  # read-only after import


def _coefficients(table, params) -> dict[tuple[int, int, int], Fraction]:
    """A coefficient table evaluated exactly at the parameters."""
    params = [Fraction(x) for x in params]
    return {ijk: (constant + sum(w * x for w, x in zip(weights, params))) / den
            for ijk, (den, constant, *weights) in table.items()}


def _scaled(table, params, scale: int) -> dict[tuple[int, int, int], float]:
    """Each coefficient of the table times scale, at the parameters, as the correctly
    rounded float of its exact value, as float(Fraction) gives it: one integer true
    division, with each parameter taken exactly by `as_integer_ratio`."""
    ratios = [(x if hasattr(x, "as_integer_ratio") else int(x)).as_integer_ratio()
              for x in params]
    common = math.lcm(*(q for _, q in ratios))
    numerators = [p * (common // q) for p, q in ratios]
    return {ijk: (constant * common + sum(w * x for w, x in zip(weights, numerators))) * scale
            / (den * common) for ijk, (den, constant, *weights) in table.items()}


def _assemble(coeffs: dict[tuple[int, int, int], float]) -> np.ndarray:
    """Sum over the products of coefficient * product."""
    with np.errstate(over="ignore", invalid="ignore"):  # as_matrix refuses an overflow
        return as_matrix(sum((coeffs[ijk] * _TABLE_PRODUCTS[ijk]
                              for ijk in PRODUCT_INDICES), np.zeros((16, 16))))


def h0_coefficients(d, f) -> dict[tuple[int, int, int], Fraction]:
    """The two-parameter braid-solution coefficient table."""
    return _coefficients(_H0_TABLE, (d, f))


def h0(d: float, f: float) -> np.ndarray:
    """Two-parameter family of braid solutions on the rung pair, 16x16."""
    return _assemble(_scaled(_H0_TABLE, (d, f), PRODUCT_SCALE))


def ladder_coefficients(a, b, c) -> dict[tuple[int, int, int], Fraction]:
    """Coefficient table of the general three-parameter ladder density."""
    return _coefficients(_LADDER_TABLE, (a, b, c))


def h_ladder() -> np.ndarray:
    """Integrable ladder density, 16x16 and symmetric.

    Its spectrum is {-2 (x3), 18 (x13)}; the affine family
    (x - 1) h + 16 I satisfies the parameterized braid identity.
    """
    return _assemble(_scaled(_LADDER_TABLE, (0, 0, 0), PRODUCT_SCALE))


def h_prime(a: float, b: float, c: float) -> np.ndarray:
    """General three-parameter ladder density, 16x16.

    Normalized so that conjugating by the rung basis change reproduces
    h_doubleprime(a, b, c) exactly; h_prime(0, 0, 0) equals 4 * h_ladder().
    """
    return _assemble(_scaled(_LADDER_TABLE, (a, b, c), PRODUCT_SCALE * BASIS_CHANGE_SCALE))


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
    bb = np.kron(basis_change(), basis_change())
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
    return TLElement(matrix=(10.0 / 3.0) * projector, beta=10.0 / 3.0)


def total_spin_generators(sites: int) -> list[np.ndarray]:
    """Sums of each (real-encoded) spin generator over all sites."""
    return [embedded_sum(g, sites, 2) for g in spin_generators()]


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
