import itertools
import math

import numpy as np
import pytest

from lattice_markov import braid_tl as btl
from lattice_markov.an_algebra import delta_casimir
from lattice_markov.linalg import frobenius_norm
from lattice_markov.su2_ladder import h0, h_ladder, tl_from_ladder
from lattice_markov.verify import H0_GRID, SPECTRAL_GRID


def swap_matrix(d: int) -> np.ndarray:
    m = np.zeros((d * d, d * d))
    for a in range(d):
        for b in range(d):
            m[b * d + a, a * d + b] = 1.0
    return m


def test_qybe_identity_operator():
    assert btl.qybe_residual(np.eye(9)) == 0.0


@pytest.mark.parametrize("n,bound", [(1, 1e-12), (2, 1e-11), (3, 1e-11)])
def test_qybe_shifted_casimir(n, bound):
    h = delta_casimir(n) + np.eye((n + 1) ** 2)
    assert btl.qybe_residual(h) < bound


@pytest.mark.parametrize("d", [2, 3, 4])
def test_qybe_swap(d):
    assert btl.qybe_residual(swap_matrix(d)) == 0.0


def test_qybe_cubic_scaling():
    rng = np.random.default_rng(9)
    h = rng.normal(size=(4, 4))
    base = btl.qybe_residual(h)
    for c in (2.0, -3.0, 0.5):
        assert btl.qybe_residual(c * h) == pytest.approx(abs(c) ** 3 * base, rel=1e-12)
    assert btl.qybe_residual(5.0 * swap_matrix(2)) == 0.0


def test_qybe_rejects_bad_shapes():
    with pytest.raises(ValueError):
        btl.qybe_residual(np.eye(5))
    with pytest.raises(ValueError):
        btl.qybe_residual(np.ones((4, 3)))


@pytest.mark.parametrize("shape", [(4, 5), (5, 4), (5, 5)])
def test_spectral_braid_and_tl_check_reject_bad_shapes(shape):
    with pytest.raises(ValueError, match="square"):
        btl.spectral_qybe_residual(np.ones(shape), 2.0, 3.0)
    element = btl.tl_from_an(1)
    element.matrix = np.ones(shape)  # the dataclass checks its shape only when built
    with pytest.raises(ValueError, match="square"):
        btl.tl_check(element)


@pytest.mark.parametrize("shape,message", [
    ((4, 5), r"two-site operator must be square, got shape \(4, 5\)"),
    ((5, 5), "operator size 5 is not a perfect square of the local dimension"),
])
def test_tl_element_refuses_a_matrix_that_is_not_d2_by_d2(shape, message):
    with pytest.raises(ValueError, match=message):
        btl.TLElement(matrix=np.zeros(shape), beta=2.0)


def test_tl_check_zero_element_passes():
    e = btl.TLElement(matrix=np.zeros((9, 9)), beta=1.7)
    assert btl.tl_check(e).passed


def test_tl_check_identity_fails():
    e = btl.TLElement(matrix=np.eye(4), beta=2.0)
    report = btl.tl_check(e)
    assert not report.passed
    assert report.residuals["idempotent"] == pytest.approx(2.0)  # |I - 2I|_F on 4x4


def test_tl_from_an_rank_one_matrix():
    expected = np.array([[0.0, 0.0, 0.0, 0.0],
                         [0.0, 1.0, -1.0, 0.0],
                         [0.0, -1.0, 1.0, 0.0],
                         [0.0, 0.0, 0.0, 0.0]])
    element = btl.tl_from_an(1)
    assert np.array_equal(element.matrix, expected)
    assert element.beta == 2.0
    assert btl.tl_check(element).passed


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tl_from_an_idempotent_every_rank(n):
    e = btl.tl_from_an(n).matrix
    assert np.array_equal(e @ e, 2.0 * e)


@pytest.mark.parametrize("n", [2, 3])
def test_tl_contraction_fails_above_rank_one(n):
    # the contraction defect is a signed permutation sum with exactly
    # 6 * binomial(d, 3) unit entries, hence this exact Frobenius norm
    d = n + 1
    report = btl.tl_check(btl.tl_from_an(n))
    expected = 6.0 * math.sqrt(math.comb(d, 3))
    assert report.residuals["idempotent"] == 0.0
    assert report.residuals["contract_left"] == pytest.approx(expected, rel=1e-12)
    assert report.residuals["contract_right"] == pytest.approx(expected, rel=1e-12)
    assert not report.passed


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tl_from_an_eigenvalues(n):
    # idempotent up to the factor 2: eigenvalues in {0, 2}
    w = np.linalg.eigvalsh(btl.tl_from_an(n).matrix)
    assert np.allclose(w * (w - 2.0), 0.0, atol=1e-12)


def test_rmatrix_from_tl_beta_two():
    element = btl.tl_from_an(1)
    for sign in (1, -1):
        r = btl.rmatrix_from_tl(element, sign)
        assert np.array_equal(r, element.matrix - np.eye(4))
    assert btl.qybe_residual(btl.rmatrix_from_tl(element)) < 1e-12


@pytest.mark.parametrize("n,bound", [(1, 1e-12), (2, 1e-11)])
def test_rmatrix_solves_braid(n, bound):
    r = btl.rmatrix_from_tl(btl.tl_from_an(n), sign=1)
    assert btl.qybe_residual(r) < bound


def test_rmatrix_rejects_complex_branch():
    e = btl.TLElement(matrix=np.zeros((4, 4)), beta=1.0)
    with pytest.raises(ValueError):
        btl.rmatrix_from_tl(e)


def test_ladder_tl_element_full_relations():
    element = tl_from_ladder()
    assert element.beta == pytest.approx(10.0 / 3.0)
    report = btl.tl_check(element)
    assert report.passed
    assert max(report.residuals.values()) < 1e-10
    # both real root branches give braid solutions
    for sign in (1, -1):
        r = btl.rmatrix_from_tl(element, sign)
        assert btl.qybe_residual(r) < 1e-10


def test_spectral_braid_degenerate_point():
    assert btl.spectral_qybe_residual(h_ladder(), 1.0, 1.0) == 0.0


@pytest.mark.parametrize("x,y", [(2.0, 3.0), (0.5, -1.0)])
def test_spectral_braid_samples(x, y):
    assert btl.spectral_qybe_residual(h_ladder(), x, y) < 1e-8


def test_spectral_braid_wrong_shift_fails():
    assert btl.spectral_qybe_residual(h_ladder(), 2.0, 3.0, shift=5.0) > 1.0


# References below build the three-site pair by hand as h (x) 1 and 1 (x) h,
# and are compared exactly at points where the residual is far from zero.


def test_qybe_residual_equals_kron_pair_route():
    h = np.random.default_rng(12).normal(size=(9, 9))
    h12, h23 = np.kron(h, np.eye(3)), np.kron(np.eye(3), h)
    expected = frobenius_norm(h12 @ h23 @ h12 - h23 @ h12 @ h23)
    assert expected > 1.0
    assert btl.qybe_residual(h) == expected


@pytest.mark.parametrize("n", [2, 3])
def test_tl_check_equals_kron_pair_route(n):
    element = btl.tl_from_an(n)
    m, ident = element.matrix, np.eye(n + 1)
    e1, e2 = np.kron(m, ident), np.kron(ident, m)
    expected = {
        "idempotent": frobenius_norm(m @ m - element.beta * m),
        "contract_left": frobenius_norm(e1 @ e2 @ e1 - e1),
        "contract_right": frobenius_norm(e2 @ e1 @ e2 - e2),
    }
    assert min(expected["contract_left"], expected["contract_right"]) > 1.0
    assert btl.tl_check(element).residuals == expected


def test_spectral_braid_equals_closure_route():
    h, x, y, shift = h_ladder(), 2.0, 3.0, 5.0
    ident_local, ident_pair = np.eye(4), np.eye(16)

    def family(u):
        return (u - 1.0) * h + shift * ident_pair

    def left(op):
        return np.kron(op, ident_local)

    def right(op):
        return np.kron(ident_local, op)

    lhs = left(family(x)) @ right(family(x * y)) @ left(family(y))
    rhs = right(family(y)) @ left(family(x * y)) @ right(family(x))
    expected = frobenius_norm(lhs - rhs)
    assert expected > 1.0
    assert btl.spectral_qybe_residual(h, x, y, shift=shift) == expected


# The residuals verify certifies, each equal bit for bit to the route that builds
# the pair with np.kron.


def _kron_pair(h, d):
    return np.kron(h, np.eye(d)), np.kron(np.eye(d), h)


def test_verify_braid_grid_equals_kron_pair_route():
    for dd, f in itertools.product(H0_GRID, repeat=2):
        h = h0(dd, f)
        h12, h23 = _kron_pair(h, 4)
        expected = frobenius_norm(h12 @ h23 @ h12 - h23 @ h12 @ h23)
        assert btl.qybe_residual(h).hex() == expected.hex()


def test_verify_spectral_grid_equals_kron_pair_route():
    h, s = h_ladder(), 16.0 * np.eye(64)
    h12, h23 = _kron_pair(h, 4)
    points = list(itertools.product(SPECTRAL_GRID, repeat=2))
    expected = []
    for x, y in points:
        lhs = ((x - 1.0) * h12 + s) @ ((x * y - 1.0) * h23 + s) @ ((y - 1.0) * h12 + s)
        rhs = ((y - 1.0) * h23 + s) @ ((x * y - 1.0) * h12 + s) @ ((x - 1.0) * h23 + s)
        expected.append(frobenius_norm(lhs - rhs).hex())
    assert [r.hex() for r in btl.spectral_qybe_residuals(h, points)] == expected


@pytest.mark.parametrize("element", [tl_from_ladder(), btl.tl_from_an(1)], ids=["ladder", "an_1"])
def test_verify_tl_elements_equal_kron_pair_route(element):
    # ranks 2 and 3, where the contractions fail: test_tl_check_equals_kron_pair_route
    m = element.matrix
    e1, e2 = _kron_pair(m, math.isqrt(len(m)))
    expected = {
        "idempotent": frobenius_norm(m @ m - element.beta * m),
        "contract_left": frobenius_norm(e1 @ e2 @ e1 - e1),
        "contract_right": frobenius_norm(e2 @ e1 @ e2 - e2),
    }
    got = btl.tl_check(element).residuals
    assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in expected.items()}
