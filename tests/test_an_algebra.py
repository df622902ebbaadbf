import itertools
import math

import numpy as np
import pytest

from lattice_markov import an_algebra as ala
from lattice_markov.linalg import commutator, embedded_sum, frobenius_norm, symmetric_eigenvalues

from alternating import alternating_sum


def test_unit_matrix_examples():
    assert np.array_equal(ala.unit_matrix(1, 1, 1), np.array([[1.0, 0.0], [0.0, 0.0]]))
    e12, e21 = ala.unit_matrix(1, 2, 1), ala.unit_matrix(2, 1, 1)
    assert np.array_equal(e12 @ e21, ala.unit_matrix(1, 1, 1))
    assert np.array_equal(commutator(e12, e21), np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        ala.unit_matrix(0, 1, 1)


def test_unit_matrix_product_relation():
    # E_ab E_cd = delta_bc E_ad, checked exhaustively for n = 2
    n = 2
    for a, b, c, d in itertools.product(range(1, n + 2), repeat=4):
        lhs = ala.unit_matrix(a, b, n) @ ala.unit_matrix(c, d, n)
        rhs = (1.0 if b == c else 0.0) * ala.unit_matrix(a, d, n)
        assert np.array_equal(lhs, rhs)


@pytest.mark.parametrize("n,count", [(1, 1), (2, 3), (3, 6)])
def test_fundamental_rep_generator_counts(n, count):
    rep = ala.fundamental_rep(n)
    assert len(rep.raising) == len(rep.lowering) == count
    assert len(rep.cartan) == n
    for g in rep.all_generators():
        assert g.shape == (n + 1, n + 1)
    for e, f in zip(rep.raising, rep.lowering):
        assert np.array_equal(f, e.T)


def test_fundamental_rep_n1():
    rep = ala.fundamental_rep(1)
    assert np.array_equal(rep.cartan[0], np.diag([1.0, -1.0]))
    assert np.array_equal(rep.raising[0], ala.unit_matrix(1, 2, 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_chevalley_relations(n):
    rep = ala.fundamental_rep(n)
    a = rep.cartan_matrix
    simple = [rep.raising_pairs.index((i + 1, i + 2)) for i in range(n)]
    for i in range(n):
        for j in range(n):
            hi, hj = rep.cartan[i], rep.cartan[j]
            ej, fj = rep.raising[simple[j]], rep.lowering[simple[j]]
            ei = rep.raising[simple[i]]
            delta = 1.0 if i == j else 0.0
            assert frobenius_norm(commutator(hi, hj)) == 0.0
            assert np.array_equal(commutator(ei, fj), delta * rep.cartan[i])
            assert np.array_equal(commutator(hi, ej), a[i, j] * ej)
            assert np.array_equal(commutator(hi, fj), -a[i, j] * fj)


def test_nonsimple_generator_bracket():
    # [E12, E23] = E13 realizes the composite raising generator for n = 2
    lhs = commutator(ala.unit_matrix(1, 2, 2), ala.unit_matrix(2, 3, 2))
    assert np.array_equal(lhs, ala.unit_matrix(1, 3, 2))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_casimir_is_scalar(n):
    assert np.array_equal(ala.casimir(n), n * (n + 2) * np.eye(n + 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_coproduct_casimir_routes_agree_exactly(n):
    assert np.array_equal(ala.delta_casimir_sum(n), ala.delta_casimir_indexed(n))


def test_coproduct_casimir_golden_matrix():
    expected = np.array([[1.0, 0.0, 0.0, 0.0],
                         [0.0, -1.0, 2.0, 0.0],
                         [0.0, 2.0, -1.0, 0.0],
                         [0.0, 0.0, 0.0, 1.0]])
    assert np.array_equal(ala.delta_casimir_indexed(1), expected)


def test_coproduct_casimir_diagonal_n2():
    dc = ala.delta_casimir(2)
    # doubly-occupied pair states carry diagonal value n
    for idx in ala.index_classes(2)[0]:
        assert dc[idx - 1, idx - 1] == 2.0
    # state (1,1) sits at 1-based index 5
    assert dc[4, 4] == 2.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_row_sums_of_shifted_casimir(n):
    h = ala.delta_casimir(n) + np.eye((n + 1) ** 2)
    assert np.array_equal(h.sum(axis=1), np.full((n + 1) ** 2, float(n + 1)))
    assert np.array_equal(h.sum(axis=0), np.full((n + 1) ** 2, float(n + 1)))


@pytest.mark.parametrize("n,sizes", [(1, (2, 1, 1)), (2, (3, 3, 3)), (3, (4, 6, 6)), (4, (5, 10, 10))])
def test_index_partition(n, sizes):
    assert ala.index_partition_check(n)
    classes = ala.index_classes(n)
    assert tuple(len(c) for c in classes) == sizes


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_quadratic_identity(n):
    assert ala.casimir_quadratic_residual(n) == 0.0


def test_cubic_identity_holds_only_for_rank_one():
    assert ala.casimir_cubic_residuals(1) == (0.0, 0.0)
    for n in (2, 3):
        d = n + 1
        expected = 6.0 * (n + 1) ** 3 * math.sqrt(math.comb(d, 3))
        r1, r2 = ala.casimir_cubic_residuals(n)
        assert r1 == pytest.approx(expected, rel=1e-12)
        assert r2 == pytest.approx(expected, rel=1e-12)


def test_cubic_defect_is_scaled_alternating_projector():
    # the defect matrix itself equals -(n+1)^3 times the alternating sum
    n = 2
    d = n + 1
    dc = ala.delta_casimir(n)
    ident = np.eye(d)
    a = np.kron(dc, ident)
    b = np.kron(ident, dc)
    i3 = np.eye(d ** 3)
    lhs = a @ b @ a - n * (b @ a + a @ b) + (n * n - 1) * a + n * n * b + n * (1 - n * n) * i3
    assert np.array_equal(lhs, -(n + 1) ** 3 * alternating_sum(d))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cubic_residuals_equal_kron_pair_route(n):
    # reference: the pair built by hand as DC (x) 1 and 1 (x) DC, equal bit for bit;
    # above rank 1 both sides are far from zero, so a dropped or mis-signed term
    # changes the value
    d = n + 1
    dc = ala.delta_casimir(n)
    a, b = np.kron(dc, np.eye(d)), np.kron(np.eye(d), dc)
    i3 = np.eye(d ** 3)
    lhs1 = a @ b @ a - n * (b @ a + a @ b) + (n * n - 1) * a + n * n * b + n * (1 - n * n) * i3
    lhs2 = b @ a @ b - n * (b @ a + a @ b) + (n * n - 1) * b + n * n * a + n * (1 - n * n) * i3
    expected = (frobenius_norm(lhs1), frobenius_norm(lhs2))
    assert n == 1 or min(expected) > 1.0
    assert [r.hex() for r in ala.casimir_cubic_residuals(n)] == [r.hex() for r in expected]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_coproduct_equals_the_embedded_sum(n):
    op = np.random.default_rng(n).normal(size=(n + 1, n + 1))
    assert np.array_equal(ala.coproduct(op), embedded_sum(op, 2, n + 1))


@pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
def test_coproduct_rejects_a_non_square_matrix(shape):
    with pytest.raises(ValueError, match="square"):
        ala.coproduct(np.ones(shape))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_coproduct_homomorphism(n):
    rep = ala.fundamental_rep(n)
    for i in range(n):
        idx = rep.raising_pairs.index((i + 1, i + 2))
        de = ala.coproduct(rep.raising[idx])
        df = ala.coproduct(rep.lowering[idx])
        dh = ala.coproduct(rep.cartan[i])
        assert frobenius_norm(commutator(de, df) - dh) == 0.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_coproduct_casimir_commutes_with_coproduct_generators(n):
    rep = ala.fundamental_rep(n)
    dc = ala.delta_casimir(n)
    for g in rep.all_generators():
        assert frobenius_norm(commutator(dc, ala.coproduct(g))) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_coproduct_casimir_spectrum(n):
    # eigenvalues n and -(n+2) with symmetric/antisymmetric multiplicities
    d = n + 1
    w = symmetric_eigenvalues(ala.delta_casimir(n))
    low, high = -(n + 2.0), float(n)
    n_low = d * (d - 1) // 2
    assert np.allclose(w[:n_low], low, atol=1e-10)
    assert np.allclose(w[n_low:], high, atol=1e-10)
