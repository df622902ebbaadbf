from fractions import Fraction

import numpy as np
import pytest

from lattice_markov import su2_ladder as lad
from lattice_markov.braid_tl import qybe_residual, spectral_qybe_residual
from lattice_markov.linalg import commutator, frobenius_norm, kron

H0_GRID = (-1.0, 0.0, 1.0, 2.0)
SPECTRAL_GRID = (-1.0, 0.5, 1.0, 2.0, 3.0)


def test_spin_generators():
    sx, syi, sz = lad.spin_generators()
    assert np.array_equal(sz, np.diag([0.5, -0.5]))
    assert np.allclose(lad.spin_casimir(), 0.75 * np.eye(2))
    # structure constants under the real y encoding
    assert np.array_equal(commutator(sz, sx), syi)
    assert np.array_equal(commutator(sx, syi), -sz)
    assert np.array_equal(commutator(syi, sz), -sx)


def test_pair_coupling_matches_complex_oracle():
    # oracle: true complex spin operators, summed and cast back to real
    sx = np.array([[0, 1], [1, 0]], dtype=complex) / 2
    sy = np.array([[0, -1j], [1j, 0]]) / 2
    sz = np.array([[1, 0], [0, -1]], dtype=complex) / 2
    ident = np.eye(2, dtype=complex)
    for p, q in [(1, 2), (1, 4), (2, 3), (3, 4)]:
        expected = np.zeros((16, 16), dtype=complex)
        for s in (sx, sy, sz):
            ops = [ident] * 4
            ops[p - 1] = s
            ops[q - 1] = s
            term = ops[0]
            for o in ops[1:]:
                term = np.kron(term, o)
            expected += term
        assert np.max(np.abs(expected.imag)) < 1e-15
        assert np.allclose(lad.pair_coupling(p, q), expected.real, atol=1e-15)


@pytest.mark.parametrize("sites", [2, 3, 4, 5])
def test_swap_sites_against_digit_swap_oracle(sites):
    # oracle: write s in binary, site 1 most significant, and exchange digits p and q
    for p in range(1, sites + 1):
        for q in range(1, sites + 1):
            if p == q:
                continue
            expected = np.zeros((2 ** sites, 2 ** sites))
            for s in range(2 ** sites):
                bits = list(format(s, f"0{sites}b"))
                bits[p - 1], bits[q - 1] = bits[q - 1], bits[p - 1]
                expected[int("".join(bits), 2), s] = 1.0
            assert np.array_equal(lad.swap_sites(p, q, sites), expected)
    with pytest.raises(ValueError):
        lad.swap_sites(1, 1, sites)


def test_coupling_operators_basic_properties():
    for k in (1, 2, 3):
        c = lad.c_operator(k)
        assert c.shape == (16, 16)
        assert np.array_equal(c, c.T)
        assert np.trace(c) == pytest.approx(0.0, abs=1e-14)
        assert lad.su2_invariance_residual(c) < 1e-13


def test_coupling_difference_is_mixed_pairs():
    # C3 - C1 - C2 cancels the shared (1,4) coupling twice and leaves
    # the (2,3) coupling minus the (3,4), (1,2) and (1,4) couplings
    lhs = lad.c_operator(3) - lad.c_operator(1) - lad.c_operator(2)
    rhs = (lad.pair_coupling(2, 3) - lad.pair_coupling(3, 4)
           - lad.pair_coupling(1, 2) - lad.pair_coupling(1, 4))
    assert np.allclose(lhs, rhs, atol=1e-14)


def test_c_products():
    assert np.array_equal(lad.c_product(1, 1, 1),
                          np.linalg.matrix_power(lad.c_operator(1), 3))
    assert frobenius_norm(lad.c_product(1, 2, 3) - lad.c_product(2, 1, 3)) > 0.1
    for ijk in lad.PRODUCT_INDICES:
        assert lad.c_product(*ijk).shape == (16, 16)


def test_h0_zero_parameters():
    assert np.array_equal(lad.h0(0.0, 0.0), np.zeros((16, 16)))


@pytest.mark.parametrize("d", H0_GRID)
@pytest.mark.parametrize("f", H0_GRID)
def test_h0_braid_grid(d, f):
    assert qybe_residual(lad.h0(d, f)) < 1e-8


def test_h0_invariance():
    assert lad.su2_invariance_residual(lad.h0(1.0, 2.0)) < 1e-8


def test_ladder_density_braid_and_symmetry():
    h = lad.h_ladder()
    assert qybe_residual(h) < 1e-8
    assert np.allclose(h, h.T, atol=1e-12)
    w = np.sort(np.linalg.eigvalsh(h))
    assert np.allclose(w[:3], -2.0, atol=1e-10)
    assert np.allclose(w[3:], 18.0, atol=1e-10)


def test_fixed_coefficients_values():
    co = lad.fixed_coefficients()
    assert co[(1, 3, 1)] == Fraction(3, 4)
    assert co[(1, 2, 1)] == Fraction(-41, 48)
    assert co[(1, 2, 2)] == Fraction(11, 12)  # not -(-41/48); see docstring
    assert co[(2, 1, 3)] == Fraction(131, 48)


def test_paired_coefficient_variant_breaks_braid():
    # the symmetric pairing -41/48 (x - y) misses the braid identity
    co = lad.fixed_coefficients()
    co[(1, 2, 2)] = Fraction(41, 48)
    variant = lad._assemble(co, lad.PRODUCT_SCALE)
    assert qybe_residual(variant) > 1.0


@pytest.mark.parametrize("x", SPECTRAL_GRID)
@pytest.mark.parametrize("y", SPECTRAL_GRID)
def test_spectral_braid_grid(x, y):
    assert spectral_qybe_residual(lad.h_ladder(), x, y) < 1e-8


def test_general_coefficient_table():
    co = lad.ladder_coefficients(1, 2, 3)
    assert co[(1, 3, 1)] == Fraction(3, 4)  # parameter independent
    assert co[(1, 1, 1)] == Fraction(-45 + 23 - 8 - 84, 432)


def test_h_prime_specializes_to_fixed_density():
    assert np.array_equal(lad.h_prime(0.0, 0.0, 0.0), 4.0 * lad.h_ladder())


@pytest.mark.parametrize("abc", [(16, 0, 0), (0, 8, 1), (1, 1, 1), (3, -2, 5)])
def test_similarity(abc):
    assert lad.similarity_residual(*abc) < 1e-8


@pytest.mark.parametrize("abc", [(16, 0, 0), (0, 8, 1), (1, 1, 1)])
def test_similar_operators_share_spectra(abc):
    # h_prime is not symmetric, so its spectrum comes from the general
    # LAPACK eigensolver (test-side oracle); the transformed pattern is
    # symmetric and both must agree after sorting
    w_prime = np.linalg.eigvals(lad.h_prime(*abc))
    assert np.max(np.abs(w_prime.imag)) < 1e-8
    w_prime = np.sort(w_prime.real)
    w_pattern = np.sort(np.linalg.eigvalsh(lad.h_doubleprime(*abc)))
    assert np.max(np.abs(w_prime - w_pattern)) < 1e-8


def test_transformed_density_entries():
    m = lad.h_doubleprime(0.0, 0.0, 0.0)
    assert m[0, 0] == 66.0
    assert np.array_equal(m, m.T)
    vals = lad.entry_values(16.0, 0.0, 0.0)
    assert vals[5] == 0.0   # -16 + a + 2b
    assert vals[1] == 6.0
    assert vals[3] == 18.0


@pytest.mark.parametrize("abc", [(16, 0, 0), (0, 8, 1), (1, 1, 1), (-1, 9, -2)])
def test_transformed_density_column_sums(abc):
    m = lad.h_doubleprime(*abc)
    target = lad.column_sum_value(*abc)
    assert np.array_equal(m.sum(axis=0), np.full(16, target))
    assert np.array_equal(m.sum(axis=1), np.full(16, target))


def test_positivity_region():
    assert lad.positivity_check(16.0, 0.0, 0.0).passed
    assert lad.positivity_check(0.0, 8.0, 0.0).passed
    report = lad.positivity_check(0.0, 0.0, 0.0)
    assert not report.passed
    assert report.residuals["min_entry"] == -16.0


def test_su2_invariance_of_table_operators():
    assert lad.su2_invariance_residual(lad.h_ladder()) < 1e-8
    assert lad.su2_invariance_residual(lad.h_prime(1.0, 1.0, 1.0)) < 1e-7


def test_su2_invariance_residual_equals_per_generator_loop():
    m = np.random.default_rng(16).normal(size=(16, 16))
    op = m + m.T
    expected = max(frobenius_norm(commutator(op, g)) for g in lad.total_spin_generators(4))
    assert expected > 1.0
    assert lad.su2_invariance_residual(op) == expected


def test_transformed_density_invariance_under_conjugated_generators():
    bb = kron(lad.basis_change(), lad.basis_change())
    bb_inv = np.linalg.inv(bb)
    hdp = lad.h_doubleprime(16.0, 0.0, 0.0)
    worst = max(frobenius_norm(commutator(hdp, bb @ g @ bb_inv))
                for g in lad.total_spin_generators(4))
    assert worst < 1e-8


def test_basis_change_invertible():
    b = lad.basis_change()
    assert abs(np.linalg.det(b)) > 0.1


def test_spin_form_hamiltonian_two_rungs():
    h = lad.spin_form_hamiltonian(2)
    assert h.shape == (16, 16)
    assert np.array_equal(h, h.T)
    assert lad.su2_invariance_residual(h) < 1e-12
    w = np.sort(np.linalg.eigvalsh(h))
    assert np.allclose(w[:3], -11.0 / 6.0, atol=1e-10)
    assert np.allclose(w[3:6], 1.0 / 6.0, atol=1e-10)
    assert np.allclose(w[6:], 5.0 / 6.0, atol=1e-10)


def test_spin_form_guard():
    with pytest.raises(ValueError):
        lad.spin_form_hamiltonian(1)
    with pytest.raises(ValueError):
        lad.spin_form_hamiltonian(7)


def test_affine_spectrum_fit_recovers_exact_map():
    rng = np.random.default_rng(4)
    ref = np.sort(rng.normal(size=12))
    scale, shift, residual = lad.affine_spectrum_fit(ref, 2.5 * ref - 1.25)
    assert scale == pytest.approx(2.5, abs=1e-12)
    assert shift == pytest.approx(-1.25, abs=1e-12)
    assert residual < 1e-12


def test_spin_form_vs_ladder_density_fit_is_reported_not_exact():
    # the two 16x16 operators have different eigenvalue multiplicities
    # ((3,3,10) against (3,13)), so no affine map can match them; the fit
    # is reported for inspection only
    w_spin = np.linalg.eigvalsh(lad.spin_form_hamiltonian(2))
    w_ladder = np.linalg.eigvalsh(lad.h_ladder())
    scale, shift, residual = lad.affine_spectrum_fit(w_ladder, w_spin)
    assert np.isfinite([scale, shift, residual]).all()
    assert residual > 0.1


def test_coefficient_match_report():
    report = lad.coefficient_match_report()
    assert np.allclose(report["abc"], [0.0, 0.0, 0.0], atol=1e-9)
    assert report["table_residual"] < 1e-12
    assert report["matrix_scale"] == pytest.approx(4.0, abs=1e-12)
    assert report["matrix_residual"] < 1e-10


def test_general_family_braids_only_at_origin():
    # away from (0,0,0) the three-parameter family is not a braid solution
    assert qybe_residual(lad.h_prime(0.0, 0.0, 0.0)) < 1e-7
    assert qybe_residual(lad.h_prime(0.0, 8.0, 0.0)) > 1.0
    assert qybe_residual(lad.h_prime(16.0, 0.0, 0.0)) > 1.0
