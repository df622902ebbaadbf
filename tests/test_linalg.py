import math

import numpy as np
import pytest

from lattice_markov import linalg
from lattice_markov import su2_ladder as lad
from lattice_markov.an_algebra import delta_casimir
from lattice_markov.lattice_an import hamiltonian, two_site_h
from lattice_markov.markov import ChainSpec, LadderParams, build_an_markov, build_ladder_markov
from lattice_markov.reporting import Tolerance

SWAP4 = np.array([[1, 0, 0, 0],
                  [0, 0, 1, 0],
                  [0, 1, 0, 0],
                  [0, 0, 0, 1]], dtype=float)


def test_kron_identities():
    i2 = np.eye(2)
    assert np.array_equal(linalg.kron(i2, i2), np.eye(4))
    d = np.diag([1.0, -1.0])
    assert np.array_equal(linalg.kron(d, d), np.diag([1.0, -1.0, -1.0, 1.0]))


def test_kron_single_entry_by_hand():
    # E12 (x) E21 has its only 1 where row = 0*2+1, col = 1*2+0 (0-based)
    e12 = np.zeros((2, 2)); e12[0, 1] = 1.0
    e21 = e12.T
    expected = np.zeros((4, 4))
    expected[1, 2] = 1.0
    assert np.array_equal(linalg.kron(e12, e21), expected)


def test_kron_associativity_random():
    rng = np.random.default_rng(42)
    for _ in range(5):
        a = rng.integers(-3, 4, size=(2, 2)).astype(float)
        b = rng.integers(-3, 4, size=(3, 3)).astype(float)
        c = rng.integers(-3, 4, size=(2, 3)).astype(float)
        left = linalg.kron(linalg.kron(a, b), c)
        right = linalg.kron(a, linalg.kron(b, c))
        assert np.array_equal(left, right)


def test_embed_two_site_trivial():
    op = np.arange(16.0).reshape(4, 4)
    assert np.array_equal(linalg.embed_two_site(op, 1, 2, 2), op)
    assert np.array_equal(linalg.embed_two_site(np.eye(9), 2, 3, 3), np.eye(27))


def test_embed_swap_permutes_last_two_qubits():
    got = linalg.embed_two_site(SWAP4, 2, 3, 2)
    # independent oracle: enumerate all 8 basis states and swap bits 2 and 3
    expected = np.zeros((8, 8))
    for s in range(8):
        b0, b1, b2 = (s >> 2) & 1, (s >> 1) & 1, s & 1
        t = (b0 << 2) | (b2 << 1) | b1
        expected[t, s] = 1.0
    assert np.array_equal(got, expected)


def test_embed_distant_operators_commute():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4))
    x = linalg.embed_two_site(a, 1, 4, 2)
    y = linalg.embed_two_site(b, 3, 4, 2)
    assert np.linalg.norm(x @ y - y @ x) < 1e-12


def test_embed_errors():
    with pytest.raises(ValueError):
        linalg.embed_two_site(np.eye(4), 3, 3, 2)
    with pytest.raises(ValueError):
        linalg.embed_two_site(np.eye(3), 1, 3, 2)


def _kron_sum(op, L, d):
    """Reference open-chain sum: one kron-embedded term per bond."""
    total = np.zeros((d ** L, d ** L))
    for i in range(1, L):
        total += linalg.embed_two_site(op, i, L, d)
    return total


@pytest.mark.parametrize("d,L", [(2, 2), (2, 5), (3, 3), (3, 4), (4, 2), (4, 3)])
def test_add_embedded_equals_kron_route(d, L):
    rng = np.random.default_rng(100 * d + L)
    op = rng.normal(size=(d * d, d * d))
    for i in range(1, L):
        total = rng.normal(size=(d ** L, d ** L))
        expected = total + linalg.embed_two_site(op, i, L, d)
        assert linalg.add_embedded(total, op, i, L, d) is total
        assert np.array_equal(total, expected)
    assert np.array_equal(linalg.embedded_sum(op, L, d), _kron_sum(op, L, d))


def test_add_embedded_errors():
    total = np.zeros((8, 8))
    with pytest.raises(ValueError):
        linalg.add_embedded(total, np.eye(4), 3, 3, 2)
    with pytest.raises(ValueError):
        linalg.add_embedded(total, np.eye(3), 1, 3, 2)
    with pytest.raises(ValueError):
        linalg.add_embedded(np.zeros((4, 4)), np.eye(4), 1, 3, 2)
    with pytest.raises(ValueError):  # reshaping a strided view would add into a copy
        linalg.add_embedded(np.zeros((8, 16))[:, ::2], np.eye(4), 1, 3, 2)
    with pytest.raises(ValueError, match="exceeds dense guard 4096"):
        linalg.embedded_sum(np.eye(4), 13, 2)


@pytest.mark.parametrize("n,L", [(1, 6), (2, 4), (3, 3)])
def test_hamiltonian_equals_kron_route(n, L):
    got = hamiltonian(ChainSpec(n, L)).matrix
    assert np.array_equal(got, _kron_sum(two_site_h(n), L, n + 1))


@pytest.mark.parametrize("abc,L", [((16.0, 0.0, 0.0), 3), ((18.0, 1.0, 0.0), 3),
                                   ((17.5, 0.25, 2.0), 4)])
def test_ladder_markov_equals_kron_route(abc, L):
    density = lad.h_doubleprime(*abc)
    norm = lad.column_sum_value(*abc)
    p = build_ladder_markov(LadderParams(*abc), L, "transition").matrix
    q = build_ladder_markov(LadderParams(*abc), L, "intensity").matrix
    assert np.array_equal(p, _kron_sum(density, L, 4) / ((L - 1) * norm))
    assert np.array_equal(q, _kron_sum(density - norm * np.eye(16), L, 4))


@pytest.mark.parametrize("L", [2, 3, 4])
def test_spin_form_hamiltonian_equals_kron_route(L):
    leg_leg = lad.swap_sites(1, 3, 4) @ lad.swap_sites(2, 4, 4)
    cross = lad.swap_sites(1, 4, 4) @ lad.swap_sites(2, 3, 4)
    rung_rung = lad.swap_sites(1, 2, 4) @ lad.swap_sites(3, 4, 4)
    density = 0.5 * leg_leg - 0.5 * cross + (5.0 / 6.0) * rung_rung
    assert np.array_equal(lad.spin_form_hamiltonian(L), _kron_sum(density, L, 4))


def test_commutator():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4))
    assert np.array_equal(linalg.commutator(a, a), np.zeros((4, 4)))
    e = np.zeros((2, 2)); e[0, 1] = 1.0
    f = e.T
    h = np.diag([1.0, -1.0])
    assert np.array_equal(linalg.commutator(e, f), h)
    assert np.array_equal(linalg.commutator(h, e), 2.0 * e)
    with pytest.raises(ValueError):
        linalg.commutator(np.eye(2), np.eye(3))


def test_frobenius_norm():
    assert linalg.frobenius_norm(np.zeros((3, 3))) == 0.0
    assert linalg.frobenius_norm(np.eye(4)) == 2.0
    # delta_casimir(1): four entries +-1 and two entries 2, so sqrt(12)
    assert linalg.frobenius_norm(delta_casimir(1)) == pytest.approx(2.0 * math.sqrt(3.0))


def test_symmetric_eigenvalues_examples():
    got = linalg.symmetric_eigenvalues(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(got, [1.0, 2.0, 3.0])
    got = linalg.symmetric_eigenvalues(delta_casimir(1))
    assert np.allclose(got, [-3.0, 1.0, 1.0, 1.0], atol=1e-12)
    got = linalg.symmetric_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(got, [-1.0, 1.0], atol=1e-12)


def test_symmetric_eigenvalues_rejects_asymmetric():
    with pytest.raises(ValueError):
        linalg.symmetric_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigensystem_against_lapack_oracle():
    rng = np.random.default_rng(11)
    for n in (5, 12, 30):
        a = rng.normal(size=(n, n))
        a = 0.5 * (a + a.T)
        w, v = linalg.symmetric_eigensystem(a)
        w_ref = np.linalg.eigvalsh(a)
        assert np.allclose(w, w_ref, atol=1e-9)
        # eigen-residual bound from reconstructed eigenvectors
        fro = np.linalg.norm(a)
        for k in range(n):
            assert np.linalg.norm(a @ v[:, k] - w[k] * v[:, k]) <= 10 * 1e-10 * max(fro, 1.0) + 1e-9
        assert abs(np.trace(a) - w.sum()) < 1e-9 * max(1.0, fro)


def test_intensity_exp_identity_at_zero():
    q = np.array([[-1.0, 1.0], [1.0, -1.0]])
    assert np.array_equal(linalg.intensity_exp(q, 0.0), np.eye(2))


def test_intensity_exp_closed_form_2x2():
    q = np.array([[-1.0, 1.0], [1.0, -1.0]])
    for t in (0.3, 1.0, 2.7):
        decay = math.exp(-2.0 * t)
        expected = 0.5 * np.array([[1.0 + decay, 1.0 - decay],
                                   [1.0 - decay, 1.0 + decay]])
        assert np.allclose(linalg.intensity_exp(q, t), expected, atol=1e-12)


def test_intensity_exp_preserves_column_sums():
    q = build_an_markov(ChainSpec(1, 2), "intensity").matrix
    p = linalg.intensity_exp(q, 1.0)
    assert np.max(np.abs(p.sum(axis=0) - 1.0)) < 1e-10
    assert p.min() >= 0.0


def test_intensity_exp_semigroup():
    q = build_an_markov(ChainSpec(1, 3), "intensity").matrix
    for s, t in ((0.2, 0.5), (1.0, 1.0), (0.1, 1.9)):
        lhs = linalg.intensity_exp(q, s + t)
        rhs = linalg.intensity_exp(q, s) @ linalg.intensity_exp(q, t)
        assert np.linalg.norm(lhs - rhs) < 1e-8


def test_intensity_exp_matches_spectral_oracle():
    # Q is symmetric here, so e^(Qt) = V e^(wt) V^T by the LAPACK eigensystem
    q = build_an_markov(ChainSpec(1, 3), "intensity").matrix
    w, v = np.linalg.eigh(q)
    for t in (0.5, 2.0):
        expected = (v * np.exp(w * t)) @ v.T
        assert np.allclose(linalg.intensity_exp(q, t), expected, atol=1e-10)


def test_intensity_exp_long_horizon_squaring_path():
    # lam * t > 500 triggers the horizon-halving branch; the closed form
    # still applies and entries stay a valid transition matrix
    q = 2.0 * np.array([[-1.0, 1.0], [1.0, -1.0]])
    p = linalg.intensity_exp(q, 400.0)
    assert np.allclose(p, 0.5 * np.ones((2, 2)), atol=1e-12)
    assert p.min() >= 0.0
    assert np.max(np.abs(p.sum(axis=0) - 1.0)) < 1e-9


def test_intensity_exp_rejects_bad_input():
    q = np.array([[-1.0, 1.0], [1.0, -1.0]])
    with pytest.raises(ValueError):
        linalg.intensity_exp(q, -0.5)
    with pytest.raises(ValueError):
        linalg.intensity_exp(np.array([[-1.0, -1.0], [1.0, 1.0]]), 1.0)
    with pytest.raises(ValueError):
        linalg.intensity_exp(np.array([[-1.0, 0.0], [2.0, 0.0]]), 1.0)


def test_intensity_exp_raises_when_series_cannot_meet_tolerance():
    # in exact arithmetic no partial Poisson sum reaches 1, so a zero
    # tolerance can only be met by rounding; here it is not, and the
    # truncated series is refused instead of returned
    q = np.array([[-1.0, 1.0], [1.0, -1.0]])
    with pytest.raises(ValueError, match="uniformization truncated"):
        linalg.intensity_exp(q, 10.0, Tolerance(abs_tol=0.0))
    assert np.allclose(linalg.intensity_exp(q, 10.0), 0.5 * np.ones((2, 2)), atol=1e-12)


def test_matrix_serialization_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 5)) * 10.0 ** rng.integers(-8, 8, size=(3, 5))
    csv_path = tmp_path / "m.csv"
    json_path = tmp_path / "m.json"
    linalg.save_matrix_csv(a, csv_path)
    linalg.save_matrix_json(a, json_path)
    assert np.array_equal(linalg.load_matrix_csv(csv_path), a)
    assert np.array_equal(linalg.load_matrix_json(json_path), a)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(abs_tol=-1.0)
