import math

import numpy as np
import pytest
import scipy.linalg

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


def test_embed_one_site_by_hand_and_errors():
    z = np.diag([1.0, -1.0])
    assert np.array_equal(linalg.embed_one_site(z, 1, 2, 2), np.diag([1.0, 1.0, -1.0, -1.0]))
    assert np.array_equal(linalg.embed_one_site(z, 2, 2, 2), np.diag([1.0, -1.0, 1.0, -1.0]))
    with pytest.raises(ValueError):
        linalg.embed_one_site(np.eye(3), 1, 2, 2)
    for i in (0, 3):
        with pytest.raises(ValueError):
            linalg.embed_one_site(z, i, 2, 2)


@pytest.mark.parametrize("d,L", [(2, 2), (2, 5), (3, 3), (3, 4), (4, 3)])
def test_one_site_sum_equals_kron_route(d, L):
    op = np.random.default_rng(10 * d + L).normal(size=(d, d))
    expected = np.zeros((d ** L, d ** L))
    for i in range(1, L + 1):
        expected += linalg.embed_one_site(op, i, L, d)
    assert np.array_equal(linalg._one_site_sum(op, L, d), expected)


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


@pytest.mark.parametrize("n,L", [(1, 6), (2, 4), (3, 3)])
def test_an_markov_equals_hamiltonian_route(n, L):
    spec = ChainSpec(n, L)
    h = hamiltonian(spec).matrix
    norm = (L - 1) * (n + 1)
    assert np.array_equal(build_an_markov(spec, "transition").matrix, h / norm)
    assert np.array_equal(build_an_markov(spec, "intensity").matrix, h - norm * np.eye(spec.dim))


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


def test_invariance_residual_is_the_largest_commutator_norm():
    rng = np.random.default_rng(4)
    op = rng.normal(size=(5, 5))
    gens = [s * rng.normal(size=(5, 5)) for s in (1.0, 3.0, 2.0)]
    norms = [linalg.frobenius_norm(linalg.commutator(op, g)) for g in gens]
    assert len(set(norms)) == 3
    for k in range(3):  # the largest commutator at every position, list or iterator
        rolled = gens[k:] + gens[:k]
        assert linalg.invariance_residual(op, rolled) == max(norms)
        assert linalg.invariance_residual(op, iter(rolled)) == max(norms)
    assert linalg.invariance_residual(op, [op, np.eye(5)]) == 0.0


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


def test_intensity_exp_rejects_non_finite_time():
    q = np.array([[-1.0, 1.0], [1.0, -1.0]])
    for t in (math.inf, math.nan, -0.5):
        with pytest.raises(ValueError, match="time must be finite and non-negative"):
            linalg.intensity_exp(q, t)


def _digit_sectors(n, L):
    """Index sets of equal site-value multisets, from the base-(n+1) digits."""
    d = n + 1
    digits = (np.arange(d ** L)[:, None] // d ** np.arange(L)) % d
    counts = [tuple(np.bincount(row, minlength=d)) for row in digits]
    sectors = {}
    for index, key in enumerate(counts):
        sectors.setdefault(key, []).append(index)
    return sorted(sectors.values())


@pytest.mark.parametrize("n,L", [(1, 6), (2, 4), (3, 3), (1, 10)])
def test_blocks_are_the_multiset_sectors(n, L):
    got = linalg._blocks(hamiltonian(ChainSpec(n, L)).matrix)
    assert sorted(b.tolist() for b in got) == _digit_sectors(n, L)


@pytest.mark.parametrize("abc", [(16.0, 0.0, 0.0), (18.0, 1.0, 0.0)])
@pytest.mark.parametrize("L", [3, 4])
@pytest.mark.parametrize("kind", ["transition", "intensity"])
def test_ladder_chain_is_one_block(abc, L, kind):
    got = linalg._blocks(build_ladder_markov(LadderParams(*abc), L, kind).matrix)
    assert len(got) == 1 and np.array_equal(got[0], np.arange(4 ** L))


@pytest.mark.parametrize("n,L", [(1, 6), (1, 8), (1, 10), (2, 4), (2, 6), (3, 5)])
def test_blocked_eigenvalues_match_dense_eigvalsh(n, L):
    h = hamiltonian(ChainSpec(n, L)).matrix
    ref = np.linalg.eigvalsh(h)
    got = linalg.symmetric_eigenvalues(h)
    assert len(linalg._blocks(h)) == math.comb(L + n, n)
    assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("n,L,t", [(1, 6, 0.8), (2, 4, 0.7), (1, 9, 1.0)])
def test_blocked_intensity_exp_matches_scipy_expm(n, L, t):
    q = build_an_markov(ChainSpec(n, L), "intensity").matrix
    assert np.max(np.abs(linalg.intensity_exp(q, t) - scipy.linalg.expm(q * t))) <= 1e-9


def test_blocks_need_not_be_contiguous():
    q = build_an_markov(ChainSpec(2, 4), "intensity").matrix
    perm = np.random.default_rng(7).permutation(len(q))
    qp = q[np.ix_(perm, perm)]
    blocks = linalg._blocks(qp)
    assert len(blocks) == 15 and any(np.any(np.diff(b) > 1) for b in blocks)
    assert sorted(np.sort(perm[b]).tolist() for b in blocks) == _digit_sectors(2, 4)
    got = linalg.intensity_exp(qp, 0.7)
    assert np.max(np.abs(got - scipy.linalg.expm(qp * 0.7))) <= 1e-9
    h = hamiltonian(ChainSpec(2, 4)).matrix[np.ix_(perm, perm)]
    ref = np.linalg.eigvalsh(h)
    assert np.max(np.abs(linalg.symmetric_eigenvalues(h) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_one_way_rates_join_their_states():
    # 1 -> 2 -> 3 at rates 1 and 2, 4 <-> 5: no rate leads back to state 1
    q = np.zeros((5, 5))
    q[1, 0], q[2, 1] = 1.0, 2.0
    q[3, 4] = q[4, 3] = 0.5
    q -= np.diag(q.sum(axis=0))
    for m in (q, q.T):
        assert [b.tolist() for b in linalg._blocks(m)] == [[0, 1, 2], [3, 4]]
    assert np.max(np.abs(linalg.intensity_exp(q, 1.2) - scipy.linalg.expm(q * 1.2))) <= 1e-9


def test_tiny_coupling_keeps_blocks_joined():
    m = np.zeros((4, 4))
    m[:2, :2] = [[0.0, 1.0], [1.0, 0.0]]
    m[2:, 2:] = [[0.0, 2.0], [2.0, 0.0]]
    assert [b.tolist() for b in linalg._blocks(m)] == [[0, 1], [2, 3]]
    m[1, 2] = m[2, 1] = 1e-300
    assert [b.tolist() for b in linalg._blocks(m)] == [[0, 1, 2, 3]]
    assert np.allclose(linalg.symmetric_eigenvalues(m), [-2.0, -1.0, 1.0, 2.0], atol=1e-15)
    q = m - np.diag(m.sum(axis=0))
    assert np.max(np.abs(linalg.intensity_exp(q, 1.5) - scipy.linalg.expm(q * 1.5))) <= 1e-9


@pytest.mark.parametrize("entry", [(0, 2), (2, 0)])
def test_one_sided_entry_is_rejected_as_asymmetric(entry):
    m = np.diag([1.0, 2.0, 3.0])
    m[entry] = 0.5  # joins states 1 and 3 into one block, with no mirror entry
    with pytest.raises(ValueError) as blocked:
        linalg.symmetric_eigenvalues(m)
    with pytest.raises(ValueError) as dense:
        linalg.symmetric_eigensystem(m)
    assert str(blocked.value) == str(dense.value) == \
        "matrix is not symmetric within tolerance (defect 7.071e-01)"


def test_blocked_symmetry_test_is_the_global_one():
    # an asymmetry that the large block's norm covers passes, as is_symmetric decides
    small = np.array([[1.0, 1e-7], [0.0, 1.0]])
    for scale in (1.0, 1e3, 1e6):
        m = scipy.linalg.block_diag(small, scale * np.array([[2.0, 1.0], [1.0, 2.0]]))
        if linalg.is_symmetric(m):
            assert np.allclose(linalg.symmetric_eigenvalues(m), np.linalg.eigvalsh(0.5 * (m + m.T)))
        else:
            with pytest.raises(ValueError, match="not symmetric"):
                linalg.symmetric_eigenvalues(m)
    assert not linalg.is_symmetric(scipy.linalg.block_diag(small, np.eye(2)))
    assert linalg.is_symmetric(scipy.linalg.block_diag(small, 1e6 * np.eye(2)))


def test_intensity_exp_squares_only_the_fast_block():
    # first block: lam = 400.01, lam * t = 1200.03 > 500, so two squarings, and a
    # slow mode (rate ~0.01) that has not mixed by t = 3; second block: lam * t = 30
    fast = np.array([[-400.0, 400.0, 0.0], [400.0, -400.01, 0.01], [0.0, 0.01, -0.01]])
    slow = 10.0 * np.array([[-1.0, 1.0], [1.0, -1.0]])
    t = 3.0
    q = scipy.linalg.block_diag(fast, slow)
    got = linalg.intensity_exp(q, t)
    assert np.max(np.abs(got - scipy.linalg.expm(q * t))) <= 1e-9
    assert np.array_equal(got[:3, 3:], np.zeros((3, 2))) and got.min() >= 0.0
    assert got[2, 2] > 0.9  # the slow mode is still far from the uniform 1/3


def test_matrix_serialization_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 5)) * 10.0 ** rng.integers(-8, 8, size=(3, 5))
    csv_path = tmp_path / "m.csv"
    json_path = tmp_path / "m.json"
    linalg.save_matrix_csv(a, csv_path)
    linalg.save_matrix_json(a, json_path)
    assert np.array_equal(linalg.load_matrix_csv(csv_path), a)
    assert np.array_equal(linalg.load_matrix_json(json_path), a)


@pytest.mark.filterwarnings("ignore::UserWarning")  # np.loadtxt warns of no data first
@pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank_lines"])
def test_load_matrix_csv_rejects_file_without_rows(tmp_path, text):
    path = tmp_path / "m.csv"
    path.write_text(text)
    with pytest.raises(ValueError):
        linalg.load_matrix_csv(path)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(abs_tol=-1.0)


@pytest.mark.parametrize("field", ["abs_tol", "rel_tol"])
def test_tolerance_rejects_nan(field):
    with pytest.raises(ValueError, match="non-negative"):
        Tolerance(**{field: math.nan})


def test_load_matrix_json_rejects_non_finite_entries(tmp_path):
    json_path, csv_path = tmp_path / "m.json", tmp_path / "m.csv"
    json_path.write_text('{"rows": 1, "cols": 2, "entries": [NaN, Infinity]}')
    csv_path.write_text("nan,inf\n")
    for load, path in [(linalg.load_matrix_json, json_path), (linalg.load_matrix_csv, csv_path)]:
        with pytest.raises(ValueError, match="non-finite"):
            load(path)
