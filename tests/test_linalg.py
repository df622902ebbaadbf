import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from scipy.sparse.csgraph import connected_components
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lattice_markov import linalg
from lattice_markov import su2_ladder as lad
from lattice_markov.an_algebra import delta_casimir, fundamental_rep
from lattice_markov.lattice_an import hamiltonian, two_site_h
from lattice_markov.markov import (ChainSpec, LadderParams, build_an_markov, build_ladder_markov,
                                   closed_sets)
from lattice_markov.reporting import DEFAULT_TOL, REL_TOL, Tolerance

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
    op = np.random.default_rng(100 * d + L).normal(size=(d * d, d * d))
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
    assert np.array_equal(linalg.embedded_sum(op, L, d), expected)


def test_embedded_sum_errors():
    for op in (np.eye(3), np.eye(8), np.ones((2, 4)), np.ones(4)):
        with pytest.raises(ValueError, match="operator must be 2x2 or 4x4|2-D matrix"):
            linalg.embedded_sum(op, 3, 2)
    for op in (np.eye(2), np.eye(4)):  # one-site and two-site sums share the guard
        with pytest.raises(ValueError, match="exceeds dense guard 4096"):
            linalg.embedded_sum(op, 13, 2)


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


def _kron_site_sum(op, L, d):
    """Reference one-site sum: one kron-embedded term per site."""
    total = np.zeros((d ** L, d ** L))
    for i in range(1, L + 1):
        total += linalg.embed_one_site(op, i, L, d)
    return total


# a rank n and a number of sites L with (n+1)^L <= 256
RANK_AND_SITES = st.integers(1, 3).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(2, {1: 8, 2: 5, 3: 4}[n])))
# ladder parameters: quarter steps reach the edges of the positivity region exactly
LADDER_PARAMETER = st.one_of(st.integers(-80, 160).map(lambda v: v / 4),
                             st.floats(-20.0, 40.0, allow_nan=False))
KERNEL_ENTRY = st.one_of(st.just(0.0), st.sampled_from([1.0, -1.0, 0.5]),
                         st.floats(-8.0, 8.0, allow_nan=False, allow_subnormal=False))


@settings(max_examples=40, deadline=None)
@given(RANK_AND_SITES, st.data())
def test_chain_kernel_entries_scatter_to_the_kron_route(rank_and_sites, data):
    n, L = rank_and_sites
    d = n + 1
    entries = linalg.embedded_entries(two_site_h(n), L, d)
    assert entries.dense().tobytes() == _kron_sum(two_site_h(n), L, d).tobytes()
    g = data.draw(st.sampled_from(fundamental_rep(n).all_generators()))
    assert linalg.embedded_entries(g, L, d).dense().tobytes() == _kron_site_sum(g, L, d).tobytes()


@settings(max_examples=40, deadline=None)
@given(LADDER_PARAMETER, LADDER_PARAMETER, LADDER_PARAMETER, st.integers(2, 4))
def test_ladder_kernel_entries_scatter_to_the_kron_route(a, b, c, L):
    # any (a, b, c), inside the positivity region or not: the sum is defined for all
    density = lad.h_doubleprime(a, b, c)
    for kernel in (density, density - lad.column_sum_value(a, b, c) * np.eye(16)):
        got = linalg.embedded_entries(kernel, L, 4).dense()
        assert got.tobytes() == _kron_sum(kernel, L, 4).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3).flatmap(lambda d: st.tuples(
    st.just(d), st.integers(2, {2: 7, 3: 4}[d]), st.sampled_from([d, d * d]).flatmap(
        lambda k: hnp.arrays(np.float64, (k, k), elements=KERNEL_ENTRY)))))
def test_random_kernel_entries_scatter_to_the_kron_route(case):
    d, L, op = case
    reference = _kron_site_sum(op, L, d) if len(op) == d else _kron_sum(op, L, d)
    entries = linalg.embedded_entries(op, L, d)
    assert entries.dense().tobytes() == reference.tobytes()
    # sorted by column and then row, each position once, no zero sums
    keys = entries.cols * entries.dim + entries.rows
    assert np.all(np.diff(keys) > 0) and np.all(entries.values != 0.0)


def test_nonzero_entries_are_sorted_by_column():
    m = np.array([[0.0, 2.0, 0.0], [3.0, 0.0, 0.0], [4.0, 5.0, -1.0]])
    rows, cols, values, dim = linalg.nonzero_entries(m)
    assert (rows.tolist(), cols.tolist(), values.tolist(), dim) == (
        [1, 2, 0, 2, 2], [0, 0, 1, 1, 2], [3.0, 4.0, 2.0, 5.0, -1.0], 3)
    assert linalg.Entries(rows, cols, values, dim).dense().tobytes() == m.tobytes()
    with pytest.raises(ValueError, match="square"):
        linalg.nonzero_entries(np.ones((2, 3)))


# mostly zeros (of either sign), with subnormal, tiny and huge non-zeros among them
SPARSE_ENTRY = st.one_of(st.sampled_from([-0.0, 5e-324, -2.5e-310, 1e-300, 1.0, -3.0]),
                         st.floats(allow_nan=False, allow_infinity=False))
SPARSE_MATRIX = st.integers(0, 14).flatmap(lambda n: hnp.arrays(
    np.float64, (n, n), elements=SPARSE_ENTRY, fill=st.sampled_from([0.0, -0.0])))


@settings(max_examples=150, deadline=None)
@given(SPARSE_MATRIX)
def test_nonzero_entries_equal_the_transposed_nonzero_route(m):
    cols, rows = np.nonzero(m.T)  # the reference: m.T in C order visits m column by column
    got = linalg.nonzero_entries(m)
    assert got.dim == len(m)
    for have, want in zip(got[:3], (rows, cols, m[rows, cols])):
        assert have.dtype == want.dtype and have.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(SPARSE_MATRIX)
def test_blocks_are_the_weakly_connected_components(m):
    # the support need not be symmetric: an edge either way joins two states
    count, labels = connected_components(scipy.sparse.csr_array(m != 0), connection="weak")
    expected = sorted(np.flatnonzero(labels == k).tolist() for k in range(count))
    assert [b.tolist() for b in linalg._blocks(linalg.nonzero_entries(m))] == expected


def _scipy_commutator_norm(a, b):
    a, b = scipy.sparse.csr_array(a), scipy.sparse.csr_array(b)
    return scipy.sparse.linalg.norm(a @ b - b @ a)


@pytest.mark.parametrize("seed", range(12))
def test_commutator_norm_matches_scipy_sparse_products(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 40))
    a, b = (rng.normal(size=(dim, dim)) * (rng.random((dim, dim)) < rng.uniform(0.05, 0.5))
            for _ in range(2))
    got = linalg.commutator_norm(linalg.nonzero_entries(a), linalg.nonzero_entries(b))
    assert got == pytest.approx(_scipy_commutator_norm(a, b), rel=1e-12, abs=1e-12)
    assert got == pytest.approx(linalg.frobenius_norm(linalg.commutator(a, b)), rel=1e-12,
                                abs=1e-12)
    zero = linalg.nonzero_entries(np.zeros((dim, dim)))
    assert linalg.commutator_norm(linalg.nonzero_entries(a), zero) == 0.0


def test_commutator_norm_needs_equal_sizes():
    with pytest.raises(ValueError, match="equal size"):
        linalg.commutator_norm(linalg.nonzero_entries(np.eye(4)),
                               linalg.nonzero_entries(np.eye(8)))


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


def test_symmetric_eigenvalues_against_lapack_oracle():
    rng = np.random.default_rng(11)
    for n in (5, 12, 30):  # dense, so each is one block
        a = rng.normal(size=(n, n))
        a = 0.5 * (a + a.T)
        w = linalg.symmetric_eigenvalues(a)
        assert np.allclose(w, np.linalg.eigvalsh(a), atol=1e-9)
        assert np.all(np.diff(w) >= 0.0)
        assert abs(np.trace(a) - w.sum()) < 1e-9 * max(1.0, np.linalg.norm(a))


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


@pytest.mark.parametrize("lam_t", [1e4, 1e6])
def test_intensity_exp_keeps_column_mass_over_many_squarings(lam_t):
    # 10 and 11 squarings: each doubles the Poisson mass the series leaves out, so the
    # series runs until that mass is at most abs_tol / 2^(s+1), half the budget
    p = linalg.intensity_exp(np.array([[-1.0, 1.0], [1.0, -1.0]]), lam_t)
    assert np.max(np.abs(p.sum(axis=0) - 1.0)) <= 1e-10
    assert np.max(np.abs(p - 0.5)) <= 1e-10


def test_intensity_exp_refuses_a_horizon_float64_cannot_resolve():
    # 31 squarings ask for a Poisson tail below 1e-10 / 2^31, under float64's resolution
    # of 1; the mass left out would have read every entry as 0.407, not 0.5
    with pytest.raises(ValueError, match=r"uniformization truncated after \d+ terms and 31 squarings"):
        linalg.intensity_exp(np.array([[-1.0, 1.0], [1.0, -1.0]]), 1e12)


def test_intensity_exp_refuses_column_mass_lost_to_roundoff_in_squaring():
    # lam t = 1e7 takes 15 squarings, which grow roundoff to about 2e-10
    q = build_an_markov(ChainSpec(1, 6), "intensity").entries
    assert np.max(np.abs(np.sum(linalg.intensity_exp(q, 1e5), axis=0) - 1.0)) <= 1e-10
    with pytest.raises(ValueError, match="lost column mass .* over 15 squarings"):
        linalg.intensity_exp(q, 1e6)


def test_intensity_exp_leaves_squaring_roundoff_half_the_budget():
    # lam t = 1.8e6 takes 12 squarings; a series run to a tail of abs_tol / 2^12 left
    # roundoff too little room, and the column mass lost read 1.019e-10
    q = build_ladder_markov(LadderParams(18.0, 1.0, 0.0), 3, "intensity").entries
    p = linalg.intensity_exp(q, 3000.0)
    assert np.max(np.abs(p - scipy.linalg.expm(q.dense() * 3000.0))) <= 1e-9
    assert np.max(np.abs(p.sum(axis=0) - 1.0)) <= DEFAULT_TOL.abs_tol
    assert p.min() >= 0.0


def test_intensity_exp_squares_a_short_horizon_down_to_rate_one():
    # lam t = 16 is squared 4 times to lam t / 2^4 = 1, though far below 500; a zero
    # tolerance refuses the result and the message names the count
    q = np.array([[-1.0, 1.0], [1.0, -1.0]])
    count = r"(truncated after \d+ terms and|lost column mass .* over) 4 squarings"
    with pytest.raises(ValueError, match=count):
        linalg.intensity_exp(q, 16.0, Tolerance(abs_tol=0.0))


def test_empty_matrix_has_an_empty_spectrum_and_semigroup():
    assert linalg.intensity_exp(np.zeros((0, 0)), 1.0).shape == (0, 0)
    assert linalg.symmetric_eigenvalues(np.zeros((0, 0))).shape == (0,)


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


_OVERFLOWING_HORIZON = """
import numpy as np
from lattice_markov import linalg
try:
    linalg.intensity_exp(np.array([[-1e200, 1e200], [1e200, -1e200]]), 1e200)
except ValueError as exc:
    print(exc)
"""


def test_intensity_exp_rejects_rate_times_time_that_overflows():
    # in a child process, so that a series that never starts fails by timeout
    # instead of hanging the suite
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    child = subprocess.run([sys.executable, "-c", _OVERFLOWING_HORIZON], capture_output=True,
                           text=True, timeout=30, env=env)
    assert child.returncode == 0
    assert child.stdout == "rate 1e+200 times time 1e+200 overflows float64\n"


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
    got = linalg._blocks(hamiltonian(ChainSpec(n, L)).entries)
    assert sorted(b.tolist() for b in got) == _digit_sectors(n, L)


@pytest.mark.parametrize("abc", [(16.0, 0.0, 0.0), (18.0, 1.0, 0.0)])
@pytest.mark.parametrize("L", [3, 4])
@pytest.mark.parametrize("kind", ["transition", "intensity"])
def test_ladder_chain_is_one_block(abc, L, kind):
    got = linalg._blocks(build_ladder_markov(LadderParams(*abc), L, kind).entries)
    assert len(got) == 1 and np.array_equal(got[0], np.arange(4 ** L))


@pytest.mark.parametrize("n,L", [(1, 6), (1, 8), (1, 10), (2, 4), (2, 6), (3, 5)])
def test_blocked_eigenvalues_match_dense_eigvalsh(n, L):
    h = hamiltonian(ChainSpec(n, L)).matrix
    ref = np.linalg.eigvalsh(h)
    got = linalg.symmetric_eigenvalues(h)
    assert len(linalg._blocks(linalg.nonzero_entries(h))) == math.comb(L + n, n)
    assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def _dense_blocked_eigenvalues(m):
    """The dense route: each weak component of m's support gathered with np.ix_,
    symmetrised as 0.5 (B + B^T) and solved with eigvalsh."""
    count, labels = connected_components(scipy.sparse.csr_array(m != 0), connection="weak")
    parts = [np.linalg.eigvalsh(0.5 * (b + b.T)) for b in
             (m[np.ix_(i, i)] for i in (np.flatnonzero(labels == k) for k in range(count)))]
    return np.sort(np.concatenate([np.empty(0)] + parts))


@pytest.mark.parametrize("family,args,kind", [
    ("an", (1, 6), "H"), ("an", (1, 10), "H"), ("an", (2, 4), "H"), ("an", (2, 6), "H"),
    ("an", (3, 5), "H"), ("an", (1, 8), "transition"), ("an", (2, 5), "intensity"),
    ("ladder", ((16.0, 0.0, 0.0), 3), "transition"), ("ladder", ((18.0, 1.0, 0.0), 4), "intensity")])
def test_blocked_eigenvalues_equal_the_dense_route_bit_for_bit(family, args, kind):
    if family == "ladder":
        held = build_ladder_markov(LadderParams(*args[0]), args[1], kind)
    else:
        spec = ChainSpec(*args)
        held = hamiltonian(spec) if kind == "H" else build_an_markov(spec, kind)
    got = linalg.symmetric_eigenvalues(held.entries)
    assert got.tobytes() == _dense_blocked_eigenvalues(held.entries.dense()).tobytes()


@settings(max_examples=150, deadline=None)
@given(SPARSE_MATRIX, st.data())
def test_gathered_block_is_the_dense_submatrix(m, data):
    index = np.flatnonzero(data.draw(hnp.arrays(bool, len(m))))
    assume(len(index))
    [(members, got)] = linalg._stacks(linalg.nonzero_entries(m), [index])
    assert members.tolist() == [index.tolist()]
    assert got.shape == (1, len(index), len(index))
    assert np.array_equal(got[0], m[np.ix_(index, index)])


def _check_stacks(e, blocks, cap):
    """Every block comes once, as m[np.ix_(b, b)], in stacks of one size that go by
    size, then in the given order, and hold at most cap entries unless one block."""
    m, seen = e.dense(), []
    for members, stack in linalg._stacks(e, blocks):
        count, size = members.shape
        assert stack.shape == (count, size, size) and stack.flags.writeable
        assert count == 1 or count * size * size <= cap
        for b, block in zip(members, stack):
            assert np.array_equal(block, m[np.ix_(b, b)])
            seen.append(b.tolist())
    by_size = sorted(range(len(blocks)), key=lambda k: len(blocks[k]))
    assert seen == [blocks[k].tolist() for k in by_size]


@settings(max_examples=150, deadline=None)
@given(SPARSE_MATRIX, st.data())
def test_stacks_are_the_dense_submatrices(m, data):
    # disjoint blocks of repeated sizes, in any order, with some states on none
    order = data.draw(st.permutations(range(len(m))), label="order")
    cuts = data.draw(st.sets(st.integers(0, len(m))), label="cuts") | {0, len(m)}
    blocks = [np.array(order[a:b], dtype=np.intp)
              for a, b in itertools.pairwise(sorted(cuts)) if data.draw(st.booleans())]
    cap = data.draw(st.sampled_from([1, 4, 9, 30, linalg._STACK_ENTRIES]), label="cap")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_STACK_ENTRIES", cap)
        _check_stacks(linalg.nonzero_entries(m), blocks, cap)


def test_a_block_above_the_stack_cap_goes_alone():
    # 1025^2 entries exceed the cap of 2^20; the three blocks of 300 fit in one stack
    rng = np.random.default_rng(3)
    sizes = [300, 1025, 5, 300, 1025, 300, 5]
    blocks = np.split(rng.permutation(sum(sizes)), np.cumsum(sizes)[:-1])
    dim = sum(sizes)
    rows, cols = rng.integers(0, dim, 60_000), rng.integers(0, dim, 60_000)
    e = linalg._merged(cols * dim + rows, rng.normal(size=60_000), dim)
    _check_stacks(e, blocks, linalg._STACK_ENTRIES)
    assert [members.shape for members, _ in linalg._stacks(e, blocks)] == [
        (2, 5), (3, 300), (1, 1025), (1, 1025)]


def _per_block_semigroup(q, t):
    """The one-block-at-a-time route: each block of q gathered with np.ix_ and
    uniformized alone, at its own rate."""
    result = np.zeros_like(q)
    for b in linalg._blocks(linalg.nonzero_entries(q)):
        block = q[np.ix_(b, b)]
        lam = float(np.max(np.abs(np.diagonal(block))))
        result[np.ix_(b, b)] = linalg._uniformized(block[None].copy(), lam, t, DEFAULT_TOL)[0]
    return result


@pytest.mark.parametrize("family,args", [
    ("an", (1, 6)), ("an", (1, 9)), ("an", (2, 4)), ("an", (2, 5)), ("an", (3, 4)),
    ("ladder", ((16.0, 0.0, 0.0), 3)), ("ladder", ((18.0, 1.0, 0.0), 2))])
@pytest.mark.parametrize("t", [0.0, 0.001, 0.7, 30.0])
def test_stacked_semigroup_equals_the_per_block_route_bit_for_bit(family, args, t):
    q = (build_ladder_markov(LadderParams(*args[0]), args[1], "intensity") if family == "ladder"
         else build_an_markov(ChainSpec(*args), "intensity")).entries
    got = linalg.intensity_exp(q, t)
    assert got.tobytes() == _per_block_semigroup(q.dense(), t).tobytes()


@pytest.mark.parametrize("t", [0.3, 40.0])
def test_a_stack_splits_by_rate(t):
    # three blocks of size 2, two at rate 2 and one at rate 3, and a block of size 3
    q = scipy.linalg.block_diag([[-1.0, 2.0], [1.0, -2.0]], [[-3.0, 3.0], [3.0, -3.0]],
                                [[-2.0, 1.0], [2.0, -1.0]], [[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0],
                                                             [0.0, 1.0, -1.0]])
    got = linalg.intensity_exp(q, t)
    assert got.tobytes() == _per_block_semigroup(q, t).tobytes()
    assert np.max(np.abs(got - scipy.linalg.expm(q * t))) <= 1e-9


# lam t from 0.01 to 1e4: A_n (1, 6) has lam = 10, (2, 4) 9 and (1, 9) 16; the ladder
# chain (18, 1, 0) is one block with lam = 300 at L = 2 and 600 at L = 3
@pytest.mark.parametrize("n,L,t", [(1, 6, 0.8), (2, 4, 0.7), (1, 9, 1.0),
                                   (1, 6, 0.001), (1, 6, 0.1), (1, 6, 1.6), (2, 4, 30.0),
                                   (1, 6, 100.0), (1, 6, 1000.0),
                                   ("ladder", 2, 0.1), ("ladder", 3, 5.0)])
def test_blocked_intensity_exp_matches_scipy_expm(n, L, t):
    q = (build_ladder_markov(LadderParams(18.0, 1.0, 0.0), L, "intensity") if n == "ladder"
         else build_an_markov(ChainSpec(n, L), "intensity")).matrix
    assert np.max(np.abs(linalg.intensity_exp(q, t) - scipy.linalg.expm(q * t))) <= 1e-9


def test_blocks_need_not_be_contiguous():
    q = build_an_markov(ChainSpec(2, 4), "intensity").matrix
    perm = np.random.default_rng(7).permutation(len(q))
    qp = q[np.ix_(perm, perm)]
    blocks = linalg._blocks(linalg.nonzero_entries(qp))
    assert len(blocks) == 15 and any(np.any(np.diff(b) > 1) for b in blocks)
    assert sorted(np.sort(perm[b]).tolist() for b in blocks) == _digit_sectors(2, 4)
    got = linalg.intensity_exp(qp, 0.7)
    assert np.max(np.abs(got - scipy.linalg.expm(qp * 0.7))) <= 1e-9
    h = hamiltonian(ChainSpec(2, 4)).matrix[np.ix_(perm, perm)]
    ref = np.linalg.eigvalsh(h)
    assert np.max(np.abs(linalg.symmetric_eigenvalues(h) - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("kind", ["transition", "intensity"])
@pytest.mark.parametrize("family,args", [("an", (1, 4)), ("an", (2, 3)), ("an", (3, 3)),
                                         ("ladder", ((16.0, 0.0, 0.0), 2)),
                                         ("ladder", ((16.0, 0.0, 0.0), 3)),
                                         ("ladder", ((18.0, 1.0, 0.0), 2)),
                                         ("ladder", ((18.0, 1.0, 0.0), 3))])
def test_closed_sets_of_a_symmetric_chain_are_its_blocks(family, args, kind):
    if family == "an":
        chain = build_an_markov(ChainSpec(*args), kind)
    else:
        chain = build_ladder_markov(LadderParams(*args[0]), args[1], kind)
    # every component of a symmetric chain is closed
    assert np.array_equal(chain.matrix, chain.matrix.T)
    assert closed_sets(chain).closed_sets == [(b + 1).tolist() for b in linalg._blocks(chain.entries)]


def test_strongly_connected_components_match_mutual_reachability():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(0, 20))
        adj = rng.random((n, n)) < rng.uniform(0.0, 0.3)
        reach = adj | np.eye(n, dtype=bool)  # oracle: transitive closure by squaring
        for _ in range(max(n, 1).bit_length()):
            reach = (reach.astype(int) @ reach.astype(int)) > 0
        expected = {tuple(np.flatnonzero(row)) for row in reach & reach.T}
        comps = linalg._strongly_connected_components(n, *np.nonzero(adj))
        assert sorted(tuple(sorted(c)) for c in comps) == sorted(expected)


def _symmetric_support(n, pairs):
    """Entries (rows, cols) sorted by column of the symmetric support joining each pair."""
    keys = np.unique([c * n + r for i, j in pairs for r, c in ((i, j), (j, i))]).astype(np.intp)
    cols, rows = np.divmod(keys, max(n, 1))
    return rows, cols


# up to 30 nodes and few edges, so that isolated nodes, chains and cycles all occur
SYMMETRIC_SUPPORT = st.integers(0, 30).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n) if n else st.just([])))


@settings(max_examples=200, deadline=None)
@given(SYMMETRIC_SUPPORT)
def test_components_are_the_connected_components(support):
    n, pairs = support
    rows, cols = _symmetric_support(n, pairs)
    blocks = linalg._components(n, rows, cols)
    assert all(b.dtype == np.intp for b in blocks)
    got = [b.tolist() for b in blocks]
    graph = scipy.sparse.csr_array((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    for connection in ("weak", "strong"):
        count, labels = connected_components(graph, connection=connection)
        assert got == sorted(np.flatnonzero(labels == k).tolist() for k in range(count))
    tarjan = linalg._strongly_connected_components(n, cols, rows)
    assert got == sorted(sorted(c) for c in tarjan)


@settings(max_examples=200, deadline=None)
@given(SYMMETRIC_SUPPORT)
def test_label_rounds_meet_their_documented_bound(support):
    """After r rounds every label is at most the least node within distance r, and
    never below its component's least node; the first round that changes nothing is
    the last, within diameter + 1 rounds."""
    n, pairs = support
    rows, cols = _symmetric_support(n, pairs)
    rounds = [label.copy() for label in linalg._label_rounds(n, rows, cols)]
    graph = scipy.sparse.csr_array((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    dist = scipy.sparse.csgraph.shortest_path(graph, unweighted=True)
    nodes = np.broadcast_to(np.arange(n, dtype=float), (n, n))
    least = np.where(np.isfinite(dist), nodes, np.inf).min(axis=1, initial=np.inf)
    for r, label in enumerate(rounds, start=1):
        assert np.all(label <= np.where(dist <= r, nodes, np.inf).min(axis=1, initial=np.inf))
        assert np.all(label >= least)
    assert np.array_equal(rounds[-1], least)
    assert all(not np.array_equal(a, b) for a, b in zip(rounds[:-2], rounds[1:-1]))
    assert len(rounds) == 1 or np.array_equal(rounds[-1], rounds[-2])
    diameter = dist[np.isfinite(dist)].max(initial=0.0)
    assert len(rounds) <= diameter + 1 <= max(n, 1)


@pytest.mark.parametrize("shape", ["path", "cycle"])
@pytest.mark.parametrize("numbering", ["in_order", "random"])
def test_components_of_the_widest_graphs(shape, numbering):
    n = 4096
    order = np.arange(n) if numbering == "in_order" else np.random.default_rng(5).permutation(n)
    pairs = list(zip(order[:-1].tolist(), order[1:].tolist()))
    if shape == "cycle":
        pairs.append((int(order[-1]), int(order[0])))
    rows, cols = _symmetric_support(n, pairs)
    rounds = sum(1 for _ in linalg._label_rounds(n, rows, cols))
    assert rounds <= (n - 1 if shape == "path" else n // 2) + 1
    assert rounds <= 2 * math.log2(n)  # the roots are hooked too: 9 for the random path
    blocks = linalg._components(n, rows, cols)
    assert len(blocks) == 1 and np.array_equal(blocks[0], np.arange(n))
    # cut in two: the halves are the components
    cut = pairs[:n // 2] + pairs[n // 2 + 1:(n - 1)]  # a cycle loses its closing pair too
    halves = linalg._components(n, *_symmetric_support(n, cut))
    assert sorted(b.tolist() for b in halves) == sorted(
        np.sort(part).tolist() for part in (order[:n // 2 + 1], order[n // 2 + 1:]))


def test_one_way_rates_join_their_states():
    # 1 -> 2 -> 3 at rates 1 and 2, 4 <-> 5: no rate leads back to state 1
    q = np.zeros((5, 5))
    q[1, 0], q[2, 1] = 1.0, 2.0
    q[3, 4] = q[4, 3] = 0.5
    q -= np.diag(q.sum(axis=0))
    for m in (q, q.T):
        assert [b.tolist() for b in linalg._blocks(linalg.nonzero_entries(m))] == [[0, 1, 2], [3, 4]]
    assert np.max(np.abs(linalg.intensity_exp(q, 1.2) - scipy.linalg.expm(q * 1.2))) <= 1e-9


def test_tiny_coupling_keeps_blocks_joined():
    m = np.zeros((4, 4))
    m[:2, :2] = [[0.0, 1.0], [1.0, 0.0]]
    m[2:, 2:] = [[0.0, 2.0], [2.0, 0.0]]
    assert [b.tolist() for b in linalg._blocks(linalg.nonzero_entries(m))] == [[0, 1], [2, 3]]
    m[1, 2] = m[2, 1] = 1e-300
    assert [b.tolist() for b in linalg._blocks(linalg.nonzero_entries(m))] == [[0, 1, 2, 3]]
    assert np.allclose(linalg.symmetric_eigenvalues(m), [-2.0, -1.0, 1.0, 2.0], atol=1e-15)
    q = m - np.diag(m.sum(axis=0))
    assert np.max(np.abs(linalg.intensity_exp(q, 1.5) - scipy.linalg.expm(q * 1.5))) <= 1e-9


def test_eigen_blocks_come_from_the_symmetrised_support(monkeypatch):
    # the pair +-1e-12 passes the symmetry test and cancels exactly in 0.5 (A + A^T),
    # so the solve splits {1, 2} from {3, 4} where A's own support joins them
    m = np.array([[2.0, 1.0, 0.0, 0.0],
                  [1.0, 3.0, 1e-12, 0.0],
                  [0.0, -1e-12, 1.0, 0.5],
                  [0.0, 0.0, 0.5, 4.0]])
    e = linalg.nonzero_entries(m)
    assert [b.tolist() for b in linalg._blocks(e)] == [[0, 1, 2, 3]]
    merged, stacks = linalg._merged, linalg._stacks
    merges, blocks = [], []
    monkeypatch.setattr(linalg, "_merged", lambda *args: merges.append(1) or merged(*args))
    monkeypatch.setattr(linalg, "_stacks", lambda e, b: blocks.extend(b) or stacks(e, b))
    got = linalg.symmetric_eigenvalues(e)
    assert len(merges) == 2  # the symmetry defect and 0.5 (A + A^T)
    assert [b.tolist() for b in blocks] == [[0, 1], [2, 3]]
    assert np.max(np.abs(got - np.linalg.eigvalsh(0.5 * (m + m.T)))) <= 1e-14


@pytest.mark.parametrize("entry", [(0, 2), (2, 0)])
def test_one_sided_entry_is_rejected_as_asymmetric(entry):
    m = np.diag([1.0, 2.0, 3.0])
    m[entry] = 0.5  # joins states 1 and 3 into one block, with no mirror entry
    with pytest.raises(ValueError) as blocked:
        linalg.symmetric_eigenvalues(m)
    defect = linalg.symmetry_defect(m)  # the test on the dense matrix as one block
    assert defect > max(DEFAULT_TOL.abs_tol, REL_TOL * np.linalg.norm(m))
    assert str(blocked.value) == f"matrix is not symmetric within tolerance (defect {defect:.3e})" \
        == "matrix is not symmetric within tolerance (defect 7.071e-01)"


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
    # first block: lam = 400.01, lam * t = 1200.03, so ten squarings (two would bring it
    # below 500), and a slow mode (rate ~0.01) that has not mixed by t = 3; second
    # block: lam * t = 30, five squarings
    fast = np.array([[-400.0, 400.0, 0.0], [400.0, -400.01, 0.01], [0.0, 0.01, -0.01]])
    slow = 10.0 * np.array([[-1.0, 1.0], [1.0, -1.0]])
    t = 3.0
    q = scipy.linalg.block_diag(fast, slow)
    got = linalg.intensity_exp(q, t)
    assert np.max(np.abs(got - scipy.linalg.expm(q * t))) <= 1e-9
    assert np.array_equal(got[:3, 3:], np.zeros((3, 2))) and got.min() >= 0.0
    assert got[2, 2] > 0.9  # the slow mode is still far from the uniform 1/3


def test_one_block_matrix_is_not_copied():
    # a ladder chain is one block: its eigenvalues and semigroup need no copy of it
    q = build_ladder_markov(LadderParams(18.0, 1.0, 0.0), 5, "intensity").matrix
    assert len(linalg._blocks(linalg.nonzero_entries(q))) == 1
    dense_bytes = q.nbytes  # 8 MiB at dim 1024
    peaks = []
    for run in (lambda: linalg.symmetric_eigenvalues(q), lambda: linalg.intensity_exp(q, 0.05)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # eigenvalues: one dim^2 temporary at a time (a copy of q would add one more);
    # semigroup: kernel, power, series and one product (a copy in and out adds two)
    assert peaks[0] < 1.5 * dense_bytes
    assert peaks[1] < 4.5 * dense_bytes


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


@pytest.mark.parametrize("field", ["abs_tol"])
def test_tolerance_rejects_nan(field):
    with pytest.raises(ValueError, match="non-negative"):
        Tolerance(**{field: math.nan})


@pytest.mark.parametrize("field", ["abs_tol"])
@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_tolerance_rejects_infinity(field, value):
    with pytest.raises(ValueError, match="tolerances must be finite"):
        Tolerance(**{field: value})


def test_load_matrix_json_rejects_non_finite_entries(tmp_path):
    json_path, csv_path = tmp_path / "m.json", tmp_path / "m.csv"
    json_path.write_text('{"rows": 1, "cols": 2, "entries": [NaN, Infinity]}')
    csv_path.write_text("nan,inf\n")
    for load, path in [(linalg.load_matrix_json, json_path), (linalg.load_matrix_csv, csv_path)]:
        with pytest.raises(ValueError, match="non-finite"):
            load(path)
