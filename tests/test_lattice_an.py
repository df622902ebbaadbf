import functools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from lattice_markov import lattice_an as lat
from lattice_markov.an_algebra import fundamental_rep
from lattice_markov.braid_tl import qybe_residual, tl_from_an
from lattice_markov.linalg import (check_dense_size, commutator, embedded_sum, frobenius_norm,
                                   nonzero_entries)

SWAP4 = np.array([[1, 0, 0, 0],
                  [0, 0, 1, 0],
                  [0, 1, 0, 0],
                  [0, 0, 0, 1]], dtype=float)


def test_two_site_density_rank_one():
    h = lat.two_site_h(1)
    assert np.array_equal(h, 2.0 * SWAP4)
    assert np.allclose(np.sort(np.linalg.eigvalsh(h)), [-2.0, 2.0, 2.0, 2.0])


def test_two_site_density_braid_rank_two():
    assert qybe_residual(lat.two_site_h(2)) < 1e-11


def test_chain_spec_guard():
    check_dense_size(lat.ChainSpec(1, 12).dim)  # 4096 exactly
    with pytest.raises(ValueError):
        check_dense_size(lat.ChainSpec(1, 13).dim)
    with pytest.raises(ValueError):
        lat.ChainSpec(0, 3)
    with pytest.raises(ValueError):
        lat.ChainSpec(1, 1)


def test_hamiltonian_two_sites_is_single_term():
    h = lat.hamiltonian(lat.ChainSpec(1, 2))
    assert np.array_equal(h.matrix, 2.0 * SWAP4)


def test_hamiltonian_three_sites_structure():
    h = lat.hamiltonian(lat.ChainSpec(1, 3)).matrix
    assert h.shape == (8, 8)
    assert np.array_equal(h, h.T)
    assert np.array_equal(h.sum(axis=1), np.full(8, 4.0))


def test_hamiltonian_largest_eigenvalue():
    spec = lat.ChainSpec(1, 4)
    w = lat.chain_spectrum(lat.hamiltonian(spec))
    assert w[-1] == pytest.approx(6.0, abs=1e-10)  # (L-1)(n+1)


def _global_generators(spec):
    """Dense single-site sums of every algebra generator: the oracle for the
    generators that symmetry_residual builds as entries."""
    return [embedded_sum(g, spec.L, spec.local_dim)
            for g in fundamental_rep(spec.n).all_generators()]


def test_hamiltonian_is_a_frozen_value_with_a_read_only_matrix():
    h = lat.hamiltonian(lat.ChainSpec(2, 3))
    assert h.matrix is h.matrix  # scattered once
    assert np.array_equal(h.matrix, h.entries.dense())
    with pytest.raises(ValueError, match="read-only"):
        h.matrix[0, 1] += 1.0
    with pytest.raises(ValueError, match="read-only"):
        h.entries.values[0] = 0.0
    with pytest.raises(AttributeError):
        h.entries = nonzero_entries(np.eye(27))


def test_global_generators_rank_one():
    spec = lat.ChainSpec(1, 2)
    gens = _global_generators(spec)
    # order: cartan, then raising, then lowering
    assert np.array_equal(gens[0], np.diag([2.0, 0.0, 0.0, -2.0]))
    raising = gens[1]
    assert np.array_equal(raising[:, 0], np.zeros(4))  # annihilates state 1


def test_global_generator_count():
    gens = _global_generators(lat.ChainSpec(2, 2))
    assert len(gens) == 8  # 2 cartan + 3 raising + 3 lowering


@pytest.mark.parametrize("n,L", [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3)])
def test_symmetry_residual(n, L):
    h = lat.hamiltonian(lat.ChainSpec(n, L))
    assert lat.symmetry_residual(h) < 1e-10


def test_symmetry_negative_control():
    h = lat.LatticeHamiltonian(spec=lat.ChainSpec(1, 2),
                               entries=nonzero_entries(np.diag([1.0, 2.0, 3.0, 4.0])))
    assert lat.symmetry_residual(h) > 1.0


def test_symmetry_residual_equals_per_generator_loop():
    spec = lat.ChainSpec(2, 3)
    m = lat.hamiltonian(spec).matrix.copy()
    m[0, 1] += 0.25  # one off-diagonal pair breaks the symmetry
    m[1, 0] += 0.25
    h = lat.LatticeHamiltonian(spec, nonzero_entries(m))
    expected = max(frobenius_norm(commutator(m, g)) for g in _global_generators(spec))
    assert expected > 0.1
    assert lat.symmetry_residual(h) == expected


def _scipy_generator(g, L):
    """A one-site sum built with scipy.sparse.kron: the independent route."""
    d = len(g)
    return sum(scipy.sparse.kron(scipy.sparse.kron(scipy.sparse.identity(d ** (i - 1)), g),
                                 scipy.sparse.identity(d ** (L - i)), format="csr")
               for i in range(1, L + 1))


@pytest.mark.parametrize("n,L", [(1, 8), (2, 5), (3, 4)])
def test_symmetry_residual_of_perturbed_h_matches_scipy_sparse(n, L):
    spec = lat.ChainSpec(n, L)
    m = lat.hamiltonian(spec).matrix.copy()
    rng = np.random.default_rng(10 * n + L)
    for _ in range(3):  # symmetric pairs with values that products round
        i, j = rng.integers(0, len(m), size=2)
        m[i, j] += 0.1
        m[j, i] += 0.1
    m[3, 5] -= 1.0 / 3.0  # and one asymmetric entry
    h = lat.LatticeHamiltonian(spec, nonzero_entries(m))
    ham = scipy.sparse.csr_array(m)
    expected = max(scipy.sparse.linalg.norm(ham @ g - g @ ham)
                   for g in map(functools.partial(_scipy_generator, L=L),
                                fundamental_rep(n).all_generators()))
    assert expected > 0.1
    assert lat.symmetry_residual(h) == pytest.approx(expected, rel=1e-12)


def test_symmetry_residual_refuses_a_matrix_of_the_wrong_size():
    # the dense commutator refused it; now no Hamiltonian of the wrong size exists
    with pytest.raises(ValueError, match="entries of dimension 4 do not match the 8 states"):
        lat.symmetry_residual(lat.LatticeHamiltonian(lat.ChainSpec(1, 3), nonzero_entries(np.eye(4))))
    with pytest.raises(ValueError, match="square"):
        lat.LatticeHamiltonian(lat.ChainSpec(1, 2), nonzero_entries(np.ones((4, 3))))
    assert lat.LatticeHamiltonian(lat.ChainSpec(1, 2), nonzero_entries(np.eye(4))).spec.dim == 4


def test_symmetry_residual_builds_no_dense_operator():
    """hamiltonian, symmetry_residual and verify_an's chain sum rule read entries
    only, so together they stay below one dense H."""
    spec = lat.ChainSpec(3, 5)  # dim 1024, 15 generators
    tracemalloc.start()
    try:
        h = lat.hamiltonian(spec)
        residual = lat.symmetry_residual(h)
        rows, cols, values, dim = h.entries
        row_sums, col_sums = np.bincount(rows, values, dim), np.bincount(cols, values, dim)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert residual == 0.0
    assert np.all(row_sums == 16.0) and np.all(col_sums == 16.0)  # (L-1)(n+1)
    assert "matrix" not in vars(h)  # nothing scattered it
    # below one dim^2 of float64 (8 MiB): a dense generator or H alone would fill it
    assert peak < h.matrix.nbytes


def test_chain_spectrum_against_lapack_oracle():
    h = lat.hamiltonian(lat.ChainSpec(1, 3))
    w = lat.chain_spectrum(h)
    w_ref = np.linalg.eigvalsh(h.matrix)
    assert np.allclose(w, w_ref, atol=1e-10)
    assert np.sum(np.abs(w - 4.0) < 1e-9) >= 4  # symmetric states
    assert w.sum() == pytest.approx(np.trace(h.matrix), abs=1e-9)


@pytest.mark.parametrize("n,L", [(1, 4), (1, 6), (1, 8), (2, 4), (2, 5), (3, 4)])
def test_spectrum_against_interchange_process_oracle(n, L):
    """Analytic oracle independent of LAPACK: the top eigenvalue (L-1)(n+1)
    lives on the C(L+n, n) fully symmetric states, and the gap below it is
    the interchange-process spectral gap 2(n+1)(1 - cos(pi/L)) (Caputo,
    Liggett & Richthammer, J. AMS 23 (2010) 831-851)."""
    w = lat.chain_spectrum(lat.hamiltonian(lat.ChainSpec(n, L)))
    top = (L - 1) * (n + 1)
    atol = 1e-9 * top
    at_top = np.abs(w - top) <= atol
    assert np.count_nonzero(at_top) == math.comb(L + n, n)
    gap = 2 * (n + 1) * (1 - math.cos(math.pi / L))
    assert top - w[~at_top].max() == pytest.approx(gap, abs=atol)


def test_spectrum_trace_two_sites():
    w = lat.chain_spectrum(lat.hamiltonian(lat.ChainSpec(1, 2)))
    assert w.sum() == pytest.approx(4.0, abs=1e-10)


def test_spectrum_invariant_under_local_basis_change():
    spec = lat.ChainSpec(1, 3)
    h = lat.hamiltonian(spec).matrix
    rng = np.random.default_rng(21)
    local = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
    big = functools.reduce(np.kron, [local] * 3)
    conj = big @ h @ np.linalg.inv(big)
    w_ref = lat.chain_spectrum(lat.hamiltonian(spec))
    w_conj = np.sort(np.linalg.eigvals(conj).real)
    assert np.max(np.abs(np.linalg.eigvals(conj).imag)) < 1e-8
    assert np.allclose(w_conj, w_ref, atol=1e-8)


@pytest.mark.parametrize("n,L", [(1, 3), (2, 2), (2, 3)])
def test_tl_decomposition_sign(n, L):
    plus, minus = lat.tl_decomposition_residuals(n, L)
    assert minus < 1e-12
    assert plus > 1.0


@pytest.mark.parametrize("n,L", [(1, 6), (2, 4), (3, 3)])
def test_tl_decomposition_equals_the_dense_sums(n, L):
    spec = lat.ChainSpec(n, L)
    h = lat.hamiltonian(spec).matrix
    e_sum = embedded_sum(tl_from_an(n).matrix, L, spec.local_dim)
    ident = np.eye(spec.dim)
    plus = frobenius_norm(h - ((n + 1) * e_sum + (n + 1) * (L - 1) * ident))
    minus = frobenius_norm(h - ((n + 1) * (L - 1) * ident - (n + 1) * e_sum))
    assert lat.tl_decomposition_residuals(n, L) == (plus, minus)


def test_tl_decomposition_traced_peak_below_one_dense_matrix():
    tracemalloc.start()
    try:
        plus, minus = lat.tl_decomposition_residuals(1, 10)  # dim 1024
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert minus == 0.0 and plus > 1.0
    assert peak < 1024 * 1024 * 8  # one dense float64 matrix: 8 MiB


def test_hamiltonian_symmetric_assembly_exact():
    for n, L in [(1, 3), (2, 2), (3, 2)]:
        m = lat.hamiltonian(lat.ChainSpec(n, L)).matrix
        assert np.array_equal(m, m.T)
