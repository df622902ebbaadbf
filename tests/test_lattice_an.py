import functools
import math

import numpy as np
import pytest

from lattice_markov import lattice_an as lat
from lattice_markov.braid_tl import qybe_residual
from lattice_markov.linalg import commutator, frobenius_norm

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
    lat.ChainSpec(1, 12).guard_dense()  # 4096 exactly
    with pytest.raises(ValueError):
        lat.ChainSpec(1, 13).guard_dense()
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


def test_global_generators_rank_one():
    spec = lat.ChainSpec(1, 2)
    gens = lat.global_generators(spec)
    # order: cartan, then raising, then lowering
    assert np.array_equal(gens[0], np.diag([2.0, 0.0, 0.0, -2.0]))
    raising = gens[1]
    assert np.array_equal(raising[:, 0], np.zeros(4))  # annihilates state 1


def test_global_generator_count():
    gens = lat.global_generators(lat.ChainSpec(2, 2))
    assert len(gens) == 8  # 2 cartan + 3 raising + 3 lowering


@pytest.mark.parametrize("n,L", [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3)])
def test_symmetry_residual(n, L):
    h = lat.hamiltonian(lat.ChainSpec(n, L))
    assert lat.symmetry_residual(h) < 1e-10


def test_symmetry_negative_control():
    h = lat.LatticeHamiltonian(spec=lat.ChainSpec(1, 2),
                               matrix=np.diag([1.0, 2.0, 3.0, 4.0]))
    assert lat.symmetry_residual(h) > 1.0


def test_symmetry_residual_equals_per_generator_loop():
    h = lat.hamiltonian(lat.ChainSpec(2, 3))
    h.matrix[0, 1] += 0.25  # one off-diagonal pair breaks the symmetry
    h.matrix[1, 0] += 0.25
    expected = max(frobenius_norm(commutator(h.matrix, g)) for g in lat.global_generators(h.spec))
    assert expected > 0.1
    assert lat.symmetry_residual(h) == expected


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


def test_hamiltonian_symmetric_assembly_exact():
    for n, L in [(1, 3), (2, 2), (3, 2)]:
        m = lat.hamiltonian(lat.ChainSpec(n, L)).matrix
        assert np.array_equal(m, m.T)
