import dataclasses
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lattice_markov import linalg
from lattice_markov import markov as mk
from lattice_markov import su2_ladder as lad
from lattice_markov.lattice_an import ChainSpec, chain_spectrum, hamiltonian
from lattice_markov.linalg import intensity_exp
from lattice_markov.reporting import Tolerance

from closed_reference import scipy_closed_sets

SWAP4 = np.array([[1, 0, 0, 0],
                  [0, 0, 1, 0],
                  [0, 1, 0, 0],
                  [0, 0, 0, 1]], dtype=float)


def test_encode_examples():
    spec = ChainSpec(1, 3)
    assert mk.encode((0, 0, 0), spec) == 1
    assert mk.encode((1, 1, 1), spec) == 8
    assert mk.encode((0, 0, 1), spec) == 2
    assert mk.decode(1, spec) == (0, 0, 0)


def test_encode_roundtrip_exhaustive():
    spec = ChainSpec(2, 3)
    for label in itertools.product(range(3), repeat=3):
        assert mk.decode(mk.encode(label, spec), spec) == label
    indices = sorted(mk.encode(label, spec) for label in itertools.product(range(3), repeat=3))
    assert indices == list(range(1, 28))


def test_encode_errors():
    spec = ChainSpec(1, 3)
    with pytest.raises(ValueError):
        mk.encode((0, 0), spec)
    with pytest.raises(ValueError):
        mk.encode((0, 0, 2), spec)
    with pytest.raises(ValueError):
        mk.decode(9, spec)


@pytest.mark.parametrize("spec", [ChainSpec(1, 3),
                                  mk.LadderSpec(L=2)],
                         ids=["an", "ladder"])
def test_encode_decode_take_whole_numbers_only(spec):
    label = mk.decode(3, spec)
    for index in (3.0, np.int64(3), np.float64(3.0)):
        assert repr(mk.decode(index, spec)) == repr(label)  # int digits, not floats
    labels = [label, np.asarray(label, dtype=float).tolist(),
              list(np.asarray(label, dtype=np.int64))]
    for same in labels:
        index = mk.encode(same, spec)
        assert index == 3 and type(index) is int
    for bad in (2.5, math.nan, math.inf, "3"):
        with pytest.raises(ValueError, match="state index must be a whole number"):
            mk.decode(bad, spec)
    if isinstance(spec, ChainSpec):
        for bad in ((0.5, 0, 0), (0, math.nan, 0), ("0", "1", "0")):
            with pytest.raises(ValueError, match="site value must be a whole number"):
                mk.encode(bad, spec)


def test_ladder_encoding_roundtrip():
    spec = mk.LadderSpec(L=2)
    labels = list(itertools.product(itertools.product((0, 1), repeat=2), repeat=2))
    indices = sorted(mk.encode(label, spec) for label in labels)
    assert indices == list(range(1, 17))
    for label in labels:
        assert mk.decode(mk.encode(label, spec), spec) == label
    # leg1 is the significant bit within a rung
    assert mk.encode(((0, 0), (0, 0)), spec) == 1
    assert mk.encode(((0, 0), (1, 0)), spec) == 3
    assert mk.encode(((1, 1), (1, 1)), spec) == 16


def test_transition_chain_minimal():
    chain = mk.build_an_markov(ChainSpec(1, 2), "transition")
    assert np.array_equal(chain.matrix, SWAP4)
    report = mk.validate(chain)
    assert report.passed
    assert report.info["row_normalized"] is True


def test_intensity_chain_minimal():
    chain = mk.build_an_markov(ChainSpec(1, 2), "intensity")
    expected = np.array([[0.0, 0.0, 0.0, 0.0],
                         [0.0, -2.0, 2.0, 0.0],
                         [0.0, 2.0, -2.0, 0.0],
                         [0.0, 0.0, 0.0, 0.0]])
    assert np.array_equal(chain.matrix, expected)
    assert mk.validate(chain).passed


@pytest.mark.parametrize("n,L", [(1, 3), (2, 3), (3, 2)])
def test_transition_chain_stochastic(n, L):
    chain = mk.build_an_markov(ChainSpec(n, L), "transition")
    m = chain.matrix
    assert np.max(np.abs(m.sum(axis=0) - 1.0)) < 1e-12
    assert m.min() >= 0.0
    assert m.max() <= 1.0
    assert np.array_equal(m, m.T)  # doubly stochastic


def test_validate_negative_control():
    # positive column sum
    bad = mk.MarkovChain.from_matrix(kind="intensity", spec=None,
                                     matrix=np.array([[-1.0, 1.0], [2.0, -1.0]]))
    assert not mk.validate(bad).passed
    # negative off-diagonal rate
    bad = mk.MarkovChain.from_matrix(kind="intensity", spec=None,
                                     matrix=np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert not mk.validate(bad).passed


def test_absorbing_states_examples():
    chain = mk.build_an_markov(ChainSpec(1, 3), "transition")
    assert mk.absorbing_states(chain) == [1, 8]
    chain = mk.build_an_markov(ChainSpec(2, 2), "transition")
    assert mk.absorbing_states(chain) == [1, 5, 9]
    # state 1 keeps its mass; the flow it receives from state 2 does not count
    chain = mk.MarkovChain.from_matrix(kind="transition", spec=None,
                                       matrix=[[1, .5, 0], [0, .5, 0], [0, 0, 1]])
    assert mk.absorbing_states(chain) == [1, 3]


def test_absorbing_states_agree_with_closed_sets():
    # gambler's ruin on three states: both ends absorb, the middle splits its mass
    ruin = mk.MarkovChain.from_matrix(kind="transition",
                                      matrix=[[1, .5, 0], [0, 0, 0], [0, .5, 1]])
    assert mk.absorbing_states(ruin) == mk.closed_sets(ruin).absorbing == [1, 3]
    # on valid transition matrices whose off-diagonal entries are 0 or >= 1e-3 a
    # unit diagonal and a closed singleton are the same thing
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(1, 13))
        m = rng.uniform(1e-3, 1.0 / n, size=(n, n)) * (rng.random((n, n)) < rng.random())
        m[:, rng.random(n) < 0.3] = 0.0  # some columns leave nothing
        np.fill_diagonal(m, 0.0)
        np.fill_diagonal(m, 1.0 - m.sum(axis=0))
        chain = mk.MarkovChain.from_matrix(kind="transition", matrix=m)
        assert mk.validate(chain).passed
        assert mk.absorbing_states(chain) == mk.closed_sets(chain).absorbing


def test_absorbing_states_and_closed_sets_agree_on_a_sub_tolerance_leak():
    # state 1 keeps all but 1e-11 of its mass: within the tolerance of 1e-10, above
    # the edge threshold of 1e-12, so the flow leaves it and only state 2 absorbs
    chain = mk.MarkovChain.from_matrix(kind="transition", matrix=[[1 - 1e-11, 0], [1e-11, 1]])
    assert mk.validate(chain).passed
    assert mk.absorbing_states(chain) == mk.closed_sets(chain).absorbing == [2]
    # below the threshold the entry is no edge, and both absorb
    chain = mk.MarkovChain.from_matrix(kind="transition", matrix=[[1 - 1e-13, 0], [1e-13, 1]])
    assert mk.absorbing_states(chain) == mk.closed_sets(chain).absorbing == [1, 2]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("L", [2, 3, 4])
def test_absorbing_formula_matches_detection(n, L):
    spec = ChainSpec(n, L)
    if spec.dim > 4096:
        pytest.skip("beyond dense guard")
    chain = mk.build_an_markov(spec, "transition")
    assert mk.absorbing_states(chain) == mk.absorbing_states_formula(spec)


def test_absorbing_formula_values():
    assert mk.absorbing_states_formula(ChainSpec(1, 3)) == [1, 8]
    assert mk.absorbing_states_formula(ChainSpec(1, 2)) == [1, 4]
    assert mk.absorbing_states_formula(ChainSpec(2, 2)) == [1, 5, 9]


def test_absorbing_states_encode_all_equal_labels():
    spec = ChainSpec(2, 3)
    expected = [mk.encode((l, l, l), spec) for l in range(3)]
    assert mk.absorbing_states_formula(spec) == expected


def test_closed_sets_chain():
    chain = mk.build_an_markov(ChainSpec(1, 3), "transition")
    analysis = mk.closed_sets(chain)
    assert analysis.reducible
    assert analysis.closed_sets == [[1], [2, 3, 5], [4, 6, 7], [8]]
    assert analysis.absorbing == [1, 8]


def test_from_matrix_refuses_a_non_square_matrix():
    with pytest.raises(ValueError, match="square"):
        mk.MarkovChain.from_matrix("transition", np.array([[.5, .5, 1.], [.5, .5, 0.]]))


def test_closed_sets_irreducible_two_state():
    chain = mk.MarkovChain.from_matrix(kind="transition", spec=None,
                                       matrix=np.array([[0.0, 1.0], [1.0, 0.0]]))
    analysis = mk.closed_sets(chain)
    assert not analysis.reducible
    assert analysis.closed_sets == [[1, 2]]


def test_closed_sets_identity_chain():
    chain = mk.MarkovChain.from_matrix(kind="transition", spec=None, matrix=np.eye(3))
    analysis = mk.closed_sets(chain)
    assert analysis.closed_sets == [[1], [2], [3]]
    assert analysis.absorbing == [1, 2, 3]


def test_closed_sets_against_reachability_oracle():
    # brute force: S is a minimal closed set iff it is the reach-set of each
    # of its members; compare against the condensation-sink route on random
    # sparse transition-like matrices
    rng = np.random.default_rng(2024)
    for _ in range(50):
        m = 12
        raw = (rng.random((m, m)) < 0.12).astype(float)
        col = raw.sum(axis=0)
        for j in range(m):
            if col[j] == 0:
                raw[j, j] = 1.0  # isolated state: absorbing
        p = raw / raw.sum(axis=0)
        chain = mk.MarkovChain.from_matrix(kind="transition", spec=None, matrix=p)
        analysis = mk.closed_sets(chain)
        got = analysis.closed_sets
        reach = (p.T > 1e-12) | np.eye(m, dtype=bool)  # reach[i, j]: i -> j possible
        for _ in range(m):
            reach = reach | (reach @ reach)
        # row s of the mutual-reachability matrix is the component of s
        components = {tuple(row) for row in (reach & reach.T)}
        assert analysis.reducible == (len(components) > 1)
        expected = []
        for s in range(m):
            members = sorted(int(t) + 1 for t in np.flatnonzero(reach[s]))
            if all(sorted(int(u) + 1 for u in np.flatnonzero(reach[t - 1])) == members
                   for t in members):
                if members not in expected:
                    expected.append(members)
        assert got == sorted(expected)
    empty = mk.MarkovChain.from_matrix(kind="transition", spec=None, matrix=np.zeros((0, 0)))
    assert mk.closed_sets(empty) == mk.ChainAnalysis([], [], False)


def test_particle_content_conservation():
    # interchange dynamics never connects states with different multisets
    for n in (1, 2):
        spec = ChainSpec(n, 3)
        chain = mk.build_an_markov(spec, "transition")
        for i in range(spec.dim):
            for j in range(spec.dim):
                if chain.matrix[i, j] != 0.0:
                    assert sorted(mk.decode(i + 1, spec)) == sorted(mk.decode(j + 1, spec))


def test_stationary_distribution_uniform_sector():
    q = mk.build_an_markov(ChainSpec(1, 3), "intensity")
    pi = mk.stationary_distribution(q, [2, 3, 5])
    expected = np.zeros(8)
    expected[[1, 2, 4]] = 1.0 / 3.0
    assert np.allclose(pi, expected, atol=1e-12)
    assert np.max(np.abs(q.matrix @ pi)) < 1e-10


def test_stationary_distribution_point_mass():
    q = mk.build_an_markov(ChainSpec(1, 3), "intensity")
    pi = mk.stationary_distribution(q, [1])
    assert pi[0] == 1.0
    assert pi.sum() == 1.0


def test_stationary_distribution_rank2_sector():
    spec = ChainSpec(2, 2)
    q = mk.build_an_markov(spec, "intensity")
    sector = [mk.encode((0, 1), spec), mk.encode((1, 0), spec)]
    pi = mk.stationary_distribution(q, sector)
    # independent oracle: least squares on the full system
    a = np.vstack([q.matrix, np.ones(9)])
    rhs = np.zeros(10); rhs[-1] = 1.0
    mask = np.zeros(9); mask[[s - 1 for s in sector]] = 1.0
    sol, *_ = np.linalg.lstsq(a[:, [s - 1 for s in sector]], rhs, rcond=None)
    assert np.allclose([pi[s - 1] for s in sector], sol, atol=1e-9)
    assert pi[sector[0] - 1] == pytest.approx(0.5, abs=1e-10)


def test_stationary_rejects_open_set():
    q = mk.build_an_markov(ChainSpec(1, 3), "intensity")
    with pytest.raises(ValueError):
        mk.stationary_distribution(q, [2, 3])  # leaks into 5


def test_stationary_checks_the_flow_out_of_the_set():
    """Closedness is about flow leaving the set: state 1 keeps what 2 and 3 send it."""
    q = mk.MarkovChain.from_matrix(kind="intensity", matrix=[[0.0, 1.0, 0.5],
                                                             [0.0, -2.0, 0.5],
                                                             [0.0, 1.0, -1.0]])
    assert mk.stationary_distribution(q, [1]).tolist() == [1.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="not closed: outgoing rate 1.0"):
        mk.stationary_distribution(q, [2, 3])


def test_stationary_rejects_degenerate_null_space():
    q = mk.MarkovChain.from_matrix(kind="intensity", spec=None, matrix=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        mk.stationary_distribution(q, [1, 2])
    # union of the closed sets {1} and {2, 3, 5}: a non-zero block with nullity 2
    q = mk.build_an_markov(ChainSpec(1, 3), "intensity")
    with pytest.raises(ValueError, match="null space dimension 2"):
        mk.stationary_distribution(q, [1, 2, 3, 5])


@pytest.mark.parametrize("members", [[2.9, 3.5, 5.2], [2, 3, 5.5], [2, 3, float("nan")],
                                     ["2", "3", "5"], ["10", "2"], [b"2", b"3", b"5"]])
def test_stationary_rejects_fractional_members(members):
    q = mk.build_an_markov(ChainSpec(1, 3), "intensity")
    with pytest.raises(ValueError, match="whole state numbers"):
        mk.stationary_distribution(q, members)


def test_stationary_accepts_whole_members_of_any_type():
    q = mk.build_an_markov(ChainSpec(1, 3), "intensity")
    ref = mk.stationary_distribution(q, [2, 3, 5])
    for members in ([2.0, 3.0, 5.0], [np.int64(2), np.int64(3), np.int64(5)], (5, 3.0, 2)):
        assert np.array_equal(mk.stationary_distribution(q, members), ref)


@pytest.mark.parametrize("members", [[0], [9], [8, 8], [2, 3, 5, 5]])
def test_stationary_rejects_members_outside_or_repeated(members):
    q = mk.build_an_markov(ChainSpec(1, 3), "intensity")
    with pytest.raises(ValueError, match=r"distinct states in 1\.\.8"):
        mk.stationary_distribution(q, members)


def test_every_closed_set_of_intensity_chain_is_uniform():
    for n, L in [(1, 3), (1, 4), (2, 3)]:
        q = mk.build_an_markov(ChainSpec(n, L), "intensity")
        for closed in mk.closed_sets(q).closed_sets:
            pi = mk.stationary_distribution(q, closed)
            uniform = 1.0 / len(closed)
            assert max(abs(pi[s - 1] - uniform) for s in closed) < 1e-10


def _non_reversible_q():
    """A 3-cycle with rates 1, 2 and 3 (law 6/11, 3/11, 2/11), a transient state that
    feeds it and a two-state set with rates 1 and 4 (law 4/5, 1/5)."""
    q = np.zeros((6, 6))
    for source, target, rate in [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0), (3, 0, 0.5),
                                 (4, 5, 1.0), (5, 4, 4.0)]:
        q[target, source] = rate
    np.fill_diagonal(q, -q.sum(axis=0))
    return mk.MarkovChain.from_matrix("intensity", q)


@pytest.mark.parametrize("chain", [
    mk.build_an_markov(ChainSpec(1, 6), "intensity"),
    mk.build_an_markov(ChainSpec(2, 4), "intensity"),
    mk.build_an_markov(ChainSpec(3, 3), "intensity"),
    mk.build_ladder_markov(mk.LadderParams(18.0, 1.0, 0.0), 3, "intensity"),
    mk.build_ladder_markov(mk.LadderParams(16.0, 0.0, 0.0), 2, "intensity"),
    _non_reversible_q()], ids=["an16", "an24", "an33", "ladder3", "ladder2", "cycle"])
def test_stacked_lu_laws_equal_the_svd_laws(chain):
    sinks = mk.closed_sets(chain).closed_sets
    laws = mk._sink_laws(chain, sinks)
    on_sets = np.zeros(chain.num_states, dtype=bool)
    for closed in sinks:
        index = np.array(closed) - 1
        null = scipy.linalg.null_space(chain.matrix[np.ix_(index, index)])  # by SVD
        assert null.shape == (len(closed), 1)
        assert np.max(np.abs(laws[index] - null[:, 0] / null[:, 0].sum())) <= 1e-15
        on_set = np.zeros(chain.num_states)
        on_set[index] = laws[index]
        assert np.array_equal(mk.stationary_distribution(chain, closed), on_set)
        on_sets[index] = True
    assert not laws[~on_sets].any()  # zero off the sets


def test_stationary_law_of_a_set_with_a_transient_member():
    q = _non_reversible_q()  # state 4 feeds the 3-cycle {1, 2, 3}
    pi = mk.stationary_distribution(q, [1, 2, 3, 4])
    assert np.max(np.abs(pi - [6 / 11, 3 / 11, 2 / 11, 0.0, 0.0, 0.0])) <= 1e-15
    assert pi[3:].tolist() == [0.0, 0.0, 0.0]


def _two_classes(rate):
    """Two 2-state classes, rates 1 and 2 in {1, 2} and 1 and 4 in {3, 4} (law 4/5,
    1/5), joined one way: state 2 feeds state 3 at the given rate."""
    q = np.zeros((4, 4))
    for source, target, r in [(0, 1, 1.0), (1, 0, 2.0), (2, 3, 1.0), (3, 2, 4.0),
                              (1, 2, rate)]:
        q[target, source] = r
    np.fill_diagonal(q, -q.sum(axis=0))
    return mk.MarkovChain.from_matrix("intensity", q)


def test_rate_below_the_edge_threshold_leaves_two_classes():
    q = _two_classes(1e-13)
    assert mk.closed_sets(q).closed_sets == [[1, 2], [3, 4]]
    with pytest.raises(ValueError, match="null space dimension 2 != 1"):
        mk.stationary_distribution(q, [1, 2, 3, 4])


def test_rate_above_the_edge_threshold_joins_the_classes():
    """At 1e-11 the rate is an edge, so {1, 2} is transient and the law is unique. An
    SVD rank test with a cutoff above 1e-11 calls this set decoupled."""
    q = _two_classes(1e-11)
    assert mk.closed_sets(q).closed_sets == [[3, 4]]
    pi = mk.stationary_distribution(q, [1, 2, 3, 4])
    assert np.max(np.abs(pi - [0.0, 0.0, 0.8, 0.2])) <= 1e-15
    assert np.max(np.abs(q.matrix @ pi)) <= 1e-15
    null = scipy.linalg.null_space(q.matrix)
    assert null.shape == (4, 1)
    # the SVD's null vector is only as good as eps over the 1e-11 singular value
    assert np.max(np.abs(pi - null[:, 0] / null[:, 0].sum())) <= 1e-3


def test_spectrum_coincidence():
    spec = ChainSpec(1, 3)
    w = chain_spectrum(hamiltonian(spec))
    p = mk.build_an_markov(spec, "transition")
    q = mk.build_an_markov(spec, "intensity")
    assert mk.spectrum_coincidence(w, p, 0.25, 0.0) < 1e-9
    assert mk.spectrum_coincidence(w, q, 1.0, -4.0) < 1e-9
    assert mk.spectrum_coincidence(w[::-1].tolist(), q, 1.0, -4.0) < 1e-9  # any order
    control = mk.MarkovChain.from_matrix(kind="transition", spec=spec,
                                         matrix=np.diag(np.arange(8.0)))
    assert mk.spectrum_coincidence(w, control, 0.25, 0.0) > 0.5


@pytest.mark.parametrize("reference", [np.zeros(7), np.zeros(9), np.zeros((8, 8)), 4.0])
def test_spectrum_coincidence_refuses_a_reference_of_the_wrong_length(reference):
    q = mk.build_an_markov(ChainSpec(1, 3), "intensity")
    with pytest.raises(ValueError, match="does not match a chain of 8 states"):
        mk.spectrum_coincidence(reference, q, 1.0, -4.0)


def test_semigroup_is_transition_matrix():
    q = mk.build_an_markov(ChainSpec(1, 3), "intensity")
    for t in (0.1, 1.0, 10.0):
        p = mk.transition_semigroup(q, t)
        assert p.min() >= 0.0
        assert np.max(np.abs(p.sum(axis=0) - 1.0)) < 1e-10


def test_ladder_markov_validation():
    params = mk.LadderParams(16.0, 0.0, 0.0)
    for L in (2, 3):
        p = mk.build_ladder_markov(params, L, "transition")
        q = mk.build_ladder_markov(params, L, "intensity")
        assert mk.validate(p).passed
        assert mk.validate(q).passed
        assert mk.absorbing_states(p) == []


def test_ladder_markov_rejects_bad_parameters():
    with pytest.raises(ValueError):
        mk.build_ladder_markov(mk.LadderParams(0.0, 0.0, 0.0), 2, "transition")
    with pytest.raises(ValueError):
        # 18 + 4a + 4b + c = 0
        mk.build_ladder_markov(mk.LadderParams(0.0, 0.0, -18.0), 2, "transition")


_NEGATIVE_ENTRY = "parameters outside the non-negativity region (min entry value {})"
_NEGATIVE_RATE = "parameters give a negative off-diagonal rate (min off-diagonal value {})"
_DEGENERATE = "degenerate normalizer: 18 + 4a + 4b + c = 0"
_OVERFLOW = "normalizer inf is not finite"


@pytest.mark.parametrize("abc,kind,message", [
    # only the diagonal is negative: a valid intensity matrix, not a transition matrix
    ((16.0, 0.0, -30.0), "intensity", None),
    ((16.0, 0.0, -30.0), "transition", _NEGATIVE_ENTRY.format(-50.0)),
    # a6 = -16 + a + 2b = -1 sits off the diagonal
    ((15.0, 0.0, 0.0), "transition", _NEGATIVE_ENTRY.format(-1.0)),
    ((15.0, 0.0, 0.0), "intensity", _NEGATIVE_RATE.format(-1.0)),
    ((0.0, 0.0, -18.0), "transition", _DEGENERATE),
    ((0.0, 0.0, -18.0), "intensity", _DEGENERATE),
    # a finite kernel whose diagonal terms overflow when the bonds are summed
    ((1e307, 0.0, 0.0), "intensity", "matrix has non-finite entries"),
    # normalizers that overflow: (L-1) 4 (18 + 4a + 4b + c) for P, 4 (18 + 4a + 4b + c) for Q
    ((1e307, 0.0, 0.0), "transition", _OVERFLOW),
    ((1e308, 0.0, 0.0), "intensity", _OVERFLOW),
])
def test_ladder_markov_sign_and_normaliser_checks(abc, kind, message):
    params = mk.LadderParams(*abc)
    if message is None:
        assert mk.validate(mk.build_ladder_markov(params, 3, kind)).passed
        return
    with pytest.raises(ValueError) as err:
        mk.build_ladder_markov(params, 3, kind)
    assert str(err.value) == message


@pytest.mark.parametrize("kind", ["transition", "intensity"])
def test_ladder_markov_guard_precedes_parameter_checks(kind):
    with pytest.raises(ValueError) as err:
        mk.build_ladder_markov(mk.LadderParams(0.0, 0.0, -18.0), 7, kind)
    assert str(err.value) == "state space 16384 exceeds dense guard 4096"


def test_validate_intensity_allocates_no_dense_temporary():
    chain = mk.build_an_markov(ChainSpec(1, 10), "intensity")
    dense_bytes = chain.matrix.nbytes  # 8 MiB at dim 1024
    tracemalloc.start()
    try:
        report = mk.validate(chain)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < dense_bytes / 16


def _dense_validate(chain, tol):
    """validate as it read the dense matrix: residuals and verdict."""
    m = chain.matrix
    target = 1.0 if chain.kind == "transition" else 0.0
    col_dev = float(np.max(np.abs(m.sum(axis=0) - target)))
    if chain.kind == "transition":
        min_entry = float(m.min())
    else:
        min_entry = float(m[~np.eye(len(m), dtype=bool)].min(initial=0.0))
    return ({"min_entry": min_entry, "column_sum_deviation": col_dev},
            min_entry >= -tol.abs_tol and col_dev <= tol.abs_tol)


def _dense_absorbing_states(chain, tol):
    """absorbing_states read from the dense matrix: column j's off-diagonal maximum."""
    m = chain.matrix
    off = ~np.eye(len(m), dtype=bool)
    leak = m.max(axis=0, where=off, initial=0.0)
    unit = np.abs(np.diag(m) - 1.0) <= tol.abs_tol
    return (np.flatnonzero(unit & (leak <= mk.EDGE_THRESHOLD)) + 1).tolist()


# zeros, ordinary values of either sign, and tiny and subnormal ones
_SPECIAL = st.sampled_from([5e-324, -5e-324, 1e-310, 1e-12, -1e-12, 1e-10, 1.0, -1.0])
_ENTRY = st.one_of(st.just(0.0), _SPECIAL, st.floats(-1e3, 1e3), st.floats(0.0, 1.0))
_TOLERANCES = [Tolerance(abs_tol=t) for t in (0.0, 1e-10, 1e-3)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_structure_from_entries_equals_the_dense_reference(data):
    """validate and absorbing_states read from the entries agree bit for bit with
    the dense reductions they replace, on matrices with holes or none, absorbing
    states with tiny or no coupling, and columns normalised or not."""
    n = data.draw(st.integers(1, 14), label="states")
    entry = _ENTRY if data.draw(st.booleans(), label="holes") else _ENTRY.filter(bool)
    m = data.draw(hnp.arrays(np.float64, (n, n), elements=entry), label="matrix")
    normalise = data.draw(st.sampled_from([None, "transition", "intensity"]), label="normalise")
    if normalise == "transition":
        sums = m.sum(axis=0)
        large = np.abs(sums) > 1e-3
        m[:, large] /= sums[large]
    elif normalise == "intensity":
        np.fill_diagonal(m, 0.0)
        np.fill_diagonal(m, -m.sum(axis=0))
    absorbed = st.tuples(st.integers(0, n - 1), st.sampled_from([1.0, 1.0 + 1e-11, 1.0 - 1e-4]),
                         st.sampled_from([0.0, 5e-324, 1e-11, -1e-11, 1e-4]))
    for j, diagonal, leak in data.draw(st.lists(absorbed, max_size=n), label="absorbed"):
        m[:, j] = m[j, :] = 0.0
        m[j, j] = diagonal
        m[(j + 1) % n, j] += leak
    symmetric = data.draw(st.booleans(), label="symmetric")
    if symmetric:
        m = np.triu(m) + np.triu(m, 1).T
    for kind in ("transition", "intensity"):
        for tol in _TOLERANCES:
            chain = mk.MarkovChain.from_matrix(kind=kind, matrix=m)
            report = mk.validate(chain, tol)
            if kind == "transition":
                absorbing = mk.absorbing_states(chain, tol)
            assert "matrix" not in vars(chain)
            residuals, passed = _dense_validate(chain, tol)
            assert {k: v.hex() for k, v in report.residuals.items()} == \
                {k: v.hex() for k, v in residuals.items()}
            assert report.passed == passed
            if kind == "transition":
                assert absorbing == _dense_absorbing_states(chain, tol)
            if symmetric:
                assert report.info["row_sum_deviation"] == report.residuals["column_sum_deviation"]


def test_absorbing_states_allocates_no_dense_float_copy():
    chain = mk.build_an_markov(ChainSpec(1, 10), "transition")
    dense_bytes = chain.matrix.nbytes  # 8 MiB at dim 1024; the off-diagonal mask is 1 MiB
    tracemalloc.start()
    try:
        absorbing = mk.absorbing_states(chain)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert absorbing == mk.absorbing_states_formula(chain.spec)
    assert peak < dense_bytes / 4


@pytest.mark.parametrize("chain", [
    mk.build_an_markov(ChainSpec(1, 3), "transition"),
    mk.build_ladder_markov(mk.LadderParams(16.0, 0.0, 0.0), 2, "intensity"),
    mk.MarkovChain.from_matrix(kind="transition", matrix=np.eye(3)),
], ids=["an_P", "ladder_Q", "adhoc"])
def test_chain_entries_are_read_only(chain):
    """An edit of the entries would leave the cached matrix stale while closed sets
    and the samplers read the edit, so the entries refuse it."""
    before = chain.matrix.copy()
    for array in chain.entries[:3]:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 2
    assert np.array_equal(chain.entries.dense(), before) and chain.entries.dense().flags.writeable


def test_lattice_chain_matrix_is_read_only():
    """A chain is its entries: the matrix scattered from them cannot be edited, no
    field can be reassigned, and an ad-hoc chain reads its matrix once."""
    matrix = np.eye(3)
    adhoc = mk.MarkovChain.from_matrix(kind="transition", matrix=matrix, spec=None)
    for chain in (mk.build_an_markov(ChainSpec(1, 3), "intensity"), adhoc):
        assert np.array_equal(chain.matrix, chain.entries.dense())
        with pytest.raises(ValueError, match="read-only"):
            chain.matrix[0, 1] = 1.0
        for name, value in (("matrix", np.zeros((8, 8))), ("entries", adhoc.entries),
                            ("kind", "intensity"), ("spec", None)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(chain, name, value)
    matrix[[0, 1]] = matrix[[1, 0]]  # the caller's array, edited after construction
    assert adhoc.entries.rows.tolist() == [0, 1, 2]
    assert np.array_equal(adhoc.matrix, np.eye(3)) and matrix.flags.writeable


def test_closed_sets_build_no_dense_mask():
    chain = mk.build_an_markov(ChainSpec(1, 10), "transition")
    tracemalloc.start()
    try:
        analysis = mk.closed_sets(chain)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert analysis.absorbing == mk.absorbing_states_formula(chain.spec)
    assert len(analysis.closed_sets) == 11  # one per number of 1s
    assert peak < chain.num_states ** 2  # the bytes of a dim x dim bool mask (1 MiB)


def test_closed_sets_of_a_symmetric_chain_peak_small():
    # ladder L = 6 Q: 256,000 entries; Tarjan's adjacency lists peaked at 16 MiB traced
    chain = mk.build_ladder_markov(mk.LadderParams(16.0, 0.0, 0.0), 6, "intensity")
    tracemalloc.start()
    try:
        analysis = mk.closed_sets(chain)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert analysis == mk.ChainAnalysis([], [list(range(1, 4097))], False)
    assert peak < 8 * 2 ** 20


def _transpose_entries(chain):
    return linalg.nonzero_entries(chain.entries.dense().T)


@pytest.mark.parametrize("kind", ["transition", "intensity"])
@pytest.mark.parametrize("n,L", [(1, 2), (1, 5), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_an_chains_are_known_symmetric(n, L, kind):
    chain = mk.build_an_markov(ChainSpec(n, L), kind)
    for got, want in zip(chain.entries, _transpose_entries(chain)):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@settings(max_examples=40, deadline=None)
@given(st.floats(-2.0, 60.0), st.floats(0.0, 40.0), st.floats(0.0, 40.0), st.integers(2, 4),
       st.sampled_from(["transition", "intensity"]))
def test_ladder_chains_inside_the_positivity_region_are_known_symmetric(a, db, dc, L, kind):
    # inside the region a >= -2, a + 2b >= 16 and a + 4b + 4c >= -54
    b = (16.0 - a) / 2.0 + db
    c = (-54.0 - a - 4.0 * b) / 4.0 + dc
    assume(min(lad.entry_values(a, b, c)) >= 0.0)  # roundoff at the boundary
    chain = mk.build_ladder_markov(mk.LadderParams(a, b, c), L, kind)
    for got, want in zip(chain.entries, _transpose_entries(chain)):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _without_tarjan():
    return mock.patch.object(mk, "_strongly_connected_components",
                             side_effect=AssertionError("Tarjan ran on two-way flow"))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_closed_sets_do_not_need_the_symmetry_flag(data):
    """On an exactly symmetric matrix, with tiny, subnormal and negative entries among
    the others, the components route gives scipy's sink components."""
    n = data.draw(st.integers(0, 14), label="states")
    m = data.draw(hnp.arrays(np.float64, (n, n), elements=_ENTRY), label="matrix")
    m = np.triu(m) + np.triu(m, 1).T
    for kind in ("transition", "intensity"):
        chain = mk.MarkovChain.from_matrix(kind=kind, matrix=m)
        with _without_tarjan():
            assert mk.closed_sets(chain) == scipy_closed_sets(m)


_FLOW = st.floats(mk.EDGE_THRESHOLD, 1e3, exclude_min=True)
_NO_FLOW = st.one_of(st.just(0.0), st.just(mk.EDGE_THRESHOLD), st.sampled_from([5e-324, -1.0]),
                     st.floats(-1e3, mk.EDGE_THRESHOLD))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_closed_sets_of_two_way_flow_take_the_components_route(data):
    """A support that holds (i, j) exactly when it holds (j, i), with values drawn
    independently in each direction, is two-way flow however unequal its rates: the
    closed sets are the connected components, and Tarjan does not run."""
    n = data.draw(st.integers(0, 14), label="states")
    support = np.triu(data.draw(hnp.arrays(bool, (n, n)), label="support"), 1)
    flow = data.draw(hnp.arrays(np.float64, (n, n), elements=_FLOW), label="flow")
    rest = data.draw(hnp.arrays(np.float64, (n, n), elements=_NO_FLOW), label="rest")
    m = np.where(support | support.T, flow, rest)
    for kind in ("transition", "intensity"):
        chain = mk.MarkovChain.from_matrix(kind=kind, matrix=m)
        with _without_tarjan():
            assert mk.closed_sets(chain) == scipy_closed_sets(m)


def test_closed_sets_read_one_way_flow_from_the_entries():
    # flow 2 -> 1 and 3 -> 4 only; 1 and 4 keep their mass
    one_way = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0],
                        [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
    chain = dataclasses.replace(mk.build_an_markov(ChainSpec(1, 2), "transition"),
                                entries=linalg.nonzero_entries(one_way))
    assert mk.closed_sets(chain) == mk.ChainAnalysis([1, 4], [[1], [4]], True)
    m = np.array([[1.0, 0.5, 0.0], [0.0, 0.0, 0.0], [0.0, 0.5, 1.0]])
    chain = mk.MarkovChain("transition", linalg.nonzero_entries(m), None)
    assert mk.closed_sets(chain) == mk.ChainAnalysis([1, 3], [[1], [3]], True)


def _exclusion_chain(p, q, L):
    """The exclusion process with reflecting ends, hopping right at rate p and left at
    rate q: the two-site kernel on sites (x, y), coded 2 x + y, through
    `embedded_entries`."""
    kernel = np.zeros((4, 4))
    kernel[1, 2], kernel[2, 1] = p, q  # 10 -> 01 at rate p, 01 -> 10 at rate q
    kernel[2, 2], kernel[1, 1] = -p, -q
    return mk.MarkovChain("intensity", linalg.embedded_entries(kernel, L, 2), None)


def test_exclusion_sectors_come_from_the_components_route():
    L = 12
    chain = _exclusion_chain(1.7, 0.4, L)
    with _without_tarjan():
        analysis = mk.closed_sets(chain)
    particles = np.array([bin(s).count("1") for s in range(2 ** L)])
    sectors = [(np.flatnonzero(particles == k) + 1).tolist() for k in range(L + 1)]
    assert analysis == mk.ChainAnalysis([1, 2 ** L], sorted(sectors), True)


@pytest.mark.parametrize("kind", ["transition", "intensity"])
def test_validate_a_chain_without_states(kind):
    report = mk.validate(mk.MarkovChain.from_matrix(kind, np.zeros((0, 0))))
    assert report.residuals == {"min_entry": 0.0, "column_sum_deviation": 0.0}
    assert report.passed and report.info == {"row_normalized": True, "row_sum_deviation": 0.0}


def test_chain_build_and_closed_sets_scatter_no_dense_matrix():
    spec = ChainSpec(1, 10)
    tracemalloc.start()
    try:
        chain = mk.build_an_markov(spec, "transition")
        analysis = mk.closed_sets(chain)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert analysis.absorbing == mk.absorbing_states_formula(spec)
    assert peak < spec.dim ** 2  # a dense float64 matrix takes 8 dim^2 bytes (8 MiB)
    assert "matrix" not in vars(chain)  # not scattered yet


def test_ladder_markov_row_flag():
    params = mk.LadderParams(16.0, 0.0, 0.0)
    report = mk.validate(mk.build_ladder_markov(params, 2, "transition"))
    # the transformed density is symmetric, so rows normalize as well
    assert report.info["row_normalized"] is True


def test_intensity_exp_of_chain_reaches_uniform_on_sector():
    q = mk.build_an_markov(ChainSpec(1, 3), "intensity")
    p_inf = intensity_exp(q.matrix, 50.0)
    # starting from state 2, the long-run column is uniform on {2, 3, 5}
    col = p_inf[:, 1]
    expected = np.zeros(8)
    expected[[1, 2, 4]] = 1.0 / 3.0
    assert np.allclose(col, expected, atol=1e-8)
