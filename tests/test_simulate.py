import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lattice_markov import simulate as sim
from lattice_markov.lattice_an import ChainSpec
from lattice_markov.markov import (LadderParams, MarkovChain, absorbing_states, build_an_markov,
                                   build_ladder_markov, closed_sets, encode, validate)
from lattice_markov.reporting import DEFAULT_TOL


def test_dtmc_determinism():
    chain = build_an_markov(ChainSpec(1, 3), "transition")
    a = sim.simulate_dtmc(chain, 2, 500, seed=123)
    b = sim.simulate_dtmc(chain, 2, 500, seed=123)
    c = sim.simulate_dtmc(chain, 2, 500, seed=124)
    assert a.states == b.states
    assert a.states != c.states


def test_dtmc_from_absorbing_state_is_constant():
    chain = build_an_markov(ChainSpec(1, 3), "transition")
    traj = sim.simulate_dtmc(chain, 1, 2000, seed=5)
    assert set(traj.states) == {1}


def test_dtmc_identity_matrix_constant():
    chain = MarkovChain.from_matrix(kind="transition", spec=None, matrix=np.eye(4))
    traj = sim.simulate_dtmc(chain, 3, 100, seed=0)
    assert set(traj.states) == {3}


def test_dtmc_stays_in_closed_sector():
    chain = build_an_markov(ChainSpec(1, 3), "transition")
    traj = sim.simulate_dtmc(chain, 2, 20000, seed=11)
    assert set(traj.states) == {2, 3, 5}


def test_dtmc_transitions_have_support():
    chain = build_an_markov(ChainSpec(2, 3), "transition")
    traj = sim.simulate_dtmc(chain, 4, 2000, seed=2)
    for frm, to in zip(traj.states, traj.states[1:]):
        assert chain.matrix[to - 1, frm - 1] > 0.0


def test_ctmc_determinism_and_support():
    chain = build_an_markov(ChainSpec(1, 4), "intensity")
    a = sim.simulate_ctmc(chain, 2, 200.0, seed=42)
    b = sim.simulate_ctmc(chain, 2, 200.0, seed=42)
    assert a.states == b.states and a.times == b.times
    for frm, to in zip(a.states, a.states[1:]):
        assert chain.matrix[to - 1, frm - 1] > 0.0


def test_ctmc_absorbing_start_holds_forever():
    chain = build_an_markov(ChainSpec(1, 3), "intensity")
    traj = sim.simulate_ctmc(chain, 1, 100.0, seed=9)
    assert traj.states == [1]
    assert traj.times == [0.0]


def test_ctmc_two_state_symmetric_occupation():
    q = MarkovChain.from_matrix(kind="intensity", spec=None,
                                matrix=np.array([[-1.0, 1.0], [1.0, -1.0]]))
    traj = sim.simulate_ctmc(q, 1, 4000.0, seed=31)
    occ = sim.empirical_distribution(traj)
    jumps = len(traj.states) - 1
    sigma = math.sqrt(0.25 / jumps)
    assert abs(occ[0] - 0.5) < 3.0 * sigma
    assert abs(occ[1] - 0.5) < 3.0 * sigma


def test_ctmc_uniform_on_closed_sector():
    chain = build_an_markov(ChainSpec(1, 4), "intensity")
    # sector of one occupied site: states (0,0,0,1)... encode to {2,3,5,9}
    traj = sim.simulate_ctmc(chain, 2, 3000.0, seed=17)
    assert set(traj.states) == {2, 3, 5, 9}
    occ = sim.empirical_distribution(traj)
    jumps = len(traj.states) - 1
    p = 0.25
    sigma = math.sqrt(p * (1 - p) / jumps)
    for s in (2, 3, 5, 9):
        assert abs(occ[s - 1] - p) < 3.0 * sigma


def test_empirical_distribution_point_mass_and_alternation():
    traj = sim.Trajectory(kind="dtmc", states=[4] * 50, times=None, t_max=None,
                          num_states=6, init=4, seed=0)
    occ = sim.empirical_distribution(traj, burn_in=0)
    assert occ[3] == 1.0
    traj = sim.Trajectory(kind="dtmc", states=[1, 2] * 50, times=None, t_max=None,
                          num_states=2, init=1, seed=0)
    occ = sim.empirical_distribution(traj, burn_in=0)
    assert np.allclose(occ, [0.5, 0.5])


def test_empirical_distribution_time_weighted():
    traj = sim.Trajectory(kind="ctmc", states=[1, 2], times=[0.0, 1.0], t_max=4.0,
                          num_states=2, init=1, seed=0)
    occ = sim.empirical_distribution(traj, burn_in=0.0)
    assert np.allclose(occ, [0.25, 0.75])


def test_empirical_distribution_burn_in_errors():
    traj = sim.Trajectory(kind="ctmc", states=[1], times=[0.0], t_max=1.0,
                          num_states=2, init=1, seed=0)
    with pytest.raises(ValueError):
        sim.empirical_distribution(traj, burn_in=2.0)


def test_empirical_distribution_rejects_negative_burn_in():
    dtmc = sim.Trajectory(kind="dtmc", states=[1, 2, 1, 1], times=None, t_max=None,
                          num_states=2, init=1, seed=0)
    ctmc = sim.Trajectory(kind="ctmc", states=[1, 2], times=[0.0, 1.0], t_max=4.0,
                          num_states=2, init=1, seed=0)
    for traj in (dtmc, ctmc):
        with pytest.raises(ValueError, match="non-negative"):
            sim.empirical_distribution(traj, burn_in=-2)


def test_empirical_distribution_dtmc_burn_in_counts_whole_steps():
    dtmc = sim.Trajectory(kind="dtmc", states=[1, 2, 1, 1, 2, 1, 2, 2, 1], times=None,
                          t_max=None, num_states=2, init=1, seed=0)
    assert np.array_equal(sim.empirical_distribution(dtmc, 3), [0.5, 0.5])
    assert np.array_equal(sim.empirical_distribution(dtmc, 3.0), [0.5, 0.5])
    assert np.array_equal(sim.empirical_distribution(dtmc, np.int64(3)), [0.5, 0.5])
    for bad in (7.5, 0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="whole number of steps"):
            sim.empirical_distribution(dtmc, bad)
    # a continuous burn-in stays a time: 2.5 cuts the first visit's holding interval
    ctmc = sim.Trajectory(kind="ctmc", states=[1, 2], times=[0.0, 3.0], t_max=4.0,
                          num_states=2, init=1, seed=0)
    assert np.allclose(sim.empirical_distribution(ctmc, 2.5), [1 / 3, 2 / 3])
    with pytest.raises(ValueError, match="non-negative"):
        sim.empirical_distribution(ctmc, float("nan"))


@pytest.mark.parametrize("states, times, message", [
    ([], None, "at least the initial state"),
    ([1, 2], [0.0], "align with states"),
    ([1, 2, 1], [0.0, 1.0, 1.0], "strictly increasing"),
    ([1, 2, 1], [0.0, 2.0, 1.0], "strictly increasing"),
    ([1, 2, 1], [0.0, math.inf, math.inf], "strictly increasing"),
], ids=["empty", "misaligned", "equal", "decreasing", "infinite"])
def test_trajectory_refuses_malformed_paths(states, times, message):
    kind = "dtmc" if times is None else "ctmc"
    with pytest.raises(ValueError, match=message):
        sim.Trajectory(kind=kind, states=states, times=times, t_max=None, num_states=2,
                       init=1, seed=0)


def test_occupation_summary():
    chain = build_an_markov(ChainSpec(1, 3), "intensity")
    traj = sim.simulate_ctmc(chain, 2, 2000.0, seed=8)
    summary = sim.occupation_summary(chain, traj)
    assert summary["closed_set"] == [2, 3, 5]
    assert summary["init"] == 2
    assert summary["seed"] == 8
    assert summary["max_dev_sigma"] < 3.0
    assert sum(summary["occupation"]) == pytest.approx(1.0)


def test_simulation_rejects_invalid_inputs():
    chain = build_an_markov(ChainSpec(1, 3), "transition")
    with pytest.raises(ValueError):
        sim.simulate_dtmc(chain, 0, 10, seed=1)
    with pytest.raises(ValueError):
        sim.simulate_dtmc(chain, 1, -1, seed=1)
    q = build_an_markov(ChainSpec(1, 3), "intensity")
    with pytest.raises(ValueError):
        sim.simulate_ctmc(q, 1, 0.0, seed=1)
    with pytest.raises(ValueError):
        sim.simulate_dtmc(q, 1, 10, seed=1)
    with pytest.raises(ValueError):
        sim.simulate_ctmc(chain, 1, 10.0, seed=1)


_UNREACHABLE_HORIZON = """
import sys
from lattice_markov import ChainSpec, build_an_markov, simulate_ctmc
q = build_an_markov(ChainSpec(1, 2), "intensity")
try:
    simulate_ctmc(q, 2, float(sys.argv[1]), seed=1)
except ValueError as exc:
    print(exc)
"""


def _run_child(args):
    """Run python with args in a child process, so that a sampler that never
    reaches its horizon fails the test by timeout instead of hanging the suite."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=60, env=env)


@pytest.mark.parametrize("t_max", ["nan", "inf"])
def test_ctmc_rejects_horizon_that_is_never_reached(t_max):
    library = _run_child(["-c", _UNREACHABLE_HORIZON, t_max])
    assert library.returncode == 0 and library.stdout == "t_max must be finite and positive\n"
    command = _run_child(["-m", "lattice_markov.cli", "simulate", "an", "--n", "1", "--L", "2",
                          "--kind", "Q", "--init", "2", "--tmax", t_max])
    assert command.returncode == 2
    assert command.stderr == "error: t_max must be finite and positive\n"


def test_ladder_ctmc_runs():
    chain = build_ladder_markov(LadderParams(16.0, 0.0, 0.0), 2, "intensity")
    traj = sim.simulate_ctmc(chain, 1, 5.0, seed=3)
    assert len(traj.states) > 1  # no absorbing states in the ladder process


def test_trajectory_csv_export(tmp_path):
    spec = ChainSpec(1, 3)
    chain = build_an_markov(spec, "transition")
    traj = sim.simulate_dtmc(chain, 2, 10, seed=1)
    path = tmp_path / "traj.csv"
    sim.trajectory_to_csv(traj, path, spec)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step_or_time,state_index,label"
    assert len(lines) == 12
    first = lines[1].split(",", 2)
    assert first[0] == "0" and first[1] == "2"


def _sha256_repr(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


# (run, number of states on the path, SHA-256 of repr(states), of repr(times))
GOLDEN_PATHS = [
    (lambda: sim.simulate_dtmc(build_an_markov(ChainSpec(1, 8), "transition"),
                               encode((0, 1, 0, 1, 1, 0, 0, 1), ChainSpec(1, 8)), 5000, seed=2024),
     5001, "114def491ffe69ba902e57cd5ead4b23775f22e8dc4b5fb7b4ca28f0289ec8bf",
     "dc937b59892604f5a86ac96936cd7ff09e25f18ae6b758e8014a24c7fa039e91"),
    (lambda: sim.simulate_ctmc(build_an_markov(ChainSpec(2, 6), "intensity"),
                               encode((0, 1, 2, 2, 1, 0), ChainSpec(2, 6)), 40.0, seed=77),
     459, "1caf71f4d9cb051526519ffddba0febfcd55889353db6f11db7a1e6d62b55889",
     "4b13a2001bfc6817ee995ffd49e3e5db99f3dfbf6d68b87b001bae4826bd26e7"),
    (lambda: sim.simulate_ctmc(build_ladder_markov(LadderParams(18.0, 1.0, 0.0), 4, "intensity"),
                               37, 5.0, seed=5),
     4518, "067c3743edb7702380e93cfb8704e3cdbca32edf5e1c5c81de157683b490c315",
     "7ef0a7bb496eda34ef1348ab79bbad9e9276f1b8453ebb7407a17e951665937f"),
    (lambda: sim.simulate_dtmc(build_ladder_markov(LadderParams(16.0, 0.0, 0.0), 3, "transition"),
                               11, 5000, seed=31),
     5001, "787eb3999c6e07250993be02753efb66400c8830d929ce8c633ec5c335c7916a",
     "dc937b59892604f5a86ac96936cd7ff09e25f18ae6b758e8014a24c7fa039e91"),
]


@pytest.mark.parametrize("run,length,states_sha,times_sha", GOLDEN_PATHS,
                         ids=["dtmc_an_1_8", "ctmc_an_2_6", "ctmc_ladder_4", "dtmc_ladder_3"])
def test_golden_paths(run, length, states_sha, times_sha):
    """Seeded paths are bit-reproducible: a sampler change that alters the
    random stream or the bucket a draw lands in shows here."""
    traj = run()
    assert len(traj.states) == length
    assert _sha256_repr(traj.states) == states_sha
    assert _sha256_repr(traj.times) == times_sha


def _occupation_by_event(traj, burn_in):
    """Reference occupation: one Python accumulation per visit."""
    out = np.zeros(traj.num_states)
    if traj.kind == "dtmc":
        cut = int(0.1 * (len(traj.states) - 1)) if burn_in is None else int(burn_in)
        for s in traj.states[cut:]:
            out[s - 1] += 1.0
        return out / out.sum()
    cut = 0.1 * traj.t_max if burn_in is None else float(burn_in)
    entries = traj.times + [traj.t_max]
    for state, start, stop in zip(traj.states, entries, entries[1:]):
        lo, hi = max(start, cut), min(stop, traj.t_max)
        if hi > lo:
            out[state - 1] += hi - lo
    return out / out.sum()


@pytest.mark.parametrize("run", [golden[0] for golden in GOLDEN_PATHS],
                         ids=["dtmc_an_1_8", "ctmc_an_2_6", "ctmc_ladder_4", "dtmc_ladder_3"])
def test_empirical_distribution_equals_per_event_reference(run):
    traj = run()
    for burn_in in (None, 0, 3, 7.5):
        if traj.t_max is None and burn_in == 7.5:
            with pytest.raises(ValueError, match="whole number of steps"):
                sim.empirical_distribution(traj, burn_in)
            continue
        if traj.t_max is not None and burn_in is not None and burn_in >= traj.t_max:
            with pytest.raises(ValueError, match="whole trajectory"):
                sim.empirical_distribution(traj, burn_in)
            continue
        got = sim.empirical_distribution(traj, burn_in)
        assert got.tobytes() == _occupation_by_event(traj, burn_in).tobytes()


class _FixedUniform:
    def __init__(self, u: float) -> None:
        self.u = u

    def random(self) -> float:
        return self.u


@pytest.mark.parametrize("chain", [
    build_an_markov(ChainSpec(1, 8), "transition"),
    build_ladder_markov(LadderParams(18.0, 1.0, 0.0), 4, "intensity"),
], ids=["an_1_8_P", "ladder_4_Q"])
def test_draw_never_lands_on_zero_probability_state(chain):
    """The rounding slack goes to the last state with positive mass, not to
    state dim: both chains have columns whose last entry is 0 and whose
    cumulative sum ends at 1 - 2**-53."""
    largest_u = 1.0 - 2.0 ** -53  # largest value rng.random() returns
    m = chain.matrix
    supports = sim._column_supports(chain)
    for j in range(chain.num_states):
        column = np.clip(m[:, j], 0.0, None)
        if chain.kind == "intensity":
            column[j] = 0.0
            column /= -m[j, j]
        states, cdf = sim._support_cdf(*sim._jumps(
            supports, j, 1.0 if chain.kind == "transition" else -m[j, j]))
        assert cdf[-1] == 1.0
        assert column[states[-1] - 1] > 0.0
        assert column[np.asarray(states) - 1].min() > 0.0
        drawn = sim._draw(_FixedUniform(largest_u), states, cdf)
        assert column[drawn - 1] > 0.0


def test_ctmc_rejects_path_that_cannot_advance():
    # state 1 holds for ~1000 time units, state 2 for ~1e-20: once in state 2
    # the float64 clock cannot move, and the sampler says so
    q = MarkovChain.from_matrix(kind="intensity", spec=None,
                                matrix=np.array([[-1e-3, 1e20], [1e-3, -1e20]]))
    with pytest.raises(ValueError, match="cannot advance"):
        sim.simulate_ctmc(q, 1, 1e9, seed=0)


def _absorbing_q():
    # state 1 has no exit; 2 and 3 leak into it
    return np.array([[0.0, 1.0, 0.5], [0.0, -2.0, 0.5], [0.0, 1.0, -1.0]])


def _underflow_q():
    # q_21 = 5e-324 is positive, but q_21 / rate = 5e-324 / 2 rounds to zero
    q = np.array([[0.0, 5e-324, 1.0], [5e-324, 0.0, 1.0], [2.0, 1.0, -2.0]])
    q[0, 0], q[1, 1] = -(5e-324 + 2.0), -(5e-324 + 1.0)
    return q


_KINDS = {"P": "transition", "Q": "intensity"}
_STRUCTURE_CHAINS = (
    [pytest.param(build_an_markov(ChainSpec(n, L), kind), id=f"an_{n}_{L}_{name}")
     for n, L in ((1, 3), (1, 6), (2, 4), (3, 3)) for name, kind in _KINDS.items()]
    + [pytest.param(build_ladder_markov(LadderParams(a, b, c), L, kind),
                    id=f"ladder_{L}_{a:g}_{b:g}_{c:g}_{name}")
       for L in (2, 3, 4) for a, b, c in ((16.0, 0.0, 0.0), (18.0, 1.0, 0.0), (17.5, 0.25, 2.0))
       for name, kind in _KINDS.items()]
    + [pytest.param(MarkovChain.from_matrix(kind="intensity", spec=None, matrix=_absorbing_q()),
                    id="absorbing_Q"),
       pytest.param(MarkovChain.from_matrix(kind="intensity", spec=None, matrix=_underflow_q()),
                    id="underflow_Q")])


def _dense_law(chain, j):
    """The dense route: column j clipped at zero and, for an intensity matrix, its
    diagonal zeroed and the column divided by the exit rate; its support and values."""
    column = np.clip(chain.matrix[:, j], 0.0, None)
    if chain.kind == "intensity":
        column[j] = 0.0
        column = column / -chain.matrix[j, j]
    support = np.flatnonzero(column)
    return support, column[support]


@pytest.mark.parametrize("chain", _STRUCTURE_CHAINS)
def test_column_supports_equal_the_dense_columns(chain):
    m = chain.matrix
    supports = sim._column_supports(chain)
    for j in range(chain.num_states):
        rows, values = sim._jumps(supports, j, 1.0)
        dense = np.flatnonzero(np.clip(m[:, j], 0.0, None))
        assert np.array_equal(rows, dense) and values.tobytes() == m[dense, j].tobytes()
        if chain.kind == "intensity" and -m[j, j] > DEFAULT_TOL.abs_tol:  # else absorbing
            got, want = sim._jumps(supports, j, -m[j, j]), _dense_law(chain, j)
            assert np.array_equal(got[0], want[0]) and got[1].tobytes() == want[1].tobytes()
    # the subnormal entry is in state 1's column but not among its jumps
    if m[1, 0] == 5e-324:
        assert sim._jumps(supports, 0, 1.0)[0].tolist() == [1, 2]
        assert sim._jumps(supports, 0, 2.0)[0].tolist() == [2]


def _same_structure(chain):
    """The chain's kernel-built entries against those read off its dense matrix by
    an ad-hoc chain: the same entries, closed sets and column supports."""
    adhoc = MarkovChain.from_matrix(kind=chain.kind, matrix=chain.matrix.copy(), spec=None)
    for got, want in zip(chain.entries, adhoc.entries):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert closed_sets(chain) == closed_sets(adhoc)
    for got, want in zip(sim._column_supports(chain), sim._column_supports(adhoc)):
        assert got.tobytes() == want.tobytes()


# a rank n and a number of sites L with (n+1)^L <= 256
_RANK_AND_SITES = st.integers(1, 3).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(2, {1: 8, 2: 5, 3: 4}[n])))


@settings(max_examples=30, deadline=None)
@given(_RANK_AND_SITES, st.sampled_from(["transition", "intensity"]))
def test_an_chain_entries_give_the_dense_structure(rank_and_sites, kind):
    _same_structure(build_an_markov(ChainSpec(*rank_and_sites), kind))


# quarter steps reach the edges of the positivity region exactly
_PARAMETER = st.one_of(st.integers(-8, 120).map(lambda v: v / 4),
                       st.floats(-2.0, 30.0, allow_nan=False))


@settings(max_examples=30, deadline=None)
@given(_PARAMETER, _PARAMETER, _PARAMETER, st.integers(2, 4),
       st.sampled_from(["transition", "intensity"]))
def test_ladder_chain_entries_give_the_dense_structure(a, b, c, L, kind):
    try:
        chain = build_ladder_markov(LadderParams(a, b, c), L, kind)
    except ValueError:  # outside the region where this kind of chain exists
        assume(False)
    _same_structure(chain)


def test_column_supports_of_a_lattice_chain_scan_no_dense_matrix():
    chain = build_an_markov(ChainSpec(1, 10), "transition")
    tracemalloc.start()
    try:
        rows, _, ptr = sim._column_supports(chain)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == ptr[-1] == np.count_nonzero(chain.matrix)
    assert peak < chain.num_states ** 2  # the bytes of a dim x dim bool mask (1 MiB)


def _dense_route_path(chain, init, horizon, seed):
    """The samplers with a dense column gather per first visit and one scalar
    uniform per DTMC step, as the reference for the paths the samplers draw."""
    rng = sim._rng(seed)
    m = chain.matrix
    states, times, t, current, cache = [init], [0.0], 0.0, init, {}
    for _ in range(horizon if chain.kind == "transition" else 10 ** 9):
        if current not in cache:  # a transition matrix takes rate 1, which is never absorbing
            rate = 1.0 if chain.kind == "transition" else -float(m[current - 1, current - 1])
            cache[current] = ((0.0, [], []) if rate <= DEFAULT_TOL.abs_tol
                              else (rate, *sim._support_cdf(*_dense_law(chain, current - 1))))
        rate, targets, cdf = cache[current]
        if chain.kind == "intensity":
            if rate == 0.0:
                break
            t += rng.exponential(1.0 / rate)
            if t >= horizon:
                break
            times.append(t)
        current = sim._draw(rng, targets, cdf)
        states.append(current)
    return states, times if chain.kind == "intensity" else None


@pytest.mark.parametrize("chain,init,horizon,seed", [
    (build_an_markov(ChainSpec(1, 4), "transition"), 8, sim._UNIFORM_CHUNK + 500, 3),
    (build_ladder_markov(LadderParams(18.0, 1.0, 0.0), 3, "transition"), 40, 3000, 11),
    (build_an_markov(ChainSpec(2, 4), "intensity"), 30, 40.0, 5),
    (build_ladder_markov(LadderParams(17.5, 0.25, 2.0), 4, "intensity"), 200, 2.0, 7),
    (MarkovChain.from_matrix(kind="intensity", spec=None, matrix=_absorbing_q()), 3, 50.0, 1),
    (MarkovChain.from_matrix(kind="intensity", spec=None, matrix=_underflow_q()), 1, 20.0, 2),
], ids=["an_1_4_P", "ladder_3_P", "an_2_4_Q", "ladder_4_Q", "absorbing_Q", "underflow_Q"])
def test_paths_equal_the_dense_route(chain, init, horizon, seed):
    if chain.kind == "transition":
        traj = sim.simulate_dtmc(chain, init, horizon, seed)
    else:
        traj = sim.simulate_ctmc(chain, init, horizon, seed)
    assert (traj.states, traj.times) == _dense_route_path(chain, init, horizon, seed)


def test_dtmc_draws_uniforms_in_chunks(monkeypatch):
    calls = []

    class CountingRng:
        def __init__(self, seed):
            self.rng = np.random.Generator(np.random.Philox(seed))

        def random(self, size=None):
            calls.append(size)
            return self.rng.random(size)

    monkeypatch.setattr(sim, "_rng", CountingRng)
    chain = build_an_markov(ChainSpec(1, 4), "transition")
    steps = 2 * sim._UNIFORM_CHUNK + 7
    traj = sim.simulate_dtmc(chain, 8, steps, seed=3)
    assert len(traj.states) == steps + 1
    assert calls == [sim._UNIFORM_CHUNK, sim._UNIFORM_CHUNK, 7]


@pytest.mark.parametrize("kind", ["transition", "intensity"])
def test_structure_and_sampling_scatter_no_dense_matrix(kind):
    """validate, absorbing_states and both samplers read only the chain's entries: none
    peaks at the bytes of a dim x dim bool mask, let alone a float matrix (8 dim^2)."""
    chain = build_an_markov(ChainSpec(1, 10), kind)
    calls = [lambda: validate(chain)]
    if kind == "transition":
        calls += [lambda: absorbing_states(chain),
                  lambda: sim.simulate_dtmc(chain, 2, 2_000, seed=5)]
    else:
        calls += [lambda: sim.simulate_ctmc(chain, 2, 50.0, seed=5)]
    for call in calls:
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < chain.num_states ** 2  # 1 MiB at dim 1024
        assert "matrix" not in vars(chain)


@pytest.mark.parametrize("init", [2.0, np.int64(2), np.float64(2.0)],
                         ids=["float", "np_int64", "np_float64"])
def test_samplers_take_a_whole_number_initial_state(init):
    p = build_an_markov(ChainSpec(1, 3), "transition")
    q = build_an_markov(ChainSpec(1, 3), "intensity")
    for run in (lambda s: sim.simulate_dtmc(p, s, 50, seed=4),
                lambda s: sim.simulate_ctmc(q, s, 20.0, seed=4)):
        traj = run(init)
        assert type(traj.init) is int and type(traj.states[0]) is int
        assert traj == run(2)


@pytest.mark.parametrize("init", [2.5, float("nan"), float("inf")])
def test_samplers_refuse_a_fractional_initial_state(init):
    p = build_an_markov(ChainSpec(1, 3), "transition")
    q = build_an_markov(ChainSpec(1, 3), "intensity")
    with pytest.raises(ValueError, match="initial state must be a whole number"):
        sim.simulate_dtmc(p, init, 10, seed=1)
    with pytest.raises(ValueError, match="initial state must be a whole number"):
        sim.simulate_ctmc(q, init, 10.0, seed=1)


def test_dtmc_steps_must_be_a_whole_number():
    p = build_an_markov(ChainSpec(1, 3), "transition")
    ref = sim.simulate_dtmc(p, 2, 10, seed=1)
    assert sim.simulate_dtmc(p, 2, 10.0, seed=1) == ref
    assert sim.simulate_dtmc(p, 2, np.int64(10), seed=1) == ref
    for bad in (2.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="steps must be a whole number"):
            sim.simulate_dtmc(p, 2, bad, seed=1)
