import bisect
import hashlib
import math
import os
import re
import subprocess
import sys
import tracemalloc
from array import array
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from lattice_markov import markov
from lattice_markov import simulate as sim
from lattice_markov.lattice_an import ChainSpec
from lattice_markov.markov import (LadderParams, MarkovChain, absorbing_states, build_an_markov,
                                   build_ladder_markov, closed_sets, encode, validate)

from closed_reference import scipy_closed_sets


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


def test_ctmc_slow_state_leaves_as_closed_sets_says():
    # exit rate 5e-11, below 1e-10, but the flow out is an edge: {2} is the one closed set
    chain = MarkovChain.from_matrix("intensity", [[-5e-11, 0.0], [5e-11, 0.0]])
    assert validate(chain).passed and closed_sets(chain).closed_sets == [[2]]
    traj = sim.simulate_ctmc(chain, 1, 1e13, 0)
    assert traj.states == [1, 2] and traj.times[1] < 1e12  # mean holding time 2e10
    assert sim.occupation_summary(chain, traj)["occupation"] == [0.0, 1.0]


@pytest.mark.parametrize("diagonal", [0.0, 5e-11, -1e-320])
def test_ctmc_raises_on_entering_a_state_that_flow_leaves_at_no_exit_rate(diagonal):
    # state 2 sends 5e-11 to state 3, but its exit rate -q_22 is not positive
    chain = MarkovChain.from_matrix("intensity", [[-1.0, 0.0, 0.0], [1.0, diagonal, 0.0],
                                                  [0.0, 5e-11, 0.0]])
    assert validate(chain).passed and closed_sets(chain).closed_sets == [[3]]
    with pytest.raises(ValueError, match="flow leaves state 2"):
        sim.simulate_ctmc(chain, 1, 1e6, 0)
    assert sim.simulate_ctmc(chain, 1, 1e-9, 0).states == [1]  # state 2 is not entered
    assert sim.simulate_ctmc(chain, 3, 1e6, 0).states == [3]


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
    t_max = 3000.0
    traj = sim.simulate_ctmc(chain, 2, t_max, seed=17)
    assert set(traj.states) == {2, 3, 5, 9}
    occ = sim.empirical_distribution(traj)
    # a time average over the window after the 10% burn-in has the CLT variance
    # 2 pi_s D_ss / window, where D = (Pi - Q_S)^-1 - Pi is the deviation matrix of
    # the sector's generator Q_S and Pi holds the uniform law in every column
    sector = [1, 2, 4, 8]
    p = 0.25
    pi = np.full((4, 4), p)
    deviation = np.linalg.inv(pi - chain.matrix[np.ix_(sector, sector)]) - pi
    window = 0.9 * t_max
    for k, s in enumerate(sector):
        sigma = math.sqrt(2.0 * p * deviation[k, k] / window)
        assert abs(occ[s] - p) < 3.0 * sigma


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


@pytest.mark.parametrize("spec,kind,init", [((2, 4), "intensity", 6), ((1, 6), "transition", 3)])
def test_occupation_deviation_equals_the_per_state_loop(spec, kind, init):
    chain = build_an_markov(ChainSpec(*spec), kind)
    traj = (sim.simulate_ctmc(chain, init, 200.0, seed=5) if kind == "intensity"
            else sim.simulate_dtmc(chain, init, 5000, seed=5))
    summary = sim.occupation_summary(chain, traj)
    home, occupation = summary["closed_set"], summary["occupation"]
    p = 1.0 / len(home)
    dev = max(abs(occupation[s - 1] - p) for s in home)
    sigma = math.sqrt(p * (1.0 - p) / (len(traj.states) - 1))
    assert summary["max_dev_sigma"].hex() == (dev / sigma).hex()


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
     480, "f5c23cd19e8eaa6651e75e920ddd5f3efd2bb03d79103334505ac5927490be67",
     "cc0c15c0b0fbfd1a9f0d98f637e168094dc9a89403b49d364b52f90715a90e2f"),
    (lambda: sim.simulate_ctmc(build_ladder_markov(LadderParams(18.0, 1.0, 0.0), 4, "intensity"),
                               37, 5.0, seed=5),
     4538, "e2ab72c5126ee6d26a4ce1915eceeb2a2f0509dbd1dc2665d4fba1ce67784631",
     "9ce49b49312210d7dd295e5c5ab252b2485c85d814b882b26781ed063ef15cfa"),
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


def test_empirical_distribution_peaks_no_higher_than_numpy_on_the_lists():
    """Reading the path through np.fromiter and clipping and differencing in place
    traces no higher a peak than handing its lists to np.clip, np.diff and
    np.subtract, and gives the same bits."""
    traj = GOLDEN_PATHS[2][0]()  # the ladder L = 4 CTMC path, 4538 states
    cut = 0.5

    def on_the_lists():
        held = np.diff(np.clip(traj.times, cut, traj.t_max), append=traj.t_max)
        out = np.bincount(np.subtract(traj.states, 1), weights=held, minlength=traj.num_states)
        return out / out.sum()

    peaks, results = [], []
    for run in (lambda: sim.empirical_distribution(traj, cut), on_the_lists):
        tracemalloc.start()
        try:
            results.append(run())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert results[0].tobytes() == results[1].tobytes()
    assert peaks[0] <= peaks[1]


def _support_cdf(support: np.ndarray, values: np.ndarray) -> tuple[list[int], list[float]]:
    """Reference jump law: the states (1-based) of a support and the Kahan-compensated
    CDF of its positive probabilities, one scalar step at a time; its last entry is
    exactly 1."""
    total = 0.0
    comp = 0.0
    cdf = []
    for p in values.tolist():
        y = p - comp
        t = total + y
        comp = (t - total) - y
        total = t
        cdf.append(total)
    if abs(total - 1.0) > sim._CDF_SLACK:
        raise ValueError(f"column mass {total} is not 1 within {sim._CDF_SLACK}")
    cdf[-1] = 1.0
    return (support + 1).tolist(), cdf


def _absorbing_columns(chain):
    """Whether each column holds no off-diagonal entry above EDGE_THRESHOLD: the
    absorbing rule of `closed_sets`, read from the dense matrix."""
    leaves = chain.matrix > markov.EDGE_THRESHOLD
    np.fill_diagonal(leaves, False)
    return ~leaves.any(axis=0)


def _laws(chain):
    """The jump laws as the sampler of the chain's kind builds them: an intensity
    matrix jumps at its exit rate, and its absorbing columns are divided by 1.0.
    law_of(j) reads column j's (states, cdf) off the packed arrays, or raises the
    error that a path entering state j + 1 raises."""
    if chain.kind == "transition":
        targets, cdf, spans = sim._jump_laws(chain)
    else:
        rates = -chain.entries.diagonal()
        targets, cdf, spans = sim._jump_laws(
            chain, np.where(_absorbing_columns(chain), 1.0, rates))
    assert len(spans) == chain.num_states + 1 and spans[0] is None
    assert len(targets) == len(cdf) and targets.typecode == "q" and cdf.typecode == "d"

    def law_of(j):
        span = spans[j + 1]
        if isinstance(span, ValueError):
            raise span
        lo, hi = span
        return targets[lo:hi].tolist(), cdf[lo:hi].tolist()

    return law_of


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
    law_of = _laws(chain)
    for j in range(chain.num_states):
        column = np.clip(m[:, j], 0.0, None)
        if chain.kind == "intensity":
            column[j] = 0.0
            column /= -m[j, j]
        states, cdf = law_of(j)
        assert cdf[-1] == 1.0
        assert column[states[-1] - 1] > 0.0
        assert column[np.asarray(states) - 1].min() > 0.0
        drawn = states[bisect.bisect_right(cdf, largest_u)]
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
    all_rows, all_values, ptr = sim._column_supports(chain)
    law_of, absorbing = _laws(chain), _absorbing_columns(chain)
    for j in range(chain.num_states):
        rows, values = all_rows[ptr[j]:ptr[j + 1]], all_values[ptr[j]:ptr[j + 1]]
        dense = np.flatnonzero(np.clip(m[:, j], 0.0, None))
        assert np.array_equal(rows, dense) and values.tobytes() == m[dense, j].tobytes()
        if chain.kind == "intensity" and not absorbing[j]:
            assert law_of(j) == _support_cdf(*_dense_law(chain, j))
    # the subnormal entry is in state 1's column but not among its jumps
    if m[1, 0] == 5e-324:
        assert all_rows[ptr[0]:ptr[1]].tolist() == [1, 2]
        assert law_of(0)[0] == [3]


@pytest.mark.parametrize("chain", _STRUCTURE_CHAINS)
def test_closed_sets_equal_with_the_symmetry_flag_off(chain):
    """The closed sets equal scipy's sink components; a lattice chain's flow is
    two-way, so it takes the components route and Tarjan does not run."""
    assert closed_sets(chain) == scipy_closed_sets(chain.matrix)
    if chain.spec is not None:
        with mock.patch.object(markov, "_strongly_connected_components",
                               side_effect=AssertionError("Tarjan ran on a lattice chain")):
            closed_sets(chain)


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
    """The samplers with a dense column gather per first visit and one scalar draw
    per step, as the reference for the paths the samplers draw. A CTMC takes its
    holding times from Philox(seed) and its jump uniforms from the stream that
    Philox(seed).jumped() starts."""
    rng = jump_rng = sim._rng(seed)
    if chain.kind == "intensity":
        rng = np.random.Generator(np.random.Philox(seed))
        jump_rng = np.random.Generator(np.random.Philox(seed).jumped())
    m = chain.matrix
    # a transition matrix takes rate 1, and no state is absorbing
    absorbing = _absorbing_columns(chain) & (chain.kind == "intensity")
    states, times, t, current, cache = [init], [0.0], 0.0, init, {}
    for _ in range(horizon if chain.kind == "transition" else 10 ** 9):
        if current not in cache:
            rate = 1.0 if chain.kind == "transition" else -float(m[current - 1, current - 1])
            cache[current] = ((0.0, [], []) if absorbing[current - 1]
                              else (rate, *_support_cdf(*_dense_law(chain, current - 1))))
        rate, targets, cdf = cache[current]
        if chain.kind == "intensity":
            if rate == 0.0:
                break
            t += rng.exponential(1.0 / rate)
            if t >= horizon:
                break
            times.append(t)
        current = targets[bisect.bisect_right(cdf, jump_rng.random())]
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


def _off_mass(kind):
    # column 2 sums to 1 + 5e-11: within validate's tolerance, not within the CDF slack
    if kind == "transition":
        return np.array([[1.0, 0.5], [0.0, 0.5 + 5e-11]])
    return np.array([[0.0, 1.0 + 5e-11], [0.0, -1.0]])


@pytest.mark.parametrize("chain", _STRUCTURE_CHAINS + [
    pytest.param(MarkovChain.from_matrix(kind=kind, spec=None, matrix=_off_mass(kind)),
                 id=f"off_mass_{name}") for name, kind in _KINDS.items()])
def test_jump_laws_equal_the_scalar_kahan_reference(chain):
    """Every column's law from the one vectorised pass equals the scalar loop over
    its jumps bit for bit, and a column whose mass is off raises the same error,
    only when its law is asked for."""
    all_rows, all_values, ptr = sim._column_supports(chain)
    rates = -chain.entries.diagonal()
    law_of, absorbing = _laws(chain), _absorbing_columns(chain)
    for j in range(chain.num_states):
        if chain.kind == "intensity" and absorbing[j]:
            continue  # absorbing: the sampler never asks for its law
        jump = all_values[ptr[j]:ptr[j + 1]] / (rates[j] if chain.kind == "intensity" else 1.0)
        try:
            want = _support_cdf(all_rows[ptr[j]:ptr[j + 1]][jump != 0.0], jump[jump != 0.0])
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                law_of(j)
            continue
        assert law_of(j) == want


def test_off_mass_column_raises_only_on_a_path_that_visits_it():
    p = MarkovChain.from_matrix(kind="transition", spec=None, matrix=_off_mass("transition"))
    q = MarkovChain.from_matrix(kind="intensity", spec=None, matrix=_off_mass("intensity"))
    assert sim.simulate_dtmc(p, 1, 50, seed=1).states == [1] * 51
    assert sim.simulate_ctmc(q, 1, 50.0, seed=1).states == [1]
    with pytest.raises(ValueError, match="column mass 1.00000000005 is not 1"):
        sim.simulate_dtmc(p, 2, 50, seed=1)
    with pytest.raises(ValueError, match="column mass 1.00000000005 is not 1"):
        sim.simulate_ctmc(q, 2, 50.0, seed=1)


@pytest.mark.parametrize("cut", [1023, sim._UNIFORM_CHUNK, 1500],
                         ids=["last_of_first_chunk", "first_of_second_chunk", "second_chunk"])
def test_ctmc_horizon_cut_equals_the_dense_route(cut):
    """The horizon is crossed by the cut-th holding time (0-based): on the last draw of
    a chunk, on the first of the next, or inside it. A t_max equal to an entry time
    ends the path before that entry."""
    chain = build_ladder_markov(LadderParams(18.0, 1.0, 0.0), 3, "intensity")
    _, times = _dense_route_path(chain, 40, 6.0, 5)
    assert len(times) > 2 * sim._UNIFORM_CHUNK
    t_max = times[cut + 1]
    traj = sim.simulate_ctmc(chain, 40, t_max, seed=5)
    assert len(traj.states) == cut + 1 and traj.times[-1] < t_max
    assert (traj.states, traj.times) == _dense_route_path(chain, 40, t_max, 5)


def _leaky_q():
    # 2 and 3 swap at rate 1; 2 leaks into the absorbing state 1 at rate 1e-3
    return np.array([[0.0, 1e-3, 0.0], [0.0, -1.001, 1.0], [0.0, 1.0, -1.0]])


def _recording_walk(monkeypatch) -> list:
    """Record the class and the length of the CDF that each `_walk` call receives."""
    seen = []
    walk = sim._walk

    def recording(laws, path, uniforms):
        seen.append((laws[1].__class__, len(laws[1])))
        return walk(laws, path, uniforms)

    monkeypatch.setattr(sim, "_walk", recording)
    return seen


@pytest.mark.parametrize("seed,events,containers", [(4, 698, [array]), (7, 1298, [array, list])],
                         ids=["first_chunk", "second_chunk"])
def test_ctmc_absorbed_mid_chunk_equals_the_dense_route(seed, events, containers, monkeypatch):
    """The laws have 3 entries, so the second chunk walks on lists: a path absorbed
    there holds as it does on the arrays."""
    chain = MarkovChain.from_matrix(kind="intensity", spec=None, matrix=_leaky_q())
    seen = _recording_walk(monkeypatch)
    traj = sim.simulate_ctmc(chain, 3, 1e9, seed=seed)
    assert len(traj.states) - 1 == events and traj.states[-1] == 1
    assert [cls for cls, _ in seen] == containers
    assert (traj.states, traj.times) == _dense_route_path(chain, 3, 1e9, seed)


@pytest.mark.parametrize("kind,horizon,switched", [
    ("transition", 150, False), ("transition", 600, True),
    ("intensity", 10.0, False), ("intensity", 30.0, True),
], ids=["P_short", "P_long", "Q_short", "Q_long"])
def test_path_switches_to_lists_at_the_first_chunk_past_its_entries(kind, horizon, switched,
                                                                   monkeypatch):
    """A path walks on the packed arrays while it has made fewer jumps than they have
    entries (219 for A_n (2, 4) P, 162 for Q) and on lists from the first chunk
    boundary at or past that count, with the same path either way."""
    chunk = 16
    monkeypatch.setattr(sim, "_UNIFORM_CHUNK", chunk)
    seen = _recording_walk(monkeypatch)
    chain = build_an_markov(ChainSpec(2, 4), kind)
    if kind == "transition":
        traj = sim.simulate_dtmc(chain, 30, horizon, seed=5)
    else:
        traj = sim.simulate_ctmc(chain, 30, horizon, seed=5)
    entries = seen[0][1]
    assert entries == (219 if kind == "transition" else 162)
    first = -(-entries // chunk) * chunk  # the first chunk boundary at or past entries
    assert [cls for cls, _ in seen] == [array if k * chunk < first else list
                                        for k in range(len(seen))]
    assert (seen[-1][0] is list) == switched
    assert (traj.states, traj.times) == _dense_route_path(chain, 30, horizon, 5)


def test_dtmc_switch_on_a_chunk_boundary_equals_the_dense_route(monkeypatch):
    """A_n (1, 4) P has 38 entries: in chunks of 19 the path walks on lists from its
    38th jump, the first of its third chunk."""
    monkeypatch.setattr(sim, "_UNIFORM_CHUNK", 19)
    seen = _recording_walk(monkeypatch)
    chain = build_an_markov(ChainSpec(1, 4), "transition")
    traj = sim.simulate_dtmc(chain, 8, 200, seed=3)
    assert seen[0][1] == 38
    assert [cls for cls, _ in seen] == [array] * 2 + [list] * 9
    assert (traj.states, traj.times) == _dense_route_path(chain, 8, 200, 3)


def _leaks_into_off_mass(kind):
    # 1 and 2 swap and leak into 3; column 3's mass is off as in _off_mass
    m = np.array([[0.0, 0.999, 0.5], [0.999, 0.0, 0.5 + 5e-11], [1e-3, 1e-3, 0.0]])
    if kind == "intensity":
        np.fill_diagonal(m, -1.0)
    return MarkovChain.from_matrix(kind=kind, spec=None, matrix=m)


@pytest.mark.parametrize("kind,seed", [("transition", 3), ("intensity", 11)])
def test_off_mass_column_entered_after_the_switch_raises_as_the_dense_route(kind, seed,
                                                                           monkeypatch):
    """The laws have 6 entries; these paths first enter state 3 in their second chunk,
    on lists, and raise the error the dense route raises."""
    chain = _leaks_into_off_mass(kind)
    seen = _recording_walk(monkeypatch)
    with pytest.raises(ValueError, match="column mass 1.00000000005 is not 1") as got:
        if kind == "transition":
            sim.simulate_dtmc(chain, 1, 5000, seed)
        else:
            sim.simulate_ctmc(chain, 1, 5000.0, seed)
    assert [cls for cls, _ in seen] == [array, list]
    with pytest.raises(ValueError) as want:
        _dense_route_path(chain, 1, 5000, seed)
    assert str(got.value) == str(want.value)


def test_ctmc_raises_only_for_states_entered_before_the_horizon():
    """The jump chain runs ahead of the clock within a chunk, so it reaches states
    that the path never enters; an off-mass column or a vanishing holding time there
    raises nothing. The first holding time ends at t1; a horizon of t1 stops the path
    in state 1, one just past t1 enters state 2."""
    first_hold = float(np.random.Generator(np.random.Philox(0)).standard_exponential())
    off_mass = MarkovChain.from_matrix(kind="intensity", spec=None,
                                       matrix=np.array([[-1.0, 1.0 + 5e-11], [1.0, -1.0]]))
    stalls = MarkovChain.from_matrix(kind="intensity", spec=None,
                                     matrix=np.array([[-1e-3, 1e20], [1e-3, -1e20]]))
    for chain, t1, error in ((off_mass, first_hold, "column mass"),  # 1 / 1e-3 is 1e3 exactly
                             (stalls, first_hold * 1e3, "cannot advance")):
        traj = sim.simulate_ctmc(chain, 1, t1, seed=0)
        assert traj.states == [1] and traj.times == [0.0]
        with pytest.raises(ValueError, match=error):
            sim.simulate_ctmc(chain, 1, math.nextafter(t1, math.inf), seed=0)


def _random_chain(kind, dim, weights):
    """A column-stochastic or intensity matrix from non-negative weights; an all-zero
    column gives an absorbing state."""
    m = np.array(weights, dtype=float).reshape(dim, dim)
    if kind == "transition":
        sums = m.sum(axis=0)
        m = np.where(sums > 0, m / np.where(sums > 0, sums, 1.0), np.eye(dim))
    else:
        np.fill_diagonal(m, 0.0)
        m -= np.diag(m.sum(axis=0))
    return MarkovChain.from_matrix(kind=kind, spec=None, matrix=m)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["transition", "intensity"]),
       st.integers(1, 5).flatmap(lambda dim: st.tuples(
           st.just(dim),
           st.lists(st.sampled_from([0.0, 0.0, 1e-3, 0.25, 1.0, 3.0, 7.5]),
                    min_size=dim * dim, max_size=dim * dim),
           st.integers(1, dim))),
       st.integers(0, 2 ** 32), st.sampled_from([1, 3, sim._UNIFORM_CHUNK]),
       st.floats(0.01, 200.0))
def test_random_small_chains_equal_the_dense_route(kind, shape, seed, chunk, horizon):
    dim, weights, init = shape
    chain = _random_chain(kind, dim, weights)
    horizon = int(horizon * 10) if kind == "transition" else horizon
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "_UNIFORM_CHUNK", chunk)
        if kind == "transition":
            traj = sim.simulate_dtmc(chain, init, horizon, seed)
        else:
            traj = sim.simulate_ctmc(chain, init, horizon, seed)
    assert (traj.states, traj.times) == _dense_route_path(chain, init, horizon, seed)


def test_wide_ctmc_path_packs_its_laws_in_few_objects():
    """The packed laws take no Python object per entry and no list per visited state:
    a dim-4096 ladder path with thousands of first visits stays far below the
    21 MiB that per-state lists of the CDF and targets took."""
    chain = build_ladder_markov(LadderParams(16.0, 0.0, 0.0), 6, "intensity")
    sim.simulate_ctmc(build_an_markov(ChainSpec(1, 3), "intensity"), 2, 5.0, seed=1)
    tracemalloc.start()
    try:
        traj = sim.simulate_ctmc(chain, 1101, 10.0, seed=271041745)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(set(traj.states)) > 3000
    assert peak < 12 * 1024 ** 2


@pytest.mark.parametrize("chain,init,t_max", [
    (build_ladder_markov(LadderParams(18.0, 1.0, 0.0), 3, "intensity"), 40, 10.0),
    (MarkovChain.from_matrix(kind="intensity", spec=None, matrix=_absorbing_q()), 3, 50.0),
], ids=["ladder_3_Q", "absorbing_Q"])
def test_ctmc_path_does_not_depend_on_the_chunk(chain, init, t_max, monkeypatch):
    want = sim.simulate_ctmc(chain, init, t_max, seed=13)
    assert len(want.states) > 1
    for chunk in (1, 7):
        monkeypatch.setattr(sim, "_UNIFORM_CHUNK", chunk)
        assert sim.simulate_ctmc(chain, init, t_max, seed=13) == want


def test_ctmc_draws_each_stream_in_chunks(monkeypatch):
    made = []
    generator = np.random.Generator

    class CountingGenerator:
        def __init__(self, bits):
            self.rng, self.calls = generator(bits), []
            made.append(self)

        def __getattr__(self, name):
            def counted(*args, **kwargs):
                self.calls.append((name, args, kwargs))
                return getattr(self.rng, name)(*args, **kwargs)
            return counted

    chunk = 64
    monkeypatch.setattr(sim, "_UNIFORM_CHUNK", chunk)
    monkeypatch.setattr(np.random, "Generator", CountingGenerator)
    chain = build_an_markov(ChainSpec(2, 4), "intensity")
    traj = sim.simulate_ctmc(chain, 30, 40.0, seed=5)
    # one holding time and one uniform per event, and one more of each for the
    # holding time that crosses the horizon
    draws = len(traj.states)
    assert draws > 4 * chunk
    holds, uniforms = made
    assert holds.calls == [("standard_exponential", (chunk,), {})] * math.ceil(draws / chunk)
    assert uniforms.calls == [("random", (chunk,), {})] * math.ceil(draws / chunk)


def test_ctmc_holding_times_and_jumps_follow_the_chain():
    """Holding times in each state pass a Kolmogorov-Smirnov test against Exp(rate),
    and the states jumped to a chi-square test against the column's law."""
    q = np.array([[-1.0, 0.5, 2.0], [0.25, -1.5, 1.0], [0.75, 1.0, -3.0]])
    chain = MarkovChain.from_matrix(kind="intensity", spec=None, matrix=q)
    traj = sim.simulate_ctmc(chain, 1, 10_000.0, seed=2)
    states, holds = np.array(traj.states[:-1]), np.diff(traj.times)  # the last is cut
    assert len(holds) > 10_000
    for j in range(3):
        rate = -q[j, j]
        assert stats.kstest(holds[states == j + 1], "expon", args=(0, 1 / rate)).pvalue > 1e-3
        targets = np.array(traj.states[1:])[states == j + 1]
        observed = np.bincount(targets - 1, minlength=3)
        law = np.clip(q[:, j], 0.0, None) / rate
        assert observed[j] == 0
        support = law > 0
        expected = law[support] * observed.sum()
        assert stats.chisquare(observed[support], expected).pvalue > 1e-3


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
