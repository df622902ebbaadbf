"""Trajectory sampling for the discrete- and continuous-time chains.

Randomness comes from counter-based Philox generators seeded per
trajectory, so identical (chain, init, seed) inputs reproduce identical
trajectories on every platform. A discrete path draws its uniforms from
Philox(seed); a continuous path draws its holding times from Philox(seed)
and its jump uniforms from Philox(seed).jumped(), a second stream 2**128
draws ahead. Each stream is drawn in fixed chunks, which gives the same
doubles as one draw at a time, so a path does not depend on the chunk.

Categorical draws use inverse-CDF lookup over Kahan-compensated cumulative
sums built over the support of the state's column (its positive entries
only), so no draw can land on a zero-probability state; the last support
entry absorbs rounding slack up to 1e-12. A path reads the chain only
through its sorted entries: the positive entries of each column
(`_column_supports`) and the exit rates on the diagonal, so no dense matrix
is built. The jump laws of all columns are built once per path, in one
vectorised pass (`_jump_laws`); a first visit only slices its column.
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass

import numpy as np

from .markov import MarkovChain, _whole_number, closed_sets, decode, validate
from .reporting import DEFAULT_TOL, Tolerance

_CDF_SLACK = 1e-12
_UNIFORM_CHUNK = 1024  # values drawn per rng call, per stream


@dataclass
class Trajectory:
    """A sampled path. times holds state entry times (continuous case only)."""

    kind: str  # "dtmc" | "ctmc"
    states: list[int]  # 1-based state indices
    times: list[float] | None
    t_max: float | None
    num_states: int
    init: int
    seed: int

    def __post_init__(self) -> None:
        if not self.states:
            raise ValueError("trajectory must contain at least the initial state")
        if self.times is not None:
            if len(self.times) != len(self.states):
                raise ValueError("times must align with states")
            if any(b <= a for a, b in zip(self.times, self.times[1:])):
                raise ValueError("times must be strictly increasing")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _chunked(draw):
    """The values of draw(size), drawn _UNIFORM_CHUNK at a time, one by one."""
    while True:
        yield from draw(_UNIFORM_CHUNK).tolist()


def _column_supports(chain: MarkovChain) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The positive entries of the chain's matrix grouped by column, read from its
    entries: 0-based rows (ascending within each column), their values, and
    pointers such that column j holds rows[ptr[j]:ptr[j + 1]]."""
    rows, cols, values, dim = chain.entries
    positive = values > 0
    return rows[positive], values[positive], np.searchsorted(cols[positive], np.arange(dim + 1))


def _jump_laws(chain: MarkovChain, rates: np.ndarray | None = None):
    """The jump law of every column, built in one pass: law_of(j) gives the states
    (1-based) that state j + 1 jumps to and the Kahan-compensated CDF of their
    probabilities, whose last entry is exactly 1.

    The probabilities are the positive entries of column j divided by rates[j], but
    for quotients that underflow to zero; without rates they are the entries. Kahan
    runs over all columns in lockstep, with the float64 operations of a scalar loop
    in the same order. A column whose mass is not 1 raises only when law_of(j) is asked.
    """
    rows, law, ptr = _column_supports(chain)  # law: the probabilities, then the CDF
    if rates is not None:
        law /= np.repeat(rates, np.diff(ptr))
        kept = law != 0.0
        if not kept.all():
            rows, law = rows[kept], law[kept]
            ptr = np.concatenate(([0], np.cumsum(kept)))[ptr]
    lengths = np.diff(ptr)
    mass, comp = np.zeros(len(lengths)), np.zeros(len(lengths))
    for k in range(lengths.max(initial=0)):
        j = np.flatnonzero(lengths > k)  # the columns whose k-th entry is next
        at = ptr[j] + k
        y = law[at] - comp[j]
        t = mass[j] + y
        comp[j] = (t - mass[j]) - y
        mass[j] = t
        law[at] = t
    rows += 1  # the states, 1-based
    bounds = ptr.tolist()

    def law_of(j: int) -> tuple[list[int], list[float]]:
        if abs(mass[j] - 1.0) > _CDF_SLACK:
            raise ValueError(f"column mass {float(mass[j])} is not 1 within {_CDF_SLACK}")
        lo, hi = bounds[j], bounds[j + 1]
        cdf = law[lo:hi].tolist()
        cdf[-1] = 1.0
        return rows[lo:hi].tolist(), cdf

    return law_of


def _initial_state(chain: MarkovChain, init) -> int:
    """init as a state of the chain, once the chain has passed `validate`."""
    report = validate(chain)
    if not report.passed:
        raise ValueError(f"invalid {chain.kind} matrix: {report.residuals}")
    init = _whole_number(init, "initial state")
    if not 1 <= init <= chain.num_states:
        raise ValueError(f"initial state {init} out of range")
    return init


def simulate_dtmc(chain: MarkovChain, init: int, steps: int, seed: int) -> Trajectory:
    """Sample a discrete-time path of the given length from a transition matrix."""
    if chain.kind != "transition":
        raise ValueError("discrete-time simulation needs a transition matrix")
    init = _initial_state(chain, init)
    steps = _whole_number(steps, "steps")
    if steps < 0:
        raise ValueError("steps must be non-negative")
    law_of = _jump_laws(chain)
    rng = _rng(seed)
    cdf_cache: dict[int, tuple[list[int], list[float]]] = {}
    states = [init]
    current = init
    # Philox gives the same doubles in a batch as one by one, so the path does not
    # depend on the chunk; a fixed chunk bounds memory for any number of steps
    for start in range(0, steps, _UNIFORM_CHUNK):
        for u in rng.random(min(_UNIFORM_CHUNK, steps - start)).tolist():
            if current not in cdf_cache:
                cdf_cache[current] = law_of(current - 1)
            targets, cdf = cdf_cache[current]
            current = targets[bisect.bisect_right(cdf, u)]
            states.append(current)
    return Trajectory(kind="dtmc", states=states, times=None, t_max=None,
                      num_states=chain.num_states, init=init, seed=seed)


def simulate_ctmc(chain: MarkovChain, init: int, t_max: float, seed: int,
                  tol: Tolerance = DEFAULT_TOL) -> Trajectory:
    """Sample a continuous-time path up to t_max from an intensity matrix.

    In state j the holding time is exponential with rate |q_jj| and the
    jump lands on i with probability q_ij / |q_jj|; states with zero exit
    rate hold forever.
    """
    if chain.kind != "intensity":
        raise ValueError("continuous-time simulation needs an intensity matrix")
    init = _initial_state(chain, init)
    if not 0 < t_max < math.inf:  # a NaN or infinite horizon is never reached
        raise ValueError("t_max must be finite and positive")
    rates = -chain.entries.diagonal()  # exit rates -q_jj
    absorbing = rates <= tol.abs_tol
    law_of = _jump_laws(chain, np.where(absorbing, 1.0, rates))
    # holding times and jump uniforms come from two streams, each drawn in chunks
    bits = np.random.Philox(seed)
    holds = _chunked(np.random.Generator(bits).standard_exponential)
    uniforms = _chunked(np.random.Generator(bits.jumped()).random)
    bisect_right = bisect.bisect_right  # looked up once: the loop runs once per event
    states = [init]
    times = [0.0]
    current = init
    t = 0.0
    # per state: the mean holding time 1 / rate (0.0 if absorbing), jump targets, CDF
    cdf_cache: dict[int, tuple[float, list[int], list[float]]] = {}
    for hold, u in zip(holds, uniforms):
        if current not in cdf_cache:
            j = current - 1
            cdf_cache[current] = ((0.0, [], []) if absorbing[j]
                                  else (1.0 / float(rates[j]), *law_of(j)))
        scale, targets, cdf = cdf_cache[current]
        if scale == 0.0:
            break  # absorbing: holds forever
        # numpy draws exponential(scale) as scale * standard_exponential()
        t_next = t + hold * scale
        if t_next >= t_max:
            break
        if t_next == t:
            raise ValueError(f"holding time in state {current} vanishes at t={t}: "
                             "the path cannot advance in float64")
        t = t_next
        current = targets[bisect_right(cdf, u)]
        states.append(current)
        times.append(t)
    return Trajectory(kind="ctmc", states=states, times=times, t_max=t_max,
                      num_states=chain.num_states, init=init, seed=seed)


def empirical_distribution(traj: Trajectory, burn_in: float | None = None) -> np.ndarray:
    """Occupation frequencies after burn-in; sums to one.

    Discrete paths are counted per step (burn_in is a whole number of
    steps, default 10 percent); continuous paths are weighted by holding
    time (burn_in is a time, default 10 percent of the horizon, and the
    final holding interval extends to the horizon).
    """
    if burn_in is not None and (not burn_in >= 0 or  # NaN is refused too
                                traj.kind == "dtmc" and not float(burn_in).is_integer()):
        raise ValueError("burn-in must be non-negative, and a whole number of steps for a DTMC")
    if traj.kind == "dtmc":
        cut = int(0.1 * (len(traj.states) - 1)) if burn_in is None else int(burn_in)
        window = traj.states[cut:]
        if not window:
            raise ValueError("burn-in removed the whole trajectory")
        out = np.bincount(np.subtract(window, 1), minlength=traj.num_states).astype(float)
        return out / out.sum()
    assert traj.times is not None and traj.t_max is not None
    cut = 0.1 * traj.t_max if burn_in is None else float(burn_in)
    if cut >= traj.t_max:
        raise ValueError("burn-in removed the whole trajectory")
    # holding time of each visit inside [cut, t_max]; a visit outside adds 0.0
    held = np.diff(np.clip(traj.times, cut, traj.t_max), append=traj.t_max)
    out = np.bincount(np.subtract(traj.states, 1), weights=held, minlength=traj.num_states)
    return out / out.sum()


def occupation_summary(chain: MarkovChain, traj: Trajectory,
                       burn_in: float | None = None) -> dict:
    """Summary of a run against the closed set containing its initial state.

    max_dev_sigma is the worst deviation of the empirical occupation from
    the uniform law on that closed set, in units of the binomial standard
    error with the number of recorded moves as sample size.
    """
    occupation = empirical_distribution(traj, burn_in)
    analysis = closed_sets(chain)
    home = next((s for s in analysis.closed_sets if traj.init in s), None)
    summary = {
        "seed": traj.seed,
        "init": traj.init,
        "occupation": [float(x) for x in occupation],
        "closed_set": home,
        "max_dev_sigma": None,
    }
    moves = len(traj.states) - 1
    if home is not None and moves > 0:
        p = 1.0 / len(home)
        sigma = math.sqrt(p * (1.0 - p) / moves)
        if sigma > 0:
            dev = max(abs(float(occupation[s - 1]) - p) for s in home)
            summary["max_dev_sigma"] = dev / sigma
    return summary


def trajectory_to_csv(traj: Trajectory, path, spec=None) -> None:
    """Write (step_or_time, state_index, decoded_label) rows."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step_or_time", "state_index", "label"])
        for k, state in enumerate(traj.states):
            stamp = k if traj.times is None else traj.times[k]
            label = "" if spec is None else str(decode(state, spec))
            writer.writerow([stamp, state, label])
