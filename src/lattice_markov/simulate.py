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
vectorised pass (`_jump_laws`), and packed into flat arrays that a step
searches by span (`_walk`), so a first visit costs what a repeat visit does.
A step on the arrays makes a Python float per probe and a Python int per
jump, so a path that has made as many jumps as the laws have entries swaps
the arrays for lists at its next chunk (`_outrun`): at most two Python
objects per entry, made once per path, for about what its jumps have cost.
A continuous path takes the entry times of each chunk from one cumulative sum.
"""

from __future__ import annotations

import csv
import math
import operator
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .markov import MarkovChain, _whole_number, closed_sets, decode, validate
from .reporting import DEFAULT_TOL

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
            if not all(map(operator.lt, self.times, islice(self.times, 1, None))):
                raise ValueError("times must be strictly increasing")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _column_supports(chain: MarkovChain) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The positive entries of the chain's matrix grouped by column, read from its
    entries: 0-based rows (ascending within each column), their values, and
    pointers such that column j holds rows[ptr[j]:ptr[j + 1]]."""
    rows, cols, values, dim = chain.entries
    positive = values > 0
    return rows[positive], values[positive], np.searchsorted(cols[positive], np.arange(dim + 1))


def _jump_laws(chain: MarkovChain, rates: np.ndarray | None = None):
    """The jump law of every column, built in one pass and packed: state s jumps to
    targets[lo:hi] (1-based) with the Kahan-compensated CDF cdf[lo:hi], whose last
    entry is exactly 1, where (lo, hi) = spans[s]; spans[0] is unused.

    The probabilities are the positive entries of column j divided by rates[j], but
    for quotients that underflow to zero; without rates they are the entries. Kahan
    runs over all columns in lockstep, with the float64 operations of a scalar loop
    in the same order. A column whose mass is not 1 gets, in place of its span, the
    ValueError that a path raises when it enters that state.
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
    law[ptr[1:][lengths > 0] - 1] = 1.0
    rows += 1  # the states, 1-based
    targets, cdf = array("q"), array("d")
    targets.frombytes(rows.astype(np.int64, copy=False).view(np.uint8))
    cdf.frombytes(law.view(np.uint8))
    bounds = ptr.tolist()
    spans: list = [None, *zip(bounds, bounds[1:])]
    for j in np.flatnonzero(np.abs(mass - 1.0) > _CDF_SLACK).tolist():
        spans[j + 1] = ValueError(f"column mass {float(mass[j])} is not 1 within {_CDF_SLACK}")
    return targets, cdf, spans


def _outrun(laws, jumps: int):
    """The laws with their targets and CDF as lists once a path has made as many
    jumps as they have entries, else as they are. A lookup in a list reads a
    stored Python object where one in an array makes a new one, and the copy
    costs about what the jumps made so far did, so a path pays at most about
    twice the cheaper of the two."""
    targets, cdf, spans = laws
    if jumps < len(cdf) or cdf.__class__ is list:
        return laws
    return targets.tolist(), cdf.tolist(), spans


def _walk(laws, path: list[int], uniforms: list[float]) -> int:
    """Run the jump chain from path[-1], appending the state it enters on each
    uniform, and return the number of jumps; it stops early in a state whose span
    is a marker. The targets and CDF are arrays or, once the path has outrun
    them (`_outrun`), lists; bisect_right and indexing read both alike."""
    targets, cdf, spans = laws
    start = len(path)
    current = path[-1]
    append = path.append
    for u in uniforms:
        span = spans[current]
        if span.__class__ is not tuple:
            break
        lo, hi = span
        current = targets[bisect_right(cdf, u, lo, hi)]
        append(current)
    return len(path) - start


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
    laws = _jump_laws(chain)
    rng = _rng(seed)
    states = [init]
    # Philox gives the same doubles in a batch as one by one, so the path does not
    # depend on the chunk; a fixed chunk bounds memory for any number of steps
    for start in range(0, steps, _UNIFORM_CHUNK):
        laws = _outrun(laws, start)
        uniforms = rng.random(min(_UNIFORM_CHUNK, steps - start)).tolist()
        if _walk(laws, states, uniforms) < len(uniforms):
            raise laws[2][states[-1]]  # the path entered a state whose column's mass is off
    return Trajectory(kind="dtmc", states=states, times=None, t_max=None,
                      num_states=chain.num_states, init=init, seed=seed)


def simulate_ctmc(chain: MarkovChain, init: int, t_max: float, seed: int) -> Trajectory:
    """Sample a continuous-time path up to t_max from an intensity matrix.

    In state j the holding time is exponential with rate |q_jj| and the
    jump lands on i with probability q_ij / |q_jj|; states with zero exit
    rate hold forever.

    Each chunk of draws first runs the jump chain alone, up to an absorbing
    state or one whose mass is off; the entry times then come from one
    cumulative sum, which adds in the order of a scalar loop, and the path is
    cut at the first time that reaches t_max.
    """
    if chain.kind != "intensity":
        raise ValueError("continuous-time simulation needs an intensity matrix")
    init = _initial_state(chain, init)
    if not 0 < t_max < math.inf:  # a NaN or infinite horizon is never reached
        raise ValueError("t_max must be finite and positive")
    rates = -chain.entries.diagonal()  # exit rates -q_jj
    absorbing = rates <= DEFAULT_TOL.abs_tol
    laws = _jump_laws(chain, np.where(absorbing, 1.0, rates))
    spans = laws[2]
    # the mean holding time 1 / rate of each state, 1-based; an absorbing state
    # ends the walk (span None) and never holds
    scale = np.zeros(len(spans))
    np.divide(1.0, rates, out=scale[1:], where=~absorbing)
    for j in np.flatnonzero(absorbing).tolist():
        spans[j + 1] = None
    # holding times and jump uniforms come from two streams, each drawn in chunks
    bits = np.random.Philox(seed)
    hold_rng, jump_rng = np.random.Generator(bits), np.random.Generator(bits.jumped())
    states = [init]
    times = [0.0]
    while True:
        holds = hold_rng.standard_exponential(_UNIFORM_CHUNK)
        laws = _outrun(laws, len(states) - 1)
        walk = [states[-1]]
        jumps = _walk(laws, walk, jump_rng.random(_UNIFORM_CHUNK).tolist())
        # numpy draws exponential(scale) as scale * standard_exponential()
        clock = np.empty(jumps + 1)
        clock[0] = times[-1]
        np.multiply(holds[:jumps], scale[np.fromiter(walk, np.intp, jumps)], out=clock[1:])
        np.add.accumulate(clock, out=clock)  # sequential: clock[k + 1] = clock[k] + hold
        reached = clock >= t_max
        end = int(reached.argmax()) if reached.any() else jumps + 1  # walk[:end] precede t_max
        stalled = np.flatnonzero(clock[1:end] == clock[:end - 1])
        if stalled.size:
            k = int(stalled[0])
            raise ValueError(f"holding time in state {walk[k]} vanishes at t={float(clock[k])}: "
                             "the path cannot advance in float64")
        states += walk[1:end]
        times += clock[1:end].tolist()
        if end <= jumps:
            break  # the horizon is reached
        if jumps < _UNIFORM_CHUNK:  # the walk stopped in the path's last state
            if spans[walk[-1]] is None:
                break  # absorbing: holds forever
            raise spans[walk[-1]]  # the column's mass is off
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
        if cut >= len(traj.states):
            raise ValueError("burn-in removed the whole trajectory")
        states = np.fromiter(islice(traj.states, cut, None), np.intp, len(traj.states) - cut)
        states -= 1
        out = np.bincount(states, minlength=traj.num_states).astype(float)
        return out / out.sum()
    assert traj.times is not None and traj.t_max is not None
    cut = 0.1 * traj.t_max if burn_in is None else float(burn_in)
    if cut >= traj.t_max:
        raise ValueError("burn-in removed the whole trajectory")
    # holding time of each visit inside [cut, t_max]; a visit outside adds 0.0.
    # the entry times are clipped and differenced in place, in the array that reads them
    n = len(traj.states)
    held = np.fromiter(traj.times, float, n)
    np.clip(held, cut, traj.t_max, out=held)
    np.subtract(held[1:], held[:-1], out=held[:-1])
    held[-1] = traj.t_max - held[-1]
    states = np.fromiter(traj.states, np.intp, n)
    states -= 1
    out = np.bincount(states, weights=held, minlength=traj.num_states)
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
        "occupation": occupation.tolist(),
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
