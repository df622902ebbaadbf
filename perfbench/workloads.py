"""Request lists of the benchmark workloads.

Each workload is a closed loop with one client: run.py sends the next
request only after the previous one has returned. Requests go through
``lattice_markov.cli.main`` in-process, or through the public library
functions where no CLI verb exists. Sizes are fixed; the workload seed
picks only initial states, sampler seeds and the ladder parameter a, and
every sampler gets its ``--seed`` explicitly so that LATTICE_MARKOV_SEED
in the environment cannot change the random stream.

Why these workloads:

- certify: the paper's certification path. The eigensolver does most of
  the work, the uniformized semigroup most of the rest.
- analyse: two requests at the dense guard (dim 4096). Closed sets and
  assembly do most of the work; the sampler runs in its wide regime, where
  nearly every event enters a new state and builds a new CDF.
- sample: small state spaces and long paths, so the CDF cache almost
  always hits and per-event cost dominates. It contrasts the dense
  interior ladder kernel (18, 1, 0) with the sparse boundary one (16, 0, 0).
  Each path is a tenth of the first design's (tmax 1500, 800000 steps,
  tmax 20000, 600000 steps), so that a pass takes about 1.5 s and a run
  ends close to --seconds; the paths still hold 24k-134k events on at most
  256 distinct states, so the cache still almost always hits.
- smoke: the smallest sizes of every request kind, for the harness test.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

from lattice_markov import cli, markov
from lattice_markov.lattice_an import ChainSpec

import oracles


@dataclass(frozen=True)
class Request:
    label: str
    span: str  # root span of the traced run: cli.<verb> or request.semigroup
    call: Callable[[], object]
    # builds the answer check; run.py calls it after set-up, before the first request
    oracle: Callable[[], Callable[[object], list[str]]]


def _cli(argv: list[str], oracle) -> Request:
    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()
    return Request(label=" ".join(argv), span=f"cli.{argv[0]}", call=call, oracle=oracle)


def verify_an(n: int, L: int) -> Request:
    return _cli(["verify", "an", "--n", str(n), "--L", str(L)],
                partial(oracles.check_verify_an, n, L))


def verify_ladder(L: int, a: float) -> Request:
    return _cli(["verify", "ladder", "--L", str(L), "--a", repr(a), "--b", "0", "--c", "0"],
                oracles.check_verify_ladder)


def spectrum_an(n: int, L: int) -> Request:
    return _cli(["spectrum", "an", "--n", str(n), "--L", str(L)],
                partial(oracles.check_spectrum, n, L))


def markov_an(n: int, L: int, kind: str) -> Request:
    return _cli(["markov", "an", "--n", str(n), "--L", str(L), "--kind", kind],
                partial(oracles.check_markov_an, n, L))


def semigroup(n: int, L: int, t: float) -> Request:
    def call():
        # module attributes, so that the traced run sees these calls
        chain = markov.build_an_markov(ChainSpec(n, L), "intensity")
        return markov.transition_semigroup(chain, t), markov.transition_semigroup(chain, t / 2)
    return Request(label=f"transition_semigroup an n={n} L={L} t={t} and t/2",
                   span="request.semigroup", call=call,
                   oracle=partial(oracles.check_semigroup, n, L, t))


def _horizon(kind: str, horizon) -> list[str]:
    return ["--steps", str(horizon)] if kind == "P" else ["--tmax", repr(float(horizon))]


def simulate_an(rng: random.Random, n: int, L: int, kind: str, horizon) -> Request:
    init = rng.choice(oracles.largest_sector(n, L))
    seed = rng.randrange(2 ** 31)
    home = next(s for s in oracles.an_sectors(n, L) if init in s)
    argv = ["simulate", "an", "--n", str(n), "--L", str(L), "--kind", kind,
            "--init", str(init), "--seed", str(seed)] + _horizon(kind, horizon)
    return _cli(argv, partial(oracles.check_simulate, home, init, seed, (n + 1) ** L))


def simulate_ladder(rng: random.Random, L: int, kind: str, a: float, b: float,
                    horizon) -> Request:
    """Ladder chains with a + 2b >= 16 and c = 0 are irreducible: the whole
    state space is one closed set."""
    dim = 4 ** L
    init = rng.randint(1, dim)
    seed = rng.randrange(2 ** 31)
    argv = ["simulate", "ladder", "--L", str(L), "--kind", kind, "--a", repr(a),
            "--b", repr(b), "--c", "0", "--init", str(init), "--seed", str(seed)]
    return _cli(argv + _horizon(kind, horizon),
                partial(oracles.check_simulate, range(1, dim + 1), init, seed, dim))


def certify(rng: random.Random) -> list[Request]:
    requests = [verify_an(n, L) for n, L in ((1, 6), (1, 7), (2, 4), (2, 5), (3, 4))]
    requests += [verify_ladder(L, rng.uniform(16.0, 20.0)) for L in range(2, 6)]
    requests.append(spectrum_an(1, 8))
    requests += [semigroup(1, 9, 1.0), semigroup(2, 6, 0.7)]
    return requests


def analyse(rng: random.Random) -> list[Request]:
    return [markov_an(1, 12, "P"),
            simulate_ladder(rng, 6, "Q", 16.0, 0.0, 10)]


def sample(rng: random.Random) -> list[Request]:
    return [simulate_ladder(rng, 4, "Q", 18.0, 1.0, 150),
            simulate_an(rng, 1, 8, "P", 80_000),
            simulate_an(rng, 2, 6, "Q", 2_000),
            simulate_ladder(rng, 3, "P", 16.0, 0.0, 60_000)]


def smoke(rng: random.Random) -> list[Request]:
    return [verify_an(1, 3), verify_an(2, 3), verify_ladder(2, rng.uniform(16.0, 20.0)),
            spectrum_an(1, 4), semigroup(1, 4, 0.5), markov_an(1, 4, "Q"),
            simulate_ladder(rng, 2, "Q", 16.0, 0.0, 5), simulate_an(rng, 1, 4, "P", 200)]


WORKLOADS = {"certify": certify, "analyse": analyse, "sample": sample, "smoke": smoke}


def build(workload: str, seed: int) -> list[Request]:
    return WORKLOADS[workload](random.Random(seed))
