#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of lattice_markov.

Run from the root of a checkout; the package is imported from ./src:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 40 --trace 0

Workloads (see workloads.py): certify, analyse, sample, and smoke, the
smallest sizes for the harness test. One run repeats passes over the
workload's request list, one request at a time, for about --seconds: it
makes at least two passes and then starts none that would end later. It
checks every answer against oracles.py.

--trace 0 reports the end-to-end metrics, with tracing off:
  wall_s       wall time of one pass over the request list, the mean over
               the run's passes
  cpu_s        the same for process user+sys CPU; it exceeds wall_s when
               BLAS threads run
  setup_s      median over fresh processes, started before the first
               pass, of the time from process start until the package is
               imported, the inputs are generated and BLAS is warmed up
  peak_rss_mb  peak resident set of this process after the first pass, MiB
failed_frac (failed / attempted requests) is printed with them; a request
that exceeds its time budget counts as failed.

Why the mean: the speed of a shared host swings between about two thirds
and 1.2 times its median, in stretches of a second to a minute. The
median or minimum of a request over the passes follows the stretch that
request happened to fall in; the mean over all passes averages every
stretch of the run, and it spread least from run to run when the three
were compared on the same timings.

--trace 1 sends each request untraced and then traced, right after each
other, and reports the per-layer metrics of spans.py; trace.overhead_s is
the sum over requests of the median over passes of traced minus untraced
wall time.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Lines before it, starting with '#', give
the run record and any failures. A record and, when traced, the spans are
also written to .perfbench-out/.

Seeds: any integer. HELD_OUT_SEED was not run while the benchmark was
written; re-check a performance claim on it too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HELD_OUT_SEED = 7919
SETUP_PROBES = 15
MIN_PASSES = 2
REQUEST_BUDGET_S = 60.0
RUN_DEADLINE_S = 150.0  # no request starts later, so a run ends well within 180 s
OUT_DIR = ".perfbench-out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

STARTED = time.perf_counter()


class RequestTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RequestTimeout


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def prepare(root: Path) -> int:
    """Cap BLAS threads at the core count and put ./src first on the path.

    Must run before numpy is imported. Returns the thread cap.
    """
    threads = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    sys.path.insert(0, str(root / "src"))
    return threads


def setup(root: Path, workload: str, seed: int):
    """Import the package, generate the inputs and warm up BLAS; returns the requests."""
    import numpy as np
    import lattice_markov

    src = (root / "src").resolve()
    if src not in Path(lattice_markov.__file__).resolve().parents:
        raise SystemExit(f"error: lattice_markov imported from {lattice_markov.__file__}, "
                         f"not from {src}")
    import workloads

    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    requests = workloads.build(workload, seed)
    a = np.random.default_rng(seed).random((256, 256))
    np.linalg.eigvalsh(a + a.T)
    a @ a
    return requests


def _now() -> float:
    # CLOCK_MONOTONIC is system-wide, so readings of two processes compare
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def probe_setup(root: Path, workload: str, seed: int) -> float:
    """Seconds from starting a fresh process until its setup is done."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed), "--seconds", "0"]
    started = _now()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise SystemExit(f"error: setup probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - started


def send(request, check, deadline: float, failures: list, tracer=None) -> tuple[float, float]:
    """Send one request under its time budget and check the answer.

    Returns the request's wall and CPU seconds; the check is not timed.
    A failure is appended as (request label, reason).
    """
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        failures.append((request.label, "not started before the run deadline"))
        return 0.0, 0.0
    t0, c0 = time.perf_counter(), _cpu_s()
    try:
        signal.setitimer(signal.ITIMER_REAL, min(REQUEST_BUDGET_S, remaining))
        try:
            if tracer is None:
                result = request.call()
            else:
                with tracer.span(request.span):
                    result = request.call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall, cpu = time.perf_counter() - t0, _cpu_s() - c0
    except RequestTimeout:
        failures.append((request.label, "over its time budget"))
        return wall, cpu
    except Exception as exc:  # a failing request must not stop the run
        failures.append((request.label, f"raised {exc!r}"))
        return wall, cpu
    problems = check(result)
    del result  # so that it does not add to the next request's peak memory
    if problems:
        failures.append((request.label, "; ".join(problems)))
    return wall, cpu


def run_pass(requests, checks, deadline: float, failures: list,
             tracer=None) -> tuple[list[float], list[float], list[float]]:
    """Send each request after the previous one returns.

    With a tracer, each request is sent twice in a row, untraced and then
    traced, so that both see the same host speed. Returns the wall and CPU
    seconds of each untraced request and the wall seconds of each traced one.
    """
    wall = [0.0] * len(requests)
    cpu = [0.0] * len(requests)
    traced = [0.0] * len(requests)
    for index, (request, check) in enumerate(zip(requests, checks)):
        wall[index], cpu[index] = send(request, check, deadline, failures)
        if tracer is not None:
            tracer.request = index
            tracer.install()
            try:
                traced[index] = send(request, check, deadline, failures, tracer)[0]
            finally:
                tracer.uninstall()
    return wall, cpu, traced


def _mean_pass(passes: list[list[float]]) -> float:
    return statistics.fmean(map(sum, passes))


def _paired_overhead(traced: list[list[float]], untraced: list[list[float]]) -> float:
    """Sum over requests of the median over passes of traced minus untraced wall time."""
    return sum(statistics.median(t - u for t, u in zip(ts, us))
               for ts, us in zip(zip(*traced), zip(*untraced)))


def run_record(root: Path, args, threads: int) -> dict:
    import numpy as np

    try:
        git = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)})
        sha = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in (root / "src").rglob("*.py"))
    return {"workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
            "seconds": args.seconds, "trace": args.trace, "git_sha": sha,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": threads, "src_lines": src_lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready <monotonic clock>' and exit (times setup)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "lattice_markov" / "__init__.py").is_file():
        print("error: run from the root of a checkout that holds src/lattice_markov",
              file=sys.stderr)
        return 2
    threads = prepare(root)
    if args.setup_only:
        setup(root, args.workload, args.seed)
        print(f"ready {_now()!r}")
        return 0

    requests = setup(root, args.workload, args.seed)
    # built before the first request, so that the checks' references are a
    # constant part of peak_rss_mb rather than allocated next to a result
    checks = [request.oracle() for request in requests]
    import spans

    signal.signal(signal.SIGALRM, _on_alarm)
    deadline = STARTED + RUN_DEADLINE_S
    failures: list[tuple[str, str]] = []
    untraced: list[tuple[list[float], list[float]]] = []
    traced: list[list[float]] = []
    tracer = spans.Tracer() if args.trace else None
    setup_times = [] if tracer else [probe_setup(root, args.workload, args.seed)
                                     for _ in range(SETUP_PROBES)]
    measure_start = time.perf_counter()
    while True:
        wall, cpu, traced_wall = run_pass(requests, checks, deadline, failures, tracer)
        untraced.append((wall, cpu))
        if tracer is not None:
            traced.append(traced_wall)
        if len(untraced) == 1:
            # later passes reuse the first pass's memory, so the peak is reached here
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - measure_start
        # stop before a pass that would end after --seconds, so a run lasts about that long
        next_end = elapsed * (len(untraced) + 1) / len(untraced)
        if (len(untraced) >= MIN_PASSES and next_end > args.seconds) \
                or time.perf_counter() > deadline:
            break
    attempted = len(requests) * (len(untraced) + len(traced))

    if tracer is None:
        units = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
        values = {
            "wall_s": _mean_pass([w for w, _ in untraced]),
            "cpu_s": _mean_pass([c for _, c in untraced]),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        units = spans.metric_units()
        values = tracer.metrics(_mean_pass(traced),
                                _paired_overhead(traced, [w for w, _ in untraced]),
                                len(traced))

    record = run_record(root, args, threads)
    record["request_wall_s"] = [w for w, _ in untraced]
    record["traced_request_wall_s"] = traced
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(out_dir / f"{stem}.json", "w", encoding="ascii") as fh:
        json.dump({"record": record, "failures": failures, "result": result}, fh, indent=1)
    if tracer is not None:
        tracer.write(str(out_dir / f"{stem}.spans.jsonl"), record)

    print("# record " + json.dumps(record))
    for label, reason in failures:
        print(f"# FAILED {label}: {reason}")
    for name, unit in units.items():
        print(f"# {name} {values[name]:.6g} {unit}")
    print(f"# failed_frac {len(failures) / attempted:.6g} ratio")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
