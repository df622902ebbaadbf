"""In-memory spans around the package's public functions.

The traced pass wraps each function below at every name it is reachable
through. The package modules import each other's functions with
``from .x import f``, so ``markov.symmetric_eigenvalues``,
``simulate.closed_sets`` and ``cli.closed_sets`` are separate bindings of
one function object, and each must be patched for the span to appear.

A span records its name, start, end, parent span and request id. A span's
self time is its duration minus the durations of its child spans; calls
happen on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "lattice_markov"

# Public functions by layer, named <module>.<function> relative to the package.
LAYERS = {
    "assembly": ("lattice_an.hamiltonian", "markov.build_an_markov",
                 "markov.build_ladder_markov"),
    "spectra": ("linalg.symmetric_eigenvalues", "markov.spectrum_coincidence",
                "lattice_an.chain_spectrum"),
    "semigroup": ("linalg.intensity_exp", "markov.transition_semigroup"),
    "structure": ("markov.closed_sets", "markov.absorbing_states",
                  "markov.stationary_distribution", "markov.validate"),
    "sampling": ("simulate.simulate_dtmc", "simulate.simulate_ctmc",
                 "simulate.occupation_summary"),
    "suites": ("verify.verify_an", "verify.verify_ladder"),
}
FUNCTIONS = tuple(f for names in LAYERS.values() for f in names)
# Root spans, opened by the benchmark around each request.
ROOTS = ("cli.verify", "cli.spectrum", "cli.markov", "cli.simulate", "request.semigroup")


def _eigen_work(args, kwargs, result) -> dict[str, float]:
    dim = len(args[0]) if args else len(kwargs["a"])
    return {"linalg.symmetric_eigenvalues.work_dim3": float(dim) ** 3}


def _closed_sets_work(args, kwargs, result) -> dict[str, float]:
    chain = args[0] if args else kwargs["chain"]
    return {"markov.closed_sets.entries": float(chain.num_states) ** 2}


def _sampler_work(args, kwargs, result) -> dict[str, float]:
    return {"simulate.events": float(len(result.states) - 1),
            "simulate.distinct_states": float(len(set(result.states)))}


# Work counters computed from a call's arguments and return value.
WORK = {
    "linalg.symmetric_eigenvalues": _eigen_work,
    "markov.closed_sets": _closed_sets_work,
    "simulate.simulate_dtmc": _sampler_work,
    "simulate.simulate_ctmc": _sampler_work,
}
COUNTERS = ("linalg.symmetric_eigenvalues.work_dim3", "markov.closed_sets.entries",
            "simulate.events", "simulate.distinct_states")


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for name in FUNCTIONS:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    for name in COUNTERS:
        units[name] = "count"
    units["simulate.cdf_hit_ratio"] = "ratio"
    for root in ROOTS:
        units[f"{root}.total_s"] = "s"
    for name in ("trace.wall_s", "trace.layers_s", "trace.glue_s", "trace.overhead_s"):
        units[name] = "s"
    return units


class Tracer:
    """Collects spans and work counters while its wrappers are installed."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: list[list] = []  # [name, start, end, parent, request]
        self.work: dict[str, float] = defaultdict(float)
        self.request: object = None
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.request])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def _wrap(self, name: str, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if work is not None:
                for key, value in work(args, kwargs, result).items():
                    self.work[key] += value
            return result
        return traced

    def install(self) -> None:
        """Patch every binding of every traced function in the loaded package modules."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for name in FUNCTIONS:
            module_name, func = name.rsplit(".", 1)
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, func, None)
            if original is None:  # moved or removed: its metrics read 0
                continue
            wrapped = self._wrap(name, original)
            for module in modules:
                for attr in [a for a, v in vars(module).items() if v is original]:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, start, end, _, _) in enumerate(self.spans)]

    def metrics(self, wall_s: float, overhead_s: float, passes: int) -> dict[str, float]:
        """Per-layer metrics, each averaged over the traced passes.

        wall_s is the mean traced pass and overhead_s the paired
        traced-minus-untraced time that run.py measures.
        """
        out = {name: 0.0 for name in metric_units()}
        layers_s = glue_s = 0.0
        for (name, start, end, _, _), own in zip(self.spans, self.self_times()):
            if name in ROOTS:
                out[f"{name}.total_s"] += end - start
                glue_s += own
            else:
                out[f"{name}.self_s"] += own
                out[f"{name}.calls"] += 1
                layers_s += own
        out.update(self.work)
        out = {name: value / passes for name, value in out.items()}
        events = out["simulate.events"]
        out["simulate.cdf_hit_ratio"] = (1.0 - out["simulate.distinct_states"] / events
                                         if events else 0.0)
        out["trace.wall_s"] = wall_s
        out["trace.layers_s"] = layers_s / passes
        out["trace.glue_s"] = glue_s / passes
        out["trace.overhead_s"] = overhead_s
        return out

    def write(self, path: str, header: dict) -> None:
        """Write the header, then one JSON line per span, times relative to the tracer's start."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": start - self.origin,
                                     "end": end - self.origin, "parent": parent,
                                     "request": request}) + "\n")
