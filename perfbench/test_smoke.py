"""Smoke test of the benchmark harness at the smallest sizes.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import lattice_markov  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _run(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_reports_the_declared_metrics(trace, section):
    result = _run(trace)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["linalg.symmetric_eigenvalues.calls"] > 0
        assert metrics["simulate.events"] > 0
        assert metrics["trace.layers_s"] + metrics["trace.glue_s"] <= metrics["trace.wall_s"]


def _answers():
    return {r.label: (r, r.call()) for r in workloads.build("smoke", 3)}


def test_oracles_accept_the_package_answers():
    for label, (request, result) in _answers().items():
        assert request.oracle()(result) == [], label


def _edit_json(result, edit):
    code, text = result
    payload = json.loads(text)
    edit(payload)
    return code, json.dumps(payload)


def _pass_all(payload):
    for check in payload["checks"]:
        check["pass"] = True
    payload["pass"] = True


def test_oracles_reject_wrong_answers():
    answers = _answers()

    def find(prefix):
        return next(v for k, v in answers.items() if k.startswith(prefix))

    wrong = []
    request, result = find("verify an --n 2")
    wrong.append((request, _edit_json(result, _pass_all)))
    wrong.append((request, (0, result[1])))
    request, result = find("spectrum")
    wrong.append((request, _edit_json(
        result, lambda p: p["eigenvalues"].__setitem__(0, p["eigenvalues"][0] + 1e-6))))
    request, result = find("markov")
    wrong.append((request, _edit_json(result, lambda p: p["closed_sets"].pop())))
    request, result = find("simulate ladder")
    wrong.append((request, _edit_json(result, lambda p: p["closed_set"].pop())))
    request, result = find("simulate an")
    outside = next(i for i in range(len(json.loads(result[1])["occupation"]))
                   if i + 1 not in json.loads(result[1])["closed_set"])
    wrong.append((request, _edit_json(
        result, lambda p: p["occupation"].__setitem__(outside, 1e-3))))
    request, (full, half) = find("transition_semigroup")
    wrong.append((request, (full * (1 + 1e-6), half)))
    wrong.append((request, (full, np.eye(len(half)))))
    for request, result in wrong:
        assert request.oracle()(result), request.label


def test_tracer_patches_every_binding_and_restores_it():
    from lattice_markov import cli, markov, simulate
    original = markov.closed_sets
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert simulate.closed_sets is markov.closed_sets is cli.closed_sets
        assert lattice_markov.closed_sets is markov.closed_sets
        assert markov.closed_sets is not original
    finally:
        tracer.uninstall()
    assert simulate.closed_sets is original and cli.closed_sets is original


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.spans = [["cli.verify", 0.0, 10.0, None, 0],
                    ["verify.verify_an", 1.0, 9.0, 0, 0],
                    ["linalg.symmetric_eigenvalues", 2.0, 5.0, 1, 0],
                    ["markov.validate", 6.0, 7.0, 1, 0]]
    assert tracer.self_times() == [2.0, 4.0, 3.0, 1.0]
    metrics = tracer.metrics(wall_s=10.5, overhead_s=0.5, passes=1)
    assert metrics["trace.layers_s"] == 8.0 and metrics["trace.glue_s"] == 2.0
    assert metrics["trace.overhead_s"] == 0.5
