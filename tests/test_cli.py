import argparse
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lattice_markov import cli, linalg, markov, verify
from lattice_markov.linalg import load_matrix_csv, load_matrix_json
from lattice_markov.reporting import VerificationReport


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_an_rank_one_passes(capsys):
    code, out, _ = run_cli(["verify", "an", "--n", "1", "--L", "3"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    names = [c["name"] for c in report["checks"]]
    assert names == sorted(names)
    assert {"casimir_quadratic", "casimir_cubic", "qybe_braid", "chain_symmetry",
            "markov_transition", "markov_intensity"} <= set(names)
    assert "wall_time_s" in report and "version" in report


def test_verify_an_rank_two_reports_known_failures(capsys):
    code, out, _ = run_cli(["verify", "an", "--n", "2", "--L", "3"], capsys)
    assert code == 1
    report = json.loads(out)
    failed = {c["name"] for c in report["checks"] if not c["pass"]}
    assert failed == {"casimir_cubic", "tl_relations"}


def test_verify_ladder_passes(capsys):
    code, out, _ = run_cli(["verify", "ladder", "--a", "16", "--b", "0", "--c", "0"], capsys)
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_ladder_positivity_failure(capsys):
    code, out, _ = run_cli(["verify", "ladder", "--a", "0", "--b", "0", "--c", "0"], capsys)
    assert code == 1
    report = json.loads(out)
    failed = {c["name"] for c in report["checks"] if not c["pass"]}
    assert "ladder_positivity" in failed


@pytest.mark.parametrize("target", ["an", "ladder"])
def test_verify_nan_tolerance_exits_two(target, capsys):
    code, out, err = run_cli(["verify", target, "--tol", "nan"], capsys)
    assert code == 2 and out == ""
    assert err == "error: tolerances must be non-negative\n"


@pytest.mark.parametrize("target", ["an", "ladder"])
@pytest.mark.parametrize("tol", ["inf", "-inf"])
def test_verify_infinite_tolerance_exits_two(target, tol, capsys):
    args = ["verify", target, f"--tol={tol}"] + (["--a", "0", "--b", "0", "--c", "0"]
                                                 if target == "ladder" else ["--n", "2"])
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert err == "error: tolerances must be finite\n"


@pytest.mark.parametrize("verb", [["verify", "ladder"], ["markov", "ladder"],
                                  ["simulate", "ladder", "--tmax", "1"]])
@pytest.mark.parametrize("flag,value", [("--a", "nan"), ("--b", "inf"), ("--c", "-inf")])
def test_non_finite_ladder_parameters_exit_two(verb, flag, value, capsys):
    code, out, err = run_cli(verb + [f"{flag}={value}"], capsys)
    params = {"--a": "16.0", "--b": "0.0", "--c": "0.0", flag: str(float(value))}
    assert code == 2 and out == ""
    assert err == (f"error: ladder parameters a, b, c must be finite, got "
                   f"a={params['--a']}, b={params['--b']}, c={params['--c']}\n")


@pytest.mark.parametrize("args", [
    ["verify", "an", "--n", "1", "--L", "3", "--tol", "0"],
    ["verify", "an", "--n", "2", "--L", "3", "--tol", "1e-17"],
    ["verify", "all", "--L", "2", "--tol", "0"],
], ids=["an_n1_tol0", "an_n2_tol1e-17", "all_tol0"])
def test_sub_resolution_tolerance_gives_a_full_report(args, capsys):
    """A tolerance below roundoff fails checks, but every check is reported: the
    stationary SVD's rank cutoff is floored at roundoff, so it still finds the
    one null vector of each closed set instead of exiting 2."""
    code, out, err = run_cli(args, capsys)
    assert code == 1 and err == ""
    names = [c["name"] for c in json.loads(out)["checks"]]
    _, default_out, _ = run_cli([a for a in args if a not in ("--tol", "0", "1e-17")], capsys)
    assert names == [c["name"] for c in json.loads(default_out)["checks"]]
    assert "stationary_uniform" in names


def test_residual_equal_to_the_tolerance_passes(capsys):
    """A check passes when each residual is at most tol, as markov.validate does: at
    tol 0 exactly the checks with a nonzero residual fail. At (1, 3) the stationary
    laws' LU solves are exact, so stationary_uniform passes too."""
    code, out, _ = run_cli(["verify", "an", "--n", "1", "--L", "3", "--tol", "0"], capsys)
    assert code == 1
    checks = json.loads(out)["checks"]
    assert any(c["tol"] == 0.0 and c["pass"] for c in checks)
    for check in checks:
        assert check["pass"] == all(abs(v) <= check["tol"] for v in check["residuals"].values())
    assert {c["name"] for c in checks if not c["pass"]} == {"spectrum_affine_intensity"}
    assert not VerificationReport.from_residuals("nan", {"r": math.nan}, 1.0).passed


def test_verify_an_peaks_below_one_dense_matrix():
    """Spectra, stationary laws and the Q pi residual read the chains' entries and
    gather one sector at a time, so the peak stays below one dense dim x dim float64
    matrix (8 MiB at dim 1024)."""
    verify.verify_an(1, 4)  # imports and caches outside the traced call
    tracemalloc.start()
    try:
        verify.verify_an(1, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 1024 ** 2


def test_numerics_read_entries_not_the_dense_matrix(monkeypatch, capsys):
    """Only export scatters a chain or Hamiltonian into its dense matrix."""
    def refuse(self):
        raise AssertionError("a dense matrix was read")

    monkeypatch.setattr(linalg._HeldAsEntries, "matrix", property(refuse))
    for argv in (["verify", "an", "--n", "1", "--L", "5"], ["verify", "ladder", "--L", "3"],
                 ["spectrum", "an", "--n", "2", "--L", "4"],
                 ["markov", "an", "--n", "1", "--L", "4", "--kind", "Q"],
                 ["simulate", "ladder", "--L", "2", "--kind", "Q", "--tmax", "5"],
                 ["simulate", "an", "--L", "4", "--kind", "P", "--steps", "50"]):
        assert run_cli(argv, capsys)[0] == 0, argv
    chain = markov.build_an_markov(markov.ChainSpec(2, 3), "intensity")
    assert markov.transition_semigroup(chain, 0.5).shape == (27, 27)
    assert markov.stationary_distribution(chain, [2, 4, 10]).sum() == pytest.approx(1.0)
    with pytest.raises(AssertionError, match="dense matrix"):
        chain.matrix


@pytest.mark.parametrize("argv", [
    ["verify", "an", "--out", "{path}"],
    ["build", "an", "--kind", "H", "--out", "{path}"],
    ["markov", "an", "--matrix-out", "{path}"],
    ["simulate", "an", "--tmax", "1", "--trajectory-out", "{path}"],
], ids=["verify_out", "build_out", "markov_matrix_out", "simulate_trajectory_out"])
def test_unwritable_output_path_exits_two(argv, tmp_path, capsys):
    """Exit 1 means a failed check, so a path that cannot be written is a usage
    error: one error line, no traceback."""
    path = tmp_path / "no-such-directory" / "file"
    code, out, err = run_cli([arg.format(path=path) for arg in argv], capsys)
    assert code == 2 and out == ""
    assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"


def test_bad_flags_exit_two(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "nonsense"])
    assert err.value.code == 2


def test_guard_violation_exit_two(capsys):
    code, _, err = run_cli(["spectrum", "an", "--n", "1", "--L", "13"], capsys)
    assert code == 2
    assert "guard" in err


@pytest.mark.parametrize("args", [
    ["markov", "ladder", "--L", "2", "--a", "1e308", "--kind", "P"],
    ["markov", "ladder", "--L", "2", "--a", "1e308", "--kind", "Q"],
    ["verify", "ladder", "--L", "3", "--a", "1e307"],
    ["verify", "ladder", "--L", "3", "--a", "3e306"],
], ids=["markov_P", "markov_Q", "verify", "verify_certificates"])
def test_overflowing_ladder_parameters_exit_two(args, capsys):
    """Parameters too large for float64 are a usage error: one error line, no
    traceback, no numpy warning, and no chain of spurious absorbing states. At
    a = 3e306 the density assembles, but the certificates' norms overflow."""
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_memory_error_exit_two(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 128. MiB")
    monkeypatch.setattr(cli, "build_an_markov", exhausted)
    code, _, err = run_cli(["markov", "an", "--n", "1", "--L", "4"], capsys)
    assert code == 2
    assert err.startswith("error: out of memory")


def test_build_transition_matrix_csv(tmp_path, capsys):
    out_path = tmp_path / "p.csv"
    code, _, _ = run_cli(["build", "an", "--kind", "P", "--n", "1", "--L", "2",
                          "--format", "csv", "--out", str(out_path)], capsys)
    assert code == 0
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float)
    assert np.array_equal(load_matrix_csv(out_path), swap)


def test_build_tl_element_json(tmp_path, capsys):
    out_path = tmp_path / "e.json"
    code, _, _ = run_cli(["build", "an", "--kind", "E", "--n", "1",
                          "--out", str(out_path)], capsys)
    assert code == 0
    expected = np.array([[0, 0, 0, 0], [0, 1, -1, 0], [0, -1, 1, 0], [0, 0, 0, 0]], dtype=float)
    assert np.array_equal(load_matrix_json(out_path), expected)


def test_build_ladder_density_csv(tmp_path, capsys):
    out_path = tmp_path / "hpp.csv"
    code, _, _ = run_cli(["build", "ladder", "--kind", "Hpp", "--a", "16",
                          "--b", "0", "--c", "0", "--format", "csv",
                          "--out", str(out_path)], capsys)
    assert code == 0
    m = load_matrix_csv(out_path)
    assert m.shape == (16, 16)
    assert m[0, 0] == 82.0  # 66 + a
    assert np.allclose(m.sum(axis=0), 4 * (18 + 64))


def test_spectrum_verb(capsys):
    code, out, _ = run_cli(["spectrum", "an", "--n", "1", "--L", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 1 and payload["L"] == 2
    assert np.allclose(sorted(payload["eigenvalues"]), [-2.0, 2.0, 2.0, 2.0], atol=1e-9)


def test_markov_verb(capsys):
    code, out, _ = run_cli(["markov", "an", "--n", "1", "--L", "3", "--kind", "P"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["absorbing"] == [1, 8]
    assert [2, 3, 5] in payload["closed_sets"]
    assert payload["reducible"] is True


@pytest.mark.parametrize("model,absorbing", [
    (["an", "--n", "1", "--L", "3"], [1, 8]),
    (["an", "--n", "2", "--L", "3"], [1, 14, 27]),  # the all-equal states
    (["ladder", "--L", "3", "--a", "18", "--b", "1"], []),
])
def test_markov_verb_absorbing_same_for_p_and_q(model, absorbing, capsys):
    reports = []
    for kind in ("P", "Q"):
        code, out, _ = run_cli(["markov"] + model + ["--kind", kind], capsys)
        assert code == 0
        reports.append(json.loads(out))
    p, q = reports
    assert p["absorbing"] == q["absorbing"] == absorbing
    assert p["closed_sets"] == q["closed_sets"]


def test_markov_verb_matrix_export(tmp_path, capsys):
    out_path = tmp_path / "q.json"
    code, out, _ = run_cli(["markov", "an", "--n", "1", "--L", "2", "--kind", "Q",
                            "--matrix-out", str(out_path)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["matrix_ref"] == str(out_path)
    m = load_matrix_json(out_path)
    assert np.allclose(m.sum(axis=0), 0.0)


def test_simulate_verb_uniform_law(capsys):
    code, out, _ = run_cli(["simulate", "an", "--n", "1", "--L", "3", "--kind", "Q",
                            "--init", "2", "--tmax", "1000", "--seed", "7"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["closed_set"] == [2, 3, 5]
    occ = payload["occupation"]
    for s in (2, 3, 5):
        assert abs(occ[s - 1] - 1.0 / 3.0) < 0.05
    assert payload["max_dev_sigma"] < 3.5


def test_simulate_requires_horizon(capsys):
    code, _, err = run_cli(["simulate", "an", "--kind", "Q"], capsys)
    assert code == 2
    assert "tmax" in err


@pytest.mark.parametrize("argv", [
    ["simulate", "an", "--kind", "P", "--steps", "5", "--tmax", "1"],
    ["simulate", "an", "--kind", "Q", "--tmax", "1", "--steps", "5"],
], ids=["tmax_with_P", "steps_with_Q"])
def test_simulate_refuses_the_other_kinds_horizon(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ("--tmax" if "P" in argv else "--steps") in err


def test_simulate_seed_env_override(capsys, monkeypatch):
    # the seed is 0 without --seed; the environment does not set it
    monkeypatch.setenv("LATTICE_MARKOV_SEED", "99")
    code, out, _ = run_cli(["simulate", "an", "--n", "1", "--L", "3", "--kind", "P",
                            "--init", "2", "--steps", "50"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 0


def test_simulate_trajectory_export(tmp_path, capsys):
    path = tmp_path / "traj.csv"
    code, out, _ = run_cli(["simulate", "an", "--n", "1", "--L", "3", "--kind", "P",
                            "--init", "2", "--steps", "25", "--seed", "1",
                            "--trajectory-out", str(path)], capsys)
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 27


def test_verify_report_to_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(["verify", "an", "--n", "1", "--L", "3",
                            "--out", str(path)], capsys)
    assert code == 0
    assert out == ""
    report = json.loads(path.read_text())
    assert report["pass"] is True


def test_deterministic_reports(capsys):
    code1, out1, _ = run_cli(["simulate", "an", "--n", "1", "--L", "3", "--kind", "Q",
                              "--init", "2", "--tmax", "100", "--seed", "5"], capsys)
    code2, out2, _ = run_cli(["simulate", "an", "--n", "1", "--L", "3", "--kind", "Q",
                              "--init", "2", "--tmax", "100", "--seed", "5"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


class _ReadRecorder(argparse.Namespace):
    """A namespace that records the name of every attribute read from it."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "__dict__").setdefault("_read", set()).add(name)
        return object.__getattribute__(self, name)


_VERB_ARGVS = {
    "verify": [["an", "--n", "1", "--L", "2"],
               ["ladder", "--L", "2", "--a", "16", "--b", "0", "--c", "0", "--tol", "1e-9"]],
    "build": [["an", "--kind", "H", "--n", "1", "--L", "2"], ["an", "--kind", "E"],
              ["an", "--kind", "P", "--format", "csv"], ["ladder", "--kind", "Q", "--L", "2"],
              ["ladder", "--kind", "Hpp", "--a", "17", "--b", "1", "--c", "0"],
              ["ladder", "--kind", "H"], ["ladder", "--kind", "H0", "--d", "2", "--f", "1"]],
    "spectrum": [["an", "--n", "1", "--L", "2"]],
    "markov": [["an", "--kind", "P", "--n", "2", "--L", "2"],
               ["ladder", "--kind", "Q", "--L", "2", "--matrix-out", "{tmp}/m.csv",
                "--format", "csv"]],
    "simulate": [["an", "--kind", "P", "--init", "2", "--steps", "5", "--seed", "1"],
                 ["ladder", "--kind", "Q", "--L", "2", "--tmax", "1",
                  "--trajectory-out", "{tmp}/t.csv"]],
}


@pytest.mark.parametrize("verb", sorted(_VERB_ARGVS))
def test_every_flag_a_verb_accepts_is_read(verb, tmp_path, capsys):
    parser = cli.build_parser()
    subparser = next(a for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)).choices[verb]
    accepted = {a.dest for a in subparser._actions if a.option_strings and a.dest != "help"}
    read: set[str] = set()
    for argv in _VERB_ARGVS[verb]:
        argv = [verb] + [arg.format(tmp=tmp_path) for arg in argv] + ["--out", f"{tmp_path}/o"]
        args = parser.parse_args(argv, namespace=_ReadRecorder())
        args.__dict__.pop("_read", None)  # parsing reads every flag; count the handler's
        assert args.func(args) in (0, 1)
        read |= args.__dict__.get("_read", set())
    assert sorted(accepted - read) == []


@pytest.mark.parametrize("argv", [
    ["spectrum", "an", "--a", "99"], ["spectrum", "an", "--b", "1"],
    ["spectrum", "an", "--c", "1"], ["spectrum", "an", "--d", "5"],
    ["spectrum", "an", "--f", "0"], ["verify", "an", "--d", "5"], ["verify", "an", "--f", "0"],
    ["markov", "an", "--d", "5"], ["markov", "an", "--f", "0"],
    ["simulate", "an", "--d", "5"], ["simulate", "an", "--f", "0"]])
def test_flags_a_verb_never_reads_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    if argv == ["markov", "an", "--f", "0"]:  # --f abbreviates --format, which refuses 0
        assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["verify", "markov"])
@pytest.mark.parametrize("flags", [["--L", "1"], ["--a", "0", "--L", "1"], ["--L", "-3"]])
def test_ladder_with_fewer_than_two_rungs_exits_two(verb, flags, capsys):
    code, out, err = run_cli([verb, "ladder"] + flags, capsys)
    assert (code, out, err) == (2, "", "error: need at least two rungs\n")


@pytest.mark.parametrize("a", [16.0, 0.0])
def test_verify_ladder_refuses_one_rung(a):
    with pytest.raises(ValueError, match="need at least two rungs"):
        verify.verify_ladder(a, 0.0, 0.0, 1)


def test_runtime_imports_numpy_only():
    """The package and its CLI import no test-only dependency."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, lattice_markov, lattice_markov.cli\n"
            "print(sorted({m.split('.')[0] for m in sys.modules}"
            " & {'scipy', 'hypothesis', 'networkx'}))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
