import json

import numpy as np
import pytest

from lattice_markov import cli
from lattice_markov.linalg import load_matrix_csv, load_matrix_json


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


def test_bad_flags_exit_two(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "nonsense"])
    assert err.value.code == 2


def test_guard_violation_exit_two(capsys):
    code, _, err = run_cli(["spectrum", "an", "--n", "1", "--L", "13"], capsys)
    assert code == 2
    assert "guard" in err


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


def test_simulate_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("LATTICE_MARKOV_SEED", "99")
    code, out, _ = run_cli(["simulate", "an", "--n", "1", "--L", "3", "--kind", "P",
                            "--init", "2", "--steps", "50"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 99


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
