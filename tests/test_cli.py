import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rumorsource
from rumorsource.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_exact_plain_value(capsys):
    code, out, _ = run_cli(["exact", "all-suspects", "--delta", "3", "--n", "4"],
                           capsys)
    assert code == 0
    assert out.strip() == "0.4"


def test_exact_json_carries_rational(capsys):
    code, out, _ = run_cli(["exact", "all-suspects", "--delta", "3", "--n", "4",
                            "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 0.4
    assert doc["rational"] == "2/5"
    assert doc["method"] in ("closed-form", "tail-sum")


def test_exact_connected_and_two(capsys):
    code, out, _ = run_cli(["exact", "connected-k", "--delta", "3", "--n", "4",
                            "--k", "2"], capsys)
    assert code == 0 and out.strip() == "0.8"
    code, out, _ = run_cli(["exact", "two-at-d", "--delta", "3", "--n", "2",
                            "--d", "1", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["rational"] == "5/6"


def test_exact_conditional_and_bound(capsys):
    code, out, _ = run_cli(["exact", "conditional", "--delta", "3", "--n", "9",
                            "--m", "1"], capsys)
    assert code == 0
    # 3/4 + 1/4 / 9 = 7/9
    assert abs(float(out) - 7 / 9) < 1e-12
    code, out, _ = run_cli(["exact", "general-k-bound", "--delta", "4",
                            "--n", "25", "--k", "3", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["method"] == "lower-bound"


def test_exact_missing_parameter_is_validation_error(capsys):
    code, _, err = run_cli(["exact", "connected-k", "--delta", "3", "--n", "4"],
                           capsys)
    assert code == 4
    assert "error" in err


def test_exact_bad_degree_is_validation_error(capsys):
    code, _, _ = run_cli(["exact", "all-suspects", "--delta", "1", "--n", "4"],
                         capsys)
    assert code == 4


def test_exact_max_states(capsys):
    argv = ["exact", "two-at-d", "--delta", "3", "--n", "100", "--d", "4"]
    code, out, err = run_cli(argv + ["--max-states", "1000"], capsys)
    assert code == 3 and out == ""
    assert "1000 states" in err and "Traceback" not in err
    code, _, err = run_cli(argv + ["--max-states", "0"], capsys)
    assert code == 4 and err.startswith("error:")


_OPTIONAL_INT = st.none() | st.integers(-2, 45)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(scenario=st.sampled_from(["all-suspects", "connected-k", "two-at-d",
                                 "general-k-bound", "conditional"]),
       delta=st.integers(-1, 13), n=st.integers(-2, 40),
       k=_OPTIONAL_INT, d=_OPTIONAL_INT, m=_OPTIONAL_INT,
       fmt=st.sampled_from(["plain", "json"]), floats=st.booleans(),
       max_states=st.integers(1, 20_000))
def test_exact_fuzz_never_tracebacks(scenario, delta, n, k, d, m, fmt, floats,
                                     max_states):
    # the state cap keeps deep two-at-d walks (d >= 11) from running to the
    # default budget of 3M states
    argv = ["exact", scenario, "--delta", str(delta), "--n", str(n),
            "--format", fmt, "--max-states", str(max_states)]
    for flag, value in (("--k", k), ("--d", d), ("--m", m)):
        if value is not None:
            argv += [flag, str(value)]
    if floats:
        argv.append("--no-exact-arith")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 3, 4), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        text = out.getvalue()
        value = json.loads(text)["value"] if fmt == "json" else float(text)
        assert 0.0 <= value <= 1.0, (argv, value)


def test_asymptotic_values(capsys):
    code, out, _ = run_cli(["asymptotic", "phi1", "--delta", "3"], capsys)
    assert code == 0 and out.strip() == "0.25"
    code, out, _ = run_cli(["asymptotic", "phi3", "--delta", "3"], capsys)
    assert code == 0 and out.strip() == "0.75"
    code, out, _ = run_cli(["asymptotic", "phi2", "--delta", "3", "--k", "2"],
                           capsys)
    assert code == 0 and out.strip() == "0.75"
    code, _, _ = run_cli(["asymptotic", "phi2", "--delta", "3"], capsys)
    assert code == 4
    code, _, _ = run_cli(["asymptotic", "phi1", "--delta", "2"], capsys)
    assert code == 4


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as ei:
        main(["exact", "all-suspects", "--delta", "3"])  # missing --n
    assert ei.value.code == 2
    with pytest.raises(SystemExit) as ei:
        main(["simulate", "--delta", "3", "--n", "5"])  # missing --seed
    assert ei.value.code == 2
    with pytest.raises(SystemExit) as ei:
        main(["nonsense"])
    assert ei.value.code == 2


def test_simulate_then_estimate_roundtrip(tmp_path, capsys):
    snap_file = tmp_path / "snap.json"
    code, _, _ = run_cli(["simulate", "--delta", "3", "--n", "9", "--seed", "6",
                          "-o", str(snap_file)], capsys)
    assert code == 0
    doc = json.loads(snap_file.read_text())
    assert doc["n"] == 9 and doc["source"] == 0
    suspects = ",".join(str(u) for u in doc["nodes"])
    code, out, _ = run_cli(["estimate", "--snapshot", str(snap_file),
                            "--suspects", suspects, "--tie-seed", "0"], capsys)
    assert code == 0
    est = json.loads(out)
    assert est["chosen"] in doc["nodes"]
    assert est["method"] == "tree-exact"
    assert set(est["argmax_set"]) <= set(doc["nodes"])


def test_estimate_csv_format(tmp_path, capsys):
    snap_file = tmp_path / "snap.json"
    run_cli(["simulate", "--delta", "3", "--n", "5", "--seed", "1",
             "-o", str(snap_file)], capsys)
    code, out, _ = run_cli(["estimate", "--snapshot", str(snap_file),
                            "--suspects", "0,1,2,3,4", "--tie-seed", "3",
                            "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "chosen,argmax_set,method,tie_broken"
    assert len(lines) == 2


def test_estimate_missing_file_exit_four(capsys):
    code, _, err = run_cli(["estimate", "--snapshot", "/nope/missing.json",
                            "--suspects", "0", "--tie-seed", "0"], capsys)
    assert code == 4 and "error" in err


@pytest.mark.parametrize("doc", [
    {"nodes": [0, 1, 1], "parents": [[1, 0]]},  # duplicate id
    {"nodes": [0, 2, 1], "parents": [[2, 1], [1, 0]]},  # parent after child
    {"nodes": [0, 1, 2], "parents": [[1, 2], [2, 1]]},  # parent cycle
    {"nodes": [0, 1], "parents": [[1]]},  # malformed pair
], ids=["duplicate-id", "parent-after-child", "parent-cycle", "short-pair"])
def test_estimate_bad_snapshot_exit_four(tmp_path, capsys, doc):
    snap_file = tmp_path / "snap.json"
    snap_file.write_text(json.dumps(doc))
    code, out, err = run_cli(["estimate", "--snapshot", str(snap_file),
                              "--suspects", "0,1,2", "--tie-seed", "0"], capsys)
    assert code == 4 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_estimate_snapshot_directory_exit_four(tmp_path, capsys):
    code, _, err = run_cli(["estimate", "--snapshot", str(tmp_path),
                            "--suspects", "0", "--tie-seed", "0"], capsys)
    assert code == 4 and err.startswith("error:")


def test_simulate_explicit_graph(tmp_path, capsys):
    graph_file = tmp_path / "g.txt"
    graph_file.write_text("0 1\n1 2\n2 3\n3 0\n")
    code, out, _ = run_cli(["simulate", "--edge-list", str(graph_file),
                            "--source", "0", "--n", "4", "--seed", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc["nodes"]) == [0, 1, 2, 3]


def test_simulate_capacity_exit_three(tmp_path, capsys):
    graph_file = tmp_path / "small.txt"
    graph_file.write_text("0 1\n")
    code, _, err = run_cli(["simulate", "--edge-list", str(graph_file),
                            "--source", "0", "--n", "10", "--seed", "1"],
                           capsys)
    assert code == 3 and "error" in err


def test_simulate_without_topology_exit_four(capsys):
    code, _, _ = run_cli(["simulate", "--n", "4", "--seed", "1"], capsys)
    assert code == 4


def test_experiment_csv(capsys):
    code, out, _ = run_cli(["experiment", "--scenario", "all-suspects",
                            "--delta", "3", "--n", "12", "--trials", "40",
                            "--seed", "9"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("scenario,delta,n,k,d,trials,seed,empirical_pc")
    fields = lines[1].split(",")
    assert fields[0] == "all-suspects" and fields[5] == "40"
    emp = float(fields[7])
    assert 0.0 <= emp <= 1.0


def test_experiment_json(capsys):
    code, out, _ = run_cli(["experiment", "--scenario", "two-at-d",
                            "--delta", "3", "--n", "10", "--trials", "25",
                            "--seed", "4", "--d", "1", "--format", "json"],
                           capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["scenario"] == "two-at-d" and doc["trials"] == 25
    assert doc["successes"] <= 25


def test_experiment_mismatched_flags_exit_four(capsys):
    code, _, _ = run_cli(["experiment", "--scenario", "all-suspects",
                          "--delta", "3", "--n", "10", "--trials", "5",
                          "--seed", "1", "--k", "2"], capsys)
    assert code == 4


def test_figure_tiny_sweep(capsys):
    code, out, _ = run_cli(["figure", "--figure", "fig9", "--seed", "3",
                            "--n", "14", "--trials", "20", "--deltas", "3",
                            "--ds", "1,2"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert all(row.split(",")[0] == "two-at-d" for row in lines[1:])


def test_console_script_installed():
    # the child interpreter imports the same package as this test process
    pkg_root = str(Path(rumorsource.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [pkg_root, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-m", "rumorsource.cli", "exact",
                          "all-suspects", "--delta", "3", "--n", "4"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0
    assert out.stdout.strip() == "0.4"
