import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import rumorsource
from rumorsource.cli import build_parser, main
from rumorsource.exactprob import (pc_all_suspects, pc_conditional,
                                   pc_connected, pc_general_lower_bound,
                                   pc_two_suspects)
from rumorsource.harness import EXACT_SCENARIOS, FIGURES, LIMITS, SCENARIOS
from rumorsource.spread import BACKENDS


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


# each exact scenario: its parameter flags and the direct exact call
_EXACT_ROWS = {
    "all-suspects": ([], lambda delta, n: pc_all_suspects(delta, n, True).value),
    "connected-k": (["--k", "3"],
                    lambda delta, n: pc_connected(delta, 3, n, True).value),
    "two-at-d": (["--d", "2"],
                 lambda delta, n: pc_two_suspects(delta, 2, n, True).value),
    "general-k-bound": (["--k", "3"], lambda delta, n: pc_general_lower_bound(
        delta, 3, n, True).value),
    "conditional": (["--m", "1"],
                    lambda delta, n: pc_conditional(delta, 1, n, True).value),
}


@pytest.mark.parametrize("scenario", _EXACT_ROWS)
def test_exact_json_rational_is_the_direct_fraction(scenario, capsys):
    flags, direct = _EXACT_ROWS[scenario]
    for delta in (2, 3, 4):
        for n in (1, 2, 7, 30):
            code, out, _ = run_cli(["exact", scenario, "--delta", str(delta),
                                    "--n", str(n), "--format", "json", *flags],
                                   capsys)
            assert code == 0
            doc = json.loads(out)
            assert Fraction(doc["rational"]) == direct(delta, n), (scenario,
                                                                 delta, n)
            assert doc["value"] == float(direct(delta, n))
            assert doc["m"] == (1 if scenario == "conditional" else None)


def _choices(command, dest):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    action = next(a for a in sub.choices[command]._actions if a.dest == dest)
    return tuple(action.choices)


def test_scenario_choices_come_from_the_table():
    assert _choices("exact", "scenario") == EXACT_SCENARIOS == tuple(_EXACT_ROWS)
    assert _choices("experiment", "scenario") == SCENARIOS
    assert _choices("asymptotic", "limit") == tuple(LIMITS) == ("phi1", "phi2",
                                                                "phi3")
    assert {scenario for scenario, _ in LIMITS.values()} == set(SCENARIOS)
    assert _choices("simulate", "backend") == _choices("experiment", "backend") \
        == BACKENDS
    assert _choices("figure", "figure") == FIGURES == ("fig7", "fig8", "fig9", "fig10")


@pytest.mark.parametrize("argv", [
    ["exact", "all-suspects", "--delta", "3", "--n", "4", "--k", "7", "--d", "9"],
    ["exact", "all-suspects", "--delta", "3", "--n", "4", "--m", "1"],
    ["exact", "connected-k", "--delta", "3", "--n", "4", "--k", "2", "--d", "1"],
    ["exact", "two-at-d", "--delta", "3", "--n", "4", "--d", "1", "--m", "0"],
    ["exact", "general-k-bound", "--delta", "3", "--n", "4", "--k", "2",
     "--m", "1"],
    ["exact", "conditional", "--delta", "3", "--n", "4", "--m", "1", "--k", "2"],
    ["asymptotic", "phi1", "--delta", "3", "--k", "5"],
    ["asymptotic", "phi3", "--delta", "3", "--k", "5"],
], ids=["all-k-d", "all-m", "connected-d", "two-m", "bound-m", "conditional-k",
        "phi1-k", "phi3-k"])
def test_stray_parameter_exit_four(capsys, argv):
    code, out, err = run_cli(argv, capsys)
    assert code == 4 and out == ""
    assert "takes no" in err and "Traceback" not in err


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


def test_exact_out_of_memory_exit_three(monkeypatch, capsys):
    def no_memory(delta, n):
        raise MemoryError
    monkeypatch.setattr("rumorsource.exactprob.tree_split_marginal_pmf", no_memory)
    code, out, err = run_cli(["exact", "all-suspects", "--delta", "4",
                              "--n", "600"], capsys)
    assert code == 3 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


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


_INVALID = {"seed": st.integers(-3, -1), "delta": st.integers(-1, 1),
            "n": st.integers(-2, 0), "trials": st.integers(-1, 0),
            "k": st.integers(-2, 0), "d": st.integers(-2, 0)}
_BACKEND = st.sampled_from([[], ["--backend=uniform-boundary"],
                            ["--backend=exponential-clocks"]])


@st.composite
def _run_argv(draw):
    """Argv that argparse accepts for simulate, experiment, figure and
    asymptotic, at small n and trial counts: mostly valid, else with one
    value out of range or one flag missing or stray."""
    command = draw(st.sampled_from(["simulate", "experiment", "figure",
                                    "asymptotic"]))
    value = {"seed": draw(st.integers(0, 40)), "delta": draw(st.integers(2, 13)),
             "n": draw(st.integers(1, 30)), "trials": draw(st.integers(1, 5)),
             "k": draw(st.integers(1, 8)), "d": draw(st.integers(1, 4))}
    fault = draw(st.sampled_from([None, None, None, "flag", *_INVALID]))
    if fault in _INVALID:
        value[fault] = draw(_INVALID[fault])

    def flags(*names):
        return [f"--{name}={value[name]}" for name in names]

    if command == "simulate":
        source = draw(st.sampled_from([[], [], ["--source=0"], ["--source=3"]]))
        return (["simulate", *flags("n", "seed"), *source, *draw(_BACKEND)]
                + ([] if fault == "flag" else flags("delta")))
    if command == "experiment":
        scenario = draw(st.sampled_from(["all-suspects", "connected-k",
                                         "two-at-d"]))
        own = {"connected-k": ["k"], "two-at-d": ["d"]}.get(scenario, [])
        if fault == "flag":
            own = ["d"] if own == ["k"] else ["k"]
        fmt = draw(st.sampled_from(["csv", "json"]))
        return ["experiment", f"--scenario={scenario}", f"--format={fmt}",
                *flags("delta", "n", "trials", "seed", *own), *draw(_BACKEND)]
    if command == "figure":
        figure = draw(st.sampled_from(["fig7", "fig8", "fig9", "fig10"]))
        more = draw(st.sampled_from(["", ",3"]))  # a second, valid entry
        axes = {name: f"{value[key]}{more}" for name, key in
                (("deltas", "delta"), ("ks", "k"), ("ds", "d"))}
        empty = draw(st.sampled_from([None, None, None, *axes]))
        if empty:
            axes[empty] = ""  # an empty axis sweeps no configs
        return ["figure", f"--figure={figure}", *flags("seed", "n", "trials"),
                *(f"--{name}={axis}" for name, axis in axes.items())]
    limit = draw(st.sampled_from(["phi1", "phi2", "phi3"]))
    names = ["delta", "k"] if (limit == "phi2") != (fault == "flag") else ["delta"]
    return ["asymptotic", limit, *flags(*names)]


def _never_tracebacks(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 3, 4), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(argv=_run_argv())
def test_run_commands_fuzz_never_traceback(argv):
    _never_tracebacks(argv)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.text(max_size=3)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12)


@st.composite
def _estimate_argv(draw, tmp_path):
    """Estimate argv on a snapshot document written to tmp_path: mostly a
    well-formed tree, else with its node order shuffled, one field (or the
    whole document) replaced by random JSON, or random bytes spliced into the
    file; the host edge list is optional."""
    ids = draw(st.lists(st.integers(0, 12), min_size=1, max_size=8,
                        unique=True))
    pairs = [[v, ids[draw(st.integers(0, i - 1))]]
             for i, v in enumerate(ids) if i]
    doc = {"n": len(ids), "source": ids[0], "nodes": ids, "parents": pairs}
    fault = draw(st.sampled_from([None] * 6 + ["shuffle", "document", "bytes",
                                              *doc]))
    if fault == "shuffle":
        doc["nodes"] = draw(st.permutations(ids))
    elif fault == "document":
        doc = draw(_JSON)
    elif fault in doc:
        doc[fault] = draw(_JSON)
    raw = json.dumps(doc).encode()
    if fault == "bytes":  # random bytes spliced in, mostly not UTF-8
        cut = draw(st.integers(0, len(raw)))
        raw = raw[:cut] + draw(st.binary(min_size=1, max_size=4)) + raw[cut:]
    snap_file = tmp_path / "snap.json"
    snap_file.write_bytes(raw)
    suspects = draw(st.lists(st.sampled_from(ids) | st.integers(-1, 12),
                             min_size=1, max_size=4))
    argv = ["estimate", f"--snapshot={snap_file}",
            f"--suspects={','.join(map(str, suspects))}",
            f"--tie-seed={draw(st.integers(-3, 3))}",
            f"--format={draw(st.sampled_from(['json', 'csv']))}"]
    if draw(st.booleans()):
        extra = draw(st.lists(st.tuples(st.integers(-1, 12),
                                        st.integers(-1, 12)), max_size=2))
        graph_file = tmp_path / "host.txt"
        graph_file.write_text("".join(f"{u} {v}\n" for u, v in pairs + extra))
        argv.append(f"--edge-list={graph_file}")
    return argv


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_estimate_fuzz_never_tracebacks(tmp_path, data):
    _never_tracebacks(data.draw(_estimate_argv(tmp_path)))


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
    for argv in (["simulate", "--delta", "3", "--n", "5", "--seed", "1",
                  "--backend", "bogus"],
                 ["figure", "--figure", "fig11", "--seed", "1"]):
        with pytest.raises(SystemExit) as ei:
            main(argv)
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


def test_estimate_rejects_a_parent_that_is_not_a_host_edge(tmp_path, capsys):
    graph_file = tmp_path / "path.txt"
    graph_file.write_text("0 1\n1 2\n2 3\n3 4\n")
    snap_file = tmp_path / "star.json"
    snap_file.write_text(json.dumps({"n": 5, "source": 0, "nodes": [0, 1, 2, 3, 4],
                                     "parents": [[1, 0], [2, 0], [3, 0], [4, 0]]}))
    code, out, err = run_cli(["estimate", "--snapshot", str(snap_file),
                              "--edge-list", str(graph_file),
                              "--suspects", "0,1,2,3,4", "--tie-seed", "0"], capsys)
    assert code == 4 and out == ""
    assert "not a host neighbor" in err and "Traceback" not in err
    # a snapshot simulated on the same host loads and estimates
    code, _, _ = run_cli(["simulate", "--edge-list", str(graph_file), "--source", "2",
                          "--n", "5", "--seed", "1", "-o", str(snap_file)], capsys)
    assert code == 0
    code, out, _ = run_cli(["estimate", "--snapshot", str(snap_file),
                            "--edge-list", str(graph_file),
                            "--suspects", "0,1,2,3,4", "--tie-seed", "0"], capsys)
    assert code == 0 and json.loads(out)["chosen"] == 2


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


@pytest.mark.parametrize("text", [
    '{"nodes": [0, 1.9, 2.2], "parents": [[1.9, 0], [2.2, 1.7]]}',
    '{"nodes": [true, 2], "parents": [[2, true]]}',
    '{"nodes": ["0", "1"], "parents": [["1", "0"]]}',
    '{"nodes": [0, -1], "parents": [[-1, 0]]}',
], ids=["floats", "bool", "strings", "negative"])
def test_estimate_non_integer_id_exit_four(tmp_path, capsys, text):
    snap_file = tmp_path / "snap.json"
    snap_file.write_text(text)
    code, out, err = run_cli(["estimate", "--snapshot", str(snap_file),
                              "--suspects", "0,1,2", "--tie-seed", "0"], capsys)
    assert code == 4 and out == ""
    assert "non-negative integers" in err and "Traceback" not in err


def test_estimate_infinite_id_exit_four(tmp_path, capsys):
    snap_file = tmp_path / "snap.json"
    snap_file.write_text('{"nodes": [0, Infinity], "parents": [[1, 0]]}')
    code, out, err = run_cli(["estimate", "--snapshot", str(snap_file),
                              "--suspects", "0", "--tie-seed", "0"], capsys)
    assert code == 4 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_estimate_non_utf8_snapshot_exit_four(tmp_path, capsys):
    snap_file = tmp_path / "snap.json"
    snap_file.write_bytes(b'\xff\xfe{"nodes": [0], "parents": []}')
    code, out, err = run_cli(["estimate", "--snapshot", str(snap_file),
                              "--suspects", "0", "--tie-seed", "0"], capsys)
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


def test_simulate_non_utf8_edge_list_exit_four(tmp_path, capsys):
    graph_file = tmp_path / "g.txt"
    graph_file.write_bytes(b"\xff\xfe0 1\n1 2\n")
    code, out, err = run_cli(["simulate", "--edge-list", str(graph_file),
                              "--source", "0", "--n", "2", "--seed", "1"],
                             capsys)
    assert code == 4 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


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


@pytest.mark.parametrize("argv", [
    ["simulate", "--delta", "3", "--n", "5"],
    ["experiment", "--scenario", "all-suspects", "--delta", "3", "--n", "5",
     "--trials", "3"],
    ["figure", "--figure", "fig7", "--n", "5", "--trials", "3", "--deltas", "3"],
    ["figure", "--figure", "fig7", "--n", "5", "--trials", "2", "--deltas="],
], ids=["simulate", "experiment", "figure", "figure-empty-axis"])
def test_negative_seed_exit_four(capsys, argv):
    code, out, err = run_cli(argv + ["--seed", "-1"], capsys)
    assert code == 4 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("axis", [["--ks", "9"], ["--ks="], ["--ds", "1"]],
                         ids=["ks", "empty-ks", "ds"])
def test_figure_stray_axis_exit_four(capsys, axis):
    code, out, err = run_cli(["figure", "--figure", "fig7", "--seed", "1",
                              "--n", "5", "--trials", "2", "--deltas", "3",
                              *axis], capsys)
    assert code == 4 and out == ""
    assert "takes no" in err and "Traceback" not in err


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
