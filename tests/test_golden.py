"""Seeded `experiment` and `simulate` output, `exact` JSON output and the
cyclic-host `estimate` JSON output must match the checked-in golden files."""

import importlib.util
import json
from pathlib import Path

import pytest

from rumorsource.harness import EXACT_SCENARIOS

_spec = importlib.util.spec_from_file_location(
    "make_golden", Path(__file__).resolve().parent / "golden" / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)


@pytest.mark.parametrize("backend", make_golden.BACKENDS)
@pytest.mark.parametrize("scenario", sorted(make_golden.SCENARIOS))
def test_experiment_csv_matches_golden(scenario, backend):
    want = make_golden.golden_path(scenario, backend).read_text()
    assert make_golden.render(scenario, backend) == want


@pytest.mark.parametrize("case", make_golden.SIMULATE_CASES)
def test_simulate_json_matches_golden(case):
    want = make_golden.simulate_path(*case).read_text()
    assert make_golden.render_simulate(*case) == want


def test_exact_goldens_cover_every_exact_scenario():
    assert tuple(make_golden.EXACT_PARAMS) == EXACT_SCENARIOS


@pytest.mark.parametrize("scenario", sorted(make_golden.EXACT_PARAMS))
def test_exact_json_matches_golden(scenario):
    want = make_golden.exact_path(scenario).read_text()
    assert make_golden.render_exact(scenario) == want


def test_estimate_json_matches_golden():
    want = make_golden.estimate_path().read_text()
    docs = json.loads(want)
    assert {d["estimate"]["method"] for d in docs} == {"bfs-heuristic"}
    assert any(d["estimate"]["tie_broken"] for d in docs)
    assert make_golden.render_estimate() == want


def test_run_trial_hits_match_golden():
    want = make_golden.hits_path().read_text()
    docs = json.loads(want)
    assert {d["scenario"] for d in docs} == set(make_golden.SCENARIOS)
    assert sum(len(d["hits"]) for d in docs) >= 1000
    assert make_golden.render_hits() == want
