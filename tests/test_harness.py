import csv
import io
import math

import pytest

from rumorsource.errors import ValidationError
from rumorsource.exactprob import pc_all_suspects, pc_connected, pc_two_suspects, phi1
from rumorsource.harness import (CSV_COLUMNS, SCENARIOS, ExperimentConfig,
                                 ExperimentReport, figure_sweep,
                                 reports_to_csv, run_experiment, run_trial,
                                 wilson_interval)


def test_scenario_names():
    assert SCENARIOS == ("all-suspects", "connected-k", "two-at-d")


def test_wilson_edges():
    lo, hi = wilson_interval(0, 50)
    assert lo == 0.0 and 0 < hi < 0.1
    lo, hi = wilson_interval(50, 50)
    assert 0.9 < lo < 1 and hi == 1.0
    lo, hi = wilson_interval(25, 50)
    assert lo < 0.5 < hi
    # denominator-free sanity: interval tightens with more data
    w1 = wilson_interval(30, 60)
    w2 = wilson_interval(300, 600)
    assert (w2[1] - w2[0]) < (w1[1] - w1[0])


def test_wilson_against_direct_formula():
    z = 1.959963984540054
    for s, t in [(3, 10), (17, 40), (999, 1000)]:
        p = s / t
        mid = (p + z * z / (2 * t)) / (1 + z * z / t)
        half = z * math.sqrt(p * (1 - p) / t + z * z / (4 * t * t)) / (1 + z * z / t)
        lo, hi = wilson_interval(s, t)
        assert lo == pytest.approx(mid - half)
        assert hi == pytest.approx(mid + half)


def test_wilson_validation():
    with pytest.raises(ValidationError):
        wilson_interval(5, 0)
    with pytest.raises(ValidationError):
        wilson_interval(6, 5)
    with pytest.raises(ValidationError):
        wilson_interval(-1, 5)


def test_config_cross_field_validation():
    ExperimentConfig(scenario="all-suspects", delta=3, n=10, trials=5, seed=0)
    ExperimentConfig(scenario="connected-k", delta=3, n=10, trials=5, seed=0, k=2)
    ExperimentConfig(scenario="two-at-d", delta=3, n=10, trials=5, seed=0, d=1)
    with pytest.raises(ValidationError):
        ExperimentConfig(scenario="connected-k", delta=3, n=10, trials=5, seed=0)
    with pytest.raises(ValidationError):
        ExperimentConfig(scenario="two-at-d", delta=3, n=10, trials=5, seed=0)
    with pytest.raises(ValidationError):
        ExperimentConfig(scenario="all-suspects", delta=3, n=10, trials=5,
                         seed=0, k=3)
    with pytest.raises(ValidationError):
        ExperimentConfig(scenario="all-suspects", delta=3, n=10, trials=5,
                         seed=0, d=2)
    with pytest.raises(ValidationError):
        ExperimentConfig(scenario="nope", delta=3, n=10, trials=5, seed=0)
    with pytest.raises(ValidationError):
        ExperimentConfig(scenario="all-suspects", delta=1, n=10, trials=5, seed=0)
    with pytest.raises(ValidationError):
        ExperimentConfig(scenario="all-suspects", delta=3, n=10, trials=0, seed=0)


def test_run_experiment_reproducible():
    cfg = ExperimentConfig(scenario="all-suspects", delta=3, n=25, trials=60,
                           seed=42)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a.successes == b.successes
    assert a.empirical_pc == b.empirical_pc
    assert (a.ci_low, a.ci_high) == (b.ci_low, b.ci_high)
    assert a.config.trials == 60
    c = run_experiment(ExperimentConfig(scenario="all-suspects", delta=3,
                                        n=25, trials=60, seed=43))
    assert a.successes != c.successes or a.empirical_pc != c.empirical_pc


def test_trials_are_order_independent():
    cfg = ExperimentConfig(scenario="connected-k", delta=3, n=15, trials=30,
                           seed=7, k=3)
    fwd = [run_trial(cfg, t) for t in range(30)]
    rev = [run_trial(cfg, t) for t in reversed(range(30))]
    assert fwd == rev[::-1]
    assert run_experiment(cfg).successes == sum(fwd)


def test_reports_carry_exact_references():
    r1 = run_experiment(ExperimentConfig(scenario="all-suspects", delta=3,
                                         n=20, trials=10, seed=1))
    assert r1.exact_pc == pytest.approx(
        float(pc_all_suspects(3, 20, exact=True).value))
    assert r1.exact_method in ("closed-form", "tail-sum")
    assert r1.asymptotic_pc == pytest.approx(phi1(3))

    r2 = run_experiment(ExperimentConfig(scenario="connected-k", delta=4,
                                         n=20, trials=10, seed=1, k=3))
    assert r2.exact_pc == pytest.approx(
        float(pc_connected(4, 3, 20, exact=True).value))

    r3 = run_experiment(ExperimentConfig(scenario="two-at-d", delta=3, n=20,
                                         trials=10, seed=1, d=2))
    assert r3.exact_pc == pytest.approx(
        float(pc_two_suspects(3, 2, 20, exact=True).value))
    # no degree-only limit is attached beyond adjacent suspects
    assert r3.asymptotic_pc is None

    r4 = run_experiment(ExperimentConfig(scenario="all-suspects", delta=2,
                                         n=12, trials=10, seed=1))
    # the degree-only limits need delta >= 3, column stays empty
    assert r4.asymptotic_pc is None


def test_empirical_lands_near_exact():
    cfg = ExperimentConfig(scenario="all-suspects", delta=3, n=51, trials=400,
                           seed=2024)
    rep = run_experiment(cfg)
    assert rep.ci_low <= rep.exact_pc <= rep.ci_high
    assert abs(rep.empirical_pc - rep.exact_pc) < 0.08


def test_interval_coverage_over_many_seeds():
    # a 95 percent interval may miss sometimes; over 40 independent runs the
    # miss count should stay in the tail-bound comfort zone
    exact = float(pc_all_suspects(3, 31, exact=True).value)
    hits = 0
    for seed in range(40):
        rep = run_experiment(ExperimentConfig(scenario="all-suspects",
                                              delta=3, n=31, trials=250,
                                              seed=900 + seed))
        if rep.ci_low <= exact <= rep.ci_high:
            hits += 1
    assert hits >= 33, hits


def test_two_at_d_trials_behave():
    cfg = ExperimentConfig(scenario="two-at-d", delta=3, n=25, trials=200,
                           seed=5, d=2)
    rep = run_experiment(cfg)
    assert 0.6 <= rep.empirical_pc <= 1.0
    assert rep.ci_low <= rep.empirical_pc <= rep.ci_high


def test_csv_schema():
    assert CSV_COLUMNS == ("scenario", "delta", "n", "k", "d", "trials",
                           "seed", "empirical_pc", "ci_low", "ci_high",
                           "exact_pc", "exact_method", "asymptotic_pc")
    rep = run_experiment(ExperimentConfig(scenario="connected-k", delta=3,
                                          n=12, trials=20, seed=3, k=2))
    row = rep.csv_row()
    assert len(row) == len(CSV_COLUMNS)
    assert row[0] == "connected-k" and row[3] == "2" and row[4] == ""
    d = rep.to_dict()
    assert set(d) == set(CSV_COLUMNS) | {"successes", "backend"}


def test_reports_to_csv_roundtrip():
    reps = [run_experiment(ExperimentConfig(scenario="all-suspects", delta=3,
                                            n=10, trials=15, seed=s))
            for s in (1, 2)]
    text = reports_to_csv(reps)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 3
    assert rows[1][0] == "all-suspects"
    assert float(rows[1][7]) == reps[0].empirical_pc
    # empirical column survives the text trip bit for bit
    assert float(rows[2][7]) == reps[1].empirical_pc


def test_figure_sweep_tiny():
    reps = figure_sweep("fig9", seed=11, n=20, trials=30, deltas=(3,), ds=(1, 2))
    assert len(reps) == 2
    assert all(isinstance(r, ExperimentReport) for r in reps)
    assert [r.config.d for r in reps] == [1, 2]
    assert all(r.config.scenario == "two-at-d" for r in reps)
    reps2 = figure_sweep("fig8", seed=11, n=16, trials=20, deltas=(3, 4),
                         ks=(2, 3))
    assert len(reps2) == 4
    assert {(r.config.delta, r.config.k) for r in reps2} == {(3, 2), (3, 3),
                                                            (4, 2), (4, 3)}
    with pytest.raises(ValidationError):
        figure_sweep("fig99", seed=1)


def test_figure_sweep_fig10_varies_k():
    reps = figure_sweep("fig10", seed=4, n=18, trials=20, ks=(2, 4))
    assert [r.config.k for r in reps] == [2, 4]
    assert all(r.config.scenario == "connected-k" and r.config.delta == 4
               for r in reps)


@pytest.mark.parametrize("figure,axis", [
    ("fig7", dict(ks=(9,))), ("fig7", dict(ds=())), ("fig8", dict(ds=(1,))),
    ("fig9", dict(ks=(2,))), ("fig10", dict(ds=[])),
])
def test_figure_sweep_rejects_an_axis_it_does_not_sweep(figure, axis):
    with pytest.raises(ValidationError, match="takes no"):
        figure_sweep(figure, seed=1, n=5, trials=2, deltas=(3,), **axis)


@pytest.mark.parametrize("kwargs", [dict(trials=0), dict(n=0)],
                         ids=["trials", "n"])
def test_figure_sweep_checks_run_before_an_empty_axis(kwargs):
    # a negative seed with an empty axis is checked through the CLI
    args = dict(seed=1, n=5, trials=2, deltas=()) | kwargs
    with pytest.raises(ValidationError):
        figure_sweep("fig7", **args)
