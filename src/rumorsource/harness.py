"""Monte Carlo experiments tying simulation, estimation, and exact theory.

Each trial is a pure function of (master seed, trial index): a fresh lazy
tree, a suspect set, a source drawn from it, one spreading run, one MAP
estimate.  Reports therefore do not depend on trial execution order, and
rerunning a config reproduces the report byte for byte.  Empirical rates
carry Wilson score intervals and sit next to the matching exact value and
its large-n limit.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from dataclasses import dataclass, fields

import numpy as np

from .errors import ValidationError
from .estimator import (make_suspects_all, make_suspects_connected,
                        make_suspects_two, map_estimate)
from .exactprob import (DEFAULT_STATE_BUDGET, DetectionResult,
                        pc_all_suspects, pc_conditional, pc_connected,
                        pc_general_lower_bound, pc_two_suspects, phi1, phi2,
                        phi3)
from .spread import BACKENDS, SpreadConfig, simulate_si
from .topology import LazyRegularTree

# scenario -> row: its parameter and least value (None: it takes none);
# suspects(g, param) on a fresh lazy tree (None: exact-only; a builder that
# returns None means every infected node); exact(delta, n, param, exact,
# max_states) -> DetectionResult; limit(delta, param) (None: none known)
_Scenario = namedtuple("_Scenario", "param least suspects exact limit")
_SCENARIOS = {
    "all-suspects": _Scenario(
        None, None, lambda g, _: None,
        lambda delta, n, _, exact, __: pc_all_suspects(delta, n, exact),
        lambda delta, _: phi1(delta)),
    "connected-k": _Scenario(
        "k", 1, lambda g, k: make_suspects_connected(g, 0, k),
        lambda delta, n, k, exact, _: pc_connected(delta, k, n, exact), phi2),
    "two-at-d": _Scenario(
        "d", 1, lambda g, d: make_suspects_two(g, 0, g.path_from_origin(d)[-1]),
        lambda delta, n, d, *arith: pc_two_suspects(delta, d, n, *arith),
        lambda delta, d: phi3(delta) if d == 1 else None),
    "general-k-bound": _Scenario(
        "k", 1, None,
        lambda delta, n, k, exact, _: pc_general_lower_bound(delta, k, n, exact),
        None),
    "conditional": _Scenario(
        "m", 0, None,
        lambda delta, n, m, exact, _: pc_conditional(delta, m, n, exact), None),
}

# every scenario with an exact P_c; the Monte Carlo ones build suspects
EXACT_SCENARIOS = tuple(_SCENARIOS)
SCENARIOS = tuple(name for name, row in _SCENARIOS.items() if row.suspects)
# large-n limit name -> (scenario, the parameters it fixes)
LIMITS = {"phi1": ("all-suspects", {}), "phi2": ("connected-k", {}),
          "phi3": ("two-at-d", {"d": 1})}

# 97.5% normal quantile: 95% Wilson score intervals
_Z95 = 1.959963984540054

CSV_COLUMNS = (
    "scenario", "delta", "n", "k", "d", "trials", "seed",
    "empirical_pc", "ci_low", "ci_high",
    "exact_pc", "exact_method", "asymptotic_pc",
)


def wilson_interval(successes: int, trials: int, z: float = _Z95) -> tuple:
    """Score interval for a binomial proportion; safe at 0 and 1."""
    if trials < 1:
        raise ValidationError("need at least one trial")
    if not 0 <= successes <= trials:
        raise ValidationError(f"successes {successes} outside [0, {trials}]")
    p = successes / trials
    z2 = z * z
    center = p + z2 / (2 * trials)
    spread = z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials))
    denom = 1 + z2 / trials
    lo = max(0.0, (center - spread) / denom)
    hi = min(1.0, (center + spread) / denom)
    if successes == 0:
        lo = 0.0
    if successes == trials:
        hi = 1.0
    return (lo, hi)


def scenario_param(scenario: str, k=None, d=None, m=None) -> int | None:
    """The scenario's parameter out of k, d and m; rejects an unknown
    scenario, its parameter missing or below its least value, and any other
    parameter given."""
    row = _SCENARIOS.get(scenario)
    if row is None:
        raise ValidationError(f"unknown scenario {scenario!r}; choose from {EXACT_SCENARIOS}")
    given = {"k": k, "d": d, "m": m}
    value = given.pop(row.param) if row.param else None
    if row.param and (value is None or value < row.least):
        raise ValidationError(f"{scenario} needs {row.param} >= {row.least}")
    for name, other in given.items():
        if other is not None:
            raise ValidationError(f"{scenario} takes no {name}")
    return value


def scenario_exact(scenario: str, delta: int, n: int, param, exact=None,
                   max_states: int = DEFAULT_STATE_BUDGET) -> DetectionResult:
    """Exact P_c(n) of a scenario at its checked `scenario_param`."""
    return _SCENARIOS[scenario].exact(delta, n, param, exact, max_states)


def scenario_limit(scenario: str, delta: int, param) -> float | None:
    """Large-n limit of a scenario's P_c, None where none is known."""
    limit = _SCENARIOS[scenario].limit
    return limit(delta, param) if limit else None


def _check_run(n: int, trials: int, seed: int) -> None:
    """Checks shared by one experiment and a whole figure sweep."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    delta: int
    n: int
    trials: int
    seed: int
    k: int | None = None
    d: int | None = None
    backend: str = "uniform-boundary"

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValidationError(
                f"unknown scenario {self.scenario!r}; choose from {SCENARIOS}"
            )
        if self.delta < 2:
            raise ValidationError(f"degree must be >= 2, got {self.delta}")
        _check_run(self.n, self.trials, self.seed)
        if self.backend not in BACKENDS:
            raise ValidationError(f"unknown backend {self.backend!r}")
        scenario_param(self.scenario, k=self.k, d=self.d)


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    successes: int
    empirical_pc: float
    ci_low: float
    ci_high: float
    exact_pc: float
    exact_method: str
    asymptotic_pc: float | None

    def to_dict(self) -> dict:
        """The config's fields in CSV order, the backend, then the results."""
        doc = {name: getattr(self.config, name) for name in (
            "scenario", "delta", "n", "k", "d", "trials", "seed", "backend")}
        return doc | {f.name: getattr(self, f.name) for f in fields(self)[1:]}

    def csv_row(self) -> list[str]:
        d = self.to_dict()
        out = []
        for col in CSV_COLUMNS:
            v = d[col]
            out.append("" if v is None else repr(v) if isinstance(v, float) else str(v))
        return out


def _trial_streams(seed: int, trial: int) -> tuple:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
    draw, sim, tie = (int(x) for x in ss.generate_state(3, np.uint64))
    return draw, sim, tie


def run_trial(cfg: ExperimentConfig, trial: int) -> bool:
    """One independent trial; True when the estimator names the source."""
    draw_seed, sim_seed, tie_seed = _trial_streams(cfg.seed, trial)
    g = LazyRegularTree(cfg.delta)
    row = _SCENARIOS[cfg.scenario]
    suspects = row.suspects(g, row.param and getattr(cfg, row.param))
    source = 0
    if suspects is not None:
        members = sorted(suspects.members)
        source = members[random.Random(draw_seed).randrange(len(members))]
    snap = simulate_si(g, SpreadConfig(source=source, n=cfg.n, seed=sim_seed,
                                       backend=cfg.backend))
    if suspects is None:
        suspects = make_suspects_all(snap)
    est = map_estimate(snap, suspects, tie_seed=tie_seed)
    return est.chosen == source


def _references(cfg: ExperimentConfig) -> tuple:
    param = scenario_param(cfg.scenario, k=cfg.k, d=cfg.d)
    res = scenario_exact(cfg.scenario, cfg.delta, cfg.n, param)
    asym = scenario_limit(cfg.scenario, cfg.delta, param) if cfg.delta >= 3 else None
    return float(res.value), res.method, asym


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run all trials and attach exact and limiting reference values."""
    successes = sum(run_trial(cfg, t) for t in range(cfg.trials))
    lo, hi = wilson_interval(successes, cfg.trials)
    exact_pc, method, asym = _references(cfg)
    return ExperimentReport(
        config=cfg,
        successes=successes,
        empirical_pc=successes / cfg.trials,
        ci_low=lo,
        ci_high=hi,
        exact_pc=exact_pc,
        exact_method=method,
        asymptotic_pc=asym,
    )


# ---------------------------------------------------------------------------
# figure-style sweeps

# figure -> (scenario, default values of its parameter, default degrees);
# a scenario with no parameter runs its degrees once
_FIG_DEFAULTS = {
    "fig7": ("all-suspects", (None,), (2, 3, 4, 6, 8, 12, 16, 24, 36, 50)),
    "fig8": ("connected-k", (2, 5, 10), (2, 3, 4, 6, 8, 12, 16, 24)),
    "fig9": ("two-at-d", (1, 2), (2, 3, 4, 6, 8, 12, 16, 24)),
    "fig10": ("connected-k", (2, 4, 10, 20, 50, 100, 400, 1000, 4000), (4,)),
}
FIGURES = tuple(_FIG_DEFAULTS)


def figure_sweep(figure: str, seed: int, n: int = 500, trials: int = 2000,
                 deltas=None, ks=None, ds=None) -> list[ExperimentReport]:
    """Desk-scale parameter sweeps behind the four standard plots.

    fig7: all suspects vs degree.  fig8: connected suspects vs degree, one
    curve per k.  fig9: two suspects vs degree, one curve per distance.
    fig10: connected suspects vs k at fixed degree.  Override the degrees
    and the figure's own axis with the keyword arguments; `ks` or `ds` for
    a figure that does not sweep it, even an empty one, is rejected.
    Reports run axis value outer, degree inner.
    """
    if figure not in _FIG_DEFAULTS:
        raise ValidationError(
            f"unknown figure {figure!r}; choose from {sorted(_FIG_DEFAULTS)}"
        )
    _check_run(n, trials, seed)  # also when an axis is empty
    scenario, values, default_deltas = _FIG_DEFAULTS[figure]
    axis = _SCENARIOS[scenario].param
    overrides = {"k": ks, "d": ds}
    for name, given in overrides.items():
        if given is not None and name != axis:
            raise ValidationError(f"{figure} sweeps {scenario}, which takes no {name}")
    override = overrides.get(axis)
    values = tuple(override) if override is not None else values
    deltas = tuple(deltas) if deltas is not None else default_deltas
    reports = []
    for v in values:
        for delta in deltas:
            param = {axis: v} if axis else {}
            cfg = ExperimentConfig(scenario, delta, n, trials, seed, **param)
            reports.append(run_experiment(cfg))
    return reports


def reports_to_csv(reports) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in reports:
        lines.append(",".join(r.csv_row()))
    return "\n".join(lines) + "\n"
