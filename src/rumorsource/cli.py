"""Command-line front end.

Subcommands: simulate, estimate, exact, asymptotic, experiment, figure.
Randomized commands require an explicit seed.  Exit codes: 0 success,
2 usage (argparse), 3 capacity, work budget or memory exceeded, 4 invalid
input.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import BudgetError, CapacityError, ValidationError
from .estimator import SuspectSet, map_estimate
from .exactprob import DEFAULT_STATE_BUDGET
from .harness import (EXACT_SCENARIOS, FIGURES, LIMITS, SCENARIOS, ExperimentConfig,
                      figure_sweep, reports_to_csv, run_experiment, scenario_exact,
                      scenario_limit, scenario_param)
from .spread import (BACKENDS, SpreadConfig, simulate_si, snapshot_from_json,
                     snapshot_to_json)
from .topology import LazyRegularTree, load_edge_list

EXIT_OK = 0
EXIT_CAPACITY = 3
EXIT_VALIDATION = 4


def _write(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _cmd_simulate(args) -> int:
    if args.edge_list is not None:
        g = load_edge_list(args.edge_list)
        if args.source is None:
            raise ValidationError("--source is required with --edge-list")
        source = args.source
        backend = args.backend or "exponential-clocks"
    else:
        if args.delta is None:
            raise ValidationError("need --delta (regular tree) or --edge-list")
        g = LazyRegularTree(args.delta)
        source = args.source if args.source is not None else 0
        backend = args.backend or "uniform-boundary"
    snap = simulate_si(g, SpreadConfig(source=source, n=args.n, seed=args.seed,
                                       backend=backend))
    _write(snapshot_to_json(snap), args.output)
    return EXIT_OK


def _cmd_estimate(args) -> int:
    with open(args.snapshot) as fh:
        text = fh.read()
    host = load_edge_list(args.edge_list) if args.edge_list else None
    snap = snapshot_from_json(text, host=host)
    try:
        members = [int(tok) for tok in args.suspects.split(",") if tok.strip()]
    except ValueError:
        raise ValidationError(f"bad suspect list {args.suspects!r}") from None
    est = map_estimate(snap, SuspectSet(members), tie_seed=args.tie_seed)
    if args.format == "csv":
        rows = ["chosen,argmax_set,method,tie_broken",
                f"{est.chosen},{';'.join(map(str, est.argmax_set))},"
                f"{est.method},{est.tie_broken}"]
        _write("\n".join(rows), args.output)
    else:
        _write(json.dumps(est.to_dict(), indent=2), args.output)
    return EXIT_OK


def _cmd_exact(args) -> int:
    if args.max_states < 1:
        raise ValidationError(f"--max-states must be >= 1, got {args.max_states}")
    param = scenario_param(args.scenario, k=args.k, d=args.d, m=args.m)
    res = scenario_exact(args.scenario, args.delta, args.n, param,
                         exact=args.exact_arith, max_states=args.max_states)
    if args.format == "json":
        doc = {"scenario": args.scenario, "delta": args.delta, "n": args.n,
               "k": args.k, "d": args.d, "m": args.m,
               "value": float(res.value), "method": res.method}
        if hasattr(res.value, "numerator"):
            doc["rational"] = f"{res.value.numerator}/{res.value.denominator}"
        _write(json.dumps(doc, indent=2), args.output)
    else:
        _write(_fmt(float(res.value)), args.output)
    return EXIT_OK


def _cmd_asymptotic(args) -> int:
    scenario, fixed = LIMITS[args.limit]
    param = scenario_param(scenario, k=args.k, **fixed)
    _write(_fmt(scenario_limit(scenario, args.delta, param)), args.output)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    cfg = ExperimentConfig(scenario=args.scenario, delta=args.delta, n=args.n,
                           trials=args.trials, seed=args.seed, k=args.k,
                           d=args.d, backend=args.backend or "uniform-boundary")
    rep = run_experiment(cfg)
    if args.format == "json":
        _write(json.dumps(rep.to_dict(), indent=2), args.output)
    else:
        _write(reports_to_csv([rep]), args.output)
    return EXIT_OK


def _parse_ints(text: str | None):
    if text is None:
        return None
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValidationError(f"bad integer list {text!r}") from None


def _cmd_figure(args) -> int:
    reports = figure_sweep(args.figure, seed=args.seed, n=args.n,
                           trials=args.trials,
                           deltas=_parse_ints(args.deltas),
                           ks=_parse_ints(args.ks), ds=_parse_ints(args.ds))
    if args.format == "json":
        _write(json.dumps([r.to_dict() for r in reports], indent=2),
               args.output)
    else:
        _write(reports_to_csv(reports), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rumorsource",
        description="Rumor-source detection on trees: simulate, estimate, "
                    "and compare against exact theory.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one spreading process")
    p.add_argument("--delta", type=int, help="regular-tree degree")
    p.add_argument("--edge-list", help="explicit graph file instead of a tree")
    p.add_argument("--source", type=int, help="source node (default 0 on trees)")
    p.add_argument("--n", type=int, required=True, help="infections to draw")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--backend", choices=BACKENDS)
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="locate the source of a snapshot")
    p.add_argument("--snapshot", required=True, help="snapshot JSON file")
    p.add_argument("--edge-list", help="host graph for non-tree snapshots")
    p.add_argument("--suspects", required=True, help="comma-separated node ids")
    p.add_argument("--tie-seed", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("exact", help="exact detection probability")
    p.add_argument("scenario", choices=EXACT_SCENARIOS)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--m", type=int, help="suspect neighbors (conditional)")
    p.add_argument("--exact-arith", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="force rational (or float) arithmetic; default: "
                        "rational up to n=500")
    p.add_argument("--max-states", type=int, default=DEFAULT_STATE_BUDGET,
                   help="state budget of the two-at-d chain walk "
                        "(default %(default)s); exit 3 when exceeded")
    p.add_argument("--format", choices=["plain", "json"], default="plain")
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("asymptotic", help="large-n detection limits")
    p.add_argument("limit", choices=list(LIMITS))
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_asymptotic)

    p = sub.add_parser("experiment", help="Monte Carlo vs exact theory")
    p.add_argument("--scenario", required=True, choices=SCENARIOS)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--backend", choices=BACKENDS)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("figure", help="sweeps behind the standard plots")
    p.add_argument("--figure", required=True, choices=FIGURES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--deltas", help="comma-separated degree sweep override")
    p.add_argument("--ks", help="comma-separated k sweep override")
    p.add_argument("--ds", help="comma-separated distance sweep override")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_figure)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (CapacityError, BudgetError, MemoryError) as e:
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return EXIT_CAPACITY
    except (OSError, UnicodeDecodeError) as e:  # unreadable or not UTF-8
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
