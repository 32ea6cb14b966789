"""Regenerate the golden `experiment` CSVs, `simulate` JSON files and
`exact` JSON files in this directory.

    PYTHONPATH=src python3 tests/golden/make_golden.py

Each CSV holds one scenario and backend over degrees 2, 3, 4 and 12 at
n=30, 300 trials, seed 7, exactly as `rumorsource experiment --format csv`
prints it: one header, then one row per run.  Each `simulate` JSON file is
the snapshot `rumorsource simulate` prints for one (degree, n, seed,
backend) case on the lazy regular tree.  Each `exact` JSON file is the list
of documents `rumorsource exact <scenario> --format json` prints over
degrees 2, 3, 4 and 12, three values of the scenario's parameter (its least
and two more) and n = 1, 2, 7, 30, 200 (rational by default) and 2000
(float by default).  tests/test_golden.py asserts that the current code
reproduces every file byte for byte, so regenerate only when a change of
results is intended.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from rumorsource.cli import main

HERE = Path(__file__).resolve().parent
DELTAS = (2, 3, 4, 12)
BACKENDS = ("uniform-boundary", "exponential-clocks")
# scenario -> extra argv per run; two-at-d covers both distances
SCENARIOS = {
    "all-suspects": [[]],
    "connected-k": [["--k", "5"]],
    "two-at-d": [["--d", "1"], ["--d", "2"]],
}

# (delta, n, seed, backend) of each frozen `simulate` snapshot
SIMULATE_CASES = (
    (3, 40, 7, "uniform-boundary"),
    (12, 300, 1, "exponential-clocks"),
    (2, 50, 3, "uniform-boundary"),
    (4, 500, 11, "uniform-boundary"),
    (3, 400, 5, "exponential-clocks"),
    (12, 2000, 2, "uniform-boundary"),
)

# exact scenario -> extra argv per parameter value: its least and two more
EXACT_PARAMS = {
    "all-suspects": [[]],
    "connected-k": [["--k", "1"], ["--k", "2"], ["--k", "5"]],
    "two-at-d": [["--d", "1"], ["--d", "2"], ["--d", "3"]],
    "general-k-bound": [["--k", "1"], ["--k", "2"], ["--k", "5"]],
    "conditional": [["--m", "0"], ["--m", "1"], ["--m", "2"]],
}
EXACT_NS = (1, 2, 7, 30, 200, 2000)
# (scenario, extra argv) left out at the float size n = 2000: the d = 3
# float walk takes about 0.6 s a degree there
SLOW_FLOAT = {("two-at-d", ("--d", "3"))}


def golden_path(scenario: str, backend: str) -> Path:
    return HERE / f"experiment_{scenario}_{backend}.csv"


def render(scenario: str, backend: str) -> str:
    header, rows = None, []
    for extra in SCENARIOS[scenario]:
        for delta in DELTAS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(["experiment", "--scenario", scenario,
                             "--delta", str(delta), "--n", "30",
                             "--trials", "300", "--seed", "7",
                             "--backend", backend, *extra,
                             "--format", "csv"])
            if code != 0:
                raise SystemExit(f"experiment {scenario} {backend} "
                                 f"delta={delta} {extra} exited {code}")
            header, row = buf.getvalue().splitlines()
            rows.append(row)
    return "\n".join([header, *rows]) + "\n"


def simulate_path(delta: int, n: int, seed: int, backend: str) -> Path:
    return HERE / f"simulate_d{delta}_n{n}_s{seed}_{backend}.json"


def render_simulate(delta: int, n: int, seed: int, backend: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["simulate", "--delta", str(delta), "--n", str(n),
                     "--seed", str(seed), "--backend", backend])
    if code != 0:
        raise SystemExit(f"simulate {delta} {n} {seed} {backend} exited {code}")
    return buf.getvalue()


def exact_path(scenario: str) -> Path:
    return HERE / f"exact_{scenario}.json"


def render_exact(scenario: str) -> str:
    docs = []
    for extra in EXACT_PARAMS[scenario]:
        for delta in DELTAS:
            for n in EXACT_NS:
                if n > 500 and (scenario, tuple(extra)) in SLOW_FLOAT:
                    continue
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = main(["exact", scenario, "--delta", str(delta),
                                 "--n", str(n), *extra, "--format", "json"])
                if code != 0:
                    raise SystemExit(f"exact {scenario} delta={delta} n={n} "
                                     f"{extra} exited {code}")
                docs.append(json.loads(buf.getvalue()))
    return json.dumps(docs, indent=1) + "\n"


if __name__ == "__main__":
    for scenario in SCENARIOS:
        for backend in BACKENDS:
            path = golden_path(scenario, backend)
            path.write_text(render(scenario, backend))
            print(path.relative_to(HERE.parent.parent))
    for case in SIMULATE_CASES:
        path = simulate_path(*case)
        path.write_text(render_simulate(*case))
        print(path.relative_to(HERE.parent.parent))
    for scenario in EXACT_PARAMS:
        path = exact_path(scenario)
        path.write_text(render_exact(scenario))
        print(path.relative_to(HERE.parent.parent))
