"""Regenerate the golden `experiment` CSVs in this directory.

    PYTHONPATH=src python3 tests/golden/make_golden.py

Each file holds one scenario and backend over degrees 2, 3, 4 and 12 at
n=30, 300 trials, seed 7, exactly as `rumorsource experiment --format csv`
prints it: one header, then one row per run.  tests/test_golden.py asserts
that the current code reproduces every file byte for byte, so regenerate
only when a change of results is intended.
"""

from __future__ import annotations

import contextlib
import io
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


if __name__ == "__main__":
    for scenario in SCENARIOS:
        for backend in BACKENDS:
            path = golden_path(scenario, backend)
            path.write_text(render(scenario, backend))
            print(path.relative_to(HERE.parent.parent))
