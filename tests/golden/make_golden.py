"""Regenerate the golden `experiment` CSVs, `simulate` JSON files, `exact`
JSON files and the cyclic-host `estimate` JSON file in this directory.

    PYTHONPATH=src python3 tests/golden/make_golden.py

Each CSV holds one scenario and backend over degrees 2, 3, 4 and 12 at
n=30, 300 trials, seed 7, exactly as `rumorsource experiment --format csv`
prints it: one header, then one row per run.  Each `simulate` JSON file is
the snapshot `rumorsource simulate` prints for one (degree, n, seed,
backend) case on the lazy regular tree.  Each `exact` JSON file is the list
of documents `rumorsource exact <scenario> --format json` prints over
degrees 2, 3, 4 and 12, three values of the scenario's parameter (its least
and two more) and n = 1, 2, 7, 30, 200 (rational by default) and 2000
(float by default).  The `estimate` file is the list of
`rumorsource estimate --edge-list ... --format json` answers for
exponential-clocks snapshots on two hosts with cycles, where the estimator
takes its BFS-heuristic route: a 12x12 torus with connected suspects, and a
6-cycle with its three long chords, on which every node ties.  The `hits`
file holds `harness.run_trial`'s hit vector, one character per trial, for
every Monte Carlo scenario, both backends, degrees 2, 3, 4 and 12 and
n = 1, 2, 31 and 200.
tests/test_golden.py asserts that the current code
reproduces every file byte for byte, so regenerate only when a change of
results is intended.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from rumorsource.cli import main
from rumorsource.estimator import make_suspects_connected
from rumorsource.harness import ExperimentConfig, run_trial
from rumorsource.topology import ExplicitGraph

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


TORUS_SIDE = 12
TORUS_EDGES = tuple(
    (r * TORUS_SIDE + c, u)
    for r in range(TORUS_SIDE) for c in range(TORUS_SIDE)
    for u in (r * TORUS_SIDE + (c + 1) % TORUS_SIDE,
              ((r + 1) % TORUS_SIDE) * TORUS_SIDE + c))
CHORD_EDGES = tuple((i, (i + 1) % 6) for i in range(6)) + ((0, 3), (1, 4), (2, 5))
# host -> (edges, (source, n, seed, k) of each case); the k suspects are the
# first k nodes of the BFS from the source, and seed is also the tie seed
ESTIMATE_HOSTS = {
    "torus-12x12": (TORUS_EDGES, ((0, 60, 1, 8), (77, 60, 2, 12),
                                  (143, 60, 3, 20))),
    "chorded-6-cycle": (CHORD_EDGES, ((0, 6, 1, 6), (0, 6, 2, 6), (3, 6, 3, 6),
                                      (2, 4, 4, 6))),
}


# n of each frozen hit vector: one node, two, odd and even; trials per vector
HIT_NS = (1, 2, 31, 200)
HIT_TRIALS = 25


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


def estimate_path() -> Path:
    return HERE / "estimate_bfs-heuristic.json"


def _cli(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return buf.getvalue()


def render_estimate() -> str:
    docs = []
    with tempfile.TemporaryDirectory() as tmp:
        for host, (edges, cases) in ESTIMATE_HOSTS.items():
            graph = Path(tmp) / f"{host}.txt"
            graph.write_text("".join(f"{u} {v}\n" for u, v in edges))
            g = ExplicitGraph.from_edges(edges)
            for source, n, seed, k in cases:
                snap = Path(tmp) / "snapshot.json"
                snap.write_text(_cli([
                    "simulate", "--edge-list", str(graph), "--source", str(source),
                    "--n", str(n), "--seed", str(seed),
                    "--backend", "exponential-clocks"]))
                suspects = sorted(make_suspects_connected(g, source, k).members)
                est = _cli(["estimate", "--snapshot", str(snap),
                            "--edge-list", str(graph),
                            "--suspects", ",".join(map(str, suspects)),
                            "--tie-seed", str(seed), "--format", "json"])
                docs.append({"host": host, "source": source, "n": n,
                             "seed": seed, "suspects": suspects,
                             "estimate": json.loads(est)})
    return json.dumps(docs, indent=1) + "\n"


def hits_path() -> Path:
    return HERE / "run_trial_hits.json"


def render_hits() -> str:
    docs = []
    for scenario, runs in SCENARIOS.items():
        for extra in runs:
            param = {extra[0].lstrip("-"): int(extra[1])} if extra else {}
            for backend in BACKENDS:
                for delta in DELTAS:
                    for n in HIT_NS:
                        cfg = ExperimentConfig(scenario, delta, n, HIT_TRIALS, 7,
                                               backend=backend, **param)
                        hits = "".join("01"[run_trial(cfg, t)]
                                       for t in range(HIT_TRIALS))
                        docs.append(json.dumps({
                            "scenario": scenario, **param, "backend": backend,
                            "delta": delta, "n": n, "hits": hits}))
    return "[\n" + ",\n".join(docs) + "\n]\n"


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
    path = estimate_path()
    path.write_text(render_estimate())
    print(path.relative_to(HERE.parent.parent))
    path = hits_path()
    path.write_text(render_hits())
    print(path.relative_to(HERE.parent.parent))
