"""The four benchmark workloads and the checks that decide which ops failed.

A workload performs one fixed list of ops per pass; the runner repeats
passes until its time is up.  Each is a closed loop with one caller: an op
starts only after the previous one returned.  An op fails when it raises
BudgetError or CapacityError or when its output check fails.

With a Tracer, the same ops run inside spans.  Where a public call enters a
layer lazily (tree growth inside simulate_si, centrality inside
map_estimate), the traced pass times that layer with a separate public call
on the same input; the caller's self time is then the difference.

This module imports only the standard library at load time, so that the
package import (numpy and scipy included) falls inside the timed set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import resource
import statistics
import subprocess
import sys
from array import array
from fractions import Fraction
from functools import partial
from pathlib import Path
from time import perf_counter

# Two-sided 99.99% normal quantile for the Wilson band of each MC config.
Z_9999 = statistics.NormalDist().inv_cdf(1 - 0.0001 / 2)

SIZES = {
    "full": {
        "setup_repeats": 5,
        "mc-sweep": {"n": 500, "deltas": (3, 4, 12), "k": 5, "d": 1,
                     "trials": 200},
        "mc-large-n": {"n": 20_000, "deltas": (3, 4), "trials": 2},
        "graph-clocks": {"side": 100, "k": 20, "n": 300, "trials": 200},
        "exact-grid": {
            "two": ((3, 100, 4), (4, 100, 4), (3, 500, 3), (12, 500, 3),
                    (12, 500, 2)),
            "audit": (3, 3, 100),
            "float_walk": (3, 2, 4000),
            "tail_n": 2000, "tail_deltas": (4, 12, 50), "tail_k": 5,
            "survival": (3, 3, 200),
            "cli": (3, 100, 3),
            "pmf_prevs": (20, 100, 400),
        },
    },
    "tiny": {
        "setup_repeats": 2,
        "mc-sweep": {"n": 40, "deltas": (3, 4, 12), "k": 5, "d": 1,
                     "trials": 4},
        "mc-large-n": {"n": 300, "deltas": (3, 4), "trials": 2},
        "graph-clocks": {"side": 8, "k": 5, "n": 20, "trials": 5},
        "exact-grid": {
            "two": ((3, 30, 3), (4, 30, 3), (3, 40, 2), (12, 40, 2),
                    (12, 40, 1)),
            "audit": (3, 2, 30),
            "float_walk": (3, 2, 200),
            "tail_n": 60, "tail_deltas": (4, 12, 50), "tail_k": 5,
            "survival": (3, 2, 40),
            "cli": (3, 30, 2),
            "pmf_prevs": (5, 12),
        },
    },
}

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


class Recorder:
    """Op times of one run segment, grouped by key, and the op counts.

    Times go into arrays of doubles, which the garbage collector does not
    track: lists of float objects would lengthen every gen-2 pause of the
    program under test as the run goes on.
    """

    def __init__(self):
        self.trial_s = array("d")
        self.by_key: dict[str, array] = {}
        self.attempted = 0
        self.failed = 0

    def add(self, key: str, seconds: float, ok: bool, trial: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
        if trial:
            self.trial_s.append(seconds)
        times = self.by_key.get(key)
        if times is None:
            times = self.by_key[key] = array("d")
        times.append(seconds)


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def wilson_contains(successes: int, trials: int, p: float,
                    z: float = Z_9999) -> bool:
    """True when p lies inside the Wilson score band of successes/trials."""
    phat = successes / trials
    z2 = z * z
    center = phat + z2 / (2 * trials)
    half = z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials))
    denom = 1 + z2 / trials
    return (center - half) / denom <= p <= (center + half) / denom


def trial_streams(seed: int, trial: int) -> tuple:
    """The (draw, spread, tie) seeds harness.run_trial derives for a trial."""
    import numpy as np

    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
    return tuple(int(x) for x in ss.generate_state(3, np.uint64))


def clear_package_caches() -> None:
    """Empty every functools cache in the package, so each exact call is cold."""
    for name, mod in list(sys.modules.items()):
        if name == "rumorsource" or name.startswith("rumorsource."):
            for obj in list(vars(mod).values()):
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


# ---------------------------------------------------------------------------
# Monte Carlo on the lazy regular tree: mc-sweep and mc-large-n

class TreeMonteCarlo:
    """harness.run_trial over a list of configs, plus each config's reference."""

    def __init__(self, rs, seed: int, scenarios, deltas, n: int, trials: int):
        self.rs = rs
        self.failures = (rs.BudgetError, rs.CapacityError)
        self.trials = trials
        self.n = n
        self.configs = [
            rs.ExperimentConfig(scenario, delta, n, trials, seed, **extra)
            for scenario, extra in scenarios for delta in deltas
        ]
        self.keys = [f"{c.scenario}/delta={c.delta}" for c in self.configs]
        self.hits = [0] * len(self.configs)
        self.done = [0] * len(self.configs)
        self.reference = [None] * len(self.configs)
        self.passes = 0
        self.trial_id = 0
        # traced-pass counts
        self.grow_ns_per_node: list[float] = []
        self.nodes_per_infected: list[float] = []
        self.root_bits: list[int] = []
        self.candidates: list[int] = []
        self.ties = 0

    def run_pass(self, rec: Recorder, tr=None) -> None:
        run_trial = self.rs.run_trial
        first = self.passes * self.trials
        self.passes += 1
        for i, cfg in enumerate(self.configs):
            key = self.keys[i]
            for t in range(first, first + self.trials):
                t0 = perf_counter()
                try:
                    if tr is None:
                        hit = run_trial(cfg, t)
                        dt = perf_counter() - t0
                    else:
                        hit, dt = self._traced_trial(cfg, t, tr)
                except self.failures:
                    hit, dt = None, perf_counter() - t0
                rec.add(key, dt, hit is True or hit is False, trial=True)
                self.done[i] += 1
                self.hits[i] += hit is True
            self._reference_op(i, rec, tr)
            if tr is not None:
                self._grow_probe(cfg.delta, tr)

    def _reference_op(self, i: int, rec: Recorder, tr) -> None:
        cfg = self.configs[i]
        rs = self.rs
        span = tr.span("exactprob.reference") if tr else contextlib.nullcontext()
        t0 = perf_counter()
        try:
            with span:
                if cfg.scenario == "all-suspects":
                    res, limit = rs.pc_all_suspects(cfg.delta, cfg.n), rs.phi1(cfg.delta)
                elif cfg.scenario == "connected-k":
                    res = rs.pc_connected(cfg.delta, cfg.k, cfg.n)
                    limit = rs.phi2(cfg.delta, cfg.k)
                else:
                    res, limit = rs.pc_two_suspects(cfg.delta, cfg.d, cfg.n), rs.phi3(cfg.delta)
        except self.failures:
            rec.add(self.keys[i] + "/reference", perf_counter() - t0, False, trial=False)
            return
        dt = perf_counter() - t0
        value = float(res.value)
        rec.add(self.keys[i] + "/reference", dt, 0 <= value <= 1 and 0 <= limit <= 1,
                trial=False)
        self.reference[i] = value

    def _traced_trial(self, cfg, t: int, tr) -> tuple:
        rs = self.rs
        self.trial_id += 1
        with tr.span("trial", trial=self.trial_id):
            with tr.span("harness.run_trial") as outer:
                hit = rs.run_trial(cfg, t)
            # Replay the trial's steps as separate public calls on the same
            # seeds, so each layer inside run_trial gets its own span.
            draw, sim, tie = trial_streams(cfg.seed, t)
            g = rs.LazyRegularTree(cfg.delta)
            suspects = None
            with tr.span("estimator.make_suspects"):
                if cfg.scenario == "connected-k":
                    suspects = rs.make_suspects_connected(g, 0, cfg.k)
                elif cfg.scenario == "two-at-d":
                    far = g.path_from_origin(cfg.d)[-1]
                    suspects = rs.make_suspects_two(g, 0, far)
            source = 0
            if suspects is not None:
                members = sorted(suspects.members)
                source = members[random.Random(draw).randrange(len(members))]
            with tr.span("spread.simulate_si"):
                snap = rs.simulate_si(g, rs.SpreadConfig(
                    source=source, n=cfg.n, seed=sim, backend=cfg.backend))
            if suspects is None:
                with tr.span("estimator.make_suspects"):
                    suspects = rs.make_suspects_all(snap)
            with tr.span("estimator.map_estimate"):
                est = rs.map_estimate(snap, suspects, tie_seed=tie)
            self.nodes_per_infected.append(g.num_nodes / cfg.n)
            self.candidates.append(len(suspects.members & snap.nodes))
            self.ties += est.tie_broken
            with tr.span("centrality.centrality_all"):
                report = rs.centrality_all(snap)
            self.root_bits.append(report.exact[report.root].bit_length())
        return hit, tr.seconds(outer)

    def _grow_probe(self, delta: int, tr) -> None:
        radius = 0
        while self.rs.ball_size(delta, radius + 1) <= 4096:
            radius += 1
        with tr.span("topology.regular_tree") as s:
            g = self.rs.regular_tree(delta, radius)
        self.grow_ns_per_node.append(tr.seconds(s) * 1e9 / g.num_nodes)

    def final_checks(self, rec: Recorder) -> None:
        """Pooled hit rate of each config against its exact reference."""
        for i, key in enumerate(self.keys):
            if self.done[i]:
                ok = self.reference[i] is not None and wilson_contains(
                    self.hits[i], self.done[i], self.reference[i])
                rec.add(key + "/wilson", 0.0, ok, trial=False)

    def layers(self, tr, rec: Recorder) -> dict:
        run = tr.by_trial("harness.run_trial")
        sus = tr.by_trial("estimator.make_suspects")
        sim = tr.by_trial("spread.simulate_si")
        est = tr.by_trial("estimator.map_estimate")
        cen = tr.by_trial("centrality.centrality_all")
        done = [t for t in run if t in cen]
        sim_ms = median_or_zero(sim.values()) * 1e3
        return {
            "topology.grow_ns_per_node": median_or_zero(self.grow_ns_per_node),
            "topology.nodes_per_infected": median_or_zero(self.nodes_per_infected),
            "spread.simulate_ms": sim_ms,
            "spread.us_per_infection": sim_ms * 1e3 / max(self.n - 1, 1),
            "centrality.all_ms": median_or_zero(cen.values()) * 1e3,
            "centrality.root_bits": median_or_zero(self.root_bits),
            "estimator.suspects_ms": median_or_zero(sus.values()) * 1e3,
            "estimator.map_ms": median_or_zero(est.values()) * 1e3,
            "estimator.self_ms": median_or_zero(est[t] - cen[t] for t in done) * 1e3,
            "estimator.tie_rate": self.ties / max(len(done), 1),
            "estimator.candidates": statistics.fmean(self.candidates) if self.candidates else 0.0,
            "exactprob.reference_ms": median_or_zero(tr.durations("exactprob.reference")) * 1e3,
            "harness.trial_self_ms": median_or_zero(
                run[t] - sus[t] - sim[t] - est[t] for t in done) * 1e3,
        }


def mc_sweep(rs, seed: int, size: dict) -> TreeMonteCarlo:
    scenarios = (("all-suspects", {}), ("connected-k", {"k": size["k"]}),
                 ("two-at-d", {"d": size["d"]}))
    return TreeMonteCarlo(rs, seed, scenarios, size["deltas"], size["n"],
                          size["trials"])


def mc_large_n(rs, seed: int, size: dict) -> TreeMonteCarlo:
    return TreeMonteCarlo(rs, seed, (("all-suspects", {}),), size["deltas"],
                          size["n"], size["trials"])


# ---------------------------------------------------------------------------
# graph-clocks: exponential clocks and the BFS heuristic on a cyclic torus

def write_torus(path: Path, side: int) -> None:
    with open(path, "w") as fh:
        for r in range(side):
            for c in range(side):
                u = r * side + c
                fh.write(f"{u} {r * side + (c + 1) % side}\n")
                fh.write(f"{u} {((r + 1) % side) * side + c}\n")


class GraphClocks:
    """Seeded trials on a side x side torus read back from an edge list."""

    def __init__(self, rs, seed: int, size: dict, out_dir: Path):
        self.rs = rs
        self.failures = (rs.BudgetError, rs.CapacityError)
        self.k, self.n, self.trials = size["k"], size["n"], size["trials"]
        self.path = out_dir / f"torus-{size['side']}x{size['side']}.txt"
        write_torus(self.path, size["side"])
        t0 = perf_counter()
        self.graph = rs.load_edge_list(self.path)
        self.parse_s = [perf_counter() - t0]
        self.nodes = size["side"] ** 2
        self.rng = random.Random(seed)
        self.trial_id = 0
        self.candidates: list[int] = []
        self.ties = 0

    def _draw(self) -> tuple:
        r = self.rng
        return (r.randrange(self.nodes), r.randrange(self.k),
                r.getrandbits(63), r.getrandbits(63))

    def run_pass(self, rec: Recorder, tr=None) -> None:
        rs, g, k, n = self.rs, self.graph, self.k, self.n
        for _ in range(self.trials):
            anchor, pick, sim_seed, tie_seed = self._draw()
            if tr is not None:
                self._traced_trial(rec, tr, anchor, pick, sim_seed, tie_seed)
                continue
            t0 = perf_counter()
            try:
                suspects = rs.make_suspects_connected(g, anchor, k)
                source = sorted(suspects.members)[pick]
                snap = rs.simulate_si(g, rs.SpreadConfig(
                    source=source, n=n, seed=sim_seed,
                    backend="exponential-clocks"))
                est = rs.map_estimate(snap, suspects, tie_seed=tie_seed)
            except self.failures:
                rec.add("trial", perf_counter() - t0, False, trial=True)
                continue
            dt = perf_counter() - t0
            rec.add("trial", dt, self._valid(snap, suspects, est), trial=True)

    def _valid(self, snap, suspects, est) -> bool:
        return (snap.n == self.n and est.method == "bfs-heuristic"
                and est.chosen in est.argmax_set
                and est.chosen in suspects.members and est.chosen in snap.nodes)

    def _traced_trial(self, rec, tr, anchor, pick, sim_seed, tie_seed) -> None:
        rs, g = self.rs, self.graph
        self.trial_id += 1
        try:
            with tr.span("trial", trial=self.trial_id):
                with tr.span("estimator.make_suspects") as a:
                    suspects = rs.make_suspects_connected(g, anchor, self.k)
                source = sorted(suspects.members)[pick]
                with tr.span("spread.simulate_si") as b:
                    snap = rs.simulate_si(g, rs.SpreadConfig(
                        source=source, n=self.n, seed=sim_seed,
                        backend="exponential-clocks"))
                with tr.span("estimator.map_estimate") as c:
                    est = rs.map_estimate(snap, suspects, tie_seed=tie_seed)
                seconds = tr.seconds(a) + tr.seconds(b) + tr.seconds(c)
                cands = sorted(suspects.members & snap.nodes)
                scores = {}
                for s in cands:
                    with tr.span("topology.bfs_tree"):
                        rs.bfs_tree(g, s, restrict=snap.nodes)
                    with tr.span("centrality.bfs_heuristic_centrality"):
                        scores[s] = rs.bfs_heuristic_centrality(g, snap.nodes, s)
        except self.failures:
            rec.add("trial", 0.0, False, trial=True)
            return
        self.candidates.append(len(cands))
        self.ties += est.tie_broken
        ok = (self._valid(snap, suspects, est)
              and scores.get(est.chosen) == max(scores.values()))
        rec.add("trial", seconds, ok, trial=True)

    def final_checks(self, rec: Recorder) -> None:
        pass

    def layers(self, tr, rec: Recorder) -> dict:
        for _ in range(4):
            t0 = perf_counter()
            self.rs.load_edge_list(self.path)
            self.parse_s.append(perf_counter() - t0)
        est = tr.by_trial("estimator.map_estimate")
        heur = tr.by_trial("centrality.bfs_heuristic_centrality")
        sim_ms = median_or_zero(tr.durations("spread.simulate_si")) * 1e3
        return {
            "topology.bfs_tree_ms": median_or_zero(tr.durations("topology.bfs_tree")) * 1e3,
            "topology.parse_s": statistics.median(self.parse_s),
            "spread.simulate_ms": sim_ms,
            "spread.us_per_infection": sim_ms * 1e3 / max(self.n - 1, 1),
            "centrality.bfs_heuristic_ms": median_or_zero(
                tr.durations("centrality.bfs_heuristic_centrality")) * 1e3,
            "estimator.suspects_ms": median_or_zero(
                tr.durations("estimator.make_suspects")) * 1e3,
            "estimator.map_ms": median_or_zero(est.values()) * 1e3,
            "estimator.self_ms": median_or_zero(
                est[t] - heur.get(t, 0.0) for t in est) * 1e3,
            "estimator.tie_rate": self.ties / max(len(self.candidates), 1),
            "estimator.candidates": statistics.fmean(self.candidates) if self.candidates else 0.0,
        }


# ---------------------------------------------------------------------------
# exact-grid: a fixed list of exact calls; no randomness, the seed is unused

def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def as_rational(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def close(x: float, want: float, rel: float = 1e-9) -> bool:
    return isinstance(x, float) and abs(x - want) <= rel * abs(want)


class ExactGrid:
    """The exact calls of one pass, each with its output check."""

    def __init__(self, rs, size: dict, golden: dict, float_walk=None):
        self.rs = rs
        self.size = size
        self.golden = golden
        self.float_walk = float_walk  # runs float_walk_rss in a fresh process
        self.failures = (rs.BudgetError, rs.CapacityError)
        self.audit_states = 0
        self.ops = []  # (key, call, check)
        for delta, n, d in size["two"]:
            key = f"pc_two_suspects({delta},{d},{n})"
            self.ops.append((key, partial(rs.pc_two_suspects, delta, d, n, exact=True),
                             partial(self._rational_result, key)))
        delta, d, n = size["audit"]
        self.ops.append((f"two_suspect_chain_audit({delta},{d},{n})",
                         partial(rs.two_suspect_chain_audit, delta, d, n, exact=True),
                         self._audit_ok))
        delta, d, n = size["float_walk"]
        key = f"pc_two_suspects_float({delta},{d},{n})"
        self.ops.append((key, partial(rs.pc_two_suspects, delta, d, n, exact=False),
                         lambda res, key=key: close(res.value, golden.get(key, math.nan))))
        n, k = size["tail_n"], size["tail_k"]
        for delta in size["tail_deltas"]:
            key = f"pc_all_suspects({delta},{n})"
            self.ops.append((key, partial(rs.pc_all_suspects, delta, n, exact=True),
                             partial(self._rational_result, key)))
            key = f"pc_connected({delta},{k},{n})"
            self.ops.append((key, partial(rs.pc_connected, delta, k, n, exact=True),
                             partial(self._rational_result, key)))
        delta, depth, n = size["survival"]
        key = f"two_suspect_survival_mass({delta},{depth},{n})"
        self.ops.append((key, partial(rs.two_suspect_survival_mass, delta, depth, n, exact=True),
                         partial(self._rational, key)))
        for key, call in (("phi1(4)", partial(rs.phi1, 4)),
                          ("phi2(4,5)", partial(rs.phi2, 4, 5)),
                          ("phi3(3)", partial(rs.phi3, 3))):
            self.ops.append((key, call,
                             lambda v, key=key: close(v, golden.get(key, math.nan))))

    def _rational(self, key: str, value) -> bool:
        return key in self.golden and value == as_rational(self.golden[key])

    def _rational_result(self, key: str, res) -> bool:
        return isinstance(res.value, Fraction) and self._rational(key, res.value)

    def _audit_ok(self, masses) -> bool:
        """Masses total exactly 1 and agree with the pruned walk; keeps the
        audit's state count for the traced run."""
        delta, d, n = self.size["audit"]
        self.audit_states = masses.states
        pruned = self.rs.pc_two_suspects(delta, d, n, exact=True).value
        return (masses.total == 1
                and 1 - (masses.error + masses.tie / 2) == pruned
                and self._rational(f"pc_two_suspects({delta},{d},{n})", pruned))

    def run_pass(self, rec: Recorder, tr=None) -> None:
        """Each call is an op; the pass, its calls back to back, is one trial.

        Percentiles over single calls would be rank statistics over calls of
        very different cost, which jump when one call runs slow.
        """
        total = 0.0
        for key, call, check in self.ops:
            clear_package_caches()
            span = tr.span("exactprob." + key) if tr else contextlib.nullcontext()
            t0 = perf_counter()
            try:
                with span:
                    out = call()
                failed = False
            except self.failures:
                failed = True
            dt = perf_counter() - t0
            total += dt
            rec.add(key, dt, not failed and check(out), trial=False)
        rec.trial_s.append(total)

    def final_checks(self, rec: Recorder) -> None:
        pass

    def layers(self, tr, rec: Recorder) -> dict:
        """Per-layer numbers from the traced passes, plus the traced-only probes."""
        def med(key):
            return median_or_zero(tr.durations("exactprob." + key))

        size = self.size
        audit_key = "two_suspect_chain_audit({},{},{})".format(*size["audit"])
        audit_s = med(audit_key)
        out = {
            "exactprob.chain_s": sum(med(f"pc_two_suspects({a},{d},{n})")
                                     for a, n, d in size["two"]),
            "exactprob.audit_states": self.audit_states,
            "exactprob.states_per_s": self.audit_states / audit_s if audit_s else 0.0,
            "exactprob.float_walk_s": med("pc_two_suspects_float({},{},{})".format(
                *size["float_walk"])),
            "exactprob.tail_s": sum(
                med(f"pc_all_suspects({a},{size['tail_n']})")
                + med(f"pc_connected({a},{size['tail_k']},{size['tail_n']})")
                for a in size["tail_deltas"]),
            "exactprob.survival_s": med("two_suspect_survival_mass({},{},{})".format(
                *size["survival"])),
            "urn.step_pmf_us": self._step_pmf_us(),
            "cli.overhead_ms": self._cli_overhead_ms(rec),
        }
        probe = self.float_walk()
        key = "pc_two_suspects_float({},{},{})".format(*size["float_walk"])
        rec.add("float-walk-probe", probe["seconds"],
                close(probe["value"], self.golden.get(key, math.nan)), trial=False)
        out["exactprob.float_walk_mb"] = probe["rss_growth_mb"]
        return out

    def _step_pmf_us(self) -> float:
        step = self.rs.chain_step_pmf
        cases = [(delta, prev, c) for delta in (3, 12)
                 for prev in self.size["pmf_prevs"]
                 for c in sorted({1, prev // 2, prev - 1})]
        times = []
        for _ in range(5):
            for delta, prev, c in cases:
                t0 = perf_counter()
                step(delta, prev, c)
                times.append(perf_counter() - t0)
        return statistics.median(times) * 1e6

    def _cli_overhead_ms(self, rec: Recorder) -> float:
        """cli.main for `exact two-at-d` minus the direct call it makes."""
        from rumorsource import cli

        delta, n, d = self.size["cli"]
        argv = ["exact", "two-at-d", "--delta", str(delta), "--n", str(n),
                "--d", str(d), "--format", "json"]
        via_cli, direct = [], []
        for _ in range(5):
            buf = io.StringIO()
            t0 = perf_counter()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            via_cli.append(perf_counter() - t0)
            t0 = perf_counter()
            value = self.rs.pc_two_suspects(delta, d, n).value
            direct.append(perf_counter() - t0)
            try:
                doc = json.loads(buf.getvalue())
                ok = code == 0 and as_rational(doc["rational"]) == value
            except (ValueError, KeyError):
                ok = False
            rec.add("cli", via_cli[-1], ok, trial=False)
        return (statistics.median(via_cli) - statistics.median(direct)) * 1e3


def float_walk_rss(rs, size: dict) -> dict:
    """Run the float d=2 walk once; report its time and peak-RSS growth.

    Meant for a fresh process, where nothing earlier set the RSS high-water
    mark above the baseline.
    """
    delta, d, n = size["float_walk"]
    before = peak_rss_mb()
    t0 = perf_counter()
    value = rs.pc_two_suspects(delta, d, n, exact=False).value
    seconds = perf_counter() - t0
    return {"seconds": seconds, "rss_growth_mb": peak_rss_mb() - before,
            "value": value}


def peak_rss_mb() -> float:
    """Peak resident memory of this process since it was exec'd, in MB.

    Reads VmHWM: ru_maxrss of an exec'd child also carries the peak of the
    parent it was forked from.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_child(argv: list[str], cwd: Path) -> dict:
    """Run a probe of this benchmark in a fresh interpreter; parse its last line."""
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, capture_output=True,
                          text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])
