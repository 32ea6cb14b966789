"""
Monte Carlo against exact theory
================================

The experiment harness runs seeded trials, wraps the hit count in a
Wilson score interval, and lines the estimate up against the exact
finite-n probability and the large-n limit.  This demo keeps the trial
counts small so it finishes in seconds; crank them up for tighter bars.
"""

import rumorsource as rs

SEED = 42

configs = [
    rs.ExperimentConfig(scenario="all-suspects", delta=4, n=200,
                        trials=400, seed=SEED),
    rs.ExperimentConfig(scenario="connected-k", delta=4, n=200, k=5,
                        trials=400, seed=SEED),
    rs.ExperimentConfig(scenario="two-at-d", delta=3, n=200, d=1,
                        trials=400, seed=SEED),
]

print("400 trials each, 95% Wilson intervals:")
print(f"{'scenario':>14} {'empirical':>10} {'ci':>18} {'exact':>8} "
      f"{'limit':>8}")
reports = []
for cfg in configs:
    rep = rs.run_experiment(cfg)
    reports.append(rep)
    ci = f"[{rep.ci_low:.3f}, {rep.ci_high:.3f}]"
    lim = "" if rep.asymptotic_pc is None else f"{rep.asymptotic_pc:.4f}"
    inside = rep.ci_low <= rep.exact_pc <= rep.ci_high
    print(f"{cfg.scenario:>14} {rep.empirical_pc:>10.4f} {ci:>18} "
          f"{rep.exact_pc:>8.4f} {lim:>8}  exact in CI: {inside}")

# Same trials, same seed, different day: identical numbers.
again = rs.run_experiment(configs[0])
print(f"\nrerun with the same seed reproduces: "
      f"{again.successes} == {reports[0].successes} successes")

# Reports serialize to a flat CSV for plotting elsewhere.
print("\ncsv:")
print(rs.reports_to_csv(reports))

# Sweeps bundle the standard comparisons; tiny sizes here just to show
# the shape of the output.
sweep = rs.figure_sweep("fig8", seed=SEED, n=100, trials=200, ks=(2, 5))
print("connected-k sweep at n=100:")
for rep in sweep:
    print(f"  delta={rep.config.delta} k={rep.config.k}: empirical {rep.empirical_pc:.3f} "
          f"vs exact {rep.exact_pc:.3f}")
