"""Monte-Carlo comparison: model policy vs discretely rebalanced delta hedge.

Simulates arithmetic-Brownian price paths and measures the writer's total
hedging cost (terminal shortfall plus execution fees) under

  * Bachelier delta hedging rebalanced M times over the 63 days, for a
    ladder of M values, and
  * the PDE policy applied at every observation time.

More frequent delta rebalancing trims the discretization variance but pays
more execution fees, so the mean cost rises with M while the variance
bottoms out at an interior M. The policy beats the whole ladder on variance
at a mean cost comparable to mid-ladder delta hedging.

Pass a path count to override the default 2000 (10000 reproduces the
figures quoted in the tests, at about a minute of runtime).
"""

import dataclasses
import sys
import time
from pathlib import Path

from liqhedge import GridSpec, run_delta_hedge, run_policy_hedge, solve_theta
from liqhedge.cli import load_config

cfg = load_config(Path(__file__).resolve().parent / "reference_config.json")
n_paths = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
sim = dataclasses.replace(cfg.sim, n_paths=n_paths)
payoff = cfg.payoff
N = payoff.contract.N

print(f"{n_paths} paths, {sim.n_obs - 1} steps, seed {sim.seed}")
print()
print(f"{'strategy':<14s} {'mean cost/sh':>12s} {'std dev/sh':>11s} {'exec fees/sh':>13s}")

for M in cfg.M_list:
    st = run_delta_hedge(payoff, dataclasses.replace(sim, M=M))
    print(f"delta M={M:<5d} {st.mean_cost / N:12.4f} {st.var_cost ** 0.5 / N:11.4f}"
          f" {st.exec_cost_mean / N:13.4f}")

t0 = time.time()
surf = solve_theta(payoff, GridSpec.default(payoff))
st = run_policy_hedge(payoff, surf, sim)
print(f"{'policy':<14s} {st.mean_cost / N:12.4f} {st.var_cost ** 0.5 / N:11.4f}"
      f" {st.exec_cost_mean / N:13.4f}   [{time.time() - t0:.0f}s incl. PDE solve]")
if st.excluded:
    print(f"  ({st.excluded} paths left the solution hull and were excluded)")
