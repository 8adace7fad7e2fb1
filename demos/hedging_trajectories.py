"""Replay the bundled price path and compare hedging trajectories.

Three views on the same 63-day path (the packaged fixture, which ends in the
money at S_T ~ 47.12):

  1. model policy vs Bachelier delta target: the policy tracks a smoothed
     version of N*delta and trades far less,
  2. initial-inventory forgetting: runs started at q0 = 0 and q0 = N converge
     onto the same trajectory within a few days,
  3. cash vs physical settlement: the cash writer unwinds the hedge into
     expiry instead of carrying it to delivery.
"""

from pathlib import Path

import numpy as np

from liqhedge import bachelier_delta, policy_trajectory, reference_path, solve_tree
from liqhedge.cli import load_config

cfg = load_config(Path(__file__).resolve().parent / "reference_config.json")

t, S = reference_path()
print(f"bundled path: {S.size} points, S_T = {S[-1]:.4f}, "
      f"range [{S.min():.3f}, {S.max():.3f}]")

payoff = cfg.payoff
c, m = payoff.contract, payoff.market
tv = solve_tree(payoff, cfg.tree_config)
q, v = policy_trajectory(payoff, tv, S)

# Bachelier delta target on the same path. tau in days, like the model.
tau = np.maximum(c.T - t, 0.0)
q_delta = c.N * bachelier_delta(S, c.K, m.sigma, tau)

dt = t[1] - t[0]
tv_model = np.sum(np.abs(v)) * dt
tv_delta = np.sum(np.abs(np.diff(q_delta)))
print()
print("-- policy vs delta target --")
for day in (0, 15, 31, 47, 63):
    i = int(day / dt)
    print(f"  day {day:2d}: q_model = {q[i] / 1e6:6.2f}M sh,"
          f"  N*delta = {q_delta[i] / 1e6:6.2f}M sh")
print(f"  total shares traded: policy {tv_model:.3e}, "
      f"delta target {tv_delta:.3e}  (ratio {tv_model / tv_delta:.2f})")

print()
print("-- forgetting the initial inventory --")
q_lo, _ = policy_trajectory(payoff, tv, S, q0=0.0)
q_hi, _ = policy_trajectory(payoff, tv, S, q0=c.N)
for day in (1, 3, 5, 10):
    i = int(day / dt)
    print(f"  day {day:2d}: q(q0=0) = {q_lo[i] / 1e6:6.2f}M,"
          f"  q(q0=N) = {q_hi[i] / 1e6:6.2f}M,"
          f"  gap = {abs(q_hi[i] - q_lo[i]) / 1e6:.3f}M")

print()
print("-- settlement style, final week --")
cash = payoff.replace(settlement="cash")
q_cash, _ = policy_trajectory(cash, solve_tree(cash, cfg.tree_config), S)
for day in (56, 58, 60, 62, 63):
    i = int(day / dt)
    print(f"  day {day:2d}: physical q = {q[i] / 1e6:6.2f}M,"
          f"  cash q = {q_cash[i] / 1e6:6.2f}M")
print("  (path ends in the money: physical delivery keeps the stock,")
print("   cash settlement sells it down before expiry)")
