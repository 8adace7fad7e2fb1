"""Price the reference call with both engines and compare against Bachelier.

Scenario: at-the-money call on 2e7 shares, K = 45, sigma = 0.6 per sqrt(day),
63 trading days, daily volume 4e6 shares, participation capped at 5x volume,
execution cost 0.1*|rho|^1.75, CARA risk aversion 2e-7, physical settlement,
writer starts half-covered (q0 = 1e7 shares).

The frictionless Bachelier premium is a lower anchor; execution costs and the
terminal liquidation penalty push the indifference price above it.
"""

import time
from pathlib import Path

from liqhedge import GridSpec, bachelier_price, solve_theta, solve_tree
from liqhedge.cli import load_config

cfg = load_config(Path(__file__).resolve().parent / "reference_config.json")
payoff = cfg.payoff
c, m = payoff.contract, payoff.market
N = c.N

cb = bachelier_price(m.S0, c.K, m.sigma, c.T)
print(f"Bachelier premium (frictionless):   {cb:.4f} per share")

t0 = time.time()
tv = solve_tree(payoff, cfg.tree_config)
p_tree = tv.price(0.0, c.q0, m.S0) / N
print(f"Tree price (dt=0.25, dq=1e5):       {p_tree:.4f} per share"
      f"   [{time.time() - t0:.1f}s]")

t0 = time.time()
surf = solve_theta(payoff, GridSpec.default(payoff))
p_pde = surf.price(0.0, c.q0, m.S0) / N
print(f"PDE price (default 241x121 grid):   {p_pde:.4f} per share"
      f"   [{time.time() - t0:.1f}s]")

# Matching the PDE q-grid to the tree (dq = 1e5) tightens the agreement.
t0 = time.time()
surf_m = solve_theta(payoff, GridSpec.default(payoff, n_S=481, n_q=241))
p_pde_m = surf_m.price(0.0, c.q0, m.S0) / N
print(f"PDE price (matched 481x241 grid):   {p_pde_m:.4f} per share"
      f"   [{time.time() - t0:.1f}s]")

print()
print(f"friction premium over Bachelier:    {p_tree - cb:+.4f} per share")
print(f"tree vs matched PDE gap:            {abs(p_tree - p_pde_m):.4f} per share")
