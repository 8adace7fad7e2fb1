"""Comparative statics of the indifference price.

Sweeps execution-cost scale, risk aversion, and the initial-inventory /
participation-cap cross, all on the tree engine. A coarser time step
(dt = 0.5 day) keeps the whole script under a minute; prices land within
about 0.01 per share of the dt = 0.25 values quoted elsewhere.
"""

import dataclasses
from pathlib import Path

from liqhedge import solve_tree
from liqhedge.cli import load_config

cfg = load_config(Path(__file__).resolve().parent / "reference_config.json")
base = cfg.payoff
CFG = dataclasses.replace(cfg.tree_config, dt=0.5)
N, S0 = base.contract.N, base.market.S0


def price(payoff):
    return solve_tree(payoff, CFG).price(0.0, payoff.contract.q0, S0) / N


print("execution cost scale eta  (price per share)")
for eta in (0.01, 0.05, 0.1, 0.2):
    print(f"  eta = {eta:<5g} ->  {price(base.replace(eta=eta)):.4f}")
print("  cheaper execution pulls the price toward the Bachelier premium 1.8997")

print()
print("risk aversion gamma")
for g in (1e-8, 5e-8, 2e-7, 1e-6, 5e-6):
    print(f"  gamma = {g:<6g} ->  {price(base.replace(gamma=g)):.4f}")
print("  a more risk-averse writer charges more for the unhedgeable residual")

print()
print("initial inventory x participation cap")
# one tree per cap serves both q0 readouts: values are indexed by inventory.
# penalty_rate stays None, so the liquidation rate follows each cap
for rho_max in (5.0, 0.5):
    tv = solve_tree(base.replace(rho_max=rho_max), CFG)
    row = [tv.price(0.0, q0, S0) / N for q0 in (0.0, base.contract.q0)]
    print(f"  rho_max = {rho_max:<4g}:  q0=0 -> {row[0]:.4f},  q0=N/2 -> {row[1]:.4f}")
print("  starting uncovered costs more, and a tight cap compounds it")

print()
print("settlement style (rho_max = 0.5, q0 = N/2)")
for settlement in ("physical", "cash"):
    p = price(base.replace(rho_max=0.5, settlement=settlement))
    print(f"  {settlement:<9s} ->  {p:.4f}")
print("  cash settlement forces a round trip in the stock, so it prices higher")
