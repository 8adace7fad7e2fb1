"""Comparative statics of the indifference price.

Sweeps execution-cost scale, risk aversion, and the initial-inventory /
participation-cap cross, all on the tree engine. A coarser time step
(dt = 0.5 day) keeps the whole script under a minute; prices land within
about 0.01 per share of the dt = 0.25 values quoted elsewhere.
"""

from liqhedge import (
    ExecutionCost,
    MarketParams,
    OptionContract,
    PayoffSpec,
    TreeConfig,
    solve_tree,
)

CFG = TreeConfig(dt=0.5)
N = 2e7


def make(eta=0.1, gamma=2e-7, rho_max=5.0, settlement="physical"):
    # fresh construction so the default liquidation rate follows rho_max
    return PayoffSpec(
        contract=OptionContract(K=45.0, T=63.0, N=N, gamma=gamma, q0=1e7,
                                settlement=settlement),
        market=MarketParams(S0=45.0, sigma=0.6, volume=4e6, rho_max=rho_max,
                            mu=0.0, r=0.0, k=0.0),
        cost=ExecutionCost(eta=eta, phi=0.75, psi=0.0),
    )


def price(payoff):
    return solve_tree(payoff, CFG).price(0.0, payoff.contract.q0, 45.0) / N


print("execution cost scale eta  (price per share)")
for eta in (0.01, 0.05, 0.1, 0.2):
    print(f"  eta = {eta:<5g} ->  {price(make(eta=eta)):.4f}")
print("  cheaper execution pulls the price toward the Bachelier premium 1.8997")

print()
print("risk aversion gamma")
for g in (1e-8, 5e-8, 2e-7, 1e-6, 5e-6):
    print(f"  gamma = {g:<6g} ->  {price(make(gamma=g)):.4f}")
print("  a more risk-averse writer charges more for the unhedgeable residual")

print()
print("initial inventory x participation cap")
# one tree per cap serves both q0 readouts: values are indexed by inventory
for rho_max in (5.0, 0.5):
    tv = solve_tree(make(rho_max=rho_max), CFG)
    row = [tv.price(0.0, q0, 45.0) / N for q0 in (0.0, 1e7)]
    print(f"  rho_max = {rho_max:<4g}:  q0=0 -> {row[0]:.4f},  q0=N/2 -> {row[1]:.4f}")
print("  starting uncovered costs more, and a tight cap compounds it")

print()
print("settlement style (rho_max = 0.5, q0 = N/2)")
for settlement in ("physical", "cash"):
    print(f"  {settlement:<9s} ->  {price(make(rho_max=0.5, settlement=settlement)):.4f}")
print("  cash settlement forces a round trip in the stock, so it prices higher")
