"""Pricing with permanent market impact.

With linear permanent impact (coefficient k, price moves by k per share of
net inventory change), the problem transforms into an equivalent
impact-free one in the shifted price: the payoff picks up a quadratic
inventory adjustment, which `PayoffSpec.terminal` carries for every k.
`solve_with_impact` runs either engine on it and reads the price at S0.

Impact makes hedging self-defeating (buying pushes the price up against
you), so the indifference price rises with k.
"""

import time

from liqhedge import (
    ExecutionCost,
    GridSpec,
    MarketParams,
    OptionContract,
    PayoffSpec,
    solve_with_impact,
)


def make_payoff(k):
    return PayoffSpec(
        contract=OptionContract(K=45.0, T=63.0, N=2e7, gamma=2e-7, q0=1e7,
                                settlement="physical"),
        market=MarketParams(S0=45.0, sigma=0.6, volume=4e6, rho_max=5.0,
                            mu=0.0, r=0.0, k=k),
        cost=ExecutionCost(eta=0.1, phi=0.75, psi=0.0),
    )


N = 2e7
print("permanent impact sweep (PDE, matched 481x241 grid)")
for k in (0.0, 1e-7, 3e-7):
    payoff = make_payoff(k)
    t0 = time.time()
    sol = solve_with_impact(payoff, "pde",
                            grid=GridSpec.default(payoff, n_S=481, n_q=241))
    moved = k * (payoff.contract.N - payoff.contract.q0)
    print(f"  k = {k:<6g} ->  {sol.price / N:.4f} per share"
          f"   (full delivery would move the price by {moved:.2f})"
          f"   [{time.time() - t0:.0f}s]")
