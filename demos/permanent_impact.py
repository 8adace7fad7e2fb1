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
from pathlib import Path

from liqhedge import GridSpec, solve_with_impact
from liqhedge.cli import load_config

base = load_config(Path(__file__).resolve().parent / "reference_config.json").payoff
N = base.contract.N
print("permanent impact sweep (PDE, matched 481x241 grid)")
for k in (0.0, 1e-7, 3e-7):
    payoff = base.replace(k=k)
    t0 = time.time()
    sol = solve_with_impact(payoff, "pde",
                            grid=GridSpec.default(payoff, n_S=481, n_q=241))
    moved = k * (payoff.contract.N - payoff.contract.q0)
    print(f"  k = {k:<6g} ->  {sol.price / N:.4f} per share"
          f"   (full delivery would move the price by {moved:.2f})"
          f"   [{time.time() - t0:.0f}s]")
