"""One dispatcher for both engines, with or without permanent impact.

With permanent impact k > 0 (and zero drift and rates) the value function
solves the same equation as the k = 0 problem in the shifted coordinate
S_tilde = S - k(q - q0); only the terminal condition changes, and
`model.terminal_payoff` evaluates it on that axis for every k. Both engines
therefore solve a plain `PayoffSpec` unmodified. The observed price is
recovered along paths as S = S_tilde + k(q - q0) by
`PayoffSpec.observed_price`.
"""

from dataclasses import dataclass
from typing import Optional

from .model import PayoffSpec
from .pde import GridSpec, SchemeConfig, solve_theta
from .tree import TreeConfig, price_with_initial_exchange, solve_tree

__all__ = ["ImpactSolution", "solve_with_impact"]


@dataclass
class ImpactSolution:
    solution: object  # ThetaSurface or TreeValue, in S_tilde coordinates
    price: float


def solve_with_impact(payoff: PayoffSpec, engine: str = "pde",
                      grid: Optional[GridSpec] = None,
                      scheme: Optional[SchemeConfig] = None,
                      config: Optional[TreeConfig] = None) -> ImpactSolution:
    """Solve the problem with the chosen engine, for any k >= 0.

    At t = 0 the shifted and observed prices coincide (S_tilde0 = S0), so
    the returned price is theta(0, q0, S0) read off the solved object.
    """
    if engine not in ("pde", "tree"):
        raise ValueError(f"unknown engine {engine!r}")
    c, m = payoff.contract, payoff.market
    if engine == "pde":
        surf = solve_theta(payoff, grid if grid is not None else GridSpec.default(payoff),
                           scheme if scheme is not None else SchemeConfig())
        return ImpactSolution(surf, surf.price(0.0, c.q0, m.S0))
    tv = solve_tree(payoff, config if config is not None else TreeConfig())
    return ImpactSolution(tv, price_with_initial_exchange(tv))
