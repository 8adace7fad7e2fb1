"""One dispatcher for both engines, with or without permanent impact.

With permanent impact k > 0 (and zero drift and rates) the value function
solves the same equation as the k = 0 problem in the shifted coordinate
S_tilde = S - k(q - q0); only the terminal condition changes, and
`PayoffSpec.terminal` evaluates it on that axis for every k. Both engines
therefore solve a plain `PayoffSpec` unmodified. The observed price is
recovered along paths as S = S_tilde + k(q - q0) by
`PayoffSpec.observed_price`.
"""

from dataclasses import dataclass

from .model import PayoffSpec
from .pde import solve_theta
from .tree import solve_tree

__all__ = ["ImpactSolution", "solve_with_impact"]


@dataclass
class ImpactSolution:
    solution: object  # ThetaSurface or TreeValue, in S_tilde coordinates
    price: float


def solve_with_impact(payoff: PayoffSpec, engine: str = "pde", grid=None,
                      scheme=None, config=None) -> ImpactSolution:
    """Solve the problem with the chosen engine, for any k >= 0. `grid` and
    `scheme` (pde.GridSpec, pde.SchemeConfig) go to solve_theta and `config`
    (tree.TreeConfig) to solve_tree as given; None takes the solver's default.

    At t = 0 the shifted and observed prices coincide (S_tilde0 = S0), so
    the returned price is theta(0, q0, S0) read off the solved object.
    """
    if engine not in ("pde", "tree"):
        raise ValueError(f"unknown engine {engine!r}")
    if engine == "pde":
        sol = solve_theta(payoff, grid, scheme)
    else:
        sol = solve_tree(payoff, config)
    return ImpactSolution(sol, sol.price(0.0, payoff.contract.q0, payoff.market.S0))
