"""liqhedge: utility-indifference pricing and partial hedging of call
options on illiquid underlyings, with execution costs and permanent impact.

Engines: an operator-splitting finite-difference solver and a trinomial
tree dynamic program, plus a Monte-Carlo harness benchmarking the model
policy against Bachelier delta-hedging.
"""

__version__ = "0.1.0"

from .model import (
    VolumeCurve,
    MarketParams,
    ExecutionCost,
    OptionContract,
    PayoffSpec,
    hamiltonian,
    optimal_rate,
    liquidation_penalty,
    terminal_payoff,
    bachelier_price,
    bachelier_delta,
    rescale_nominal,
)
from .pde import GridSpec, SchemeConfig, ThetaSurface, solve_theta
from .tree import TreeConfig, TreeValue, price_with_initial_exchange, solve_tree, tree_policy
from .impact import ImpactSolution, solve_with_impact
from .simulate import (
    PathConfig,
    PnLStats,
    policy_trajectory,
    run_delta_hedge,
    run_policy_hedge,
    simulate_price_paths,
    wealth_decomposition_check,
)
from .fixtures import reference_path

__all__ = [
    "__version__",
    "VolumeCurve",
    "MarketParams",
    "ExecutionCost",
    "OptionContract",
    "PayoffSpec",
    "hamiltonian",
    "optimal_rate",
    "liquidation_penalty",
    "terminal_payoff",
    "bachelier_price",
    "bachelier_delta",
    "rescale_nominal",
    "GridSpec",
    "SchemeConfig",
    "ThetaSurface",
    "solve_theta",
    "TreeConfig",
    "TreeValue",
    "price_with_initial_exchange",
    "solve_tree",
    "tree_policy",
    "ImpactSolution",
    "solve_with_impact",
    "PathConfig",
    "PnLStats",
    "policy_trajectory",
    "run_delta_hedge",
    "run_policy_hedge",
    "simulate_price_paths",
    "wealth_decomposition_check",
    "reference_path",
]
