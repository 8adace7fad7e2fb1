"""Monte-Carlo hedging harness.

Simulates arithmetic-Brownian price paths, runs either a Bachelier
delta-hedging benchmark (M rebalancings, fills at the conditional TWAP of
each interval) or the model's optimal policy read off a solved surface,
and accumulates the cost statistics: cost is -PnL, i.e. terminal payoff
minus final mark-to-market wealth, excluding any premium received.

Path generation is counter-based: path i draws from streams keyed
(seed, i, purpose), so a path's randomness does not depend on how many
paths are drawn or in which order they are processed.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import PayoffSpec, bachelier_delta
from .pde import ThetaSurface
from .tree import TreeValue

__all__ = [
    "PathConfig",
    "PnLStats",
    "simulate_price_paths",
    "run_delta_hedge",
    "run_policy_hedge",
    "policy_trajectory",
    "wealth_decomposition_check",
]

_PRICE_STREAM = 0
_TWAP_STREAM = 1


@dataclass(frozen=True)
class PathConfig:
    """n_obs counts path points, so there are n_obs - 1 trading intervals."""

    n_paths: int = 10_000
    n_obs: int = 253
    seed: int = 0
    M: Optional[int] = None  # rebalance count for the delta-hedge benchmark

    def __post_init__(self):
        if self.n_paths < 1 or self.n_obs < 2:
            raise ValueError("need n_paths >= 1 and n_obs >= 2")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.M is not None and self.M < 2:
            raise ValueError("M must be >= 2")


@dataclass(frozen=True)
class PnLStats:
    strategy: str
    M: int
    mean_cost: float
    var_cost: float
    exec_cost_mean: float
    n: int
    seed: int
    excluded: int = 0

    def __post_init__(self):
        if not (self.var_cost >= 0.0):
            raise ValueError("variance must be nonnegative")


def _rng(seed: int, path: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((seed, path, stream))))


def _normal_matrix(seed: int, n_paths: int, n: int, stream: int) -> np.ndarray:
    out = np.empty((n_paths, n))
    for i in range(n_paths):
        out[i] = _rng(seed, i, stream).standard_normal(n)
    return out


def simulate_price_paths(market, cfg: PathConfig, T: float,
                         n_obs: Optional[int] = None) -> np.ndarray:
    """(n_paths, n_obs) matrix of arithmetic-Brownian paths over [0, T]."""
    n_obs = cfg.n_obs if n_obs is None else n_obs
    steps = n_obs - 1
    dt = T / steps
    Z = _normal_matrix(cfg.seed, cfg.n_paths, steps, _PRICE_STREAM)
    S = np.empty((cfg.n_paths, n_obs))
    S[:, 0] = market.S0
    np.cumsum(market.mu * dt + market.sigma * math.sqrt(dt) * Z, axis=1,
              out=S[:, 1:])
    S[:, 1:] += market.S0
    return S


def _twap_matrix(S: np.ndarray, sigma: float, dt: float, seed: int) -> np.ndarray:
    """Conditional TWAP for every interval of every path, counter-seeded."""
    n_paths, n_obs = S.shape
    noise = _normal_matrix(seed, n_paths, n_obs - 1, _TWAP_STREAM)
    return 0.5 * (S[:, :-1] + S[:, 1:]) + sigma * math.sqrt(dt / 12.0) * noise


def _settle(payoff: PayoffSpec, q_T, S_T, X_T, exec_paid):
    cost = payoff.terminal(q_T, S_T) - X_T - q_T * S_T
    return cost, exec_paid


def _stats(strategy: str, M: int, cfg: PathConfig, cost, exec_paid,
           keep=None) -> PnLStats:
    if keep is not None:
        excluded = int(len(cost) - keep.sum())
        cost, exec_paid = cost[keep], exec_paid[keep]
    else:
        excluded = 0
    return PnLStats(strategy, M, float(np.mean(cost)),
                    float(np.var(cost, ddof=1)) if len(cost) > 1 else 0.0,
                    float(np.mean(exec_paid)), int(len(cost)), cfg.seed,
                    excluded)


def run_delta_hedge(payoff: PayoffSpec, cfg: PathConfig,
                    exec_costs: bool = True) -> PnLStats:
    """Bachelier delta-hedging benchmark at M rebalance dates.

    The initial inventory is exchanged at S0: q0 = N * delta(0). Each
    delta difference is worked at constant speed over the following
    interval and filled at that interval's TWAP; the last interval only
    completes the previous difference, so q_T carries the one-period lag.
    The participation cap is deliberately not applied to the benchmark.
    """
    if cfg.M is None:
        raise ValueError("PathConfig.M is required for the delta hedge")
    c, m = payoff.contract, payoff.market
    if m.k != 0.0:
        raise ValueError("the benchmark comparison is defined for k = 0")
    M = cfg.M
    T = c.T
    dt = T / M
    S = simulate_price_paths(m, cfg, T, n_obs=M + 1)

    t = dt * np.arange(M)
    tau = T - t
    delta = np.empty((cfg.n_paths, M))
    for i in range(M):
        delta[:, i] = bachelier_delta(S[:, i], c.K, m.sigma, tau[i])
    q_path = c.N * delta  # q over (t_1 .. t_M], lagged by one interval

    twap = _twap_matrix(S, m.sigma, dt, cfg.seed)
    # shares traded over [t_i, t_{i+1}) for i = 1..M-1; none over [t_0, t_1)
    traded = c.N * np.diff(delta, axis=1)
    V = m.volume.final_value if m.volume.is_constant else None

    growth = math.exp(m.r * dt)
    q0 = c.N * delta[:, 0]
    X = -q0 * S[:, 0]
    exec_paid = np.zeros(cfg.n_paths)
    for i in range(M):
        X = X * growth  # compound over [t_i, t_{i+1}); flows settle at the end
        if i == 0:
            continue
        X -= traded[:, i - 1] * twap[:, i]
        if exec_costs:
            Vi = V if V is not None else m.volume.at(t[i])
            fee = Vi * dt * payoff.cost(traded[:, i - 1] / (Vi * dt))
            exec_paid += fee
            X -= fee

    q_T = q_path[:, -1]
    cost, exec_paid = _settle(payoff, q_T, S[:, -1], X, exec_paid)
    return _stats("delta", M, cfg, cost, exec_paid)


def _policy_surface_lookup(surface: ThetaSurface, level: int, q, S, alive):
    g = surface.grid
    out = (q < g.q_min) | (q > g.q_max) | (S < g.S_min) | (S > g.S_max)
    alive &= ~out
    qc = np.clip(q, g.q_min, g.q_max)
    Sc = np.clip(S, g.S_min, g.S_max)
    return surface.policy(surface.t_grid[level], qc, Sc)


def _policy_tree_lookup(tv: TreeValue, level: int, q, S, alive):
    # nearest lattice node; S is clipped to the level's node range, q-exits
    # kill the path
    j = min(level, tv.J - 1)
    qg = tv.qgrid
    out = (q < qg[0] - 0.5 * tv.dq) | (q > qg[-1] + 0.5 * tv.dq)
    alive &= ~out
    m = tv.payoff.market
    step = m.sigma * math.sqrt(tv.config.dt) * tv.config.alpha
    center = m.S0 + m.mu * tv.config.dt * j
    node = np.clip(np.rint((S - center) / step).astype(int) + j, 0, 2 * j)
    qi = np.clip(np.rint((q - qg[0]) / tv.dq).astype(int), 0, qg.size - 1)
    mult = tv.control_mult[j][node, qi]
    return mult * (tv.dq / tv.config.dt)


def _resolve_lookup(solution, steps: int):
    if isinstance(solution, ThetaSurface):
        if solution.grid.n_t != steps:
            raise ValueError("surface time grid must match the path grid")
        return _policy_surface_lookup
    if isinstance(solution, TreeValue):
        if solution.J != steps:
            raise ValueError("tree levels must match the path grid")
        return _policy_tree_lookup
    raise TypeError("solution must be a ThetaSurface or TreeValue")


def run_policy_hedge(payoff: PayoffSpec, solution, cfg: PathConfig) -> PnLStats:
    """Hedge with the model policy re-read at each of the n_obs - 1 dates.

    `solution` is a ThetaSurface (bilinear policy interpolation) or a
    TreeValue (nearest-node policy). Paths leaving the solution's hull are
    excluded from the statistics and counted in `excluded`.
    """
    c, m = payoff.contract, payoff.market
    if m.k != 0.0:
        raise ValueError("hedging runs on k = 0 problems; solve in shifted "
                         "coordinates and map prices outside the simulator")
    steps = cfg.n_obs - 1
    dt = c.T / steps
    lookup = _resolve_lookup(solution, steps)

    S = simulate_price_paths(m, cfg, c.T)
    twap = _twap_matrix(S, m.sigma, dt, cfg.seed)
    V = m.volume.final_value if m.volume.is_constant else None

    alive = np.ones(cfg.n_paths, dtype=bool)
    q = np.full(cfg.n_paths, float(c.q0))
    X = -q * S[:, 0]
    exec_paid = np.zeros(cfg.n_paths)
    growth = math.exp(m.r * dt)
    for i in range(steps):
        v = lookup(solution, i, q, S[:, i], alive)
        Vi = V if V is not None else m.volume.at(i * dt)
        fee = Vi * dt * payoff.cost(v / Vi)
        exec_paid += fee
        X = X * growth - v * dt * twap[:, i] - fee
        q = q + v * dt

    cost, exec_paid = _settle(payoff, q, S[:, -1], X, exec_paid)
    return _stats("policy", steps, cfg, cost, exec_paid, keep=alive)


def policy_trajectory(payoff: PayoffSpec, solution, S, q0: Optional[float] = None):
    """Inventory and speed schedules along one deterministic price path.

    S holds the prices at the decision dates (uniformly spaced over
    [0, T]); the solution's time grid must match. Returns (q, v) with
    len(q) = len(S) and len(v) = len(S) - 1. Raises if the path leaves
    the solution's hull.
    """
    S = np.asarray(S, dtype=float)
    steps = S.size - 1
    dt = payoff.contract.T / steps
    lookup = _resolve_lookup(solution, steps)
    q = np.empty(S.size)
    v = np.empty(steps)
    q[0] = payoff.contract.q0 if q0 is None else q0
    alive = np.ones(1, dtype=bool)
    for i in range(steps):
        vi = lookup(solution, i, q[i:i + 1], S[i:i + 1], alive)
        if not alive[0]:
            raise ValueError(f"path leaves the solution hull at step {i}")
        v[i] = float(vi[0])
        q[i + 1] = q[i] + v[i] * dt
    return q, v


def wealth_decomposition_check(t_grid, S, q, v, market, cost, x0: float = 0.0):
    """Residual of the discrete wealth decomposition on one path.

    Left side: terminal cash plus stock value, with cash evolved exactly
    through each interval (flows frozen at the left endpoint). Right side:
    compounded initial mark-to-market plus the three integral terms, the
    time integrals taken with exact exponential weights and the Brownian
    term with left-endpoint weights. Exact (zero residual) when v = 0 and
    either r = 0 or sigma = mu = 0; O(dt) otherwise.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    S = np.asarray(S, dtype=float)
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    n = t_grid.size - 1
    if not (S.size == t_grid.size and q.size == t_grid.size and v.size == n):
        raise ValueError("need len(S) = len(q) = len(t) = len(v) + 1")
    dts = np.diff(t_grid)
    if not np.allclose(q[1:], q[:-1] + v * dts, rtol=0, atol=1e-6 * max(1.0, np.abs(q).max())):
        raise ValueError("inventory path inconsistent with the speed schedule")
    r, mu, sig = market.r, market.mu, market.sigma
    T, t0 = t_grid[-1], t_grid[0]

    X = x0
    for i in range(n):
        dt = dts[i]
        Vi = market.volume.at(t_grid[i])
        flow = v[i] * S[i] + Vi * cost(v[i] / Vi)
        w = (math.exp(r * dt) - 1.0) / r if r != 0.0 else dt
        X = X * math.exp(r * dt) - flow * w
    lhs = X + q[-1] * S[-1]

    disc = np.exp(-r * (t_grid - t0))
    if r != 0.0:
        w_ds = (disc[:-1] - disc[1:]) / r
    else:
        w_ds = dts
    dW = (np.diff(S) - mu * dts) / sig if sig > 0 else np.zeros(n)
    Vs = np.array([market.volume.at(ti) for ti in t_grid[:-1]])
    integral = np.sum(q[:-1] * (mu - r * S[:-1]) * w_ds) \
        + np.sum(disc[:-1] * q[:-1] * sig * dW) \
        - np.sum(Vs * cost(v / Vs) * w_ds)
    rhs = math.exp(r * (T - t0)) * (x0 + q[0] * S[0] + integral)
    return lhs - rhs
