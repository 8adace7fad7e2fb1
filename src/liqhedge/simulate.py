"""Monte-Carlo hedging harness.

Simulates arithmetic-Brownian price paths, runs either a Bachelier
delta-hedging benchmark (M rebalancings, fills at the conditional TWAP of
each interval) or the model's optimal policy read off a solved surface,
and accumulates the cost statistics: cost is -PnL, i.e. terminal payoff
minus final mark-to-market wealth, excluding any premium received.

Path generation is counter-based: path i draws from numpy's
`PCG64(SeedSequence((seed, i, purpose)))`, so a path's randomness does not
depend on how many paths are drawn or in which order they are processed.
Every path's PCG64 state is computed at once, by SeedSequence's hash and
PCG64's seeding written over arrays of paths, and the draws are
bit-identical to building each path's generator.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import PayoffSpec, bachelier_delta

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
        if self.n_paths < 2 or self.n_obs < 2:
            raise ValueError("need n_paths >= 2 and n_obs >= 2")
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


_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(n: int) -> list:
    """SeedSequence's coding of an int: little-endian 32-bit words, 0 as one."""
    out = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        out.append(n & _MASK32)
    return out


def _hasher(h: int, mult: int):
    """SeedSequence's hashmix, on uint32 arrays; the constant h is shared."""
    def hashmix(value):
        nonlocal h
        value = value ^ h
        h = h * mult & _MASK32
        value = value * h
        return value ^ (value >> 16)
    return hashmix


def _mix(x, y):
    r = x * 0xCA01F9DD - y * 0x4973F715  # MIX_MULT_L, MIX_MULT_R
    return r ^ (r >> 16)


def _pcg64_states(seed: int, n_paths: int, stream: int):
    """Yield PCG64's (state, inc) seeded by SeedSequence((seed, i, stream)).

    numpy's SeedSequence (mix_entropy, then generate_state(4, uint64)) and
    PCG64's srandom, with every path i < 2**32 a lane of uint32 arrays:
    the hash constants do not depend on the entropy, so each lane follows
    the scalar algorithm exactly. Both are covered by numpy's stream
    compatibility policy (NEP 19).
    """
    def const(w):
        return np.full(n_paths, w, dtype=np.uint32)

    entropy = ([const(w) for w in _words(seed)]
               + [np.arange(n_paths, dtype=np.uint32), const(stream)])
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)  # numpy's INIT_A, MULT_A
    pool = [hashmix(entropy[k] if k < len(entropy) else const(0))
            for k in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(0x8B51F9DD, 0x58F38DED)  # INIT_B, MULT_B
    w = [hashmix(pool[k % 4]).astype(np.uint64) for k in range(8)]
    seeds = np.stack([w[2 * j] | w[2 * j + 1] << np.uint64(32)
                      for j in range(4)], axis=1)
    for row in seeds:  # row by row: one path's Python ints alive at a time
        s_hi, s_lo, q_hi, q_lo = row.tolist()
        # srandom: state 0, step, add the initial state, step
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        yield ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128, inc


def _normal_matrix(seed: int, n_paths: int, n: int, stream: int) -> np.ndarray:
    """Row i: n standard normals of path i's (seed, i, stream) generator."""
    gen = np.random.Generator(np.random.PCG64())
    bitgen = gen.bit_generator
    out = np.empty((n_paths, n))
    for row, (state, inc) in zip(out, _pcg64_states(seed, n_paths, stream)):
        bitgen.state = {"bit_generator": "PCG64",
                        "state": {"state": state, "inc": inc},
                        "has_uint32": 0, "uinteger": 0}
        gen.standard_normal(out=row)
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


def _hedge(payoff: PayoffSpec, S: np.ndarray, seed: int, q0, trade, per: float,
           charge: bool = True):
    """The cash recursion both strategies share; returns (cash, q, fees).

    Over each interval [t_i, t_{i+1}) of the paths S the strategy, holding
    q, trades x = trade(i, q) shares per `per` days at constant speed: cash
    compounds, the x*dt/per shares fill at the interval's TWAP and, with
    `charge`, pay the fee V*dt*L(x/(V*per)) against the volume V = V(t_i)
    at the interval's start, as in both solvers. An interval on which no
    path trades pays nothing; trading on a zero-volume one raises.
    """
    m = payoff.market
    steps = S.shape[1] - 1
    dt = payoff.contract.T / steps
    twap = _twap_matrix(S, m.sigma, dt, seed)
    growth = math.exp(m.r * dt)
    q = q0
    X = -q0 * S[:, 0]
    exec_paid = np.zeros(S.shape[0])
    for i in range(steps):
        x = trade(i, q)
        fee = 0.0
        if charge and np.any(x != 0):
            V = m.volume.at(i * dt)
            if V == 0:
                raise ValueError(f"trade on the zero-volume interval "
                                 f"[{i * dt:g}, {(i + 1) * dt:g})")
            fee = V * dt * payoff.cost(x / (V * per))
            exec_paid += fee
        X = X * growth - x * (dt / per) * twap[:, i] - fee
        q = q + x * (dt / per)
    return X, q, exec_paid


def _stats(strategy: str, M: int, cfg: PathConfig, payoff: PayoffSpec,
           q_T, S_T, X_T, exec_paid, keep=slice(None)) -> PnLStats:
    cost = (payoff.terminal(q_T, S_T) - X_T - q_T * S_T)[keep]
    if cost.size == 0:
        raise ValueError("every path left the solution's hull")
    if cost.size == 1:
        raise ValueError("one path stayed inside the solution's hull; "
                         "a cost variance needs two")
    return PnLStats(strategy, M, float(np.mean(cost)), float(np.var(cost, ddof=1)),
                    float(np.mean(exec_paid[keep])), len(cost), cfg.seed,
                    len(X_T) - len(cost))


def run_delta_hedge(payoff: PayoffSpec, cfg: PathConfig,
                    exec_costs: bool = True) -> PnLStats:
    """Bachelier delta-hedging benchmark at M rebalance dates.

    The initial inventory is exchanged at S0: q0 = N * delta(0). Each
    delta difference is worked at constant speed over the following
    interval and filled at that interval's TWAP; the last interval only
    completes the previous difference, so q_T carries the one-period lag.
    The participation cap is deliberately not applied to the benchmark, so
    with exec_costs it raises ValueError where it trades on a zero-volume
    interval.
    """
    if cfg.M is None:
        raise ValueError("PathConfig.M is required for the delta hedge")
    c, m = payoff.contract, payoff.market
    if m.k != 0.0:
        raise ValueError("the benchmark comparison is defined for k = 0")
    M = cfg.M
    dt = c.T / M
    S = simulate_price_paths(m, cfg, c.T, n_obs=M + 1)
    delta = np.empty((cfg.n_paths, M))
    for i in range(M):
        delta[:, i] = bachelier_delta(S[:, i], c.K, m.sigma, c.T - dt * i)

    def trade(i, q):
        # the difference of deltas at t_{i-1} and t_i, worked over [t_i, t_{i+1})
        return c.N * (delta[:, i] - delta[:, i - 1]) if i else 0.0

    X, _, exec_paid = _hedge(payoff, S, cfg.seed, c.N * delta[:, 0], trade,
                             per=dt, charge=exec_costs)
    return _stats("delta", M, cfg, payoff, c.N * delta[:, -1], S[:, -1], X,
                  exec_paid)


def _check_solution(solution, steps: int):
    """Raise unless `solution` is a solved engine output on `steps` steps."""
    if not hasattr(solution, "policy_speeds"):
        raise TypeError("solution must be a ThetaSurface or TreeValue")
    if solution.t_grid.size - 1 != steps:
        raise ValueError("solution time grid must match the path grid")


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
    _check_solution(solution, steps)

    S = simulate_price_paths(m, cfg, c.T)
    alive = np.ones(cfg.n_paths, dtype=bool)
    X, q, exec_paid = _hedge(  # the policy trades in shares per day
        payoff, S, cfg.seed, np.full(cfg.n_paths, float(c.q0)),
        lambda i, q: solution.policy_speeds(i, q, S[:, i], alive), per=1.0)
    return _stats("policy", steps, cfg, payoff, q, S[:, -1], X, exec_paid,
                  keep=alive)


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
    _check_solution(solution, steps)
    q = np.empty(S.size)
    v = np.empty(steps)
    q[0] = payoff.contract.q0 if q0 is None else q0
    alive = np.ones(1, dtype=bool)
    for i in range(steps):
        vi = solution.policy_speeds(i, q[i:i + 1], S[i:i + 1], alive)
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
    term with left-endpoint weights. Both sides charge the fee
    V(t_i)*cost(v_i/V(t_i)), and nothing on an interval with v_i = 0, as the
    simulator does. Exact (zero residual) when v = 0 and either r = 0 or
    sigma = mu = 0; O(dt) otherwise.
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

    Vs = np.array([market.volume.at(ti) for ti in t_grid[:-1]])
    fees = np.zeros(n)
    trades = v != 0
    fees[trades] = Vs[trades] * cost(v[trades] / Vs[trades])

    X = x0
    for i in range(n):
        dt = dts[i]
        flow = v[i] * S[i] + fees[i]
        w = (math.exp(r * dt) - 1.0) / r if r != 0.0 else dt
        X = X * math.exp(r * dt) - flow * w
    lhs = X + q[-1] * S[-1]

    disc = np.exp(-r * (t_grid - t0))
    if r != 0.0:
        w_ds = (disc[:-1] - disc[1:]) / r
    else:
        w_ds = dts
    dW = (np.diff(S) - mu * dts) / sig if sig > 0 else np.zeros(n)
    integral = np.sum(q[:-1] * (mu - r * S[:-1]) * w_ds) \
        + np.sum(disc[:-1] * q[:-1] * sig * dW) \
        - np.sum(fees * w_ds)
    rhs = math.exp(r * (T - t0)) * (x0 + q[0] * S[0] + integral)
    return lhs - rhs
