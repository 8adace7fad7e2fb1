"""Monte-Carlo hedging harness.

Simulates arithmetic-Brownian price paths, runs either a Bachelier
delta-hedging benchmark (M rebalancings, fills at the conditional TWAP of
each interval) or the model's optimal policy read off a solved surface,
and accumulates the cost statistics: cost is -PnL, i.e. terminal payoff
minus final mark-to-market wealth, excluding any premium received.

Path generation is counter-based: path i draws from numpy's
`PCG64(SeedSequence((seed, i, purpose)))`, so a path's randomness does not
depend on how many paths are drawn or in which order they are processed.
Every path's PCG64 state is computed at once, by SeedSequence's hash in
uint32 arrays and PCG64's seeding in 64-bit limbs. One reused generator
then draws every row: before each, the path's four state words are copied
into the generator's own state memory, found through numpy's documented
`bit_generator.ctypes` interface. The draws are bit-identical to building
each path's generator.

Both runners walk the paths in blocks of about _BLOCK_BYTES (8 MiB) of
price, TWAP and delta matrices: each block is drawn into one reused
buffer, hedged, and left behind as its paths' terminal cash, inventory,
price and fees in full-length vectors. A run's memory therefore does not
grow with n_paths beyond those vectors. A path's draws depend on (seed, i,
purpose) alone and every hedging step is elementwise across paths, so the
statistics are bit-identical whatever the block size. The delta ladder
reads every rebalance date of a block's Bachelier deltas in one call.
"""

import ctypes
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .model import PayoffSpec, _overflow_of, bachelier_delta

__all__ = [
    "PathConfig",
    "PnLStats",
    "simulate_price_paths",
    "run_delta_hedge",
    "run_policy_hedge",
    "policy_trajectory",
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
        if not all(map(math.isfinite, (self.mean_cost, self.var_cost,
                                       self.exec_cost_mean))):
            raise ValueError("non-finite cost statistics")
        if not (self.var_cost >= 0.0):
            raise ValueError("variance must be nonnegative")


_MASK32 = 0xFFFFFFFF
_PCG64_MULT_HI = np.uint64(0x2360ED051FC65DA4)  # PCG64's 128-bit multiplier
_PCG64_MULT_LO = np.uint64(0x4385DF649FCCF645)


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


def _mul64(x, y):
    """(hi, lo) 64-bit limbs of the 128-bit products x*y of uint64 arrays."""
    m32, s32 = np.uint64(_MASK32), np.uint64(32)
    x0, x1, y0, y1 = x & m32, x >> s32, y & m32, y >> s32
    p00, p01, p10 = x0 * y0, x0 * y1, x1 * y0
    mid = (p00 >> s32) + (p01 & m32) + (p10 & m32)  # < 3 * 2**32
    return (x1 * y1 + (p01 >> s32) + (p10 >> s32) + (mid >> s32),
            mid << s32 | p00 & m32)


def _pcg64_states(seed: int, start: int, stop: int, stream: int):
    """PCG64's (state, inc) seeded by SeedSequence((seed, i, stream)), as
    (state_hi, state_lo, inc_hi, inc_lo) uint64 arrays over the paths
    start <= i < stop.

    numpy's SeedSequence (mix_entropy, then generate_state(4, uint64)) and
    PCG64's srandom, with every path i < 2**32 a lane of uint32 arrays:
    the hash constants do not depend on the entropy, so each lane follows
    the scalar algorithm exactly. srandom's 128-bit arithmetic runs in
    64-bit limbs, where uint64 arrays wrap mod 2**64. Both algorithms are
    covered by numpy's stream compatibility policy (NEP 19).
    """
    def const(w):
        return np.full(stop - start, w, dtype=np.uint32)

    entropy = ([const(w) for w in _words(seed)]
               + [np.arange(start, stop, dtype=np.uint32), const(stream)])
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
    s_hi, s_lo, q_hi, q_lo = (w[2 * j] | w[2 * j + 1] << np.uint64(32)
                              for j in range(4))
    # srandom: inc = 2*initseq + 1; from state 0, step, add the initial
    # state, step: state = (inc + initstate)*MULT + inc, all mod 2**128
    one = np.uint64(1)
    inc_hi, inc_lo = q_hi << one | q_lo >> np.uint64(63), q_lo << one | one
    a_lo = inc_lo + s_lo
    a_hi = inc_hi + s_hi + (a_lo < inc_lo)
    hi, lo = _mul64(a_lo, _PCG64_MULT_LO)
    hi += a_hi * _PCG64_MULT_LO + a_lo * _PCG64_MULT_HI
    lo += inc_lo
    hi += inc_hi + (lo < inc_lo)
    return hi, lo, inc_hi, inc_lo


def _each_state(bitgen, limbs):
    """Set the PCG64 `bitgen` to each (state_hi, state_lo, inc_hi, inc_lo)
    of the uint64 arrays `limbs` in turn, yielding after each.

    numpy's pcg64_state struct, at `bitgen.ctypes.state_address`, begins
    with a pointer to the generator's 32-byte (state, inc) pair; copying a
    path's words there replaces the `state` setter, whose Python-int
    conversion cost more than a row's draws. The order of the four words
    depends on how numpy was compiled, so it is read back once from words
    set through that setter; memory that does not hold them raises before
    any draw.
    """
    known = (0x0123456789ABCDEF, 0x1032547698BADCFE,  # distinct words
             0x2301674589ABCDEF, 0x3210765498BADCFF)
    bitgen.state = {"bit_generator": "PCG64",
                    "state": {"state": known[0] << 64 | known[1],
                              "inc": known[2] << 64 | known[3]},
                    "has_uint32": 0, "uinteger": 0}
    pair = ctypes.c_void_p.from_address(bitgen.ctypes.state_address).value
    state = (ctypes.c_uint64 * 4).from_address(pair)
    found = list(state)
    if sorted(found) != sorted(known):
        raise RuntimeError("numpy's PCG64 state memory does not hold the "
                           "generator's (state, inc) words")
    # row i: path i's words in the order the generator's memory holds them;
    # uint64, so each row is the 32 bytes a slice write copies
    words = np.column_stack([limbs[known.index(w)] for w in found]).astype(
        np.uint64, copy=False)
    dst, src = memoryview(state).cast("B"), memoryview(words.reshape(-1).view(np.uint8))
    for row in range(0, src.nbytes, 32):
        dst[:] = src[row:row + 32]
        yield


def _normal_matrix(seed: int, start: int, stop: int, n: int, stream: int,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
    """Row i - start: n standard normals of path i's (seed, i, stream)
    generator, for start <= i < stop, drawn into `out` when it is given."""
    gen = np.random.Generator(np.random.PCG64())
    out = np.empty((stop - start, n)) if out is None else out
    limbs = _pcg64_states(seed, start, stop, stream)
    for row, _ in zip(out, _each_state(gen.bit_generator, limbs)):
        gen.standard_normal(out=row)
    return out


def _price_paths(market, seed: int, start: int, stop: int, n_obs: int,
                 T: float, out: Optional[np.ndarray] = None) -> np.ndarray:
    """(stop - start, n_obs) arithmetic-Brownian paths start..stop-1 over
    [0, T], drawn into `out` when it is given."""
    steps = n_obs - 1
    dt = T / steps
    S = np.empty((stop - start, n_obs)) if out is None else out
    S[:, 0] = market.S0
    # the normals, then the increments, then the path, all in S[:, 1:]
    Z = _normal_matrix(seed, start, stop, steps, _PRICE_STREAM, out=S[:, 1:])
    Z *= market.sigma * math.sqrt(dt)
    Z += market.mu * dt
    np.cumsum(Z, axis=1, out=Z)
    Z += market.S0
    return S


def simulate_price_paths(market, cfg: PathConfig, T: float) -> np.ndarray:
    """(n_paths, n_obs) matrix of arithmetic-Brownian paths over [0, T]."""
    return _price_paths(market, cfg.seed, 0, cfg.n_paths, cfg.n_obs, T)


# paths per midpoint temporary in _twap_matrix: a full-size one would cost
# as much memory as the TWAP matrix itself
_MID_CHUNK = 512


def _twap_matrix(S: np.ndarray, sigma: float, dt: float, seed: int,
                 start: int = 0, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Conditional TWAP for every interval of the paths start, start+1, ...
    whose prices are the rows of S, counter-seeded, into `out` when given."""
    n_paths, n_obs = S.shape
    twap = _normal_matrix(seed, start, start + n_paths, n_obs - 1, _TWAP_STREAM,
                          out=out)
    twap *= sigma * math.sqrt(dt / 12.0)  # the noise
    for a in range(0, n_paths, _MID_CHUNK):  # plus each interval's midpoint
        rows = slice(a, a + _MID_CHUNK)
        mid = np.add(S[rows, :-1], S[rows, 1:])
        mid *= 0.5
        twap[rows] += mid
    return twap


class _ZeroVolumeTrade(ValueError):
    """A trade on the zero-volume interval [step*dt, (step+1)*dt)."""

    def __init__(self, step: int, dt: float):
        super().__init__(f"trade on the zero-volume interval "
                         f"[{step * dt:g}, {(step + 1) * dt:g})")
        self.step = step


def _hedge(payoff: PayoffSpec, S: np.ndarray, twap: np.ndarray, q0, trade,
           per: float):
    """The cash recursion both strategies share; returns (cash, q, fees).

    Over each interval [t_i, t_{i+1}) of the paths S the strategy, holding
    q, trades x = trade(i, q) shares per `per` days at constant speed: cash
    compounds, the x*dt/per shares fill at the interval's TWAP and pay the
    fee V*dt*L(x/(V*per)) against the volume V = V(t_i) at the interval's
    start, as in both solvers. An interval on which no path trades pays
    nothing; trading on a zero-volume one raises.
    """
    m = payoff.market
    steps = S.shape[1] - 1
    dt = payoff.contract.T / steps
    with _overflow_of("r"):
        growth = math.exp(m.r * dt)
    volumes = m.volume.at(dt * np.arange(steps)).tolist()
    filled = dt / per
    q = q0
    X = -q0 * S[:, 0]
    exec_paid = np.zeros(S.shape[0])
    for i, V in enumerate(volumes):
        x = trade(i, q)
        dq = x * filled
        X = X * growth - dq * twap[:, i]
        if np.count_nonzero(x):  # NaN counts as a trade, -0.0 does not
            if V == 0:
                raise _ZeroVolumeTrade(i, dt)
            fee = V * dt * payoff.cost(x / (V * per))
            exec_paid += fee
            X -= fee
        q = q + dq
    return X, q, exec_paid


# bytes of the matrices a block of paths holds: its prices, its TWAP fills
# and the delta ladder's deltas. The runners draw, hedge and drop the paths
# this many bytes at a time, so the short delta rungs run in one block and
# no matrix grows with n_paths
_BLOCK_BYTES = 8 << 20


def _walk(payoff: PayoffSpec, cfg: PathConfig, hedge_block, ladder: int = 0):
    """Hedge cfg's paths block by block; returns full-length (cash, q_T,
    S_T, fees) vectors.

    hedge_block(S, twap, rows) gets a block's prices and TWAP fills, and
    `rows`, its slice of the paths, and returns the block's (cash, q_T,
    fees); `ladder` counts the columns of any per-path matrix it builds.
    Path i's draws depend on (seed, i) alone and each step acts
    elementwise across paths, so every block size gives the same bits. A
    zero-volume trade raises after the last block, naming the earliest such
    interval over all paths, as one block would.
    """
    m, T = payoff.market, payoff.contract.T
    n, n_obs = cfg.n_paths, cfg.n_obs
    dt = T / (n_obs - 1)
    X, q_T, S_T, fees = (np.empty(n) for _ in range(4))
    size = min(n, max(1, _BLOCK_BYTES // (8 * (2 * n_obs - 1 + ladder))))
    # every block is drawn into one buffer: a fresh one per block would
    # page-fault its memory in again each time, and numpy asks the kernel
    # for huge pages for a buffer of 4 MiB or more, on which the steps'
    # strided column reads run faster than on two smaller buffers
    buf = np.empty(size * (2 * n_obs - 1))
    first = None
    for a in range(0, n, size):
        b = min(a + size, n)
        S = _price_paths(m, cfg.seed, a, b, n_obs, T,
                         out=buf[:(b - a) * n_obs].reshape(b - a, n_obs))
        twap = _twap_matrix(S, m.sigma, dt, cfg.seed, a,
                            out=buf[-(b - a) * (n_obs - 1):].reshape(b - a, n_obs - 1))
        try:
            X[a:b], q_T[a:b], fees[a:b] = hedge_block(S, twap, slice(a, b))
        except _ZeroVolumeTrade as e:
            if first is None or e.step < first.step:
                first = e
        S_T[a:b] = S[:, -1]
    if first is not None:
        raise first
    return X, q_T, S_T, fees


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


def run_delta_hedge(payoff: PayoffSpec, cfg: PathConfig) -> PnLStats:
    """Bachelier delta-hedging benchmark at M rebalance dates.

    The initial inventory is exchanged at S0: q0 = N * delta(0). Each
    delta difference is worked at constant speed over the following
    interval and filled at that interval's TWAP; the last interval only
    completes the previous difference, so q_T carries the one-period lag.
    The participation cap is deliberately not applied to the benchmark, so
    it raises ValueError where it trades on a zero-volume interval. For the
    fee-free ladder pass payoff.replace(eta=0.0, psi=0.0,
    penalty=payoff.liquidation).
    """
    if cfg.M is None:
        raise ValueError("PathConfig.M is required for the delta hedge")
    c, m = payoff.contract, payoff.market
    if m.k != 0.0:
        raise ValueError("the benchmark comparison is defined for k = 0")
    M = cfg.M
    dt = c.T / M
    tau = c.T - dt * np.arange(M)

    def hedge_block(S, twap, rows):
        delta = bachelier_delta(S[:, :M], c.K, m.sigma, tau)

        def trade(i, q):
            # the difference of deltas at t_{i-1} and t_i, worked over [t_i, t_{i+1})
            return c.N * (delta[:, i] - delta[:, i - 1]) if i else 0.0

        X, _, fees = _hedge(payoff, S, twap, c.N * delta[:, 0], trade, per=dt)
        return X, c.N * delta[:, -1], fees

    X, q_T, S_T, fees = _walk(payoff, replace(cfg, n_obs=M + 1), hedge_block,
                              ladder=M)
    return _stats("delta", M, cfg, payoff, q_T, S_T, X, fees)


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

    alive = np.ones(cfg.n_paths, dtype=bool)

    def hedge_block(S, twap, rows):
        live = alive[rows]  # a view: policy_speeds clears exits in `alive`
        return _hedge(  # the policy trades in shares per day
            payoff, S, twap, np.full(len(S), float(c.q0)),
            lambda i, q: solution.policy_speeds(i, q, S[:, i], live), per=1.0)

    X, q_T, S_T, fees = _walk(payoff, cfg, hedge_block)
    return _stats("policy", steps, cfg, payoff, q_T, S_T, X, fees, keep=alive)


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
