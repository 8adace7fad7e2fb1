"""Core model objects for option hedging under execution costs.

Covers:
- market / execution-cost / contract parameter containers with validation
- instantaneous execution cost L(rho) and the closed-form maximizer rho* of
  p*rho - L(rho) over |rho| <= rho_max
- terminal payoff surfaces Pi(q, S) for physical and cash settlement, with
  the post-maturity liquidation penalty ell(q) at a constant participation rate
- Bachelier (arithmetic Brownian) call price and delta

Conventions: the time unit is the trading day throughout. sigma is in
currency * day**-0.5, volumes in shares/day, mu and r are per-day rates.
Prices, costs and penalties are in currency.
"""

from __future__ import annotations

import dataclasses
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

__all__ = [
    "VolumeCurve",
    "MarketParams",
    "ExecutionCost",
    "OptionContract",
    "PayoffSpec",
    "optimal_rate",
    "bachelier_price",
    "bachelier_delta",
]


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------


class VolumeCurve:
    """Piecewise-constant market volume curve t -> V_t (shares/day).

    Segments are right-open: V(t) = values[i] for starts[i] <= t < starts[i+1].
    The last segment extends past any horizon (liquidation after maturity
    happens at the final segment's volume). Times before the first start
    return the first value.
    """

    def __init__(self, starts, values):
        starts = np.atleast_1d(np.asarray(starts, dtype=float))
        values = np.atleast_1d(np.asarray(values, dtype=float))
        if starts.shape != values.shape or starts.ndim != 1:
            raise ValueError("starts and values must be 1d arrays of equal length")
        if starts.size == 0:
            raise ValueError("volume curve needs at least one segment")
        if not np.all(np.isfinite(starts)) or np.any(np.diff(starts) <= 0):
            raise ValueError("segment start times must be finite and strictly increasing")
        if np.any(values < 0) or not np.all(np.isfinite(values)):
            raise ValueError("volumes must be finite and >= 0")
        self.starts = starts
        self.values = values

    @classmethod
    def constant(cls, value: float) -> "VolumeCurve":
        return cls([0.0], [float(value)])

    def at(self, t):
        """Volume at time(s) t."""
        idx = np.searchsorted(self.starts, np.asarray(t, dtype=float), side="right") - 1
        idx = np.clip(idx, 0, self.values.size - 1)
        out = self.values[idx]
        return float(out) if np.isscalar(t) else out

    @property
    def final_value(self) -> float:
        """Volume on the segment extending past the horizon."""
        return float(self.values[-1])

    @property
    def is_constant(self) -> bool:
        return bool(np.all(self.values == self.values[0]))

    def __eq__(self, other):
        return (
            isinstance(other, VolumeCurve)
            and np.array_equal(self.starts, other.starts)
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self):
        if self.starts.tolist() == [0.0]:
            return f"VolumeCurve.constant({float(self.values[0])!r})"
        return f"VolumeCurve({self.starts.tolist()!r}, {self.values.tolist()!r})"


def _require_finite(obj, *names):
    for name in names:
        if not math.isfinite(getattr(obj, name)):
            raise ValueError(f"{name} must be finite")


def _require_finite_values(arr, where):
    """Raise FloatingPointError at arr's first non-finite entry, named by where(index)."""
    bad = ~np.isfinite(arr)
    if bad.any():
        index = tuple(int(k) for k in np.argwhere(bad)[0])  # (0, 151), not np.int64(0)
        raise FloatingPointError("non-finite " + where(index))


@contextmanager
def _overflow_of(name):
    """Re-raise an OverflowError, which a Python float's ** or math.exp
    raises, naming the parameter that overflowed."""
    try:
        yield
    except OverflowError:
        raise OverflowError(f"overflow: {name} is too large in magnitude") from None


def _level_of(t_grid, t, kept=None) -> int:
    """Index n of the time level t_grid[n] = t, to 1e-6 of a step, for
    either engine's solution. Raises ValueError off the grid, and at a level
    n >= kept, one whose value a lean solve did not keep."""
    x = float(t) / float(t_grid[1] - t_grid[0])  # Python floats: inf, no warning
    n = int(round(x)) if math.isfinite(x) else -1  # inf/NaN: off the grid
    if not (0 <= n < len(t_grid)) or abs(x - n) > 1e-6:
        raise ValueError(f"t={t} is not on the time grid")
    if kept is not None and n >= kept:
        raise ValueError(f"t={t}: the solve kept theta at t = 0 only; "
                         "solve with keep_values=True to read later levels")
    return n


def _as_volume(volume) -> VolumeCurve:
    if isinstance(volume, VolumeCurve):
        return volume
    return VolumeCurve.constant(float(volume))


@dataclass(frozen=True)
class MarketParams:
    """Arithmetic price dynamics dS = mu dt + sigma dW + k v dt plus volume.

    Attributes
    ----------
    S0 : float
        Spot at t = 0 (currency).
    sigma : float
        Absolute volatility, currency * day**-0.5.
    volume : VolumeCurve or float
        Market volume available for participation (shares/day).
    rho_max : float
        Maximum participation rate: |v_t| <= rho_max * V_t.
    mu, r : float
        Per-day drift (currency/day) and interest rate (1/day).
    k : float
        Permanent impact slope (currency/share). k > 0 requires mu = r = 0.
    """

    S0: float
    sigma: float
    volume: Union[VolumeCurve, float]
    rho_max: float
    mu: float = 0.0
    r: float = 0.0
    k: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "volume", _as_volume(self.volume))
        _require_finite(self, "S0", "sigma", "rho_max", "mu", "r", "k")
        if not (self.sigma > 0):
            raise ValueError("sigma must be > 0")
        if self.rho_max < 0:
            raise ValueError("rho_max must be >= 0")
        if self.k < 0:
            raise ValueError("permanent impact k must be >= 0")
        if self.k > 0 and (self.mu != 0.0 or self.r != 0.0):
            raise ValueError("permanent impact (k > 0) requires mu = r = 0")


@dataclass(frozen=True)
class ExecutionCost:
    """Execution cost rate L(rho) = eta*|rho|**(1+phi) + psi*|rho|.

    rho = v/V is the participation rate; the instantaneous cost of trading
    at speed v when market volume is V is V * L(v/V) (currency/day).
    L is even, L(0) = 0, increasing on R+, and strictly convex for eta > 0.
    eta = 0 (pure proportional cost) is allowed as a degenerate case for
    benchmarks and limits.
    """

    eta: float
    phi: float
    psi: float = 0.0

    def __post_init__(self):
        _require_finite(self, "eta", "phi", "psi")
        if self.eta < 0:
            raise ValueError("eta must be >= 0")
        if not (self.phi > 0):
            raise ValueError("phi (cost exponent) must be > 0")
        if self.psi < 0:
            raise ValueError("psi must be >= 0")

    def __call__(self, rho):
        a = np.abs(rho)
        return self.eta * a ** (1.0 + self.phi) + self.psi * a


@dataclass(frozen=True)
class OptionContract:
    """European call: nominal N shares at strike K, maturity T days.

    gamma is the (absolute risk aversion) exponential-utility coefficient,
    q0 the inventory received from the client at inception. settlement is
    "physical" or "cash". N = 0 degenerates to "no option" and is accepted
    for benchmark configurations.
    """

    K: float
    T: float
    N: float
    gamma: float
    q0: float = 0.0
    settlement: str = "physical"

    def __post_init__(self):
        _require_finite(self, "K", "T", "N", "gamma", "q0")
        if not (self.T > 0):
            raise ValueError("T must be > 0")
        if self.N < 0:
            raise ValueError("nominal N must be >= 0")
        if not (self.gamma > 0):
            raise ValueError("gamma must be > 0")
        if not (0.0 <= self.q0 <= max(self.N, 0.0)) and self.N > 0:
            raise ValueError("q0 must lie in [0, N]")
        if self.N == 0 and self.q0 != 0:
            raise ValueError("q0 must be 0 when N = 0")
        if self.settlement not in ("physical", "cash"):
            raise ValueError("settlement must be 'physical' or 'cash'")


# ---------------------------------------------------------------------------
# execution cost transform
# ---------------------------------------------------------------------------


def optimal_rate(cost: ExecutionCost, p, rho_max: float):
    """Maximizer rho* of p*rho - L(rho) over [-rho_max, rho_max], in
    closed form for the ExecutionCost family."""
    p = np.asarray(p, dtype=float)
    ap = np.abs(p)
    excess = np.maximum(ap - cost.psi, 0.0)
    if cost.eta == 0.0:
        # linear cost: bang-bang
        mag = np.where(excess > 0.0, rho_max, 0.0)
    else:
        mag = (excess / (cost.eta * (1.0 + cost.phi))) ** (1.0 / cost.phi)
        mag = np.minimum(mag, rho_max)
    out = np.sign(p) * mag
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# terminal payoff
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PayoffSpec:
    """Terminal condition Pi(q, S) for the stochastic control problem.

    Bundles the contract, market and execution cost together with the
    liquidation penalty used at maturity. cost must be an ExecutionCost,
    the family whose Hamiltonian the solvers take in closed form (TypeError
    otherwise). The closed-form penalty unwinds at `liquidation_rate`:
    `penalty_rate`, kept as given, or the market participation cap while
    it is None; it needs a final volume segment > 0. `penalty` overrides
    it with an arbitrary even function of q (used for degenerate
    benchmarks).
    """

    contract: OptionContract
    market: MarketParams
    cost: ExecutionCost
    penalty_rate: Optional[float] = None
    penalty: Optional[Callable] = None

    def __post_init__(self):
        if not isinstance(self.cost, ExecutionCost):
            raise TypeError("cost must be an ExecutionCost, "
                            f"got {type(self.cost).__name__}")
        if self.penalty is None:
            if not (0 < self.liquidation_rate <= self.market.rho_max):
                raise ValueError("penalty_rate must satisfy 0 < rate <= rho_max")
            if not (self.market.volume.final_value > 0):
                raise ValueError("liquidation needs market volume > 0 on the final segment")

    def replace(self, **changes) -> PayoffSpec:
        """This problem with each keyword applied to the one part with a field by
        that name (contract, market, cost or this spec), a part given whole first.
        Each part is rebuilt once, so it validates the final values; an unknown
        keyword raises TypeError."""
        def rebuilt(part):
            obj = changes.pop(part, getattr(self, part))
            return dataclasses.replace(obj, **{f.name: changes.pop(f.name) for f in
                                               dataclasses.fields(obj) if f.name in changes})
        parts = {part: rebuilt(part) for part in ("contract", "market", "cost")}
        return dataclasses.replace(self, **parts, **changes)

    @property
    def liquidation_rate(self) -> float:
        """Participation rate of the unwind: penalty_rate, or rho_max if None."""
        return self.market.rho_max if self.penalty_rate is None else self.penalty_rate

    def liquidation(self, q):
        """ell(q): penalty for holding q shares at maturity.

        Unless `penalty` overrides it, the position is traded out at the
        constant participation rate `liquidation_rate` against the final
        volume segment V, taking tau = |q|/(rate*V) days:

            ell(q) = (L(rate)/rate) * |q| + gamma * sigma**2 * |q|**3 / (6*rate*V)

        (execution cost plus the exponential-utility variance charge of the
        linearly decaying residual position). Even in q, ell(0) = 0, convex
        and increasing on R+. A non-finite ell raises FloatingPointError
        naming the formula's inputs.
        """
        if self.penalty is not None:
            return self.penalty(np.asarray(q, dtype=float))
        c, m, rate = self.contract, self.market, self.liquidation_rate
        L, V = self.cost(rate), m.volume.final_value
        aq = np.abs(np.asarray(q, dtype=float))
        with _overflow_of("sigma"):
            out = (L / rate) * aq + c.gamma * m.sigma**2 * aq**3 / (6.0 * rate * V)
        _require_finite_values(out, lambda i: (
            f"liquidation penalty at |q| = {aq[i]:g}: L(rate) = {L:g}, "
            f"gamma = {c.gamma:g}, sigma = {m.sigma:g}, rate = {rate:g}, V = {V:g}"))
        return float(out) if out.ndim == 0 else out

    def terminal(self, q, S):
        """Terminal cost Pi(q, S), broadcast, with S on the engines' price axis.

        With permanent impact k that axis is S_tilde = S_obs - k*(q - q0), where
        the problem is the k = 0 one with this terminal; exercise is decided on
        the observed price S_obs. Physical settlement delivers N shares against
        K*N cash when S_obs >= K, then unwinds the mismatch:

            Pi = N*(S_obs-K)+ + 1_{S_obs>=K} * (ell(N - q) + k*N*(N - 2q)/2)
                 + 1_{S_obs<K} * ell(q) + k*q0**2/2

        Cash settlement pays the intrinsic value and always unwinds to flat:

            Pi = N*(S_obs-K)+ + ell(q) + k*q0**2/2

        At k = 0 the impact terms add exactly zero and Pi >= N*(S-K)+ pointwise.
        """
        c = self.contract
        k = self.market.k
        qb, Sb = np.broadcast_arrays(np.asarray(q, dtype=float),
                                     np.asarray(S, dtype=float))
        S_obs = self.observed_price(Sb, qb)
        intrinsic = c.N * np.maximum(S_obs - c.K, 0.0)
        if c.settlement == "cash":
            out = intrinsic + self.liquidation(qb)
        else:
            exercised = S_obs >= c.K
            delivery = self.liquidation(c.N - qb) + 0.5 * k * c.N * (c.N - 2.0 * qb)
            out = intrinsic + np.where(exercised, delivery, self.liquidation(qb))
        out = out + 0.5 * k * c.q0**2
        return float(out) if out.ndim == 0 else out

    def observed_price(self, S, q):
        """Quoted price S + k*(q - q0) at the engines' price S (S_tilde) and
        inventory q (broadcasting arrays); S itself when k = 0."""
        return S + self.market.k * (q - self.contract.q0)


# ---------------------------------------------------------------------------
# Bachelier benchmark
# ---------------------------------------------------------------------------


def _bachelier_d(S, K, sigma, tau):
    """(S, sq, d) as float arrays: sq = sigma*sqrt(tau), and d = (S-K)/sq
    where sq > 0, 0 elsewhere."""
    S = np.asarray(S, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0):
        raise ValueError("tau must be >= 0")
    sq = sigma * np.sqrt(tau)
    live = sq > 0
    # one full-size array, written in place: S and tau broadcast to a whole
    # (paths, dates) ladder in the delta hedge
    d = np.empty(np.broadcast_shapes(S.shape, np.shape(K), sq.shape))
    np.subtract(S, K, out=d)
    with np.errstate(divide="ignore", invalid="ignore"):
        d /= np.where(live, sq, 1.0)
    np.copyto(d, 0.0, where=~live)
    return S, sq, d


def bachelier_price(S, K, sigma, tau):
    """Call price under arithmetic Brownian dynamics with r = 0.

        C = (S-K)*Phi(d) + sigma*sqrt(tau)*pdf(d),  d = (S-K)/(sigma*sqrt(tau))

    tau = 0 returns the intrinsic value (S-K)+. Phi is ndtr and pdf is
    exp(-d**2/2)/sqrt(2*pi), so C equals the norm.cdf/norm.pdf form bit for bit.
    """
    from scipy.special import ndtr  # on first use: tree runs load no scipy
    S, sq, d = _bachelier_d(S, K, sigma, tau)
    # -0.5*d**2 rounds as -d**2/2 does, and a NaN d keeps its sign, as in norm.pdf
    pdf = np.exp(-0.5 * d**2) / math.sqrt(2.0 * math.pi)
    # where Phi(d) is 0 the call's first term is 0: at S = -inf the product
    # would be -inf*0 = NaN, and elsewhere its -0.0 adds as 0.0 does
    phi = ndtr(d)
    live = np.multiply(S - K, phi, out=np.zeros_like(phi), where=phi > 0) + sq * pdf
    out = np.where(sq > 0, live, np.maximum(S - K, 0.0))
    return float(out) if out.ndim == 0 else out


def bachelier_delta(S, K, sigma, tau):
    """Hedge ratio Phi((S-K)/(sigma*sqrt(tau))); 1_{S>=K} at tau = 0.

    S and tau broadcast, so one call prices a whole (paths, dates) ladder.
    Phi is scipy's ndtr, as in bachelier_price.
    """
    from scipy.special import ndtr  # on first use: tree runs load no scipy
    S, sq, d = _bachelier_d(S, K, sigma, tau)
    ndtr(d, out=d)
    np.copyto(d, S >= K, where=~(sq > 0))
    return float(d) if d.ndim == 0 else d
