"""Core model objects for option hedging under execution costs.

Covers:
- market / execution-cost / contract parameter containers with validation
- instantaneous execution cost L(rho) and its Hamiltonian transform
  H(p) = sup_{|rho| <= rho_max} (p*rho - L(rho)) with closed-form maximizer
- post-maturity liquidation penalty ell(q) at a constant participation rate
- terminal payoff surfaces Pi(q, S) for physical and cash settlement
- Bachelier (arithmetic Brownian) call price and delta
- unit-nominal rescaling of a pricing problem

Conventions: the time unit is the trading day throughout. sigma is in
currency * day**-0.5, volumes in shares/day, mu and r are per-day rates.
Prices, costs and penalties are in currency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

import numpy as np
from scipy.stats import norm

__all__ = [
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

    def scaled(self, factor: float) -> "VolumeCurve":
        return VolumeCurve(self.starts, self.values * factor)

    def __eq__(self, other):
        return (
            isinstance(other, VolumeCurve)
            and np.array_equal(self.starts, other.starts)
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self):
        if self.is_constant:
            return f"VolumeCurve.constant({self.values[0]!r})"
        return f"VolumeCurve({self.starts.tolist()!r}, {self.values.tolist()!r})"


def _require_finite(obj, *names):
    for name in names:
        if not math.isfinite(getattr(obj, name)):
            raise ValueError(f"{name} must be finite")


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


def _golden_max(f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-10):
    """Golden-section maximizer of a unimodal f on [lo, hi]; returns (x, f(x))."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def optimal_rate(cost, p, rho_max: float):
    """Maximizer rho* of p*rho - L(rho) over [-rho_max, rho_max].

    Closed form for an ExecutionCost; golden-section search (tolerance
    1e-10 on rho) for any other convex even cost callable.
    """
    if isinstance(cost, ExecutionCost):
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
    # generic fallback: p*rho - L(rho) is concave in rho, even structure in |rho|
    p = float(p)
    sgn = 1.0 if p >= 0 else -1.0
    x, _ = _golden_max(lambda rho: abs(p) * rho - cost(rho), 0.0, rho_max)
    # snap the kink/corner cases the search can only approach
    cands = np.array([0.0, x, rho_max])
    vals = abs(p) * cands - np.array([cost(c) for c in cands])
    best = cands[int(np.argmax(vals))]
    return sgn * best


def hamiltonian(cost, p, rho_max: float):
    """H(p) = sup_{|rho| <= rho_max} (p*rho - L(rho)) and its maximizer.

    Parameters
    ----------
    cost : ExecutionCost or callable rho -> L(rho)
    p : float or ndarray
    rho_max : float

    Returns
    -------
    (H, rho_star) : matching shape of p. H >= 0 since rho = 0 is feasible.
    """
    rho = optimal_rate(cost, p, rho_max)
    H = np.asarray(p) * rho - cost(rho)
    H = np.maximum(H, 0.0)  # guard roundoff; rho=0 is always feasible
    if np.ndim(H) == 0:
        return float(H), float(np.asarray(rho))
    return H, rho


# ---------------------------------------------------------------------------
# liquidation penalty
# ---------------------------------------------------------------------------


def liquidation_penalty(q, cost: ExecutionCost, rate: float, gamma: float,
                        sigma: float, volume: float):
    """Certainty-equivalent cost of unwinding q shares after maturity.

    The position is traded out at constant participation rate `rate` against
    constant volume `volume`, taking tau = |q|/(rate*volume) days:

        ell(q) = (L(rate)/rate) * |q| + gamma * sigma**2 * |q|**3 / (6*rate*volume)

    (execution cost plus the exponential-utility variance charge of the
    linearly decaying residual position). Even in q, ell(0) = 0, convex
    and increasing on R+.

    Errors: rate <= 0, or volume = 0 with q != 0.
    """
    if not (rate > 0):
        raise ValueError("liquidation rate must be > 0")
    q = np.asarray(q, dtype=float)
    aq = np.abs(q)
    if volume <= 0:
        if np.any(aq > 0):
            raise ValueError("cannot liquidate q != 0 with zero market volume")
        out = np.zeros_like(aq)
        return float(out) if out.ndim == 0 else out
    out = (cost(rate) / rate) * aq + gamma * sigma**2 * aq**3 / (6.0 * rate * volume)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# terminal payoff
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PayoffSpec:
    """Terminal condition Pi(q, S) for the stochastic control problem.

    Bundles the contract, market and execution cost together with the
    liquidation penalty used at maturity. `penalty_rate` defaults to the
    market participation cap; the closed-form penalty needs a final volume
    segment > 0. `penalty` overrides it with an arbitrary even function of
    q (used for degenerate benchmarks).
    """

    contract: OptionContract
    market: MarketParams
    cost: ExecutionCost
    penalty_rate: Optional[float] = None
    penalty: Optional[Callable] = None

    def __post_init__(self):
        if self.penalty is None:
            rate = self.penalty_rate if self.penalty_rate is not None else self.market.rho_max
            if not (0 < rate <= self.market.rho_max):
                raise ValueError("penalty_rate must satisfy 0 < rate <= rho_max")
            if not (self.market.volume.final_value > 0):
                raise ValueError("liquidation needs market volume > 0 on the final segment")
            object.__setattr__(self, "penalty_rate", float(rate))

    def liquidation(self, q):
        """ell(q): penalty for holding q shares at maturity."""
        if self.penalty is not None:
            return self.penalty(np.asarray(q, dtype=float))
        return liquidation_penalty(
            q, self.cost, self.penalty_rate, self.contract.gamma,
            self.market.sigma, self.market.volume.final_value,
        )

    def terminal(self, q, S):
        """Pi on the broadcast of q and S; S is the engines' price axis."""
        return terminal_payoff(q, S, self)

    def observed_price(self, S, q):
        """Quoted price S + k*(q - q0) at the engines' price S (S_tilde) and
        inventory q (broadcasting arrays); S itself when k = 0."""
        return S + self.market.k * (q - self.contract.q0)


def terminal_payoff(q, S, payoff: PayoffSpec):
    """Terminal cost Pi(q, S) at maturity, S on the engines' price axis.

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
    c = payoff.contract
    k = payoff.market.k
    q = np.asarray(q, dtype=float)
    S = np.asarray(S, dtype=float)
    qb, Sb = np.broadcast_arrays(q, S)
    S_obs = payoff.observed_price(Sb, qb)
    intrinsic = c.N * np.maximum(S_obs - c.K, 0.0)
    if c.settlement == "cash":
        out = intrinsic + payoff.liquidation(qb)
    else:
        exercised = S_obs >= c.K
        delivery = payoff.liquidation(c.N - qb) + 0.5 * k * c.N * (c.N - 2.0 * qb)
        out = intrinsic + np.where(exercised, delivery, payoff.liquidation(qb))
    out = out + 0.5 * k * c.q0**2
    return float(out) if out.ndim == 0 else out


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
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.where(sq > 0, (S - K) / np.where(sq > 0, sq, 1.0), 0.0)
    return S, sq, d


def bachelier_price(S, K, sigma, tau):
    """Call price under arithmetic Brownian dynamics with r = 0.

        C = (S-K)*Phi(d) + sigma*sqrt(tau)*pdf(d),  d = (S-K)/(sigma*sqrt(tau))

    tau = 0 returns the intrinsic value (S-K)+.
    """
    S, sq, d = _bachelier_d(S, K, sigma, tau)
    live = (S - K) * norm.cdf(d) + sq * norm.pdf(d)
    out = np.where(sq > 0, live, np.maximum(S - K, 0.0))
    return float(out) if out.ndim == 0 else out


def bachelier_delta(S, K, sigma, tau):
    """Hedge ratio Phi((S-K)/(sigma*sqrt(tau))); 1_{S>=K} at tau = 0."""
    S, sq, d = _bachelier_d(S, K, sigma, tau)
    out = np.where(sq > 0, norm.cdf(d), (S >= K).astype(float))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# unit-nominal rescaling
# ---------------------------------------------------------------------------


def rescale_nominal(contract: OptionContract, market: MarketParams):
    """Map a problem with nominal N to the equivalent unit-nominal problem.

    theta_tilde(t, q/N, S) = theta(t, q, S)/N solves the same equation with

        N' = 1, gamma' = gamma*N, V' = V/N, q0' = q0/N, k' = k*N,

    everything else unchanged (the closed-form liquidation penalty rebuilt
    from the mapped parameters equals ell(N*q)/N automatically).
    """
    N = contract.N
    if not (N > 0):
        raise ValueError("rescaling needs N > 0")
    c2 = replace(contract, N=1.0, gamma=contract.gamma * N, q0=contract.q0 / N)
    m2 = replace(market, volume=market.volume.scaled(1.0 / N), k=market.k * N)
    return c2, m2
