"""Test-only helpers: `reference_payoff`, the reference scenario with the
fields a test changes, `FROZEN`, the frozen-inventory problem both engines
solve in closed form, the Hamiltonian transform and a grid search for it,
the unit-nominal rescaling and the discrete wealth decomposition. The
package has no caller for any of them; the tests use the last four as
independent checks of the engines' closed forms, scaling and accounting."""

import dataclasses
import math
from pathlib import Path

import numpy as np

from liqhedge.cli import load_config
from liqhedge.model import (ExecutionCost, MarketParams, OptionContract, PayoffSpec,
                            VolumeCurve, optimal_rate)

REFERENCE_CONFIG = Path(__file__).resolve().parents[1] / "demos" / "reference_config.json"


def reference_payoff(**changes) -> PayoffSpec:
    """The payoff of `demos/reference_config.json` with `changes` applied by
    `PayoffSpec.replace`."""
    return load_config(str(REFERENCE_CONFIG)).payoff.replace(**changes)


# no option, no penalty and rho_max = 0: only the variance charge of the held
# inventory remains, gamma*sigma^2*q^2*(T - t)/2 in continuous time
FROZEN = reference_payoff(T=4.0, N=0.0, gamma=3e-7, q0=0.0, settlement="cash",
                          sigma=0.6, rho_max=0.0, penalty_rate=1.0,
                          penalty=lambda q: np.zeros_like(q))


def hamiltonian(cost: ExecutionCost, p, rho_max: float):
    """H(p) = sup_{|rho| <= rho_max} (p*rho - L(rho)) and its maximizer.

    Returns (H, rho_star), matching the shape of p. H >= 0 since rho = 0 is
    feasible.
    """
    rho = optimal_rate(cost, p, rho_max)
    H = np.asarray(p) * rho - cost(rho)
    H = np.maximum(H, 0.0)  # guard roundoff; rho=0 is always feasible
    if np.ndim(H) == 0:
        return float(H), float(np.asarray(rho))
    return H, rho


def hamiltonian_zoom_search(cost: ExecutionCost, p: float, rho_max: float) -> float:
    """H(p) by a grid search over [-rho_max, rho_max] that zooms in on its
    best point: three passes of 20,001 rates resolve the maximizer where one
    grid of 400,001 may not. An oracle for `hamiltonian` that shares none
    of its closed-form code."""
    lo, hi = -rho_max, rho_max
    for _ in range(3):
        rho = np.linspace(lo, hi, 20_001)
        vals = p * rho - cost(rho)
        i = int(np.argmax(vals))
        lo, hi = rho[max(i - 1, 0)], rho[min(i + 1, rho.size - 1)]
    return float(vals.max())


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
    c2 = dataclasses.replace(contract, N=1.0, gamma=contract.gamma * N,
                             q0=contract.q0 / N)
    volume = VolumeCurve(market.volume.starts, market.volume.values * (1.0 / N))
    m2 = dataclasses.replace(market, volume=volume, k=market.k * N)
    return c2, m2


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
