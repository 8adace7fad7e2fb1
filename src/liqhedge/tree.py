"""Trinomial-tree dynamic program for the utility-indifference price.

The underlying moves S_{j+1} = S_j + mu*dt + sigma*sqrt(dt)*eps with
eps in {+alpha, 0, -alpha}, P(+-alpha) = 1/(2*alpha**2), P(0) = 1 - 1/alpha**2
(recombining; level j has 2j+1 nodes). Inventory lives on a uniform grid of
step dq and trades move it by whole grid steps, so the Bellman recursion

    theta_j(q,S) = e^{-r(J-j)dt}/gamma * min_{|v| <= rho_max*V} log E[
        exp(gamma*e^{r(J-j-1)dt}*(q*S*(e^{r dt}-1) + L(v/V)*V*dt
            - (q+v*dt)*(mu*dt + sigma*sqrt(dt)*eps)
            + theta_{j+1}(q+v*dt, S_{j+1})))]

(V = V(t_j), the volume at the start of the interval [t_j, t_{j+1}))
reduces per level to one log-sum-exp over the three branches followed by a
min-plus sweep over integer inventory shifts (`minplus.shift_min`, shared
with the PDE trading substep). Expectations use max-subtracted log-sum-exp;
candidate trades that leave the inventory grid are excluded; ties prefer the
smallest |v|, then the negative sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .minplus import shift_min, trade_ladder
from .model import _level_of, _overflow_of, _require_finite, _require_finite_values

__all__ = ["TreeConfig", "TreeValue", "solve_tree", "price_with_initial_exchange"]

_ALPHA_DEFAULT = math.sqrt(2.0)


@dataclass(frozen=True)
class TreeConfig:
    """Discretization of the tree engine.

    dt in days (must divide T); alpha >= 1 keeps the branch probabilities
    in [0, 1]. dq, q_min, q_max default per problem: dq is the largest
    divisor of rho_max*V*dt with N/dq >= 200, and the inventory grid is
    [0, N] when mu = r = 0 (inventory never profitably leaves it) and
    [-0.1N, 1.1N] otherwise. Each of q_min, q_max that is given replaces
    its own default bound.
    """

    dt: float = 0.25
    alpha: float = _ALPHA_DEFAULT
    dq: Optional[float] = None
    q_min: Optional[float] = None
    q_max: Optional[float] = None

    def __post_init__(self):
        given = [n for n in ("dq", "q_min", "q_max") if getattr(self, n) is not None]
        _require_finite(self, "dt", "alpha", *given)
        if not (self.dt > 0):
            raise ValueError("dt must be > 0")
        if not (self.alpha >= 1.0):
            raise ValueError("alpha must be >= 1 (branch probabilities in [0,1])")
        if self.dq is not None and not (self.dq > 0):
            raise ValueError("dq must be > 0")


class TreeValue:
    """Backward-induction output: value levels and every control level.

    theta holds the value levels the solve kept: [theta_0] by default,
    every level 0..J with keep_values=True. theta[j] is the solver's own
    C-contiguous (n_q, 2j+1) array, read [i, p] like the PDE's values[n].
    control_mult[j], for every decision level j < J, is laid out the same
    way and holds the optimal trade in units of dq (int), so
    v = control_mult * (dq / dt) shares/day.
    """

    def __init__(self, payoff, config, qgrid, theta, control_mult, t_grid):
        self.payoff = payoff
        self.config = config
        self.qgrid = qgrid
        self.theta = theta
        self.control_mult = control_mult
        self.t_grid = t_grid
        self.J = len(t_grid) - 1
        self.dq = float(qgrid[1] - qgrid[0]) if qgrid.size > 1 else 0.0
        # lattice: node p of level j, |p| <= j, is at S0 + drift*j + step*p
        m = payoff.market
        self._drift = m.mu * config.dt
        self._step = m.sigma * math.sqrt(config.dt) * config.alpha

    def node_prices(self, j: int) -> np.ndarray:
        """Underlying values at level j (2j+1 nodes, ascending)."""
        S0 = self.payoff.market.S0
        return S0 + self._drift * j + self._step * np.arange(-j, j + 1)

    def _q_nearest(self, q):
        # nearest grid index to q, clipped; a one-node grid (dq = 0) reads node 0
        return np.fmin(np.fmax(np.rint((q - self.qgrid[0]) / (self.dq or 1.0)), 0),
                       self.qgrid.size - 1).astype(int)

    def q_index(self, q: float) -> int:
        if math.isfinite(q):
            i = int(self._q_nearest(q))
            if abs(self.qgrid[i] - q) <= 1e-6 * max(1.0, abs(q)) + 1e-9:
                return i
        raise ValueError(f"q={q} is not on the inventory grid")

    def node_index(self, j: int, S, strict: bool = True):
        """Level-j node whose price is S (strict) or nearest to S, with S
        clipped to the level's range, NaN to the bottom; S may be an array."""
        p = ((np.asarray(S, dtype=float) - (self.payoff.market.S0 + self._drift * j))
             / self._step)
        p_int = np.rint(p)
        if strict and not (np.all(np.isfinite(p))
                           and np.all(np.abs(p - p_int) <= 1e-6)):
            raise ValueError(f"S={S} is not a level-{j} tree node")
        return np.fmin(np.fmax(p_int, -j), j).astype(int) + j

    def price(self, t: float, q: float, S: float) -> float:
        """theta at time level t, inventory grid point q and level node S;
        t must be a level the solve kept (t = 0 only, unless solved with
        keep_values=True)."""
        j = _level_of(self.t_grid, t, len(self.theta))
        return float(self.theta[j][self.q_index(q), self.node_index(j, S)])

    def policy(self, t: float, q: float, S: float) -> float:
        """Optimal trading speed (shares/day) at time level t < T, inventory
        grid point q and level node S."""
        j = _level_of(self.t_grid, t)
        if j == self.J:
            raise ValueError(f"t={t}: the tree holds no policy at t = T")
        mult = self.control_mult[j][self.q_index(q), self.node_index(j, S)]
        return float(mult * (self.dq / self.config.dt))

    def policy_speeds(self, level: int, q, S, alive):
        """Speeds (shares/day) at the nodes of level min(level, J-1) nearest
        to each path's (q, S); clears `alive` where q is over dq/2 off-grid
        or where q or S is NaN."""
        j = min(level, self.J - 1)
        qg = self.qgrid
        alive &= ((q >= qg[0] - 0.5 * self.dq) & (q <= qg[-1] + 0.5 * self.dq)
                  & ~np.isnan(S))
        node = self.node_index(j, S, strict=False)
        return self.control_mult[j][self._q_nearest(q), node] * (self.dq / self.config.dt)


def _default_qgrid(payoff, config: TreeConfig):
    c, m = payoff.contract, payoff.market
    trade = m.rho_max * m.volume.final_value * config.dt
    if config.dq is not None:
        dq = float(config.dq)
    elif trade > 0 and c.N > 0:
        # largest divisor of the per-step trade capacity with N/dq >= 200
        with _overflow_of("rho_max*V*dt/N"):
            dq = trade / math.ceil(200.0 * trade / c.N)
    elif c.N > 0:
        dq = c.N / 200.0
    else:
        dq = 1.0
    lo, hi = (0.0, c.N) if m.mu == 0.0 and m.r == 0.0 else (-0.1 * c.N, 1.1 * c.N)
    lo = lo if config.q_min is None else float(config.q_min)
    hi = hi if config.q_max is None else float(config.q_max)
    if hi < lo:
        raise ValueError("q_max must be >= q_min")
    if hi == lo:
        return np.array([lo]), dq
    with _overflow_of("(q_max - q_min)/dq"):
        n = int(math.ceil((hi - lo) / dq - 1e-9))
    return lo + dq * np.arange(n + 1), dq


def n_steps(T: float, dt: float) -> int:
    """Number of tree steps J = T/dt; raises unless dt divides T."""
    J = round(T / dt)
    if abs(J * dt - T) > 1e-9 or J < 1:
        raise ValueError("dt must divide T")
    return J


def solve_tree(payoff, config: Optional[TreeConfig] = None, keep_values: bool = False):
    """Run the backward induction; returns a TreeValue.

    The TreeValue holds the control at every decision level and the value
    at level 0 only, so only the level in flight is alive during the solve;
    keep_values=True keeps every value level too.

    Requires T/dt integer, q0 on the inventory grid, and — for constant
    volume — rho_max*V*dt an integer multiple of dq. With permanent impact
    k > 0 the node prices are the shifted price S_tilde = S - k*(q - q0),
    on which the problem is the k = 0 one with the impacted terminal.
    """
    c, m = payoff.contract, payoff.market
    config = TreeConfig() if config is None else config
    dt, alpha = config.dt, config.alpha
    J = n_steps(c.T, dt)

    qgrid, dq = _default_qgrid(payoff, config)
    nq = qgrid.size

    if m.volume.is_constant and m.rho_max > 0 and nq > 1:
        trade = m.rho_max * m.volume.final_value * dt
        with _overflow_of("rho_max*V*dt/dq"):
            if abs(trade / dq - round(trade / dq)) > 1e-6:
                raise ValueError("rho_max*V*dt must be an integer multiple of dq")
    t_grid = dt * np.arange(J + 1)
    theta = [None] * (J + 1) if keep_values else [None]
    ctrl = [None] * J
    # the solution is built first, so its own grid check vets q0; the
    # induction below fills its level lists in place
    tv = TreeValue(payoff, config, qgrid, theta, ctrl, t_grid)
    if c.N > 0:
        tv.q_index(c.q0)

    gamma = c.gamma
    drift, step = tv._drift, tv._step
    with _overflow_of("alpha"):
        p_edge = 1.0 / (2.0 * alpha**2)
        p_mid = 1.0 - 1.0 / alpha**2
    with _overflow_of("r"):
        growth = math.expm1(m.r * dt)  # e^{r dt} - 1

    # levels are (n_q, nodes) C-contiguous, so an inventory shift is a contiguous slice
    nxt = np.asarray(payoff.terminal(qgrid[:, None], tv.node_prices(J)[None, :]),
                     dtype=float)
    _require_finite_values(nxt.T, lambda node: f"terminal value at node {node}")
    if keep_values:
        theta[J] = nxt

    d_up, d_mid, d_dn = drift + step, drift, drift - step
    bmult = None

    for j in range(J - 1, -1, -1):
        with _overflow_of("r"):
            kappa = math.exp(m.r * (J - j - 1) * dt)
            disc = math.exp(-m.r * (J - j) * dt)
        V = float(m.volume.at(j * dt))
        g = gamma * kappa

        # expectation over the three branches, shared by every control
        z_up = g * (nxt[:, 2:] - qgrid[:, None] * d_up)
        z_mid = g * (nxt[:, 1:-1] - qgrid[:, None] * d_mid)
        z_dn = g * (nxt[:, :-2] - qgrid[:, None] * d_dn)
        zmax = np.maximum(np.maximum(z_up, z_mid), z_dn)
        lse = zmax + np.log(
            p_edge * np.exp(z_up - zmax)
            + p_mid * np.exp(z_mid - zmax)
            + p_edge * np.exp(z_dn - zmax)
        )
        del z_up, z_mid, z_dn, zmax  # freed before the sweep's own temporaries

        # min-plus sweep over whole-step inventory shifts, each node searched
        # from its middle child's trade one level later
        rates = trade_ladder(payoff.cost, m.rho_max, V, dt, dq, nq)
        guess = None if bmult is None else bmult[:, 1:-1]
        best, bmult = shift_min(lse, [g * V * dt * rate for rate in rates], guess)
        if growth != 0.0:
            best = best + g * growth * (qgrid[:, None] * tv.node_prices(j)[None, :])
        nxt = (disc / gamma) * best
        ctrl[j] = bmult
        _require_finite_values(nxt.T, lambda node: f"value at level {j}, node {node}")
        if keep_values or j == 0:
            theta[j] = nxt

    return tv


def price_with_initial_exchange(tv: TreeValue) -> float:
    """theta_0(q0, S0) at the contract's q0: the indifference price."""
    return tv.price(0.0, tv.payoff.contract.q0, tv.payoff.market.S0)
