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

from .minplus import shift_min

__all__ = ["TreeConfig", "TreeValue", "solve_tree", "tree_policy",
           "price_with_initial_exchange", "dump_tree_csv"]

_ALPHA_DEFAULT = math.sqrt(2.0)


@dataclass(frozen=True)
class TreeConfig:
    """Discretization of the tree engine.

    dt in days (must divide T); alpha >= 1 keeps the branch probabilities
    in [0, 1]. dq, q_min, q_max default per problem: dq is the largest
    divisor of rho_max*V*dt with N/dq >= 200, and the inventory grid is
    [0, N] when mu = r = 0 (inventory never profitably leaves it) and
    [-0.1N, 1.1N] otherwise.
    """

    dt: float = 0.25
    alpha: float = _ALPHA_DEFAULT
    dq: Optional[float] = None
    q_min: Optional[float] = None
    q_max: Optional[float] = None

    def __post_init__(self):
        for name in ("dt", "alpha", "dq", "q_min", "q_max"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if not (self.dt > 0):
            raise ValueError("dt must be > 0")
        if not (self.alpha >= 1.0):
            raise ValueError("alpha must be >= 1 (branch probabilities in [0,1])")
        if self.dq is not None and not (self.dq > 0):
            raise ValueError("dq must be > 0")


class TreeValue:
    """Backward-induction output: per-level value and control arrays.

    theta[j] has shape (2j+1, n_q) and is a transposed view of the solver's
    inventory-major (n_q, 2j+1) C-contiguous level array (no copy is made);
    control_mult[j] is laid out the same way and holds the optimal trade in
    units of dq (int), so v = control_mult * dq / dt shares/day.
    """

    def __init__(self, payoff, config, qgrid, theta, control_mult, t_grid):
        self.payoff = payoff
        self.config = config
        self.qgrid = qgrid
        self.theta = theta
        self.control_mult = control_mult
        self.t_grid = t_grid
        self.J = len(t_grid) - 1

    @property
    def dq(self) -> float:
        return float(self.qgrid[1] - self.qgrid[0]) if self.qgrid.size > 1 else 0.0

    def node_prices(self, j: int) -> np.ndarray:
        """Underlying values at level j (2j+1 nodes, ascending)."""
        return _node_prices(self.payoff.market, self.config, j)

    def q_index(self, q: float) -> int:
        i = int(np.argmin(np.abs(self.qgrid - q)))
        if abs(self.qgrid[i] - q) > 1e-6 * max(1.0, abs(q)) + 1e-9:
            raise ValueError(f"q={q} is not on the inventory grid")
        return i

    def node_index(self, j: int, S, strict: bool = True):
        """Level-j node whose price is S (strict) or nearest to S, with S
        clipped to the level's range; S may be an array."""
        m = self.payoff.market
        drift, step = _lattice(m, self.config)
        p = (np.asarray(S, dtype=float) - (m.S0 + drift * j)) / step
        p_int = np.rint(p)
        if strict and np.any(np.abs(p - p_int) > 1e-6):
            raise ValueError(f"S={S} is not a level-{j} tree node")
        return np.clip(p_int.astype(int), -j, j) + j

    def policy_speeds(self, level: int, q, S, alive):
        """Speeds (shares/day) at the nodes of level min(level, J-1) nearest
        to each path's (q, S); clears `alive` where q is over dq/2 off-grid."""
        j = min(level, self.J - 1)
        qg = self.qgrid
        alive &= ~((q < qg[0] - 0.5 * self.dq) | (q > qg[-1] + 0.5 * self.dq))
        node = self.node_index(j, S, strict=False)
        qi = np.clip(np.rint((q - qg[0]) / self.dq).astype(int), 0, qg.size - 1)
        return self.control_mult[j][node, qi] * (self.dq / self.config.dt)


def _lattice(market, config: TreeConfig):
    """Drift per level and node spacing: node p of level j, |p| <= j, is
    at S0 + drift*j + step*p."""
    return market.mu * config.dt, market.sigma * math.sqrt(config.dt) * config.alpha


def _node_prices(market, config: TreeConfig, j: int) -> np.ndarray:
    drift, step = _lattice(market, config)
    return market.S0 + drift * j + step * np.arange(-j, j + 1)


def _default_qgrid(payoff, config: TreeConfig):
    c, m = payoff.contract, payoff.market
    trade = m.rho_max * m.volume.final_value * config.dt
    if config.dq is not None:
        dq = float(config.dq)
    elif trade > 0 and c.N > 0:
        # largest divisor of the per-step trade capacity with N/dq >= 200
        dq = trade / math.ceil(200.0 * trade / c.N)
    elif c.N > 0:
        dq = c.N / 200.0
    else:
        dq = 1.0
    if config.q_min is not None and config.q_max is not None:
        lo, hi = float(config.q_min), float(config.q_max)
    elif m.mu == 0.0 and m.r == 0.0:
        lo, hi = 0.0, c.N
    else:
        lo, hi = -0.1 * c.N, 1.1 * c.N
    if hi < lo:
        raise ValueError("q_max must be >= q_min")
    if hi == lo:
        return np.array([lo]), dq
    n = int(math.ceil((hi - lo) / dq - 1e-9))
    return lo + dq * np.arange(n + 1), dq


def n_steps(T: float, dt: float) -> int:
    """Number of tree steps J = T/dt; raises unless dt divides T."""
    J = round(T / dt)
    if abs(J * dt - T) > 1e-9 or J < 1:
        raise ValueError("dt must divide T")
    return J


def solve_tree(payoff, config: TreeConfig = TreeConfig()):
    """Run the backward induction; returns a TreeValue.

    Requires T/dt integer, q0 on the inventory grid, and — for constant
    volume — rho_max*V*dt an integer multiple of dq. With permanent impact
    k > 0 the node prices are the shifted price S_tilde = S - k*(q - q0),
    on which the problem is the k = 0 one with the impacted terminal.
    """
    c, m = payoff.contract, payoff.market
    dt, alpha = config.dt, config.alpha
    J = n_steps(c.T, dt)

    qgrid, dq = _default_qgrid(payoff, config)
    nq = qgrid.size

    if m.volume.is_constant and m.rho_max > 0 and nq > 1:
        trade = m.rho_max * m.volume.final_value * dt
        if abs(trade / dq - round(trade / dq)) > 1e-6:
            raise ValueError("rho_max*V*dt must be an integer multiple of dq")
    if c.N > 0:
        i0 = int(np.argmin(np.abs(qgrid - c.q0)))
        if abs(qgrid[i0] - c.q0) > 1e-6 * max(1.0, abs(c.q0)):
            raise ValueError("q0 must lie on the inventory grid")

    gamma = c.gamma
    drift, step = _lattice(m, config)
    p_edge = 1.0 / (2.0 * alpha**2)
    p_mid = 1.0 - 1.0 / alpha**2
    growth = math.expm1(m.r * dt)  # e^{r dt} - 1

    t_grid = dt * np.arange(J + 1)
    leaf_S = _node_prices(m, config, J)
    theta = [None] * (J + 1)
    ctrl = [None] * J
    # levels are computed inventory-major, (n_q, nodes) C-contiguous, so the
    # min-plus sweep's shifted slices are contiguous; theta[j] and ctrl[j]
    # are their transposed (nodes, n_q) views
    nxt = np.asarray(payoff.terminal(qgrid[:, None], leaf_S[None, :]), dtype=float)
    theta[J] = nxt.T
    if not np.all(np.isfinite(theta[J])):
        bad = np.argwhere(~np.isfinite(theta[J]))[0]
        raise FloatingPointError(f"non-finite terminal value at node {tuple(bad)}")

    d_up, d_mid, d_dn = drift + step, drift, drift - step

    for j in range(J - 1, -1, -1):
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

        # min-plus sweep over whole-step inventory shifts
        m_cap = int(math.floor(m.rho_max * V * dt / dq + 1e-9)) if (dq > 0 and V > 0) else 0
        m_cap = min(m_cap, nq - 1)
        costs = [g * V * dt * payoff.cost(mm * dq / (dt * V)) for mm in range(1, m_cap + 1)]
        best, bmult = shift_min(lse, costs)
        if growth != 0.0:
            S_nodes = _node_prices(m, config, j)
            best = best + g * growth * (qgrid[:, None] * S_nodes[None, :])
        nxt = (disc / gamma) * best
        theta[j] = nxt.T
        ctrl[j] = bmult.T
        if not np.all(np.isfinite(theta[j])):
            bad = np.argwhere(~np.isfinite(theta[j]))[0]
            raise FloatingPointError(
                f"non-finite value at level {j}, node {tuple(bad)}"
            )

    return TreeValue(payoff, config, qgrid, theta, ctrl, t_grid)


def price_with_initial_exchange(tv: TreeValue, q0: Optional[float] = None) -> float:
    """theta_0(q0, S0): indifference price after the client hands over q0 at S0."""
    if q0 is None:
        q0 = tv.payoff.contract.q0
    return float(tv.theta[0][0, tv.q_index(q0)])


def tree_policy(tv: TreeValue, j: int, S: float, q: float, strict: bool = True) -> float:
    """Optimal trading speed v (shares/day) at level j, node price S, inventory q."""
    if not 0 <= j < tv.J:
        raise ValueError("policy defined for 0 <= j < J")
    node = tv.node_index(j, S, strict=strict)
    mult = tv.control_mult[j][node, tv.q_index(q)]
    return float(mult) * tv.dq / tv.config.dt


def dump_tree_csv(tv: TreeValue, path, levels=None, metadata: str = ""):
    """Per-level node dump: j, p, S, q, theta, v. Heavy for large trees."""
    import csv

    if levels is None:
        levels = range(tv.J + 1)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["j", "p", "S", "q", "theta", "v"])
        for j in levels:
            S = tv.node_prices(j)
            th = tv.theta[j]
            if j < tv.J:
                v = tv.control_mult[j] * (tv.dq / tv.config.dt)
            else:
                v = np.zeros_like(th)
            for a in range(th.shape[0]):
                for i in range(th.shape[1]):
                    w.writerow([j, a - j, f"{S[a]:.10g}", f"{tv.qgrid[i]:.10g}",
                                f"{th[a, i]:.10g}", f"{v[a, i]:.10g}"])
        if metadata:
            fh.write(f"# {metadata}\n")
