"""Operator-splitting finite-difference solver for the pricing equation.

Backward from the terminal condition, each step splits the equation

    d_t theta = r*theta + (mu - r*S)*q - mu*d_S theta - 0.5*sigma^2*d_SS theta
                - 0.5*gamma*sigma^2*e^{r(T-t)}*(d_S theta - q)^2
                + V_t * H(d_q theta)

into three fractional substeps:

(A) the linear part, backward Euler in time, one tridiagonal solve along S
    per inventory row, with d_SS theta = 0 at the S boundaries;
(B) the quadratic mis-hedge term, explicit with the monotone Godunov
    numerical Hamiltonian (the term is concave in the slope, so the flux is
    the extremum of h(p) = -c(p-q)^2/... over the one-sided slopes with the
    stationary point q admitted on decreasing intervals), sub-stepped to
    respect the CFL bound dt * c * max|p - q| / dS <= 1;
(C) the trading term, semi-Lagrangian: new theta(q) = min over a discrete
    participation-rate set of [V*L(rho)*dt + theta(q + rho*V*dt)] with linear
    interpolation in q; displacements leaving the grid are excluded. The
    node-aligned rates (whole grid steps) go through `minplus.shift_min`,
    the kernel the tree uses too. The minimizer is stored as the policy
    v = rho*V.

The first step after the terminal condition always runs (A) first, which
smooths the payoff discontinuity before the nonlinear substeps see it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import solve_banded

from .minplus import shift_min
from .model import optimal_rate

__all__ = ["GridSpec", "SchemeConfig", "ThetaSurface", "solve_theta",
           "export_surface_csv"]

_MAX_SUBSTEPS = 100_000  # CFL substeps per time step before giving up


@dataclass(frozen=True)
class GridSpec:
    """Uniform (t, q, S) grid. n_t counts steps, so there are n_t+1 levels."""

    S_min: float
    S_max: float
    n_S: int
    q_min: float
    q_max: float
    n_q: int
    n_t: int

    def __post_init__(self):
        for name in ("S_min", "S_max", "q_min", "q_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not (self.S_max > self.S_min):
            raise ValueError("need S_max > S_min")
        if not (self.q_max > self.q_min):
            raise ValueError("need q_max > q_min")
        if self.n_S < 3 or self.n_q < 2 or self.n_t < 1:
            raise ValueError("grid too small")

    @classmethod
    def default(cls, payoff, n_S: int = 241, n_q: int = 121,
                steps_per_day: float = 4.0, **bounds) -> "GridSpec":
        """S spans +-6 sigma sqrt(T) around the strike (widened to cover
        the spot), q spans [-0.1N, 1.1N], 4 time steps per day. Each of
        S_min, S_max, q_min, q_max given in `bounds` replaces its default;
        n_t = max(1, round(steps_per_day*T)) for any steps_per_day > 0."""
        c, m = payoff.contract, payoff.market
        if not (steps_per_day > 0):
            raise ValueError("steps_per_day must be > 0")
        if c.N <= 0 and not {"q_min", "q_max"} <= bounds.keys():
            raise ValueError("default grid needs N > 0; pass q_min and q_max")
        width = 6.0 * m.sigma * math.sqrt(c.T)
        edges = {"S_min": min(m.S0, c.K) - width, "S_max": max(m.S0, c.K) + width,
                 "q_min": -0.1 * c.N, "q_max": 1.1 * c.N}
        return cls(n_S=n_S, n_q=n_q, n_t=max(1, round(steps_per_day * c.T)),
                   **{**edges, **bounds})

    @property
    def S(self) -> np.ndarray:
        return np.linspace(self.S_min, self.S_max, self.n_S)

    @property
    def q(self) -> np.ndarray:
        return np.linspace(self.q_min, self.q_max, self.n_q)


@dataclass(frozen=True)
class SchemeConfig:
    """Splitting order ("ABC" or "ACB"; A always first), control-set size for
    the semi-Lagrangian step, CFL safety factor in (0, 1] for the Godunov
    substep."""

    order: str = "ABC"
    n_controls: int = 41
    cfl_safety: float = 0.9

    def __post_init__(self):
        if self.order not in ("ABC", "ACB"):
            raise ValueError("order must be 'ABC' or 'ACB'")
        if self.n_controls < 3 or self.n_controls % 2 == 0:
            raise ValueError("n_controls must be odd and >= 3 (0 must be a candidate)")
        if not (0.0 < self.cfl_safety <= 1.0):
            raise ValueError("cfl_safety must satisfy 0 < cfl_safety <= 1")


class ThetaSurface:
    """Solved value/control surfaces on the full (t, q, S) grid.

    values[n, i, j] = theta(t_n, q_i, S_j); control[n, i, j] = v*(t_n, q_i, S_j)
    in shares/day (zero at the terminal level, where no decision remains).
    """

    def __init__(self, payoff, grid: GridSpec, scheme: SchemeConfig,
                 values: np.ndarray, control: np.ndarray):
        self.payoff = payoff
        self.grid = grid
        self.scheme = scheme
        self.values = values
        self.control = control
        self.t_grid = np.linspace(0.0, payoff.contract.T, grid.n_t + 1)

    @property
    def dt(self) -> float:
        return self.t_grid[1] - self.t_grid[0]

    def level_of(self, t: float) -> int:
        x = t / self.dt
        n = int(round(x))
        if not (0 <= n <= self.grid.n_t) or abs(x - n) > 1e-6:
            raise ValueError(f"t={t} is not on the time grid")
        return n

    def _bilinear(self, arr2d: np.ndarray, q, S):
        g = self.grid
        q = np.asarray(q, dtype=float)
        S = np.asarray(S, dtype=float)
        if np.any(q < g.q_min - 1e-9) or np.any(q > g.q_max + 1e-9) or \
           np.any(S < g.S_min - 1e-9) or np.any(S > g.S_max + 1e-9):
            raise ValueError("query outside the grid hull")
        dq = (g.q_max - g.q_min) / (g.n_q - 1)
        dS = (g.S_max - g.S_min) / (g.n_S - 1)
        x = np.clip((q - g.q_min) / dq, 0, g.n_q - 1)
        y = np.clip((S - g.S_min) / dS, 0, g.n_S - 1)
        i = np.minimum(x.astype(int), g.n_q - 2)
        j = np.minimum(y.astype(int), g.n_S - 2)
        fx, fy = x - i, y - j
        out = ((1 - fx) * (1 - fy) * arr2d[i, j]
               + fx * (1 - fy) * arr2d[i + 1, j]
               + (1 - fx) * fy * arr2d[i, j + 1]
               + fx * fy * arr2d[i + 1, j + 1])
        return float(out) if out.ndim == 0 else out

    def price(self, t: float, q, S):
        """Bilinear interpolation of theta at (t, q, S); t must be a level."""
        return self._bilinear(self.values[self.level_of(t)], q, S)

    def policy(self, t: float, q, S):
        """Interpolated optimal trading speed (shares/day) at (t, q, S)."""
        return self._bilinear(self.control[self.level_of(t)], q, S)

    def policy_speeds(self, level: int, q, S, alive):
        """Speeds (shares/day) at each path's (q, S), clipped to the grid, on
        time level `level`; clears `alive` where (q, S) is off the grid."""
        g = self.grid
        alive &= ~((q < g.q_min) | (q > g.q_max) | (S < g.S_min) | (S > g.S_max))
        return self._bilinear(self.control[level], np.clip(q, g.q_min, g.q_max),
                              np.clip(S, g.S_min, g.S_max))


def _build_banded_A(grid: GridSpec, market, dt: float) -> np.ndarray:
    """Banded (ab) matrix for the implicit linear substep along S."""
    nS = grid.n_S
    dS = (grid.S_max - grid.S_min) / (nS - 1)
    mu, r, sig2 = market.mu, market.r, market.sigma**2
    diff = 0.5 * sig2 / dS**2
    adv = mu / (2.0 * dS)
    lower = np.zeros(nS)
    diag = np.zeros(nS)
    upper = np.zeros(nS)
    diag[1:-1] = 1.0 + r * dt + 2.0 * dt * diff
    lower[1:-1] = -dt * (diff - adv)
    upper[1:-1] = -dt * (diff + adv)
    # boundaries: d_SS theta = 0, one-sided first derivative
    diag[0] = 1.0 + r * dt + dt * mu / dS
    upper[0] = -dt * mu / dS
    diag[-1] = 1.0 + r * dt - dt * mu / dS
    lower[-1] = dt * mu / dS
    ab = np.zeros((3, nS))
    ab[0, 1:] = upper[:-1]
    ab[1, :] = diag
    ab[2, :-1] = lower[1:]
    return ab


def _step_A(theta: np.ndarray, ab: np.ndarray, source: Optional[np.ndarray]) -> np.ndarray:
    """Implicit linear substep; theta shaped (n_q, n_S)."""
    rhs = theta if source is None else theta + source
    return solve_banded((1, 1), ab, rhs.T, overwrite_ab=False, check_finite=False).T


def _step_B(theta: np.ndarray, qcol: np.ndarray, dS: float, coef: float,
            dt: float, scheme: SchemeConfig) -> np.ndarray:
    """Explicit monotone Godunov update for the (d_S theta - q)^2 term.

    coef = gamma*sigma^2*e^{r tau}; the effective slope gap is
    max(relu(q - D-), relu(D+ - q)), which realizes min over [D-,D+] of the
    concave Hamiltonian on increasing data and max over [D+,D-] otherwise.
    """
    done = 0.0
    n = 0
    while done < dt - 1e-13:
        dminus = np.empty_like(theta)
        dminus[:, 1:] = (theta[:, 1:] - theta[:, :-1]) / dS
        dminus[:, 0] = dminus[:, 1]
        dplus = np.empty_like(theta)
        dplus[:, :-1] = dminus[:, 1:]
        dplus[:, -1] = dminus[:, -1]
        gap = np.maximum(np.maximum(qcol - dminus, 0.0),
                         np.maximum(dplus - qcol, 0.0))
        gmax = float(gap.max())
        if coef * gmax <= 0.0:
            break
        sub = min(dt - done, scheme.cfl_safety * dS / (coef * gmax))
        theta = theta + (0.5 * coef * sub) * gap**2
        done += sub
        n += 1
        if n > _MAX_SUBSTEPS:
            raise FloatingPointError("CFL sub-stepping did not terminate")
    return theta


def _step_C(theta: np.ndarray, qgrid: np.ndarray, cost, rho_max: float,
            V: float, dt: float, scheme: SchemeConfig):
    """Semi-Lagrangian trading substep; returns (new theta, control v)."""
    nq = theta.shape[0]
    dq = qgrid[1] - qgrid[0] if nq > 1 else 0.0
    if rho_max <= 0 or V <= 0 or nq < 2:
        return theta.copy(), np.zeros_like(theta)

    # node-aligned candidates: every destination reachable within the
    # participation cap, exact (no interpolation); without these the min
    # cannot park inventory on the value kink at q = 0 from every node and
    # the surface loses discrete convexity in q
    m_cap = min(math.floor(rho_max * V * dt / dq + 1e-9), nq - 1)
    costs = [V * cost(w * dq / (V * dt)) * dt for w in range(1, m_cap + 1)]
    best, shift = shift_min(theta, costs)
    speeds = np.arange(-m_cap, m_cap + 1) * dq / (V * dt) * V
    vstar = speeds[shift + m_cap]

    grid_rhos = np.linspace(-rho_max, rho_max, scheme.n_controls)
    order = np.lexsort((grid_rhos > 0, np.abs(grid_rhos)))  # |rho| asc, neg first
    for rho in grid_rhos[order]:
        if rho == 0.0:
            continue
        run_cost = V * cost(rho) * dt
        s = rho * V * dt / dq
        w = math.floor(s)
        f = s - w
        if f < 1e-12 or 1.0 - f < 1e-12:
            continue                       # node-aligned, already covered
        lo = max(0, -w)                    # smallest valid source-node start
        hi = nq - max(0, w + 1)
        if hi <= lo:
            continue
        seg = np.s_[lo:hi]
        cand = run_cost + (1.0 - f) * theta[lo + w: hi + w] \
            + f * theta[lo + w + 1: hi + w + 1]
        cur = best[seg]
        mask = cand < cur
        if mask.any():
            cur[mask] = cand[mask]
            vs = vstar[seg]
            vs[mask] = rho * V

    # closed-form candidate from the local slope; when its displacement
    # overshoots the grid the destination is clamped to the edge node, which
    # is the exact constrained minimizer (cheaper rate, no extrapolation)
    p = np.empty_like(theta)
    p[1:-1] = (theta[2:] - theta[:-2]) / (2 * dq)
    p[0] = (theta[1] - theta[0]) / dq
    p[-1] = (theta[-1] - theta[-2]) / dq
    rho_cf = optimal_rate(cost, -p, rho_max)
    x = np.clip(np.arange(nq)[:, None] + rho_cf * V * dt / dq, 0, nq - 1)
    rho_used = (x - np.arange(nq)[:, None]) * dq / (V * dt)
    i0 = np.minimum(x.astype(int), nq - 2)
    fr = x - i0
    j = np.broadcast_to(np.arange(theta.shape[1]), theta.shape)
    cand = V * cost(rho_used) * dt + (1 - fr) * theta[i0, j] + fr * theta[i0 + 1, j]
    mask = cand < best
    best[mask] = cand[mask]
    vstar[mask] = (rho_used * V)[mask]
    return best, vstar


def solve_theta(payoff, grid: Optional[GridSpec] = None,
                scheme: SchemeConfig = SchemeConfig()) -> ThetaSurface:
    """Solve the splitting scheme backward from Pi; returns a ThetaSurface.

    With permanent impact k > 0 the S axis is the shifted price
    S_tilde = S - k*(q - q0), on which the problem is the k = 0 one with the
    impacted terminal. Aborts with node coordinates on any non-finite value.
    """
    c, m = payoff.contract, payoff.market
    if grid is None:
        grid = GridSpec.default(payoff)
    qgrid, Sgrid = grid.q, grid.S
    nq, nS = grid.n_q, grid.n_S
    dt = c.T / grid.n_t
    dS = (grid.S_max - grid.S_min) / (nS - 1)
    qcol = qgrid[:, None]

    values = np.empty((grid.n_t + 1, nq, nS))
    control = np.zeros((grid.n_t + 1, nq, nS))
    theta = np.asarray(payoff.terminal(qcol, Sgrid[None, :]), dtype=float)
    values[grid.n_t] = theta

    ab = _build_banded_A(grid, m, dt)
    # q-dependent source of the linear substep: -dt*(mu - r*S)*q
    if m.mu != 0.0 or m.r != 0.0:
        source = -dt * (m.mu - m.r * Sgrid[None, :]) * qcol
    else:
        source = None

    def check(tag, n, arr):
        if not np.all(np.isfinite(arr)):
            i, j = np.argwhere(~np.isfinite(arr))[0]
            raise FloatingPointError(
                f"non-finite theta after substep {tag} at level {n}, "
                f"q={qgrid[i]:.6g}, S={Sgrid[j]:.6g}"
            )

    for n in range(grid.n_t - 1, -1, -1):
        tau_new = c.T - n * dt
        coef = c.gamma * m.sigma**2 * math.exp(m.r * tau_new)
        V = float(m.volume.at(n * dt))  # [t_n, t_{n+1}) trades against V(t_n)

        theta = _step_A(theta, ab, source)
        check("A", n, theta)
        if scheme.order == "ABC":
            theta = _step_B(theta, qcol, dS, coef, dt, scheme)
            check("B", n, theta)
            theta, vstar = _step_C(theta, qgrid, payoff.cost, m.rho_max, V, dt, scheme)
            check("C", n, theta)
        else:
            theta, vstar = _step_C(theta, qgrid, payoff.cost, m.rho_max, V, dt, scheme)
            check("C", n, theta)
            theta = _step_B(theta, qcol, dS, coef, dt, scheme)
            check("B", n, theta)
        values[n] = theta
        control[n] = vstar

    return ThetaSurface(payoff, grid, scheme, values, control)


def export_surface_csv(surface: ThetaSurface, path, metadata: str = ""):
    """Portable dump: one row per (t, q, S) node plus a JSON sidecar with the
    grid; ends with a metadata comment line when provided."""
    g = surface.grid
    tg, qg, Sg = surface.t_grid, g.q, g.S
    with open(path, "w") as fh:
        fh.write("t,q,S,theta,v_star\n")
        for n, t in enumerate(tg):
            th = surface.values[n]
            v = surface.control[n]
            for i, qv in enumerate(qg):
                rows = np.column_stack([
                    np.full(g.n_S, t), np.full(g.n_S, qv), Sg, th[i], v[i],
                ])
                np.savetxt(fh, rows, delimiter=",", fmt="%.10g")
        if metadata:
            fh.write(f"# {metadata}\n")
    sidecar = {
        "grid": {
            "S_min": g.S_min, "S_max": g.S_max, "n_S": g.n_S,
            "q_min": g.q_min, "q_max": g.q_max, "n_q": g.n_q, "n_t": g.n_t,
        },
        "scheme": {"order": surface.scheme.order,
                   "n_controls": surface.scheme.n_controls},
        "contract": {
            "K": surface.payoff.contract.K, "T": surface.payoff.contract.T,
            "N": surface.payoff.contract.N, "gamma": surface.payoff.contract.gamma,
            "q0": surface.payoff.contract.q0,
            "settlement": surface.payoff.contract.settlement,
        },
    }
    with open(str(path) + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2)
