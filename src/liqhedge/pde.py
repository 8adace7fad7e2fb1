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
    the kernel the tree uses too, each node searched from its shift one
    step later. The minimizer's speed v = rho*V is stored as the policy,
    one integer code per node into a float64 speed table per level.

Every step runs (A), (B), (C) in that order; (A) first smooths the payoff
discontinuity before the nonlinear substeps see it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np
from scipy.linalg import solve_banded

from .minplus import ladder_by_volume, shift_min, take_cheaper
from .model import (_level_of, _overflow_of, _require_finite, _require_finite_values,
                    optimal_rate)

__all__ = ["GridSpec", "SchemeConfig", "ThetaSurface", "solve_theta"]

_MAX_SUBSTEPS = 100_000  # CFL substeps per time step before giving up
_CFL_SAFETY = 0.9  # fraction of the CFL-bound step each Godunov substep takes


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
        _require_finite(self, "S_min", "S_max", "q_min", "q_max")
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
    """Control-set size of the semi-Lagrangian trading substep: n_controls
    participation rates, evenly spaced over [-rho_max, rho_max]."""

    n_controls: int = 41

    def __post_init__(self):
        if self.n_controls < 3 or self.n_controls % 2 == 0:
            raise ValueError("n_controls must be odd and >= 3 (0 must be a candidate)")


class PolicyCodes:
    """The policy v*(t_n, q_i, S_j) in shares/day, stored as integer codes
    shaped (n_t+1, n_q, n_S) and one float64 speed table per level, the
    speed of a node being tables[n][codes[n, i, j]]. Each level's table
    holds the whole-node shift speeds (2*m_cap+1 of them, most negative
    first), the grid rates' speeds rho*V, then the closed-form speed of each
    node the closed-form candidate won, so decoding is exact.

    control[n] decodes level n to a float64 (n_q, n_S) array;
    control.take(n, index) decodes level n at flat node indices.
    """

    def __init__(self, codes: np.ndarray, tables):
        self.codes = codes
        self.tables = tuple(tables)
        for a in (codes, *self.tables):
            a.flags.writeable = False

    @property
    def nbytes(self) -> int:
        return self.codes.nbytes + sum(t.nbytes for t in self.tables)

    def __getitem__(self, n) -> np.ndarray:
        return self.tables[n].take(self.codes[n])

    def take(self, n, index) -> np.ndarray:
        """Level n's speeds at the flat node indices `index`."""
        return self.tables[n].take(self.codes[n].ravel().take(index))


class ThetaSurface:
    """Solved value/control surfaces on the (t, q, S) grid.

    values[n, i, j] = theta(t_n, q_i, S_j) for the levels the solve kept:
    level 0 only by default (values shaped (1, n_q, n_S)), every level
    0..n_t with keep_values=True. control[n][i, j] = v*(t_n, q_i, S_j) in
    shares/day at every level (zero at the terminal level, where no
    decision remains), a PolicyCodes: integer codes into a speed table
    per level, 29 % of the float64 array's size on the default grid.
    """

    def __init__(self, payoff, grid: GridSpec, values: np.ndarray,
                 control: PolicyCodes):
        self.payoff = payoff
        self.grid = grid
        self.values = values
        self.control = control
        self.t_grid = np.linspace(0.0, payoff.contract.T, grid.n_t + 1)
        self._dq = (grid.q_max - grid.q_min) / (grid.n_q - 1)
        self._dS = (grid.S_max - grid.S_min) / (grid.n_S - 1)
        # flat offsets of a cell's four corners, in the order _interp sums them
        self._corners = np.array([0, grid.n_S, 1, grid.n_S + 1])

    def _bilinear(self, read, q, S):
        """Point read: raises unless every (q, S) is in the grid hull."""
        g = self.grid
        q = np.asarray(q, dtype=float)
        S = np.asarray(S, dtype=float)
        tol = 1e-9  # NaN fails both comparisons, so it fails the check
        if not (np.all((q >= g.q_min - tol) & (q <= g.q_max + tol))
                and np.all((S >= g.S_min - tol) & (S <= g.S_max + tol))):
            raise ValueError("query outside the grid hull")
        out = self._interp(read, q, S)
        return float(out) if out.ndim == 0 else out

    def _interp(self, read, q, S) -> np.ndarray:
        """Bilinear interpolation at (q, S) in the hull of the (n_q, n_S)
        level whose values at flat node indices `read` returns."""
        g = self.grid
        x = ((q - g.q_min) / self._dq).clip(0, g.n_q - 1)
        y = ((S - g.S_min) / self._dS).clip(0, g.n_S - 1)
        # fmin sends a NaN to the last cell (its read is NaN), so no NaN is cast
        i = np.fmin(x, g.n_q - 2).astype(int)
        j = np.fmin(y, g.n_S - 2).astype(int)
        fx, fy = x - i, y - j
        gx, gy = 1 - fx, 1 - fy
        v = read(np.add.outer(self._corners, i * g.n_S + j))  # the four corners
        return gx * gy * v[0] + fx * gy * v[1] + gx * fy * v[2] + fx * fy * v[3]

    def price(self, t: float, q, S):
        """Bilinear interpolation of theta at (t, q, S); t must be a level
        the solve kept (t = 0 only, unless solved with keep_values=True)."""
        n = _level_of(self.t_grid, t, len(self.values))
        # ravel() is a view of a level of the C-ordered surface
        return self._bilinear(self.values[n].ravel().take, q, S)

    def policy(self, t: float, q, S):
        """Interpolated optimal trading speed (shares/day) at (t, q, S)."""
        n = _level_of(self.t_grid, t)
        return self._bilinear(partial(self.control.take, n), q, S)

    def policy_speeds(self, level: int, q, S, alive):
        """Speeds (shares/day) at each path's (q, S), clipped to the grid, on
        time level `level`; clears `alive` where (q, S) is off the grid or NaN."""
        g = self.grid
        q_in, S_in = q.clip(g.q_min, g.q_max), S.clip(g.S_min, g.S_max)
        alive &= (q_in == q) & (S_in == S)  # NaN != NaN, so a NaN is outside
        return self._interp(partial(self.control.take, level), q_in, S_in)


def _build_banded_A(n_S: int, dS: float, market, dt: float) -> np.ndarray:
    """Banded matrix of the implicit linear substep along S, in the layout
    solve_banded((1, 1), ab, ...) reads: ab[0, j] = A[j-1, j] (upper
    diagonal), ab[1, j] = A[j, j] (main), ab[2, j] = A[j+1, j] (lower);
    ab[0, 0] and ab[2, -1] stay zero."""
    mu, r = market.mu, market.r
    with _overflow_of("sigma"):
        sig2 = market.sigma**2
    with _overflow_of("S0, K or the S step (S_max - S_min)/(n_S - 1)"):
        diff = 0.5 * sig2 / dS**2
    adv = mu / (2.0 * dS)
    ab = np.zeros((3, n_S))
    ab[0, 2:] = -dt * (diff + adv)
    ab[1, 1:-1] = 1.0 + r * dt + 2.0 * dt * diff
    ab[2, :-2] = -dt * (diff - adv)
    # boundary rows: d_SS theta = 0, one-sided first derivative
    ab[1, 0] = 1.0 + r * dt + dt * mu / dS
    ab[0, 1] = -dt * mu / dS
    ab[1, -1] = 1.0 + r * dt - dt * mu / dS
    ab[2, -2] = dt * mu / dS
    return ab


def _step_A(theta: np.ndarray, ab: np.ndarray, source: Optional[np.ndarray]) -> np.ndarray:
    """Implicit linear substep; theta shaped (n_q, n_S)."""
    rhs = theta if source is None else theta + source
    return solve_banded((1, 1), ab, rhs.T, overwrite_ab=False, check_finite=False).T


def _step_B(theta: np.ndarray, qcol: np.ndarray, dS: float, coef: float,
            dt: float) -> np.ndarray:
    """Explicit monotone Godunov update for the (d_S theta - q)^2 term.

    coef = gamma*sigma^2*e^{r tau}; the effective slope gap is
    max(relu(q - D-), relu(D+ - q)), which realizes min over [D-,D+] of the
    concave Hamiltonian on increasing data and max over [D+,D-] otherwise.
    """
    done = 0.0
    n = 0
    while done < dt - 1e-13:
        d = (theta[:, 1:] - theta[:, :-1]) / dS
        dminus = np.concatenate((d[:, :1], d), axis=1)  # D- at the first node is D+
        dplus = np.concatenate((d, d[:, -1:]), axis=1)  # D+ at the last node is D-
        gap = np.maximum(np.maximum(qcol - dminus, 0.0),
                         np.maximum(dplus - qcol, 0.0))
        gmax = float(gap.max())
        if coef * gmax <= 0.0:
            break
        sub = min(dt - done, _CFL_SAFETY * dS / (coef * gmax))
        theta = theta + (0.5 * coef * sub) * gap**2
        done += sub
        n += 1
        if n > _MAX_SUBSTEPS:
            raise FloatingPointError("CFL sub-stepping did not terminate")
    return theta


def _take_interpolated(theta, best, code, rates, first, cost, V, dt, dq):
    """take_cheaper of every off-node rate, rates[r] writing code first + r.

    A rate reads theta(q + rho*V*dt) as (1-f)*theta[i+w] + f*theta[i+w+1].
    Each distinct weight c in {f, 1-f} multiplies the whole level once and
    is dropped after the last rate that reads it; a rate adds its cost and
    two slices of those products into one reused buffer. Products are
    elementwise and run_cost + x == x + run_cost, so every bit is that of
    run_cost + (1-f)*theta[slice] + f*theta[slice] built per rate."""
    nq = theta.shape[0]
    reads = []  # (code, rho, w, f, lo, hi) of each off-node rate with a source node
    for r, rho in enumerate(rates, first):
        s = rho * V * dt / dq
        w = math.floor(s)
        f = s - w
        if f < 1e-12 or 1.0 - f < 1e-12:
            continue                       # node-aligned, already covered
        lo = max(0, -w)                    # smallest valid source-node start
        hi = nq - max(0, w + 1)
        if hi > lo:
            reads.append((r, rho, w, f, lo, hi))
    last = {}  # weight c -> index of the last read that multiplies by c
    for k, (_, _, _, f, _, _) in enumerate(reads):
        last[1.0 - f] = last[f] = k
    scaled = {}  # weight c -> c*theta, while a later read still needs it
    cand = np.empty_like(theta[1:])
    mask = np.empty(cand.shape, dtype=bool)
    for k, (r, rho, w, f, lo, hi) in enumerate(reads):
        weights = {1.0 - f, f}
        for c in weights:
            if c not in scaled:
                scaled[c] = c * theta
        buf = cand[:hi - lo]
        np.add(scaled[1.0 - f][lo + w: hi + w], V * cost(rho) * dt, out=buf)
        buf += scaled[f][lo + w + 1: hi + w + 1]
        take_cheaper(buf, best[lo:hi], code[lo:hi], r, mask[:hi - lo])
        for c in weights:
            if last[c] == k:
                del scaled[c]


def _step_C(theta: np.ndarray, qgrid: np.ndarray, cost, rho_max: float,
            V: float, dt: float, rates: np.ndarray, ladder, guess, code: np.ndarray):
    """Semi-Lagrangian trading substep over the nonzero control `rates`
    (|rho| ascending, negative first) and the whole-step trade `ladder` at
    this V; returns (new theta, the level's speed table, the node-aligned
    shifts or None) and writes each node's index into that table to `code`.
    `guess`, the node-aligned shifts of the step after (or None), starts
    `shift_min`'s search. The off-node rates interpolate theta from one
    product c*theta per distinct weight c (`_take_interpolated`)."""
    nq = theta.shape[0]
    dq = qgrid[1] - qgrid[0]
    if rho_max <= 0 or V <= 0:
        code.fill(0)
        return theta.copy(), np.zeros(1), None

    # node-aligned candidates: every destination reachable within the
    # participation cap, exact (no interpolation); without these the min
    # cannot park inventory on the value kink at q = 0 from every node and
    # the surface loses discrete convexity in q
    m_cap = len(ladder)
    best, shift = shift_min(theta, [V * rate * dt for rate in ladder], guess)
    code[...] = shift
    code += m_cap  # shift w is code w + m_cap, rate r code 2*m_cap + 1 + r
    table = [np.arange(-m_cap, m_cap + 1) * dq / (V * dt) * V, rates * V]
    _take_interpolated(theta, best, code, rates, 2 * m_cap + 1, cost, V, dt, dq)

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
    cand = V * cost(rho_used) * dt + (1 - fr) * np.take_along_axis(theta, i0, 0) \
        + fr * np.take_along_axis(theta, i0 + 1, 0)
    # take_cheaper with one new code per winning node, its speed appended
    won = cand < best
    np.minimum(cand, best, out=best)
    first = 2 * m_cap + 1 + rates.size
    code[won] = np.arange(first, first + np.count_nonzero(won))
    table.append(rho_used[won] * V)
    return best, np.concatenate(table), shift


def solve_theta(payoff, grid: Optional[GridSpec] = None,
                scheme: Optional[SchemeConfig] = None,
                keep_values: bool = False) -> ThetaSurface:
    """Solve the splitting scheme backward from Pi; returns a ThetaSurface.

    The surface holds the control at every level and theta at level 0 only;
    keep_values=True keeps theta at every level too.

    With permanent impact k > 0 the S axis is the shifted price
    S_tilde = S - k*(q - q0), on which the problem is the k = 0 one with the
    impacted terminal. Aborts with node coordinates on any non-finite value.
    """
    c, m = payoff.contract, payoff.market
    if grid is None:
        grid = GridSpec.default(payoff)
    scheme = SchemeConfig() if scheme is None else scheme
    qgrid, Sgrid = grid.q, grid.S
    nq, nS = grid.n_q, grid.n_S
    dt = c.T / grid.n_t
    dS = (grid.S_max - grid.S_min) / (nS - 1)
    qcol = qgrid[:, None]

    values = np.empty((grid.n_t + 1 if keep_values else 1, nq, nS))
    rates = np.linspace(-m.rho_max, m.rho_max, scheme.n_controls)
    rates = rates[np.lexsort((rates > 0, np.abs(rates)))]  # |rho| asc, neg first
    rates = rates[rates != 0.0]
    # a level's table has at most 2*(n_q-1)+1 shift speeds (m_cap <= n_q-1),
    # the rates' speeds and one closed-form speed per node
    n_codes = 2 * (nq - 1) + 1 + rates.size + nq * nS
    codes = np.zeros((grid.n_t + 1, nq, nS),
                     dtype=np.int16 if n_codes <= 1 << 15 else np.int32)
    tables = [None] * grid.n_t + [np.zeros(1)]  # no trade at the terminal level
    theta = np.asarray(payoff.terminal(qcol, Sgrid[None, :]), dtype=float)
    _require_finite_values(theta, lambda ij: "terminal value at "
                           f"q={qgrid[ij[0]]:.6g}, S={Sgrid[ij[1]]:.6g}")
    if keep_values:
        values[grid.n_t] = theta

    ab = _build_banded_A(nS, dS, m, dt)
    # q-dependent source of the linear substep: -dt*(mu - r*S)*q
    if m.mu != 0.0 or m.r != 0.0:
        source = -dt * (m.mu - m.r * Sgrid[None, :]) * qcol
    else:
        source = None

    def finite(theta, step, n):
        _require_finite_values(theta, lambda ij: f"theta after substep {step} "
                               f"at level {n}, q={qgrid[ij[0]]:.6g}, S={Sgrid[ij[1]]:.6g}")
        return theta

    ladder = ladder_by_volume(payoff.cost, m.rho_max, dt, qgrid[1] - qgrid[0], nq)
    shift = None
    for n in range(grid.n_t - 1, -1, -1):
        tau_new = c.T - n * dt
        with _overflow_of("r"):  # sigma**2 passed _build_banded_A
            coef = c.gamma * m.sigma**2 * math.exp(m.r * tau_new)
        V = float(m.volume.at(n * dt))  # [t_n, t_{n+1}) trades against V(t_n)

        theta = finite(_step_A(theta, ab, source), "A", n)
        theta = finite(_step_B(theta, qcol, dS, coef, dt), "B", n)
        theta, tables[n], shift = _step_C(theta, qgrid, payoff.cost, m.rho_max, V, dt,
                                          rates, ladder(V), shift, codes[n])
        finite(theta, "C", n)
        if keep_values or n == 0:
            values[n] = theta

    return ThetaSurface(payoff, grid, values, PolicyCodes(codes, tables))

