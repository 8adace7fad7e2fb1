"""Finite-difference engine tests: the engine's structure, checked in
every CI job.

With trading disabled and the terminal condition zeroed out the scheme has a
closed-form solution, exact in both time and space; that pins down the signs
and placement of every splitting substep. This file owns the PDE's
structural bounds: the closed form, convexity in q at every level, the
frictionless price floor, and the control set. The reference price is a
frozen regression value; the paper's numbers are in test_acceptance.py and
the point reads both engines share in test_impact.py.
"""

import math

import numpy as np
import pytest
from scipy.linalg import solve_banded

from liqhedge import pde
from liqhedge.minplus import shift_min, take_cheaper, trade_ladder
from liqhedge.model import VolumeCurve, bachelier_price, optimal_rate
from liqhedge.pde import (
    GridSpec,
    SchemeConfig,
    solve_theta,
)
from oracles import FROZEN, reference_payoff


def small_grid(pay, n_S=61, n_q=31, n_t=32):
    g = GridSpec.default(pay)
    return GridSpec(g.S_min, g.S_max, n_S, g.q_min, g.q_max, n_q, n_t)


# ---------------------------------------------------------------------------
# closed-form oracle: frozen inventory, zero payoff
# ---------------------------------------------------------------------------

def test_frozen_inventory_closed_form():
    # the scheme is exact here: theta(t, q, S) = gamma sigma^2 q^2 (T - t) / 2
    c, m = FROZEN.contract, FROZEN.market
    grid = GridSpec(40.0, 50.0, 11, -2e6, 2e6, 9, 16)
    surf = solve_theta(FROZEN, grid, keep_values=True)
    tt, qq = np.meshgrid(surf.t_grid, grid.q, indexing="ij")
    expect = 0.5 * c.gamma * m.sigma**2 * qq**2 * (c.T - tt)
    np.testing.assert_allclose(
        surf.values, np.broadcast_to(expect[:, :, None], surf.values.shape),
        rtol=1e-12, atol=1e-6)


# ---------------------------------------------------------------------------
# reference scenario
# ---------------------------------------------------------------------------

def test_reference_scenario_regression(reference_surface):
    p = reference_surface.price(0.0, 1e7, 45.0) / 2e7
    assert abs(p - 2.0824490034) < 1e-6


def test_price_above_frictionless_bound(reference_surface):
    # per-share value dominates the frictionless price up to the space
    # discretization error, uniformly on the grid
    surf = reference_surface
    g = surf.grid
    dS = (g.S_max - g.S_min) / (g.n_S - 1)
    frictionless = bachelier_price(g.S, 45.0, 0.6, 63.0)
    theta0 = surf.values[0] / 2e7
    assert (theta0 >= frictionless[None, :] - 2 * dS).all()


def test_value_convex_in_q(reference_surface):
    v = reference_surface.values
    d2 = v[:, 2:, :] - 2 * v[:, 1:-1, :] + v[:, :-2, :]
    assert d2[0].min() >= -1e-6 * np.abs(v[0]).max()
    assert d2.min() >= -1e-6 * np.abs(v).max()  # every level


def test_policy_units_and_sign(reference_surface):
    surf = reference_surface
    cap = 5.0 * 4e6
    v = surf.control[0]
    assert np.abs(v).max() <= cap + 1e-6
    # deep in the money with no stock held: the hedge buys
    assert surf.policy(0.0, 0.0, 48.0) > 0
    # deep out of the money holding the full nominal: the hedge sells
    assert surf.policy(0.0, 2e7, 42.0) < 0


def test_policy_matches_marginal_value(reference_surface):
    # at interior points the chosen speed maximizes p*rho - L(rho) for the
    # downwind marginal value p = -d(theta)/dq
    surf = reference_surface
    g = surf.grid
    cost = surf.payoff.cost
    dq = (g.q_max - g.q_min) / (g.n_q - 1)
    n = 8  # a mid-horizon level
    th = surf.values[n]
    ctl = surf.control[n]
    iq = g.n_q // 2
    for jS in (g.n_S // 3, g.n_S // 2, 2 * g.n_S // 3):
        p = -(th[iq + 1, jS] - th[iq - 1, jS]) / (2 * dq)
        rho_star = optimal_rate(cost, p, 5.0)
        got = ctl[iq, jS] / 4e6
        assert abs(got - rho_star) < 0.35  # control grid is coarse
        if abs(rho_star) > 0.2:
            assert math.copysign(1, got) == math.copysign(1, rho_star)


# ---------------------------------------------------------------------------
# splitting structure
# ---------------------------------------------------------------------------

def test_more_controls_never_raise_value():
    # a finer control set can only improve the minimization
    pay = reference_payoff(T=16.0)
    g = small_grid(pay)
    lo = solve_theta(pay, g, SchemeConfig(n_controls=5))
    hi = solve_theta(pay, g, SchemeConfig(n_controls=81))
    assert hi.price(0.0, 1e7, 45.0) <= lo.price(0.0, 1e7, 45.0) + 1e-6


def step_C_per_rate(theta, qgrid, cost, rho_max, V, dt, rates, guess, code):
    """The trading substep with a fresh (1-f)*theta and f*theta slice per
    off-node rate and take_cheaper's own mask: the reference that
    pde._step_C's per-weight products must match bit for bit."""
    nq = theta.shape[0]
    dq = qgrid[1] - qgrid[0]
    if rho_max <= 0 or V <= 0:
        code.fill(0)
        return theta.copy(), np.zeros(1), None

    ladder = trade_ladder(cost, rho_max, V, dt, dq, nq)
    m_cap = len(ladder)
    best, shift = shift_min(theta, [V * rate * dt for rate in ladder], guess)
    code[...] = shift
    code += m_cap
    table = [np.arange(-m_cap, m_cap + 1) * dq / (V * dt) * V, rates * V]

    for r, rho in enumerate(rates, 2 * m_cap + 1):
        run_cost = V * cost(rho) * dt
        s = rho * V * dt / dq
        w = math.floor(s)
        f = s - w
        if f < 1e-12 or 1.0 - f < 1e-12:
            continue
        lo = max(0, -w)
        hi = nq - max(0, w + 1)
        if hi <= lo:
            continue
        cand = run_cost + (1.0 - f) * theta[lo + w: hi + w] \
            + f * theta[lo + w + 1: hi + w + 1]
        take_cheaper(cand, best[lo:hi], code[lo:hi], r)

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
    won = cand < best
    np.minimum(cand, best, out=best)
    first = 2 * m_cap + 1 + rates.size
    code[won] = np.arange(first, first + np.count_nonzero(won))
    table.append(rho_used[won] * V)
    return best, np.concatenate(table), shift


# 241 x 121 at 4 steps a day reads the weights 0.25, 0.5 and 0.75 only; on
# 97 x 37, dq = 2.3e7/36 gives each |rho| a pair of weights no other reads
STEP_C_CASES = {
    "241x121": ({}, {}),
    "121x61-2-a-day": ({}, dict(n_S=121, n_q=61, steps_per_day=2.0)),
    "97x37": ({}, dict(n_S=97, n_q=37, q_min=-1.3e6, q_max=2.17e7)),
    "two-volumes": (dict(volume=VolumeCurve([0.0, 1.0], [4e6, 1.5e6])),
                    dict(n_S=121, n_q=61)),
    # no volume on the first day, so step C's V = 0 branch is compared too
    "dead-volume": (dict(volume=VolumeCurve([0.0, 1.0], [0.0, 4e6])),
                    dict(n_S=121, n_q=61)),
}


@pytest.mark.parametrize("name", list(STEP_C_CASES))
def test_step_C_matches_a_product_per_rate_bit_for_bit(name):
    changes, grid_args = STEP_C_CASES[name]
    pay = reference_payoff(T=2.0, **changes)
    m, grid = pay.market, GridSpec.default(pay, **grid_args)
    dt = pay.contract.T / grid.n_t
    qgrid = grid.q
    rates = np.linspace(-m.rho_max, m.rho_max, 41)
    rates = rates[np.lexsort((rates > 0, np.abs(rates)))]
    rates = rates[rates != 0.0]
    values = solve_theta(pay, grid, keep_values=True).values
    shift = None
    for n in range(grid.n_t - 1, -1, -1):
        V = float(m.volume.at(n * dt))
        plan = pde._trade_plan(pay.cost, m.rho_max, V, dt, qgrid, rates)
        for guess in (None, shift):
            want_code = np.empty(values[n].shape, dtype=np.int16)
            got_code = np.empty_like(want_code)
            want = step_C_per_rate(values[n + 1], qgrid, pay.cost, m.rho_max, V, dt,
                                   rates, guess, want_code)
            got = pde._step_C(values[n + 1], plan, guess, got_code)
            assert got_code.tobytes() == want_code.tobytes()
            assert (got[2] is None) == (want[2] is None)  # no shifts where V = 0
            for a, b in zip(got, want):
                if b is None:
                    continue
                assert a.dtype == b.dtype and a.shape == b.shape
                assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
        shift = got[2]


def test_a_solve_builds_each_volume_plan_once(monkeypatch):
    # 4e6 comes back after 2e6 and after a segment that cannot trade; a
    # second solve builds its own plans, so no cache outlives a solve
    pay = reference_payoff(T=8.0, volume=VolumeCurve([0, 2, 4, 6], [4e6, 2e6, 0, 4e6]))
    built = []
    plan = pde._trade_plan

    def spy(cost, rho_max, V, *args):
        built.append(V)
        return plan(cost, rho_max, V, *args)

    monkeypatch.setattr(pde, "_trade_plan", spy)
    for _ in range(2):
        solve_theta(pay, GridSpec.default(pay, n_S=61, n_q=31, steps_per_day=2))
    assert sorted(built) == [0.0, 0.0, 2e6, 2e6, 4e6, 4e6]


@pytest.mark.parametrize("drift", [{}, dict(mu=0.05 / 252, r=0.02 / 252)],
                         ids=["mu-r-0", "drift"])
def test_step_A_matches_solve_banded_bit_for_bit(drift):
    pay = reference_payoff(**drift)
    m, grid = pay.market, GridSpec.default(pay)
    dt = pay.contract.T / grid.n_t
    dS = (grid.S_max - grid.S_min) / (grid.n_S - 1)
    qcol, S = grid.q[:, None], grid.S[None, :]
    theta = np.asarray(pay.terminal(qcol, S), dtype=float)
    source = -dt * (m.mu - m.r * S) * qcol if drift else None
    dl, d, du = diagonals = pde._build_banded_A(grid.n_S, dS, m, dt)
    ab = np.zeros((3, grid.n_S))
    ab[0, 1:], ab[1], ab[2, :-1] = du, d, dl
    rhs = theta if source is None else theta + source
    want = solve_banded((1, 1), ab, rhs.T).T
    before = theta.copy()
    got = pde._step_A(theta, diagonals, source)
    assert theta.tobytes() == before.tobytes()
    assert got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def test_singular_step_A_raises():
    zero = (np.zeros(2), np.zeros(3), np.zeros(2))
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        pde._step_A(np.ones((2, 3)), zero, None)


def test_step_B_returns_theta_when_no_slope_gap():
    theta = np.ones((1, 5))
    assert pde._step_B(theta, np.zeros((1, 1)), 1.0, 1.0, 0.25) is theta


def test_cfl_substeps_past_the_cap_raise(monkeypatch):
    monkeypatch.setattr(pde, "_MAX_SUBSTEPS", 0)
    pay = reference_payoff(T=4.0)
    with pytest.raises(FloatingPointError, match="CFL sub-stepping did not terminate"):
        solve_theta(pay, small_grid(pay, n_S=21, n_q=11, n_t=4))


# ---------------------------------------------------------------------------
# interpolation and export
# ---------------------------------------------------------------------------

def test_surface_queries(reference_surface):
    surf = reference_surface
    v = surf.price(0.0, 1e7, 45.0)
    assert surf.price(0.0, np.array([1e7]), np.array([45.0]))[0] == pytest.approx(v)


def test_surface_point_reads_reject_nan(reference_surface):
    # the scalar reads are checked on both engines in test_impact.py; an
    # array holding a non-finite price is checked only here
    q = np.array([1e7, 1e7])
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="hull"):
            reference_surface.policy(0.0, q, np.array([45.0, bad]))


def test_terminal_level_matches_payoff(reference_surface):
    surf = reference_surface
    g = surf.grid
    expect = surf.payoff.terminal(g.q[:, None], g.S[None, :])
    np.testing.assert_allclose(surf.values[-1], expect, rtol=1e-12)
    assert np.all(surf.control[-1] == 0.0)


@pytest.fixture(scope="module")
def lean_and_full_surface():
    pay = reference_payoff(T=4.0)
    grid = small_grid(pay, n_S=21, n_q=11, n_t=4)
    return solve_theta(pay, grid), solve_theta(pay, grid, keep_values=True)


def test_lean_solve_matches_full_solve_bit_for_bit(lean_and_full_surface):
    # the default solve keeps theta at t = 0 and the control at every level
    lean, full = lean_and_full_surface
    g = lean.grid
    assert lean.values.shape == (1, g.n_q, g.n_S)
    assert full.values.shape == (g.n_t + 1, g.n_q, g.n_S)
    assert lean.values[0].tobytes() == full.values[0].tobytes()
    assert lean.control.codes.tobytes() == full.control.codes.tobytes()
    assert len(lean.control.tables) == len(full.control.tables) == g.n_t + 1
    for a, b in zip(lean.control.tables, full.control.tables):
        assert a.tobytes() == b.tobytes()
    assert lean.price(0.0, 1e7, 45.0) == full.price(0.0, 1e7, 45.0)


def test_lean_surface_refuses_later_levels(lean_and_full_surface):
    # values[-1] of a lean surface is level 0, so reads past it must raise
    lean, full = lean_and_full_surface
    t1 = lean.t_grid[1]
    with pytest.raises(ValueError, match="keep_values=True"):
        lean.price(t1, 1e7, 45.0)
    assert lean.policy(t1, 1e7, 45.0) == full.policy(t1, 1e7, 45.0)


# ---------------------------------------------------------------------------
# the stored policy: integer codes into a speed table per level
# ---------------------------------------------------------------------------

def test_policy_codes_store_at_most_30_percent_of_float64(reference_surface):
    g = reference_surface.grid
    control = reference_surface.control
    assert control.codes.dtype == np.int16
    assert control.nbytes <= 0.3 * 8 * (g.n_t + 1) * g.n_q * g.n_S


def test_policy_codes_decode_by_level_and_by_node(lean_and_full_surface):
    control = lean_and_full_surface[0].control
    rng = np.random.default_rng(0)
    for n in range(len(control.tables)):
        level = control.tables[n][control.codes[n]]
        assert level.tobytes() == control[n].tobytes()
        idx = rng.integers(0, level.size, size=(4, 50))
        assert control.take(n, idx).tobytes() == control[n].ravel()[idx].tobytes()
    assert control[-1].tobytes() == control[len(control.tables) - 1].tobytes()
    with pytest.raises(ValueError, match="read-only"):
        control.codes[0, 0, 0] = 0
    with pytest.raises(ValueError, match="read-only"):
        control.tables[0][0] = 1.0


def test_codes_widen_past_the_int16_worst_case():
    # a level's table holds at most 2*(n_q-1)+1 shift speeds, the 40 nonzero
    # rates' speeds and one closed-form speed per node: 32,764 codes on
    # 11 x 2973 nodes, 32,775 on 11 x 2974, one more than int16 holds
    pay = reference_payoff(T=1.0)
    assert solve_theta(pay, small_grid(pay, n_S=2973, n_q=11, n_t=1)
                       ).control.codes.dtype == np.int16
    surf = solve_theta(pay, small_grid(pay, n_S=2974, n_q=11, n_t=1))
    assert surf.control.codes.dtype == np.int32
    g = surf.grid
    q = np.linspace(g.q_min, g.q_max, 41)
    S = np.linspace(g.S_min, g.S_max, 41)[::-1]
    alive = np.ones(q.size, dtype=bool)
    speeds = surf.policy_speeds(0, q, S, alive)
    assert alive.all() and np.any(speeds != 0.0)
    assert speeds.tobytes() == surf.policy(0.0, q, S).tobytes()
    idx = np.arange(0, g.n_q * g.n_S, 97)
    assert surf.control.take(0, idx).tobytes() == surf.control[0].ravel()[idx].tobytes()


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ValueError, match="need S_max > S_min"):
        GridSpec(50.0, 40.0, 11, 0.0, 1.0, 5, 4)
    with pytest.raises(ValueError, match="grid too small"):
        GridSpec(40.0, 50.0, 2, 0.0, 1.0, 5, 4)
    with pytest.raises(ValueError, match="need q_max > q_min"):
        GridSpec(40.0, 50.0, 11, 0.0, 0.0, 5, 4)
    for bad in (float("-inf"), float("inf")):
        for field in ("S_min", "S_max", "q_min", "q_max"):
            bounds = {"S_min": 40.0, "S_max": 50.0, "q_min": 0.0, "q_max": 1.0,
                      field: bad}
            with pytest.raises(ValueError, match=field):
                GridSpec(n_S=11, n_q=5, n_t=4, **bounds)
    with pytest.raises(ValueError, match="n_controls must be odd"):
        SchemeConfig(n_controls=40)
    with pytest.raises(ValueError, match="default grid needs N > 0"):
        GridSpec.default(reference_payoff(N=0.0, q0=0.0))


def test_non_finite_terminal_value_raises():
    # checked before the first substep, so the report names the terminal
    # condition, not the substep the inf first passed through
    pay = reference_payoff(T=4.0, penalty=lambda q: np.where(q > 1.5e7, np.inf, 0.0))
    with pytest.raises(FloatingPointError, match="non-finite terminal value at q="):
        solve_theta(pay, small_grid(pay, n_S=21, n_q=11, n_t=4))


def test_default_grid_takes_each_given_bound_and_any_positive_step_rate():
    pay = reference_payoff(T=4.0)
    base = GridSpec.default(pay, n_S=21, n_q=11)
    g = GridSpec.default(pay, n_S=21, n_q=11, S_min=40.0, q_max=3e7)
    assert (g.S_min, g.S_max, g.q_min, g.q_max) == (40.0, base.S_max, base.q_min, 3e7)
    assert GridSpec.default(pay, steps_per_day=2.5).n_t == 10
    assert GridSpec.default(pay, steps_per_day=0.01).n_t == 1
    for bad in (0.0, -3.0, float("nan")):
        with pytest.raises(ValueError, match="steps_per_day must be > 0"):
            GridSpec.default(pay, steps_per_day=bad)
    # with N = 0 only the q bounds need to be given
    flat = reference_payoff(T=4.0, N=0.0, q0=0.0)
    assert GridSpec.default(flat, q_min=-1e6, q_max=1e6).q_max == 1e6


def test_solves_permanent_impact_pinned():
    # k > 0 runs on the shifted price axis; frozen regression value
    pay = reference_payoff(T=8.0, k=3e-7)
    price = solve_theta(pay, small_grid(pay, n_t=16)).price(0.0, 1e7, 45.0)
    assert price == pytest.approx(28371457.97815135, rel=1e-12)
