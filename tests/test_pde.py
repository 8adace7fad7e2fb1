"""Finite-difference engine tests.

With trading disabled and the terminal condition zeroed out the scheme has a
closed-form solution, exact in both time and space; that pins down the signs
and placement of every splitting substep. The reference scenario is a frozen
regression value. Structural checks cover convexity, the price lower bound,
splitting-order convergence, and grid validation.
"""

import json
import math

import numpy as np
import pytest

from liqhedge.model import (
    ExecutionCost,
    MarketParams,
    OptionContract,
    PayoffSpec,
    VolumeCurve,
    bachelier_price,
    hamiltonian,
)
from liqhedge.pde import (
    GridSpec,
    SchemeConfig,
    export_surface_csv,
    solve_theta,
)


def reference_payoff(**over):
    kw = dict(K=45.0, T=63.0, N=2e7, gamma=2e-7, q0=1e7, settlement="physical")
    kw.update({k: over.pop(k) for k in list(over) if k in kw})
    contract = OptionContract(**kw)
    mkw = dict(S0=45.0, sigma=0.6, volume=4e6, rho_max=5.0, mu=0.0, r=0.0, k=0.0)
    mkw.update({k: over.pop(k) for k in list(over) if k in mkw})
    mkw["volume"] = VolumeCurve.constant(mkw["volume"])
    market = MarketParams(**mkw)
    cost = over.pop("cost", ExecutionCost(0.1, 0.75, 0.0))
    assert not over, f"unused overrides: {over}"
    return PayoffSpec(contract, market, cost)


def small_grid(pay, n_S=61, n_q=31, n_t=32):
    g = GridSpec.default(pay)
    return GridSpec(g.S_min, g.S_max, n_S, g.q_min, g.q_max, n_q, n_t)


@pytest.fixture(scope="module")
def reference_surface():
    return solve_theta(reference_payoff())


# ---------------------------------------------------------------------------
# closed-form oracle: frozen inventory, zero payoff
# ---------------------------------------------------------------------------

def test_frozen_inventory_closed_form():
    # rho_max = 0 and zero terminal data leave only the variance charge of
    # the held inventory: theta(t, q, S) = gamma sigma^2 q^2 (T - t) / 2
    gamma, sigma, T = 3e-7, 0.6, 4.0
    contract = OptionContract(K=45.0, T=T, N=0.0, gamma=gamma, q0=0.0,
                              settlement="cash")
    market = MarketParams(S0=45.0, sigma=sigma,
                          volume=VolumeCurve.constant(4e6), rho_max=0.0)
    pay = PayoffSpec(contract, market, ExecutionCost(0.1, 0.75),
                     penalty_rate=1.0, penalty=lambda q: np.zeros_like(q))
    grid = GridSpec(40.0, 50.0, 11, -2e6, 2e6, 9, 16)
    surf = solve_theta(pay, grid)
    tt, qq = np.meshgrid(surf.t_grid, grid.q, indexing="ij")
    expect = 0.5 * gamma * sigma**2 * qq**2 * (T - tt)
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
    v = reference_surface.values[0]
    d2 = v[2:, :] - 2 * v[1:-1, :] + v[:-2, :]
    assert d2.min() >= -1e-6 * np.abs(v).max()


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
        _, rho_star = hamiltonian(cost, p, 5.0)
        got = ctl[iq, jS] / 4e6
        assert abs(got - rho_star) < 0.35  # control grid is coarse
        if abs(rho_star) > 0.2:
            assert math.copysign(1, got) == math.copysign(1, rho_star)


# ---------------------------------------------------------------------------
# splitting structure
# ---------------------------------------------------------------------------

def test_splitting_orders_converge():
    pay = reference_payoff(T=16.0)
    gaps = []
    for n_t in (16, 32):
        a = solve_theta(pay, small_grid(pay, n_t=n_t), SchemeConfig(order="ABC"))
        b = solve_theta(pay, small_grid(pay, n_t=n_t), SchemeConfig(order="ACB"))
        gaps.append(abs(a.price(0.0, 1e7, 45.0) - b.price(0.0, 1e7, 45.0)))
    assert gaps[1] < 0.8 * gaps[0]


def test_more_controls_never_raise_value():
    # a finer control set can only improve the minimization
    pay = reference_payoff(T=16.0)
    g = small_grid(pay)
    lo = solve_theta(pay, g, SchemeConfig(n_controls=5))
    hi = solve_theta(pay, g, SchemeConfig(n_controls=81))
    assert hi.price(0.0, 1e7, 45.0) <= lo.price(0.0, 1e7, 45.0) + 1e-6


# ---------------------------------------------------------------------------
# interpolation and export
# ---------------------------------------------------------------------------

def test_surface_queries(reference_surface):
    surf = reference_surface
    v = surf.price(0.0, 1e7, 45.0)
    assert surf.price(0.0, np.array([1e7]), np.array([45.0]))[0] == pytest.approx(v)
    with pytest.raises(ValueError):
        surf.price(0.13, 1e7, 45.0)  # off the time grid
    with pytest.raises(ValueError):
        surf.price(0.0, 1e7, surf.grid.S_max + 1.0)
    assert surf.price(0.0, 1e7, 45.0) == v


def test_terminal_level_matches_payoff(reference_surface):
    surf = reference_surface
    g = surf.grid
    expect = surf.payoff.terminal(g.q[:, None], g.S[None, :])
    np.testing.assert_allclose(surf.values[-1], expect, rtol=1e-12)
    assert np.all(surf.control[-1] == 0.0)


def test_export_csv(tmp_path):
    pay = reference_payoff(T=4.0)
    surf = solve_theta(pay, small_grid(pay, n_S=21, n_q=11, n_t=4))
    out = tmp_path / "surface.csv"
    export_surface_csv(surf, out, metadata="unit-test")
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",") == ["t", "q", "S", "theta", "v_star"]
    assert lines[-1].startswith("#") and "unit-test" in lines[-1]
    assert len(lines) == 2 + 5 * 11 * 21
    side = json.loads((tmp_path / "surface.csv.json").read_text())
    assert side["grid"]["n_S"] == 21


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(50.0, 40.0, 11, 0.0, 1.0, 5, 4)
    with pytest.raises(ValueError):
        GridSpec(40.0, 50.0, 2, 0.0, 1.0, 5, 4)
    with pytest.raises(ValueError):
        GridSpec(40.0, 50.0, 11, 0.0, 0.0, 5, 4)
    for bad in (float("-inf"), float("inf")):
        for field in ("S_min", "S_max", "q_min", "q_max"):
            bounds = {"S_min": 40.0, "S_max": 50.0, "q_min": 0.0, "q_max": 1.0,
                      field: bad}
            with pytest.raises(ValueError, match=field):
                GridSpec(n_S=11, n_q=5, n_t=4, **bounds)
    with pytest.raises(ValueError):
        SchemeConfig(order="BAC")
    with pytest.raises(ValueError):
        SchemeConfig(n_controls=40)
    for bad in (0.0, -0.5, 1.5, float("nan")):
        with pytest.raises(ValueError):
            SchemeConfig(cfl_safety=bad)
    with pytest.raises(ValueError):
        GridSpec.default(reference_payoff(N=0.0, q0=0.0))


def test_default_grid_takes_each_given_bound_and_any_positive_step_rate():
    pay = reference_payoff(T=4.0)
    base = GridSpec.default(pay, n_S=21, n_q=11)
    g = GridSpec.default(pay, n_S=21, n_q=11, S_min=40.0, q_max=3e7)
    assert (g.S_min, g.S_max, g.q_min, g.q_max) == (40.0, base.S_max, base.q_min, 3e7)
    assert GridSpec.default(pay, steps_per_day=2.5).n_t == 10
    assert GridSpec.default(pay, steps_per_day=0.01).n_t == 1
    for bad in (0.0, -3.0, float("nan")):
        with pytest.raises(ValueError):
            GridSpec.default(pay, steps_per_day=bad)
    # with N = 0 only the q bounds need to be given
    flat = reference_payoff(T=4.0, N=0.0, q0=0.0)
    assert GridSpec.default(flat, q_min=-1e6, q_max=1e6).q_max == 1e6


def test_solves_permanent_impact_pinned():
    # k > 0 runs on the shifted price axis; frozen regression value
    pay = reference_payoff(T=8.0, k=3e-7)
    price = solve_theta(pay, small_grid(pay, n_t=16)).price(0.0, 1e7, 45.0)
    assert price == pytest.approx(28371457.97815135, rel=1e-12)
