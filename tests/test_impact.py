"""Impact-transform tests: degeneration at k=0, the terminal formulas by
direct substitution, the uniform-offset identity on the tree engine, and
price monotonicity in k; the dispatcher and the point reads both engines'
solutions share."""

import dataclasses
import math

import numpy as np
import pytest

from liqhedge.impact import solve_with_impact
from liqhedge.pde import GridSpec, solve_theta
from liqhedge.tree import TreeConfig, price_with_initial_exchange, solve_tree
from oracles import reference_payoff

# the reference scenario over 8 days at a tenth of its nominal and volume
SMALL = dict(T=8.0, N=2e6, gamma=2e-6, q0=1e6, volume=4e5)


def test_degenerates_without_impact():
    pay = reference_payoff(**SMALL, k=0.0)
    q = np.linspace(-1e5, 2.2e6, 7)[:, None]
    S = np.linspace(30.0, 60.0, 9)[None, :]
    N, K, ell = pay.contract.N, pay.contract.K, pay.liquidation
    impact_free = N * np.maximum(S - K, 0.0) + np.where(S >= K, ell(N - q), ell(q))
    np.testing.assert_array_equal(pay.terminal(q, S), impact_free)
    direct = price_with_initial_exchange(solve_tree(pay, TreeConfig(dt=0.5)))
    via = solve_with_impact(pay, "tree", config=TreeConfig(dt=0.5))
    assert via.price == direct


def test_terminal_formulas_by_substitution():
    k, q0, N, K = 3e-6, 1e6, 2e6, 45.0
    cash = reference_payoff(**SMALL, k=k, settlement="cash")
    phys = reference_payoff(**SMALL, k=k, settlement="physical")
    ell = cash.liquidation

    # q = q0 kills the coordinate shift
    for St in (40.0, 45.0, 52.5):
        expect = N * max(St - K, 0.0) + float(ell(q0)) + 0.5 * k * q0**2
        assert cash.terminal(q0, St) == pytest.approx(expect, rel=1e-12)

    # full inventory, exercised: delivery leg collapses to -k N^2 / 2
    St = 50.0
    assert St + k * (N - q0) >= K
    expect = N * (St + k * (N - q0) - K) - 0.5 * k * N**2 + 0.5 * k * q0**2
    assert phys.terminal(N, St) == pytest.approx(expect, rel=1e-12)

    # exercise decided by the observed price, not the shifted one
    St = K - k * (N - q0) / 2  # below K, but observed price is above
    S_obs = St + k * (N - q0)
    exercised = N * (S_obs - K) - 0.5 * k * N**2 + 0.5 * k * q0**2
    abandoned = float(ell(N)) + 0.5 * k * q0**2
    assert phys.terminal(N, St) == pytest.approx(exercised, rel=1e-12)
    assert phys.terminal(N, St) != pytest.approx(abandoned, rel=1e-6)


def test_offset_shifts_every_node_uniformly():
    pay = reference_payoff(**SMALL, k=3e-6)
    cfg = TreeConfig(dt=0.5)
    shift = 0.5 * 3e-6 * 1e6**2
    # a penalty lowered by the constant cancels the terminal's k*q0^2/2
    no_offset = dataclasses.replace(pay, penalty=lambda q: pay.liquidation(q) - shift)
    with_off = solve_tree(pay, cfg, keep_values=True)
    without = solve_tree(no_offset, cfg, keep_values=True)
    for j in range(with_off.J + 1):
        np.testing.assert_allclose(with_off.theta[j] - without.theta[j],
                                   shift, rtol=1e-12)


def test_price_monotone_in_impact():
    grid = None
    prices = []
    for k in (0.0, 1.5e-6, 3e-6):
        pay = reference_payoff(**SMALL, k=k)
        if grid is None:
            grid = GridSpec.default(pay, n_S=81, n_q=41)
            grid = GridSpec(grid.S_min, grid.S_max, 81, grid.q_min,
                            grid.q_max, 41, 32)
        prices.append(solve_with_impact(pay, "pde", grid=grid).price)
    assert prices[0] < prices[1] < prices[2]


def test_observed_price_map():
    pay = reference_payoff(**SMALL, k=3e-6)
    q = np.array([0.0, 5e5, 1e6, 2e6])
    St = np.array([44.0, 45.0, 46.0, 47.0])
    np.testing.assert_array_equal(pay.observed_price(St, q) - St,
                                  3e-6 * (q - 1e6))


def test_engine_name_validated():
    with pytest.raises(ValueError):
        solve_with_impact(reference_payoff(**SMALL), "fd")


@pytest.mark.parametrize("engine", ["tree", "pde"])
def test_point_reads_share_one_interface(engine):
    # both solutions answer price(t, q, S) and policy(t, q, S) at their grid
    # points, raise ValueError off the grid, and the dispatcher's price is
    # the solution's own read at (0, q0, S0)
    pay = reference_payoff(**SMALL)
    c, m = pay.contract, pay.market
    grid = GridSpec.default(pay, n_S=21, n_q=11, steps_per_day=1.0)
    tree_cfg = TreeConfig(dt=0.5)
    if engine == "tree":
        sol = solve_tree(pay, tree_cfg, keep_values=True)
        q_axis, rtol = sol.qgrid, 0.0  # the tree reads its arrays exactly
        points = [(sol.t_grid[n], sol.qgrid[i], sol.node_prices(n)[k],
                   sol.theta[n][i, k],
                   float(sol.control_mult[n][i, k] * (sol.dq / sol.config.dt)))
                  for n in (0, 3, sol.J - 1) for k in (0, n, 2 * n)
                  for i in (0, 100, 200)]
    else:
        sol = solve_theta(pay, grid, keep_values=True)
        q_axis, rtol = grid.q, 1e-12  # bilinear weights at a node are 1 +- ulp
        points = [(sol.t_grid[n], grid.q[i], grid.S[k], sol.values[n, i, k],
                   sol.control[n][i, k])
                  for n in (0, 3, grid.n_t) for k in (0, 10, 20) for i in (0, 5, 10)]
    for t, q, S, price, policy in points:
        np.testing.assert_allclose(sol.price(t, q, S), price, rtol=rtol)
        np.testing.assert_allclose(sol.policy(t, q, S), policy, rtol=rtol,
                                   atol=rtol * 1e7)

    for t in (sol.t_grid[1] / 3, math.inf, -math.inf, math.nan, 1e308, -1e308):
        for read in (sol.price, sol.policy):
            with pytest.raises(ValueError, match="time grid"):
                read(t, c.q0, m.S0)
    for q, S in ((q_axis[-1] + 1e6, m.S0), (math.nan, m.S0), (math.inf, m.S0),
                 (c.q0, m.S0 + 1e3), (c.q0, math.nan), (c.q0, -math.inf)):
        for read in (sol.price, sol.policy):
            with pytest.raises(ValueError):
                read(0.0, q, S)

    # at t = T the tree holds no policy; the surface stores a zero level
    if engine == "tree":
        with pytest.raises(ValueError, match="t = T"):
            sol.policy(c.T, c.q0, m.S0)
    else:
        assert sol.policy(c.T, c.q0, m.S0) == 0.0

    via = solve_with_impact(pay, engine, grid=grid, config=tree_cfg)
    assert via.price == sol.price(0.0, c.q0, m.S0)
    assert via.price == via.solution.price(0.0, c.q0, m.S0)
    with pytest.raises(ValueError, match="keep_values=True"):
        via.solution.price(sol.t_grid[1], c.q0, m.S0)
