"""Impact-transform tests: degeneration at k=0, the terminal formulas by
direct substitution, the uniform-offset identity on the tree engine, and
price monotonicity in k."""

import dataclasses

import numpy as np
import pytest

from liqhedge.model import (
    ExecutionCost,
    MarketParams,
    OptionContract,
    PayoffSpec,
    VolumeCurve,
)
from liqhedge.impact import solve_with_impact
from liqhedge.pde import GridSpec
from liqhedge.tree import TreeConfig, price_with_initial_exchange, solve_tree


def make_payoff(k=0.0, T=8.0, settlement="physical", q0=1e6):
    contract = OptionContract(K=45.0, T=T, N=2e6, gamma=2e-6, q0=q0,
                              settlement=settlement)
    market = MarketParams(S0=45.0, sigma=0.6, volume=VolumeCurve.constant(4e5),
                          rho_max=5.0, k=k)
    return PayoffSpec(contract, market, ExecutionCost(0.1, 0.75))


def test_degenerates_without_impact():
    pay = make_payoff(k=0.0)
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
    cash = make_payoff(k=k, settlement="cash")
    phys = make_payoff(k=k, settlement="physical")
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
    pay = make_payoff(k=3e-6)
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
        pay = make_payoff(k=k)
        if grid is None:
            grid = GridSpec.default(pay, n_S=81, n_q=41)
            grid = GridSpec(grid.S_min, grid.S_max, 81, grid.q_min,
                            grid.q_max, 41, 32)
        prices.append(solve_with_impact(pay, "pde", grid=grid).price)
    assert prices[0] < prices[1] < prices[2]


def test_observed_price_map():
    pay = make_payoff(k=3e-6)
    q = np.array([0.0, 5e5, 1e6, 2e6])
    St = np.array([44.0, 45.0, 46.0, 47.0])
    np.testing.assert_array_equal(pay.observed_price(St, q) - St,
                                  3e-6 * (q - 1e6))


def test_engine_name_validated():
    with pytest.raises(ValueError):
        solve_with_impact(make_payoff(), "fd")
