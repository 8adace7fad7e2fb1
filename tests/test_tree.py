"""Tree engine tests.

The zero-control recursion has a closed form (independent oracle); the
reference scenario is pinned as a regression value; structural properties
(convexity in inventory, scaling with nominal, policy feasibility) are
checked directly.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from liqhedge.model import (
    ExecutionCost,
    MarketParams,
    OptionContract,
    PayoffSpec,
    VolumeCurve,
    rescale_nominal,
)
from liqhedge.tree import (
    TreeConfig,
    dump_tree_csv,
    price_with_initial_exchange,
    solve_tree,
    tree_policy,
)


def reference_payoff(**over):
    kw = dict(K=45.0, T=63.0, N=2e7, gamma=2e-7, q0=1e7, settlement="physical")
    ckeys = {k: over.pop(k) for k in list(over) if k in kw}
    kw.update(ckeys)
    contract = OptionContract(**kw)
    mkw = dict(S0=45.0, sigma=0.6, volume=4e6, rho_max=5.0)
    mkw.update({k: over.pop(k) for k in list(over) if k in mkw})
    market = MarketParams(S0=mkw["S0"], sigma=mkw["sigma"],
                          volume=VolumeCurve.constant(mkw["volume"]) if not isinstance(mkw["volume"], VolumeCurve) else mkw["volume"],
                          rho_max=mkw["rho_max"])
    cost = over.pop("cost", ExecutionCost(0.1, 0.75, 0.0))
    assert not over, f"unused overrides: {over}"
    return PayoffSpec(contract, market, cost)


@pytest.fixture(scope="module")
def reference_tree():
    return solve_tree(reference_payoff())


# ---------------------------------------------------------------------------
# zero-control closed form
# ---------------------------------------------------------------------------

def test_zero_control_closed_form():
    # no option, no penalty, rho_max = 0: only the variance of the frozen
    # inventory remains and the recursion telescopes level by level
    gamma, sigma, dt, T = 3e-7, 0.6, 0.25, 4.0
    contract = OptionContract(K=45.0, T=T, N=0.0, gamma=gamma, q0=0.0,
                              settlement="cash")
    market = MarketParams(S0=45.0, sigma=sigma,
                          volume=VolumeCurve.constant(4e6), rho_max=0.0)
    pay = PayoffSpec(contract, market, ExecutionCost(0.1, 0.75),
                     penalty_rate=1.0, penalty=lambda q: np.zeros_like(q))
    cfg = TreeConfig(dt=dt, dq=5e5, q_min=-2e6, q_max=2e6)
    tv = solve_tree(pay, cfg)

    alpha = cfg.alpha
    p_edge = 1.0 / (2 * alpha**2)
    J = tv.J
    q = tv.qgrid
    a = gamma * q * sigma * math.sqrt(dt) * alpha
    per_step = np.log(p_edge * (np.exp(a) + np.exp(-a)) + (1 - 1 / alpha**2))
    for j in range(J + 1):
        expect = (J - j) * per_step / gamma
        got = tv.theta[j][tv.theta[j].shape[0] // 2, :]
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-9)
        # theta must not depend on the price node when the payoff is zero
        assert np.ptp(tv.theta[j], axis=0).max() < 1e-9


# ---------------------------------------------------------------------------
# reference scenario
# ---------------------------------------------------------------------------

def test_reference_scenario_regression(reference_tree):
    p = price_with_initial_exchange(reference_tree) / 2e7
    assert abs(p - 2.0615997326) < 1e-6


def tree_digest(tv):
    """SHA-256 over theta[j] and control_mult[j] of every level, as stored
    bytes of their (2j+1, n_q) C-ordered copies."""
    h = hashlib.sha256()
    for j in range(tv.J + 1):
        h.update(np.ascontiguousarray(tv.theta[j]).tobytes())
        if j < tv.J:
            h.update(np.ascontiguousarray(tv.control_mult[j]).tobytes())
    return h.hexdigest()


def test_reference_scenario_bits_pinned():
    # every level of the reference scenario at dt = 1, bit for bit; the
    # digest was recorded before the levels were stored inventory-major.
    # numpy's SIMD exp/log may round differently on another CPU family,
    # and then this digest is recorded again, as the perfbench reference is
    tv = solve_tree(reference_payoff(), TreeConfig(dt=1.0))
    nq = tv.qgrid.size
    for j in range(tv.J + 1):
        assert tv.theta[j].shape == (2 * j + 1, nq)
        if j < tv.J:
            assert tv.control_mult[j].shape == (2 * j + 1, nq)
    assert tree_digest(tv) == (
        "eba90d8f9895b811e8a1074aec8e359322edb0705ce13fab08f92512c44775a2")


def test_full_hedge_start_costs_more(reference_tree):
    # starting with no stock forces the hedge to be bought at a cost
    p_half = price_with_initial_exchange(reference_tree, 1e7) / 2e7
    p_zero = price_with_initial_exchange(reference_tree, 0.0) / 2e7
    assert abs(p_zero - 2.1833149591) < 1e-6
    assert p_zero > p_half


def test_root_value_convex_in_q(reference_tree):
    tv = reference_tree
    th = tv.theta[0][0, :]
    d2 = th[2:] - 2 * th[1:-1] + th[:-2]
    assert d2.min() >= -1e-6 * np.abs(th).max()


def test_root_dominates_risk_neutral_value(reference_tree):
    # Jensen: certainty equivalent of a convex payoff exceeds the expected
    # payoff; expectation taken under the exact branch probabilities
    tv = reference_tree
    pay = tv.payoff
    alpha = tv.config.alpha
    p_edge = 1.0 / (2 * alpha**2)
    kernel = np.array([p_edge, 1 - 1 / alpha**2, p_edge])
    probs = np.array([1.0])
    for _ in range(tv.J):
        probs = np.convolve(probs, kernel)
    S_T = tv.node_prices(tv.J)
    mean_call = float(probs @ np.maximum(S_T - pay.contract.K, 0.0))
    root = price_with_initial_exchange(tv)
    assert root >= pay.contract.N * mean_call


def test_policy_feasible_and_on_lattice(reference_tree):
    tv = reference_tree
    cap = tv.payoff.market.rho_max * tv.payoff.market.volume.at(0.0)
    step = tv.dq / tv.config.dt
    for j in (0, tv.J // 2, tv.J - 1):
        S = tv.node_prices(j)
        for s in (S[0], S[len(S) // 2], S[-1]):
            v = tree_policy(tv, j, s, 1e7)
            assert abs(v) <= cap + 1e-6
            assert abs(v / step - round(v / step)) < 1e-9


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------

def test_price_scales_with_nominal():
    pay = reference_payoff(T=8.0, N=2e6, q0=1e6)
    c2, m2 = rescale_nominal(pay.contract, pay.market)
    unit = PayoffSpec(c2, m2, pay.cost)
    full = solve_tree(pay, TreeConfig(dt=0.5))
    small = solve_tree(unit, TreeConfig(dt=0.5))
    a = price_with_initial_exchange(full)
    b = price_with_initial_exchange(small)
    assert abs(a - pay.contract.N * b) < 1e-8 * abs(a)


def test_price_increases_with_risk_aversion():
    prices = []
    for g in (1e-7, 4e-7):
        pay = reference_payoff(T=8.0, gamma=g)
        prices.append(price_with_initial_exchange(solve_tree(pay, TreeConfig(dt=0.5))))
    assert prices[1] > prices[0]


def test_time_varying_volume_brackets_constants():
    lo_v, hi_v = 2e6, 4e6
    curve = VolumeCurve([0.0, 4.0], [hi_v, lo_v])
    mixed = price_with_initial_exchange(
        solve_tree(reference_payoff(T=8.0, volume=curve), TreeConfig(dt=0.5)))
    hi = price_with_initial_exchange(
        solve_tree(reference_payoff(T=8.0, volume=hi_v), TreeConfig(dt=0.5)))
    lo = price_with_initial_exchange(
        solve_tree(reference_payoff(T=8.0, volume=lo_v), TreeConfig(dt=0.5)))
    assert hi <= mixed <= lo


def test_zero_volume_segment_freezes_trading():
    # no volume on [4, 6): the levels there cannot trade, the others can
    curve = VolumeCurve([0.0, 4.0, 6.0], [4e6, 0.0, 4e6])
    tv = solve_tree(reference_payoff(T=8.0, volume=curve), TreeConfig(dt=0.5))
    dead = [j for j in range(tv.J) if curve.at(j * 0.5) == 0.0]
    assert dead and len(dead) < tv.J
    for j in range(tv.J):
        assert np.all(np.isfinite(tv.theta[j]))
        if j in dead:
            assert np.all(tv.control_mult[j] == 0)
    assert any(np.any(tv.control_mult[j] != 0) for j in range(tv.J) if j not in dead)


def test_node_geometry(reference_tree):
    tv = reference_tree
    for j in (0, 5, tv.J):
        S = tv.node_prices(j)
        assert len(S) == 2 * j + 1
        for i in (0, len(S) - 1):
            assert tv.node_index(j, S[i]) == i
    with pytest.raises(ValueError):
        tv.node_index(3, 45.0 + 0.4 * tv.payoff.market.sigma)


def test_csv_dump(tmp_path, reference_tree):
    out = tmp_path / "tree.csv"
    dump_tree_csv(reference_tree, out, levels=[0, 1], metadata="unit-test")
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("j,")
    assert lines[-1].startswith("#")
    assert "unit-test" in lines[-1]
    assert len(lines) > 2


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_solves_permanent_impact_pinned():
    # k > 0 runs on the shifted price axis; frozen regression value
    pay = reference_payoff(T=8.0)
    pay = dataclasses.replace(pay, market=dataclasses.replace(pay.market, k=3e-7))
    tv = solve_tree(pay, TreeConfig(dt=0.5))
    assert price_with_initial_exchange(tv) == 25006088.627682924


def test_rejects_bad_grids():
    pay = reference_payoff(T=8.0)
    with pytest.raises(ValueError):
        solve_tree(pay, TreeConfig(dt=0.3))          # dt does not divide T
    with pytest.raises(ValueError):
        solve_tree(pay, TreeConfig(dt=0.5, dq=3e5))  # dq does not divide the max trade
    bad_q0 = reference_payoff(T=8.0, q0=1e7 + 5e4)
    with pytest.raises(ValueError):
        solve_tree(bad_q0, TreeConfig(dt=0.5, dq=1e5))
    for bad in ({"dt": math.inf}, {"alpha": math.inf}, {"dq": math.nan},
                {"q_min": -math.inf, "q_max": 2e7}):
        with pytest.raises(ValueError):
            TreeConfig(**bad)
