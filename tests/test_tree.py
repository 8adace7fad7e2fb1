"""Tree engine tests: the engine's structure, checked in every CI job.

The zero-control recursion has a closed form (independent oracle); the
reference scenario is pinned as a regression value; structural properties
(convexity in inventory, the frictionless and risk-neutral floors, scaling
with nominal, policy feasibility) are checked directly. The paper's numbers
are in test_acceptance.py and the scalar point reads both engines share in
test_impact.py.
"""

import hashlib
import math

import numpy as np
import pytest

from liqhedge.model import PayoffSpec, VolumeCurve, bachelier_price
from liqhedge.tree import TreeConfig, price_with_initial_exchange, solve_tree
from oracles import FROZEN, reference_payoff, rescale_nominal


# ---------------------------------------------------------------------------
# zero-control closed form
# ---------------------------------------------------------------------------

def test_zero_control_closed_form():
    # the frozen inventory's variance charge telescopes level by level
    gamma, sigma = FROZEN.contract.gamma, FROZEN.market.sigma
    cfg = TreeConfig(dt=0.25, dq=5e5, q_min=-2e6, q_max=2e6)
    tv = solve_tree(FROZEN, cfg, keep_values=True)

    alpha = cfg.alpha
    p_edge = 1.0 / (2 * alpha**2)
    J = tv.J
    a = gamma * tv.qgrid * sigma * math.sqrt(cfg.dt) * alpha
    per_step = np.log(p_edge * (np.exp(a) + np.exp(-a)) + (1 - 1 / alpha**2))
    for j in range(J + 1):
        expect = (J - j) * per_step / gamma
        got = tv.theta[j][:, j]  # the middle node
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-9)
        # theta must not depend on the price node when the payoff is zero
        assert np.ptp(tv.theta[j], axis=1).max() < 1e-9


# ---------------------------------------------------------------------------
# reference scenario
# ---------------------------------------------------------------------------

def test_reference_scenario_regression(reference_tree):
    p = price_with_initial_exchange(reference_tree) / 2e7
    assert abs(p - 2.0615997326) < 1e-6


def tree_digest(tv):
    """SHA-256 over theta[j] and control_mult[j] of every level, as the
    bytes of their node-major (2j+1, n_q) C-ordered copies; the digest was
    recorded in that order, before the levels were stored inventory-major."""
    h = hashlib.sha256()
    for j in range(tv.J + 1):
        h.update(np.ascontiguousarray(tv.theta[j].T).tobytes())
        if j < tv.J:
            h.update(np.ascontiguousarray(tv.control_mult[j].T).tobytes())
    return h.hexdigest()


def test_reference_scenario_bits_pinned():
    # every level of the reference scenario at dt = 1, bit for bit, each
    # stored as the solver's C-contiguous (n_q, 2j+1) array. numpy's SIMD
    # exp/log may round differently on another CPU family, and then this
    # digest is recorded again, as the perfbench reference is
    tv = solve_tree(reference_payoff(), TreeConfig(dt=1.0), keep_values=True)
    nq = tv.qgrid.size
    for j in range(tv.J + 1):
        assert tv.theta[j].shape == (nq, 2 * j + 1)
        assert tv.theta[j].flags.c_contiguous
        if j < tv.J:
            assert tv.control_mult[j].shape == (nq, 2 * j + 1)
            assert tv.control_mult[j].flags.c_contiguous
    assert tree_digest(tv) == (
        "eba90d8f9895b811e8a1074aec8e359322edb0705ce13fab08f92512c44775a2")


def test_drift_cash_and_returning_volume_bits_pinned():
    # r != 0 (the growth term and the discount), cash settlement and a volume
    # that comes back after a different one and after a segment that cannot
    # trade, every level bit for bit; the reference pin above has none of these
    pay = reference_payoff(T=8.0, mu=0.05 / 252, r=0.02 / 252, settlement="cash",
                           volume=VolumeCurve([0, 2, 4, 6], [4e6, 2e6, 0, 4e6]))
    tv = solve_tree(pay, TreeConfig(dt=0.5), keep_values=True)
    assert tree_digest(tv) == (
        "ec68e01d0d1fbf1ff21b2ca9cce789a77cd659631ee65de173cf5e98cd8eaaaf")


@pytest.fixture(scope="module")
def lean_and_full_tree():
    """The reference scenario at dt = 1, solved lean and with keep_values."""
    pay, cfg = reference_payoff(), TreeConfig(dt=1.0)
    return solve_tree(pay, cfg), solve_tree(pay, cfg, keep_values=True)


def test_lean_solve_matches_full_solve_bit_for_bit(lean_and_full_tree):
    # the default solve keeps theta_0 and every control level, byte for byte
    lean, full = lean_and_full_tree
    assert len(lean.theta) == 1 and len(full.theta) == full.J + 1
    assert lean.theta[0].tobytes() == full.theta[0].tobytes()
    assert len(lean.control_mult) == full.J
    for a, b in zip(lean.control_mult, full.control_mult):
        assert a.dtype == b.dtype == np.int16
        assert a.tobytes() == b.tobytes()
    assert price_with_initial_exchange(lean) == price_with_initial_exchange(full)


def test_lean_solve_stores_controls_and_one_level(lean_and_full_tree):
    lean, _ = lean_and_full_tree
    nq = lean.qgrid.size
    controls = sum((2 * j + 1) * nq * 2 for j in range(lean.J))  # int16
    assert sum(a.nbytes for a in lean.control_mult) == controls
    assert sum(a.nbytes for a in lean.theta) == nq * 8  # theta_0: one node
    assert lean.theta[0].shape == (nq, 1)


def test_full_hedge_start_costs_more(reference_tree):
    # starting with no stock forces the hedge to be bought at a cost
    p_half = reference_tree.price(0.0, 1e7, 45.0) / 2e7
    p_zero = reference_tree.price(0.0, 0.0, 45.0) / 2e7
    assert abs(p_zero - 2.1833149591) < 1e-6
    assert p_zero > p_half


def test_root_value_convex_in_q(reference_tree):
    tv = reference_tree
    th = tv.theta[0][:, 0]
    d2 = th[2:] - 2 * th[1:-1] + th[:-2]
    assert d2.min() >= -1e-6 * np.abs(th).max()
    tol = -1e-6 * max(np.abs(level).max() for level in tv.theta)
    for level in tv.theta:  # every kept level, at every node
        assert (level[2:] - 2 * level[1:-1] + level[:-2]).min() >= tol


def test_root_above_frictionless_bound(reference_tree):
    # per-share theta_0 at every q dominates the frictionless price up to
    # two price steps of the lattice
    tv = reference_tree
    dS = tv.config.alpha * 0.6 * math.sqrt(tv.config.dt)
    root = tv.theta[0][:, 0] / 2e7
    assert (root >= bachelier_price(45.0, 45.0, 0.6, 63.0) - 2.0 * dS).all()


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
            v = tv.policy(tv.t_grid[j], 1e7, s)
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
    tv = solve_tree(reference_payoff(T=8.0, volume=curve), TreeConfig(dt=0.5),
                    keep_values=True)
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
    with pytest.raises(ValueError, match="is not a level-3 tree node"):
        tv.node_index(3, 45.0 + 0.4 * tv.payoff.market.sigma)


@pytest.mark.parametrize("rho_max, dq, name", [
    (1e303, 1e5, r"rho_max\*V\*dt/dq"),  # rho_max*V*dt is inf in floats
    (5.0, 1e-303, r"\(q_max - q_min\)/dq"),  # the grid's node count is inf
])
def test_overflow_on_a_given_dq_is_named(rho_max, dq, name):
    # ceil and round of inf have no integer value
    with pytest.raises(OverflowError, match="overflow: " + name):
        solve_tree(reference_payoff(T=4.0, rho_max=rho_max), TreeConfig(dt=1.0, dq=dq))


def test_tree_policy_rejects_nan_price(reference_tree):
    # the scalar reads are checked on both engines in test_impact.py; an
    # array of prices reaches node_index only here
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="tree node"):
            reference_tree.node_index(3, np.array([45.0, bad]))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_solves_permanent_impact_pinned():
    # k > 0 runs on the shifted price axis; frozen regression value
    pay = reference_payoff(T=8.0, k=3e-7)
    tv = solve_tree(pay, TreeConfig(dt=0.5))
    assert price_with_initial_exchange(tv) == 25006088.627682924


def test_each_given_q_bound_moves_only_its_own_end():
    pay = reference_payoff(T=4.0)
    base = solve_tree(pay, TreeConfig(dt=1.0)).qgrid  # [0, N] at dq = 1e5
    assert (base[0], base[-1], base.size) == (0.0, 2e7, 201)
    low = solve_tree(pay, TreeConfig(dt=1.0, q_min=-1e6)).qgrid
    np.testing.assert_array_equal(
        low, solve_tree(pay, TreeConfig(dt=1.0, q_min=-1e6, q_max=2e7)).qgrid)
    assert (low[0], low[-1], low.size) == (-1e6, 2e7, 211)
    high = solve_tree(pay, TreeConfig(dt=1.0, q_max=2.2e7)).qgrid
    np.testing.assert_array_equal(high[:base.size], base)
    assert (high[-1], high.size) == (2.2e7, 221)


def test_rejects_bad_grids():
    pay = reference_payoff(T=8.0)
    with pytest.raises(ValueError, match="dt must divide T"):
        solve_tree(pay, TreeConfig(dt=0.3))
    with pytest.raises(ValueError, match=r"rho_max\*V\*dt must be an integer multiple of dq"):
        solve_tree(pay, TreeConfig(dt=0.5, dq=3e5))
    bad_q0 = reference_payoff(T=8.0, q0=1e7 + 5e4)
    with pytest.raises(ValueError, match="q=10050000.0 is not on the inventory grid"):
        solve_tree(bad_q0, TreeConfig(dt=0.5, dq=1e5))
    with pytest.raises(ValueError, match="q_max must be >= q_min"):
        solve_tree(pay, TreeConfig(q_min=1e7, q_max=0.0))
    with pytest.raises(ValueError, match="alpha must be >= 1"):
        TreeConfig(alpha=0.99)
    for bad in ({"dt": math.inf}, {"alpha": math.inf}, {"dq": math.nan},
                {"q_min": -math.inf, "q_max": 2e7}):
        with pytest.raises(ValueError, match=f"{next(iter(bad))} must be finite"):
            TreeConfig(**bad)


def test_non_finite_terminal_value_raises():
    pay = reference_payoff(T=4.0, penalty=lambda q: np.where(q > 1.5e7, np.inf, 0.0))
    with pytest.raises(FloatingPointError, match="non-finite terminal value at node"):
        solve_tree(pay, TreeConfig(dt=1.0))


def test_non_finite_message_prints_the_node_as_plain_ints():
    # under numpy 2 a repr of np.argwhere's entries reads "np.int64(0)"
    pay = reference_payoff(T=4.0, penalty=lambda q: np.where(q > 1.5e7, np.inf, 0.0))
    with pytest.raises(FloatingPointError) as err:
        solve_tree(pay, TreeConfig(dt=1.0))
    assert str(err.value) == "non-finite terminal value at node (0, 151)"
