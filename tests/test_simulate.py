"""Monte-Carlo harness tests: path generation, TWAP fills, the two hedging
runners, and the discrete wealth-decomposition identity."""

import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liqhedge.model import (
    ExecutionCost,
    MarketParams,
    OptionContract,
    PayoffSpec,
    VolumeCurve,
    bachelier_price,
)
from liqhedge.pde import GridSpec, solve_theta
from liqhedge.simulate import (
    PathConfig,
    PnLStats,
    run_delta_hedge,
    run_policy_hedge,
    simulate_price_paths,
    wealth_decomposition_check,
    _normal_matrix,
    _twap_matrix,
)
from liqhedge.tree import TreeConfig, solve_tree, tree_policy

COST = ExecutionCost(0.1, 0.75)


def make_payoff(sigma=0.6, S0=45.0, q0=1e7, rho_max=5.0, cost=COST, k=0.0,
                settlement="physical", penalty=None):
    contract = OptionContract(K=45.0, T=63.0, N=2e7, gamma=2e-7, q0=q0,
                              settlement=settlement)
    market = MarketParams(S0=S0, sigma=sigma, volume=4e6, rho_max=rho_max, k=k)
    return PayoffSpec(contract, market, cost, penalty=penalty)


def zero_penalty(q):
    return np.zeros(np.shape(q))


# ---------------------------------------------------------------------------
# price paths


def test_price_paths_shape_start_and_moments():
    market = MarketParams(S0=45.0, sigma=0.6, volume=4e6, rho_max=5.0, mu=0.02)
    cfg = PathConfig(n_paths=20_000, n_obs=64, seed=3)
    T = 63.0
    S = simulate_price_paths(market, cfg, T)
    assert S.shape == (20_000, 64)
    np.testing.assert_array_equal(S[:, 0], 45.0)

    # terminal law is N(S0 + mu T, sigma^2 T); 4-standard-error bands
    mean, var = 45.0 + 0.02 * T, 0.36 * T
    se_mean = math.sqrt(var / cfg.n_paths)
    se_var = var * math.sqrt(2.0 / (cfg.n_paths - 1))
    assert abs(np.mean(S[:, -1]) - mean) < 4 * se_mean
    assert abs(np.var(S[:, -1], ddof=1) - var) < 4 * se_var


def test_price_paths_counter_seeding():
    market = MarketParams(S0=45.0, sigma=0.6, volume=4e6, rho_max=5.0)
    big = simulate_price_paths(market, PathConfig(n_paths=5, n_obs=10, seed=7), 63.0)
    small = simulate_price_paths(market, PathConfig(n_paths=2, n_obs=10, seed=7), 63.0)
    # path i depends only on (seed, i), not on the batch size
    np.testing.assert_array_equal(big[:2], small)

    again = simulate_price_paths(market, PathConfig(n_paths=5, n_obs=10, seed=7), 63.0)
    np.testing.assert_array_equal(big, again)
    other = simulate_price_paths(market, PathConfig(n_paths=5, n_obs=10, seed=8), 63.0)
    assert not np.array_equal(big, other)


SEEDS = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32]),
                  st.integers(0, 2**32).map(lambda k: 2**64 + k),
                  st.integers(0, 2**130))


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, n_paths=st.integers(1, 40), n=st.integers(1, 300),
       stream=st.sampled_from([0, 1]))
def test_normal_matrix_matches_per_path_generators(seed, n_paths, n, stream):
    # numpy's own construction, one generator per path, is the reference:
    # a change in numpy's SeedSequence or PCG64 seeding must fail here
    expected = np.array([
        np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((seed, i, stream)))).standard_normal(n)
        for i in range(n_paths)])
    got = _normal_matrix(seed, n_paths, n, stream)
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


# ---------------------------------------------------------------------------
# TWAP fills


def alternating_path(a, b, n):
    """One path whose n intervals all run between a and b."""
    return np.where(np.arange(n + 1) % 2 == 0, a, b)[None, :]


def test_twap_fill_law():
    n = 1_000_000
    sigma, dt = 0.6, 0.25
    fills = _twap_matrix(alternating_path(45.0, 46.0, n), sigma, dt, seed=42)
    mean, var = 45.5, sigma**2 * dt / 12.0
    se_mean = math.sqrt(var / n)
    se_var = var * math.sqrt(2.0 / (n - 1))
    assert abs(np.mean(fills) - mean) < 4 * se_mean
    assert abs(np.var(fills, ddof=1) - var) < 4 * se_var


def test_twap_fill_zero_length_interval_is_midpoint():
    assert _twap_matrix(np.array([[45.0, 46.0]]), 0.6, 0.0, seed=0) == 45.5


# ---------------------------------------------------------------------------
# config validation


def test_config_validation():
    with pytest.raises(ValueError):
        PathConfig(n_paths=0)
    with pytest.raises(ValueError, match="n_paths >= 2"):
        PathConfig(n_paths=1)  # a one-sample cost variance is undefined
    with pytest.raises(ValueError):
        PathConfig(n_obs=1)
    with pytest.raises(ValueError):
        PathConfig(M=1)
    with pytest.raises(ValueError):
        PnLStats("delta", 10, 0.0, -1.0, 0.0, 10, 0)


# ---------------------------------------------------------------------------
# delta-hedge benchmark


def test_delta_hedge_requires_M_and_flat_market():
    pay = make_payoff()
    with pytest.raises(ValueError):
        run_delta_hedge(pay, PathConfig(n_paths=10))
    with pytest.raises(ValueError):
        run_delta_hedge(make_payoff(k=1e-7), PathConfig(n_paths=10, M=10))


def test_delta_hedge_deep_itm_tiny_vol():
    # delta pins at 1, so no rebalancing trades happen and the terminal
    # stock leg cancels path by path: cost = N*(S0 - K) exactly
    pay = make_payoff(sigma=1e-12, S0=50.0, q0=0.0)
    st = run_delta_hedge(pay, PathConfig(n_paths=50, seed=1, M=10))
    assert st.mean_cost == pytest.approx(2e7 * 5.0, rel=1e-12)
    assert st.var_cost < 1e-6
    assert st.exec_cost_mean == 0.0
    assert st.strategy == "delta" and st.M == 10 and st.n == 50


def test_delta_hedge_execution_fees_increase_cost():
    pay = make_payoff(q0=0.0)
    cfg = PathConfig(n_paths=500, seed=2, M=20)
    with_fees = run_delta_hedge(pay, cfg, exec_costs=True)
    without = run_delta_hedge(pay, cfg, exec_costs=False)
    assert with_fees.exec_cost_mean > 0.0
    assert without.exec_cost_mean == 0.0
    assert with_fees.mean_cost > without.mean_cost
    # identical paths: the gap is exactly the average fee
    assert with_fees.mean_cost - without.mean_cost == pytest.approx(
        with_fees.exec_cost_mean, rel=1e-9)


def test_delta_hedge_frictionless_variance_decreases_in_M():
    # with L = 0 and no liquidation penalty the only cost is discrete
    # hedging error, whose variance must fall monotonically in M and whose
    # mean must sit on the Bachelier premium
    pay = make_payoff(q0=0.0, cost=ExecutionCost(0.0, 0.75), penalty=zero_penalty)
    premium = 2e7 * bachelier_price(45.0, 45.0, 0.6, 63.0)
    variances = []
    for M in (10, 20, 40, 80, 160, 320):
        st = run_delta_hedge(pay, PathConfig(n_paths=10_000, seed=0, M=M))
        assert st.exec_cost_mean == 0.0
        se = math.sqrt(st.var_cost / st.n)
        assert abs(st.mean_cost - premium) < 4 * se
        variances.append(st.var_cost)
    assert all(b < a for a, b in zip(variances, variances[1:]))
    assert variances[-1] < 0.1 * variances[0]


def test_delta_hedge_determinism():
    pay = make_payoff(q0=0.0)
    cfg = PathConfig(n_paths=300, seed=9, M=15)
    assert run_delta_hedge(pay, cfg) == run_delta_hedge(pay, cfg)


def test_delta_hedge_rejects_trading_on_zero_volume():
    # the ladder ignores the cap, so it trades on [21, 42) where V = 0
    pay = make_payoff()
    market = MarketParams(S0=45.0, sigma=0.6, rho_max=5.0,
                          volume=VolumeCurve([0.0, 21.0, 42.0], [4e6, 0.0, 4e6]))
    pay = PayoffSpec(pay.contract, market, COST)
    cfg = PathConfig(n_paths=20, seed=1, M=3)
    with pytest.raises(ValueError, match=r"zero-volume interval \[21, 42\)"):
        run_delta_hedge(pay, cfg)
    assert run_delta_hedge(pay, cfg, exec_costs=False).exec_cost_mean == 0.0


# ---------------------------------------------------------------------------
# policy runner


def test_policy_hedge_no_trades_at_zero_cap():
    # rho_max = 0 makes trading structurally impossible: the tree controls
    # are all zero and the cost reduces to holding q0 against the payoff
    pay = make_payoff(rho_max=0.0, penalty=zero_penalty)
    tv = solve_tree(pay, TreeConfig(dt=1.0))
    assert all(not np.any(cm) for cm in tv.control_mult)

    cfg = PathConfig(n_paths=400, n_obs=64, seed=5)
    st = run_policy_hedge(pay, tv, cfg)
    S = simulate_price_paths(pay.market, cfg, 63.0)
    held = pay.terminal(1e7, S[:, -1]) + 1e7 * (S[:, 0] - S[:, -1])
    assert st.mean_cost == pytest.approx(float(np.mean(held)), rel=1e-12)
    assert st.exec_cost_mean == 0.0
    assert st.excluded == 0 and st.n == 400


def test_policy_hedge_solution_must_match_path_grid():
    pay = make_payoff()
    tv = solve_tree(pay, TreeConfig(dt=1.0))  # 63 levels
    with pytest.raises(ValueError):
        run_policy_hedge(pay, tv, PathConfig(n_paths=10, n_obs=253))
    surf = solve_theta(pay, GridSpec(40.0, 50.0, 16, 0.0, 2e7, 9, 12))
    with pytest.raises(ValueError):
        run_policy_hedge(pay, surf, PathConfig(n_paths=10, n_obs=14))
    with pytest.raises(TypeError):
        run_policy_hedge(pay, object(), PathConfig(n_paths=10, n_obs=64))
    with pytest.raises(ValueError):
        run_policy_hedge(make_payoff(k=1e-7), tv, PathConfig(n_paths=10, n_obs=64))


def test_policy_hedge_hull_exits_are_excluded():
    # deliberately tight price hull: leavers must be dropped and counted
    pay = make_payoff()
    surf = solve_theta(pay, GridSpec(38.0, 52.0, 57, 0.0, 2e7, 41, 63))
    cfg = PathConfig(n_paths=400, n_obs=64, seed=4)
    st = run_policy_hedge(pay, surf, cfg)
    assert 0 < st.excluded < cfg.n_paths
    assert st.n + st.excluded == cfg.n_paths
    assert st.var_cost >= 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_policy_hedge_raises_when_every_path_leaves_the_hull():
    pay = make_payoff()
    surf = solve_theta(pay, GridSpec(44.9, 45.1, 5, 0.0, 2e7, 9, 63))
    with pytest.raises(ValueError, match="every path left"):
        run_policy_hedge(pay, surf, PathConfig(n_paths=50, n_obs=64, seed=4))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_policy_hedge_raises_when_one_path_stays_in_the_hull():
    # 2 of 3 paths leave the price hull [42, 48]; the one left has no
    # sample variance, which used to be reported as 0
    pay = make_payoff()
    surf = solve_theta(pay, GridSpec(42.0, 48.0, 5, 0.0, 2e7, 9, 63))
    with pytest.raises(ValueError, match="one path stayed"):
        run_policy_hedge(pay, surf, PathConfig(n_paths=3, n_obs=64, seed=3))


def test_hedge_statistics_pinned():
    # bit-for-bit regression of both runners on one small drifting,
    # compounding problem: the delta ladder with and without fees, and the
    # policy read off a tree and off a PDE surface (21x11 grid)
    contract = OptionContract(K=45.0, T=4.0, N=2e7, gamma=2e-7, q0=1e7)
    market = MarketParams(S0=45.0, sigma=0.6, volume=4e6, rho_max=5.0,
                          mu=0.05 / 252, r=0.02 / 252)
    pay = PayoffSpec(contract, market, ExecutionCost(0.1, 0.75, 0.01))
    cfg = PathConfig(n_paths=200, n_obs=5, seed=1, M=4)
    tv = solve_tree(pay, TreeConfig(dt=1.0, alpha=1.5, dq=1e5, q_min=0.0, q_max=2e7))
    surf = solve_theta(pay, GridSpec(S_min=36.0, S_max=54.0, n_S=21, q_min=-2e6,
                                     q_max=2.2e7, n_q=11, n_t=4))
    assert run_delta_hedge(pay, cfg) == PnLStats(
        "delta", 4, 12803213.836179059, 24501810246417.33, 1353167.052648426,
        200, 1, 0)
    assert run_delta_hedge(pay, cfg, exec_costs=False) == PnLStats(
        "delta", 4, 11449946.609586935, 21502663025306.258, 0.0, 200, 1, 0)
    assert run_policy_hedge(pay, tv, cfg) == PnLStats(
        "policy", 4, 12467088.19831173, 23736363758553.637, 945433.4612244987,
        200, 1, 0)
    assert run_policy_hedge(pay, surf, cfg) == PnLStats(
        "policy", 4, 12489605.244971642, 22414315611114.11, 608086.0358853298,
        200, 1, 0)


def test_policy_speeds_read_both_engines():
    # the per-path policy read the simulator calls: q outside either grid
    # and S outside the PDE hull clear `alive`; the tree clips S to its
    # nodes; inside, each engine returns its own scalar policy read
    contract = OptionContract(K=45.0, T=4.0, N=2e7, gamma=2e-7, q0=1e7)
    market = MarketParams(S0=45.0, sigma=0.6, volume=4e6, rho_max=5.0)
    pay = PayoffSpec(contract, market, COST)
    tv = solve_tree(pay, TreeConfig(dt=1.0, alpha=1.5, dq=1e5, q_min=0.0, q_max=2e7))
    surf = solve_theta(pay, GridSpec(S_min=36.0, S_max=54.0, n_S=21, q_min=-2e6,
                                     q_max=2.2e7, n_q=11, n_t=4))
    level = 2

    for sol in (tv, surf):
        alive = np.ones(3, dtype=bool)
        sol.policy_speeds(level, np.array([-3e6, 1e7, 2.3e7]), np.full(3, 45.0), alive)
        np.testing.assert_array_equal(alive, [False, True, False])

    S_out, q_mid = np.array([30.0, 45.0, 60.0]), np.full(3, 1e7)
    alive = np.ones(3, dtype=bool)
    surf.policy_speeds(level, q_mid, S_out, alive)
    np.testing.assert_array_equal(alive, [False, True, False])
    alive = np.ones(3, dtype=bool)
    v = tv.policy_speeds(level, q_mid, S_out, alive)
    assert alive.all()
    nodes = tv.node_prices(level)
    np.testing.assert_array_equal(
        v, [tree_policy(tv, level, s, 1e7) for s in (nodes[0], 45.0, nodes[-1])])

    q = np.array([0.0, 5e6, 1e7, 1.5e7, 2e7])
    alive = np.ones(5, dtype=bool)
    v = tv.policy_speeds(level, q, nodes, alive)
    assert alive.all() and np.any(v != 0)
    np.testing.assert_array_equal(
        v, [tree_policy(tv, level, s, qi) for s, qi in zip(nodes, q)])
    np.testing.assert_array_equal(tv.policy_speeds(tv.J, q, nodes, alive),
                                  tv.policy_speeds(tv.J - 1, q, nodes, alive))

    q, S = np.array([-2e6, 3.3e6, 1e7, 2.2e7]), np.array([36.0, 44.1, 47.3, 54.0])
    alive = np.ones(4, dtype=bool)
    v = surf.policy_speeds(level, q, S, alive)
    assert alive.all() and np.any(v != 0)
    np.testing.assert_array_equal(v, surf.policy(surf.t_grid[level], q, S))


# ---------------------------------------------------------------------------
# wealth decomposition


def test_wealth_identity_exact_when_not_trading():
    cost = COST
    # r = 0, sigma > 0: both sides telescope to the same sum
    m = MarketParams(S0=45.0, sigma=0.5, volume=4e6, rho_max=5.0, mu=0.01)
    rng = np.random.default_rng(11)
    n = 252
    t = np.linspace(0.0, 63.0, n + 1)
    dS = 0.01 * np.diff(t) + 0.5 * np.sqrt(np.diff(t)) * rng.standard_normal(n)
    S = 45.0 + np.concatenate([[0.0], np.cumsum(dS)])
    q = np.full(n + 1, 1e7)
    assert wealth_decomposition_check(t, S, q, np.zeros(n), m, cost) == 0.0

    # r > 0 with a frozen price: discounting is handled exactly
    m2 = types.SimpleNamespace(r=0.02, mu=0.0, sigma=0.0,
                               volume=VolumeCurve.constant(4e6))
    S2 = np.full(n + 1, 45.0)
    res = wealth_decomposition_check(t, S2, q, np.zeros(n), m2, cost, x0=3e6)
    assert abs(res) < 1e-5

    # a zero-volume interval that does not trade pays nothing (no 0/0)
    gap = VolumeCurve([0, 4, 6], [4e6, 0, 4e6])
    m3 = MarketParams(S0=45.0, sigma=0.5, volume=gap, rho_max=5.0, mu=0.01)
    t8 = np.linspace(0.0, 8.0, 17)
    S8 = 45.0 + np.concatenate([[0.0], np.cumsum(rng.standard_normal(16))])
    q8 = np.full(17, 1e7)
    assert wealth_decomposition_check(t8, S8, q8, np.zeros(16), m3, cost) == 0.0


def test_wealth_identity_residual_linear_in_dt():
    m = MarketParams(S0=45.0, sigma=0.6, volume=4e6, rho_max=5.0,
                     mu=0.01, r=2e-4)
    n_fine, T = 512, 63.0
    rng = np.random.default_rng(7)
    W = np.concatenate([[0.0], np.cumsum(
        math.sqrt(T / n_fine) * rng.standard_normal(n_fine))])
    t_fine = np.linspace(0.0, T, n_fine + 1)
    S_fine = 45.0 + 0.01 * t_fine + 0.6 * W

    residuals = []
    for lev in (64, 128, 256, 512):
        stride = n_fine // lev
        t, S = t_fine[::stride], S_fine[::stride]
        v = np.full(lev, -1e7 / T)  # linear liquidation of q0
        q = 1e7 + np.concatenate([[0.0], np.cumsum(v * np.diff(t))])
        residuals.append(abs(wealth_decomposition_check(t, S, q, v, m, COST)))
    # halving dt halves the residual on the same Brownian path
    for coarse, fine in zip(residuals, residuals[1:]):
        assert fine < 0.6 * coarse


def test_wealth_identity_validates_inputs():
    m = MarketParams(S0=45.0, sigma=0.5, volume=4e6, rho_max=5.0)
    t = np.linspace(0.0, 10.0, 6)
    S = np.full(6, 45.0)
    q = np.full(6, 1e6)
    with pytest.raises(ValueError):
        wealth_decomposition_check(t, S, q, np.zeros(4), m, COST)
    jump = q.copy()
    jump[3] += 5e5
    with pytest.raises(ValueError):
        wealth_decomposition_check(t, S, jump, np.zeros(5), m, COST)
