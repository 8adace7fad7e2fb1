"""Monte-Carlo harness tests: path generation, TWAP fills, the two hedging
runners, and the discrete wealth-decomposition identity."""

import ctypes
import math
import random
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liqhedge.model import VolumeCurve, bachelier_price
from liqhedge import simulate
from liqhedge.pde import GridSpec, solve_theta
from liqhedge.simulate import (
    PathConfig,
    PnLStats,
    run_delta_hedge,
    run_policy_hedge,
    simulate_price_paths,
    _each_state,
    _normal_matrix,
    _pcg64_states,
    _twap_matrix,
)
from liqhedge.tree import TreeConfig, solve_tree
from oracles import reference_payoff, wealth_decomposition_check


def zero_penalty(q):
    return np.zeros(np.shape(q))


def fee_free(pay):
    """The same problem with no execution fee and the same terminal payoff."""
    return pay.replace(eta=0.0, psi=0.0, penalty=pay.liquidation)


# ---------------------------------------------------------------------------
# price paths


def test_price_paths_shape_start_and_moments():
    market = reference_payoff(mu=0.02).market
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
    market = reference_payoff().market
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
@given(seed=SEEDS, start=st.one_of(st.just(0), st.integers(0, 2**32 - 40)),
       n_paths=st.integers(1, 40), n=st.integers(1, 300),
       stream=st.sampled_from([0, 1]))
def test_normal_matrix_matches_per_path_generators(seed, start, n_paths, n, stream):
    # numpy's own construction, one generator per path, is the reference:
    # a change in numpy's SeedSequence or PCG64 seeding must fail here
    expected = np.array([
        np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((seed, i, stream)))).standard_normal(n)
        for i in range(start, start + n_paths)])
    got = _normal_matrix(seed, start, start + n_paths, n, stream)
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_normal_matrix_blocks_are_rows_of_the_whole():
    # the paths [a, b) of a block draw rows a..b-1 of the whole matrix, bit
    # for bit, on uneven blocks down to one path; the whole matches each
    # path's own generator
    seed, n, stream = 2**33 + 9, 3, 1
    whole = _normal_matrix(seed, 0, 1100, n, stream)
    expected = np.array([
        np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((seed, i, stream)))).standard_normal(n)
        for i in range(1100)])
    np.testing.assert_array_equal(whole.view(np.uint64), expected.view(np.uint64))
    for a, b in [(0, 1), (1, 513), (513, 1099), (1099, 1100)]:
        np.testing.assert_array_equal(
            _normal_matrix(seed, a, b, n, stream).view(np.uint64),
            whole[a:b].view(np.uint64))


def test_state_words_round_trip():
    # every (state, inc) the writer copies in reads back through numpy's
    # own getter, whatever the order of the words in the generator's memory
    rng = random.Random(5)
    pairs = [(0, 0), (2**64 - 1, 2**64), (2**64, 2**128 - 1),
             (2**128 - 1, 2**64 - 1)]
    pairs += [(rng.getrandbits(128), rng.getrandbits(128)) for _ in range(4)]
    states, incs = zip(*pairs)

    def split(values):
        return (np.array([v >> 64 for v in values], dtype=np.uint64),
                np.array([v & 2**64 - 1 for v in values], dtype=np.uint64))

    bitgen = np.random.PCG64()
    for (state, inc), _ in zip(pairs, _each_state(bitgen, (*split(states), *split(incs))),
                               strict=True):
        assert bitgen.state["state"] == {"state": state, "inc": inc}


def test_state_writer_refuses_memory_without_the_known_words():
    # a stand-in generator whose state pointer leads to four other words:
    # the writer raises before its first copy and leaves them as they were
    words = (ctypes.c_uint64 * 4)(1, 2, 3, 4)
    pair = ctypes.c_void_p(ctypes.addressof(words))
    fake = types.SimpleNamespace(
        ctypes=types.SimpleNamespace(state_address=ctypes.addressof(pair)))
    with pytest.raises(RuntimeError, match="does not hold"):
        next(_each_state(fake, _pcg64_states(0, 0, 3, 0)))
    assert list(words) == [1, 2, 3, 4]


# ---------------------------------------------------------------------------
# TWAP fills


def alternating_path(a, b, n):
    """One path whose n intervals all run between a and b."""
    return np.where(np.arange(n + 1) % 2 == 0, a, b)[None, :]


def test_twap_fill_law():
    # one path, so one generator draws all n fills
    n = 1_000_000
    sigma, dt = 0.6, 0.25
    var = sigma**2 * dt / 12.0
    se_mean = math.sqrt(var / n)
    se_var = var * math.sqrt(2.0 / (n - 1))
    fills = _twap_matrix(alternating_path(45.0, 46.0, n), sigma, dt, seed=42)
    assert abs(np.mean(fills) - 45.5) < 4 * se_mean
    assert abs(np.var(fills, ddof=1) - var) < 4 * se_var


def test_twap_fill_zero_length_interval_is_midpoint():
    assert _twap_matrix(np.array([[45.0, 46.0]]), 0.6, 0.0, seed=0) == 45.5


# ---------------------------------------------------------------------------
# config validation


def test_config_validation():
    with pytest.raises(ValueError, match="need n_paths >= 2 and n_obs >= 2"):
        PathConfig(n_paths=0)
    with pytest.raises(ValueError, match="n_paths >= 2"):
        PathConfig(n_paths=1)  # a one-sample cost variance is undefined
    with pytest.raises(ValueError, match="need n_paths >= 2 and n_obs >= 2"):
        PathConfig(n_obs=1)
    with pytest.raises(ValueError, match="M must be >= 2"):
        PathConfig(M=1)
    with pytest.raises(ValueError, match="variance must be nonnegative"):
        PnLStats("delta", 10, 0.0, -1.0, 0.0, 10, 0)
    for bad in (math.inf, -math.inf, math.nan):
        for stats in ((bad, 1.0, 0.0), (0.0, bad, 0.0), (0.0, 1.0, bad)):
            with pytest.raises(ValueError, match="non-finite cost statistics"):
                PnLStats("delta", 10, *stats, 10, 0)


# ---------------------------------------------------------------------------
# delta-hedge benchmark


def test_delta_hedge_requires_M_and_flat_market():
    pay = reference_payoff()
    with pytest.raises(ValueError, match="PathConfig.M is required"):
        run_delta_hedge(pay, PathConfig(n_paths=10))
    with pytest.raises(ValueError, match="defined for k = 0"):
        run_delta_hedge(reference_payoff(k=1e-7), PathConfig(n_paths=10, M=10))


def test_delta_hedge_deep_itm_tiny_vol():
    # delta pins at 1, so no rebalancing trades happen and the terminal
    # stock leg cancels path by path: cost = N*(S0 - K) exactly
    pay = reference_payoff(sigma=1e-12, S0=50.0, q0=0.0)
    st = run_delta_hedge(pay, PathConfig(n_paths=50, seed=1, M=10))
    assert st.mean_cost == pytest.approx(2e7 * 5.0, rel=1e-12)
    assert st.var_cost < 1e-6
    assert st.exec_cost_mean == 0.0
    assert st.strategy == "delta" and st.M == 10 and st.n == 50


def test_delta_hedge_execution_fees_increase_cost():
    pay = reference_payoff(q0=0.0)
    cfg = PathConfig(n_paths=500, seed=2, M=20)
    with_fees = run_delta_hedge(pay, cfg)
    without = run_delta_hedge(fee_free(pay), cfg)
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
    pay = reference_payoff(q0=0.0, eta=0.0, penalty=zero_penalty)
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
    pay = reference_payoff(q0=0.0)
    cfg = PathConfig(n_paths=300, seed=9, M=15)
    assert run_delta_hedge(pay, cfg) == run_delta_hedge(pay, cfg)


def test_delta_hedge_rejects_trading_on_zero_volume():
    # the ladder ignores the cap, so it trades on [21, 42) where V = 0
    pay = reference_payoff(volume=VolumeCurve([0.0, 21.0, 42.0], [4e6, 0.0, 4e6]))
    cfg = PathConfig(n_paths=20, seed=1, M=3)
    with pytest.raises(ValueError, match=r"zero-volume interval \[21, 42\)"):
        run_delta_hedge(pay, cfg)


# ---------------------------------------------------------------------------
# policy runner


def test_policy_hedge_no_trades_at_zero_cap():
    # rho_max = 0 makes trading structurally impossible: the tree controls
    # are all zero and the cost reduces to holding q0 against the payoff
    pay = reference_payoff(rho_max=0.0, penalty=zero_penalty)
    tv = solve_tree(pay, TreeConfig(dt=1.0))
    assert all(not np.any(cm) for cm in tv.control_mult)

    cfg = PathConfig(n_paths=400, n_obs=64, seed=5)
    st = run_policy_hedge(pay, tv, cfg)
    S = simulate_price_paths(pay.market, cfg, 63.0)
    held = pay.terminal(1e7, S[:, -1]) + 1e7 * (S[:, 0] - S[:, -1])
    assert st.mean_cost == pytest.approx(float(np.mean(held)), rel=1e-12)
    assert st.exec_cost_mean == 0.0
    assert st.excluded == 0 and st.n == 400


def test_policy_hedge_on_a_one_node_inventory_grid():
    # N = 0 with mu = r = 0 and no q bounds leaves the tree one inventory
    # node, so dq = 0: the policy read must not divide by it (the suite
    # turns a RuntimeWarning into an error)
    tv = solve_tree(reference_payoff(T=4.0, N=0.0, q0=0.0), TreeConfig(dt=1.0))
    assert tv.qgrid.size == 1 and tv.dq == 0.0
    st = run_policy_hedge(tv.payoff, tv, PathConfig(n_paths=50, n_obs=5, seed=3))
    assert st.excluded == 0 and st.n == 50
    assert st.mean_cost == 0.0 and st.var_cost == 0.0 and st.exec_cost_mean == 0.0


def test_policy_hedge_solution_must_match_path_grid():
    pay = reference_payoff()
    tv = solve_tree(pay, TreeConfig(dt=1.0))  # 63 levels
    with pytest.raises(ValueError, match="time grid must match the path grid"):
        run_policy_hedge(pay, tv, PathConfig(n_paths=10, n_obs=253))
    surf = solve_theta(pay, GridSpec(40.0, 50.0, 16, 0.0, 2e7, 9, 12))
    with pytest.raises(ValueError, match="time grid must match the path grid"):
        run_policy_hedge(pay, surf, PathConfig(n_paths=10, n_obs=14))
    with pytest.raises(TypeError, match="must be a ThetaSurface or TreeValue"):
        run_policy_hedge(pay, object(), PathConfig(n_paths=10, n_obs=64))
    with pytest.raises(ValueError, match="hedging runs on k = 0 problems"):
        run_policy_hedge(reference_payoff(k=1e-7), tv, PathConfig(n_paths=10, n_obs=64))


def test_policy_hedge_hull_exits_are_excluded():
    # deliberately tight price hull: leavers must be dropped and counted
    pay = reference_payoff()
    surf = solve_theta(pay, GridSpec(38.0, 52.0, 57, 0.0, 2e7, 41, 63))
    cfg = PathConfig(n_paths=400, n_obs=64, seed=4)
    st = run_policy_hedge(pay, surf, cfg)
    assert 0 < st.excluded < cfg.n_paths
    assert st.n + st.excluded == cfg.n_paths
    assert st.var_cost >= 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_policy_hedge_raises_when_every_path_leaves_the_hull():
    pay = reference_payoff()
    surf = solve_theta(pay, GridSpec(44.9, 45.1, 5, 0.0, 2e7, 9, 63))
    with pytest.raises(ValueError, match="every path left"):
        run_policy_hedge(pay, surf, PathConfig(n_paths=50, n_obs=64, seed=4))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_policy_hedge_raises_when_one_path_stays_in_the_hull():
    # 2 of 3 paths leave the price hull [42, 48]; the one left has no
    # sample variance, which used to be reported as 0
    pay = reference_payoff()
    surf = solve_theta(pay, GridSpec(42.0, 48.0, 5, 0.0, 2e7, 9, 63))
    with pytest.raises(ValueError, match="one path stayed"):
        run_policy_hedge(pay, surf, PathConfig(n_paths=3, n_obs=64, seed=3))


def test_hedge_statistics_pinned():
    # bit-for-bit regression of both runners on one small drifting,
    # compounding problem: the delta ladder with and without fees, and the
    # policy read off a tree and off a PDE surface (21x11 grid)
    pay = reference_payoff(T=4.0, mu=0.05 / 252, r=0.02 / 252, psi=0.01)
    cfg = PathConfig(n_paths=200, n_obs=5, seed=1, M=4)
    tv = solve_tree(pay, TreeConfig(dt=1.0, alpha=1.5, dq=1e5, q_min=0.0, q_max=2e7))
    surf = solve_theta(pay, GridSpec(S_min=36.0, S_max=54.0, n_S=21, q_min=-2e6,
                                     q_max=2.2e7, n_q=11, n_t=4))
    assert run_delta_hedge(pay, cfg) == PnLStats(
        "delta", 4, 12803213.836179059, 24501810246417.33, 1353167.052648426,
        200, 1, 0)
    assert run_delta_hedge(fee_free(pay), cfg) == PnLStats(
        "delta", 4, 11449946.609586935, 21502663025306.258, 0.0, 200, 1, 0)
    assert run_policy_hedge(pay, tv, cfg) == PnLStats(
        "policy", 4, 12467088.19831173, 23736363758553.637, 945433.4612244987,
        200, 1, 0)
    assert run_policy_hedge(pay, surf, cfg) == PnLStats(
        "policy", 4, 12489605.244971642, 22414315611114.11, 608086.0358853298,
        200, 1, 0)


# ---------------------------------------------------------------------------
# path blocks


def block_problem():
    """Drift, compounding, psi > 0 and a PDE price hull some paths leave."""
    pay = reference_payoff(T=4.0, mu=0.05 / 252, r=0.02 / 252, psi=0.01)
    tv = solve_tree(pay, TreeConfig(dt=0.5, alpha=1.5, dq=1e6, q_min=0.0,
                                    q_max=2e7))
    surf = solve_theta(pay, GridSpec(S_min=42.5, S_max=47.5, n_S=21, q_min=-2e6,
                                     q_max=2.2e7, n_q=11, n_t=8))
    return pay, tv, surf


def blocks_of(monkeypatch, rows: int, n_obs: int, ladder: int = 0):
    """Patch the block budget so that a walk over n_obs points takes `rows`
    paths a block."""
    monkeypatch.setattr(simulate, "_BLOCK_BYTES", 8 * (2 * n_obs - 1 + ladder) * rows)


class BlockSpy:
    """A solution whose policy reads record, per block, the steps on which
    some path of the block trades and whether a path left the hull."""

    def __init__(self, solution):
        self.solution = solution
        self.t_grid = solution.t_grid
        self.trades, self.exits = {}, []

    def policy_speeds(self, level, q, S, alive):
        if level == 0:  # a block's first step
            self.exits.append(False)
        v = self.solution.policy_speeds(level, q, S, alive)
        self.trades[len(self.exits) - 1, level] = bool(np.count_nonzero(v))
        self.exits[-1] = not alive.all()
        return v


def test_blocks_give_the_one_block_statistics(monkeypatch):
    # 7 paths a block and a last block of one; the one-block run is the
    # reference, compared with ==
    pay, tv, surf = block_problem()
    rows, n_paths = 7, 7 * 9 + 1
    cfg = PathConfig(n_paths=n_paths, n_obs=9, seed=3, M=8)
    whole = {"delta": run_delta_hedge(pay, cfg),
             "fee-free": run_delta_hedge(fee_free(pay), cfg),
             "tree": run_policy_hedge(pay, tv, cfg),
             "pde": run_policy_hedge(pay, surf, cfg)}

    blocks_of(monkeypatch, rows, 9, ladder=8)
    assert run_delta_hedge(pay, cfg) == whole["delta"]
    assert run_delta_hedge(fee_free(pay), cfg) == whole["fee-free"]
    blocks_of(monkeypatch, rows, 9)
    spies = {"tree": BlockSpy(tv), "pde": BlockSpy(surf)}
    for name, spy in spies.items():
        assert run_policy_hedge(pay, spy, cfg) == whole[name]
        blocks = len(spy.exits)
        assert blocks == n_paths // rows + 1  # the last block holds one path
        # on some step the run trades but one block has no trading path, so
        # that block skips the fee its paths would pay as 0.0 in one block
        assert any(not spy.trades[b, i] and any(spy.trades[c, i] for c in range(blocks))
                   for b, i in spy.trades)
    # hull exits fall in some blocks and not in others
    exits = spies["pde"].exits
    assert whole["pde"].excluded > 0 and any(exits) and not all(exits)


def test_zero_volume_error_names_the_earliest_interval_of_all_blocks(monkeypatch):
    # paths 0-2 trade on the zero-volume [2, 3), paths 3-5 on the earlier
    # [1, 2): only the second block reaches the interval one block names
    pay = reference_payoff(T=4.0, q0=0.0,
                           volume=VolumeCurve([0.0, 1.0, 3.0], [4e6, 0.0, 4e6]))
    cfg = PathConfig(n_paths=6, n_obs=5, seed=0)

    def hedge_block(S, twap, rows):
        late = np.arange(rows.start, rows.stop) >= 3

        def trade(i, q):
            return np.where(late == (i == 1), 1e5, 0.0) if i in (1, 2) else 0.0

        return simulate._hedge(pay, S, twap, np.zeros(len(S)), trade, per=1.0)

    for rows in (6, 3):
        blocks_of(monkeypatch, rows, cfg.n_obs)
        with pytest.raises(ValueError, match=r"zero-volume interval \[1, 2\)"):
            simulate._walk(pay, cfg, hedge_block)

    # the delta ladder, one path a block, names the interval one block does
    pay = reference_payoff(volume=VolumeCurve([0.0, 21.0, 42.0], [4e6, 0.0, 4e6]))
    blocks_of(monkeypatch, 1, 4, ladder=3)
    with pytest.raises(ValueError, match=r"zero-volume interval \[21, 42\)"):
        run_delta_hedge(pay, PathConfig(n_paths=5, seed=1, M=3))


def test_policy_run_holds_a_block_not_the_whole_run():
    # tracemalloc sees numpy's buffers: 6,000 paths x 253 points would take
    # 23.2 MiB as whole-run price and TWAP matrices; the walk holds one
    # block's 8 MiB of them and a few full-length vectors
    pay = reference_payoff(T=2.52, volume=2e7)
    tv = solve_tree(pay, TreeConfig(dt=0.01, dq=1e6, q_min=0.0, q_max=2e7))
    cfg = PathConfig(n_paths=6000, n_obs=253, seed=0)
    assert 2 * 8 * cfg.n_paths * cfg.n_obs > 2.5 * simulate._BLOCK_BYTES
    tracemalloc.start()
    try:
        st = run_policy_hedge(pay, tv, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert st.n + st.excluded == cfg.n_paths
    assert peak < 1.5 * simulate._BLOCK_BYTES


def test_policy_speeds_read_both_engines():
    # the per-path policy read the simulator calls: q outside either grid
    # and S outside the PDE hull clear `alive`; the tree clips S to its
    # nodes; inside, each engine returns its own scalar policy read
    pay = reference_payoff(T=4.0)
    tv = solve_tree(pay, TreeConfig(dt=1.0, alpha=1.5, dq=1e5, q_min=0.0, q_max=2e7))
    surf = solve_theta(pay, GridSpec(S_min=36.0, S_max=54.0, n_S=21, q_min=-2e6,
                                     q_max=2.2e7, n_q=11, n_t=4))
    level = 2
    t = tv.t_grid[level]

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
        v, [tv.policy(t, 1e7, s) for s in (nodes[0], 45.0, nodes[-1])])

    q = np.array([0.0, 5e6, 1e7, 1.5e7, 2e7])
    alive = np.ones(5, dtype=bool)
    v = tv.policy_speeds(level, q, nodes, alive)
    assert alive.all() and np.any(v != 0)
    np.testing.assert_array_equal(
        v, [tv.policy(t, qi, s) for s, qi in zip(nodes, q)])
    np.testing.assert_array_equal(tv.policy_speeds(tv.J, q, nodes, alive),
                                  tv.policy_speeds(tv.J - 1, q, nodes, alive))

    q, S = np.array([-2e6, 3.3e6, 1e7, 2.2e7]), np.array([36.0, 44.1, 47.3, 54.0])
    alive = np.ones(4, dtype=bool)
    v = surf.policy_speeds(level, q, S, alive)
    assert alive.all() and np.any(v != 0)
    np.testing.assert_array_equal(v, surf.policy(surf.t_grid[level], q, S))


def test_policy_speeds_drop_nan_paths(small_surface):
    # a NaN q or S fails every hull test, so its path leaves `alive` in
    # either engine, and no NaN or inf reaches an int cast (no warning);
    # the finite path reads its scalar policy; the tree clips +-inf S to
    # its top and bottom nodes
    tv = solve_tree(reference_payoff(T=4.0),
                    TreeConfig(dt=1.0, alpha=1.5, dq=1e5, q_min=0.0, q_max=2e7))
    surf, level = small_surface, 2
    q, S = np.array([1e7, np.nan, 1e7]), np.array([45.0, 45.0, np.nan])
    for sol, want in ((tv, tv.policy(tv.t_grid[level], 1e7, 45.0)),
                      (surf, surf.policy(surf.t_grid[level], 1e7, 45.0))):
        alive = np.ones(3, dtype=bool)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = sol.policy_speeds(level, q, S, alive)
        np.testing.assert_array_equal(alive, [True, False, False])
        assert v[0] == want

    alive = np.ones(2, dtype=bool)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = tv.policy_speeds(level, np.full(2, 1e7), np.array([-np.inf, np.inf]), alive)
    nodes = tv.node_prices(level)
    assert alive.all()
    np.testing.assert_array_equal(
        v, [tv.policy(tv.t_grid[level], 1e7, s) for s in (nodes[0], nodes[-1])])


@pytest.fixture(scope="module")
def small_surface():
    return solve_theta(reference_payoff(T=4.0),
                       GridSpec(S_min=36.0, S_max=54.0, n_S=21, q_min=-2e6,
                                q_max=2.2e7, n_q=11, n_t=4))


def grid_points(lo, hi):
    """Both edges, points inside and points off either side."""
    span = hi - lo
    return st.one_of(st.sampled_from([lo, hi]),
                     st.floats(lo - span, hi + span, allow_nan=False),
                     st.sampled_from([-math.inf, math.inf]))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), level=st.integers(0, 4))
def test_policy_speeds_is_the_clipped_point_read(small_surface, data, level):
    surf, g = small_surface, small_surface.grid
    n = data.draw(st.integers(1, 12))
    q = np.array(data.draw(st.lists(grid_points(g.q_min, g.q_max),
                                    min_size=n, max_size=n)))
    S = np.array(data.draw(st.lists(grid_points(g.S_min, g.S_max),
                                    min_size=n, max_size=n)))
    alive0 = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    alive = alive0.copy()
    v = surf.policy_speeds(level, q, S, alive)
    off = (q < g.q_min) | (q > g.q_max) | (S < g.S_min) | (S > g.S_max)
    np.testing.assert_array_equal(alive, alive0 & ~off)
    want = surf.policy(surf.t_grid[level], np.clip(q, g.q_min, g.q_max),
                       np.clip(S, g.S_min, g.S_max))
    np.testing.assert_array_equal(v.view(np.uint64), want.view(np.uint64))


def test_tree_policy_speeds_is_the_point_read():
    # at dt = 0.3 the speed per grid step dq/dt = 1e4/0.3 is inexact, so
    # mult*dq/dt and mult*(dq/dt) differ in the last bit on about 5,900 of
    # the 19,841 trading nodes; the simulator's read must be policy's
    pay = reference_payoff(T=3.0, N=2e6, gamma=2e-6, q0=1e6, volume=4e5)
    tv = solve_tree(pay, TreeConfig(dt=0.3))
    assert tv.dq == 1e4
    for j in range(tv.J):
        S = tv.node_prices(j)
        q, S = np.repeat(tv.qgrid, S.size), np.tile(S, tv.qgrid.size)
        alive = np.ones(q.size, dtype=bool)
        v = tv.policy_speeds(j, q, S, alive)
        assert alive.all()
        want = np.array([tv.policy(tv.t_grid[j], qi, si) for qi, si in zip(q, S)])
        np.testing.assert_array_equal(v.view(np.uint64), want.view(np.uint64))


# ---------------------------------------------------------------------------
# wealth decomposition


def test_wealth_identity_exact_when_not_trading():
    # r = 0, sigma > 0: both sides telescope to the same sum
    pay = reference_payoff(sigma=0.5, mu=0.01)
    m, cost = pay.market, pay.cost
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
    m3 = reference_payoff(sigma=0.5, volume=gap, mu=0.01).market
    t8 = np.linspace(0.0, 8.0, 17)
    S8 = 45.0 + np.concatenate([[0.0], np.cumsum(rng.standard_normal(16))])
    q8 = np.full(17, 1e7)
    assert wealth_decomposition_check(t8, S8, q8, np.zeros(16), m3, cost) == 0.0


@pytest.mark.parametrize("seed, ratio", [(7, 0.6), (21, 0.65), (99, 0.65)])
def test_wealth_identity_residual_linear_in_dt(seed, ratio):
    pay = reference_payoff(mu=0.01, r=2e-4)
    m, cost = pay.market, pay.cost
    n_fine, T = 512, 63.0
    rng = np.random.default_rng(seed)
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
        residuals.append(abs(wealth_decomposition_check(t, S, q, v, m, cost)))
    # halving dt halves the residual on the same Brownian path
    for coarse, fine in zip(residuals, residuals[1:]):
        assert fine < ratio * coarse, residuals


def test_wealth_identity_validates_inputs():
    pay = reference_payoff(sigma=0.5)
    m, cost = pay.market, pay.cost
    t = np.linspace(0.0, 10.0, 6)
    S = np.full(6, 45.0)
    q = np.full(6, 1e6)
    with pytest.raises(ValueError, match=r"need len\(S\) = len\(q\)"):
        wealth_decomposition_check(t, S, q, np.zeros(4), m, cost)
    jump = q.copy()
    jump[3] += 5e5
    with pytest.raises(ValueError, match="inconsistent with the speed schedule"):
        wealth_decomposition_check(t, S, jump, np.zeros(5), m, cost)
