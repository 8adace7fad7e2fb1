"""The paper's numbers, end to end: the reference prices on both engines,
the sweeps over eta, gamma, q0, rho_max, settlement and permanent impact,
the Monte-Carlo table and the hedging trajectories along the bundled path.

Every number asserted here was either computed from a closed form in
this repository or frozen after cross-validation of the two engines;
tolerances are part of the contract and must not be loosened. Two
building blocks are checked here too: the Hamiltonian against a grid search
and the law of the TWAP fills. The other structural bounds (closed forms,
convexity, price floors) are each checked once, in the engine test files.
The expensive
solves are shared through fixtures: the reference tree and PDE surface per
session (conftest.py), the other solves per module.
"""

import math

import numpy as np
import pytest

from liqhedge.fixtures import reference_path
from liqhedge.impact import solve_with_impact
from liqhedge.model import ExecutionCost, bachelier_price
from liqhedge.pde import GridSpec, solve_theta
from liqhedge.simulate import (
    PathConfig,
    policy_trajectory,
    run_delta_hedge,
    run_policy_hedge,
    _twap_matrix,
)
from liqhedge.tree import TreeConfig, solve_tree
from oracles import hamiltonian, hamiltonian_zoom_search, reference_payoff

N = 2e7


def tree_price(tv, q0=None):
    return tv.price(0.0, tv.payoff.contract.q0 if q0 is None else q0, 45.0) / N


# ---------------------------------------------------------------------------
# shared solves


@pytest.fixture(scope="module")
def tree_slow():
    # participation capped at 50% of market volume
    return solve_tree(reference_payoff(rho_max=0.5), TreeConfig())


@pytest.fixture(scope="module")
def tree_cash_slow():
    return solve_tree(reference_payoff(rho_max=0.5, settlement="cash"), TreeConfig())


@pytest.fixture(scope="module")
def tree_cash():
    return solve_tree(reference_payoff(settlement="cash"), TreeConfig())


@pytest.fixture(scope="module")
def eta_trees():
    return {eta: solve_tree(reference_payoff(eta=eta), TreeConfig())
            for eta in (0.2, 0.05, 0.01)}


@pytest.fixture(scope="module")
def pde_matched():
    # same time step as the tree (0.25 days) and the same inventory
    # spacing (1e5 shares), with the price step halved
    pay = reference_payoff()
    return solve_theta(pay, GridSpec.default(pay, n_S=481, n_q=241))


@pytest.fixture(scope="module")
def mc_results(reference_surface):
    pay = reference_payoff()
    delta = {M: run_delta_hedge(pay, PathConfig(M=M)) for M in
             (10, 20, 40, 80, 160)}
    policy = run_policy_hedge(pay, reference_surface, PathConfig())
    return delta, policy


# ---------------------------------------------------------------------------
# pricing


def test_bachelier_closed_form_reference_value():
    assert bachelier_price(45.0, 45.0, 0.6, 63.0) == pytest.approx(1.900, abs=1e-3)


def test_tree_price_reference_scenario(reference_tree):
    assert tree_price(reference_tree) == pytest.approx(2.060, abs=0.03)


def test_pde_price_reference_scenario(reference_surface, pde_matched, reference_tree):
    assert reference_surface.price(0.0, 1e7, 45.0) / N == pytest.approx(2.067, abs=0.05)
    gap = pde_matched.price(0.0, 1e7, 45.0) / N - tree_price(reference_tree)
    assert abs(gap) <= 0.02


def test_execution_cost_sweep(reference_tree, eta_trees):
    targets = {0.2: 2.144, 0.1: 2.060, 0.05: 2.007, 0.01: 1.943}
    prices = {0.1: tree_price(reference_tree)}
    prices.update({eta: tree_price(tv) for eta, tv in eta_trees.items()})
    for eta, want in targets.items():
        assert prices[eta] == pytest.approx(want, abs=0.03), f"eta={eta}"
    ordered = [prices[eta] for eta in (0.2, 0.1, 0.05, 0.01)]
    assert all(b < a for a, b in zip(ordered, ordered[1:]))

    # with both frictions and risk aversion switched off the price
    # collapses to the frictionless closed form
    tv = solve_tree(reference_payoff(eta=1e-6, gamma=1e-12), TreeConfig())
    assert tree_price(tv) == pytest.approx(
        bachelier_price(45.0, 45.0, 0.6, 63.0), abs=0.01)


def test_risk_aversion_sweep(reference_tree):
    targets = [(1e-8, 1.955), (2e-8, 1.968), (5e-8, 1.994), (2e-7, 2.060),
               (1e-6, 2.207), (2e-6, 2.308), (5e-6, 2.521)]
    prices = []
    for gamma, want in targets:
        if gamma == 2e-7:
            p = tree_price(reference_tree)
        else:
            p = tree_price(solve_tree(reference_payoff(gamma=gamma), TreeConfig()))
        assert p == pytest.approx(want, abs=0.03), f"gamma={gamma}"
        prices.append(p)
    assert all(b > a for a, b in zip(prices, prices[1:]))


def test_initial_inventory_and_participation_prices(reference_tree, tree_slow):
    empty_fast = tree_price(reference_tree, 0.0)
    half_fast = tree_price(reference_tree, 1e7)
    empty_slow = tree_price(tree_slow, 0.0)
    half_slow = tree_price(tree_slow, 1e7)
    assert empty_fast == pytest.approx(2.182, abs=0.05)
    assert empty_slow == pytest.approx(2.653, abs=0.05)
    assert half_fast == pytest.approx(2.060, abs=0.05)
    assert half_slow == pytest.approx(2.100, abs=0.05)
    assert empty_slow > empty_fast > half_slow > half_fast


def test_settlement_prices(tree_slow, tree_cash_slow):
    cash = tree_price(tree_cash_slow)
    physical = tree_price(tree_slow)
    assert cash == pytest.approx(2.401, abs=0.05)
    assert physical == pytest.approx(2.100, abs=0.05)
    assert cash > physical


def test_permanent_impact_price(pde_matched):
    pay = reference_payoff(k=3e-7)
    sol = solve_with_impact(pay, "pde",
                            grid=GridSpec.default(pay, n_S=481, n_q=241))
    per_share = sol.price / N
    assert per_share == pytest.approx(2.689, abs=0.06)
    assert per_share > pde_matched.price(0.0, 1e7, 45.0) / N


# ---------------------------------------------------------------------------
# building blocks


def test_hamiltonian_matches_brute_force():
    rng = np.random.default_rng(12345)
    for draw in range(100):
        cost = ExecutionCost(eta=float(rng.uniform(0.01, 0.5)),
                             phi=float(rng.uniform(0.3, 1.5)),
                             psi=float(rng.uniform(0.0, 0.05)))
        rho_max = float(rng.uniform(0.5, 10.0))
        p = float(rng.uniform(-3.0, 3.0))
        h, _ = hamiltonian(cost, p, rho_max)
        reference = hamiltonian_zoom_search(cost, p, rho_max)
        assert h >= reference - 1e-12, draw
        assert abs(h - reference) <= 1e-6 * max(abs(reference), 1e-9), draw


def test_twap_law_moments():
    n = 1_000_000
    sigma, dt = 0.6, 0.25
    # one path, so one generator draws all n fills
    S = np.where(np.arange(n + 1) % 2 == 0, 44.2, 45.1)[None, :]
    fills = _twap_matrix(S, sigma, dt, seed=7)
    mean, var = 0.5 * (44.2 + 45.1), sigma**2 * dt / 12.0
    assert abs(np.mean(fills) - mean) < 4 * math.sqrt(var / n)
    assert abs(np.var(fills, ddof=1) - var) < 4 * var * math.sqrt(2.0 / (n - 1))


# ---------------------------------------------------------------------------
# Monte Carlo


def test_delta_hedge_mean_cost_increases_with_rebalancing(mc_results):
    delta, _ = mc_results
    means = [delta[M].mean_cost for M in (10, 20, 40, 80, 160)]
    assert all(b > a for a, b in zip(means, means[1:]))


def test_delta_hedge_variance_unimodal(mc_results):
    delta, _ = mc_results
    variances = [delta[M].var_cost for M in (10, 20, 40, 80, 160)]
    i = int(np.argmin(variances))
    assert 0 < i < len(variances) - 1
    assert all(b < a for a, b in zip(variances[:i + 1], variances[1:i + 1]))
    assert all(b > a for a, b in zip(variances[i:], variances[i + 1:]))


def test_policy_beats_delta_hedge_variance(mc_results):
    delta, policy = mc_results
    assert policy.var_cost < min(st.var_cost for st in delta.values())
    assert policy.excluded <= 0.001 * 10_000


def test_policy_mean_cost_near_delta_hedge(mc_results):
    delta, policy = mc_results
    anchor = delta[40].mean_cost
    assert abs(policy.mean_cost - anchor) <= 0.10 * abs(anchor)


# ---------------------------------------------------------------------------
# strategy trajectories along the bundled path


def test_trajectory_smoother_than_delta_hedge(reference_tree):
    from liqhedge.model import bachelier_delta
    t, S = reference_path()
    q, _ = policy_trajectory(reference_payoff(), reference_tree, S)
    q_delta = N * bachelier_delta(S, 45.0, 0.6, np.maximum(63.0 - t, 0.0))
    assert np.abs(np.diff(q)).sum() < np.abs(np.diff(q_delta)).sum()


def test_trajectory_smoothing_increases_with_execution_cost(reference_tree, eta_trees):
    _, S = reference_path()
    tv = {0.1: reference_tree, **eta_trees}
    variation = {}
    for eta, solved in tv.items():
        q, _ = policy_trajectory(reference_payoff(eta=eta), solved, S)
        variation[eta] = np.abs(np.diff(q)).sum()
    assert variation[0.2] < variation[0.1] < variation[0.05] < variation[0.01]


def test_trajectory_forgets_initial_inventory(reference_tree):
    t, S = reference_path()
    q_low, _ = policy_trajectory(reference_payoff(q0=0.0), reference_tree, S)
    q_high, _ = policy_trajectory(reference_payoff(q0=1e7), reference_tree, S)
    after = t >= 10.0
    assert np.abs(q_low - q_high)[after].max() <= 2.0 * reference_tree.dq


def test_trajectory_cash_settlement_unwinds_near_expiry(reference_tree, tree_cash):
    t, S = reference_path()
    assert S[-1] > 45.0  # the bundled path finishes in the money
    q_phys, _ = policy_trajectory(reference_payoff(), reference_tree, S)
    q_cash, _ = policy_trajectory(reference_payoff(settlement="cash"), tree_cash, S)
    assert q_phys[-1] >= 0.95 * N
    assert q_cash[-1] <= 0.60 * N
    late = np.searchsorted(t, 58.0)
    assert q_cash[-1] < q_cash[late] - 0.25 * N
    assert q_phys[-1] >= q_phys[late]
