"""Property tests of both engines on small random pricing problems.

Each problem runs over T = 2..4 days with N = V = 1e6 shares and a
liquidation rate of 0.5. The tree takes dt 0.25 and dq 1.25e4, so every
rho_max drawn as a multiple of 0.05 trades whole inventory steps; the PDE
takes a 121 x 49 grid at 4 steps a day. A solve takes about 0.01 s on the
tree and 0.02 s on the PDE.

The indifference price charges the writer for trading costs and risk, so it
does not fall when eta doubles or gamma triples, and on the tree it does not
rise when rho_max doubles (a wider cap only adds trades). The tree's theta_0
is also discretely convex in q. On both engines the price is at least the
frictionless Bachelier price of the N calls, less two lattice steps per
share. The tree's price per share does not depend on the nominal: the
unit-nominal problem of `oracles.rescale_nominal`, solved with dq/N, gives
it to rounding.

Two PDE properties are left out. Its values[0] is not always convex in q
on these problems: on some draws a second difference over q falls below
zero, by up to about 1e-4 of max|theta_0|, at S0's column too.
And its interpolated rates come from linspace(-rho_max, rho_max,
n_controls); the set at 2*rho_max does not contain the set at rho_max, so
doubling rho_max can raise the PDE price.
"""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from liqhedge.model import (ExecutionCost, MarketParams, OptionContract, PayoffSpec,
                            bachelier_price)
from liqhedge.pde import GridSpec, solve_theta
from liqhedge.tree import TreeConfig, solve_tree
from oracles import rescale_nominal

N = V = 1e6
TREE = TreeConfig(dt=0.25, dq=1.25e4)


@st.composite
def problems(draw):
    contract = OptionContract(
        K=draw(st.floats(40.0, 50.0)), T=float(draw(st.integers(2, 4))), N=N,
        gamma=10 ** draw(st.floats(-7.0, -5.0)),
        q0=1.25e4 * draw(st.integers(0, 80)),
        settlement=draw(st.sampled_from(["physical", "cash"])))
    market = MarketParams(S0=45.0, sigma=draw(st.floats(0.2, 1.0)), volume=V,
                          rho_max=draw(st.integers(10, 40)) / 20.0)
    cost = ExecutionCost(eta=draw(st.floats(0.02, 0.3)), phi=draw(st.floats(0.5, 1.0)))
    return PayoffSpec(contract, market, cost, penalty_rate=0.5)


def tree_price(pay):
    return solve_tree(pay, TREE).price(0.0, pay.contract.q0, pay.market.S0)


def pde_grid(pay):
    return GridSpec.default(pay, n_S=121, n_q=49, steps_per_day=4)


def pde_price(pay):
    return solve_theta(pay, pde_grid(pay)).price(0.0, pay.contract.q0, pay.market.S0)


def costlier(pay):
    """The same problem with eta doubled, then with gamma tripled."""
    yield pay.replace(eta=2 * pay.cost.eta)
    yield pay.replace(gamma=3 * pay.contract.gamma)


PROPERTY = settings(max_examples=30, deadline=None, derandomize=True)


@PROPERTY
@given(pay=problems())
def test_tree_price_monotone_in_costs_and_cap(pay):
    tv = solve_tree(pay, TREE)
    base = tv.price(0.0, pay.contract.q0, pay.market.S0)
    # theta_0 at level 0's one node: second differences over q are >= 0, to
    # a rounding allowance of 1e-12 of max|theta_0| (the smallest seen on
    # 200 draws was +1.7e-9 of it)
    th = tv.theta[0][:, 0]
    assert np.diff(th, 2).min() >= -1e-12 * np.abs(th).max()
    for dearer in costlier(pay):
        assert tree_price(dearer) >= base
    assert tree_price(pay.replace(rho_max=2 * pay.market.rho_max)) <= base


@PROPERTY
@given(pay=problems())
def test_pde_price_monotone_in_costs(pay):
    base = pde_price(pay)
    for dearer in costlier(pay):
        assert pde_price(dearer) >= base


@PROPERTY
@given(pay=problems())
def test_price_dominates_frictionless_bound_both_engines(pay):
    # the slack is test_acceptance's: two steps of each engine's S lattice
    # per share (on 80 draws the smallest margin was 4e-4 of N*dS on the
    # tree and 1.1e-3 of it on the PDE, above the floor without the slack)
    c, m = pay.contract, pay.market
    floor = N * bachelier_price(m.S0, c.K, m.sigma, c.T)
    dS_tree = TREE.alpha * m.sigma * math.sqrt(TREE.dt)
    assert tree_price(pay) >= floor - 2.0 * N * dS_tree
    g = pde_grid(pay)
    dS = (g.S_max - g.S_min) / (g.n_S - 1)
    assert pde_price(pay) >= floor - 2.0 * N * dS


@PROPERTY
@given(pay=problems())
def test_tree_price_per_share_invariant_under_rescaling(pay):
    # the largest relative gap seen on 400 draws was 7.8e-14; a draw with
    # q0 = 0 and K above every terminal node prices exactly 0, rescaled too
    per_share = tree_price(pay) / N
    contract, market = rescale_nominal(pay.contract, pay.market)
    unit = dataclasses.replace(pay, contract=contract, market=market)
    tv = solve_tree(unit, dataclasses.replace(TREE, dq=TREE.dq / N))
    got = tv.price(0.0, contract.q0, market.S0)
    assert abs(got - per_share) <= 1e-12 * abs(per_share)
