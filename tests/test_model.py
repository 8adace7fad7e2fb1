"""Core model tests: closed forms against independent oracles.

Oracles: dense grid search for the Hamiltonian (tests/oracles.py), scipy
quadrature for the liquidation penalty and the Bachelier price. Frozen
values computed from those oracles are asserted alongside.
"""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from liqhedge.model import (
    ExecutionCost,
    MarketParams,
    OptionContract,
    PayoffSpec,
    VolumeCurve,
    bachelier_delta,
    bachelier_price,
)
from oracles import (
    hamiltonian,
    hamiltonian_zoom_search,
    reference_payoff,
    rescale_nominal,
)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def penalty_quadrature_oracle(q, cost, rate, gamma, sigma, volume):
    # definition: execution cost of a constant-rate unwind plus the
    # variance charge of the linearly decaying residual position
    aq = abs(q)
    if aq == 0:
        return 0.0
    tau = aq / (rate * volume)
    exec_part = volume * cost(rate) * tau
    risk_part, _ = quad(lambda t: (aq - rate * volume * t) ** 2, 0.0, tau)
    return exec_part + 0.5 * gamma * sigma**2 * risk_part


def bachelier_quadrature_oracle(S, K, sigma, tau):
    sd = sigma * np.sqrt(tau)
    val, _ = quad(lambda x: max(x - K, 0.0) * norm.pdf(x, loc=S, scale=sd),
                  K, S + 12 * sd)
    return val


# ---------------------------------------------------------------------------
# Hamiltonian
# ---------------------------------------------------------------------------

def test_hamiltonian_reference_values():
    c = ExecutionCost(eta=0.1, phi=1.0, psi=0.0)
    H, rho = hamiltonian(c, 0.2, rho_max=1.0)
    assert H == pytest.approx(0.1, abs=1e-12)       # p^2/(4 eta)
    assert rho == pytest.approx(1.0, abs=1e-12)
    H, rho = hamiltonian(c, 0.2, rho_max=0.5)       # cap binds
    assert H == pytest.approx(0.075, abs=1e-12)
    assert rho == pytest.approx(0.5, abs=1e-12)


def test_hamiltonian_psi_kink():
    c = ExecutionCost(eta=0.1, phi=1.0, psi=0.05)
    H, rho = hamiltonian(c, 0.03, rho_max=1.0)
    assert H == 0.0 and rho == 0.0
    H, rho = hamiltonian(c, -0.03, rho_max=1.0)
    assert H == 0.0 and rho == 0.0


def test_hamiltonian_matches_grid_search_on_random_tuples():
    rng = np.random.default_rng(20260816)
    for draw in range(100):
        p = rng.uniform(-3, 3)
        eta = rng.uniform(0.01, 1.0)
        phi = rng.uniform(0.1, 3.0)
        psi = rng.uniform(0.0, 0.5)
        rho_max = rng.uniform(0.1, 8.0)
        c = ExecutionCost(eta, phi, psi)
        H, _ = hamiltonian(c, p, rho_max)
        H_ref = hamiltonian_zoom_search(c, p, rho_max)
        assert H >= H_ref - 1e-12, draw
        assert abs(H - H_ref) <= 1e-6 * max(abs(H_ref), 1e-9), draw


def test_hamiltonian_even_nonneg_monotone():
    rng = np.random.default_rng(7)
    c = ExecutionCost(0.1, 0.75, 0.01)
    p = np.sort(rng.uniform(0, 2, size=50))
    H, rho = hamiltonian(c, p, 5.0)
    Hn, rhon = hamiltonian(c, -p, 5.0)
    assert np.allclose(H, Hn)
    assert np.allclose(rho, -rhon)
    assert np.all(H >= 0)
    assert np.all(np.diff(H) >= -1e-15)  # nondecreasing in |p|


def test_hamiltonian_eta_zero_bang_bang():
    c = ExecutionCost(0.0, 1.0, 0.1)
    H, rho = hamiltonian(c, 0.3, 2.0)
    assert rho == 2.0 and H == pytest.approx(0.4)
    H, rho = hamiltonian(c, 0.05, 2.0)
    assert rho == 0.0 and H == 0.0


# ---------------------------------------------------------------------------
# liquidation penalty
# ---------------------------------------------------------------------------

REF_COST = ExecutionCost(eta=0.1, phi=0.75, psi=0.0)


def liquidation_penalty(q, cost, rate, gamma, sigma, volume):
    """ell(q) of PayoffSpec's closed form, unwinding at `rate` against a
    constant `volume`; rho_max = rate, so every rate > 0 is admissible."""
    return reference_payoff(q0=0.0, gamma=gamma, sigma=sigma, volume=volume, rho_max=rate,
                            cost=cost, penalty_rate=rate).liquidation(q)


def test_penalty_reference_value_and_quadrature():
    # frozen: 2e7 shares at rate 5 against 4e6/day, gamma 2e-7, sigma 0.6
    val = liquidation_penalty(2e7, REF_COST, 5.0, 2e-7, 0.6, 4e6)
    assert val == pytest.approx(1.1487403e7, rel=1e-6)
    assert val == pytest.approx(1.1488e7, rel=1e-3)
    oracle = penalty_quadrature_oracle(2e7, REF_COST, 5.0, 2e-7, 0.6, 4e6)
    assert val == pytest.approx(oracle, rel=1e-10)


def test_penalty_quadrature_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        q = rng.uniform(-3e7, 3e7)
        rate = rng.uniform(0.2, 6.0)
        gamma = 10 ** rng.uniform(-8, -5)
        sigma = rng.uniform(0.1, 2.0)
        vol = rng.uniform(1e5, 1e7)
        c = ExecutionCost(rng.uniform(0.01, 0.5), rng.uniform(0.2, 2.0), rng.uniform(0, 0.05))
        got = liquidation_penalty(q, c, rate, gamma, sigma, vol)
        want = penalty_quadrature_oracle(q, c, rate, gamma, sigma, vol)
        assert got == pytest.approx(want, rel=1e-9)


def test_penalty_shape_properties():
    q = np.linspace(-2e7, 2e7, 101)
    ell = liquidation_penalty(q, REF_COST, 5.0, 2e-7, 0.6, 4e6)
    assert ell[50] == 0.0
    assert np.allclose(ell, ell[::-1])                      # even
    assert np.all(np.diff(ell[50:]) > 0)                    # increasing on R+
    assert np.all(np.diff(ell, 2) >= -1e-9 * ell.max())     # convex


def test_penalty_errors():
    # PayoffSpec rejects a zero rate and a zero final volume up front
    with pytest.raises(ValueError, match="penalty_rate"):
        liquidation_penalty(1e6, REF_COST, 0.0, 2e-7, 0.6, 4e6)
    with pytest.raises(ValueError, match="volume"):
        liquidation_penalty(1e6, REF_COST, 5.0, 2e-7, 0.6, 0.0)
    assert liquidation_penalty(0.0, REF_COST, 5.0, 2e-7, 0.6, 4e6) == 0.0
    # an overflow names the formula's inputs, the huge one included
    with pytest.raises(FloatingPointError, match="gamma = 1e\\+300"), \
            np.errstate(over="ignore"):
        liquidation_penalty(2e7, REF_COST, 5.0, 1e300, 0.6, 4e6)
    with pytest.raises(OverflowError, match="sigma"):
        liquidation_penalty(2e7, REF_COST, 5.0, 2e-7, 1e300, 4e6)


# ---------------------------------------------------------------------------
# Bachelier
# ---------------------------------------------------------------------------

def test_bachelier_reference_values():
    assert bachelier_price(45, 45, 0.6, 63) == pytest.approx(1.900, abs=1e-3)
    assert bachelier_price(46, 45, 0.6, 63) == pytest.approx(2.4416, abs=1e-4)
    assert bachelier_delta(46, 45, 0.6, 63) == pytest.approx(0.583158, abs=1e-6)
    assert bachelier_delta(46, 45, 0.6, 63) == pytest.approx(0.58317, abs=2e-5)


def test_bachelier_against_quadrature():
    for S, K, sig, tau in [(45, 45, 0.6, 63), (46, 45, 0.6, 63),
                           (40, 45, 0.6, 63), (52, 45, 1.1, 10.5)]:
        got = bachelier_price(S, K, sig, tau)
        want = bachelier_quadrature_oracle(S, K, sig, tau)
        assert got == pytest.approx(want, rel=1e-8)


def test_bachelier_tau_zero_conventions():
    assert bachelier_price(47, 45, 0.6, 0.0) == 2.0
    assert bachelier_price(43, 45, 0.6, 0.0) == 0.0
    assert bachelier_delta(47, 45, 0.6, 0.0) == 1.0
    assert bachelier_delta(45, 45, 0.6, 0.0) == 1.0   # S >= K convention
    assert bachelier_delta(43, 45, 0.6, 0.0) == 0.0


def test_bachelier_delta_matrix_matches_columns_and_norm_cdf():
    # one call over a (paths, dates) ladder, as the delta hedge makes it,
    # equals a call per date and the norm.cdf formula bit for bit; the
    # rows cover d = +0, d = -0 (S = -0 at K = 0), d = +-inf and tau = 0
    S = 45.0 + 5.0 * np.random.default_rng(5).standard_normal((40, 5))
    S[:4] = [[-0.0], [0.0], [np.inf], [-np.inf]]
    S[4:8, :] = 45.0
    tau = np.array([63.0, 10.0, 1.0, 1e-3, 0.0])  # the last column expires
    for K in (45.0, 0.0):
        got = bachelier_delta(S, K, 0.6, tau)
        cols = np.stack([bachelier_delta(S[:, i], K, 0.6, t)
                         for i, t in enumerate(tau)], axis=1)
        ref = np.stack([norm.cdf((S[:, i] - K) / (0.6 * math.sqrt(t))) if t > 0
                        else (S[:, i] >= K).astype(float)
                        for i, t in enumerate(tau)], axis=1)
        for want in (cols, ref):
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def norm_formula_price(S, K, sigma, tau):
    """(S-K)*norm.cdf(d) + sq*norm.pdf(d) where sq > 0, (S-K)+ elsewhere."""
    S, tau = np.asarray(S, dtype=float), np.asarray(tau, dtype=float)
    sq = sigma * np.sqrt(tau)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.where(sq > 0, (S - K) / np.where(sq > 0, sq, 1.0), 0.0)
        live = (S - K) * norm.cdf(d) + sq * norm.pdf(d)
    return np.where(sq > 0, live, np.maximum(S - K, 0.0))


def test_bachelier_price_matches_norm_formula_bit_for_bit():
    # ndtr and the closed-form pdf give the scipy.stats formula exactly; the
    # rows cover S = -0 and +0 (d = -0 and +0 at K = 0), +-inf, NaN (whose
    # sign bit is compared too) and S = K; the columns tau = 1e-300 and 0.
    # At S = -inf and tau > 0 the formula is -inf * Phi(-inf) = NaN, where
    # the call is worth 0.0
    S = 45.0 + 5.0 * np.random.default_rng(7).standard_normal((40, 6))
    S[:5] = [[-0.0], [0.0], [np.inf], [-np.inf], [np.nan]]
    S[5:8, :] = 45.0
    tau = np.array([63.0, 10.0, 1.0, 1e-3, 1e-300, 0.0])
    for K in (45.0, 0.0, -0.0):
        got = bachelier_price(S, K, 0.6, tau)
        want = norm_formula_price(S, K, 0.6, tau)
        assert np.isnan(want[3, :-1]).all()
        want[3, :-1] = 0.0
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    for S0, tau0 in ((47.0, 2.0), (45.0, 63.0), (-0.0, 1.0), (math.nan, 1.0),
                     (47.0, 0.0), (43.0, 0.0)):
        got = bachelier_price(S0, 45.0, 0.6, tau0)
        assert type(got) is float
        want = norm_formula_price(S0, 45.0, 0.6, tau0)
        assert np.float64(got).view(np.uint64) == want.view(np.uint64)


def test_bachelier_price_is_zero_at_minus_infinity():
    # -inf * Phi(-inf) would be NaN with a RuntimeWarning (an error here)
    for tau in (63.0, 1e-300, 0.0):
        got = bachelier_price(-np.inf, 45.0, 0.6, tau)
        assert type(got) is float and np.float64(got).view(np.uint64) == 0
    got = bachelier_price(np.array([-np.inf, 45.0]), 45.0, 0.6, np.array([1.0, 0.0]))
    np.testing.assert_array_equal(got.view(np.uint64), [0, 0])
    assert bachelier_delta(-np.inf, 45.0, 0.6, 63.0) == 0.0


def test_package_import_leaves_out_scipy_stats():
    # the package needs numpy, and scipy.linalg (a PDE solve) and
    # scipy.special (a Bachelier call) on first use; scipy.stats alone more
    # than doubles the import time, so the subprocess runs both before it looks
    code = ("import sys, liqhedge, liqhedge.cli\n"
            "pay = liqhedge.cli.load_config(sys.argv[1]).payoff\n"
            "liqhedge.solve_theta(pay, liqhedge.GridSpec.default(\n"
            "    pay, n_S=31, n_q=11, steps_per_day=0.5))\n"
            "liqhedge.bachelier_price(45.0, 45.0, 0.6, 63.0)\n"
            "print('scipy.stats' in sys.modules)")
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code,
                          str(root / "demos" / "reference_config.json")],
                         env=env, check=True, capture_output=True, text=True)
    assert out.stdout.strip() == "False"


def test_bachelier_negative_tau_rejected():
    with pytest.raises(ValueError, match="tau must be >= 0"):
        bachelier_price(45, 45, 0.6, -1.0)


# ---------------------------------------------------------------------------
# terminal payoff
# ---------------------------------------------------------------------------

def test_terminal_payoff_physical():
    p = reference_payoff()
    ell = p.liquidation
    N, K = 2e7, 45.0
    # exercised: deliver N, unwind the shortfall N - q
    assert p.terminal(1e7, 47.0) == pytest.approx(N * 2.0 + ell(1e7))
    # S = K counts as exercised
    assert p.terminal(1e7, 45.0) == pytest.approx(ell(1e7))
    # not exercised: unwind q itself
    assert p.terminal(1e7, 44.0) == pytest.approx(ell(1e7))
    assert p.terminal(0.0, 44.0) == 0.0
    assert p.terminal(0.0, 47.0) == pytest.approx(N * 2.0 + ell(2e7))


def test_terminal_payoff_cash():
    p = reference_payoff(settlement="cash")
    ell = p.liquidation
    assert p.terminal(1e7, 47.0) == pytest.approx(2e7 * 2.0 + ell(1e7))
    assert p.terminal(1e7, 44.0) == pytest.approx(ell(1e7))
    assert p.terminal(0.0, 50.0) == pytest.approx(2e7 * 5.0)


def test_terminal_payoff_dominates_intrinsic():
    p = reference_payoff()
    q = np.linspace(-2e6, 2.2e7, 41)[:, None]
    S = np.linspace(20.0, 70.0, 65)[None, :]
    pi = p.terminal(q, S)
    assert pi.shape == (41, 65)
    assert np.all(pi >= 2e7 * np.maximum(S - 45.0, 0.0) - 1e-9)


def test_payoff_penalty_override():
    p = reference_payoff(penalty=lambda q: np.zeros_like(np.asarray(q, dtype=float)))
    assert p.terminal(1e7, 44.0) == 0.0
    assert p.terminal(1e7, 47.0) == pytest.approx(4e7)


def test_payoff_keeps_penalty_rate_as_given():
    # None unwinds at rho_max, so a replaced market moves the penalty with it
    base = reference_payoff()
    assert base.penalty_rate is None and base.liquidation_rate == 5.0
    q = np.linspace(-2e7, 2e7, 9)
    for rho_max in (10.0, 0.5):
        moved = base.replace(rho_max=rho_max)
        fresh = PayoffSpec(base.contract, dataclasses.replace(base.market, rho_max=rho_max),
                           base.cost)
        assert moved.penalty_rate is None and moved.liquidation_rate == rho_max
        np.testing.assert_array_equal(moved.liquidation(q), fresh.liquidation(q))
    # a given rate stays the rate, within the cap of every market it meets
    pinned = base.replace(penalty_rate=1.0)
    wide = pinned.replace(rho_max=10.0)
    assert wide.penalty_rate == wide.liquidation_rate == 1.0
    with pytest.raises(ValueError, match="penalty_rate"):
        pinned.replace(rho_max=0.5)


def test_payoff_replace_routes_each_field_to_its_part():
    base = reference_payoff()
    p = base.replace(K=50.0, sigma=0.7, psi=0.01, penalty_rate=1.0)
    assert p.contract == dataclasses.replace(base.contract, K=50.0)
    assert p.market == dataclasses.replace(base.market, sigma=0.7)
    assert p.cost == ExecutionCost(0.1, 0.75, 0.01)
    assert p.penalty_rate == 1.0 and p.penalty is None
    # a whole cost goes in first, then the fields named beside it
    assert base.replace(cost=ExecutionCost(1.0, 0.5, 0.2), eta=2.0).cost == \
        ExecutionCost(2.0, 0.5, 0.2)
    with pytest.raises(TypeError, match="nominal"):
        base.replace(nominal=1e7)


def test_payoff_replace_validates_the_final_values():
    # each part is rebuilt once: N and q0 change together, where N alone fails
    c = reference_payoff().replace(N=0.0, q0=0.0).contract
    assert c.N == c.q0 == 0.0
    with pytest.raises(ValueError, match="q0 must be 0 when N = 0"):
        reference_payoff().replace(N=0.0)


def test_closed_form_penalty_needs_final_volume():
    base = reference_payoff()
    market = MarketParams(S0=45.0, sigma=0.6, rho_max=5.0,
                          volume=VolumeCurve([0.0, 2.0], [4e6, 0.0]))
    with pytest.raises(ValueError, match="market volume > 0 on the final segment"):
        PayoffSpec(base.contract, market, base.cost)
    # an explicit penalty does not liquidate at the market's volume
    PayoffSpec(base.contract, market, base.cost, penalty=np.abs)


def test_payoff_needs_an_execution_cost():
    # the solvers take the Hamiltonian of this one cost family in closed form
    base = reference_payoff()
    with pytest.raises(TypeError, match="ExecutionCost"):
        PayoffSpec(base.contract, base.market, lambda rho: 0.1 * abs(rho) ** 1.75)


def test_payoff_terminal_with_impact_pinned():
    # k > 0 terminal on the shifted price axis S_tilde; frozen values
    p = reference_payoff(k=3e-7)
    assert p.terminal(1e7, 45.0) == 18943701.524882108   # q = q0, at the strike
    assert p.terminal(2e7, 44.0) == -5000000.0           # exercised: observed 47
    assert p.terminal(5e6, 44.0) == 16746850.762441054   # abandoned: observed 42.5
    assert p.terminal(2e7, 42.0) == -45000000.0          # observed price exactly K


# ---------------------------------------------------------------------------
# parameter validation and rescaling
# ---------------------------------------------------------------------------

def test_market_params_validation():
    with pytest.raises(ValueError, match="sigma must be > 0"):
        MarketParams(S0=45, sigma=0.0, volume=4e6, rho_max=5.0)
    with pytest.raises(ValueError, match="rho_max must be >= 0"):
        MarketParams(S0=45, sigma=0.6, volume=4e6, rho_max=-1.0)
    with pytest.raises(ValueError, match=r"permanent impact \(k > 0\) requires mu = r = 0"):
        MarketParams(S0=45, sigma=0.6, volume=4e6, rho_max=5.0, k=1e-7, mu=0.01)
    with pytest.raises(ValueError, match=r"permanent impact \(k > 0\) requires mu = r = 0"):
        MarketParams(S0=45, sigma=0.6, volume=4e6, rho_max=5.0, k=1e-7, r=1e-4)
    with pytest.raises(ValueError, match="permanent impact k must be >= 0"):
        MarketParams(S0=45, sigma=0.6, volume=4e6, rho_max=5.0, k=-1e-7)
    with pytest.raises(ValueError, match="psi must be >= 0"):
        ExecutionCost(eta=0.1, phi=0.75, psi=-0.01)
    with pytest.raises(ValueError, match="eta must be >= 0"):
        ExecutionCost(eta=-0.1, phi=0.75)
    for phi in (0.0, -0.5):
        with pytest.raises(ValueError, match=r"phi \(cost exponent\) must be > 0"):
            ExecutionCost(eta=0.1, phi=phi)
    MarketParams(S0=45, sigma=0.6, volume=4e6, rho_max=5.0, k=1e-7)  # ok


def test_contract_validation():
    with pytest.raises(ValueError, match="T must be > 0"):
        OptionContract(K=45, T=0.0, N=2e7, gamma=2e-7)
    with pytest.raises(ValueError, match="gamma must be > 0"):
        OptionContract(K=45, T=63, N=2e7, gamma=0.0)
    with pytest.raises(ValueError, match=r"q0 must lie in \[0, N\]"):
        OptionContract(K=45, T=63, N=2e7, gamma=2e-7, q0=3e7)
    with pytest.raises(ValueError, match="settlement must be 'physical' or 'cash'"):
        OptionContract(K=45, T=63, N=2e7, gamma=2e-7, settlement="swap")
    with pytest.raises(ValueError, match="nominal N must be >= 0"):
        OptionContract(K=45, T=63, N=-2e7, gamma=2e-7, q0=0.0)
    with pytest.raises(ValueError, match="q0 must be 0 when N = 0"):
        OptionContract(K=45, T=63, N=0.0, gamma=2e-7, q0=1e7)
    OptionContract(K=45, T=63, N=0.0, gamma=2e-7)  # degenerate no-option


GOOD_PARAMS = {
    MarketParams: dict(S0=45.0, sigma=0.6, volume=4e6, rho_max=5.0),
    ExecutionCost: dict(eta=0.1, phi=0.75, psi=0.0),
    OptionContract: dict(K=45.0, T=63.0, N=2e7, gamma=2e-7, q0=1e7),
}


@pytest.mark.parametrize("cls, field, value", [
    (MarketParams, "S0", np.nan),
    (MarketParams, "rho_max", np.nan),
    (MarketParams, "sigma", np.inf),
    (MarketParams, "k", np.nan),
    (ExecutionCost, "eta", np.nan),
    (ExecutionCost, "psi", np.nan),
    (OptionContract, "K", np.nan),
    (OptionContract, "gamma", np.inf),
])
def test_parameters_reject_nan_and_inf(cls, field, value):
    cls(**GOOD_PARAMS[cls])  # the unmodified set is valid
    with pytest.raises(ValueError, match=field):
        cls(**{**GOOD_PARAMS[cls], field: value})


def test_volume_curve():
    v = VolumeCurve([0.0, 10.0, 20.0], [4e6, 0.0, 2e6])
    assert v.at(5.0) == 4e6
    assert v.at(10.0) == 0.0
    assert v.at(19.99) == 0.0
    assert v.at(25.0) == 2e6
    assert v.at(1e9) == 2e6
    assert v.final_value == 2e6
    assert np.allclose(v.at(np.array([0.0, 10.0, 30.0])), [4e6, 0.0, 2e6])
    with pytest.raises(ValueError, match="start times must be finite and strictly increasing"):
        VolumeCurve([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="volumes must be finite and >= 0"):
        VolumeCurve([0.0], [-1.0])
    for starts in ([float("nan"), 2.0], [float("nan")], [0.0, float("inf")]):
        with pytest.raises(ValueError, match="start times must be finite"):
            VolumeCurve(starts, [1.0] * len(starts))
    with pytest.raises(ValueError, match="at least one segment"):
        VolumeCurve([], [])


def test_volume_curve_eq_and_repr():
    const, piecewise = VolumeCurve.constant(4e6), VolumeCurve([0.0, 10.0], [4e6, 2e6])
    assert const == VolumeCurve([0.0], [4e6]) and const != piecewise
    assert piecewise == VolumeCurve([0, 10], [4e6, 2e6])
    assert piecewise != VolumeCurve([0.0, 5.0], [4e6, 2e6])
    assert const != 4e6  # a non-curve compares unequal rather than raising
    assert repr(const).startswith("VolumeCurve.constant(")
    assert repr(piecewise) == "VolumeCurve([0.0, 10.0], [4000000.0, 2000000.0])"
    flat_two = VolumeCurve([0.0, 10.0], [4e6, 4e6])  # equal values, two segments
    for curve in (const, piecewise, flat_two):  # plain Python floats: no np. name
        assert eval(repr(curve), {"VolumeCurve": VolumeCurve}) == curve


def test_rescale_nominal_mapping():
    pay = reference_payoff(k=3e-7)
    c2, m2 = rescale_nominal(pay.contract, pay.market)
    assert c2.N == 1.0
    assert c2.gamma == pytest.approx(4.0)
    assert c2.q0 == pytest.approx(0.5)
    assert m2.volume.final_value == pytest.approx(0.2)
    assert m2.k == pytest.approx(3e-7 * 2e7)
    assert (m2.S0, m2.sigma, m2.rho_max) == (45.0, 0.6, 5.0)


def test_rescale_penalty_consistency():
    # penalty rebuilt from mapped parameters equals ell(N*q)/N
    p1 = reference_payoff()
    c2, m2 = rescale_nominal(p1.contract, p1.market)
    p2 = PayoffSpec(contract=c2, market=m2, cost=REF_COST)
    q = np.linspace(0, 1, 11)
    assert np.allclose(p2.liquidation(q), p1.liquidation(q * 2e7) / 2e7, rtol=1e-12)
    # terminal surfaces scale the same way
    S = np.array([40.0, 45.0, 52.0])
    assert np.allclose(p2.terminal(q[:, None], S[None, :]),
                       p1.terminal(q[:, None] * 2e7, S[None, :]) / 2e7, rtol=1e-12)
