"""Core model tests: closed forms against independent oracles.

Oracles: dense grid search for the Hamiltonian, scipy quadrature for the
liquidation penalty and the Bachelier price. Frozen values computed from
those oracles are asserted alongside.
"""

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
    hamiltonian,
    liquidation_penalty,
    optimal_rate,
    rescale_nominal,
    terminal_payoff,
)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def hamiltonian_grid_oracle(cost, p, rho_max, n=400_001):
    rho = np.linspace(-rho_max, rho_max, n)
    vals = p * rho - cost(rho)
    i = int(np.argmax(vals))
    return vals[i], rho[i]


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
    for _ in range(100):
        p = rng.uniform(-3, 3)
        eta = rng.uniform(0.01, 1.0)
        phi = rng.uniform(0.1, 3.0)
        psi = rng.uniform(0.0, 0.5)
        rho_max = rng.uniform(0.1, 8.0)
        c = ExecutionCost(eta, phi, psi)
        H, rho = hamiltonian(c, p, rho_max)
        H_ref, _ = hamiltonian_grid_oracle(c, p, rho_max)
        assert H >= H_ref - 1e-12
        assert abs(H - H_ref) <= 1e-6 * max(abs(H_ref), 1e-12) + 1e-10


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


def test_hamiltonian_golden_section_fallback():
    c = ExecutionCost(0.1, 0.75, 0.0)
    for p in (-1.3, -0.2, 0.0, 0.4, 2.5):
        H_cf, rho_cf = hamiltonian(c, p, 2.0)
        H_gs, rho_gs = hamiltonian(lambda r: c(r), p, 2.0)
        assert abs(rho_gs - rho_cf) <= 1e-8
        assert abs(H_gs - H_cf) <= 1e-10 * max(1.0, abs(H_cf))


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
    with pytest.raises(ValueError):
        liquidation_penalty(1e6, REF_COST, 0.0, 2e-7, 0.6, 4e6)
    with pytest.raises(ValueError):
        liquidation_penalty(1e6, REF_COST, 5.0, 2e-7, 0.6, 0.0)
    assert liquidation_penalty(0.0, REF_COST, 5.0, 2e-7, 0.6, 0.0) == 0.0


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


def test_bachelier_negative_tau_rejected():
    with pytest.raises(ValueError):
        bachelier_price(45, 45, 0.6, -1.0)


# ---------------------------------------------------------------------------
# terminal payoff
# ---------------------------------------------------------------------------

def make_reference_payoff(settlement="physical", **over):
    contract = OptionContract(K=45.0, T=63.0, N=2e7, gamma=2e-7, q0=1e7,
                              settlement=settlement)
    market = MarketParams(S0=45.0, sigma=0.6, volume=4e6, rho_max=5.0)
    for key, val in over.items():
        pass
    return PayoffSpec(contract=contract, market=market, cost=REF_COST)


def test_terminal_payoff_physical():
    p = make_reference_payoff()
    ell = p.liquidation
    N, K = 2e7, 45.0
    # exercised: deliver N, unwind the shortfall N - q
    assert terminal_payoff(1e7, 47.0, p) == pytest.approx(N * 2.0 + ell(1e7))
    # S = K counts as exercised
    assert terminal_payoff(1e7, 45.0, p) == pytest.approx(ell(1e7))
    # not exercised: unwind q itself
    assert terminal_payoff(1e7, 44.0, p) == pytest.approx(ell(1e7))
    assert terminal_payoff(0.0, 44.0, p) == 0.0
    assert terminal_payoff(0.0, 47.0, p) == pytest.approx(N * 2.0 + ell(2e7))


def test_terminal_payoff_cash():
    p = make_reference_payoff("cash")
    ell = p.liquidation
    assert terminal_payoff(1e7, 47.0, p) == pytest.approx(2e7 * 2.0 + ell(1e7))
    assert terminal_payoff(1e7, 44.0, p) == pytest.approx(ell(1e7))
    assert terminal_payoff(0.0, 50.0, p) == pytest.approx(2e7 * 5.0)


def test_terminal_payoff_dominates_intrinsic():
    p = make_reference_payoff()
    q = np.linspace(-2e6, 2.2e7, 41)[:, None]
    S = np.linspace(20.0, 70.0, 65)[None, :]
    pi = terminal_payoff(q, S, p)
    assert pi.shape == (41, 65)
    assert np.all(pi >= 2e7 * np.maximum(S - 45.0, 0.0) - 1e-9)


def test_payoff_penalty_override():
    base = make_reference_payoff()
    p = PayoffSpec(contract=base.contract, market=base.market, cost=base.cost,
                   penalty=lambda q: np.zeros_like(np.asarray(q, dtype=float)))
    assert terminal_payoff(1e7, 44.0, p) == 0.0
    assert terminal_payoff(1e7, 47.0, p) == pytest.approx(4e7)


def test_closed_form_penalty_needs_final_volume():
    base = make_reference_payoff()
    market = MarketParams(S0=45.0, sigma=0.6, rho_max=5.0,
                          volume=VolumeCurve([0.0, 2.0], [4e6, 0.0]))
    with pytest.raises(ValueError):
        PayoffSpec(base.contract, market, base.cost)
    # an explicit penalty does not liquidate at the market's volume
    PayoffSpec(base.contract, market, base.cost, penalty=np.abs)


def test_payoff_terminal_with_impact_pinned():
    # k > 0 terminal on the shifted price axis S_tilde; frozen values
    contract = OptionContract(K=45.0, T=63.0, N=2e7, gamma=2e-7, q0=1e7)
    market = MarketParams(S0=45.0, sigma=0.6, volume=4e6, rho_max=5.0, k=3e-7)
    p = PayoffSpec(contract=contract, market=market, cost=REF_COST)
    assert p.terminal(1e7, 45.0) == 18943701.524882108   # q = q0, at the strike
    assert p.terminal(2e7, 44.0) == -5000000.0           # exercised: observed 47
    assert p.terminal(5e6, 44.0) == 16746850.762441054   # abandoned: observed 42.5
    assert p.terminal(2e7, 42.0) == -45000000.0          # observed price exactly K


# ---------------------------------------------------------------------------
# parameter validation and rescaling
# ---------------------------------------------------------------------------

def test_market_params_validation():
    with pytest.raises(ValueError):
        MarketParams(S0=45, sigma=0.0, volume=4e6, rho_max=5.0)
    with pytest.raises(ValueError):
        MarketParams(S0=45, sigma=0.6, volume=4e6, rho_max=-1.0)
    with pytest.raises(ValueError):
        MarketParams(S0=45, sigma=0.6, volume=4e6, rho_max=5.0, k=1e-7, mu=0.01)
    with pytest.raises(ValueError):
        MarketParams(S0=45, sigma=0.6, volume=4e6, rho_max=5.0, k=1e-7, r=1e-4)
    MarketParams(S0=45, sigma=0.6, volume=4e6, rho_max=5.0, k=1e-7)  # ok


def test_contract_validation():
    with pytest.raises(ValueError):
        OptionContract(K=45, T=0.0, N=2e7, gamma=2e-7)
    with pytest.raises(ValueError):
        OptionContract(K=45, T=63, N=2e7, gamma=0.0)
    with pytest.raises(ValueError):
        OptionContract(K=45, T=63, N=2e7, gamma=2e-7, q0=3e7)
    with pytest.raises(ValueError):
        OptionContract(K=45, T=63, N=2e7, gamma=2e-7, settlement="swap")
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
    with pytest.raises(ValueError):
        VolumeCurve([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        VolumeCurve([0.0], [-1.0])
    for starts in ([float("nan"), 2.0], [float("nan")], [0.0, float("inf")]):
        with pytest.raises(ValueError):
            VolumeCurve(starts, [1.0] * len(starts))


def test_rescale_nominal_mapping():
    contract = OptionContract(K=45.0, T=63.0, N=2e7, gamma=2e-7, q0=1e7)
    market = MarketParams(S0=45.0, sigma=0.6, volume=4e6, rho_max=5.0, k=3e-7)
    c2, m2 = rescale_nominal(contract, market)
    assert c2.N == 1.0
    assert c2.gamma == pytest.approx(4.0)
    assert c2.q0 == pytest.approx(0.5)
    assert m2.volume.final_value == pytest.approx(0.2)
    assert m2.k == pytest.approx(3e-7 * 2e7)
    assert (m2.S0, m2.sigma, m2.rho_max) == (45.0, 0.6, 5.0)


def test_rescale_penalty_consistency():
    # penalty rebuilt from mapped parameters equals ell(N*q)/N
    contract = OptionContract(K=45.0, T=63.0, N=2e7, gamma=2e-7, q0=1e7)
    market = MarketParams(S0=45.0, sigma=0.6, volume=4e6, rho_max=5.0)
    p1 = PayoffSpec(contract=contract, market=market, cost=REF_COST)
    c2, m2 = rescale_nominal(contract, market)
    p2 = PayoffSpec(contract=c2, market=m2, cost=REF_COST)
    q = np.linspace(0, 1, 11)
    assert np.allclose(p2.liquidation(q), p1.liquidation(q * 2e7) / 2e7, rtol=1e-12)
    # terminal surfaces scale the same way
    S = np.array([40.0, 45.0, 52.0])
    assert np.allclose(p2.terminal(q[:, None], S[None, :]),
                       p1.terminal(q[:, None] * 2e7, S[None, :]) / 2e7, rtol=1e-12)
