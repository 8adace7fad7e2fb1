"""Test-only helpers: `reference_payoff`, the reference scenario with the
fields a test changes, `FROZEN`, the frozen-inventory problem both engines
solve in closed form, the Hamiltonian transform and a grid search for it,
and the unit-nominal rescaling. The package has no caller for any of them;
the tests use the last three as independent checks of the engines' closed
forms and scaling."""

import dataclasses
from pathlib import Path

import numpy as np

from liqhedge.cli import load_config
from liqhedge.model import (ExecutionCost, MarketParams, OptionContract, PayoffSpec,
                            VolumeCurve, optimal_rate)

REFERENCE_CONFIG = Path(__file__).resolve().parents[1] / "demos" / "reference_config.json"


def reference_payoff(**changes) -> PayoffSpec:
    """The payoff of `demos/reference_config.json` with `changes` applied by
    `PayoffSpec.replace`."""
    return load_config(str(REFERENCE_CONFIG)).payoff.replace(**changes)


# no option, no penalty and rho_max = 0: only the variance charge of the held
# inventory remains, gamma*sigma^2*q^2*(T - t)/2 in continuous time
FROZEN = reference_payoff(T=4.0, N=0.0, gamma=3e-7, q0=0.0, settlement="cash",
                          sigma=0.6, rho_max=0.0, penalty_rate=1.0,
                          penalty=lambda q: np.zeros_like(q))


def hamiltonian(cost: ExecutionCost, p, rho_max: float):
    """H(p) = sup_{|rho| <= rho_max} (p*rho - L(rho)) and its maximizer.

    Returns (H, rho_star), matching the shape of p. H >= 0 since rho = 0 is
    feasible.
    """
    rho = optimal_rate(cost, p, rho_max)
    H = np.asarray(p) * rho - cost(rho)
    H = np.maximum(H, 0.0)  # guard roundoff; rho=0 is always feasible
    if np.ndim(H) == 0:
        return float(H), float(np.asarray(rho))
    return H, rho


def hamiltonian_zoom_search(cost: ExecutionCost, p: float, rho_max: float) -> float:
    """H(p) by a grid search over [-rho_max, rho_max] that zooms in on its
    best point: three passes of 20,001 rates resolve the maximizer where one
    grid of 400,001 may not. An oracle for `hamiltonian` that shares none
    of its closed-form code."""
    lo, hi = -rho_max, rho_max
    for _ in range(3):
        rho = np.linspace(lo, hi, 20_001)
        vals = p * rho - cost(rho)
        i = int(np.argmax(vals))
        lo, hi = rho[max(i - 1, 0)], rho[min(i + 1, rho.size - 1)]
    return float(vals.max())


def rescale_nominal(contract: OptionContract, market: MarketParams):
    """Map a problem with nominal N to the equivalent unit-nominal problem.

    theta_tilde(t, q/N, S) = theta(t, q, S)/N solves the same equation with

        N' = 1, gamma' = gamma*N, V' = V/N, q0' = q0/N, k' = k*N,

    everything else unchanged (the closed-form liquidation penalty rebuilt
    from the mapped parameters equals ell(N*q)/N automatically).
    """
    N = contract.N
    if not (N > 0):
        raise ValueError("rescaling needs N > 0")
    c2 = dataclasses.replace(contract, N=1.0, gamma=contract.gamma * N,
                             q0=contract.q0 / N)
    volume = VolumeCurve(market.volume.starts, market.volume.values * (1.0 / N))
    m2 = dataclasses.replace(market, volume=volume, k=market.k * N)
    return c2, m2
