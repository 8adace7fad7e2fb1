"""Property tests of the shared inventory min-plus kernel against a brute
force over every shift: integer data, so that exact ties occur, and strictly
convex float data with guesses, so that the certified search runs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liqhedge import minplus
from liqhedge.minplus import shift_min, trade_ladder
from liqhedge.model import ExecutionCost, VolumeCurve
from liqhedge.pde import GridSpec, solve_theta
from liqhedge.tree import TreeConfig, solve_tree
from oracles import reference_payoff


def brute_shift_min(f, costs):
    """Scan every node and every shift in the order 0, -1, +1, -2, +2, ...,
    keeping a candidate only when it is strictly smaller; a NaN candidate
    takes the value (as np.minimum does) and leaves the shift."""
    n, cap = f.shape[0], len(costs)
    best = f.copy()
    shift = np.zeros(f.shape, dtype=np.int16)
    order = [w for m in range(1, cap + 1) for w in (-m, m)]
    for i in range(n):
        for w in order:
            if 0 <= i + w < n:
                cand = f[i + w] + costs[abs(w) - 1]
                better = cand < best[i]
                best[i] = np.where(better | np.isnan(cand), cand, best[i])
                shift[i] = np.where(better, w, shift[i])
    return best, shift


ints = st.integers(-6, 6)


@st.composite
def costs_for(draw, n):
    cap = draw(st.integers(0, n + 2))  # beyond n - 1 as well
    if draw(st.booleans()):
        # even and convex, costs of |w| = 1..cap: nondecreasing increments
        steps = sorted(draw(st.lists(st.integers(0, 4), min_size=cap, max_size=cap)))
        return np.cumsum(steps).astype(float)
    return np.array(draw(st.lists(ints, min_size=cap, max_size=cap)), dtype=float)


@st.composite
def convex_columns(draw, n, cols, exact):
    """Columns with nonnegative second differences, mostly positive, so that
    most are strictly convex in floats too; small integers (exact) make ties
    between neighbouring candidates. Some entries become NaN or +-inf."""
    bend, num = (st.integers(1, 3), ints) if exact else \
        (st.floats(1e-3, 10.0), st.floats(-50.0, 50.0))
    f = np.empty((n, cols))
    for k in range(cols):
        bends = np.array(draw(st.lists(bend, min_size=n, max_size=n)), dtype=float)
        f[:, k] = draw(num) + np.cumsum(draw(num) + np.cumsum(bends))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        i, k = draw(st.integers(0, n - 1)), draw(st.integers(0, cols - 1))
        f[i, k] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return f


@st.composite
def convex_costs(draw, n, exact):
    """Costs of |w| = 1..cap: mostly a strictly convex sequence through 0
    (integer-valued when exact), else an arbitrary one."""
    cap = draw(st.integers(0, n + 2))
    if not draw(st.integers(0, 3)):
        return np.array(draw(st.lists(st.floats(0.0, 20.0), min_size=cap, max_size=cap)))
    if exact:
        steps = draw(st.lists(st.integers(1, 30), min_size=cap, max_size=cap, unique=True))
        return np.cumsum(sorted(steps)).astype(float)
    eta, phi = draw(st.floats(1e-3, 10.0)), draw(st.floats(0.05, 1.5))
    return eta * np.arange(1, cap + 1) ** (1.0 + phi)


@st.composite
def problems(draw):
    n = draw(st.integers(1, 12))
    cols = draw(st.sampled_from([None, 1, 3]))
    transposed = cols is not None and draw(st.booleans())
    if draw(st.booleans()):
        # integer data, mostly not convex: ties everywhere, scanned
        shape = (n,) if cols is None else (cols, n) if transposed else (n, cols)
        f = np.array(draw(st.lists(ints, min_size=int(np.prod(shape)),
                                   max_size=int(np.prod(shape)))), dtype=float)
        f = f.reshape(shape)
        if transposed:
            f = f.T  # inventory on axis 0 of a transposed view
        # otherwise C-contiguous (n, cols), as both engines pass it
        costs = draw(costs_for(n))
    else:
        exact = draw(st.booleans())
        f = draw(convex_columns(n, cols or 1, exact))
        f = f.T.copy().T if transposed else f if cols else f[:, 0]
        costs = draw(convex_costs(n, exact))
    if not draw(st.integers(0, 4)):
        return f, costs, None
    # int16 guesses, off the axis and past the cap too, or within two of
    # the answer (as a neighbouring level's trade is), where a tie bites
    if draw(st.booleans()):
        wide = st.one_of(st.integers(-n - 2, n + 2), st.integers(-2**15, 2**15 - 1))
        guess = draw(st.lists(wide, min_size=f.size, max_size=f.size))
        return f, costs, np.array(guess, dtype=np.int16).reshape(f.shape)
    near = draw(st.lists(st.integers(-2, 2), min_size=f.size, max_size=f.size))
    return f, costs, brute_shift_min(f, costs)[1] + np.reshape(near, f.shape).astype(np.int16)


@settings(max_examples=600, deadline=None)
@given(problems())
def test_shift_min_matches_brute_force(problem):
    f, costs, guess = problem
    before = f.copy()
    best, shift = shift_min(f, costs, guess)
    want_best, want_shift = brute_shift_min(f, costs)
    np.testing.assert_array_equal(best, want_best)
    np.testing.assert_array_equal(np.signbit(best), np.signbit(want_best))
    np.testing.assert_array_equal(shift, want_shift)
    assert shift.dtype == np.int16 and best.shape == shift.shape == f.shape
    np.testing.assert_array_equal(f, before)  # input left untouched


def test_search_vouches_for_strictly_convex_columns(monkeypatch):
    # every guess is off, some past the axis: the search walks each cell to
    # its argmin and scans nothing, with the scan's bits
    n, cols = 40, 7
    q = np.arange(n)[:, None]
    f = 0.37 * (q - np.linspace(3.0, 36.0, cols)) ** 2
    f[3, 0] = -0.0  # a shift 0 keeps the sign bit
    costs = 0.05 * np.arange(1, 13) ** 1.75
    want = shift_min(f, costs)
    guess = np.resize(np.array([-40, -3, 0, 5, 40], dtype=np.int16), f.shape)
    monkeypatch.setattr(minplus, "_scan", None)
    best, shift = shift_min(f, costs, guess)
    np.testing.assert_array_equal(shift, want[1])
    assert best.tobytes() == want[0].tobytes()


def test_shift_min_tie_prefers_small_then_negative_shift():
    f = np.array([0.0, 1.0, 0.0, 1.0, 0.0])
    best, shift = shift_min(f, [1.0, 1.0])
    # node 1 reaches value 1 by staying, stepping -1 or +1: it stays;
    # node 3 likewise; no node improves on its own value
    np.testing.assert_array_equal(best, f)
    np.testing.assert_array_equal(shift, 0)
    best, shift = shift_min(f, [0.5, 0.5])
    np.testing.assert_array_equal(best, [0.0, 0.5, 0.0, 0.5, 0.0])
    np.testing.assert_array_equal(shift, [0, -1, 0, -1, 0])


def test_shift_min_tie_keeps_signed_zero():
    # -0.0 + 0.0 is +0.0, which ties the -0.0 already held: the held value
    # and its zero shift stay, sign included
    f = np.array([[-0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0]])
    best, shift = shift_min(f, [0.0])
    np.testing.assert_array_equal(np.signbit(best), np.signbit(f))
    np.testing.assert_array_equal(shift, 0)
    # and a -0.0 candidate does not replace a held +0.0
    f = np.array([0.0, -0.0])
    best, shift = shift_min(f, [-0.0])
    np.testing.assert_array_equal(np.signbit(best), [False, True])
    np.testing.assert_array_equal(shift, 0)


def test_trade_ladder_names_an_overflowing_trade():
    # rho_max*V is inf in floats, and floor(inf) has no integer value
    with pytest.raises(OverflowError, match=r"overflow: rho_max\*V\*dt/dq"):
        trade_ladder(ExecutionCost(0.1, 0.75), 1e303, 4e6, 1.0, 1e5, 11)


# ---------------------------------------------------------------------------
# both engines, searched against scanned


# the sweep benchmark's variants of the reference scenario over 8 days, a
# risk aversion at which some columns fail their certificate, and a volume
# curve with a segment that cannot trade
ENGINE_PROBLEMS = {
    "ref": {},
    "q0-0": dict(q0=0.0),
    "drift": dict(mu=0.05 / 252, r=0.02 / 252),
    "cash": dict(settlement="cash", rho_max=0.5),
    "impact": dict(k=1e-7),
    "gamma-2e-5": dict(gamma=2e-5),
    "dead-volume": dict(volume=VolumeCurve([0.0, 4.0, 6.0], [4e6, 0.0, 4e6])),
}


def solve_both(pay):
    """Every stored level of a dt-1 tree and of a 61 x 31 PDE at 2 steps a day."""
    tv = solve_tree(pay, TreeConfig(dt=1.0), keep_values=True)
    surf = solve_theta(pay, GridSpec.default(pay, n_S=61, n_q=31, steps_per_day=2),
                       keep_values=True)
    return [*tv.theta, *tv.control_mult, surf.values, surf.control.codes,
            *surf.control.tables]


def scanned_columns(monkeypatch):
    """The column count of each call of the full scan, in call order."""
    seen = []
    scan = minplus._scan

    def spy(f, costs):
        seen.append(f[0].size)
        return scan(f, costs)

    monkeypatch.setattr(minplus, "_scan", spy)
    return seen


@pytest.mark.parametrize("name", list(ENGINE_PROBLEMS))
def test_engines_search_matches_forced_scan_bit_for_bit(name, monkeypatch):
    pay = reference_payoff(T=8.0, **ENGINE_PROBLEMS[name])
    seen = scanned_columns(monkeypatch)
    searched = solve_both(pay)
    if name == "gamma-2e-5":
        # the first level of each engine scans in full; some later columns too
        assert len(seen) > 2
    monkeypatch.setattr(minplus, "_convex", lambda x: False)
    scanned = solve_both(pay)
    assert len(searched) == len(scanned)
    for a, b in zip(searched, scanned):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def test_reference_tree_scans_only_its_first_level(monkeypatch):
    # dt 1 on the reference scenario: 63 levels of 201 inventory nodes and a
    # cap of 200; every column after the first level is searched
    pay = reference_payoff()
    seen = scanned_columns(monkeypatch)
    tv = solve_tree(pay, TreeConfig(dt=1.0))
    assert tv.J == 63 and seen == [2 * 62 + 1]
