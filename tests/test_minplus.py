"""Property tests of the shared inventory min-plus kernel against a brute
force over every shift, with integer data so that exact ties occur."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from liqhedge.minplus import shift_min


def brute_shift_min(f, costs):
    """Scan every node and every shift in the order 0, -1, +1, -2, +2, ...,
    keeping a candidate only when it is strictly smaller."""
    n, cap = f.shape[0], len(costs)
    best = f.copy()
    shift = np.zeros(f.shape, dtype=np.int16)
    order = [w for m in range(1, cap + 1) for w in (-m, m)]
    for i in range(n):
        for w in order:
            if 0 <= i + w < n:
                cand = f[i + w] + costs[abs(w) - 1]
                better = cand < best[i]
                best[i] = np.where(better, cand, best[i])
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
def problems(draw):
    n = draw(st.integers(1, 12))
    cols = draw(st.sampled_from([None, 1, 3]))
    transposed = cols is not None and draw(st.booleans())
    shape = (n,) if cols is None else (cols, n) if transposed else (n, cols)
    f = np.array(draw(st.lists(ints, min_size=int(np.prod(shape)),
                               max_size=int(np.prod(shape)))), dtype=float)
    f = f.reshape(shape)
    if transposed:
        f = f.T  # inventory on axis 0 of a transposed view
    # otherwise C-contiguous (n, cols), as both engines pass it
    return f, draw(costs_for(n))


@settings(max_examples=400, deadline=None)
@given(problems())
def test_shift_min_matches_brute_force(problem):
    f, costs = problem
    before = f.copy()
    best, shift = shift_min(f, costs)
    want_best, want_shift = brute_shift_min(f, costs)
    np.testing.assert_array_equal(best, want_best)
    np.testing.assert_array_equal(shift, want_shift)
    assert shift.dtype == np.int16 and best.shape == shift.shape == f.shape
    np.testing.assert_array_equal(f, before)  # input left untouched


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
