"""Inventory trading steps shared by the tree and the PDE trading substep:
the whole-step trade ladder, its min-plus sweep and the cheaper-candidate update.

Each engine memoizes the ladder per volume for one solve (the tree directly,
the PDE inside its trade plan): the ladder depends on the level only through
V, and a level's m_cap scalar cost() calls would otherwise repeat at every
level of a segment."""

import math

import numpy as np

from .model import _overflow_of


def trade_ladder(cost, rho_max, V, dt, dq, n_q):
    """Cost rates L(w*dq/(V*dt)) of the whole-step trades w = 1..m_cap, where
    m_cap = min(floor(rho_max*V*dt/dq), n_q - 1) keeps the speed within
    rho_max*V; none when V = 0. Each rate is a scalar cost() call, which each
    engine scales by V*dt in its own order of multiplication."""
    if V <= 0:
        return []
    with _overflow_of("rho_max*V*dt/dq"):
        m_cap = min(math.floor(rho_max * V * dt / dq + 1e-9), n_q - 1)
    return [cost(w * dq / (V * dt)) for w in range(1, m_cap + 1)]


def take_cheaper(cand, best, ctrl, value, mask=None):
    """In place, where cand < best: best = cand and ctrl = value; `mask` is an
    optional bool buffer. A tie keeps best, signed zeros included (np.minimum
    returns its second operand); a NaN in cand lands in best."""
    mask = np.less(cand, best, out=mask)
    np.minimum(cand, best, out=best)
    np.copyto(ctrl, value, where=mask)


_BLOCK = 1 << 14  # cells searched at a time, which bounds the search's temporaries


def _convex(x):
    """Per column of x (along axis 0): the column is finite and
    x[i-1] + x[i+1] > 2*x[i] in floats at every interior i. Rounding is
    monotone and 2*x[i] is exact, so the strict float inequality holds in
    exact arithmetic too (a column whose sum overflows counts as not finite)."""
    return np.isfinite(x.sum(axis=0)) & np.all(x[:-2] + x[2:] > 2 * x[1:-1], axis=0)


def shift_min(f, costs, guess=None):
    """best[i] = min(f[i], min_{1 <= |w| <= len(costs)} costs[|w| - 1] + f[i + w])
    along axis 0; a shift whose destination leaves the axis is skipped. Ties
    keep the earliest candidate in the order 0, -1, +1, -2, +2, ... Returns
    (best, shift), shift being the minimizing w as int16, both shaped like f.

    With `guess` (int shifts shaped like f) each cell is searched, not
    scanned, in every column that carries a certificate: the column is finite
    and strictly convex in floats (`_convex`), and so is the cost sequence
    (..., c2, c1, 0, c1, c2, ...). Then h(d) = c(|d - i|) + f(d) is strictly
    convex in exact arithmetic, with +inf off the axis and past the cap, and
    its float values, monotone roundings of h, never rise and then fall. The
    search starts at the guess clipped to the axis and the cap, steps to a
    neighbour while that neighbour is strictly smaller, and accepts a cell
    whose two neighbours are strictly greater: that cell is the unique float
    argmin, so its shift and value bits are the scan's. A column that fails
    its certificate or holds a cell stuck on a tie is scanned, as are all
    columns when the costs fail theirs or no guess is given.

    For every finite input the result is bit-identical to copying each
    strictly smaller candidate in turn, signed zeros included. A NaN in f
    spreads to the nodes within reach of it (a strict < would skip it); the
    PDE checks theta is finite before each call and the tree checks each
    level after it, so both still raise FloatingPointError.
    """
    n = f.shape[0]
    costs = costs[:max(n - 1, 0)]
    cap = len(costs)
    # cost of shift w at ctab[w + cap + 1], +inf past the cap; adding -0.0
    # leaves every float's bits alone, so shift 0 keeps f's own value
    ctab = np.concatenate(([np.inf], costs[::-1], [-0.0], costs, [np.inf]))
    if guess is None or cap == 0 or not _convex(ctab[1:-1]):
        return _scan(f, costs)
    shape = f.shape
    f = np.ascontiguousarray(f).reshape(n, -1)
    guess = guess.reshape(n, -1)
    best = np.empty_like(f)
    shift = np.empty(f.shape, dtype=np.int16)
    bad = np.empty(f.shape[1], dtype=bool)
    width = max(1, _BLOCK // n)
    for lo in range(0, f.shape[1], width):
        part = slice(lo, lo + width)
        bad[part] = _search(f[:, part], ctab, guess[:, part], best[:, part], shift[:, part])
    if bad.any():
        best[:, bad], shift[:, bad] = _scan(f[:, bad], costs)
    return best.reshape(shape), shift.reshape(shape)


def _search(f, ctab, guess, best, shift):
    """shift_min's search over the columns of f, written into best and
    shift; returns the columns it could not vouch for."""
    n, cols = f.shape
    cap = (ctab.size - 3) // 2
    with np.errstate(over="ignore", invalid="ignore"):
        bad = ~_convex(f)

    # the axis padded with +inf rows, so a probe off it never wins; the
    # columns left to the scan are zeroed there, which keeps NaN and inf out
    fpad = np.empty((n + 2, cols))
    fpad[0] = fpad[-1] = np.inf
    fpad[1:-1] = f
    if bad.any():
        fpad[1:-1, bad] = 0.0
    flat = fpad.ravel()
    mid, cmid = flat[cols:], ctab[1:]
    rows = np.arange(n)[:, None]
    k = np.clip(guess, np.maximum(-cap, -rows), np.minimum(cap, n - 1 - rows))
    # each cell's destination as a flat index into mid and its shift as an
    # index into cmid; one row or one shift less indexes fpad and ctab
    at = k * cols
    at += rows * cols
    at += np.arange(cols)
    k += cap
    val = mid.take(at)
    val += cmid.take(k)
    left = flat.take(at)
    left += ctab.take(k)
    right = flat[2 * cols:].take(at)
    right += ctab[2:].take(k)
    down, up = left < val, right < val
    bad |= ~(down | up | ((left > val) & (right > val))).all(axis=0)

    # convexity fixes each moving cell's direction; walk them all while any
    # next probe is strictly smaller (a stopped cell's probe stays put), a
    # tie at the stop meaning no proof
    cell = np.flatnonzero((down | up) & ~bad)
    if cell.size:
        # padded with repeats to a power of two, at least 128: numpy caches
        # freed blocks under 1 KiB by exact size, and walker lists of every
        # length would pin heap fragments and grow the peak RSS solve by solve
        cell = np.resize(cell, max(128, 1 << (cell.size - 1).bit_length()))
    step = np.where(up.ravel()[cell], 1, -1)
    v = np.where(step > 0, right.ravel()[cell], left.ravel()[cell])
    wat, wk = at.ravel()[cell] + step * cols, k.ravel()[cell] + step
    while True:
        nxt = mid.take(wat + step * cols) + cmid.take(wk + step)
        go = nxt < v
        if not go.any():
            break
        np.copyto(v, nxt, where=go)
        move = go * step
        wk += move
        wat += move * cols
    bad[cell[nxt == v] % cols] = True
    np.put(val, cell, v)
    np.put(k, cell, wk)
    best[...] = val
    np.subtract(k, cap, out=shift, casting="unsafe")
    return bad


def _scan(f, costs):
    """shift_min by trying every shift on every cell, laid out like f."""
    n = f.shape[0]
    best = f.copy(order="K")
    shift = np.zeros_like(f, dtype=np.int16)
    cand = np.empty_like(f[1:])
    mask = np.empty(cand.shape, dtype=bool)
    for m, c in enumerate(costs, 1):
        for w in (-m, m):
            lo, hi = max(0, -w), n - max(0, w)
            cbuf = cand[:hi - lo]
            np.add(f[lo + w:hi + w], c, out=cbuf)
            take_cheaper(cbuf, best[lo:hi], shift[lo:hi], w, mask[:hi - lo])
    return best, shift
