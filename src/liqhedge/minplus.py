"""Inventory trading steps shared by the tree and the PDE trading substep:
the whole-step trade ladder, its min-plus sweep and the cheaper-candidate update."""

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


def shift_min(f, costs):
    """best[i] = min(f[i], min_{1 <= |w| <= len(costs)} costs[|w| - 1] + f[i + w])
    along axis 0; a shift whose destination leaves the axis is skipped. Ties
    keep the earliest candidate in the order 0, -1, +1, -2, +2, ... Returns
    (best, shift), shift being the minimizing w as int16, both laid out like f.
    Both engines pass C-contiguous arrays, so every shifted slice is one
    contiguous block.

    For every finite input the result is bit-identical to copying each
    strictly smaller candidate in turn, signed zeros included. A NaN in f
    spreads to the nodes within reach of it (a strict < would skip it); the
    PDE checks theta is finite before each call and the tree checks each
    level after it, so both still raise FloatingPointError.
    """
    n = f.shape[0]
    best = f.copy(order="K")
    shift = np.zeros_like(f, dtype=np.int16)
    cand = np.empty_like(f[1:])
    mask = np.empty(cand.shape, dtype=bool)
    for m, c in enumerate(costs[:max(n - 1, 0)], 1):
        for w in (-m, m):
            lo, hi = max(0, -w), n - max(0, w)
            cbuf = cand[:hi - lo]
            np.add(f[lo + w:hi + w], c, out=cbuf)
            take_cheaper(cbuf, best[lo:hi], shift[lo:hi], w, mask[:hi - lo])
    return best, shift
