"""Inventory min-plus step shared by the tree and the PDE trading substep."""

import numpy as np


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
            cbuf, mbuf, cur = cand[:hi - lo], mask[:hi - lo], best[lo:hi]
            np.add(f[lo + w:hi + w], c, out=cbuf)
            np.less(cbuf, cur, out=mbuf)
            # on a tie np.minimum returns its second operand, so cur (and
            # a signed zero in it) stays, as under the strict < above
            np.minimum(cbuf, cur, out=cur)
            np.copyto(shift[lo:hi], w, where=mbuf)
    return best, shift
