"""Inventory min-plus step shared by the tree and the PDE trading substep."""

import numpy as np


def shift_min(f, costs):
    """best[i] = min(f[i], min_{1 <= |w| <= len(costs)} costs[|w| - 1] + f[i + w])
    along axis 0; a shift whose destination leaves the axis is skipped. Ties
    keep the earliest candidate in the order 0, -1, +1, -2, +2, ... Returns
    (best, shift), shift being the minimizing w as int16, both laid out like f.
    """
    n = f.shape[0]
    best = f.copy(order="K")
    shift = np.zeros_like(f, dtype=np.int16)
    for m, c in enumerate(costs[:max(n - 1, 0)], 1):
        for w in (-m, m):
            lo, hi = max(0, -w), n - max(0, w)
            cand = f[lo + w:hi + w] + c
            cur = best[lo:hi]
            mask = cand < cur
            np.copyto(cur, cand, where=mask)
            np.copyto(shift[lo:hi], w, where=mask)
    return best, shift
