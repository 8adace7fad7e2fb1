"""Host-speed probe: a fixed piece of work timed around set-up and every op.

The benchmark runs on a few cores of a shared host whose speed switches
between regimes up to about 50 % apart, lasting seconds to minutes, so the
wall time of one op moves with the host as much as with the program, and
no run length within the checks' time averages it out. The probe does the
two kinds of work liqhedge's ops are made of, in fixed amounts: a min-plus
sweep over shifted slices of an array the size of a tree level (the
solvers' trading steps), and numpy generator set-up and draws (path
generation). It uses only numpy and the standard library, never liqhedge,
so no change to the program moves it.

An op's scaled time is its wall time times REF_S over the mean of the two
probes around it: seconds on the reference host at its median speed.
"""

import time

import numpy as np

# probe time on the reference host (2-core Intel Xeon VM, numpy 2.4,
# Python 3.11): 0.23 to 0.34 s over 60 probes, median 0.270 s; fixed,
# so scaled times compare across runs
REF_S = 0.270

# a tree level at dt 0.25: 2j+1 = 505 price nodes by 201 inventory nodes
_THETA = np.random.default_rng(0).standard_normal((505, 201))
_BEST = np.empty_like(_THETA)


def _work():
    for _ in range(10):
        for k in range(1, 101):  # trades of k inventory steps
            np.minimum(_THETA[:, k:], _THETA[:, :-k] + 0.01 * k, out=_BEST[:, k:])
    for i in range(6500):
        seq = np.random.SeedSequence((7, i, 0))
        np.random.Generator(np.random.PCG64(seq)).standard_normal(252)


def probe():
    """Seconds the fixed probe work takes now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def scaled(op_s, before_s, after_s):
    """Op wall time in reference-host seconds, from the probes around it."""
    return op_s * REF_S / (0.5 * (before_s + after_s))
