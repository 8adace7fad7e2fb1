"""Bundled deterministic scenario path, and the `t,S` path CSV parser that
reads it and the files given to `liqhedge hedge --path`.

A single 253-point quarter-day price trajectory whose increments live on
the trinomial lattice of the tree solver (spacing sigma*sqrt(2)*sqrt(dt)
with the reference sigma = 0.6), so tree policies can be evaluated along
it without interpolation. The path starts at 45, dips below the strike,
rises above it and finishes near 47.12, which makes it exercise at
maturity. Used by the trajectory demos and the qualitative strategy
tests; regenerating it would change frozen expectations downstream.
"""

from importlib import resources

import numpy as np

__all__ = ["reference_path"]


def reference_path():
    """Return (t, S) arrays of the bundled path; t in days, 253 points."""
    return _parse_path_csv(resources.files("liqhedge").joinpath(
        "data/reference_path.csv").read_text())


def _parse_path_csv(text: str):
    """(t, S) arrays from `t,S` CSV text: a header naming the columns t and
    S first, then at least two rows of finite values; blank lines and lines
    starting with '#' are skipped. Raises ValueError on anything else."""
    lines = [ln for ln in text.strip().splitlines() if ln and not ln.startswith("#")]
    if not lines or [h.strip() for h in lines[0].split(",")][:2] != ["t", "S"]:
        raise ValueError("the header must name the columns t,S")
    arr = np.asarray([ln.split(",")[:2] for ln in lines[1:]], dtype=float)
    if arr.shape[1:] != (2,) or len(arr) < 2 or not np.isfinite(arr).all():
        raise ValueError("need at least two rows of finite t,S")
    return arr[:, 0].copy(), arr[:, 1].copy()
