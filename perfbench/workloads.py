"""The benchmark workloads: set-up, one op, and the correctness check.

Each workload is a closed loop with one caller: the worker runs `setup`
once, then calls `op` again and again, each call waiting for the previous
one. An op calls liqhedge's public API directly and returns a small
summary; `check` compares that summary with the values recorded in
`reference.json` at the seed commit. An op's solver results are local to
it, so they are released before the next op starts and peak RSS reflects
one op's working set.

Ops report layer work through the tracer they are given (`span` around
each public call, `add`/`peak` for counts). With tracing off the tracer
does nothing.
"""

import dataclasses
import hashlib
import json
import random
from pathlib import Path

import numpy as np

from liqhedge import (GridSpec, PayoffSpec, price_with_initial_exchange,
                      run_delta_hedge, run_policy_hedge, simulate_price_paths,
                      solve_theta, solve_tree, solve_with_impact)
from liqhedge.cli import load_config

ROOT = Path(__file__).resolve().parent.parent
CONFIG = str(ROOT / "demos" / "reference_config.json")
REFERENCE = Path(__file__).resolve().parent / "reference.json"
REFERENCE_ARRAYS = REFERENCE.with_suffix(".npz")

PDE_RTOL = 1e-10
MB = 1024.0 * 1024.0


# ---------------------------------------------------------------------------
# layer counters, computed from the returned solver objects


def _count_tree(tr, tv):
    """Cells Σ(2j+1)·n_q over all levels, shift candidates Σ(2j+1)·n_q·(2cap+1)
    over the decision levels, and the bytes the TreeValue keeps."""
    pay, dt = tv.payoff, tv.config.dt
    m, nq, dq = pay.market, tv.qgrid.size, tv.dq
    cells = sum((2 * j + 1) * nq for j in range(tv.J + 1))
    cands = 0
    for j in range(tv.J):
        V = float(m.volume.at((j + 1) * dt))
        cap = int(np.floor(m.rho_max * V * dt / dq + 1e-9)) if dq > 0 and V > 0 else 0
        cands += (2 * j + 1) * nq * (2 * min(cap, nq - 1) + 1)
    stored = sum(a.nbytes for a in tv.theta) + sum(a.nbytes for a in tv.control_mult)
    tr.add("tree.cells", cells)
    tr.add("tree.shift_candidates", cands)
    tr.peak("tree.stored_mb", stored / MB)


def _count_pde(tr, surf):
    g = surf.grid
    tr.add("pde.cells", g.n_t * g.n_q * g.n_S)
    tr.peak("pde.stored_mb", (surf.values.nbytes + surf.control.nbytes) / MB)


def _digest(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def _rel_err(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return float("inf")
    scale = max(float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) / scale


# ---------------------------------------------------------------------------
# price-tree: the reference scenario on the tree engine (dt 0.25)


def tree_setup(seed, tr):
    with tr.span("cli.load_config"):
        load_config(CONFIG, engine_override="tree")
    return {}


def tree_op(ctx, tr, i):
    with tr.span("cli.load_config"):
        cfg = load_config(CONFIG, engine_override="tree")
    with tr.span("tree.solve_tree"):
        tv = solve_tree(cfg.payoff, cfg.tree_config)
    _count_tree(tr, tv)
    return {"price": price_with_initial_exchange(tv) / cfg.payoff.contract.N,
            "control0_sha256": _digest(tv.control_mult[0])}


def tree_check(summary, ref, seed, i):
    bad = []
    if summary["price"] != ref["price"]:
        bad.append(f"price {summary['price']!r} != {ref['price']!r}")
    if summary["control0_sha256"] != ref["control0_sha256"]:
        bad.append("control_mult[0] digest differs")
    return bad


# ---------------------------------------------------------------------------
# hedge-mc: the simulate table on a policy solved once in set-up, the
# reference scenario on the default 241x121x252 PDE grid


def path_seed(seed, i):
    """Path seed of op i: seed 0, op 0 is the CLI's default simulation seed."""
    return seed * 100_000 + i


def mc_setup(seed, tr):
    with tr.span("cli.load_config"):
        cfg = load_config(CONFIG, engine_override="pde")
    if cfg.grid.n_t != cfg.sim.n_obs - 1:
        raise ValueError("policy grid must have one level per path step")
    with tr.span("pde.solve_theta"):
        surf = solve_theta(cfg.payoff, cfg.grid, cfg.scheme)
    return {"cfg": cfg, "surf": surf, "seed": seed}


def mc_op(ctx, tr, i):
    cfg, surf = ctx["cfg"], ctx["surf"]
    pay = cfg.payoff
    sim = dataclasses.replace(cfg.sim, seed=path_seed(ctx["seed"], i))
    rows = []
    for M in cfg.M_list:
        with tr.span("simulate.delta_ladder"):
            rows.append(run_delta_hedge(pay, dataclasses.replace(sim, M=M)))
        tr.add("simulate.path_steps", sim.n_paths * M)
    with tr.span("simulate.policy_hedge"):
        st = run_policy_hedge(pay, surf, sim)
    rows.append(st)
    tr.add("simulate.path_steps", sim.n_paths * (sim.n_obs - 1))
    tr.add("simulate.kept", st.n)
    tr.add("simulate.paths", st.n + st.excluded)
    _count_pde(tr, surf)
    c, m = pay.contract, pay.market
    return {"table": [[r.strategy, r.M, r.mean_cost, r.var_cost,
                       r.exec_cost_mean, r.n, r.excluded, r.seed] for r in rows],
            "price": surf.price(0.0, c.q0, m.S0) / c.N,
            "control0": surf.control[0].copy()}


def mc_probe(ctx, tr, i):
    """Time path generation and the policy reads of op i on their own."""
    cfg, surf = ctx["cfg"], ctx["surf"]
    sim = dataclasses.replace(cfg.sim, seed=path_seed(ctx["seed"], i))
    c, g = cfg.payoff.contract, surf.grid
    with tr.span("simulate.price_paths"):
        S = simulate_price_paths(cfg.payoff.market, sim, c.T)
    q = np.full(sim.n_paths, c.q0)
    with tr.span("pde.policy_lookup"):
        for n in range(sim.n_obs - 1):
            surf.policy(surf.t_grid[n], q, np.clip(S[:, n], g.S_min, g.S_max))


def mc_check(summary, ref, seed, i):
    """The policy surface read by the op (price and level-0 control within
    PDE_RTOL of the recorded ones), then the table."""
    bad = []
    err = _rel_err(summary["price"], ref["price"])
    if not err <= PDE_RTOL:
        bad.append(f"PDE price {summary['price']!r} off by {err:.3g} relative")
    err = _rel_err(summary["control0"], ref["control0"])
    if not err <= PDE_RTOL:
        bad.append(f"PDE level-0 control off by {err:.3g} relative")
    table = summary["table"]
    excluded = sum(row[6] for row in table)
    if excluded:
        bad.append(f"{excluded} paths excluded")
    delta_var = [row[3] for row in table if row[0] == "delta"]
    policy_var = [row[3] for row in table if row[0] == "policy"]
    if len(policy_var) != 1 or not policy_var[0] < min(delta_var):
        bad.append(f"policy variance {policy_var} not below every delta rung")
    if seed == 0 and i == 0 and table != ref["table"]:
        bad.append("table at seed 0, op 0 differs from the recorded one")
    return bad


# ---------------------------------------------------------------------------
# sweep-mix: ten small solves on coarse grids, in a seed-shuffled order

SWEEP_TREE_DT = 1.0
SWEEP_GRID = {"n_S": 121, "n_q": 61, "steps_per_day": 2}


def _sweep_variants(cfg):
    pay = cfg.payoff
    c, m, cost = pay.contract, pay.market, pay.cost
    problems = {
        "ref": pay,
        "q0-0": PayoffSpec(dataclasses.replace(c, q0=0.0), m, cost),
        "drift": PayoffSpec(c, dataclasses.replace(m, mu=0.05 / 252, r=0.02 / 252), cost),
        "cash": PayoffSpec(dataclasses.replace(c, settlement="cash"),
                           dataclasses.replace(m, rho_max=0.5), cost),
        "impact": PayoffSpec(c, dataclasses.replace(m, k=1e-7), cost),
    }
    return [(f"{engine}-{name}", engine, p)
            for engine in ("tree", "pde") for name, p in problems.items()]


def sweep_setup(seed, tr):
    with tr.span("cli.load_config"):
        cfg = load_config(CONFIG)
    return {"variants": _sweep_variants(cfg), "rng": random.Random(seed),
            "tree_config": dataclasses.replace(cfg.tree_config, dt=SWEEP_TREE_DT),
            "scheme": cfg.scheme}


def _sweep_price(ctx, tr, engine, pay):
    """Per-share price of one variant; the solution dies with this frame."""
    c, m = pay.contract, pay.market
    grid = GridSpec.default(pay, **SWEEP_GRID) if engine == "pde" else None
    if m.k != 0.0:
        with tr.span("impact.solve_with_impact"):
            sol = solve_with_impact(pay, engine, grid=grid, scheme=ctx["scheme"],
                                    config=ctx["tree_config"])
        return sol.price / c.N
    if engine == "tree":
        with tr.span("tree.solve_tree"):
            tv = solve_tree(pay, ctx["tree_config"])
        _count_tree(tr, tv)
        return price_with_initial_exchange(tv) / c.N
    with tr.span("pde.solve_theta"):
        surf = solve_theta(pay, grid, ctx["scheme"])
    _count_pde(tr, surf)
    return surf.price(0.0, c.q0, m.S0) / c.N


def sweep_op(ctx, tr, i):
    variants = list(ctx["variants"])
    ctx["rng"].shuffle(variants)
    return {"prices": {name: _sweep_price(ctx, tr, engine, pay)
                       for name, engine, pay in variants}}


def sweep_check(summary, ref, seed, i):
    got, want = summary["prices"], ref["prices"]
    if set(got) != set(want):
        return [f"variants {sorted(got)} != {sorted(want)}"]
    bad = []
    for name, price in want.items():
        ok = (got[name] == price if name.startswith("tree-")
              else _rel_err(got[name], price) <= PDE_RTOL)
        if not ok:
            bad.append(f"{name}: price {got[name]!r} != recorded {price!r}")
    return bad


# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Workload:
    setup: object
    op: object
    check: object
    probe: object = None


WORKLOADS = {
    "price-tree": Workload(tree_setup, tree_op, tree_check),
    "hedge-mc": Workload(mc_setup, mc_op, mc_check, mc_probe),
    "sweep-mix": Workload(sweep_setup, sweep_op, sweep_check),
}


def load_reference():
    """Recorded summaries by workload; arrays live in the .npz beside the
    JSON, keyed "<workload>.<field>"."""
    with open(REFERENCE) as fh:
        ref = json.load(fh)
    with np.load(REFERENCE_ARRAYS) as arrays:
        for key in arrays.files:
            workload, field = key.split(".", 1)
            ref[workload][field] = arrays[key]
    return ref
