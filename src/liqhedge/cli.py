"""Command line: price, hedge-trajectory, Monte-Carlo and sweep drivers.

Configuration is a single JSON document with top-level sections
`market`, `cost`, `contract`, `solver`, `simulation`; unknown keys are
rejected anywhere. Unit conventions in the file: `mu` and `r` are
annualized and divided by 252 internally, `sigma` is per square-root
day, `T` is in days, volumes are shares per day. Exit codes: 0 success,
2 configuration error, 3 numerical failure.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__
from .fixtures import reference_path
from .impact import solve_with_impact
from .model import (
    ExecutionCost,
    MarketParams,
    OptionContract,
    PayoffSpec,
    VolumeCurve,
    bachelier_delta,
)
from .pde import GridSpec, SchemeConfig, solve_theta
from .simulate import (
    PathConfig,
    policy_trajectory,
    run_delta_hedge,
    run_policy_hedge,
)
from .tree import TreeConfig, n_steps, price_with_initial_exchange, solve_tree

DAYS_PER_YEAR = 252.0

# sweep parameter -> (payoff part, field, divisor from file units to model
# units; None leaves the value as given)
_SWEEP_FIELDS = {
    "eta": ("cost", "eta", None),
    "gamma": ("contract", "gamma", None),
    "q0": ("contract", "q0", None),
    "rho_max": ("market", "rho_max", None),
    "r": ("market", "r", DAYS_PER_YEAR),
    "mu": ("market", "mu", DAYS_PER_YEAR),
    "k": ("market", "k", None),
    "settlement": ("contract", "settlement", None),
}
SWEEP_PARAMS = tuple(_SWEEP_FIELDS)


class ConfigError(Exception):
    pass


class NumericalError(Exception):
    pass


# ---------------------------------------------------------------------------
# config loading

_SECTIONS = {
    "market": {"S0", "sigma", "volume", "rho_max", "mu", "r", "k"},
    "cost": {"eta", "phi", "psi"},
    "contract": {"K", "T", "N", "gamma", "q0", "settlement", "penalty_rate"},
    "solver": {"engine", "tree", "pde"},
    "simulation": {"n_paths", "n_obs", "seed", "M", "strategies"},
}
_TREE_KEYS = {"dt", "alpha", "dq", "q_min", "q_max"}
_PDE_KEYS = {"n_S", "n_q", "steps_per_day", "S_min", "S_max", "q_min",
             "q_max", "order", "n_controls", "cfl_safety"}


def _reject_unknown(name: str, section: dict, allowed: set):
    if not isinstance(section, dict):
        raise ConfigError(f"{name}: expected a JSON object")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"{name}: unknown key(s) {sorted(unknown)}")


def _need(name: str, section: dict, key: str):
    if key not in section:
        raise ConfigError(f"{name}: missing required key '{key}'")
    return section[key]


@dataclass
class RunConfig:
    payoff: PayoffSpec
    engine: str
    tree_config: TreeConfig
    grid: Optional[GridSpec]
    scheme: SchemeConfig
    sim: PathConfig
    M_list: list
    strategies: list
    raw: dict

    @property
    def config_hash(self) -> str:
        text = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _build_market(sec: dict) -> MarketParams:
    _reject_unknown("market", sec, _SECTIONS["market"])
    vol = _need("market", sec, "volume")
    if isinstance(vol, dict):
        _reject_unknown("market.volume", vol, {"starts", "values"})
        vol = VolumeCurve(_need("market.volume", vol, "starts"),
                          _need("market.volume", vol, "values"))
    return MarketParams(
        S0=float(_need("market", sec, "S0")),
        sigma=float(_need("market", sec, "sigma")),
        volume=vol,
        rho_max=float(_need("market", sec, "rho_max")),
        mu=float(sec.get("mu", 0.0)) / DAYS_PER_YEAR,
        r=float(sec.get("r", 0.0)) / DAYS_PER_YEAR,
        k=float(sec.get("k", 0.0)),
    )


def _build_cost(sec: dict) -> ExecutionCost:
    _reject_unknown("cost", sec, _SECTIONS["cost"])
    return ExecutionCost(eta=float(_need("cost", sec, "eta")),
                         phi=float(_need("cost", sec, "phi")),
                         psi=float(sec.get("psi", 0.0)))


def _build_contract(sec: dict) -> OptionContract:
    _reject_unknown("contract", sec, _SECTIONS["contract"])
    return OptionContract(
        K=float(_need("contract", sec, "K")),
        T=float(_need("contract", sec, "T")),
        N=float(_need("contract", sec, "N")),
        gamma=float(_need("contract", sec, "gamma")),
        q0=float(sec.get("q0", 0.0)),
        settlement=str(sec.get("settlement", "physical")),
    )


def load_config(path: str, engine_override=None, seed_override=None) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    _reject_unknown("config", raw, set(_SECTIONS))
    for key in ("market", "cost", "contract"):
        if key not in raw:
            raise ConfigError(f"config: missing required section '{key}'")

    try:
        market = _build_market(raw["market"])
        cost = _build_cost(raw["cost"])
        contract = _build_contract(raw["contract"])
        penalty_rate = raw["contract"].get("penalty_rate")
        payoff = PayoffSpec(contract, market, cost,
                            penalty_rate=None if penalty_rate is None
                            else float(penalty_rate))
    except (ValueError, TypeError) as e:
        raise ConfigError(str(e))

    solver = raw.get("solver", {})
    _reject_unknown("solver", solver, _SECTIONS["solver"])
    engine = engine_override or solver.get("engine", "pde")
    if engine not in ("pde", "tree"):
        raise ConfigError(f"engine must be 'pde' or 'tree', got '{engine}'")

    tree_sec = solver.get("tree", {})
    _reject_unknown("solver.tree", tree_sec, _TREE_KEYS)
    pde_sec = solver.get("pde", {})
    _reject_unknown("solver.pde", pde_sec, _PDE_KEYS)
    try:
        tree_config = TreeConfig(
            dt=float(tree_sec.get("dt", 0.25)),
            alpha=float(tree_sec.get("alpha", math.sqrt(2.0))),
            dq=tree_sec.get("dq"),
            q_min=tree_sec.get("q_min"),
            q_max=tree_sec.get("q_max"),
        )
        scheme = SchemeConfig(
            order=pde_sec.get("order", "ABC"),
            n_controls=int(pde_sec.get("n_controls", 41)),
            cfl_safety=float(pde_sec.get("cfl_safety", 0.9)),
        )
        if {"S_min", "S_max", "q_min", "q_max"} <= set(pde_sec):
            n_t = int(round(pde_sec.get("steps_per_day", 4) * contract.T))
            grid = GridSpec(float(pde_sec["S_min"]), float(pde_sec["S_max"]),
                            int(pde_sec.get("n_S", 241)),
                            float(pde_sec["q_min"]), float(pde_sec["q_max"]),
                            int(pde_sec.get("n_q", 121)), n_t)
        else:
            grid = GridSpec.default(payoff,
                                    n_S=int(pde_sec.get("n_S", 241)),
                                    n_q=int(pde_sec.get("n_q", 121)),
                                    steps_per_day=int(pde_sec.get("steps_per_day", 4)))
        if engine == "tree":
            n_steps(contract.T, tree_config.dt)
    except (ValueError, TypeError) as e:
        raise ConfigError(f"solver: {e}")

    sim_sec = raw.get("simulation", {})
    _reject_unknown("simulation", sim_sec, _SECTIONS["simulation"])
    try:
        M_raw = sim_sec.get("M", [10, 20, 40, 80, 160])
        M_list = [int(m) for m in (M_raw if isinstance(M_raw, list) else [M_raw])]
        strategies = list(sim_sec.get("strategies", ["delta", "policy"]))
        seed = seed_override if seed_override is not None else int(sim_sec.get("seed", 0))
        sim = PathConfig(n_paths=int(sim_sec.get("n_paths", 10_000)),
                         n_obs=int(sim_sec.get("n_obs", 253)),
                         seed=seed)
        for M in M_list:
            dataclasses.replace(sim, M=M)  # validates each rebalance count
    except (ValueError, TypeError) as e:
        raise ConfigError(f"simulation: {e}")
    for s in strategies:
        if s not in ("delta", "policy"):
            raise ConfigError(f"simulation: unknown strategy '{s}'")

    return RunConfig(payoff, engine, tree_config, grid, scheme, sim,
                     M_list, strategies, raw)


# ---------------------------------------------------------------------------
# shared plumbing


def _solve(cfg: RunConfig):
    """Solve the pricing problem; returns (price_total, solution, diagnostics)."""
    pay = cfg.payoff
    c, m = pay.contract, pay.market
    t0 = time.perf_counter()
    if m.k != 0.0:
        sol = solve_with_impact(pay, cfg.engine, grid=cfg.grid,
                                scheme=cfg.scheme, config=cfg.tree_config)
        price, inner = sol.price, sol.solution
    elif cfg.engine == "tree":
        inner = solve_tree(pay, cfg.tree_config)
        price = price_with_initial_exchange(inner)
    else:
        inner = solve_theta(pay, cfg.grid, cfg.scheme)
        price = float(inner.price(0.0, c.q0, m.S0))
    wall = time.perf_counter() - t0
    if not math.isfinite(price):
        raise NumericalError("solver produced a non-finite price")
    if cfg.engine == "tree":
        diag = {"levels": n_steps(c.T, cfg.tree_config.dt),
                "dt": cfg.tree_config.dt}
    else:
        g = cfg.grid
        diag = {"n_S": g.n_S, "n_q": g.n_q, "n_t": g.n_t}
    diag["wall_time_s"] = round(wall, 3)
    return price, inner, diag


def _meta_line(cfg: RunConfig) -> str:
    return (f"# liqhedge {__version__} seed={cfg.sim.seed} "
            f"config_sha256={cfg.config_hash}")


def _emit(text: str, out: Optional[str]):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands


def cmd_price(cfg: RunConfig, args) -> str:
    price, _, diag = _solve(cfg)
    c = cfg.payoff.contract
    per_share = price / c.N if c.N else price
    if args.format == "csv":
        lines = ["engine,settlement,price_per_share,price_total,wall_time_s",
                 f"{cfg.engine},{c.settlement},{per_share:.10g},"
                 f"{price:.10g},{diag['wall_time_s']}",
                 _meta_line(cfg)]
        return "\n".join(lines) + "\n"
    report = {
        "command": "price",
        "engine": cfg.engine,
        "settlement": c.settlement,
        "price_per_share": per_share,
        "price_total": price,
        "grid": {k: v for k, v in diag.items() if k != "wall_time_s"},
        "wall_time_s": diag["wall_time_s"],
        "version": __version__,
        "seed": cfg.sim.seed,
        "config_sha256": cfg.config_hash,
    }
    return json.dumps(report, indent=2) + "\n"


def _load_path_file(path: Optional[str]):
    if path is None:
        return reference_path()
    try:
        with open(path) as fh:
            lines = [ln for ln in fh.read().strip().splitlines()
                     if ln and not ln.startswith("#")]
    except OSError as e:
        raise ConfigError(f"cannot read path file: {e}")
    if not lines or [h.strip() for h in lines[0].split(",")][:2] != ["t", "S"]:
        raise ConfigError("path file must have columns t,S")
    try:
        arr = np.asarray([ln.split(",")[:2] for ln in lines[1:]], dtype=float)
    except ValueError as e:
        raise ConfigError(f"path file: {e}")
    if arr.shape[1:] != (2,) or len(arr) < 2 or not np.isfinite(arr).all():
        raise ConfigError("path file needs at least two rows of finite t,S")
    return arr[:, 0], arr[:, 1]


def cmd_hedge(cfg: RunConfig, args) -> str:
    """Trajectory along a deterministic path.

    With permanent impact (k > 0) the input path is read as the
    unaffected price component; the S column of the output holds the
    observed price S + k (q - q0) and S_tilde holds the input.
    """
    pay = cfg.payoff
    c, m = pay.contract, pay.market
    t, S = _load_path_file(args.path)
    steps = len(S) - 1
    expected = (n_steps(c.T, cfg.tree_config.dt) if cfg.engine == "tree"
                else cfg.grid.n_t)
    if steps != expected:
        raise ConfigError(f"path has {steps} steps but the {cfg.engine} "
                          f"solver is configured for {expected}")
    if not np.allclose(np.diff(t), c.T / steps, rtol=1e-9, atol=1e-12):
        raise ConfigError("path times must be uniform over [0, T]")

    _, solution, _ = _solve(cfg)
    try:
        q, v = policy_trajectory(pay, solution, S)
    except ValueError as e:
        raise NumericalError(str(e))
    v_full = np.append(v, 0.0)
    if m.k != 0.0:
        S_obs = S + m.k * (q - c.q0)
        cols = "t,S,q_model,q_bachelier_delta,v_model,S_tilde"
    else:
        S_obs = S
        cols = "t,S,q_model,q_bachelier_delta,v_model"
    tau = np.maximum(c.T - t, 0.0)
    q_delta = c.N * bachelier_delta(S_obs, c.K, m.sigma, tau)
    lines = [cols]
    for i in range(len(t)):
        row = (f"{t[i]:.10g},{S_obs[i]:.10g},{q[i]:.10g},"
               f"{q_delta[i]:.10g},{v_full[i]:.10g}")
        if m.k != 0.0:
            row += f",{S[i]:.10g}"
        lines.append(row)
    lines.append(_meta_line(cfg))
    return "\n".join(lines) + "\n"


def cmd_simulate(cfg: RunConfig, args) -> str:
    pay = cfg.payoff
    if pay.market.k != 0.0:
        raise ConfigError("simulation requires k = 0")
    rows = ["strategy,M,mean_cost,var_cost,exec_cost_mean,n_paths,seed"]

    def add(st):
        rows.append(f"{st.strategy},{st.M},{st.mean_cost:.10g},"
                    f"{st.var_cost:.10g},{st.exec_cost_mean:.10g},"
                    f"{st.n},{st.seed}")

    if "delta" in cfg.strategies:
        for M in cfg.M_list:
            add(run_delta_hedge(pay, dataclasses.replace(cfg.sim, M=M)))
    if "policy" in cfg.strategies:
        steps = cfg.sim.n_obs - 1
        c = pay.contract
        if cfg.engine == "tree":
            tc = dataclasses.replace(cfg.tree_config, dt=c.T / steps)
            solution = solve_tree(pay, tc)
        else:
            per_day = steps / c.T
            if abs(per_day - round(per_day)) > 1e-9:
                raise ConfigError("n_obs - 1 must be a whole number of steps "
                                  "per day for the pde engine")
            grid = GridSpec.default(pay, n_S=cfg.grid.n_S, n_q=cfg.grid.n_q,
                                    steps_per_day=int(round(per_day)))
            solution = solve_theta(pay, grid, cfg.scheme)
        add(run_policy_hedge(pay, solution, cfg.sim))
    rows.append(_meta_line(cfg))
    return "\n".join(rows) + "\n"


def _sweep_values(text: str, param: str):
    vals = [v.strip() for v in text.split(",") if v.strip()]
    if not vals:
        raise ConfigError("--values is empty")
    if param == "settlement":
        return vals
    try:
        return [float(v) for v in vals]
    except ValueError as e:
        raise ConfigError(f"--values: {e}")


def _with_param(pay: PayoffSpec, param: str, value):
    part, field, per = _SWEEP_FIELDS[param]
    new = value if per is None else value / per
    try:
        changed = dataclasses.replace(getattr(pay, part), **{field: new})
        return dataclasses.replace(pay, **{part: changed}, penalty_rate=None)
    except ValueError as e:
        raise ConfigError(f"sweep value {value!r}: {e}")


def cmd_sweep(cfg: RunConfig, args) -> str:
    if args.param is None or args.values is None:
        raise ConfigError("sweep needs --param and --values")
    if args.param not in SWEEP_PARAMS:
        raise ConfigError(f"--param must be one of {', '.join(SWEEP_PARAMS)}")
    values = _sweep_values(args.values, args.param)
    rows = ["param,value,price_per_share"]
    for value in values:
        pay = _with_param(cfg.payoff, args.param, value)
        sub = dataclasses.replace(cfg, payoff=pay)
        price, _, _ = _solve(sub)
        per_share = price / pay.contract.N if pay.contract.N else price
        val_text = value if isinstance(value, str) else f"{value:.10g}"
        rows.append(f"{args.param},{val_text},{per_share:.10g}")
    rows.append(_meta_line(cfg))
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# entry point


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="liqhedge",
        description="Utility-indifference option pricing under execution "
                    "costs: pricing, hedging trajectories, Monte-Carlo "
                    "benchmarks and parameter sweeps.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, fn in (("price", cmd_price), ("hedge", cmd_hedge),
                     ("simulate", cmd_simulate), ("sweep", cmd_sweep)):
        sp = sub.add_parser(name)
        sp.set_defaults(fn=fn)
        sp.add_argument("--config", required=True)
        sp.add_argument("--engine", choices=("pde", "tree"))
        sp.add_argument("--out")
        sp.add_argument("--seed", type=int)
        if name == "price":
            sp.add_argument("--format", choices=("json", "csv"), default="json")
        if name == "hedge":
            sp.add_argument("--path", help="CSV with columns t,S; defaults "
                                           "to the bundled scenario path")
        if name == "sweep":
            sp.add_argument("--param", choices=SWEEP_PARAMS)
            sp.add_argument("--values",
                            help="comma-separated values, e.g. 0.2,0.1,0.05")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config, engine_override=args.engine,
                          seed_override=args.seed)
        text = args.fn(cfg, args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except (FloatingPointError, np.linalg.LinAlgError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    _emit(text, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
