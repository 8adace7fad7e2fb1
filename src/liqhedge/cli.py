"""Command line: price, hedge-trajectory, Monte-Carlo and sweep drivers.

Configuration is a single JSON document with top-level sections
`market`, `cost`, `contract`, `solver`, `simulation`; unknown keys are
rejected anywhere, and a key left out takes the default of the library
object it builds. Unit conventions in the file: `mu` and `r` are
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
from .fixtures import _parse_path_csv, reference_path
from .impact import solve_with_impact
from .model import (
    ExecutionCost,
    MarketParams,
    OptionContract,
    PayoffSpec,
    VolumeCurve,
    bachelier_delta,
)
from .pde import GridSpec, SchemeConfig
from .simulate import (
    PathConfig,
    policy_trajectory,
    run_delta_hedge,
    run_policy_hedge,
)
from .tree import TreeConfig, n_steps

DAYS_PER_YEAR = 252.0

# sweep parameter -> the config section whose table converts its value
_SWEEP_FIELDS = {"eta": "cost", "gamma": "contract", "q0": "contract",
                 "rho_max": "market", "r": "market", "mu": "market",
                 "k": "market", "settlement": "contract"}
SWEEP_PARAMS = tuple(_SWEEP_FIELDS)


class ConfigError(Exception):
    pass


class NumericalError(Exception):
    pass


# ---------------------------------------------------------------------------
# config loading: one table per section maps each key to its conversion from
# file units to model units. An object is built from the keys the file
# gives, so every other field takes the object's own default.


def _reject_unknown(name: str, section: dict, allowed):
    if not isinstance(section, dict):
        raise ConfigError(f"{name}: expected a JSON object")
    unknown = section.keys() - allowed
    if unknown:
        raise ConfigError(f"{name}: unknown key(s) {sorted(unknown)}")


def _build(name: str, section: dict, make):
    """make(**converted keys of section); every failure is a ConfigError."""
    table = _TABLES[name]
    _reject_unknown(name, section, table)
    try:
        return make(**{key: table[key](value) for key, value in section.items()})
    except (ValueError, TypeError, OverflowError, KeyError) as e:
        raise ConfigError(f"{name}: {e}")


def _optional(convert):
    """JSON null keeps meaning "use the default"."""
    return lambda value: None if value is None else convert(value)


def _number(value):
    """A JSON number as a float; a boolean, a string or anything else raises."""
    if type(value) not in (int, float):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _numbers(value):
    """A number, or a list of numbers, as _number reads each."""
    return [_number(v) for v in value] if isinstance(value, list) else _number(value)


def _per_day(annual):
    return _number(annual) / DAYS_PER_YEAR


def _int(value):
    """An integral JSON number, such as 21 or 1e4; anything else raises."""
    if not _number(value).is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


_TABLES = {
    "market": {"S0": _number, "sigma": _number, "rho_max": _number,
               "mu": _per_day, "r": _per_day, "k": _number,
               # shares per day, or a {starts, values} curve
               "volume": lambda v: (
                   VolumeCurve(**{key: _numbers(x) for key, x in v.items()})
                   if isinstance(v, dict) else _number(v))},
    "cost": {"eta": _number, "phi": _number, "psi": _number},
    "contract": {"K": _number, "T": _number, "N": _number, "gamma": _number,
                 "q0": _number, "settlement": str, "penalty_rate": _optional(_number)},
    "solver.tree": {"dt": _number, "alpha": _number, "dq": _optional(_number),
                    "q_min": _optional(_number), "q_max": _optional(_number)},
    # the SchemeConfig key, then the GridSpec.default keys
    "solver.pde": {"n_controls": _int, "n_S": _int, "n_q": _int, "steps_per_day": _number,
                   "S_min": _number, "S_max": _number, "q_min": _number,
                   "q_max": _number},
    "simulation": {"n_paths": _int, "n_obs": _int, "seed": _int, "strategies": lambda s: s,
                   "M": lambda M: [_int(m) for m in (M if isinstance(M, list) else [M])]},
}


def _scheme_and_grid(payoff, engine, n_controls=SchemeConfig.n_controls, **keys):
    """The SchemeConfig, and the default grid on PDE runs only (else None)."""
    scheme = SchemeConfig(n_controls)
    return scheme, GridSpec.default(payoff, **keys) if engine == "pde" else None


def _simulation(M=(10, 20, 40, 80, 160), strategies=("delta", "policy"), **keys):
    """The PathConfig, plus the CLI-only rebalance counts and strategies, checked here."""
    sim = PathConfig(**keys)
    for m in M:
        dataclasses.replace(sim, M=m)  # validates each rebalance count
    if not isinstance(strategies, (list, tuple)):
        raise ValueError(f"strategies must be a JSON list, got {strategies!r}")
    for s in strategies:
        if s not in ("delta", "policy"):
            raise ValueError(f"unknown strategy '{s}'")
    if not strategies:
        raise ValueError("strategies is empty; the table would have no rows")
    if "delta" in strategies and not M:
        raise ValueError("M is empty; the delta strategy needs a rebalance count")
    return sim, list(M), list(strategies)


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


def load_config(path: str, engine_override=None, seed_override=None) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}")
    except (ValueError, RecursionError) as e:  # bad JSON, not UTF-8, too deep
        raise ConfigError(f"config is not valid JSON: {e}")
    _reject_unknown("config", raw, {"market", "cost", "contract", "solver", "simulation"})
    market = _build("market", raw.get("market", {}), MarketParams)
    cost = _build("cost", raw.get("cost", {}), ExecutionCost)
    payoff = _build("contract", raw.get("contract", {}),
                    lambda penalty_rate=None, **contract: PayoffSpec(
                        OptionContract(**contract), market, cost, penalty_rate))

    solver = raw.get("solver", {})
    _reject_unknown("solver", solver, {"engine", "tree", "pde"})
    engine = engine_override or solver.get("engine", "pde")
    if engine not in ("pde", "tree"):
        raise ConfigError(f"engine must be 'pde' or 'tree', got '{engine}'")
    tree_config = _build("solver.tree", solver.get("tree", {}), TreeConfig)
    scheme, grid = _build("solver.pde", solver.get("pde", {}),
                          lambda **keys: _scheme_and_grid(payoff, engine, **keys))
    if engine == "tree":
        try:
            n_steps(payoff.contract.T, tree_config.dt)
        except ValueError as e:
            raise ConfigError(f"solver.tree: {e}")

    sim_sec = raw.get("simulation", {})
    if seed_override is not None and isinstance(sim_sec, dict):
        sim_sec = {**sim_sec, "seed": seed_override}
    sim, M_list, strategies = _build("simulation", sim_sec, _simulation)
    return RunConfig(payoff, engine, tree_config, grid, scheme, sim,
                     M_list, strategies, raw)


# ---------------------------------------------------------------------------
# shared plumbing


def _solve(cfg: RunConfig):
    """Solve the pricing problem; returns the ImpactSolution.

    A grid that does not fit the problem (q0 or S0 off it, a trade that is
    not a whole number of inventory steps) is a config error.
    """
    try:
        sol = solve_with_impact(cfg.payoff, cfg.engine, grid=cfg.grid,
                                scheme=cfg.scheme, config=cfg.tree_config)
    except np.linalg.LinAlgError:
        raise  # a ValueError subclass, but a numerical failure
    except ValueError as e:
        raise ConfigError(f"solver: {e}")
    if not math.isfinite(sol.price):
        raise NumericalError("solver produced a non-finite price")
    return sol


def _meta_line(cfg: RunConfig) -> str:
    return (f"# liqhedge {__version__} seed={cfg.sim.seed} "
            f"config_sha256={cfg.config_hash}")


def _emit(text: str, out: Optional[str]):
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise ConfigError(f"cannot write output: {e}")


# ---------------------------------------------------------------------------
# commands


def cmd_price(cfg: RunConfig, args) -> str:
    t0 = time.perf_counter()
    sol = _solve(cfg)
    wall = round(time.perf_counter() - t0, 3)
    price, c = sol.price, cfg.payoff.contract
    per_share = price / c.N if c.N else price
    if args.format == "csv":
        lines = ["engine,settlement,price_per_share,price_total,wall_time_s",
                 f"{cfg.engine},{c.settlement},{per_share:.10g},"
                 f"{price:.10g},{wall}",
                 _meta_line(cfg)]
        return "\n".join(lines) + "\n"
    if cfg.engine == "tree":
        grid = {"levels": sol.solution.J, "dt": cfg.tree_config.dt}
    else:
        g = cfg.grid
        grid = {"n_S": g.n_S, "n_q": g.n_q, "n_t": g.n_t}
    report = {
        "command": "price",
        "engine": cfg.engine,
        "settlement": c.settlement,
        "price_per_share": per_share,
        "price_total": price,
        "grid": grid,
        "wall_time_s": wall,
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
            return _parse_path_csv(fh.read())
    except OSError as e:
        raise ConfigError(f"cannot read path file: {e}")
    except ValueError as e:
        raise ConfigError(f"path file: {e}")


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
    h = c.T / steps  # tau = T - t is read from the times, so t must start at 0
    if not (np.allclose(np.diff(t), h, rtol=1e-9, atol=1e-12)
            and abs(t[0]) <= 1e-12 + 1e-9 * h):
        raise ConfigError("path times must be uniform over [0, T]")

    sol = _solve(cfg)
    try:
        q, v = policy_trajectory(pay, sol.solution, S)
    except ValueError as e:
        raise NumericalError(str(e))
    v_full = np.append(v, 0.0)
    S_obs = pay.observed_price(S, q)
    cols = "t,S,q_model,q_bachelier_delta,v_model" + (",S_tilde" if m.k else "")
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
    rows = ["strategy,M,mean_cost,var_cost,exec_cost_mean,n_paths,seed,excluded"]

    def add(run, *args):
        try:
            st = run(pay, *args)
        except ValueError as e:  # e.g. the delta ladder on a zero-volume interval
            raise NumericalError(str(e))
        rows.append(f"{st.strategy},{st.M},{st.mean_cost:.10g},"
                    f"{st.var_cost:.10g},{st.exec_cost_mean:.10g},"
                    f"{st.n},{st.seed},{st.excluded}")

    if "delta" in cfg.strategies:
        for M in cfg.M_list:
            add(run_delta_hedge, dataclasses.replace(cfg.sim, M=M))
    if "policy" in cfg.strategies:
        # the policy is solved on the simulation's own time grid
        steps = cfg.sim.n_obs - 1
        if cfg.engine == "tree":
            tree = dataclasses.replace(cfg.tree_config, dt=pay.contract.T / steps)
            on_paths = dataclasses.replace(cfg, tree_config=tree)
        else:
            on_paths = dataclasses.replace(cfg, grid=dataclasses.replace(cfg.grid, n_t=steps))
        add(run_policy_hedge, _solve(on_paths).solution, cfg.sim)
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


def _with_param(cfg: RunConfig, param: str, value):
    try:
        return cfg.payoff.replace(**{param: _TABLES[_SWEEP_FIELDS[param]][param](value)})
    except ValueError as e:
        raise ConfigError(f"sweep value {value!r}: {e}")


def cmd_sweep(cfg: RunConfig, args) -> str:
    if args.param is None or args.values is None:
        raise ConfigError("sweep needs --param and --values")
    values = _sweep_values(args.values, args.param)
    # every value is checked before the first solve
    payoffs = [_with_param(cfg, args.param, value) for value in values]
    rows = ["param,value,price_per_share"]
    for value, pay in zip(values, payoffs):
        price = _solve(dataclasses.replace(cfg, payoff=pay)).price
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
        # numpy's overflow warnings stay silent: the engines raise on a
        # non-finite value, so stderr holds the one line below
        with np.errstate(all="ignore"):
            cfg = load_config(args.config, engine_override=args.engine,
                              seed_override=args.seed)
            _emit(args.fn(cfg, args), args.out)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (NumericalError, ArithmeticError, np.linalg.LinAlgError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except MemoryError as e:
        print(f"config error: the problem does not fit in memory ({e})", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
