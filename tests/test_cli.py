"""CLI tests: config validation and exit codes, output formats, the four
subcommands, determinism of emitted artifacts."""

import contextlib
import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liqhedge.cli import load_config, main
from liqhedge.model import bachelier_price
from liqhedge.pde import solve_theta
from liqhedge.simulate import run_policy_hedge

META_PREFIX = "# liqhedge "


def reference_dict(**overrides):
    cfg = {
        "market": {"S0": 45.0, "sigma": 0.6, "volume": 4e6, "rho_max": 5.0},
        "cost": {"eta": 0.1, "phi": 0.75},
        "contract": {"K": 45.0, "T": 63.0, "N": 2e7, "gamma": 2e-7,
                     "q0": 1e7, "settlement": "physical"},
    }
    cfg.update(overrides)
    return cfg


def write(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# price


def test_price_json_tree_reference(tmp_path, capsys):
    path = write(tmp_path, reference_dict())
    code, out = run(capsys, "price", "--config", path, "--engine", "tree")
    assert code == 0
    report = json.loads(out)
    assert report["price_per_share"] == pytest.approx(2.0615997326, abs=1e-6)
    assert report["engine"] == "tree"
    assert report["grid"]["levels"] == 252
    assert len(report["config_sha256"]) == 16


def test_price_csv_mode(tmp_path, capsys):
    cfg = reference_dict(solver={"engine": "tree", "tree": {"dt": 1.0}})
    path = write(tmp_path, cfg)
    code, out = run(capsys, "price", "--config", path, "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "engine,settlement,price_per_share,price_total,wall_time_s"
    assert lines[-1].startswith(META_PREFIX)
    fields = lines[1].split(",")
    assert fields[0] == "tree" and fields[1] == "physical"
    assert float(fields[2]) == pytest.approx(float(fields[3]) / 2e7, rel=1e-9)


def test_price_degenerates_to_bachelier(tmp_path, capsys):
    # no execution cost and vanishing risk aversion: the certainty
    # equivalent collapses to the expected payoff
    cfg = reference_dict()
    cfg["cost"]["eta"] = 0.0
    cfg["contract"]["gamma"] = 1e-12
    path = write(tmp_path, cfg)
    code, out = run(capsys, "price", "--config", path, "--engine", "tree")
    assert code == 0
    per_share = json.loads(out)["price_per_share"]
    assert per_share == pytest.approx(bachelier_price(45.0, 45.0, 0.6, 63.0),
                                      abs=0.01)


# ---------------------------------------------------------------------------
# config errors


def test_unknown_keys_rejected(tmp_path, capsys):
    cfg = reference_dict()
    cfg["market"]["spread"] = 0.01
    assert run(capsys, "price", "--config", write(tmp_path, cfg))[0] == 2

    cfg2 = reference_dict(extra={})
    assert run(capsys, "price", "--config", write(tmp_path, cfg2, "b.json"))[0] == 2


def test_missing_section_bad_json_missing_file(tmp_path, capsys):
    cfg = reference_dict()
    del cfg["contract"]
    assert run(capsys, "price", "--config", write(tmp_path, cfg))[0] == 2

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run(capsys, "price", "--config", str(broken))[0] == 2
    assert run(capsys, "price", "--config", str(tmp_path / "absent.json"))[0] == 2


def test_invalid_field_value_reports_config_error(tmp_path, capsys):
    cfg = reference_dict()
    cfg["market"]["sigma"] = -1.0
    code, _ = run(capsys, "price", "--config", write(tmp_path, cfg))
    assert code == 2


@pytest.mark.parametrize("command, section, key, value", [
    ("simulate", "simulation", "M", ["x"]),
    ("simulate", "simulation", "M", [1]),
    ("simulate", "simulation", "seed", -1),
    ("price", "market", "S0", float("nan")),
    ("price", "market", "rho_max", float("nan")),
    ("price", "cost", "eta", float("nan")),
    ("price", "cost", "psi", float("nan")),
    ("price", "contract", "gamma", float("inf")),
    ("price", "solver", "tree", {"dt": 0.4}),  # does not divide T = 63
    ("price", "solver", "tree", {"dq": 3e5}),  # does not divide the max trade
    ("price", "contract", "q0", 1234567),      # off the inventory grid
    ("simulate", "simulation", "seed", float("inf")),
    ("simulate", "simulation", "n_paths", float("inf")),
    ("simulate", "simulation", "n_obs", float("inf")),
    ("price", "solver", "pde", {"n_S": float("inf")}),
    ("price", "solver", "pde", {"n_q": float("inf")}),
    ("price", "solver", "pde", {"steps_per_day": float("inf")}),
    ("price", "solver", "pde", {"cfl_safety": 0.0}),
    ("price", "solver", "pde", {"steps_per_day": -3}),
    ("price", "solver", "pde", {"steps_per_day": 0}),
    ("price", "solver", "pde", {"q_min": 0.0, "q_max": 0.0}),  # empty q range
    ("price", "market", "volume", {"starts": [float("nan"), 2.0],
                                   "values": [4e6, 2e6]}),
    ("simulate", "market", "volume", {"starts": [0.0, 2.0],  # no volume
                                      "values": [4e6, 0.0]}),  # to liquidate
    ("price", "solver", "pde", {"S_min": float("-inf")}),
    ("simulate", "simulation", "n_paths", 1),  # no sample variance
])
def test_bad_values_exit_with_config_error(tmp_path, capsys, command,
                                           section, key, value):
    cfg = reference_dict(solver={"engine": "tree"},
                         simulation={"n_paths": 20, "M": [10]})
    cfg[section][key] = value
    code = main([command, "--config", write(tmp_path, cfg)])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_config_hash_ignores_formatting(tmp_path):
    cfg = reference_dict()
    a = load_config(write(tmp_path, cfg, "a.json"))
    pretty = tmp_path / "pretty.json"
    pretty.write_text(json.dumps(cfg, indent=4, sort_keys=True))
    b = load_config(str(pretty))
    assert a.config_hash == b.config_hash
    # parse -> serialize -> parse is a fixed point
    assert json.loads(json.dumps(a.raw, sort_keys=True)) == a.raw


# ---------------------------------------------------------------------------
# hedge


def test_hedge_trajectory_smoother_than_delta(tmp_path, capsys):
    path = write(tmp_path, reference_dict())
    code, out = run(capsys, "hedge", "--config", path)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,S,q_model,q_bachelier_delta,v_model"
    assert lines[-1].startswith(META_PREFIX)
    data = np.asarray([ln.split(",") for ln in lines[1:-1]], dtype=float)
    assert data.shape == (253, 5)
    q_model, q_delta = data[:, 2], data[:, 3]
    assert q_model[0] == 1e7
    assert data[-1, 4] == 0.0
    tv_model = np.abs(np.diff(q_model)).sum()
    tv_delta = np.abs(np.diff(q_delta)).sum()
    assert tv_model < tv_delta


def test_hedge_path_resolution_mismatch(tmp_path, capsys):
    short = tmp_path / "short.csv"
    short.write_text("t,S\n" + "\n".join(
        f"{i * 6.3},45.0" for i in range(11)) + "\n")
    path = write(tmp_path, reference_dict())
    code, _ = run(capsys, "hedge", "--config", path, "--path", str(short))
    assert code == 2


@pytest.mark.parametrize("text", [
    "",
    "t,S\n",
    "t,S\n0,45\nx,45\n",
    "t,S\n0\n1\n",
    "t,S\n0,45\n1,nan\n",
])
def test_hedge_bad_path_file_is_config_error(tmp_path, capsys, text):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    path = write(tmp_path, reference_dict())
    code = main(["hedge", "--config", path, "--path", str(bad)])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_tree_step_count_is_shared(tmp_path, capsys):
    # 0.3 / 0.1 is 2.9999999999999996: truncating it would give 2 steps
    cfg = reference_dict(solver={"engine": "tree", "tree": {"dt": 0.1}})
    cfg["contract"]["T"] = 0.3
    path = write(tmp_path, cfg)
    code, out = run(capsys, "price", "--config", path)
    assert code == 0
    assert json.loads(out)["grid"]["levels"] == 3

    four = tmp_path / "four.csv"
    four.write_text("t,S\n" + "\n".join(
        f"{i * 0.1},45.0" for i in range(4)) + "\n")
    code, out = run(capsys, "hedge", "--config", path, "--path", str(four))
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 4 + 1  # header, rows, meta


def test_hedge_hull_exit_is_numerical_failure(tmp_path, capsys):
    cfg = reference_dict(solver={"pde": {
        "S_min": 43.0, "S_max": 47.0, "n_S": 33,
        "q_min": 0.0, "q_max": 2e7, "n_q": 21}})
    code, _ = run(capsys, "hedge", "--config", write(tmp_path, cfg))
    assert code == 3


# ---------------------------------------------------------------------------
# simulate


def sim_dict():
    return reference_dict(
        solver={"engine": "pde", "pde": {"n_S": 81, "n_q": 41}},
        simulation={"n_paths": 200, "seed": 0, "M": [10, 20]})


def test_simulate_csv_shape_and_determinism(tmp_path, capsys):
    path = write(tmp_path, sim_dict())
    code, first = run(capsys, "simulate", "--config", path)
    assert code == 0
    code, second = run(capsys, "simulate", "--config", path)
    assert code == 0
    assert first == second

    lines = first.strip().splitlines()
    assert lines[0] == "strategy,M,mean_cost,var_cost,exec_cost_mean,n_paths,seed"
    assert lines[-1].startswith(META_PREFIX)
    rows = [ln.split(",") for ln in lines[1:-1]]
    assert [r[0] for r in rows] == ["delta", "delta", "policy"]
    assert [int(r[1]) for r in rows] == [10, 20, 252]
    for r in rows:
        assert float(r[3]) >= 0.0 and int(r[5]) <= 200


def test_simulate_seed_flag(tmp_path, capsys):
    path = write(tmp_path, sim_dict())
    _, base = run(capsys, "simulate", "--config", path)
    code, other = run(capsys, "simulate", "--config", path, "--seed", "1")
    assert code == 0
    assert other != base
    assert all(ln.endswith(",1") for ln in other.strip().splitlines()[1:-1])
    assert "seed=1" in other.strip().splitlines()[-1]


def test_simulate_policy_keeps_explicit_pde_bounds(tmp_path, capsys):
    cfg = reference_dict(
        solver={"engine": "pde", "pde": {
            "S_min": 39.0, "S_max": 51.0, "n_S": 25,
            "q_min": 0.0, "q_max": 2e7, "n_q": 21}},
        simulation={"n_paths": 200, "n_obs": 9, "seed": 0,
                    "strategies": ["policy"]})
    cfg["contract"]["T"] = 4.0
    path = write(tmp_path, cfg)
    code, out = run(capsys, "simulate", "--config", path)
    assert code == 0

    rc = load_config(path)
    grid = dataclasses.replace(rc.grid, n_t=rc.sim.n_obs - 1)
    st = run_policy_hedge(rc.payoff, solve_theta(rc.payoff, grid, rc.scheme), rc.sim)
    assert out.splitlines()[1] == (
        f"{st.strategy},{st.M},{st.mean_cost:.10g},{st.var_cost:.10g},"
        f"{st.exec_cost_mean:.10g},{st.n},{st.seed}")


def test_simulate_zero_volume_interval_is_numerical_failure(tmp_path, capsys):
    # trading cost V*L(v/V) is 0/0 on a zero-volume interval
    cfg = reference_dict(simulation={"n_paths": 20, "n_obs": 5, "M": [4],
                                     "strategies": ["delta"]})
    cfg["market"]["volume"] = {"starts": [0.0, 2.0], "values": [0.0, 2e6]}
    cfg["contract"]["T"] = 4.0
    code = main(["simulate", "--config", write(tmp_path, cfg)])
    assert code == 3
    assert capsys.readouterr().err.startswith("numerical failure:")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_simulate_every_path_leaving_the_hull_is_numerical_failure(tmp_path, capsys):
    cfg = reference_dict(
        solver={"engine": "pde", "pde": {"S_min": 44.9, "S_max": 45.1,
                                         "n_S": 5, "n_q": 9}},
        simulation={"n_paths": 50, "n_obs": 64, "seed": 4,
                    "strategies": ["policy"]})
    code = main(["simulate", "--config", write(tmp_path, cfg)])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith("numerical failure:")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_simulate_one_path_inside_the_hull_is_numerical_failure(tmp_path, capsys):
    # 2 of 3 paths leave the price hull; one cost has no sample variance
    cfg = reference_dict(
        solver={"engine": "pde", "pde": {"S_min": 42.0, "S_max": 48.0,
                                         "n_S": 5, "n_q": 9}},
        simulation={"n_paths": 3, "n_obs": 64, "seed": 3,
                    "strategies": ["policy"]})
    code = main(["simulate", "--config", write(tmp_path, cfg)])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith("numerical failure: one path stayed")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("engine", ["tree", "pde"])
def test_simulate_policy_skips_zero_volume_interval(tmp_path, capsys, engine):
    # solvers and simulator both charge [t_n, t_{n+1}) at V(t_n), so the
    # policy trades nothing on [1, 2) and pays no fee there
    cfg = reference_dict(
        solver={"engine": engine, "tree": {"dt": 1.0},
                "pde": {"steps_per_day": 1}},
        simulation={"n_paths": 20, "n_obs": 5, "strategies": ["policy"]})
    cfg["market"]["volume"] = {"starts": [0, 1, 2], "values": [4e6, 0, 4e6]}
    cfg["contract"]["T"] = 4.0
    code = main(["simulate", "--config", write(tmp_path, cfg)])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    row = out.splitlines()[1].split(",")
    assert row[0] == "policy"
    assert all(math.isfinite(float(x)) for x in row[2:5])


def test_simulate_rejects_permanent_impact(tmp_path, capsys):
    cfg = sim_dict()
    cfg["market"]["k"] = 1e-7
    assert run(capsys, "simulate", "--config", write(tmp_path, cfg))[0] == 2


# ---------------------------------------------------------------------------
# sweep


def test_sweep_settlement_ordering(tmp_path, capsys):
    cfg = reference_dict(solver={"engine": "tree", "tree": {"dt": 1.0}})
    path = write(tmp_path, cfg)
    code, out = run(capsys, "sweep", "--config", path,
                    "--param", "settlement", "--values", "cash,physical")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "param,value,price_per_share"
    cash = float(lines[1].split(",")[2])
    physical = float(lines[2].split(",")[2])
    assert cash > physical


@pytest.mark.parametrize("param, value", [("eta", "0.1"), ("rho_max", "5")])
def test_sweep_keeps_configured_penalty_rate(tmp_path, capsys, param, value):
    cfg = reference_dict(solver={"engine": "tree", "tree": {"dt": 1.0}})
    cfg["contract"].update(T=4.0, penalty_rate=1.0)
    path = write(tmp_path, cfg)
    code, out = run(capsys, "price", "--config", path)
    assert code == 0
    price = json.loads(out)["price_per_share"]
    code, out = run(capsys, "sweep", "--config", path,
                    "--param", param, "--values", value)
    assert code == 0
    assert out.splitlines()[1] == f"{param},{value},{price:.10g}"


def test_sweep_argument_validation(tmp_path, capsys):
    path = write(tmp_path, reference_dict())
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", path, "--param", "vega", "--values", "1"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, "sweep", "--config", path, "--param", "eta")[0] == 2


def test_out_flag_writes_file(tmp_path, capsys):
    cfg = reference_dict(solver={"engine": "tree", "tree": {"dt": 1.0}})
    path = write(tmp_path, cfg)
    target = tmp_path / "price.json"
    code, out = run(capsys, "price", "--config", path, "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["engine"] == "tree"


# ---------------------------------------------------------------------------
# exit-code contract under config mutations

FUZZ_BASE = {
    "market": {"S0": 45.0, "sigma": 0.6,
               "volume": {"starts": [0.0, 2.0], "values": [4e6, 2e6]},
               "rho_max": 5.0, "mu": 0.0, "r": 0.0, "k": 0.0},
    "cost": {"eta": 0.1, "phi": 0.75, "psi": 0.01},
    "contract": {"K": 45.0, "T": 4.0, "N": 2e7, "gamma": 2e-7, "q0": 1e7,
                 "settlement": "physical", "penalty_rate": 1.0},
    "solver": {
        "engine": "pde",
        "tree": {"dt": 1.0, "alpha": 1.5, "dq": 1e5, "q_min": 0.0, "q_max": 2e7},
        "pde": {"n_S": 21, "n_q": 11, "steps_per_day": 2, "S_min": 36.0,
                "S_max": 54.0, "q_min": -2e6, "q_max": 2.2e7, "order": "ABC",
                "n_controls": 5, "cfl_safety": 0.9},
    },
    "simulation": {"n_paths": 40, "n_obs": 5, "seed": 1, "M": [2, 4],
                   "strategies": ["delta", "policy"]},
}
FUZZ_COMMANDS = (
    ("price",), ("price", "--engine", "tree"),
    ("simulate",), ("simulate", "--engine", "tree"),
    ("sweep", "--param", "k", "--values", "0,1e-7"),
)
MUTATIONS = ("wrong type", "nan", "+inf", "-inf", "negative", "zero", "empty",
             "missing")


def leaf_paths(node, prefix=()):
    """Key paths of every value below node: sections, leaves, list items."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    out = []
    for key, child in items:
        out.append(prefix + (key,))
        out.extend(leaf_paths(child, prefix + (key,)))
    return out


def mutated(path, how):
    cfg = json.loads(json.dumps(FUZZ_BASE))
    *parents, key = path
    holder = cfg
    for p in parents:
        holder = holder[p]
    old = holder[key]
    if how == "missing":
        del holder[key]
        return cfg
    if how == "wrong type":
        new = 1.5 if isinstance(old, str) else "x"
    elif how == "nan":
        new = float("nan")
    elif how in ("+inf", "-inf"):
        new = float(how)
    elif how == "negative":
        new = -abs(old) if isinstance(old, (int, float)) and old else -1
    elif how == "zero":
        new = 0
    else:
        new = type(old)() if isinstance(old, (str, list, dict)) else None
    holder[key] = new
    return cfg


@settings(max_examples=150, deadline=None)
@given(path=st.sampled_from(leaf_paths(FUZZ_BASE)),
       how=st.sampled_from(MUTATIONS),
       command=st.sampled_from(FUZZ_COMMANDS))
def test_config_mutations_keep_exit_code_contract(tmp_path_factory, path, how,
                                                  command):
    cfg_path = tmp_path_factory.mktemp("fuzz") / "cfg.json"
    cfg_path.write_text(json.dumps(mutated(path, how)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command[0], "--config", str(cfg_path), *command[1:]])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
