"""CLI tests: config validation and exit codes, output formats, the four
subcommands, determinism of emitted artifacts."""

import json

import numpy as np
import pytest

from liqhedge.cli import load_config, main
from liqhedge.model import bachelier_price

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
