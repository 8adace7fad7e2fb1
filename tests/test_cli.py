"""CLI tests: config validation and exit codes, output formats, the four
subcommands, determinism of emitted artifacts."""

import contextlib
import dataclasses
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liqhedge import cli, pde
from liqhedge.cli import load_config, main
from liqhedge.fixtures import reference_path
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

    # the PDE always splits A, B, C; the order is not a setting
    cfg3 = write(tmp_path, reference_dict(solver={"pde": {"order": "ABC"}}), "c.json")
    for engine in ("tree", "pde"):
        assert main(["price", "--engine", engine, "--config", cfg3]) == 2
        assert "unknown key(s) ['order']" in capsys.readouterr().err


def test_missing_section_bad_json_missing_file(tmp_path, capsys):
    cfg = reference_dict()
    del cfg["contract"]
    assert run(capsys, "price", "--config", write(tmp_path, cfg))[0] == 2

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run(capsys, "price", "--config", str(broken))[0] == 2
    assert run(capsys, "price", "--config", str(tmp_path / "absent.json"))[0] == 2


@pytest.mark.parametrize("data", [
    b'{"market": "\xff"}',                # not UTF-8
    b"[" * 200_000 + b"]" * 200_000,      # nested past the decoder's depth
], ids=["not-utf8", "too-deep"])
def test_undecodable_config_is_config_error(tmp_path, capsys, data):
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    code = main(["price", "--config", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: config is not valid JSON")
    assert len(err.splitlines()) == 1


def test_integer_keys_take_integral_numbers_only(tmp_path, capsys):
    # truncating would quietly run n_S = 21, M = [2] and seed = 1
    for extra in ({"solver": {"pde": {"n_S": 21.5}}},
                  {"simulation": {"M": [2.7]}},
                  {"simulation": {"seed": True}}):
        code = main(["price", "--config", write(tmp_path, reference_dict(**extra))])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error:")
    # an integral number in any JSON spelling is taken
    rc = load_config(write(tmp_path, reference_dict(
        solver={"pde": {"n_S": 2.41e2}},
        simulation={"n_paths": 1e4, "seed": 7.0, "M": [1e1, 20]})))
    assert (rc.grid.n_S, rc.sim.n_paths, rc.sim.seed, rc.M_list) == (241, 10000, 7, [10, 20])
    assert all(type(v) is int for v in (rc.grid.n_S, rc.sim.n_paths, rc.sim.seed, *rc.M_list))


def test_float_keys_take_any_json_number(tmp_path):
    cfg = reference_dict()
    cfg["market"].update(S0=45, volume={"starts": [0, 20], "values": [4e6, 1e4]})
    cfg["contract"]["penalty_rate"] = 5
    rc = load_config(write(tmp_path, cfg))
    m = rc.payoff.market
    assert (m.S0, rc.payoff.penalty_rate) == (45.0, 5.0)
    assert m.volume.starts.tolist() == [0.0, 20.0]
    assert m.volume.values.tolist() == [4e6, 1e4]


@pytest.mark.parametrize("engine, section, key, value", [
    ("tree", "market", "r", 1e300),
    ("pde", "market", "r", 1e300),
    ("tree", "solver", "tree", {"dt": 1.0, "alpha": 1e300}),
    ("tree", "market", "sigma", 1e300),
    ("pde", "market", "sigma", 1e300),
    ("tree", "market", "sigma", 1e150),
    ("pde", "market", "sigma", 1e150),
    ("tree", "contract", "gamma", 1e300),
    ("pde", "contract", "gamma", 1e300),
    ("pde", "contract", "K", 1e300),
    ("pde", "market", "S0", 1e300),
    ("tree", "market", "rho_max", 1e300),
])
def test_huge_finite_input_is_numerical_failure(tmp_path, capsys, engine,
                                                section, key, value):
    # r, alpha and sigma**2 overflow in Python floats (OverflowError), as
    # do the PDE's S step at K or S0 1e300 and the tree's inventory step at
    # rho_max 1e300; at sigma 1e150 or gamma 1e300 the penalty overflows in
    # numpy, silently (no RuntimeWarning), and its finiteness check raises
    cfg = reference_dict(solver={"pde": {"n_S": 21, "n_q": 11}})
    cfg["contract"]["T"] = 4.0
    cfg[section][key] = value
    code = main(["price", "--engine", engine, "--config", write(tmp_path, cfg)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("numerical failure:") and len(err.splitlines()) == 1
    name = {"tree": "alpha"}.get(key, key)
    assert re.search(rf"\b{name}\b", err), err


def test_cfl_give_up_is_numerical_failure(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(pde, "_MAX_SUBSTEPS", 0)
    cfg = reference_dict(solver={"pde": {"n_S": 21, "n_q": 11}})
    cfg["contract"]["T"] = 4.0
    code = main(["price", "--engine", "pde", "--config", write(tmp_path, cfg)])
    assert code == 3
    assert capsys.readouterr().err == (
        "numerical failure: CFL sub-stepping did not terminate\n")


def test_singular_solve_is_numerical_failure(tmp_path, capsys, monkeypatch):
    # LinAlgError is a ValueError, which the solve otherwise reports as a
    # config error
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(cli, "solve_with_impact", singular)
    code = main(["price", "--config", write(tmp_path, reference_dict())])
    assert code == 3
    assert capsys.readouterr().err == "numerical failure: singular matrix\n"


def test_tree_runs_where_the_default_pde_grid_cannot(tmp_path, capsys):
    # sigma 1e-300 leaves no width to the default S range, S_max == S_min;
    # only the PDE reads that grid, so the tree prices and simulates
    cfg = reference_dict(solver={"tree": {"dt": 1.0}},
                         simulation={"n_paths": 20, "n_obs": 5, "M": [4]})
    cfg["market"]["sigma"] = 1e-300
    cfg["contract"]["T"] = 4.0
    path = write(tmp_path, cfg)
    code, out = run(capsys, "price", "--engine", "tree", "--config", path)
    assert code == 0 and math.isfinite(json.loads(out)["price_total"])
    assert run(capsys, "simulate", "--engine", "tree", "--config", path)[0] == 0
    for command in ("price", "simulate"):
        assert main([command, "--engine", "pde", "--config", path]) == 2
        assert "need S_max > S_min" in capsys.readouterr().err


def test_grid_too_large_to_allocate_is_config_error(tmp_path, capsys):
    # 1e15 S nodes need 7.11 PiB, past any address space: the allocation
    # fails at once, so nothing is ever allocated
    cfg = reference_dict(solver={"pde": {"n_S": 1e15, "n_q": 11}})
    code = main(["price", "--engine", "pde", "--config", write(tmp_path, cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and len(err.splitlines()) == 1


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
    ("price", "solver", "pde", {"cfl_safety": 0.9}),  # not a solver.pde key
    ("price", "solver", "pde", {"steps_per_day": -3}),
    ("price", "solver", "pde", {"steps_per_day": 0}),
    ("price", "solver", "pde", {"q_min": 0.0, "q_max": 0.0}),  # empty q range
    ("price", "market", "volume", {"starts": [float("nan"), 2.0],
                                   "values": [4e6, 2e6]}),
    ("simulate", "market", "volume", {"starts": [0.0, 2.0],  # no volume
                                      "values": [4e6, 0.0]}),  # to liquidate
    ("price", "solver", "pde", {"S_min": float("-inf")}),
    ("simulate", "simulation", "n_paths", 1),  # no sample variance
    ("simulate", "simulation", "strategies", []),  # a table with no rows
    ("simulate", "simulation", "M", []),  # "delta" with no rebalance count
    # a number key takes a JSON number only, though float() reads these
    ("price", "market", "sigma", True),
    ("price", "market", "S0", "45"),
    ("price", "market", "mu", "0.05"),
    ("price", "contract", "penalty_rate", True),
    ("price", "market", "volume", True),
    ("price", "market", "volume", {"starts": [0, "20"], "values": [4e6, 2e6]}),
    ("price", "market", "volume", {"starts": [0, 20], "values": [4e6, True]}),
    ("simulate", "simulation", "strategies", {"delta": 1}),  # a JSON list only
    ("simulate", "simulation", "strategies", "delta"),
    ("price", "solver", "engine", "fd"),
])
def test_bad_values_exit_with_config_error(tmp_path, capsys, command,
                                           section, key, value):
    # a solver.pde value is checked on the engine that reads it
    engine = "pde" if key == "pde" else "tree"
    cfg = reference_dict(solver={"engine": engine},
                         simulation={"n_paths": 20, "M": [10]})
    cfg[section][key] = value
    code = main([command, "--config", write(tmp_path, cfg)])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("section, key, value, message", [
    ("simulation", "strategies", "delta", "strategies must be a JSON list, got 'delta'"),
    ("simulation", "strategies", {"delta": 1}, "strategies must be a JSON list"),
    ("solver", "engine", "fd", "engine must be 'pde' or 'tree', got 'fd'"),
])
def test_config_error_names_what_is_expected(tmp_path, section, key, value, message):
    cfg = reference_dict(solver={}, simulation={})
    cfg[section][key] = value
    with pytest.raises(cli.ConfigError, match=re.escape(message)):
        load_config(write(tmp_path, cfg))


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


def test_hedge_tree_with_permanent_impact_prints_both_prices(tmp_path, capsys):
    # the bundled path is the unaffected price S_tilde; S = S_tilde + k (q - q0)
    cfg = reference_dict()
    cfg["market"]["k"] = 1e-7
    code, out = run(capsys, "hedge", "--config", write(tmp_path, cfg), "--engine", "tree")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,S,q_model,q_bachelier_delta,v_model,S_tilde"
    data = np.asarray([ln.split(",") for ln in lines[1:-1]], dtype=float)
    assert data.shape == (253, 6)
    S, q, S_tilde = data[:, 1], data[:, 2], data[:, 5]
    np.testing.assert_allclose(S_tilde, reference_path()[1], rtol=1e-9, atol=0)
    assert q.min() < 9.5e6 and q.max() > 1.9e7  # the impact term moves S by about 1
    # each column is printed to 10 significant digits
    np.testing.assert_allclose(S - S_tilde, 1e-7 * (q - 1e7), rtol=0, atol=2e-8)


def test_hedge_path_resolution_mismatch(tmp_path, capsys):
    short = tmp_path / "short.csv"
    short.write_text("t,S\n" + "\n".join(
        f"{i * 6.3},45.0" for i in range(11)) + "\n")
    path = write(tmp_path, reference_dict())
    code, _ = run(capsys, "hedge", "--config", path, "--path", str(short))
    assert code == 2


def test_hedge_path_must_start_at_zero(tmp_path, capsys):
    # tau = T - t is read from the times: a path shifted by 10 days has the
    # right step count and spacing but would misprice the delta column
    t, S = reference_path()
    shifted = tmp_path / "shifted.csv"
    shifted.write_text("t,S\n" + "".join(
        f"{ti + 10.0:.17g},{si:.17g}\n" for ti, si in zip(t, S)))
    assert len(t) == 253
    code = main(["hedge", "--config", write(tmp_path, reference_dict()),
                 "--path", str(shifted)])
    assert code == 2
    assert "uniform over [0, T]" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "",
    "t,S\n",
    "t,S\n0,45\nx,45\n",
    "t,S\n0\n1\n",
    "t,S\n0,45\n1,nan\n",
    b"t,S\n0,45\n\xff,1\n",  # not UTF-8
    None,  # no such file
])
def test_hedge_bad_path_file_is_config_error(tmp_path, capsys, text):
    bad = tmp_path / "bad.csv"
    if text is not None:
        bad.write_bytes(text if isinstance(text, bytes) else text.encode())
    path = write(tmp_path, reference_dict())
    code = main(["hedge", "--config", path, "--path", str(bad)])
    assert code == 2
    reason = "cannot read path file" if text is None else "path file:"
    assert capsys.readouterr().err.startswith("config error: " + reason)


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
    assert lines[0] == ("strategy,M,mean_cost,var_cost,exec_cost_mean,n_paths,seed,"
                        "excluded")
    assert lines[-1].startswith(META_PREFIX)
    rows = [ln.split(",") for ln in lines[1:-1]]
    assert [r[0] for r in rows] == ["delta", "delta", "policy"]
    assert [int(r[1]) for r in rows] == [10, 20, 252]
    for r in rows:
        assert float(r[3]) >= 0.0 and int(r[5]) + int(r[7]) == 200


def test_simulate_seed_flag(tmp_path, capsys):
    path = write(tmp_path, sim_dict())
    _, base = run(capsys, "simulate", "--config", path)
    code, other = run(capsys, "simulate", "--config", path, "--seed", "1")
    assert code == 0
    assert other != base
    assert all(ln.split(",")[6] == "1" for ln in other.strip().splitlines()[1:-1])
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
        f"{st.exec_cost_mean:.10g},{st.n},{st.seed},{st.excluded}")


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


def test_simulate_non_finite_statistics_are_numerical_failure(tmp_path, capsys):
    # a huge eta overflows every fee to inf, so no statistic is finite
    cfg = reference_dict(solver={"engine": "tree", "tree": {"dt": 1.0}},
                         simulation={"n_paths": 50, "M": [4],
                                     "strategies": ["delta"]})
    cfg["contract"]["T"] = 4.0
    cfg["cost"]["eta"] = 1e300
    # numpy's overflow warning stays silent, so stderr is the one line
    code = main(["simulate", "--config", write(tmp_path, cfg)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and len(err.splitlines()) == 1


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
    capsys.readouterr()
    for values, message in ((",", "--values is empty"), ("abc", "--values:")):
        assert main(["sweep", "--config", path, "--param", "eta", "--values", values]) == 2
        assert capsys.readouterr().err.startswith("config error: " + message)


def test_sweep_checks_every_value_before_solving(tmp_path, monkeypatch, capsys):
    calls, solve = [], cli.solve_with_impact
    monkeypatch.setattr(cli, "solve_with_impact",
                        lambda *a, **kw: calls.append(a) or solve(*a, **kw))
    code = main(["sweep", "--config", write(tmp_path, reference_dict()), "--engine", "tree",
                 "--param", "q0", "--values", "1e7,0,5e6,2.5e7"])
    assert code == 2
    assert capsys.readouterr().err == (
        "config error: sweep value 25000000.0: q0 must lie in [0, N]\n")
    assert calls == []


def test_out_flag_writes_file(tmp_path, capsys):
    cfg = reference_dict(solver={"engine": "tree", "tree": {"dt": 1.0}})
    path = write(tmp_path, cfg)
    target = tmp_path / "price.json"
    code, out = run(capsys, "price", "--config", path, "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["engine"] == "tree"


def test_out_flag_unwritable_path_is_config_error(tmp_path, capsys):
    cfg = reference_dict(solver={"engine": "tree", "tree": {"dt": 1.0}})
    target = tmp_path / "missing" / "price.json"
    code = main(["price", "--config", write(tmp_path, cfg), "--out", str(target)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("config error: cannot write output:")
    assert "Traceback" not in err and len(err.splitlines()) == 1


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
                "S_max": 54.0, "q_min": -2e6, "q_max": 2.2e7, "n_controls": 5},
    },
    "simulation": {"n_paths": 40, "n_obs": 5, "seed": 1, "M": [2, 4],
                   "strategies": ["delta", "policy"]},
}
# hedge paths with FUZZ_BASE's step counts, so that a mutation reaches the
# policy reads: four one-day tree steps and eight half-day PDE steps
FUZZ_PATHS = {
    "tree_path.csv": "t,S\n" + "".join(f"{i},{44.0 + 0.5 * i}\n" for i in range(5)),
    "pde_path.csv": "t,S\n" + "".join(f"{i / 2},{44.0 + 0.25 * i}\n" for i in range(9)),
}
FUZZ_COMMANDS = (
    ("price",), ("price", "--engine", "tree"),
    ("simulate",), ("simulate", "--engine", "tree"),
    ("hedge", "--path", "pde_path.csv"),
    ("hedge", "--engine", "tree", "--path", "tree_path.csv"),
    ("sweep", "--param", "k", "--values", "0,1e-7"),
)


def fuzz_argv(directory, cfg, command):
    """argv running `command` on cfg, with the config and path files written
    to directory."""
    for name, text in FUZZ_PATHS.items():
        (directory / name).write_text(text)
    return [command[0], "--config", write(directory, cfg),
            *(str(directory / a) if a in FUZZ_PATHS else a for a in command[1:])]


@pytest.mark.parametrize("command", FUZZ_COMMANDS, ids=" ".join)
def test_fuzz_base_config_runs(tmp_path, capsys, command):
    # every mutation starts from this config, so it must run cleanly itself
    code = main(fuzz_argv(tmp_path, FUZZ_BASE, command))
    assert code == 0, capsys.readouterr().err


MUTATIONS = ("wrong type", "true", "nan", "+inf", "-inf", "negative", "zero",
             "empty", "missing")


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
    elif how == "true":
        new = True
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
    argv = fuzz_argv(tmp_path_factory.mktemp("fuzz"), mutated(path, how), command)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
