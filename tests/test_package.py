"""Every name a module lists in __all__ exists, so star imports work; the
README names every name the package exports; and scipy is loaded only by
the work that calls it."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import liqhedge

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["liqhedge", "liqhedge.fixtures",
                                  "liqhedge.impact", "liqhedge.model",
                                  "liqhedge.pde", "liqhedge.simulate",
                                  "liqhedge.tree"])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_readme_names_every_export():
    readme = (ROOT / "README.md").read_text()
    assert [n for n in liqhedge.__all__
            if not re.search(rf"\b{re.escape(n)}\b", readme)] == []


# Each stage prints which of scipy.linalg and scipy.special are loaded; the
# tree engine needs neither, the PDE's step A needs scipy.linalg and the
# Bachelier functions scipy.special.
SCIPY_STAGES = """
import sys
import liqhedge, liqhedge.cli
from liqhedge import GridSpec, bachelier_delta, solve_theta, solve_tree
from liqhedge.cli import load_config, main

def stage():
    print(*("scipy." + m in sys.modules for m in ("linalg", "special")))

config, out = sys.argv[1:]
cfg = load_config(config, engine_override="tree")
solve_tree(cfg.payoff, cfg.tree_config)
assert main(["price", "--config", config, "--engine", "tree", "--out", out]) == 0
stage()
solve_theta(cfg.payoff, GridSpec.default(cfg.payoff, n_S=31, n_q=11, steps_per_day=0.5))
stage()
bachelier_delta(45.0, 45.0, 0.6, 63.0)
stage()
"""


def test_scipy_loads_only_where_it_is_used(tmp_path):
    config = json.loads((ROOT / "demos" / "reference_config.json").read_text())
    config["solver"]["tree"]["dt"] = 1.0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", SCIPY_STAGES, str(path),
                          str(tmp_path / "price.json")],
                         env=env, check=True, capture_output=True, text=True)
    assert out.stdout.splitlines() == ["False False", "True False", "True True"]
