"""Every name a module lists in __all__ exists, so star imports work, and
the README names every name the package exports."""

import importlib
import re
from pathlib import Path

import pytest

import liqhedge


@pytest.mark.parametrize("name", ["liqhedge", "liqhedge.fixtures",
                                  "liqhedge.impact", "liqhedge.model",
                                  "liqhedge.pde", "liqhedge.simulate",
                                  "liqhedge.tree"])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_readme_names_every_export():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert [n for n in liqhedge.__all__
            if not re.search(rf"\b{re.escape(n)}\b", readme)] == []
