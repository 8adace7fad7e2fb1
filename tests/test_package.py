"""Every name a module lists in __all__ exists, so star imports work."""

import importlib

import pytest


@pytest.mark.parametrize("name", ["liqhedge", "liqhedge.fixtures",
                                  "liqhedge.impact", "liqhedge.model",
                                  "liqhedge.pde", "liqhedge.simulate",
                                  "liqhedge.tree"])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
