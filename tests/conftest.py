"""Reference solves shared by several test modules.

Both are built from `demos/reference_config.json`, whose payoff, tree
configuration and default PDE grid are the reference scenario's, and are
solved once per session with keep_values=True, so every value level is
there for the tests that read levels after 0. Tests read these arrays and
never write them.
"""

import pytest

from liqhedge.cli import load_config
from liqhedge.pde import solve_theta
from liqhedge.tree import solve_tree
from oracles import REFERENCE_CONFIG


@pytest.fixture(scope="session")
def reference_config():
    return load_config(str(REFERENCE_CONFIG))


@pytest.fixture(scope="session")
def reference_tree(reference_config):
    """The reference scenario on the dt 0.25 tree."""
    return solve_tree(reference_config.payoff, reference_config.tree_config,
                      keep_values=True)


@pytest.fixture(scope="session")
def reference_surface(reference_config):
    """The reference scenario on the default 241x121 PDE grid."""
    return solve_theta(reference_config.payoff, reference_config.grid,
                       reference_config.scheme, keep_values=True)
