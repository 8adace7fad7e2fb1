"""liqhedge: utility-indifference pricing and partial hedging of call
options on illiquid underlyings, with execution costs and permanent impact.

Engines: an operator-splitting finite-difference solver and a trinomial
tree dynamic program, plus a Monte-Carlo harness benchmarking the model
policy against Bachelier delta-hedging.
"""

__version__ = "0.1.0"

# the package exports each module's __all__, in this order
from . import fixtures, impact, model, pde, simulate, tree
from .model import *
from .pde import *
from .tree import *
from .impact import *
from .simulate import *
from .fixtures import *

__all__ = ["__version__", *model.__all__, *pde.__all__, *tree.__all__,
           *impact.__all__, *simulate.__all__, *fixtures.__all__]
