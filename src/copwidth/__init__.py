"""copwidth: directed width measures by exact pursuit-game solving.

Construct the counterexample graph families, decide five cops-and-robber
width measures exactly, replay the families' sweep certificates and chase
strategies, evaluate colouring expressions, and reproduce the bound table.
Each public name is declared in the `__all__` of the module that defines it.
"""

from .graphs import *
from .families import *
from .pursuit.games import *
from .pursuit.certificates import *
from .cliquewidth import *
from .report_cli.report import *

__version__ = "0.1.0"

__all__ = (
    graphs.__all__
    + families.__all__
    + pursuit.games.__all__
    + pursuit.certificates.__all__
    + cliquewidth.__all__
    + report_cli.report.__all__
    + ["__version__"]
)
