"""Size functions of real-valued measuring functions on finite graphs.

The package computes reduced size functions exactly, represents them as
cornerpoint diagrams, compares diagrams with the bottleneck matching
distance, brackets the natural pseudo-distance between size pairs, and
realizes any pair of diagrams by explicit piecewise-linear fields whose
gap equals the matching distance.
"""

from . import bounds, core, diagram, matching, realize
from .selftest import SuiteResult, run_selftest

__version__ = "0.1.0"

# read before the star imports, the last of which rebinds realize to the function
__all__ = ["__version__", *(name for module in (core, diagram, matching, bounds, realize)
                            for name in module.__all__), "SuiteResult", "run_selftest"]

from .core import *  # noqa: E402,F403
from .diagram import *  # noqa: E402,F403
from .matching import *  # noqa: E402,F403
from .bounds import *  # noqa: E402,F403
from .realize import *  # noqa: E402,F403
