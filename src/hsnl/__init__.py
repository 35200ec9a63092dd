"""Half-space nonlocal gradient operators and asymptotically compatible solvers.

The library evaluates one-sided (half-space) nonlocal gradient and divergence
operators driven by radial kernels, their Fourier symbols with the associated
inequality checks, 1-D Galerkin discretizations of nonlocal diffusion under a
volume constraint, parameter sweeps for nonlocal-to-local limits, and a
box-constrained optimal control solver for the nonlocal state equation.
"""

import importlib

from . import kernels, symbols, operators, fem1d, experiments, control

__version__ = "0.1.0"

__all__ = [
    "kernels",
    "symbols",
    "operators",
    "fem1d",
    "experiments",
    "control",
    "cli",
    "__version__",
]


def __getattr__(name):
    # `cli` loads on first use, so `python -m hsnl.cli` runs a module that
    # the package import has not already put in sys.modules
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
