"""Tools for planning closed 2-forms on 4-manifolds that are symplectic off
a collection of signed circles, together with a numerically verified local
model near those circles.

The package splits into an exact combinatorial side (integer linear algebra,
circle-sign planning, Legendrian stabilization arithmetic, extension
obstructions) and a numerical side (the explicit local 2-form, metric and
almost complex structure near a zero circle).  The ``certify`` pipeline glues
both into a machine-checkable certificate.

Only the exact side is imported with the package: it needs no numpy.  The
numerical side, ``local_model``, is imported on first access.
"""

import importlib

from . import topo_core, spinc_planner, contact_kit

__all__ = ["topo_core", "spinc_planner", "contact_kit", "local_model"]
__version__ = "0.1.0"


def __getattr__(name):
    # import_module, not ``from . import``: the latter looks the name up on
    # this package first, which would call this function again
    if name == "local_model":
        return importlib.import_module(f"{__name__}.local_model")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
