"""Alternating sign trapezoids, column strict shifted plane partitions,
(s,t)-trees and non-intersecting lattice paths, with their joint
three-statistic generating functions computed by three independent routes
(direct enumeration, operator formula, binomial determinant) in exact
arithmetic.

The route modules load on first use (``altsign.cssp``, ``from altsign
import cssp``), so a command pays only for the modules it runs."""

import importlib

from .exactalg import Gf, MPoly, binomial, det_fraction_free

__version__ = "0.1.0"

_SUBMODULES = ("cssp", "detform", "exactalg", "operatorform", "pathfam",
               "sttree", "trapezoid")

__all__ = ["Gf", "MPoly", "binomial", "det_fraction_free", *_SUBMODULES]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
