"""Alternating sign trapezoids, column strict shifted plane partitions,
(s,t)-trees and non-intersecting lattice paths, with their joint
three-statistic generating functions computed by three independent routes
(direct enumeration, operator formula, binomial determinant) in exact
arithmetic.

The route modules load on first use (``altsign.cssp``, ``from altsign
import cssp``), and so do the core's names (``altsign.Gf`` loads
``altsign.exactalg``), so a command pays only for the modules it runs."""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("andrews", "cssp", "detform", "exactalg", "operatorform",
               "pathfam", "sttree", "trapezoid")
_CORE_NAMES = ("Gf", "MPoly", "binomial", "det_fraction_free")

__all__ = [*_CORE_NAMES, *_SUBMODULES]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _CORE_NAMES:
        return getattr(importlib.import_module(".exactalg", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
