"""Per-layer tracer for one altsign CLI op.

    python perfbench/tracer.py RECORDS.json -- <altsign argv...>

wraps the package's public functions (the WRAPPED table), runs
``altsign.cli.main(argv)`` in this process and writes the records to
RECORDS.json; stdout and the exit code are the CLI's own.  Each wrapped
name gets a call count and a self time (duration minus the time spent in
wrapped callees), aggregated in memory, so a call costs a counter update
rather than a stored span.  Self times are integer nanoseconds; over an op
they (with the tracer's own HOOKS bucket) sum to the duration of
``cli.main``, and main() also clocks that call from outside the wrappers
(``main_ns``) so that run.py can check the sum against it.

Work done in ``--jobs`` pool workers is not captured: the workers are
forked copies whose records are never written.  Their wall time shows up
as ``cli.main`` self time in the parent.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (metric name, module under altsign, attribute).  A name the code under
# test no longer has is reported as absent.
WRAPPED = (
    ("cli.main", "cli", "main"),
    ("exactalg.binomial", "exactalg", "binomial"),
    ("exactalg.Gf.add", "exactalg", "Gf.__add__"),
    ("exactalg.Gf.mul", "exactalg", "Gf.__mul__"),
    ("exactalg.Gf.exact_divide", "exactalg", "Gf.exact_divide"),
    ("exactalg.MPoly.add", "exactalg", "MPoly.__add__"),
    ("exactalg.MPoly.mul", "exactalg", "MPoly.__mul__"),
    ("exactalg.MPoly.substitute", "exactalg", "MPoly.substitute"),
    ("exactalg.MPoly.shift_var", "exactalg", "MPoly.shift_var"),
    ("exactalg.MPoly.evaluate", "exactalg", "MPoly.evaluate"),
    ("exactalg.MPoly.exact_divide", "exactalg", "MPoly.exact_divide"),
    ("exactalg.det_fraction_free", "exactalg", "det_fraction_free"),
    ("detform.det_matrix", "detform", "det_matrix"),
    ("detform.gf_det", "detform", "gf_det"),
    ("detform.count", "detform", "count"),
    ("detform.coeff_matrix", "detform", "coeff_matrix"),
    ("detform.series_coeffs", "detform", "series_coeffs"),
    ("operatorform.compute_Mn", "operatorform", "compute_Mn"),
    ("operatorform.shift", "operatorform", "shift"),
    ("operatorform.fwd_diff", "operatorform", "fwd_diff"),
    ("operatorform.bwd_diff", "operatorform", "bwd_diff"),
    ("operatorform.gf_ast_prescribed", "operatorform", "gf_ast_prescribed"),
    ("operatorform.count_ast_prescribed", "operatorform",
     "count_ast_prescribed"),
    ("operatorform.count_ast_via_operator", "operatorform",
     "count_ast_via_operator"),
    ("operatorform.count_sttrees_formula", "operatorform",
     "count_sttrees_formula"),
    ("operatorform.t_polynomial", "operatorform", "t_polynomial"),
    ("operatorform.verify_asymM", "operatorform", "verify_asymM"),
    ("trapezoid.enumerate_trapezoids", "trapezoid", "enumerate_trapezoids"),
    ("trapezoid.weight", "trapezoid", "weight"),
    ("cssp.enumerate_cssps", "cssp", "enumerate_cssps"),
    ("cssp.weight", "cssp", "weight"),
    ("pathfam.gf_via_paths", "pathfam", "gf_via_paths"),
    ("pathfam.lgv_weight", "pathfam", "lgv_weight"),
    ("pathfam.paths_for_index", "pathfam", "paths_for_index"),
    ("sttree.enumerate_sttrees", "sttree", "enumerate_sttrees"),
    ("sttree.ast_to_sttree", "sttree", "ast_to_sttree"),
    ("sttree.sttree_to_ast", "sttree", "sttree_to_ast"),
)

# Generator functions whose yields are counted (not timed: their bodies run
# inside the consumer, whose self time they become).
COUNTED = (
    ("pathfam.all_families", "pathfam", "all_families"),
)

# Names whose cache misses and result sizes are counted.
MISS_COUNTED = ("operatorform.compute_Mn",)

# Self time of the tracer's own size counting.
HOOKS = "tracer.hooks"


class Tracer:
    """Call counts, self times and counters of one op."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.root_ns = 0               # summed duration of outermost calls
        self._child_ns: list[int] = []  # per active call: time in callees

    def count(self, name: str, value: int, combine: str = "sum"):
        old = self.counters.get(name, 0)
        self.counters[name] = (max(old, value) if combine == "max"
                               else old + value)

    def call(self, name, fn, args, kwargs, after=None):
        """fn(*args, **kwargs), accounted to name; after(self, args, result)
        then takes size counts."""
        self._child_ns.append(0)
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = self.clock()
            child_ns = self._child_ns.pop()
            self.calls[name] = self.calls.get(name, 0) + 1
            # self time: the duration charged below minus the callees'
            self.self_ns[name] = self.self_ns.get(name, 0) - child_ns
            self._charge(name, end - start)
        if after is not None:
            # charged to a bucket of its own, so that no layer's self time
            # includes the tracer's size counting
            start = self.clock()
            after(self, args, result)
            self._charge(HOOKS, self.clock() - start)
        return result

    def _charge(self, name, ns):
        self.self_ns[name] = self.self_ns.get(name, 0) + ns
        if self._child_ns:
            self._child_ns[-1] += ns
        else:
            self.root_ns += ns

    def records(self) -> dict:
        return {"calls": self.calls, "self_ns": self.self_ns,
                "counters": self.counters, "root_ns": self.root_ns}


def _terms_out(name):
    def after(tracer, args, result):
        terms = getattr(result, "terms", None)
        if terms is not None:
            tracer.count(name, len(terms))
    return after


def _gf_mul_after(tracer, args, result):
    terms = getattr(result, "terms", None)
    if terms is None:
        return
    tracer.count("exactalg.Gf.mul.terms_out", len(terms))
    bits = max((abs(c).bit_length() for c in terms.values()), default=0)
    tracer.count("exactalg.Gf.mul.coeff_bits_max", bits, "max")


def _order_after(tracer, args, result):
    tracer.count("exactalg.det_fraction_free.order_max", len(args[0]), "max")


def _objects(name):
    def after(tracer, args, result):
        tracer.count(name, len(result))
    return after


AFTER = {
    "exactalg.Gf.mul": _gf_mul_after,
    "exactalg.MPoly.mul": _terms_out("exactalg.MPoly.mul.terms_out"),
    "exactalg.det_fraction_free": _order_after,
    "trapezoid.enumerate_trapezoids":
        _objects("trapezoid.enumerate_trapezoids.objects"),
    "cssp.enumerate_cssps": _objects("cssp.enumerate_cssps.objects"),
    "sttree.enumerate_sttrees": _objects("sttree.enumerate_sttrees.objects"),
}


def _wrap(tracer, name, orig):
    after = AFTER.get(name)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        return tracer.call(name, orig, args, kwargs, after)
    return wrapper


def _wrap_cached(tracer, name, orig):
    """Also count misses (calls that ran the body, which is every call when
    the function is not cached) and the size of the results they built."""
    info = getattr(orig, "cache_info", None)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        before = info().misses if info else None
        result = tracer.call(name, orig, args, kwargs)
        if info is None or info().misses != before:
            tracer.count(name + ".misses", 1)
            tracer.count(name + ".terms", len(getattr(result, "terms", ())),
                         "max")
        return result
    return wrapper


def _counted(tracer, name, orig):
    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        for item in orig(*args, **kwargs):
            tracer.count(name + ".objects", 1)
            yield item
    return wrapper


def _rebind(orig, wrapper, owner):
    """Point every binding of orig at wrapper: aliases in the owner's
    namespace (``__radd__ = __add__``) and names imported into other
    altsign modules (``from .exactalg import binomial``)."""
    namespaces = [owner] if isinstance(owner, type) else []
    namespaces += [m for n, m in list(sys.modules.items())
                   if n == "altsign" or n.startswith("altsign.")]
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if value is orig:
                setattr(ns, attr, wrapper)


def _lookup(module: str, attr: str):
    """(owner, original) for a table entry, or None when absent."""
    try:
        owner = importlib.import_module(f"altsign.{module}")
    except ImportError:
        return None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    orig = vars(owner).get(leaf)
    return None if orig is None else (owner, orig)


def install(tracer: Tracer, wrapped=WRAPPED, counted=COUNTED) -> list[str]:
    """Wrap the table's functions; returns the names found absent."""
    importlib.import_module("altsign.cli")
    absent = []
    for name, module, attr in wrapped:
        found = _lookup(module, attr)
        if found is None:
            absent.append(name)
            continue
        owner, orig = found
        wrap = _wrap_cached if name in MISS_COUNTED else _wrap
        _rebind(orig, wrap(tracer, name, orig), owner)
    for name, module, attr in counted:
        found = _lookup(module, attr)
        if found is None:
            absent.append(name)
            continue
        owner, orig = found
        _rebind(orig, _counted(tracer, name, orig), owner)
    return absent


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py RECORDS.json -- <altsign argv...>",
              file=sys.stderr)
        return 2
    out_path, cli_argv = argv[0], argv[2:]
    importlib.import_module("altsign.cli")
    tracer = Tracer()
    start = time.perf_counter_ns()
    absent = install(tracer)
    patch_ns = time.perf_counter_ns() - start
    cli = sys.modules["altsign.cli"]
    start = time.perf_counter_ns()
    try:
        code = cli.main(cli_argv)
    except SystemExit as e:  # argparse errors
        code = e.code if isinstance(e.code, int) else 1
    finally:
        main_ns = time.perf_counter_ns() - start
        sys.stdout.flush()
        records = tracer.records()
        records.update(absent=absent, patch_ns=patch_ns, main_ns=main_ns)
        with open(out_path, "w") as f:
            json.dump(records, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
