"""Command-line interface.

Subcommands: ``enumerate`` (ast / cssp / sttree), ``gf`` (ast / cssp / det /
operator / paths), ``count``, ``tpoly``, ``verify`` (main / truncated /
qast / asymm / asym / coeff / bijections), and ``svg paths``.

The tables in COMMANDS name the flags each route, family or identity reads;
the parsers, defaults, required flags and dispatch come from them, and a
flag that the chosen row does not read exits 2.

Verification subcommands print one PASS/FAIL line per check plus a summary
and exit 1 on any failure or when no check ran; argument errors exit 2.
Output for a fixed command line (including --seed) is byte-identical across
runs; --jobs spreads an identity's tasks over worker processes (at most one
per task and per CPU) without changing the output order.  A task is an
(n, l) cell for main, which checks every d, an n for qast, which checks the
count and the vanishing, and one check for the other identities.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import itertools
import os
import sys

# Each handler and check imports the modules it runs, so that a command
# loads only those (every op is a fresh process).


def _run_tasks(fn, args_list, jobs):
    workers = min(jobs, len(args_list), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, args_list))
    return [fn(a) for a in args_list]


def _report(lines, out):
    failures = 0
    for label, ok, detail in lines:
        status = "PASS" if ok else "FAIL"
        print(f"{status} {label}", file=out)
        if not ok and detail:
            for chunk in detail:
                print(f"     {chunk}", file=out)
        failures += 0 if ok else 1
    total = len(lines)
    print(f"{total - failures}/{total} checks passed", file=out)
    return 1 if failures or not total else 0


def _parse_int_list(text):
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


# flag -> (its add_argument keywords, its value when the chosen row reads it
# and the command line leaves it out; None: the row requires it)
FLAGS = {
    "--n": ({"type": int}, None),
    "--l": ({"type": int}, None),
    "--k": ({"type": int}, None),
    "--d": ({"type": int}, 1),
    "--s": ({"type": _parse_int_list}, ()),
    "--t": ({"type": _parse_int_list}, ()),
    "--b": ({"type": _parse_int_list}, None),
    "--format": ({"choices": ("text", "json")}, "text"),
    "--n-max": ({"type": int}, 3),
    "--l-max": ({"type": int}, 5),
    "--samples": ({"type": int}, 100),
    "--seed": ({"type": int}, 2024),
    "--jobs": ({"type": int}, 1),
    "--out": ({}, None),
}


def _dest(flag):
    return flag[2:].replace("-", "_")


def _function(module, name):
    return getattr(importlib.import_module(f".{module}", __package__), name)


def _call(row, args):
    """The row's (module, function, flags) call on the flags' values."""
    module, function, flags = row
    return _function(module, function)(
        *(getattr(args, _dest(flag)) for flag in flags))


# route -> (module, function, the flags of its arguments in call order)
GF_ROUTES = {
    "ast": ("trapezoid", "gf", ("--n", "--l")),
    "cssp": ("cssp", "gf", ("--k", "--n", "--d")),
    "det": ("detform", "gf_det", ("--n", "--l")),
    "operator": ("operatorform", "gf_ast_via_operator", ("--n", "--l")),
    "paths": ("pathfam", "gf_via_paths", ("--n", "--l", "--d")),
}

# family -> (module, its enumerator, the flags of its arguments in call
# order); the module's to_json and pretty print the objects
FAMILIES = {
    "ast": ("trapezoid", "enumerate_trapezoids", ("--n", "--l")),
    "cssp": ("cssp", "enumerate_cssps", ("--k", "--n")),
    "sttree": ("sttree", "enumerate_sttrees", ("--n", "--s", "--t", "--b")),
}


# --- verification workers (top-level so process pools can pickle them) ----
# A check takes one task and returns its checks as (fields, ok, detail): the
# fields fill the identity's label, and _report prints the detail only on a
# failure.

def _check_main(args):
    from . import cssp, trapezoid
    n, l = args
    lhs, checks = trapezoid.gf(n, l), []
    for d in range(l):
        rhs = cssp.gf(l - 1, n, d)
        checks.append(((n, l, d), lhs == rhs,
                       () if lhs == rhs else (str(lhs), str(rhs))))
    return checks


def _check_truncated(inst):
    from . import operatorform, sttree
    formula = operatorform.count_sttrees_formula(*inst)
    brute = len(sttree.enumerate_sttrees(*inst))
    return [(inst, formula == brute,
             (f"formula {formula}", f"brute force {brute}"))]


def _check_qast(n):
    from . import operatorform, trapezoid
    value = operatorform.t_value(n, 1)
    brute = len(trapezoid.enumerate_trapezoids(n, 1))
    vanishing = all(operatorform.count_ast_prescribed(n, 1, j) == 0
                    for m, j in operatorform.all_positions(n)
                    if 0 < m < n and j[m - 1] < -1 and j[m] > 1)
    return [(("count", n), value == brute,
             (f"t_{n}(1) = {value}", f"enumeration {brute}")),
            (("vanishing", n), vanishing, ())]


def _check_holds(module, function, args):
    """One check: the route's bool function on the task's fields."""
    return [(args, _function(module, function)(*args), ())]


def _check_bijections(args):
    from . import cssp, pathfam, sttree, trapezoid
    n, l = args
    for t in trapezoid.enumerate_trapezoids(n, l):
        # the tree is t's image, so a preimage equal to t passes
        # sttree_to_ast's image check as well: the tree is built once
        if sttree.preimage(sttree.ast_to_sttree(t), n, l) != t:
            return [(args, False, (f"trapezoid round trip failed: {t}",))]
    for c in cssp.enumerate_cssps(l - 1, n):
        fam = cssp.to_paths(c)
        if cssp.from_paths(fam) != c:
            return [(args, False, (f"path round trip failed: {c}",))]
        for d in range(0, l):
            if pathfam.lgv_weight(fam, d) != cssp.weight(c, d):
                return [(args, False,
                         (f"weight transport failed: {c} d={d}",))]
    return [(args, True, ())]


def _random_tree_instances(args):
    from . import sttree
    return sttree.random_tree_instances(args.samples, args.seed)


def _operator_ns(args, name="the operator route"):
    """1..--n-max, refused up front past the reach of name."""
    from . import operatorform
    operatorform.check_reach(args.n_max, name)
    return range(1, args.n_max + 1)


def _n_l(args, l_min):
    return [(n, l) for n in range(1, args.n_max + 1)
            for l in range(l_min, args.l_max + 1)]


# identity -> (the tasks its arguments call for, the check of one task, the
# label of a check as a format string over its fields, the flags it reads
# besides --jobs)
IDENTITIES = {
    "main": (lambda a: _n_l(a, 1), _check_main, "main (n={}, l={}, d={})",
             ("--n-max", "--l-max")),
    "truncated": (_random_tree_instances, _check_truncated,
                  "truncated (n={}, s={}, t={}, b={})",
                  ("--samples", "--seed")),
    "qast": (_operator_ns, _check_qast, "qast {} (n={})", ("--n-max",)),
    "asymm": (lambda a: [(n, x) for n in _operator_ns(a, "verify asymm")
                         for x in itertools.product(range(4), repeat=n)],
              functools.partial(_check_holds, "operatorform", "verify_asymM"),
              "asymM (n={}, x={})", ("--n-max",)),
    "asym": (lambda a: [(n, a.samples, a.seed) for n in range(1, a.n_max + 1)],
             functools.partial(_check_holds, "operatorform",
                               "verify_asym_lemma"),
             "asym lemma (n={}, samples={})",
             ("--n-max", "--samples", "--seed")),
    "coeff": (lambda a: _n_l(a, 2),
              functools.partial(_check_holds, "detform", "verify_coeff_route"),
              "coeff (n={}, l={})", ("--n-max", "--l-max")),
    "bijections": (lambda a: _n_l(a, 2), _check_bijections,
                   "bijections (n={}, l={})", ("--n-max", "--l-max")),
}


# --- subcommand handlers: each takes the chosen table row ------------------

def _cmd_enumerate(row, args, out):
    objs = _call(row, args)
    module = sys.modules[f"{__package__}.{row[0]}"]
    # build only the form that is printed
    if args.format == "json":
        import json
        print(json.dumps([module.to_json(o) for o in objs], indent=2),
              file=out)
        return 0
    for i, obj in enumerate(objs):
        print(f"# {i + 1}", file=out)
        print(module.pretty(obj), file=out)
    print(f"total: {len(objs)}", file=out)
    return 0


def _cmd_gf(row, args, out):
    g = _call(row, args)
    if args.format == "json":
        import json
        terms = [{"p": e[0], "q": e[1], "r": e[2], "coeff": c}
                 for e, c in sorted(g.terms.items())]
        print(json.dumps(terms), file=out)
    else:
        print(str(g), file=out)
    return 0


def _cmd_count(row, args, out):
    print(_call(row, args), file=out)
    return 0


def _cmd_tpoly(row, args, out):
    from .exactalg import join_terms, monomial_str, monomials
    coeffs = _call(row, args)  # over the falling factorials (l)_k
    # both forms through Gf's term printer, the monomial one degree first
    mono = join_terms([(c, monomial_str(("l",), (k,))) for k, c in sorted(
        enumerate(monomials(coeffs)), reverse=True) if c])
    ff = join_terms([(c, f"(l)_{k}" if k else "")
                     for k, c in enumerate(coeffs) if c])
    if args.format == "json":
        import json
        print(json.dumps({"n": args.n, "monomial": mono,
                          "falling_factorial": ff}), file=out)
    else:
        print(f"t_{args.n}(l) = {mono}", file=out)
        print(f"         = {ff}", file=out)
    return 0


def _cmd_verify(row, args, out):
    tasks_for, check, label, reads = row
    if "--samples" in reads:  # refused before any task or worker
        from .operatorform import check_samples
        check_samples(args.samples)
    results = _run_tasks(check, tasks_for(args), args.jobs)
    return _report([(label.format(*fields), ok, detail)
                    for checks in results for fields, ok, detail in checks],
                   out)


def _cmd_svg(row, args, out):
    try:
        drawn = _call(row, args)
    except OSError as e:  # an --out that cannot be written is an argument error
        raise ValueError(f"cannot write {args.out}: {e.strerror or e}") from e
    print(f"wrote {drawn} families to {args.out}", file=out)
    return 0


# command -> (help, the positional argument that picks a row of its table,
# or None for a command of one row; that table or row; the flags every row
# reads besides its own; handler)
COMMANDS = {
    "enumerate": ("list objects", "family", FAMILIES, ("--format",),
                  _cmd_enumerate),
    "gf": ("generating function by one route", "route", GF_ROUTES,
           ("--format",), _cmd_gf),
    "count": ("number of trapezoids (determinant)", None,
              ("detform", "count", ("--n", "--l")), (), _cmd_count),
    "tpoly": ("trapezoid count as a polynomial in l", None,
              ("operatorform", "t_polynomial", ("--n",)), ("--format",),
              _cmd_tpoly),
    "verify": ("cross-route verification sweeps", "identity", IDENTITIES,
               ("--jobs",), _cmd_verify),
    "svg": ("draw lattice path families", "what",
            {"paths": ("pathfam", "write_families_svg",
                       ("--out", "--n", "--l", "--d"))}, (), _cmd_svg),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="altsign",
        description="Alternating sign trapezoids, column strict shifted "
                    "plane partitions, and their generating functions "
                    "(exact arithmetic throughout).")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, positional, table, common, handler) in COMMANDS.items():
        # no prefixes: --l on verify would otherwise stand for --l-max
        p = sub.add_parser(name, help=help_, allow_abbrev=False)
        if positional:
            p.add_argument(positional, choices=tuple(table))
        rows = table.values() if positional else (table,)
        for flag in dict.fromkeys(common + sum((r[-1] for r in rows), ())):
            p.add_argument(flag, **FLAGS[flag][0])
        p.set_defaults(func=handler)
    return parser


def _validate_args(args, parser):
    """The chosen row, once each flag it reads has its value: exits 2 on a
    flag it does not read or on a missing one that it requires."""
    _, positional, table, common, _ = COMMANDS[args.command]
    choice = getattr(args, positional) if positional else None
    row = table[choice] if positional else table
    name = f"{args.command} {choice}" if positional else args.command
    reads = common + row[-1]
    for flag, (_, default) in FLAGS.items():
        value = getattr(args, _dest(flag), None)  # None: not given or no flag
        if flag not in reads and value is not None:
            parser.error(f"{name} does not read {flag}")
        if flag in reads and value is None:
            if default is None:
                parser.error(f"{name} requires {flag}")
            setattr(args, _dest(flag), default)
    if args.command == "verify" and args.jobs < 1:
        parser.error("--jobs must be at least 1")
    return row


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    row = _validate_args(args, parser)
    try:
        return args.func(row, args, sys.stdout)
    except (ValueError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
