"""Command-line interface.

Subcommands: ``enumerate`` (ast / cssp / sttree), ``gf`` (ast / cssp / det /
operator / paths), ``count``, ``tpoly``, ``verify`` (main / truncated /
qast / asymm / asym / coeff / bijections), and ``svg paths``.

Verification subcommands print one PASS/FAIL line per parameter tuple plus
a summary and exit 1 on any failure or when no check ran; argument errors
exit 2.  Output for a fixed command line (including --seed) is
byte-identical across runs; --jobs parallelizes sweeps over parameter
tuples (at most one worker per task and per CPU) without changing the
output order.
"""

from __future__ import annotations

import argparse
import functools
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
    return tuple(int(x) for x in text.split(","))


# --- verification workers (top-level so process pools can pickle them) ----

@functools.cache
def _ast_gf(n, l):
    """trapezoid.gf(n, l), once per process for all the d of main."""
    from . import trapezoid
    return trapezoid.gf(n, l)


def _check_main(args):
    from . import cssp
    n, l, d = args
    lhs, rhs = _ast_gf(n, l), cssp.gf(l - 1, n, d)
    # _report prints the two sides only on a failure
    return (True, ()) if lhs == rhs else (False, (str(lhs), str(rhs)))


def _check_truncated(inst):
    from . import operatorform, sttree
    n, s, t, b = inst
    formula = operatorform.count_sttrees_formula(n, s, t, b)
    brute = len(sttree.enumerate_sttrees(n, s, t, b))
    return formula == brute, (f"formula {formula}", f"brute force {brute}")


def _check_qast(args):
    from . import operatorform, trapezoid
    n, part = args
    if part == "count":
        value = operatorform.t_value(n, 1)
        brute = len(trapezoid.enumerate_trapezoids(n, 1))
        return value == brute, (f"t_{n}(1) = {value}", f"enumeration {brute}")
    return all(operatorform.count_ast_prescribed(n, 1, j) == 0
               for m, j in operatorform.all_positions(n)
               if 0 < m < n and j[m - 1] < -1 and j[m] > 1), ()


def _check_asymm(args):
    from . import operatorform
    return operatorform.verify_asymM(*args), ()


def _check_asym(args):
    from . import operatorform
    return operatorform.verify_asym_lemma(*args), ()


def _check_coeff(args):
    from . import detform
    return detform.verify_coeff_route(*args), ()


def _check_bijections(args):
    from . import cssp, pathfam, sttree, trapezoid
    n, l = args
    for t in trapezoid.enumerate_trapezoids(n, l):
        # the tree is t's image, so a preimage equal to t passes
        # sttree_to_ast's image check as well: the tree is built once
        if sttree.preimage(sttree.ast_to_sttree(t), n, l) != t:
            return False, (f"trapezoid round trip failed: {t}",)
    for c in cssp.enumerate_cssps(l - 1, n):
        fam = pathfam.cssp_to_paths(c)
        if pathfam.paths_to_cssp(fam, l) != c:
            return False, (f"path round trip failed: {c}",)
        for d in range(0, l):
            if pathfam.lgv_weight(fam, d, l) != cssp.weight(c, d):
                return False, (f"weight transport failed: {c} d={d}",)
    return True, ()


def _random_tree_instances(args):
    from . import sttree
    return sttree.random_tree_instances(args.samples, args.seed)


def _n_l(args, l_min):
    return [(n, l) for n in range(1, args.n_max + 1)
            for l in range(l_min, args.l_max + 1)]


# identity -> (the tasks its arguments call for, the check of one task, the
# label of a task as a format string over the task's fields)
IDENTITIES = {
    "main": (lambda a: [(n, l, d) for n, l in _n_l(a, 1) for d in range(l)],
             _check_main, "main (n={}, l={}, d={})"),
    "truncated": (_random_tree_instances, _check_truncated,
                  "truncated (n={}, s={}, t={}, b={})"),
    "qast": (lambda a: [(n, part) for n in range(1, a.n_max + 1)
                        for part in ("count", "vanishing")],
             _check_qast, "qast {1} (n={0})"),
    "asymm": (lambda a: [(n, x) for n in range(1, a.n_max + 1)
                         for x in itertools.product(range(4), repeat=n)],
              _check_asymm, "asymM (n={}, x={})"),
    "asym": (lambda a: [(n, a.samples, a.seed) for n in range(1, a.n_max + 1)],
             _check_asym, "asym lemma (n={}, samples={})"),
    "coeff": (lambda a: _n_l(a, 2), _check_coeff, "coeff (n={}, l={})"),
    "bijections": (lambda a: _n_l(a, 2), _check_bijections,
                   "bijections (n={}, l={})"),
}


# --- subcommand handlers ---------------------------------------------------

def _cmd_enumerate(args, out):
    if args.family == "ast":
        from . import trapezoid
        objs = trapezoid.enumerate_trapezoids(args.n, args.l)
        to_json = trapezoid.to_json
        text = lambda t: "\n".join(" ".join(f"{e:2d}" for e in row)
                                   for row in t.rows)
    elif args.family == "cssp":
        from . import cssp
        objs = cssp.enumerate_cssps(args.k, args.n)
        to_json, text = cssp.to_json, cssp.pretty
    else:
        from . import sttree
        lists = map(_parse_int_list, (args.s, args.t, args.b))
        objs = sttree.enumerate_sttrees(args.n, *lists)
        to_json = sttree.to_json
        text = lambda tr: "\n".join(
            " ".join("." if v is None else str(v) for v in row)
            for row in tr.rows)
    # build only the form that is printed
    if args.format == "json":
        import json
        print(json.dumps([to_json(o) for o in objs], indent=2), file=out)
        return 0
    for i, obj in enumerate(objs):
        print(f"# {i + 1}", file=out)
        print(text(obj), file=out)
    print(f"total: {len(objs)}", file=out)
    return 0


def _cmd_gf(args, out):
    if args.route == "ast":
        from . import trapezoid
        g = trapezoid.gf(args.n, args.l)
    elif args.route == "cssp":
        from . import cssp
        g = cssp.gf(args.k, args.n, args.d)
    elif args.route == "det":
        from . import detform
        g = detform.gf_det(args.n, args.l)
    elif args.route == "operator":
        from . import operatorform
        g = operatorform.gf_ast_via_operator(args.n, args.l)
    else:
        from . import pathfam
        g = pathfam.gf_via_paths(args.n, args.l, args.d)
    if args.format == "json":
        import json
        terms = [{"p": e[0], "q": e[1], "r": e[2], "coeff": c}
                 for e, c in sorted(g.terms.items())]
        print(json.dumps(terms), file=out)
    else:
        print(str(g), file=out)
    return 0


def _cmd_count(args, out):
    from . import detform
    print(detform.count(args.n, args.l), file=out)
    return 0


def _cmd_tpoly(args, out):
    from . import operatorform
    p = operatorform.t_polynomial(args.n)
    coeffs = operatorform.falling_factorial_coeffs(p)
    ff = " + ".join(
        (f"{c}" if k == 0 else (f"{c}*(l)_{k}" if c != 1 else f"(l)_{k}"))
        for k, c in enumerate(coeffs) if c != 0) or "0"
    if args.format == "json":
        import json
        print(json.dumps({"n": args.n, "monomial": str(p),
                          "falling_factorial": ff}), file=out)
    else:
        print(f"t_{args.n}(l) = {p}", file=out)
        print(f"         = {ff}", file=out)
    return 0


def _cmd_verify(args, out):
    tasks_for, check, label = IDENTITIES[args.identity]
    tasks = tasks_for(args)
    results = _run_tasks(check, tasks, args.jobs)
    return _report([(label.format(*task), ok, detail)
                    for task, (ok, detail) in zip(tasks, results)], out)


def _cmd_svg(args, out):
    from . import pathfam
    try:
        drawn = pathfam.write_families_svg(args.out, args.n, args.l, args.d)
    except OSError as e:  # an --out that cannot be written is an argument error
        raise ValueError(f"cannot write {args.out}: {e.strerror or e}") from e
    print(f"wrote {drawn} families to {args.out}", file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="altsign",
        description="Alternating sign trapezoids, column strict shifted "
                    "plane partitions, and their generating functions "
                    "(exact arithmetic throughout).")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, n=False, l=False, d=False, k=False):
        if n:
            p.add_argument("--n", type=int, required=True)
        if l:
            p.add_argument("--l", type=int, required=True)
        if d:
            p.add_argument("--d", type=int, default=1)
        if k:
            p.add_argument("--k", type=int)
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("enumerate", help="list objects")
    p.add_argument("family", choices=("ast", "cssp", "sttree"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--s", default="")
    p.add_argument("--t", default="")
    p.add_argument("--b", default="")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("gf", help="generating function by one route")
    p.add_argument("route", choices=("ast", "cssp", "det", "operator", "paths"))
    add_common(p, n=True, d=True, k=True)
    p.add_argument("--l", type=int)
    p.set_defaults(func=_cmd_gf)

    p = sub.add_parser("count", help="number of trapezoids (determinant)")
    add_common(p, n=True, l=True)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("tpoly", help="trapezoid count as a polynomial in l")
    add_common(p, n=True)
    p.set_defaults(func=_cmd_tpoly)

    p = sub.add_parser("verify", help="cross-route verification sweeps")
    p.add_argument("identity", choices=tuple(IDENTITIES))
    p.add_argument("--n-max", type=int, default=3)
    p.add_argument("--l-max", type=int, default=5)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("svg", help="draw lattice path families")
    p.add_argument("what", choices=("paths",))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_svg)

    return parser


def _validate_args(args, parser):
    if args.command == "enumerate":
        if args.family == "ast" and args.l is None:
            parser.error("enumerate ast requires --l")
        if args.family == "cssp" and args.k is None:
            parser.error("enumerate cssp requires --k")
        if args.family == "sttree" and not args.b:
            parser.error("enumerate sttree requires --b")
    if args.command == "gf":
        if args.route == "cssp":
            if args.k is None:
                parser.error("gf cssp requires --k")
        elif args.l is None:
            parser.error(f"gf {args.route} requires --l")
    paths = args.command == "svg" or (args.command == "gf"
                                      and args.route == "paths")
    if paths and args.l is not None and not 0 <= args.d <= args.l - 1:
        parser.error(f"{args.command} paths requires 0 <= d <= l-1")
    if args.command == "verify" and args.jobs < 1:
        parser.error("--jobs must be at least 1")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate_args(args, parser)
    try:
        return args.func(args, sys.stdout)
    except (ValueError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
