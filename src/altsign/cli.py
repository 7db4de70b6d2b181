"""Command-line interface.

Subcommands: ``enumerate`` (ast / cssp / sttree), ``gf`` (ast / cssp / det /
operator / paths), ``count``, ``tpoly``, ``verify`` (main / truncated /
qast / asymm / asym / coeff / bijections), and ``svg paths``.

The tables in COMMANDS name the flags each route, family or identity reads;
the parsers, defaults, required flags and dispatch come from them, and a
flag that the chosen row does not read exits 2.  main reads a well-formed
command line (the command, its row's name, then --flag value pairs of the
command's flags, each at most once) straight from the tables; every other
command line, help and errors included, goes to the argparse parser that
build_parser makes from the same tables, so help, usage and error text are
argparse's own, and argparse loads only for them.  An answer of any size
prints: CPython's int-to-str digit limit holds only while the command line
is read.

Verification subcommands (altsign.verify, loaded only by verify) print one
PASS/FAIL line per check plus a summary and exit 1 on any failure or when
no check ran; argument errors exit 2.  Output for a fixed command line
(including --seed) is byte-identical across runs; --jobs spreads an
identity's tasks over worker processes (at most one per task and per CPU)
without changing the output order.  A task is an (n, l) cell for main,
which checks every d, an n for qast, which checks the count and the
vanishing, and one check for the other identities.
"""

from __future__ import annotations

import importlib
import sys
import types

# Each handler imports the modules it runs, so that a command loads only
# those (every op is a fresh process): argparse only for help and errors,
# altsign.verify only for verify.


def _parse_int_list(text):
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        import argparse
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


# identity -> (the names in altsign.verify of its task builder, which takes
# the parsed arguments, and of the check of one task; the label of a check
# as a format string over its fields; the flags it reads besides --jobs)
IDENTITIES = {
    "main": ("cells", "check_main", "main (n={}, l={}, d={})",
             ("--n-max", "--l-max")),
    "truncated": ("tree_instances", "check_truncated",
                  "truncated (n={}, s={}, t={}, b={})",
                  ("--samples", "--seed")),
    "qast": ("operator_ns", "check_qast", "qast {} (n={})", ("--n-max",)),
    "asymm": ("asymm_points", "check_asymm", "asymM (n={}, x={})",
              ("--n-max",)),
    "asym": ("asym_runs", "check_asym", "asym lemma (n={}, samples={})",
             ("--n-max", "--samples", "--seed")),
    "coeff": ("cells_from_l2", "check_coeff", "coeff (n={}, l={})",
              ("--n-max", "--l-max")),
    "bijections": ("cells_from_l2", "check_bijections",
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
    from . import verify
    tasks, check, label, _ = row
    return verify.run(getattr(verify, tasks)(args), getattr(verify, check),
                      label, args.jobs, out)


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
    "count": ("number of trapezoids (Andrews' product)", None,
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


def _parser_flags(command):
    """The flags of command's parser, in help order: every flag its rows
    read."""
    _, positional, table, common, _ = COMMANDS[command]
    rows = table.values() if positional else (table,)
    return dict.fromkeys(common + sum((r[-1] for r in rows), ()))


def build_parser():
    import argparse
    parser = argparse.ArgumentParser(
        prog="altsign",
        description="Alternating sign trapezoids, column strict shifted "
                    "plane partitions, and their generating functions "
                    "(exact arithmetic throughout).")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, positional, table, _, handler) in COMMANDS.items():
        # no prefixes: --l on verify would otherwise stand for --l-max
        p = sub.add_parser(name, help=help_, allow_abbrev=False)
        if positional:
            p.add_argument(positional, choices=tuple(table))
        for flag in _parser_flags(name):
            p.add_argument(flag, **FLAGS[flag][0])
        p.set_defaults(func=handler)
    return parser


def _table_args(argv):
    """What build_parser().parse_args(argv) returns, read straight from the
    tables, for a command line of the form COMMAND [CHOICE] --flag value
    ..., each flag of the command's parser at most once and each value one
    that argparse reads as a value and the flag's type and choices take;
    None for any other command line (help, an error, another spelling),
    which argparse reads."""
    if not argv or argv[0] not in COMMANDS:
        return None
    command, rest = argv[0], argv[1:]
    _, positional, table, _, handler = COMMANDS[command]
    flags = _parser_flags(command)
    fields = dict.fromkeys(map(_dest, flags))
    fields.update(command=command, func=handler)
    if positional:
        if not rest or rest[0] not in table:
            return None
        fields[positional], rest = rest[0], rest[1:]
    if len(rest) % 2:
        return None
    for flag, text in zip(rest[::2], rest[1::2]):
        if flag not in flags or fields[_dest(flag)] is not None:
            return None  # not the command's flag, or given twice
        # argparse reads a text that starts with - as a flag, unless it is
        # a negative number: ^-\d+$|^-\d*\.\d+$ (short of the newline that
        # $ lets through at the end)
        number = (text[1:].replace(".", "", 1).isdecimal()
                  and not text.endswith("."))
        if text.startswith("-") and not number:
            return None
        options = FLAGS[flag][0]
        try:
            value = options.get("type", str)(text)
        except Exception:  # the type refuses text: argparse says how
            return None
        if value not in options.get("choices", (value,)):
            return None
        fields[_dest(flag)] = value
    return types.SimpleNamespace(**fields)


def _validate_args(args):
    """The chosen row, once each flag it reads has its value: exits 2 on a
    flag it does not read or on a missing one that it requires (through
    argparse, which prints its usage line)."""
    _, positional, table, common, _ = COMMANDS[args.command]
    choice = getattr(args, positional) if positional else None
    row = table[choice] if positional else table
    name = f"{args.command} {choice}" if positional else args.command
    reads = common + row[-1]
    for flag, (_, default) in FLAGS.items():
        value = getattr(args, _dest(flag), None)  # None: not given or no flag
        if flag not in reads and value is not None:
            build_parser().error(f"{name} does not read {flag}")
        if flag in reads and value is None:
            if default is None:
                build_parser().error(f"{name} requires {flag}")
            setattr(args, _dest(flag), default)
    if args.command == "verify" and args.jobs < 1:
        build_parser().error("--jobs must be at least 1")
    return row


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _table_args(argv)
    if args is None:  # help, an error or another spelling: argparse's text
        args = build_parser().parse_args(argv)
    row = _validate_args(args)
    # the texts were read under the digit limit (0: none), so a runaway
    # input text is refused
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(row, args, sys.stdout)
    except (ValueError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
