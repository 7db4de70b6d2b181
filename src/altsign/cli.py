"""Command-line interface.

Subcommands: ``enumerate`` (ast / cssp / sttree), ``gf`` (ast / cssp / det /
operator / paths), ``count``, ``tpoly``, ``verify`` (main / truncated /
qast / asymm / asym / coeff / bijections), and ``svg paths``.

The tables in COMMANDS name the flags each route, family or identity reads;
the parser, help, defaults, required flags and dispatch come from them, so
a flag that the chosen row does not read exits 2.  The token after a flag is
its value (--b -1,0,2 reads).  -h or --help prints one line per row with the
flags it reads; an error prints the command's usage line and exits 2.  An
answer of any size prints: CPython's int-to-str digit limit holds only while
the command line is read.

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

import gc
import importlib
import sys
import types

# Each handler imports the modules it runs, so that a command loads only
# those (every op is a fresh process): altsign.verify only for verify.


def _parse_int_list(text):
    try:
        return tuple(int(x) for x in text.split(",")) if text else ()
    except ValueError:
        raise ValueError(
            f"expected comma-separated integers, got {text!r}") from None


# flag -> (its type, or the tuple of its choices; its value when the chosen
# row reads it and the command line leaves it out, None: the row requires it)
FLAGS = {
    "--n": (int, None),
    "--l": (int, None),
    "--k": (int, None),
    "--d": (int, 1),
    "--s": (_parse_int_list, ()),
    "--t": (_parse_int_list, ()),
    "--b": (_parse_int_list, None),
    "--format": (("text", "json"), "text"),
    "--n-max": (int, 3),
    "--l-max": (int, 5),
    "--samples": (int, 100),
    "--seed": (int, 2024),
    "--jobs": (int, 1),
    "--out": (str, None),
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
              ("andrews", "count", ("--n", "--l")), (), _cmd_count),
    "tpoly": ("trapezoid count as a polynomial in l", None,
              ("andrews", "t_polynomial", ("--n",)), ("--format",),
              _cmd_tpoly),
    "verify": ("cross-route verification sweeps", "identity", IDENTITIES,
               ("--jobs",), _cmd_verify),
    "svg": ("draw lattice path families", "what",
            {"paths": ("pathfam", "write_families_svg",
                       ("--out", "--n", "--l", "--d"))}, (), _cmd_svg),
}


def _rows(command):
    """{row name, None for a command of one row: row} of command."""
    _, positional, table, _, _ = COMMANDS[command]
    return table if positional else {None: table}


def _row_lines(command):
    """One help line per row of command: its words, then each flag the row
    reads, with its choices and [its default] where it has them."""
    for choice, row in _rows(command).items():
        words = [command, choice]
        for flag in row[-1] + COMMANDS[command][3]:
            kind, default = FLAGS[flag]
            words += [flag, not callable(kind) and "|".join(kind),
                      default is not None
                      and f"[{'' if default == () else default}]"]
        yield " ".join(filter(None, words))


def _usage(command):
    """The usage line of command, or of the program for None."""
    names = "|".join(filter(None, _rows(command) if command else COMMANDS))
    return " ".join(filter(None, ("usage: altsign", command, names, (
        "[--flag value ...]" if command else "..."))))


def _help(command):
    """Print the help of command (of the program for None) and exit 0: the
    usage line, then per command what it does and one line per row."""
    print(_usage(command), "", sep="\n")
    for name in [command] if command else COMMANDS:
        print(f"{name}: {COMMANDS[name][0]}",
              *(f"  {line}" for line in _row_lines(name)), sep="\n")
    raise SystemExit(0)


def _fail(command, message):
    """Exit 2 on a command line that command (the program for None)
    refuses, printing its usage line and the message."""
    prog = " ".join(filter(None, ("altsign", command)))
    print(_usage(command), f"{prog}: error: {message}", sep="\n",
          file=sys.stderr)
    raise SystemExit(2)


def _value(command, name, text, kind):
    """text as the value of name, where kind is its choices or the type
    that reads it: exits 2 where kind refuses text."""
    if not callable(kind):
        if text not in kind:
            _fail(command, f"{name} is one of {', '.join(kind)}")
        return text
    try:
        return kind(text)
    except ValueError as e:
        _fail(command, f"{name}: {e}")


def _read_args(argv):
    """The namespace of argv: command, func, the row's name and each flag of
    the command, None where argv leaves it out.  -h or --help prints the
    help of the command at hand; any other error exits 2 through _fail."""
    if argv[:1] in (["-h"], ["--help"]):
        _help(None)
    command = _value(None, "the command", (argv or [None])[0], COMMANDS)
    _, positional, table, common, handler = COMMANDS[command]
    flags = set(common).union(*(row[-1] for row in _rows(command).values()))
    fields = dict.fromkeys(map(_dest, flags))
    fields.update(command=command, func=handler)
    tokens, choice = iter(argv[1:]), None
    for token in tokens:
        flag, eq, text = token.partition("=")
        if token in ("-h", "--help"):
            _help(command)
        elif flag in flags:
            if not eq and (text := next(tokens, None)) is None:
                _fail(command, f"{flag} needs a value")
            fields[_dest(flag)] = _value(command, flag, text, FLAGS[flag][0])
        elif positional and choice is None:
            choice = _value(command, positional, token, table)
        else:
            _fail(command, f"unrecognized argument {token!r}")
    if positional:
        fields[positional] = _value(command, positional, choice, table)
    return types.SimpleNamespace(**fields)


def _validate_args(args):
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
            _fail(args.command, f"{name} does not read {flag}")
        if flag in reads and value is None:
            if default is None:
                _fail(args.command, f"{name} requires {flag}")
            setattr(args, _dest(flag), default)
    if args.command == "verify" and args.jobs < 1:
        _fail(args.command, "--jobs must be at least 1")
    return row


def main(argv=None) -> int:
    args = _read_args(sys.argv[1:] if argv is None else list(argv))
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


def run() -> int:
    """The process entry, of python -m altsign.cli and of the altsign
    script: main's exit code, once every object then alive is frozen out
    of the cyclic collector, so that the collections of the interpreter's
    exit have nothing to walk (most of those objects are the start-up's).
    Deallocation by refcount, atexit handlers and stdio flushing run as
    before; main called as a function freezes nothing."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
