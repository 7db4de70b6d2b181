"""The checks of ``altsign verify``, loaded only by that command.

An identity (a row of ``cli.IDENTITIES``) names a task builder and a check
here.  A task builder takes the parsed arguments and returns the tasks: an
(n, l) cell for main, which checks every d, an n for qast, which checks the
count and the vanishing, and one check for the other identities; it refuses
arguments out of reach before any task runs.  A check takes one task and
returns its checks as (fields, ok, detail): the fields fill the identity's
label, and the detail is printed only on a failure.  Checks are top-level
functions, so that the --jobs process pool can pickle them.
"""

from __future__ import annotations

import itertools
import os

# Each check imports the modules it runs, so that an identity loads only
# those (every op is a fresh process).


def run(tasks, check, label, jobs, out):
    """Prints one PASS/FAIL line per check, in task order, and a summary;
    1 on any failure or when no check ran, else 0."""
    return _report([(label.format(*fields), ok, detail)
                    for checks in _run_tasks(check, tasks, jobs)
                    for fields, ok, detail in checks], out)


def _run_tasks(fn, tasks, jobs):
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # the first task runs here, so the forked workers inherit the
        # modules it loaded rather than each compiling them again; the
        # pool hands out the rest from the last, since most builders list
        # the tasks by growing n, so no large task starts last
        first = fn(tasks[0])
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rest = list(pool.map(fn, reversed(tasks[1:])))
        return [first, *reversed(rest)]
    return [fn(task) for task in tasks]


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


# --- task builders ----------------------------------------------------------

def cells(args, l_min=1):
    """(n, l) for n in 1..--n-max and l in l_min..--l-max."""
    return [(n, l) for n in range(1, args.n_max + 1)
            for l in range(l_min, args.l_max + 1)]


def cells_from_l2(args):
    return cells(args, 2)


def operator_ns(args, name="the operator route"):
    """1..--n-max, refused up front past the reach of name."""
    from .operatorform import check_reach
    check_reach(args.n_max, name)
    return range(1, args.n_max + 1)


def asymm_points(args):
    """(n, x) for each point x of {0..3}^n, n in 1..--n-max."""
    return [(n, x) for n in operator_ns(args, "verify asymm")
            for x in itertools.product(range(4), repeat=n)]


def asym_runs(args):
    """(n, --samples, --seed) for n in 1..--n-max, refused up front past
    verify asym's reach."""
    from .operatorform import check_samples
    check_samples(args.samples)
    return [(n, args.samples, args.seed)
            for n in operator_ns(args, "verify asym")]


def tree_instances(args):
    """--samples seeded (s,t)-tree instances."""
    from .operatorform import check_samples
    from .sttree import random_tree_instances
    check_samples(args.samples)
    return random_tree_instances(args.samples, args.seed)


# --- checks -----------------------------------------------------------------

def check_main(task):
    from . import cssp, trapezoid
    n, l = task
    lhs, checks = trapezoid.gf(n, l), []
    for d in range(l):
        rhs = cssp.gf(l - 1, n, d)
        checks.append(((n, l, d), lhs == rhs,
                       () if lhs == rhs else (str(lhs), str(rhs))))
    return checks


def check_truncated(inst):
    from . import operatorform, sttree
    formula = operatorform.count_sttrees_formula(*inst)
    brute = len(sttree.enumerate_sttrees(*inst))
    return [(inst, formula == brute,
             (f"formula {formula}", f"brute force {brute}"))]


def check_qast(n):
    from . import operatorform, trapezoid
    value = operatorform.t_value(n, 1)
    brute = len(trapezoid.enumerate_trapezoids(n, 1))
    vanishing = all(operatorform.count_ast_prescribed(n, 1, j) == 0
                    for m, j in operatorform.all_positions(n)
                    if 0 < m < n and j[m - 1] < -1 and j[m] > 1)
    return [(("count", n), value == brute,
             (f"t_{n}(1) = {value}", f"enumeration {brute}")),
            (("vanishing", n), vanishing, ())]


def check_asymm(task):
    from . import operatorform
    return [(task, operatorform.verify_asymM(*task), ())]


def check_asym(task):
    from . import operatorform
    return [(task, operatorform.verify_asym_lemma(*task), ())]


def check_coeff(task):
    from . import detform
    return [(task, detform.verify_coeff_route(*task), ())]


def check_bijections(task):
    from . import cssp, pathfam, sttree, trapezoid
    n, l = task
    for t in trapezoid.enumerate_trapezoids(n, l):
        # the tree is t's image, so a preimage equal to t passes
        # sttree_to_ast's image check as well: the tree is built once
        if sttree.preimage(sttree.ast_to_sttree(t), n, l) != t:
            return [(task, False, (f"trapezoid round trip failed: {t}",))]
    for c in cssp.enumerate_cssps(l - 1, n):
        fam = cssp.to_paths(c)
        if cssp.from_paths(fam) != c:
            return [(task, False, (f"path round trip failed: {c}",))]
        for d in range(0, l):
            if pathfam.lgv_weight(fam, d) != cssp.weight(c, d):
                return [(task, False,
                         (f"weight transport failed: {c} d={d}",))]
    return [(task, True, ())]
