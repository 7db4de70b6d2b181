"""Workloads of the altsign CLI benchmark and the checks on their outputs.

A workload is a deck: a fixed list of argvs, some of them repeated.  A run
issues the deck a whole number of times (passes), each pass in an order
shuffled by the seed.  So every run of every commit issues the same
multiset of ops, and the seed changes only their order: the median and
the tail then come from the same ops whatever the seed, and a faster
commit does not get to run a different mix.

gf, count and tpoly outputs are checked against the stdout digests in
reference.json (written by make_reference.py after a cross-route check);
a verify op passes only on exit 0 with a "k/k checks passed" summary whose
k is the number of checks its arguments call for.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re


def argv_of(*parts) -> tuple[str, ...]:
    return tuple(str(p) for p in parts)


def gf_det(ns, ls) -> list[tuple[str, ...]]:
    return [argv_of("gf", "det", "--n", n, "--l", l) for n in ns for l in ls]


def gf_ast(n: int) -> list[tuple[str, ...]]:
    return [argv_of("gf", "ast", "--n", n, "--l", l) for l in range(2, 5)]


def gf_paths(l: int) -> list[tuple[str, ...]]:
    return [argv_of("gf", "paths", "--n", 5, "--l", l, "--d", d)
            for d in range(l)]


COUNT = [argv_of("count", "--n", n, "--l", l)
         for n in range(20, 61, 10) for l in (2, 5, 8)]
VERIFY_COEFF = [argv_of("verify", "coeff", "--n-max", 5, "--l-max", 6)]

GF_OPERATOR = [argv_of("gf", "operator", "--n", 3, "--l", l)
               for l in range(2, 9)]
TPOLY3 = [argv_of("tpoly", "--n", 3)]
TPOLY4 = [argv_of("tpoly", "--n", 4)]
VERIFY_TRUNCATED = [argv_of("verify", "truncated", "--samples", 10,
                            "--seed", s) for s in range(3)]
VERIFY_ASYMM = [argv_of("verify", "asymm", "--n-max", 3)]

GF_CSSP = [argv_of("gf", "cssp", "--k", k, "--n", 5, "--d", d)
           for k in range(1, 4) for d in range(k + 1)]
VERIFY_MAIN = [argv_of("verify", "main", "--n-max", 4, "--l-max", 4,
                       "--jobs", 2)]
VERIFY_BIJECTIONS = [argv_of("verify", "bijections", "--n-max", 4,
                             "--l-max", 4)]

# The determinant and operator routes share one workload: their ops take
# up to seconds, a shared host's speed can drift by tens of percent within
# seconds, and two workloads leave time for runs long enough to average
# some of that out.  Enumeration is the control for both: it does no
# determinant and no MPoly work.
#
# The algebra tail (the 11th-slowest op) and median are order statistics,
# and on a noisy host one falls steadier inside a large group of ops that
# take nearly the same time, spread over the run.  So gf det --n 9 runs
# three times at the five L values where it takes nearly the same time
# (L = 3 and 7 take half as long again), which puts the tail among those
# 15 ops, and count runs twice to keep the median among the sub-second
# ops.
DET = (gf_det((8, 10), (2, 5, 8)) + gf_det((9,), (2, 4, 5, 6, 8)) * 3
       + COUNT * 2 + VERIFY_COEFF)
# gf operator twice: its ops take nearly the same time, and with two
# copies the algebra median falls among them rather than in the sparse
# range between the sub-second ops and gf det --n 8.
OPERATOR = (GF_OPERATOR * 2 + TPOLY3 * 3 + TPOLY4 + VERIFY_TRUNCATED
            + VERIFY_ASYMM * 2)

WORKLOADS = {
    # Bareiss over Gf (gf det), integer Bareiss (count), the coefficient
    # route; MPoly shift/substitute/evaluate on a cold compute_Mn (tpoly,
    # gf operator, truncated) and MPoly mul/exact_divide (asymm).
    "algebra": DET + OPERATOR,
    # Backtracking enumerators, tiny Gf adds, and the --jobs process pool.
    "enumeration": (gf_ast(4) + gf_ast(5) + GF_CSSP + gf_paths(2)
                    + gf_paths(3) + gf_paths(4) + VERIFY_MAIN * 2
                    + VERIFY_BIJECTIONS * 2),
}

# Wall seconds of one pass of each deck on a 2-vCPU Xeon (2.0 GHz) virtual
# machine with Python 3.11, at the speed that shared host usually had.
# They turn --seconds into a number of passes (see passes), and that number
# depends on --seconds alone, so a faster commit runs the same ops as its
# parent.
PASS_SECONDS = {"algebra": 60, "enumeration": 20}


def drawable(workload: str) -> set[tuple[str, ...]]:
    """Every argv the workload's stream can issue."""
    return set(WORKLOADS[workload])


def passes(workload: str, seconds: float) -> int:
    """Passes over the deck that take about `seconds` on the machine
    PASS_SECONDS was measured on; at least one."""
    return max(1, round(seconds / PASS_SECONDS[workload]))


def stream(workload: str, seed: int, n_passes: int) -> list[tuple[str, ...]]:
    """The seeded argv stream: n_passes shuffled copies of the deck."""
    rng = random.Random(f"{workload}/{seed}")
    deck = WORKLOADS[workload]
    return [argv for _ in range(n_passes)
            for argv in rng.sample(deck, len(deck))]


def stream_digest(argvs) -> str:
    """sha256 over the issued argvs, one space-joined argv per line."""
    text = "".join(" ".join(a) + "\n" for a in argvs)
    return hashlib.sha256(text.encode()).hexdigest()


def stdout_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def load_reference(path: str = REFERENCE_PATH) -> dict[str, str]:
    with open(path) as f:
        return json.load(f)["digests"]


def expected_checks(argv) -> int:
    """Number of checks a verify command line calls for (CLI defaults
    apply to flags it omits)."""
    flags = dict(zip(argv[2::2], argv[3::2]))
    n_max = int(flags.get("--n-max", 3))
    l_max = int(flags.get("--l-max", 5))
    kind = argv[1]
    if kind == "main":
        return n_max * l_max * (l_max + 1) // 2
    if kind == "truncated":
        return int(flags.get("--samples", 100))
    if kind == "asymm":
        return sum(4 ** n for n in range(1, n_max + 1))
    if kind in ("coeff", "bijections"):
        return n_max * (l_max - 1)
    raise ValueError(f"no expected check count for verify {kind}")


_SUMMARY = re.compile(rb"(\d+)/(\d+) checks passed\n\Z")


def output_ok(argv, returncode: int, stdout: bytes, reference) -> bool:
    """Whether one op exited 0 and printed the right output."""
    if returncode != 0:
        return False
    if argv[0] == "verify":
        m = _SUMMARY.search(stdout)
        k = expected_checks(argv)
        return bool(m) and int(m.group(1)) == int(m.group(2)) == k > 0
    return reference.get(" ".join(argv)) == stdout_digest(stdout)
