"""Write reference.json: the stdout digest of every gf/count/tpoly argv the
benchmark's workloads can draw, plus the set-up op.

    python3 perfbench/make_reference.py

Run from the root of a source checkout.  Every output is produced by the
CLI (one process per argv) and the table is written only after the routes
have been checked against each other:

- gf ast = gf det = gf cssp (every d) = gf paths (every d), n = 4, 5;
- gf operator = gf det, n = 3;
- tpoly --n 3/4, both printed forms evaluated at l = 2..8, = count;
- every gf det the workloads draw (n = 8..10) at P = Q = R = 1 = count,
  and at two further points = the determinant of the entry formula,
  eliminated over the rationals here, independently of the package;
- every count the workloads draw (n = 20..60) = that independent
  determinant at P = Q = R = 1.
"""

from __future__ import annotations

import json
import math
import os
import platform
import re
import subprocess
import sys
from fractions import Fraction

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
SETUP_ARGV = ("count", "--n", "1", "--l", "2")


def cli(argv) -> bytes:
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-m", "altsign.cli", *argv],
                          env=env, capture_output=True, check=True)
    return done.stdout


def binom(a: int, k: int) -> int:
    """C(a, k) for any integer a; 0 for k < 0."""
    if k < 0:
        return 0
    return math.prod(a - i for i in range(k)) // math.factorial(k)


def formula_det(n: int, l: int, p, q, r) -> Fraction:
    """det of R sum_k Q^(i-k) (C(k+j+l-3,k) + P C(k+j+l-3,k-1)) + [i=j]
    at numbers P, Q, R, by Gaussian elimination over the rationals."""
    m = [[Fraction(r * sum(q ** (i - k) * (binom(k + j + l - 3, k)
                                          + p * binom(k + j + l - 3, k - 1))
                           for k in range(i + 1)) + (i == j))
          for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            for j in range(c, n):
                m[i][j] -= f * m[c][j]
    return det


_TERM = re.compile(r"([+-]?)(\d+(?:/\d+)?)?\*?([A-Za-z0-9_^*]*)$")


def evaluate(text: str, values: dict) -> Fraction:
    """Value of a printed polynomial such as 'R^2 + 4*R - P*Q + 1' or
    '60 + 72*(l)_1 + 5/2*(l)_3' ((l)_k is the falling factorial)."""
    text = re.sub(r"\(l\)_(\d+)", r"ff_\1", text)
    total = Fraction(0)
    for chunk in re.split(r"\s+(?=[+-]\s)", text.strip()):
        sign, coeff, mono = _TERM.match(chunk.replace(" ", "")).groups()
        term = Fraction(coeff) if coeff else Fraction(1)
        for factor in filter(None, mono.split("*")):
            name, _, exp = factor.partition("^")
            if name.startswith("ff"):
                term *= math.perm(values["l"], int(name[3:]))
            else:
                term *= Fraction(values[name]) ** int(exp or 1)
        total += -term if sign == "-" else term
    return total


def check(condition: bool, what: str):
    if not condition:
        sys.exit(f"cross-check failed: {what}")


def main() -> int:
    wanted = {SETUP_ARGV}
    for name in workloads.WORKLOADS:
        wanted |= {a for a in workloads.drawable(name) if a[0] != "verify"}
    extra = ({workloads.argv_of("gf", "det", "--n", n, "--l", l)
              for n in (3, 4, 5) for l in range(2, 9)}
             | {workloads.argv_of("count", "--n", n, "--l", l)
                for n in (3, 4) for l in range(2, 9)}
             | {("count",) + a[2:] for a in workloads.drawable("algebra")
                if a[:2] == ("gf", "det")})
    out = {}
    for argv in sorted(wanted | extra):
        out[" ".join(argv)] = cli(argv)
        print(" ".join(argv), file=sys.stderr)

    def got(*parts) -> str:
        return out[" ".join(str(p) for p in parts)].decode()

    for n in (4, 5):
        for l in range(2, 5):
            check(got("gf ast --n", n, "--l", l)
                  == got("gf det --n", n, "--l", l),
                  f"ast = det (n={n}, l={l})")
    for l in range(2, 5):
        det = got("gf det --n 5 --l", l)
        for d in range(l):
            check(got("gf cssp --k", l - 1, "--n 5 --d", d) == det,
                  f"cssp = det (l={l}, d={d})")
            check(got("gf paths --n 5 --l", l, "--d", d) == det,
                  f"paths = det (l={l}, d={d})")
    for l in range(2, 9):
        check(got("gf operator --n 3 --l", l) == got("gf det --n 3 --l", l),
              f"operator = det (l={l})")
    for n in (3, 4):
        mono, ff = got("tpoly --n", n).splitlines()
        mono = mono.split("=", 1)[1]
        ff = ff.split("=", 1)[1]
        for l in range(2, 9):
            count = int(got("count --n", n, "--l", l))
            check(evaluate(mono, {"l": l}) == count == evaluate(ff, {"l": l}),
                  f"tpoly = count (n={n}, l={l})")
    for argv in sorted(workloads.drawable("algebra")):
        if argv[:2] != ("gf", "det"):
            continue
        n, l = int(argv[3]), int(argv[5])
        text = got("gf det --n", n, "--l", l)
        check(evaluate(text, dict(P=1, Q=1, R=1))
              == int(got("count --n", n, "--l", l)),
              f"det at 1 = count (n={n}, l={l})")
        for p, q, r in ((2, 3, 5), (-1, 2, 3)):
            check(evaluate(text, dict(P=p, Q=q, R=r))
                  == formula_det(n, l, p, q, r),
                  f"det at ({p},{q},{r}) (n={n}, l={l})")
    for argv in workloads.COUNT:
        n, l = int(argv[2]), int(argv[4])
        check(int(got("count --n", n, "--l", l))
              == formula_det(n, l, 1, 1, 1), f"count (n={n}, l={l})")

    digests = {" ".join(a): workloads.stdout_digest(out[" ".join(a)])
               for a in sorted(wanted)}
    with open(workloads.REFERENCE_PATH, "w") as f:
        json.dump({"python": platform.python_version(), "digests": digests},
                  f, indent=0, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(digests)} digests to {workloads.REFERENCE_PATH}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
