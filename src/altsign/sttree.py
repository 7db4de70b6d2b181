"""Monotone triangles with truncated diagonals ((s,t)-trees) and their
correspondence with alternating sign trapezoids.

Cells of a triangle with n rows are (i, j) with 1 <= j <= i <= n, row 1 at
the top.  The j-th NE-diagonal (counted from the left) is the set of cells
with second coordinate j; the k-th SE-diagonal consists of the cells with
i - j = n - k.  An (s,t)-tree shape removes the bottom s_j cells of
NE-diagonal j (j = 1..len(s)) and the bottom t_k cells of SE-diagonal k
(k = n-len(t)+1..n).  An entry is regular when both its SW neighbour
(i+1, j) and SE neighbour (i+1, j+1) are present; regular entries must lie
weakly between those neighbours and two adjacent regular entries in a row
must differ.
"""

from __future__ import annotations

import random
from operator import sub
from typing import NamedTuple

from .errors import InvalidShapeError, NotInImageError
from .trapezoid import (Trapezoid, column_partial_sums, interlace,
                        one_columns)
from .trapezoid import validate as validate_trapezoid


class SttTree(NamedTuple):
    n: int
    s: tuple[int, ...]
    t: tuple[int, ...]
    rows: tuple[tuple[int | None, ...], ...]  # row i has i slots, None = deleted


def _runs(n: int, s, t) -> list[tuple[int, int]]:
    """The first and last column that row i keeps, for i = 1..n (first =
    last + 1 when the row is empty), or InvalidShapeError.  NE-diagonal j
    loses (n - d, j) for d < s_j and SE-diagonal k loses (n - d, k - d) for
    d < t_k: as s decreases and t increases, row n - d loses a prefix to
    the NE-diagonals with s_j > d and a suffix to the SE-diagonals with
    t_k > d."""
    s, t = tuple(s), tuple(t)
    if n < 0:
        raise InvalidShapeError(f"need n >= 0, got n = {n}")
    if len(s) + len(t) > n:
        raise InvalidShapeError("len(s) + len(t) exceeds n")
    if any(x < 0 for x in s) or any(x < 0 for x in t):
        raise InvalidShapeError("truncation lengths must be non-negative")
    if any(s[i] < s[i + 1] for i in range(len(s) - 1)):
        raise InvalidShapeError("s must be weakly decreasing")
    if any(t[i] > t[i + 1] for i in range(len(t) - 1)):
        raise InvalidShapeError("t must be weakly increasing")
    first, last = [1] * n, list(range(1, n + 1))
    for j, sj in enumerate(s, start=1):
        if sj > n - j + 1:
            raise InvalidShapeError(f"s_{j} = {sj} exceeds NE-diagonal {j}")
        for d in range(sj):
            first[n - d - 1] = j + 1
    offset = n - len(t)
    for idx, tk in enumerate(t):
        k = offset + idx + 1
        if tk > k:
            raise InvalidShapeError(f"t_{k} = {tk} exceeds SE-diagonal {k}")
        for d in range(tk):
            if k - d < first[n - d - 1]:
                raise InvalidShapeError("NE- and SE-truncations interfere "
                                        f"at cell {(n - d, k - d)}")
            last[n - d - 1] = min(last[n - d - 1], k - d - 1)
    return list(zip(first, last))


def _ends(runs, r):
    """The bottom cell of each diagonal that b prescribes (NE-diagonals
    1..n-r, then SE-diagonals n-r+1..n): the lowest of its cells that the
    runs keep, or None for an empty one."""
    n, ends = len(runs), []
    for k in range(1, n + 1):
        ends.append(None)
        for i, (first, last) in zip(range(n, 0, -1), reversed(runs)):
            # a cell outside the triangle lies in no run
            j = k if k <= n - r else i - n + k
            if first <= j <= last:
                ends[-1] = (i, j)
                break
    return ends


def check_instance(n: int, s, t, b) -> list[tuple[int, int]]:
    """The runs of the shape of order n (_runs) with bottom entries b, or
    InvalidShapeError: for n < 0 first, then for a b that is not n weakly
    increasing entries, then for the shape."""
    b = tuple(b)
    if n >= 0:  # else _runs refuses n
        if len(b) != n:
            raise InvalidShapeError(f"need {n} bottom entries, got {len(b)}")
        if any(x > y for x, y in zip(b, b[1:])):
            raise InvalidShapeError("b must be weakly increasing")
    return _runs(n, s, t)


def enumerate_sttrees(n: int, s, t, b) -> list[SttTree]:
    """All (s,t)-trees of order n whose NE-diagonal bottoms are b_1..b_{n-r}
    and SE-diagonal bottoms are b_{n-r+1}..b_n (r = len(t)).

    Filled row by row from the bottom up.  The regular cells of row i are
    row i + 1's run less its last cell; every other cell of the shape is
    the bottom of some prescribed diagonal (a prescribed cell ends its
    diagonal and so is never regular).  So the free cells of a row are one
    run, sandwiched between their SW and SE neighbours with no two
    neighbours equal: they interlace the run below (trapezoid.interlace).
    """
    s, t, b = tuple(s), tuple(t), tuple(b)
    runs = check_instance(n, s, t, b)
    prescribed = {}
    for cell, value in zip(_ends(runs, len(t)), b):
        if cell is not None and prescribed.setdefault(cell, value) != value:
            return []
    below = runs[1:] + [(1, 0)]  # row i + 1's run; none below row n
    rows = [[prescribed.get((i, j)) for j in range(1, i + 1)]
            for i in range(1, n + 1)]
    out = []

    def fill_row(i):
        if i == 0:
            out.append(SttTree(n, s, t, tuple(map(tuple, rows))))
            return
        low, high = below[i - 1]
        a = [rows[i][j - 1] for j in range(low, high + 1)]
        for values in interlace(zip(a, a[1:])):
            rows[i - 1][low - 1:low - 1 + len(values)] = values
            fill_row(i - 1)

    fill_row(n)
    return out


def random_tree_instances(count, seed):
    """Seeded stream of (s,t)-tree instances of order <= 4, truncations
    <= 2 and bottom entries in -3..3 that lie in formula_domain."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, 4)
        lc = rng.randint(0, n)
        rc = rng.randint(0, n - lc)
        s = tuple(sorted((rng.randint(0, 2) for _ in range(lc)),
                         reverse=True))
        t = tuple(sorted(rng.randint(0, 2) for _ in range(rc)))
        b = tuple(sorted(rng.randint(-3, 3) for _ in range(n)))
        if formula_domain(n, s, t, b):
            out.append((n, s, t, b))
    return out


def formula_domain(n: int, s, t, b) -> bool:
    """Whether the closed formula for the number of (s,t)-trees
    (operatorform.count_sttrees_formula) applies: an admissible shape of
    order n >= 1, n weakly increasing bottom entries, and n nonempty
    prescribed diagonals whose bottom cells are distinct."""
    try:
        runs = check_instance(n, s, t, b)
    except InvalidShapeError:
        return False
    bottoms = _ends(runs, len(t))
    return n > 0 and None not in bottoms and len(set(bottoms)) == n


def ast_to_sttree(trap: Trapezoid) -> SttTree:
    """Column partial sums recorded row by row as the positions of the 1's,
    columns relabeled -n .. n+l-3; yields an (s,t)-tree with
    s_i = -j_i - 1 and t_i = j_i - 1 for the 1-column positions j."""
    if trap.l < 2:
        raise ValueError("the correspondence is defined for l >= 2")
    n = trap.n
    j = [label for label, _ in one_columns(trap)]  # increasing, as the columns
    m = sum(1 for x in j if x < 0)
    s = tuple(-x - 1 for x in j[:m])
    t = tuple(x - 1 for x in j[m:])
    runs = _runs(n, s, t)
    rows = []
    for i, sums in enumerate(column_partial_sums(trap), start=1):
        labels = tuple(c - n - 1
                       for c, e in enumerate(sums, start=i) if e == 1)
        first, last = runs[i - 1]
        if len(labels) != last - first + 1:
            raise ValueError(f"row {i}: {len(labels)} ones but "
                             f"{last - first + 1} tree cells")
        rows.append((None,) * (first - 1) + labels + (None,) * (i - last))
    return SttTree(n, s, t, tuple(rows))


def sttree_to_ast(tree: SttTree, n: int, l: int) -> Trapezoid:
    """Inverse of ast_to_sttree; NotInImageError when no (n,l)-trapezoid
    maps to the given tree."""
    trap = preimage(tree, n, l)
    if ast_to_sttree(trap) != tree:
        raise NotInImageError("tree is not the image of its own preimage")
    return trap


def preimage(tree: SttTree, n: int, l: int) -> Trapezoid:
    """The (n,l)-trapezoid whose partial sums the tree records, or
    NotInImageError; sttree_to_ast less the check that the trapezoid maps
    back to the tree, which a caller holding the tree's own trapezoid
    makes by comparing the two."""
    if l < 2:
        raise NotInImageError("the correspondence is defined for l >= 2")
    if tree.n != n:
        raise NotInImageError(f"tree order {tree.n} does not match n={n}")
    if len(tree.rows) != n:
        raise NotInImageError(f"tree has {len(tree.rows)} rows, not n={n}")
    m = len(tree.s)
    if m + len(tree.t) != n:
        raise NotInImageError("tree truncations do not split into n diagonals")
    above = (0,) * (2 * n + l)  # the partial sums of row i - 1, padded
    rows = []
    for i in range(1, n + 1):
        lo, hi = i, 2 * n + l - 1 - i
        sums = [0] * (hi - lo + 1)
        for v in tree.rows[i - 1]:
            if v is None:
                continue
            c = v + n + 1
            if not lo <= c <= hi:
                raise NotInImageError(
                    f"row {i}: entry {v} falls outside the trapezoid")
            if sums[c - lo]:
                raise NotInImageError(f"row {i}: duplicate column for {v}")
            sums[c - lo] = 1
        rows.append(tuple(map(sub, sums, above[1:-1])))
        above = sums
    trap = Trapezoid(n, l, tuple(rows))
    problem = validate_trapezoid(trap)
    if problem:
        raise NotInImageError(problem)
    return trap


def to_json(tree: SttTree) -> dict:
    return {"n": tree.n, "s": list(tree.s), "t": list(tree.t),
            "rows": [list(r) for r in tree.rows]}


def pretty(tree: SttTree) -> str:
    """The rows, one line each; a deleted cell is a dot."""
    return "\n".join(" ".join("." if v is None else str(v) for v in row)
                     for row in tree.rows) or "(empty)"  # as cssp.pretty
