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

import itertools
import random
from operator import sub
from typing import NamedTuple

from .errors import InvalidShapeError, NotInImageError
from .trapezoid import Trapezoid, column_partial_sums, one_column_positions
from .trapezoid import validate as validate_trapezoid


class SttTree(NamedTuple):
    n: int
    s: tuple[int, ...]
    t: tuple[int, ...]
    rows: tuple[tuple[int | None, ...], ...]  # row i has i slots, None = deleted

    def value(self, i: int, j: int):
        return self.rows[i - 1][j - 1]


def deleted_cells(n: int, s, t) -> set:
    """Cells removed by the truncation vectors; InvalidShapeError when the
    vectors are inadmissible or the two deletion regions interfere."""
    s, t = tuple(s), tuple(t)
    if n < 0:
        raise InvalidShapeError(f"order n must be non-negative, got {n}")
    if len(s) + len(t) > n:
        raise InvalidShapeError("len(s) + len(t) exceeds n")
    if any(x < 0 for x in s) or any(x < 0 for x in t):
        raise InvalidShapeError("truncation lengths must be non-negative")
    if any(s[i] < s[i + 1] for i in range(len(s) - 1)):
        raise InvalidShapeError("s must be weakly decreasing")
    if any(t[i] > t[i + 1] for i in range(len(t) - 1)):
        raise InvalidShapeError("t must be weakly increasing")
    gone = set()
    for j, sj in enumerate(s, start=1):
        if sj > n - j + 1:
            raise InvalidShapeError(f"s_{j} = {sj} exceeds NE-diagonal {j}")
        for d in range(sj):
            gone.add((n - d, j))
    offset = n - len(t)
    for idx, tk in enumerate(t):
        k = offset + idx + 1
        if tk > k:
            raise InvalidShapeError(f"t_{k} = {tk} exceeds SE-diagonal {k}")
        for d in range(tk):
            cell = (n - d, k - d)
            if cell in gone:
                raise InvalidShapeError(
                    f"NE- and SE-truncations interfere at cell {cell}")
            gone.add(cell)
    return gone


def _shape_cells(n, s, t):
    gone = deleted_cells(n, s, t)
    return {(i, j) for i in range(1, n + 1) for j in range(1, i + 1)
            if (i, j) not in gone}


def _regular(cells, i, j):
    """Both the SW neighbour (i+1, j) and the SE neighbour (i+1, j+1) are
    cells of the shape."""
    return (i + 1, j) in cells and (i + 1, j + 1) in cells


def _bottom_cells(n, r, cells):
    """The bottom cell of each diagonal that b prescribes (NE-diagonals
    1..n-r, then SE-diagonals n-r+1..n), or None for an empty one."""
    bottoms = []
    for j in range(1, n - r + 1):
        column = [i for i in range(j, n + 1) if (i, j) in cells]
        bottoms.append((column[-1], j) if column else None)
    for k in range(n - r + 1, n + 1):
        diag = [i for i in range(n - k + 1, n + 1) if (i, i - n + k) in cells]
        bottoms.append((diag[-1], diag[-1] - n + k) if diag else None)
    return bottoms


def _prescribed(n, s, t, b, cells):
    """Map cell -> required value for the diagonal bottom entries; None when
    two prescriptions collide with different values (no tree then).  Empty
    (fully deleted) diagonals impose nothing."""
    assignment = {}
    for cell, value in zip(_bottom_cells(n, len(t), cells), b):
        if cell is not None and assignment.setdefault(cell, value) != value:
            return None
    return assignment


def enumerate_sttrees(n: int, s, t, b) -> list[SttTree]:
    """All (s,t)-trees of order n whose NE-diagonal bottoms are b_1..b_{n-r}
    and SE-diagonal bottoms are b_{n-r+1}..b_n (r = len(t)).

    Filled row by row from the bottom up.  Every free cell is regular (a
    cell missing a neighbour is the bottom of some prescribed diagonal), so
    the free cells of a row take each tuple of values sandwiched between
    their SW and SE neighbours in the row below.  A prescribed cell ends
    its diagonal and so is never regular, and the cells of a row form one
    run (truncations cut a prefix and a suffix), hence so do its regular
    cells: adjacent regular entries are neighbours in the tuple, and a
    tuple with two equal neighbours is skipped.
    """
    s, t = tuple(s), tuple(t)
    b = tuple(b)
    if n < 0:
        raise InvalidShapeError(f"order n must be non-negative, got {n}")
    if len(b) != n:
        raise InvalidShapeError(f"need {n} bottom entries, got {len(b)}")
    if any(b[i] > b[i + 1] for i in range(n - 1)):
        raise InvalidShapeError("b must be weakly increasing")
    cells = _shape_cells(n, s, t)
    prescribed = _prescribed(n, s, t, b, cells)
    if prescribed is None:
        return []
    values = dict(prescribed)
    out = []

    def fill_row(i):
        if i == 0:
            out.append(SttTree(n, s, t, _to_rows(n, cells, values)))
            return
        free = [j for j in range(1, i + 1)
                if (i, j) in cells and (i, j) not in prescribed]
        # sanity: free cells must be regular, otherwise the search space
        # would be unbounded (cannot happen for admissible shapes)
        for j in free:
            if not _regular(cells, i, j):
                raise InvalidShapeError(
                    f"free cell ({i},{j}) lacks a neighbour")
        ranges = [range(values[i + 1, j], values[i + 1, j + 1] + 1)
                  for j in free]
        for row in itertools.product(*ranges):
            if any(a == c for a, c in zip(row, row[1:])):
                continue
            values.update(((i, j), v) for j, v in zip(free, row))
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
    t, b = tuple(t), tuple(b)
    try:
        cells = _shape_cells(n, s, t)
    except InvalidShapeError:
        return False
    if len(b) != n or any(b[i] > b[i + 1] for i in range(n - 1)):
        return False
    bottoms = _bottom_cells(n, len(t), cells)
    return n > 0 and None not in bottoms and len(set(bottoms)) == n


def _to_rows(n, cells, values):
    return tuple(
        tuple(values.get((i, j)) if (i, j) in cells else None
              for j in range(1, i + 1))
        for i in range(1, n + 1))


def validate(tree: SttTree):
    """None when the filling satisfies the shape and monotonicity rules."""
    try:
        cells = _shape_cells(tree.n, tree.s, tree.t)
    except InvalidShapeError as e:
        return str(e)
    if len(tree.rows) != tree.n:
        return f"expected {tree.n} rows, got {len(tree.rows)}"
    for i in range(1, tree.n + 1):
        if len(tree.rows[i - 1]) != i:
            return f"row {i}: expected {i} slots"
        for j in range(1, i + 1):
            v = tree.value(i, j)
            if ((i, j) in cells) != (v is not None):
                return f"cell ({i},{j}) presence does not match the shape"

    for (i, j) in cells:
        if _regular(cells, i, j):
            v = tree.value(i, j)
            if not tree.value(i + 1, j) <= v <= tree.value(i + 1, j + 1):
                return f"cell ({i},{j}) violates the sandwich inequality"
            if (i, j + 1) in cells and _regular(cells, i, j + 1) \
                    and tree.value(i, j + 1) == v:
                return f"cells ({i},{j}) and ({i},{j + 1}) are equal"
    return None


def is_monotone_triangle(rows) -> bool:
    """Full-triangle check: weak increase to the SE and NE, rows strictly
    increasing except possibly the bottom row."""
    n = len(rows)
    for i in range(n):
        if len(rows[i]) != i + 1:
            return False
    for i in range(n - 1):
        for j in range(i + 1):
            if not rows[i + 1][j] <= rows[i][j] <= rows[i + 1][j + 1]:
                return False
        for j in range(i):
            if rows[i][j] >= rows[i][j + 1]:
                return False
    return True


def diagonal_bottoms(tree: SttTree) -> tuple[int, ...]:
    """The vector b recovered from a tree (bottom entries of the n-r
    NE-diagonals followed by those of the r last SE-diagonals)."""
    cells = _shape_cells(tree.n, tree.s, tree.t)
    return tuple(None if cell is None else tree.value(*cell)
                 for cell in _bottom_cells(tree.n, len(tree.t), cells))


def ast_to_sttree(trap: Trapezoid) -> SttTree:
    """Column partial sums recorded row by row as the positions of the 1's,
    columns relabeled -n .. n+l-3; yields an (s,t)-tree with
    s_i = -j_i - 1 and t_i = j_i - 1 for the 1-column positions j."""
    if trap.l < 2:
        raise ValueError("the correspondence is defined for l >= 2")
    n = trap.n
    j = one_column_positions(trap)
    m = sum(1 for x in j if x < 0)
    s = tuple(-x - 1 for x in j[:m])
    t = tuple(x - 1 for x in j[m:])
    gone = deleted_cells(n, s, t)
    rows = []
    for i, sums in enumerate(column_partial_sums(trap), start=1):
        labels = [c - n - 1 for c, e in enumerate(sums, start=i) if e == 1]
        slots = [j for j in range(i) if (i, j + 1) not in gone]
        if len(slots) != len(labels):
            raise ValueError(
                f"row {i}: {len(labels)} ones but {len(slots)} tree cells")
        row = [None] * i
        for j, label in zip(slots, labels):
            row[j] = label
        rows.append(tuple(row))
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
                     for row in tree.rows)


def from_json(d: dict) -> SttTree:
    tree = SttTree(int(d["n"]), tuple(int(x) for x in d["s"]),
                   tuple(int(x) for x in d["t"]),
                   tuple(tuple(None if x is None else int(x) for x in row)
                         for row in d["rows"]))
    problem = validate(tree)
    if problem:
        raise ValueError(problem)
    return tree
