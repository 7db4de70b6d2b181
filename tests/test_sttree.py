import hashlib
import json
import random
import re
from itertools import combinations_with_replacement as multisets

import pytest

from altsign import sttree
from altsign.errors import InvalidShapeError, NotInImageError
from altsign.sttree import (SttTree, ast_to_sttree, enumerate_sttrees,
                            formula_domain, sttree_to_ast, to_json)
from altsign.trapezoid import Trapezoid, enumerate_trapezoids
from altsign.trapezoid import validate as validate_trapezoid

from test_trapezoid import (T54, _per_entry_partial_sums,
                            one_column_positions, row_span)

# the tree displayed for the (5,4) example
TREE54 = SttTree(
    5, (1, 0), (0, 1, 2),
    ((2,),
     (0, 3),
     (-2, 2, 4),
     (-2, 1, 3, None),
     (None, -1, 2, None, None)))


# Readers of a shape's runs and of a tree's cells and diagonals.

def value(tree: SttTree, i: int, j: int):
    return tree.rows[i - 1][j - 1]


def validate(tree: SttTree):
    """None when the filling satisfies the shape and monotonicity rules,
    else the first violation: rows from the top, cells from the left."""
    try:
        runs = sttree._runs(tree.n, tree.s, tree.t)
    except InvalidShapeError as e:
        return str(e)
    if len(tree.rows) != tree.n:
        return f"expected {tree.n} rows, got {len(tree.rows)}"
    for i, (first, last) in enumerate(runs, start=1):
        if len(tree.rows[i - 1]) != i:
            return f"row {i}: expected {i} slots"
        for j in range(1, i + 1):
            if (first <= j <= last) != (value(tree, i, j) is not None):
                return f"cell ({i},{j}) presence does not match the shape"
    # the regular cells of row i: row i + 1's run less its last cell
    for i, (first, last) in enumerate(runs[1:], start=1):
        for j in range(first, last):
            v = value(tree, i, j)
            if not value(tree, i + 1, j) <= v <= value(tree, i + 1, j + 1):
                return f"cell ({i},{j}) violates the sandwich inequality"
            if j + 1 < last and value(tree, i, j + 1) == v:
                return f"cells ({i},{j}) and ({i},{j + 1}) are equal"
    return None


def deleted_cells(n: int, s, t) -> set:
    """Cells removed by the truncation vectors; InvalidShapeError when the
    vectors are inadmissible or the two deletion regions interfere."""
    return {(i, j) for i, (first, last)
            in enumerate(sttree._runs(n, s, t), start=1)
            for j in range(1, i + 1) if not first <= j <= last}


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
    runs = sttree._runs(tree.n, tree.s, tree.t)
    return tuple(None if cell is None else value(tree, *cell)
                 for cell in sttree._ends(runs, len(tree.t)))


# Cell-set shape readers: a set of deleted cells, probed cell by cell and
# independent of sttree._runs; the reference of the oracles below.

def _deleted_cell_set(n: int, s, t) -> set:
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
    gone = _deleted_cell_set(n, s, t)
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


def _to_rows(n, cells, values):
    return tuple(
        tuple(values.get((i, j)) if (i, j) in cells else None
              for j in range(1, i + 1))
        for i in range(1, n + 1))


def _shapes(n_max, spill=0):
    """Every (n, s, t) with 1 <= n <= n_max, entries of s and of t in
    0..n + spill, s weakly decreasing and t weakly increasing: admissible
    or not."""
    for n in range(1, n_max + 1):
        for m in range(n + 1):
            for s in multisets(range(n + spill, -1, -1), m):
                for r in range(n - m + 1):
                    for t in multisets(range(n + spill + 1), r):
                        yield n, s, t


class TestShape:
    def test_paper_shape(self):
        gone = deleted_cells(5, (1, 0), (0, 1, 2))
        assert gone == {(5, 1), (5, 4), (5, 5), (4, 4)}

    def test_monotonicity_enforced(self):
        with pytest.raises(InvalidShapeError):
            deleted_cells(4, (0, 1), ())
        with pytest.raises(InvalidShapeError):
            deleted_cells(4, (), (1, 0))

    def test_interference(self):
        # s_1 = 4 deletes (1,1): SE-diagonal 4's t_4 = 4 would too
        with pytest.raises(InvalidShapeError):
            deleted_cells(4, (4,), (0, 0, 4))

    def test_negative_order_refused_by_name(self):
        with pytest.raises(InvalidShapeError, match="order n"):
            deleted_cells(-1, (), ())
        with pytest.raises(InvalidShapeError, match="order n"):
            enumerate_sttrees(-1, (), (), ())

    def test_too_long(self):
        with pytest.raises(InvalidShapeError):
            deleted_cells(3, (1, 1), (0, 0))

    def test_rows_are_runs(self):
        # s cuts a prefix and t a suffix of each row, so the cells of a row
        # (and its free cells, in enumerate_sttrees) are one run
        shapes = 0
        for n, s, t in _shapes(5):
            try:
                cells = _shape_cells(n, s, t)
            except InvalidShapeError:
                continue
            shapes += 1
            for i in range(1, n + 1):
                row = [j for j in range(1, i + 1) if (i, j) in cells]
                assert not row or row == list(
                    range(row[0], row[-1] + 1)), (n, s, t, i)
        assert shapes > 1000

    def test_every_cell_is_prescribed_or_regular(self):
        # enumerate_sttrees fills only the cells of the run below less its
        # last cell, so every other cell of an admissible shape must end a
        # prescribed diagonal; swept exhaustively through n = 5 with
        # truncations up to n + 1
        shapes = 0
        for n, s, t in _shapes(5, spill=1):
            try:
                runs = sttree._runs(n, s, t)
            except InvalidShapeError:
                continue
            shapes += 1
            ends = set(sttree._ends(runs, len(t)))
            below = runs[1:] + [(1, 0)]  # no run below row n
            for i, ((first, last), (low, high)) in enumerate(
                    zip(runs, below), 1):
                for j in range(first, last + 1):
                    assert low <= j < high or (i, j) in ends, (n, s, t, i, j)
        assert shapes == 4736

    def test_deleted_cells_match_the_cell_set(self):
        # the runs' deleted cells, or the same refusal, on every shape of
        # the sweep through n = 6
        refusals = set()
        for n, s, t in _shapes(6):
            expected = _outcome(_deleted_cell_set, n, s, t)
            assert _outcome(deleted_cells, n, s, t) == expected, (n, s, t)
            if type(expected) is tuple:
                refusals.add(re.sub(r"\d+", "#", expected[1]))
        assert refusals == {
            "NE- and SE-truncations interfere at cell (#, #)",
            "s_# = # exceeds NE-diagonal #",
            "t_# = # exceeds SE-diagonal #",
        }


class TestEnumerate:
    def test_monotone_triangles_123(self):
        trees = enumerate_sttrees(3, (), (), (1, 2, 3))
        assert len(trees) == 7
        for tree in trees:
            assert validate(tree) is None
            assert is_monotone_triangle(tree.rows)
            assert tree.rows[2] == (1, 2, 3)

    def test_single_cell(self):
        trees = enumerate_sttrees(1, (0,), (), (5,))
        assert len(trees) == 1
        assert trees[0].rows == ((5,),)

    def test_paper_instance_contains_displayed_tree(self):
        trees = enumerate_sttrees(5, (1, 0), (0, 1, 2), (-2, -1, 2, 3, 4))
        assert validate(TREE54) is None
        assert TREE54 in trees

    def test_translation_invariance(self):
        base = len(enumerate_sttrees(3, (1,), (0, 1), (-1, 0, 2)))
        plain = len(enumerate_sttrees(3, (), (), (-1, 0, 2)))
        for c in (-2, 3):
            b = (-1 + c, 0 + c, 2 + c)
            assert len(enumerate_sttrees(3, (1,), (0, 1), b)) == base
            assert len(enumerate_sttrees(3, (), (), b)) == plain

    def test_bad_bottom_order(self):
        with pytest.raises(InvalidShapeError):
            enumerate_sttrees(2, (), (), (2, 1))

    def test_bottoms_recoverable(self):
        for tree in enumerate_sttrees(3, (1,), (0, 1), (-1, 0, 2)):
            assert diagonal_bottoms(tree) == (-1, 0, 2)
        assert diagonal_bottoms(TREE54) == (-2, -1, 2, 3, 4)

    def test_shared_bottom_cell(self):
        # s_1 = t_2 = 1 at n = 2: NE-diagonal 1 and SE-diagonal 2 both end
        # at (1, 1), so their bottom entries must agree
        assert enumerate_sttrees(2, (1,), (1,), (0, 1)) == []
        trees = enumerate_sttrees(2, (1,), (1,), (0, 0))
        assert [tree.rows for tree in trees] == [((0,), (None, None))]
        assert diagonal_bottoms(trees[0]) == (0, 0)


class TestAstCorrespondence:
    def test_paper_example_forward(self):
        assert ast_to_sttree(T54) == TREE54

    def test_paper_example_backward(self):
        assert sttree_to_ast(TREE54, 5, 4) == T54

    def test_first_24_trapezoid(self):
        t = Trapezoid(2, 4, ((1, 0, 0, 0, 0, 0), (1, 0, 0, 0)))
        tree = ast_to_sttree(t)
        assert tree.s == (1, 0) and tree.t == ()
        assert diagonal_bottoms(tree) == (-2, -1)

    def test_single_row(self):
        for t in enumerate_trapezoids(1, 4):
            tree = ast_to_sttree(t)
            assert sum(1 for row in tree.rows for v in row if v is not None) == 1

    def test_single_entry_inverse(self):
        # value -1 is column label -1, i.e. absolute column 1 when n = 1
        tree = SttTree(1, (0,), (), ((-1,),))
        t = sttree_to_ast(tree, 1, 4)
        assert t.rows == ((1, 0, 0, 0),)

    def test_empty_trapezoid_round_trips(self):
        for l in range(2, 5):
            [t] = enumerate_trapezoids(0, l)
            tree = ast_to_sttree(t)
            assert tree == SttTree(0, (), (), ())
            assert validate(tree) is None
            assert sttree.preimage(tree, 0, l) == t
            assert sttree_to_ast(tree, 0, l) == t

    def test_roundtrip_all(self):
        for n in range(1, 5):
            for l in range(2, 6):
                for t in enumerate_trapezoids(n, l):
                    tree = ast_to_sttree(t)
                    assert validate(tree) is None
                    assert sttree_to_ast(tree, n, l) == t

    def test_not_in_image(self):
        # entry outside the trapezoid's column range
        tree = SttTree(1, (0,), (), ((5,),))
        with pytest.raises(NotInImageError):
            sttree_to_ast(tree, 1, 4)

    def test_short_tree_is_not_in_image(self):
        # one row for n = 2: refused before a missing row is read
        tree = SttTree(2, (0,), (0,), ((-1,),))
        with pytest.raises(NotInImageError, match="1 rows, not n=2"):
            sttree_to_ast(tree, 2, 3)
        with pytest.raises(NotInImageError,
                           match="^tree order 2 does not match n=3$"):
            sttree.preimage(tree, 3, 3)
        # two rows, but s and t name one diagonal of the two
        with pytest.raises(NotInImageError, match="^tree truncations do not "
                           "split into n diagonals$"):
            sttree.preimage(SttTree(2, (0,), (), ((0,), (-1, 1))), 2, 3)

    def test_not_in_image_column_sums(self):
        # bottoms (-1, 1): the middle trapezoid column would need sum 1
        tree = SttTree(2, (0,), (0,), ((0,), (-1, 1)))
        with pytest.raises(NotInImageError):
            sttree_to_ast(tree, 2, 4)

    def test_l_below_2_is_not_in_image(self):
        # taken at l = 1, the tree of the (1, 2)-trapezoid ((1, 0),) has a
        # preimage that passes the trapezoid validation; it is refused
        # up front
        tree = ast_to_sttree(Trapezoid(1, 2, ((1, 0),)))
        assert sttree_to_ast(tree, 1, 2).rows == ((1, 0),)
        for l in (1, 0, -1):
            with pytest.raises(NotInImageError, match="l >= 2"):
                sttree_to_ast(tree, 1, l)
        with pytest.raises(ValueError, match="^the correspondence is "
                           "defined for l >= 2$"):
            ast_to_sttree(Trapezoid(1, 1, ((1,),)))


class TestJson:
    """The validation a tree read back from enumerate --format json must
    pass."""

    def test_rejects_invalid(self):
        rows = to_json(TREE54)["rows"]
        rows[1] = [3, 0]
        bad = TREE54._replace(rows=tuple(map(tuple, rows)))
        assert validate(bad) is not None

    def test_rejects_equal_neighbours(self):
        # sandwiched between 1..2 and 2..3, but row 2 is not strictly
        # increasing
        tree = SttTree(3, (), (), ((2,), (2, 2), (1, 2, 3)))
        assert validate(tree) == "cells (2,1) and (2,2) are equal"
        assert not is_monotone_triangle(tree.rows)

    def test_first_violation_row_by_row(self):
        # two violations: the sandwich at (1,1) and equal neighbours in
        # row 2; the rows are scanned from the top, so row 1's is named
        tree = SttTree(3, (), (), ((5,), (2, 2), (1, 2, 3)))
        problem = "cell (1,1) violates the sandwich inequality"
        assert validate(tree) == problem


def _searched_sttrees(n, s, t, b):
    """Copy of the cell-by-cell search that the row walk replaced."""
    s, t = tuple(s), tuple(t)
    b = tuple(b)
    if len(b) != n:
        raise InvalidShapeError(f"need {n} bottom entries, got {len(b)}")
    if any(b[i] > b[i + 1] for i in range(n - 1)):
        raise InvalidShapeError("b must be weakly increasing")
    cells = _shape_cells(n, s, t)
    if not cells:
        return [SttTree(n, s, t, _to_rows(n, cells, {}))]
    prescribed = _prescribed(n, s, t, b, cells)
    if prescribed is None:
        return []
    values = dict(prescribed)
    out = []
    free_by_row = {i: [j for j in range(1, i + 1)
                       if (i, j) in cells and (i, j) not in prescribed]
                   for i in range(1, n + 1)}

    def fill_row(i):
        if i == 0:
            out.append(SttTree(n, s, t, _to_rows(n, cells, values)))
            return
        todo = free_by_row[i]

        def fill_cell(idx):
            if idx == len(todo):
                fill_row(i - 1)
                return
            j = todo[idx]
            lo, hi = values[(i + 1, j)], values[(i + 1, j + 1)]
            for v in range(lo, hi + 1):
                if (j - 1 in todo or (i, j - 1) in prescribed) and \
                        _regular(cells, i, j - 1) and \
                        _regular(cells, i, j) and \
                        values.get((i, j - 1)) == v:
                    continue
                values[(i, j)] = v
                fill_cell(idx + 1)
                del values[(i, j)]

        for j in todo:
            if not _regular(cells, i, j):
                raise InvalidShapeError(
                    f"free cell ({i},{j}) lacks a neighbour")
        fill_cell(0)

    fill_row(n)
    return out


def _outcome(search, *args):
    try:
        return search(*args)
    except InvalidShapeError as e:
        return type(e), str(e)


def _instances(count, seed):
    """Seeded (n, s, t, b) of order <= 4, inadmissible shapes and bottoms
    included."""
    rng = random.Random(seed)
    lengths = (-1,) + (0, 1, 2, 3) * 4
    for _ in range(count):
        n = rng.randint(0, 4)
        lc = rng.randint(0, n)
        s = [rng.choice(lengths) for _ in range(lc)]
        rc = rng.randint(0, n - lc) + (rng.random() < 0.1)
        t = [rng.choice(lengths) for _ in range(rc)]
        if rng.random() < 0.9:
            s.sort(reverse=True)
            t.sort()
        b = [rng.randint(-3, 3) for _ in range(n + (rng.random() < 0.05))]
        if rng.random() < 0.95:
            b.sort()
        yield n, s, t, b


class TestOracles:
    def test_row_walk_matches_cell_search(self):
        # random instances, inadmissible shapes and bottoms included
        outcomes = set()
        for n, s, t, b in _instances(1200, 11):
            expected = _outcome(_searched_sttrees, n, s, t, b)
            assert _outcome(enumerate_sttrees, n, s, t, b) == expected, \
                (n, s, t, b)
            outcomes.add(min(len(expected), 2) if type(expected) is list
                         else "raised")
        assert outcomes == {0, 1, 2, "raised"}


# sha256 of the JSON records below, taken before the shape readers moved
# from cell sets to runs.  STREAM_DIGEST: for each of 800 seeded
# instances, enumerate_sttrees (the trees, or the refusal), formula_domain
# and deleted_cells (sorted, or the refusal).  BIJECTION_DIGESTS: the tree
# and diagonal bottoms of every (n,l)-trapezoid for n <= 4, l = 2..5 and
# for (5, 2); (5, 3), (5, 4) and (5, 5), the costliest cells, are left out.
STREAM_DIGEST = \
    "cdf0a656b0de5bbde995ef242d0899145e824ccc8abaa480caa610d4b9f76675"
BIJECTION_DIGESTS = {
    (1, 2): "063612280728fdc82a1829c820d8e6f1e9e66824232d55c3bd00a1d90542f830",
    (1, 3): "187d40d75b45242406b5480ec4775152742cbf2ac43f68daa58f41315ac4d454",
    (1, 4): "95667bd37402caf74ca55ad122bd126bc916fcfe3f86b114c3017ca41ab6163f",
    (1, 5): "535382c8c1b2f90f1f0f7ec4310c46852c429c7deb6314fd85287dffb3505758",
    (2, 2): "c2ac4f6c6433d7493206c6540b69d5b681bc01776b3e2439939e54db957d61b7",
    (2, 3): "7f4f624ed4be6dafff7e11541cddb9354f70c66f9ad0ff237e6f1b56067c9531",
    (2, 4): "3fdbd18040f90d2a94c29fc6d3229ed73605702fcce665a61ca7efcf5ae03ef1",
    (2, 5): "3d5fd869123b6406d2f5644e4667e53ef39d9e66e67399331dc6dd4e282e2c5c",
    (3, 2): "75751874bc19d64fb0cb4eecc4dc25624b88613509d8ec2b90b3e6696c718c5d",
    (3, 3): "924089496a1f003f0a68a265937714c62813bf7a9c90543749f94057c25029cf",
    (3, 4): "9ab49d398446606f86defc6931ca48ad1b4c8518be386f5c9ff6dcb331e8159b",
    (3, 5): "bd3f9ed0d957e7131501d8a13c1e97de9f1d20aea13c4cf5b8add7aaa4422576",
    (4, 2): "0f4d88780d9081ac614e41eb896cf746405394b48e2a465d4a69fdfb6b625377",
    (4, 3): "ed0edfc3a1fd06cb29cb52b962a90e61d972e36902153c636d476bc7d53cc3df",
    (4, 4): "6a90bf39594d34d41ace27c293ea89c9504632661e94cec63c416e8c089a791c",
    (4, 5): "001e8d33b9607ea7ba50469685c806659fc15c0c1eca5ba1614df0b5b1802bdd",
    (5, 2): "c63eff4189e7176921c215b9ebf34636be15fc846a4fbc6cf6b1e656a48b7ebd",
}


def _recorded(call, *args):
    try:
        return call(*args)
    except InvalidShapeError as e:
        return [type(e).__name__, str(e)]


class TestPinnedDigests:
    def test_stream_bytes(self):
        records = []
        for n, s, t, b in _instances(800, 28):
            trees = _recorded(enumerate_sttrees, n, s, t, b)
            if trees and type(trees[0]) is SttTree:
                trees = [to_json(tree) for tree in trees]
            gone = _recorded(deleted_cells, n, s, t)
            if type(gone) is set:
                gone = sorted(gone)
            records.append(
                [n, s, t, b, trees, formula_domain(n, s, t, b), gone])
        text = json.dumps(records).encode()
        assert hashlib.sha256(text).hexdigest() == STREAM_DIGEST

    def test_bijection_bytes(self):
        for (n, l), digest in BIJECTION_DIGESTS.items():
            trees = map(ast_to_sttree, enumerate_trapezoids(n, l))
            text = json.dumps([[to_json(tree), diagonal_bottoms(tree)]
                               for tree in trees]).encode()
            assert hashlib.sha256(text).hexdigest() == digest, (n, l)


# Cell-set readers: independent oracles for the row-by-row ast_to_sttree
# and sttree_to_ast.

def _cell_set_ast_to_sttree(trap):
    if trap.l < 2:
        raise ValueError("the correspondence is defined for l >= 2")
    n = trap.n
    j = one_column_positions(trap)
    m = sum(1 for x in j if x < 0)
    s = tuple(-x - 1 for x in j[:m])
    t = tuple(x - 1 for x in j[m:])
    psums = _per_entry_partial_sums(trap)
    cells = _shape_cells(n, s, t)
    values = {}
    for i in range(1, n + 1):
        lo, _ = row_span(trap, i)
        labels = [lo + offset - n - 1
                  for offset, e in enumerate(psums[i - 1]) if e == 1]
        slots = sorted(jj for (ii, jj) in cells if ii == i)
        if len(slots) != len(labels):
            raise ValueError(
                f"row {i}: {len(labels)} ones but {len(slots)} tree cells")
        for jj, lab in zip(slots, labels):
            values[(i, jj)] = lab
    return SttTree(n, s, t, _to_rows(n, cells, values))


def _cell_set_sttree_to_ast(tree, n, l):
    if l < 2:
        raise NotInImageError("the correspondence is defined for l >= 2")
    if tree.n != n:
        raise NotInImageError(f"tree order {tree.n} does not match n={n}")
    if len(tree.s) + len(tree.t) != n:
        raise NotInImageError("tree truncations do not split into n diagonals")
    prev = [0] * (2 * n + l)
    rows = []
    for i in range(1, n + 1):
        lo, hi = i, 2 * n + l - 1 - i
        marked = set()
        for v in tree.rows[i - 1]:
            if v is None:
                continue
            c = v + n + 1
            if not lo <= c <= hi:
                raise NotInImageError(
                    f"row {i}: entry {v} falls outside the trapezoid")
            if c in marked:
                raise NotInImageError(f"row {i}: duplicate column for {v}")
            marked.add(c)
        cur = [1 if c in marked else 0 for c in range(lo, hi + 1)]
        rows.append(tuple(cur[c - lo] - prev[c] for c in range(lo, hi + 1)))
        for c in range(lo, hi + 1):
            prev[c] = cur[c - lo]
    trap = Trapezoid(n, l, tuple(rows))
    problem = validate_trapezoid(trap)
    if problem:
        raise NotInImageError(problem)
    if _cell_set_ast_to_sttree(trap) != tree:
        raise NotInImageError("tree is not the image of its own preimage")
    return trap


def _result(convert, *args):
    try:
        return convert(*args)
    except (NotInImageError, InvalidShapeError, ValueError) as e:
        return type(e), str(e)


class TestRowOracles:
    def test_trees_match_the_cell_set_reader(self):
        for n in range(1, 5):
            for l in range(2, 6):
                for t in enumerate_trapezoids(n, l):
                    assert ast_to_sttree(t) == _cell_set_ast_to_sttree(t), t

    def test_preimages_match_on_changed_trees(self):
        # every tree with one value moved by -1/+1 or deleted, and every
        # tree taken at the wrong l
        kinds = set()
        for n in range(1, 4):
            for l in range(2, 5):
                for t in enumerate_trapezoids(n, l):
                    tree = ast_to_sttree(t)
                    changed = [(tree, n, l + 1), (tree, n, l - 1)]
                    for i, row in enumerate(tree.rows):
                        for j, v in enumerate(row):
                            if v is None:
                                continue
                            for w in (v - 1, v + 1, None):
                                rows = list(tree.rows)
                                rows[i] = row[:j] + (w,) + row[j + 1:]
                                changed.append(
                                    (tree._replace(rows=tuple(rows)), n, l))
                    for args in changed:
                        expected = _result(_cell_set_sttree_to_ast, *args)
                        assert _result(sttree_to_ast, *args) == expected
                        if type(expected) is tuple:
                            kinds.add(re.sub(r"-?\d+", "#", expected[1]))
        assert kinds == {
            "middle column #: sum # != #",
            "row #: duplicate column for #",
            "row #: entry # falls outside the trapezoid",
            "row #: non-zero entries do not alternate at column #",
            "row #: sum # != #",
            "the correspondence is defined for l >= #",
            "tree is not the image of its own preimage",
        }
