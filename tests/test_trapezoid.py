import hashlib
import itertools
import json
import re

import pytest

from altsign import cssp, sttree
from altsign.exactalg import Gf
from altsign.sttree import SttTree, ast_to_sttree
from altsign.trapezoid import (AstStats, Trapezoid, column_label,
                               column_partial_sums, enumerate_trapezoids, gf,
                               interlace, one_columns, pretty, stats,
                               to_json, validate, weight)

from test_exactalg import gf_value
from test_routes import G24, cells, mismatches, pin_answers

# Test-only readers: the per-entry accessors of the array, independent of
# trapezoid's row passes, and the sorted labels of the 1-columns.

def row_span(t, i):
    """Absolute column range (inclusive) covered by row i (1-based)."""
    return i, 2 * t.n + t.l - 1 - i


def entry(t, i, c):
    lo, hi = row_span(t, i)
    if not lo <= c <= hi:
        raise IndexError(f"row {i} does not cover column {c}")
    return t.rows[i - 1][c - lo]


def last_row_covering(t, c):
    return min(c, 2 * t.n + t.l - 1 - c, t.n)


def column_sum(t, c):
    return sum(entry(t, i, c) for i in range(1, last_row_covering(t, c) + 1))


def one_column_positions(t):
    """Sorted signed labels of the columns with sum 1 (requires l >= 2)."""
    if t.l < 2:
        raise ValueError("1-column positions are defined for l >= 2")
    return tuple(sorted(label for label, _ in one_columns(t)))


# the displayed (5,4) example
T54 = Trapezoid(5, 4, (
    (0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, 0, -1, 1, 0, 0),
    (0, 1, 0, -1, 0, 1, -1, 1),
    (0, 0, 0, 1, -1, 1),
    (1, 0, -1, 1),
))

# the eight (2,4)-trapezoids with their (p, q, r) triples
LIST24 = [
    (((1, 0, 0, 0, 0, 0), (1, 0, 0, 0)), (0, 0, 2)),
    (((1, 0, 0, 0, 0, 0), (0, 0, 0, 1)), (0, 0, 1)),
    (((0, 1, 0, 0, 0, 0), (0, 0, 0, 1)), (1, 0, 1)),
    (((0, 0, 1, 0, 0, 0), (1, -1, 0, 1)), (0, 0, 1)),
    (((0, 0, 0, 1, 0, 0), (1, 0, -1, 1)), (0, 0, 1)),
    (((0, 0, 0, 0, 1, 0), (1, 0, 0, 0)), (0, 1, 1)),
    (((0, 0, 0, 0, 0, 1), (1, 0, 0, 0)), (0, 0, 1)),
    (((0, 0, 0, 0, 0, 1), (0, 0, 0, 1)), (0, 0, 0)),
]

# sha256 of json.dumps([to_json(t) for t in enumerate_trapezoids(n, l)])
# for n, l <= 5 but (5, 5), the costliest cell: the objects and their order
ENUMERATION_DIGESTS = {
    (1, 1): "e2c0d0959f3aec134e49825a6701e58e51ae00a148b93c6e6b00e09e3eede7f6",
    (1, 2): "9e74b6ab7829b1a66e3f9fb80840801043046fe84c66968773384da7ae709b9e",
    (1, 3): "1397d6af0502717a642ce5866238433152ea66a2084c6fb6f93b944ff8a09e57",
    (1, 4): "b0e60836a42d86a649a3dfc2bb887991b52bb85df204bb3395b82d7b356a6b9f",
    (1, 5): "09dbe6eb51f70a4b9e770da512e463080ef660f56de90f8cb0fa0a4ac478a3cd",
    (2, 1): "824d6a8cf48b38c924f4b55933848d20060d1d3f69aa10ee83a15197036e6aa5",
    (2, 2): "68992fdc375961264bf28d72aeac8b0bed3d297b40eb4af5ca51c142906909f9",
    (2, 3): "305486ebe807ffc17633d87cd493f20aba267d7ce3c75f3715268b791e203eb3",
    (2, 4): "b6aa37555ca088405ee19f6f421f40bd9e817131ba0076dc7efef3e12db3112e",
    (2, 5): "5084d1970a40786984e54619b9d94c0e59b1619a36b1d308f2c8104690038dff",
    (3, 1): "30641993f0ee86a2a65ba3341a8cf6d797412a39c7eb0a1493f6aa7ec4571426",
    (3, 2): "7807a2ca8617c70991b33fecd7cce2a25b867481e3f27598f6f011af227a8b22",
    (3, 3): "12ed53d20f0726917010a0c2e3e969d012305010796de7aeaa316b8af7596299",
    (3, 4): "3855da7722b716eb8cd72dd84966e790f17e22ec686fdfb5216b2ffdb73b0617",
    (3, 5): "22eb2e73d3093e43588a27ce5e95edffbba75e3978af412ac75bb36c6a2ec40c",
    (4, 1): "ca0b2ed848306e436d158791e6c0a07ded29c9c9c019b4c8108cebc3e434e293",
    (4, 2): "fca5f05e72899ab45aadbd94320ade8838e899fce0b4015e8df9076e5f6957e9",
    (4, 3): "66e2051e24b3b5147fba0f074668a97b77d4d68384763d85a479aa89736298bf",
    (4, 4): "601a535f6263970ac2f118db1a22e9f0e206844dbb37a0f070deb37b5b6ff44a",
    (4, 5): "201908ffec510a2908031d4a6be1fe6779ee5d86a8f1f38cc5e4cd9becc45297",
    (5, 1): "0b4ff954625f7d8380de8f6d0df32818612cd213208dec325bc5be0911f3bf44",
    (5, 2): "00f9395d4bf21aa7a86ba0c57828cba2e36533a836d2729390d98c627164167c",
    (5, 3): "713c2a1837ed84dad36fa840007c25652737caa267b5ab31167ed14f1fa7f94e",
    (5, 4): "4e2ebedbdaaee2e9cd70f2cfed906a12a479e9e88de39c16523aee130b4225b8",
}


class TestValidate:
    def test_paper_example_ok(self):
        assert validate(T54) is None

    def test_negated_top_entry_reports_topmost_condition(self):
        rows = [list(r) for r in T54.rows]
        rows[0][7] = -1
        bad = Trapezoid(5, 4, tuple(tuple(r) for r in rows))
        message = validate(bad)
        assert message is not None
        assert "topmost" in message and "column 8" in message

    def test_listed_24_trapezoid(self):
        t = Trapezoid(2, 4, ((0, 0, 1, 0, 0, 0), (1, -1, 0, 1)))
        assert validate(t) is None

    def test_bad_row_sum(self):
        t = Trapezoid(2, 4, ((0, 0, 0, 0, 0, 0), (1, 0, 0, 0)))
        assert "sum" in validate(t)

    def test_bad_shape(self):
        t = Trapezoid(2, 4, ((1, 0, 0), (1, 0, 0, 0)))
        assert "length" in validate(t)
        t = Trapezoid(2, 4, ((1, 0, 0, 0, 0, 0),))
        assert validate(t) == "expected 2 rows, got 1"

    def test_empty_trapezoid_is_valid(self):
        for l in range(1, 5):
            assert validate(Trapezoid(0, l, ())) is None, l
        # outside the domain, the routes' own refusal
        assert validate(Trapezoid(-1, 3, ())) == "need n >= 0, got n = -1"
        assert validate(Trapezoid(0, 0, ())) == "need l >= 1, got l = 0"

    def test_valid_exactly_for_the_enumerated(self):
        # every {-1, 0, 1} array of each shape (3^cells of them, so n and l
        # stay small): validate passes exactly what enumerate_trapezoids
        # lists
        shapes = [(0, l) for l in (1, 2, 3)] + [(1, l) for l in range(1, 6)]
        shapes += [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1)]
        for n, l in shapes:
            lengths = [2 * n + l - 2 * i for i in range(1, n + 1)]
            valid = set()
            for entries in itertools.product((-1, 0, 1), repeat=sum(lengths)):
                cells = iter(entries)
                rows = tuple(tuple(itertools.islice(cells, m))
                             for m in lengths)
                if validate(Trapezoid(n, l, rows)) is None:
                    valid.add(rows)
            assert valid == {t.rows for t in enumerate_trapezoids(n, l)}, \
                (n, l)


class TestPretty:
    def test_empty_trapezoid_prints_as_the_empty_cssp(self):
        # one placeholder for an empty object in every listing
        (empty,) = cssp.enumerate_cssps(1, 0)
        assert pretty(Trapezoid(0, 2, ())) == cssp.pretty(empty) \
            == sttree.pretty(SttTree(0, (), (), ())) == "(empty)"


class TestInterlace:
    """The monotone-triangle row rule that trapezoid's row step and
    sttree's enumeration share."""

    def test_no_slots_give_the_empty_row(self):
        assert interlace([]) == [()]

    def test_an_empty_slot_gives_no_row(self):
        assert interlace([(2, 1)]) == []
        assert interlace([(0, 3), (5, 4), (6, 9)]) == []

    def test_shared_bounds_give_strictly_increasing_rows_in_order(self):
        # b_1 <= 1 <= b_2 <= 2 <= b_3: (1, 1, ...) and (.., 2, 2) are out
        assert interlace([(0, 1), (1, 2), (2, 3)]) == [
            (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
        for slots in ([(0, 2), (2, 2), (2, 4)], [(-1, 1), (1, 1)],
                      [(0, 3), (0, 3), (0, 3)]):
            rows = [b for b in itertools.product(
                        *(range(low, high + 1) for low, high in slots))
                    if all(x < y for x, y in zip(b, b[1:]))]
            assert interlace(slots) == rows, slots


class TestEnumerate:
    def test_24_matches_paper_list(self):
        found = enumerate_trapezoids(2, 4)
        assert len(found) == 8
        assert {t.rows for t in found} == {rows for rows, _ in LIST24}

    def test_lex_order(self):
        found = enumerate_trapezoids(2, 4)
        flat = [sum(t.rows, ()) for t in found]
        assert flat == sorted(flat)

    def test_single_row(self):
        for l in range(2, 7):
            ts = enumerate_trapezoids(1, l)
            assert len(ts) == 2

    def test_23_count(self):
        assert len(enumerate_trapezoids(2, 3)) == 7

    def test_all_valid(self):
        for n in range(1, 4):
            for l in range(1, 5):
                for t in enumerate_trapezoids(n, l):
                    assert validate(t) is None

    def test_asm_product_formula_for_l3(self):
        # (n,3)-trapezoids are alternating sign triangles of order n+1
        def product(n):
            num = 1
            den = 1
            for i in range(n + 1):
                num *= _factorial(3 * i + 1)
                den *= _factorial(n + 1 + i)
            assert num % den == 0
            return num // den

        for n in range(1, 5):
            assert len(enumerate_trapezoids(n, 3)) == product(n)


def _factorial(m):
    out = 1
    for i in range(2, m + 1):
        out *= i
    return out


class TestStats:
    def test_paper_example(self):
        assert stats(T54) == AstStats(1, 0, 2)

    def test_listed_24(self):
        for rows, pqr in LIST24:
            assert stats(Trapezoid(2, 4, rows)) == AstStats(*pqr)

    def test_one_columns_count(self):
        for n in range(1, 5):
            for l in range(2, 6):
                for t in enumerate_trapezoids(n, l):
                    ones = [c for c in range(1, t.width + 1)
                            if column_sum(t, c) == 1]
                    assert len(ones) == n
                    assert all(column_label(n, l, c) is not None
                               for c in ones)

    def test_rows_start_and_end_positive(self):
        for n in range(1, 5):
            for l in range(2, 6):
                for t in enumerate_trapezoids(n, l):
                    for row in t.rows:
                        nz = [e for e in row if e]
                        assert nz[0] == 1 and nz[-1] == 1


class TestWeight:
    def test_third_24(self):
        t = Trapezoid(2, 4, ((0, 1, 0, 0, 0, 0), (0, 0, 0, 1)))
        assert weight(t) == Gf.weight(p=1, r=1)

    def test_12_left_column(self):
        t = Trapezoid(1, 2, ((1, 0),))
        assert validate(t) is None
        assert weight(t) == Gf.weight(r=1)

    def test_quasi_single(self):
        # central column is a 1-column with bottom entry 1, so the
        # (P+Q-1) bracket is off and the weight is plain R
        t = Trapezoid(1, 1, ((1,),))
        assert validate(t) is None
        assert weight(t) == Gf.weight(r=1)
        assert weight(Trapezoid(1, 1, ((0,),))) == Gf.weight()
        with pytest.raises(ValueError, match="^stats are defined for "
                           "l >= 2; use weight for l = 1$"):
            stats(t)

    def test_quasi_central_10_column(self):
        # n = 2: top row 0 1 0 over a bottom 0 makes the center a 10-column
        t = Trapezoid(2, 1, ((0, 1, 0), (0,)))
        assert validate(t) is None
        assert weight(t) == Gf.weight(o=1) * Gf.weight(r=1)


def _column_product_weight(t):
    """W(T) as one Gf product per column with sum 1, read from the array
    with the per-entry readers above: R for a label < 0, times P when the
    bottom entry is 0; Q for a 10-column with label > 0; for the central
    column of l = 1, R, times (P+Q-1) for a 10-column."""
    w = Gf.weight()
    for c in range(1, t.width + 1):
        if column_sum(t, c) != 1:
            continue
        label = column_label(t.n, t.l, c)
        is_10 = entry(t, last_row_covering(t, c), c) == 0
        if label < 0:
            w = w * Gf.weight(r=1) * (Gf.weight(p=1) if is_10 else 1)
        elif label > 0:
            w = w * (Gf.weight(q=1) if is_10 else 1)
        else:
            w = w * Gf.weight(r=1) * (Gf.weight(o=1) if is_10 else 1)
    return w


class TestWeightOracle:
    def test_weight_is_the_column_product(self):
        for n in range(1, 5):
            for l in range(1, 5):
                for t in enumerate_trapezoids(n, l):
                    assert weight(t) == _column_product_weight(t), t
                    if l >= 2:
                        s = stats(t)
                        assert weight(t) == Gf.weight(s.p, s.q, s.r), t


class TestGf:
    def test_24(self):
        assert mismatches({"ast": [(2, 4, None)]}) == []
        assert str(gf(2, 4)) == G24

    def test_single_row(self):
        assert mismatches({"ast": cells("ast", (1,), range(2, 6))}) == []

    def test_23_evaluation(self):
        assert gf_value(gf(2, 3)) == 7

    def test_counts_match_evaluation(self):
        for n in range(1, 5):
            for l in range(1, 6):
                assert gf_value(gf(n, l)) == len(enumerate_trapezoids(n, l))

    def test_quasi_21(self):
        assert mismatches({"ast": [(2, 1, None)]}) == []


class TestPinnedDigests:
    def test_gf_bytes(self):
        assert mismatches(got=pin_answers(("ast",))) == []

    def test_enumeration_bytes_and_order(self):
        for (n, l), digest in ENUMERATION_DIGESTS.items():
            text = json.dumps([to_json(t) for t in enumerate_trapezoids(n, l)])
            assert hashlib.sha256(text.encode()).hexdigest() == digest, (n, l)


def _backtracked_rows(n, l):
    """The rows of every (n,l)-trapezoid from a cell-by-cell backtracker
    with a per-column state machine (an independent oracle for the order
    and the content of enumerate_trapezoids)."""
    width = 2 * n + l - 2
    col_state = [0] * (width + 1)  # last nonzero seen in the column
    col_sum = [0] * (width + 1)
    rows, out = [], []

    def cell(i, c, row, row_last, row_sum):
        lo, hi = i, 2 * n + l - 1 - i
        quasi_bottom = l == 1 and i == n
        if c > hi:
            if row_sum != 1 and not (quasi_bottom and row_sum == 0):
                return
            if i == n and l >= 2 and any(col_sum[m]
                                         for m in range(n + 1, n + l - 1)):
                return  # a middle column leaves with a nonzero sum
            rows.append(tuple(row))
            if i == n:
                out.append(tuple(rows))
            else:
                cell(i + 1, i + 1, [], 0, 0)
            rows.pop()
            return
        for e in (-1, 0, 1):
            if e and (e == row_last or (e == 1 and col_state[c] == 1)
                      or (e == -1 and col_state[c] != 1)):
                continue
            last = e if e else row_last
            more = c < hi
            if (row_sum + e + (1 if last != 1 and more else 0)
                    < (0 if quasi_bottom else 1)
                    or row_sum + e - (1 if last != -1 and more else 0) > 1):
                continue
            saved = col_state[c]
            if e:
                col_state[c] = e
                col_sum[c] += e
            cell(i, c + 1, row + [e], last, row_sum + e)
            col_state[c] = saved
            col_sum[c] -= e

    cell(1, 1, [], 0, 0)
    return out


class TestOracles:
    def test_enumeration_matches_backtracker(self):
        for n in range(1, 5):
            for l in range(1, 5):
                assert [t.rows for t in enumerate_trapezoids(n, l)] \
                    == _backtracked_rows(n, l), (n, l)

    def test_gf_is_the_sum_of_weights(self):
        for n in range(1, 5):
            for l in range(1, 6):
                total = Gf()
                for t in enumerate_trapezoids(n, l):
                    total += weight(t)
                assert gf(n, l) == total, (n, l)

    def test_out_of_domain(self):
        # n = 0 is in the domain: one empty trapezoid of weight 1
        assert gf(0, 3) == Gf.weight()
        assert enumerate_trapezoids(0, 3) == [Trapezoid(0, 3, ())]
        for n, l in ((2, 0), (-1, 2)):
            with pytest.raises(ValueError):
                gf(n, l)
            with pytest.raises(ValueError):
                enumerate_trapezoids(n, l)

    def test_middle_one_column_has_no_weight(self):
        # (2,3): a middle column with sum 1 is not a trapezoid
        t = Trapezoid(2, 3, ((0, 0, 1, 0, 0), (0, 0, 0)))
        assert validate(t) is not None
        for route in (weight, stats, one_column_positions, ast_to_sttree):
            with pytest.raises(ValueError, match="middle column 3 has sum 1"):
                route(t)


# Per-entry readers through entry: independent oracles for the
# row-pass validate, one_columns and column_partial_sums.

def _per_entry_validate(t):
    n, l = t.n, t.l
    if n < 1 or l < 1:
        return f"need n >= 1 and l >= 1, got n={n}, l={l}"
    if len(t.rows) != n:
        return f"expected {n} rows, got {len(t.rows)}"
    for i in range(1, n + 1):
        lo, hi = row_span(t, i)
        if len(t.rows[i - 1]) != hi - lo + 1:
            return (f"row {i}: expected length {hi - lo + 1}, "
                    f"got {len(t.rows[i - 1])}")
        for c, e in zip(range(lo, hi + 1), t.rows[i - 1]):
            if e not in (-1, 0, 1):
                return f"row {i}, column {c}: entry {e} not in {{-1,0,1}}"
    for c in range(1, t.width + 1):
        prev = 0
        for i in range(1, last_row_covering(t, c) + 1):
            e = entry(t, i, c)
            if e == 0:
                continue
            if prev == 0 and e == -1:
                return f"column {c}: topmost non-zero entry (row {i}) is -1"
            if e == prev:
                return (f"column {c}: non-zero entries do not alternate "
                        f"at row {i}")
            prev = e
        if l >= 2 and n + 1 <= c <= n + l - 2 and column_sum(t, c) != 0:
            return f"middle column {c}: sum {column_sum(t, c)} != 0"
    for i in range(1, n + 1):
        prev = 0
        lo, hi = row_span(t, i)
        for c, e in zip(range(lo, hi + 1), t.rows[i - 1]):
            if e == 0:
                continue
            if e == prev:
                return (f"row {i}: non-zero entries do not alternate "
                        f"at column {c}")
            prev = e
        s = sum(t.rows[i - 1])
        if l == 1 and i == n:
            if s not in (0, 1):
                return f"bottom row: sum {s} not in {{0,1}}"
        elif s != 1:
            return f"row {i}: sum {s} != 1"
    return None


def _per_entry_one_columns(t):
    out = []
    for c in range(1, t.width + 1):
        if column_sum(t, c) == 1:
            label = column_label(t.n, t.l, c)
            if label is None:
                raise ValueError(f"middle column {c} has sum 1")
            out.append((label, entry(t, last_row_covering(t, c), c) == 0))
    return out


def _per_entry_partial_sums(t):
    psums = []
    running = {}
    for i in range(1, t.n + 1):
        lo, hi = row_span(t, i)
        row = []
        for c in range(lo, hi + 1):
            running[c] = running.get(c, 0) + entry(t, i, c)
            row.append(running[c])
        psums.append(tuple(row))
    return tuple(psums)


def _corruptions(t, values=(-1, 0, 1, 2), lengths=True):
    """Every array that differs from t in one entry (taking each of the
    values), or in the length of one row."""
    for i, row in enumerate(t.rows):
        variants = [row[:j] + (v,) + row[j + 1:]
                    for j, e in enumerate(row) for v in values if v != e]
        if lengths:
            variants += [row[:-1], row + (0,)]
        for bad in variants:
            yield Trapezoid(t.n, t.l, t.rows[:i] + (bad,) + t.rows[i + 1:])


def _read(read, t):
    try:
        return read(t)
    except ValueError as e:  # a middle column with sum 1
        return str(e)


class TestRowPassOracles:
    def test_valid_trapezoids_read_alike(self):
        for n in range(1, 5):
            for l in range(1, 6):
                for t in enumerate_trapezoids(n, l):
                    assert validate(t) is None
                    assert list(one_columns(t)) == _per_entry_one_columns(t)
                    assert column_partial_sums(t) \
                        == _per_entry_partial_sums(t), t

    def test_corruptions_get_the_same_message(self):
        templates = set()
        for n in range(1, 4):
            for l in range(1, 5):
                for t in enumerate_trapezoids(n, l):
                    for bad in _corruptions(t):
                        expected = _per_entry_validate(bad)
                        assert validate(bad) == expected, bad
                        if expected is None:  # the l = 1 bottom row
                            continue
                        templates.add(re.sub(r"-?\d+", "#", expected))
        # the corruptions reach every message of validate past the shape
        # of the row tuple
        assert templates == {
            "row #: expected length #, got #",
            "row #, column #: entry # not in {#,#,#}",
            "column #: topmost non-zero entry (row #) is #",
            "column #: non-zero entries do not alternate at row #",
            "middle column #: sum # != #",
            "row #: non-zero entries do not alternate at column #",
            "row #: sum # != #",
            "bottom row: sum # not in {#,#}",
        }

    def test_corrupted_arrays_read_alike(self):
        # well-shaped 0/+-1 arrays that are not trapezoids
        for n in range(1, 4):
            for l in range(1, 5):
                for t in enumerate_trapezoids(n, l):
                    for bad in _corruptions(t, (-1, 0, 1), lengths=False):
                        assert _read(lambda t: list(one_columns(t)), bad) \
                            == _read(_per_entry_one_columns, bad), bad
                        assert column_partial_sums(bad) \
                            == _per_entry_partial_sums(bad), bad


class TestPartialSums:
    def test_paper_example(self):
        assert column_partial_sums(T54) == (
            (0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0),
            (0, 0, 0, 0, 1, 0, 0, 1, 0, 0),
            (0, 1, 0, 0, 0, 1, 0, 1),
            (1, 0, 0, 1, 0, 1),
            (1, 0, 0, 1),
        )

    def test_single_row_fixed_point(self):
        for t in enumerate_trapezoids(1, 4):
            assert column_partial_sums(t) == t.rows

    def test_row_sums(self):
        # row i of the partial sums adds up to i minus the number of
        # 1-columns no longer covered by row i (oracle: direct summation)
        for n in range(1, 4):
            for l in range(2, 5):
                for t in enumerate_trapezoids(n, l):
                    ps = column_partial_sums(t)
                    for i in range(1, n + 1):
                        gone = sum(1 for c in range(1, t.width + 1)
                                   if last_row_covering(t, c) < i
                                   and column_sum(t, c) == 1)
                        assert sum(ps[i - 1]) == i - gone


class TestOneColumnPositions:
    def test_paper_example(self):
        assert one_column_positions(T54) == (-2, -1, 1, 2, 3)

    def test_first_and_last_24(self):
        first = Trapezoid(2, 4, LIST24[0][0])
        last = Trapezoid(2, 4, LIST24[-1][0])
        assert one_column_positions(first) == (-2, -1)
        assert one_column_positions(last) == (1, 2)


class TestJson:
    """The validation a trapezoid read back from enumerate --format json
    must pass."""

    def test_rejects_invalid(self):
        assert validate(Trapezoid(1, 2, ((-1, 0),))) is not None

    def test_single_entry_change_is_rejected(self):
        # for l >= 2 every row sums to 1, so changing one entry breaks it
        for n in range(1, 4):
            for l in range(2, 5):
                for t in enumerate_trapezoids(n, l):
                    rows = to_json(t)["rows"]
                    for row in rows:
                        for j, e in enumerate(row):
                            for v in (-2, -1, 0, 1, 2):
                                if v == e:
                                    continue
                                row[j] = v
                                bad = Trapezoid(n, l, tuple(map(tuple, rows)))
                                assert validate(bad) is not None, bad
                                row[j] = e
