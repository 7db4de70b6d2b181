import re

import pytest

from altsign.exactalg import Gf
from altsign.trapezoid import (AstStats, Trapezoid, _one_columns,
                               column_partial_sums, enumerate_trapezoids,
                               from_json, gf, one_column_positions, stats,
                               to_json, validate, weight)

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

GF24 = (Gf.monomial(r=2) + 4 * Gf.monomial(r=1) + Gf.monomial(p=1, r=1)
        + Gf.monomial(q=1, r=1) + Gf.one())


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
                            if t.column_sum(c) == 1]
                    assert len(ones) == n
                    assert all(t.column_label(c) is not None for c in ones)

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
        assert weight(t) == Gf.monomial(p=1, r=1)

    def test_12_left_column(self):
        t = Trapezoid(1, 2, ((1, 0),))
        assert validate(t) is None
        assert weight(t) == Gf.monomial(r=1)

    def test_quasi_single(self):
        # central column is a 1-column with bottom entry 1, so the
        # (P+Q-1) bracket is off and the weight is plain R
        t = Trapezoid(1, 1, ((1,),))
        assert validate(t) is None
        assert weight(t) == Gf.monomial(r=1)
        assert weight(Trapezoid(1, 1, ((0,),))) == Gf.one()

    def test_quasi_central_10_column(self):
        # n = 2: top row 0 1 0 over a bottom 0 makes the center a 10-column
        t = Trapezoid(2, 1, ((0, 1, 0), (0,)))
        assert validate(t) is None
        assert weight(t) == Gf.p_plus_q_minus_1() * Gf.monomial(r=1)


def _column_product_weight(t):
    """W(T) as one Gf product per column with sum 1, read from the array
    with Trapezoid's own accessors: R for a label < 0, times P when the
    bottom entry is 0; Q for a 10-column with label > 0; for the central
    column of l = 1, R, times (P+Q-1) for a 10-column."""
    w = Gf.one()
    for c in range(1, t.width + 1):
        if t.column_sum(c) != 1:
            continue
        label = t.column_label(c)
        is_10 = t.entry(t.last_row_covering(c), c) == 0
        if label < 0:
            w = w * Gf.monomial(r=1) * (Gf.monomial(p=1) if is_10 else 1)
        elif label > 0:
            w = w * (Gf.monomial(q=1) if is_10 else 1)
        else:
            w = w * Gf.monomial(r=1) * (Gf.p_plus_q_minus_1() if is_10 else 1)
    return w


class TestWeightOracle:
    def test_weight_is_the_column_product(self):
        for n in range(1, 5):
            for l in range(1, 5):
                for t in enumerate_trapezoids(n, l):
                    assert weight(t) == _column_product_weight(t), t
                    if l >= 2:
                        s = stats(t)
                        assert weight(t) == Gf.monomial(s.p, s.q, s.r), t


class TestGf:
    def test_24(self):
        assert gf(2, 4) == GF24
        assert str(gf(2, 4)) == "R^2 + 4*R + P*R + Q*R + 1"

    def test_single_row(self):
        for l in range(2, 6):
            assert gf(1, l) == Gf.monomial(r=1) + Gf.one()

    def test_23_evaluation(self):
        assert gf(2, 3).evaluate() == 7

    def test_counts_match_evaluation(self):
        for n in range(1, 5):
            for l in range(1, 6):
                assert gf(n, l).evaluate() == len(enumerate_trapezoids(n, l))

    def test_quasi_21(self):
        # hand enumeration of the five (2,1) objects
        expected = (Gf.monomial(r=2) + 2 * Gf.monomial(r=1)
                    + Gf.p_plus_q_minus_1() * Gf.monomial(r=1) + Gf.one())
        assert gf(2, 1) == expected


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
                total = Gf.zero()
                for t in enumerate_trapezoids(n, l):
                    total += weight(t)
                assert gf(n, l) == total, (n, l)

    def test_out_of_domain(self):
        for n, l in ((0, 3), (2, 0), (-1, 2)):
            with pytest.raises(ValueError):
                gf(n, l)
            with pytest.raises(ValueError):
                enumerate_trapezoids(n, l)

    def test_middle_one_column_has_no_weight(self):
        # (2,3): a middle column with sum 1 is not a trapezoid
        t = Trapezoid(2, 3, ((0, 0, 1, 0, 0), (0, 0, 0)))
        assert validate(t) is not None
        for route in (weight, stats, one_column_positions):
            with pytest.raises(ValueError, match="middle column 3 has sum 1"):
                route(t)


# Per-entry readers through Trapezoid.entry: independent oracles for the
# row-pass validate, _one_columns and column_partial_sums.

def _per_entry_validate(t):
    n, l = t.n, t.l
    if n < 1 or l < 1:
        return f"need n >= 1 and l >= 1, got n={n}, l={l}"
    if len(t.rows) != n:
        return f"expected {n} rows, got {len(t.rows)}"
    for i in range(1, n + 1):
        lo, hi = t.row_span(i)
        if len(t.rows[i - 1]) != hi - lo + 1:
            return (f"row {i}: expected length {hi - lo + 1}, "
                    f"got {len(t.rows[i - 1])}")
        for c, e in zip(range(lo, hi + 1), t.rows[i - 1]):
            if e not in (-1, 0, 1):
                return f"row {i}, column {c}: entry {e} not in {{-1,0,1}}"
    for c in range(1, t.width + 1):
        prev = 0
        for i in range(1, t.last_row_covering(c) + 1):
            e = t.entry(i, c)
            if e == 0:
                continue
            if prev == 0 and e == -1:
                return f"column {c}: topmost non-zero entry (row {i}) is -1"
            if e == prev:
                return (f"column {c}: non-zero entries do not alternate "
                        f"at row {i}")
            prev = e
        if l >= 2 and n + 1 <= c <= n + l - 2 and t.column_sum(c) != 0:
            return f"middle column {c}: sum {t.column_sum(c)} != 0"
    for i in range(1, n + 1):
        prev = 0
        lo, hi = t.row_span(i)
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
        if t.column_sum(c) == 1:
            label = t.column_label(c)
            if label is None:
                raise ValueError(f"middle column {c} has sum 1")
            out.append((label, t.entry(t.last_row_covering(c), c) == 0))
    return out


def _per_entry_partial_sums(t):
    psums = []
    running = {}
    for i in range(1, t.n + 1):
        lo, hi = t.row_span(i)
        row = []
        for c in range(lo, hi + 1):
            running[c] = running.get(c, 0) + t.entry(i, c)
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
                    assert list(_one_columns(t)) == _per_entry_one_columns(t)
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
                        with pytest.raises(ValueError) as caught:
                            from_json({"n": n, "l": l,
                                       "rows": [list(r) for r in bad.rows]})
                        assert str(caught.value) == expected
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
                        assert _read(lambda t: list(_one_columns(t)), bad) \
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
                                   if t.last_row_covering(c) < i
                                   and t.column_sum(c) == 1)
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
    def test_roundtrip(self):
        for n in range(1, 4):
            for l in range(1, 5):
                for t in enumerate_trapezoids(n, l):
                    assert from_json(to_json(t)) == t, (n, l, t)

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            from_json({"n": 1, "l": 2, "rows": [[-1, 0]]})

    def test_single_entry_change_is_rejected(self):
        # for l >= 2 every row sums to 1, so changing one entry breaks it
        for n in range(1, 4):
            for l in range(2, 5):
                for t in enumerate_trapezoids(n, l):
                    d = to_json(t)
                    for row in d["rows"]:
                        for j, e in enumerate(row):
                            for v in (-2, -1, 0, 1, 2):
                                if v == e:
                                    continue
                                row[j] = v
                                with pytest.raises(ValueError):
                                    from_json(d)
                                row[j] = e
