import pytest

from altsign.exactalg import Gf
from altsign.trapezoid import (AstStats, Trapezoid, column_partial_sums,
                               enumerate_trapezoids, from_json, gf,
                               one_column_positions, stats, to_json, validate,
                               weight)

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
