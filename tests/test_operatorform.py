import ast
import math
import random
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

import altsign
from altsign import detform, trapezoid
from altsign.errors import InvalidShapeError, ShapeMismatchError
from altsign.exactalg import Gf, MPoly, binomial
from altsign.operatorform import (_step, all_positions, asymM_constant_term,
                                  bwd_diff, compute_Mn,
                                  count_ast_prescribed,
                                  count_ast_via_operator,
                                  count_sttrees_formula, eval_Mn, fwd_diff,
                                  gf_ast_prescribed, gf_ast_via_operator,
                                  shift, t_polynomial, t_value, verify_asymM,
                                  verify_asym_lemma)
from altsign.sttree import (enumerate_sttrees, formula_domain,
                            random_tree_instances)

from test_exactalg import gf_value, var


class TestOperators:
    def test_fwd_bwd_relation(self):
        # fwd = E o bwd on arbitrary polynomials
        rng = random.Random(3)
        for _ in range(10):
            p = _random_poly(rng)
            assert fwd_diff(p, "x1") == shift(bwd_diff(p, "x1"), "x1", 1)

    def test_commutation_distinct_variables(self):
        rng = random.Random(5)
        for _ in range(10):
            p = _random_poly(rng)
            a = fwd_diff(bwd_diff(p, "x2"), "x1")
            b = bwd_diff(fwd_diff(p, "x1"), "x2")
            assert a == b

    def test_step_equals_the_difference_chain(self):
        # the steps on binomial coordinates against the chain of whole-
        # polynomial differences and shifts applied to M_n in monomials,
        # for every position vector
        for n in (1, 2, 3, 4):
            mn = _mn_by_fractions(n)
            for l in (2, 3, 4, 5):
                for _, j in all_positions(n):
                    values = [x if x < 0 else x + l - 3 for x in j]
                    for weighted, route in ((False, count_ast_prescribed),
                                            (True, gf_ast_prescribed)):
                        p = mn
                        for i, (x, value) in enumerate(zip(j, values), 1):
                            p = _chain_step(p, i, x, value, weighted)
                        assert route(n, l, j) == p, (n, l, j, weighted)

    def test_unit_weights_give_the_plain_factor(self):
        # at w = 1 the weight factor E^e + w (1 - E^e) is the identity by
        # Pascal's rule at every integer value, negative ones included: the
        # step against the plain factor (-1)^a C(v, t - a) for x < 0 and
        # C(v - a, t - a) for x > 0
        rng = random.Random(17)
        for _ in range(25):
            coords = {tuple(rng.randint(0, 8) for _ in range(3)):
                      rng.choice([-9, -2, -1, 1, 3, 8])
                      for _ in range(rng.randint(1, 9))}
            for x in [*range(-6, 0), *range(1, 7)]:
                a = -x - 1 if x < 0 else x - 1
                for v in range(-8, 9):
                    plain = {}
                    for key, c in coords.items():
                        t = key[0]
                        factor = ((-1) ** a * binomial(v, t - a) if x < 0
                                  else binomial(v - a, t - a))
                        plain[key[1:]] = plain.get(key[1:], 0) + c * factor
                    got = _step(coords, x, v, (1, 1, 1))
                    assert got == {k: c for k, c in plain.items() if c}, \
                        (coords, x, v)
                    assert all(type(c) is int for c in got.values())


def _random_poly(rng, names=("x1", "x2")):
    p = MPoly((), {(): 0})
    for _ in range(rng.randint(1, 4)):
        term = MPoly((), {(): rng.randint(-3, 3)})
        for name in names:
            term = term * var(name) ** rng.randint(0, 3)
        p += term
    return p


def _chain_step(p, i, x, value, weighted=False):
    """The step as a chain of operators on the whole polynomial, kept as
    the oracle of _step: (-fwd)^{-x-1} or bwd^{x-1}, then the weight
    factor P + (1 - P) E or Q + (1 - Q) E^{-1}, then x_i = value."""
    name = f"x{i}"
    for _ in range(-x - 1):
        p = -fwd_diff(p, name)
    for _ in range(x - 1):
        p = bwd_diff(p, name)
    if weighted:
        w, k = (var("P"), 1) if x < 0 else (var("Q"), -1)
        p = w * p + (1 - w) * shift(p, name, k)
    return p.substitute(name, value)


def _expand(coords):
    """sum_a m_a prod_i C(x_i, a_i) as a polynomial in monomials."""
    total = MPoly((), {(): 0})
    for a, c in coords.items():
        term = MPoly((), {(): Fraction(c)})
        for i, k in enumerate(a, start=1):
            for m in range(k):
                term *= var(f"x{i}") - m
            term *= Fraction(1, math.factorial(k))
        total += term
    return total


class TestMn:
    def test_m1(self):
        assert _expand(compute_Mn(1)) == MPoly((), {(): 1})

    def test_m2(self):
        assert _expand(compute_Mn(2)) == var("x2") - var("x1") + 1

    def test_m3_at_123(self):
        assert eval_Mn(3, (1, 2, 3)) == 7

    def test_counts_monotone_triangles(self):
        for b in [(0, 1, 2), (-1, 1, 2), (0, 0, 3)]:
            assert eval_Mn(3, b) == len(enumerate_sttrees(3, (), (), b))

    def test_degree(self):
        for n in range(1, 5):
            assert _expand(compute_Mn(n)).degree() == n * (n - 1) // 2

    def test_value_at_points_that_are_not_monotone(self):
        for b in [(3, 1, 2), (2, 2, -1), (0, 5, -4)]:
            assert eval_Mn(3, b) == _mn_by_fractions(3).evaluate(
                {f"x{i}": v for i, v in enumerate(b, start=1)})
        with pytest.raises(ShapeMismatchError):
            eval_Mn(3, (1, 2))

    def test_sizes_past_n7_refused_up_front(self):
        # M_8 is not built in memory: every operator entry point refuses
        # n = 8 before building anything
        for call in (lambda: compute_Mn(8), lambda: t_value(8, 3),
                     lambda: gf_ast_via_operator(9, 3),
                     lambda: eval_Mn(8, range(8))):
            with pytest.raises(ValueError, match="reach"):
                call()

    def test_translation_invariance(self):
        for b in [(1, 2, 3), (-1, 0, 4)]:
            base = eval_Mn(3, b)
            for c in (-3, 2):
                assert eval_Mn(3, tuple(x + c for x in b)) == base


class TestSttreeFormula:
    def test_monotone_triangle_case(self):
        assert count_sttrees_formula(3, (), (), (1, 2, 3)) == 7

    def test_single(self):
        assert count_sttrees_formula(1, (0,), (), (5,)) == 1

    def test_paper_instance(self):
        # oracle: brute-force enumeration (frozen value 1525)
        assert count_sttrees_formula(5, (1, 0), (0, 1, 2),
                                     (-2, -1, 2, 3, 4)) == 1525

    def test_shape_mismatch(self):
        with pytest.raises(InvalidShapeError,
                           match=r"len\(s\) \+ len\(t\) exceeds n"):
            count_sttrees_formula(2, (0,), (0, 0), (1, 2))

    def test_malformed_input_gets_the_enumeration_refusal(self):
        # n < 0, a b of the wrong length, a decreasing b, too many
        # truncations, a negative one, one longer than its diagonal
        messages = []
        for n, s, t, b in [(-1, (), (), ()), (2, (), (), (1,)),
                           (2, (), (), (1, 0)), (2, (0,), (0, 0), (1, 2)),
                           (3, (-2,), (), (0, 1, 2)), (2, (3,), (), (0, 1))]:
            with pytest.raises(InvalidShapeError) as refused:
                enumerate_sttrees(n, s, t, b)
            with pytest.raises(InvalidShapeError) as formula_refused:
                count_sttrees_formula(n, s, t, b)
            assert str(formula_refused.value) == str(refused.value)
            messages.append(str(refused.value))
        assert len(set(messages)) == 6, messages

    def test_negative_truncation_rejected(self):
        # a negative order would land on a position of the other kind
        for s, t in [((-2,), ()), ((), (-2,)), ((0, -1), (0,))]:
            with pytest.raises(InvalidShapeError):
                count_sttrees_formula(3, s, t, (0, 1, 2))

    def test_refuses_outside_the_domain(self):
        # an empty diagonal (the parent formula gave 0 against one tree),
        # a decreasing b, an increasing s, two diagonals ending in one cell
        for n, s, t, b in [(1, (), (1,), (0,)), (2, (), (), (1, 0)),
                           (2, (0, 1), (), (0, 1)), (2, (1,), (1,), (0, 0))]:
            assert not formula_domain(n, s, t, b)
            with pytest.raises(InvalidShapeError):
                count_sttrees_formula(n, s, t, b)

    def test_domain_sweep_matches_enumeration(self):
        # every input with n <= 2, truncations 0..2 and b in -2..2: the
        # formula raises outside formula_domain and counts the trees inside
        from itertools import product
        inside = 0
        for n in (1, 2):
            for m in range(n + 1):
                for r in range(n - m + 1):
                    for s, t, b in product(product(range(3), repeat=m),
                                           product(range(3), repeat=r),
                                           product(range(-2, 3), repeat=n)):
                        if not formula_domain(n, s, t, b):
                            with pytest.raises(InvalidShapeError):
                                count_sttrees_formula(n, s, t, b)
                            continue
                        inside += 1
                        assert count_sttrees_formula(n, s, t, b) == \
                            len(enumerate_sttrees(n, s, t, b)), (n, s, t, b)
        assert inside > 50

    def test_random_instances_match_brute_force(self):
        for n, s, t, b in random_tree_instances(60, 97):
            assert count_sttrees_formula(n, s, t, b) == \
                len(enumerate_sttrees(n, s, t, b)), (n, s, t, b)


class TestPrescribedCounts:
    def test_24_examples(self):
        assert count_ast_prescribed(2, 4, (-1, 1)) == 4
        assert count_ast_prescribed(2, 4, (-2, -1)) == 1
        assert count_ast_prescribed(2, 4, (-3, 1)) == 0

    def test_out_of_range_vanishes(self):
        # the formula itself vanishes just outside the labeled range
        for j in [(-3, 1), (-3, -1), (1, 3), (-1, 3)]:
            assert count_ast_prescribed(2, 4, j) == 0

    def test_matches_enumeration(self):
        from collections import Counter
        from altsign.trapezoid import enumerate_trapezoids
        from test_trapezoid import one_column_positions
        for n in (1, 2, 3):
            for l in (2, 3, 4):
                counts = Counter(one_column_positions(t)
                                 for t in enumerate_trapezoids(n, l))
                from altsign.operatorform import all_positions
                for _, j in all_positions(n):
                    assert count_ast_prescribed(n, l, j) == counts.get(j, 0), \
                        (n, l, j)


class TestPositionChecks:
    def test_error_order(self):
        # ValueError for a malformed vector, then ShapeMismatchError for a
        # wrong length, then zero outside the labeled range
        for route, zero in ((lambda j: count_ast_prescribed(2, 4, j), 0),
                            (lambda j: gf_ast_prescribed(2, 4, j), Gf())):
            for bad in [(1, 1, 2), (0, 1, 2), (2, 1, 3)]:
                with pytest.raises(ValueError) as info:
                    route(bad)
                assert not isinstance(info.value, ShapeMismatchError)
            with pytest.raises(ShapeMismatchError):
                route((-9, 1, 2))
            assert route((-3, 1)) == zero

    def test_empty_order_answers_1(self):
        # M_0 = 1 at the empty permutation, and no step acts on it
        assert compute_Mn(0) == {(): 1}
        assert list(all_positions(0)) == [(0, ())]
        for l in (2, 3):
            g = gf_ast_via_operator(0, l)
            assert (g, str(g)) == (Gf.weight(), "1"), l
            # a fold with no step is still a Gf at P, Q, R, an int at
            # unit weights
            g = gf_ast_prescribed(0, l, ())
            assert isinstance(g, Gf) and g == Gf.weight(), l
            c = count_ast_prescribed(0, l, ())
            assert type(c) is int and c == 1, l
        assert t_polynomial(0) == [1]
        with pytest.raises(ValueError, match=r"^need n >= 0, got n = -1$"):
            gf_ast_via_operator(-1, 3)

    def test_weighted_formula_needs_l_2(self):
        # the base-length check comes before the position checks
        with pytest.raises(ValueError, match="l >= 2"):
            gf_ast_prescribed(2, 1, (1, 1, 2))


class TestPrescribedGf:
    def test_24_examples(self):
        assert gf_ast_prescribed(2, 4, (-1, 1)) == \
            Gf.weight(p=1) + Gf.weight(q=1) + 2 * Gf.weight()
        assert gf_ast_prescribed(2, 4, (-2, -1)) == Gf.weight()
        assert gf_ast_prescribed(2, 4, (1, 2)) == Gf.weight()

    def test_reduces_to_count_at_1(self):
        for n in (1, 2, 3):
            for l in (2, 4):
                from altsign.operatorform import all_positions
                for _, j in all_positions(n):
                    assert gf_value(gf_ast_prescribed(n, l, j)) == \
                        count_ast_prescribed(n, l, j)


class TestOperatorRoute:
    def test_23_evaluation(self):
        assert gf_value(gf_ast_via_operator(2, 3)) == 7

    def test_position_sum_equals_sum_of_prescribed(self):
        # the prefix-sharing walk against one fold per position vector
        for n in (1, 2, 3):
            for l in (2, 3, 4, 5):
                total = Gf()
                for m, j in all_positions(n):
                    total += Gf.weight(r=m) * gf_ast_prescribed(n, l, j)
                assert gf_ast_via_operator(n, l) == total, (n, l)

    def test_count_via_operator(self):
        for n in (1, 2, 3, 4):
            for l in (1, 2, 3, 4):
                count = count_ast_via_operator(n, l)
                assert count == t_value(n, l), (n, l)
                if l >= 2:
                    assert count == detform.count(n, l), (n, l)

    def test_check_order(self):
        # n is checked before l
        with pytest.raises(ValueError, match=r"^need n >= 0, got n = -1$"):
            gf_ast_via_operator(-1, 1)
        with pytest.raises(ValueError, match="l >= 2"):
            gf_ast_via_operator(2, 1)


class TestTPolynomial:
    def test_t1_constant_2(self):
        assert t_polynomial(1) == [2]

    def test_t2(self):
        assert t_polynomial(2) == [4, 1]  # l + 4 = 4 + (l)_1
        assert t_value(2, 3) == 7
        assert t_value(2, 4) == 8

    def test_counts_for_l_at_least_2(self):
        for n in (1, 2, 3):
            for l in (2, 3, 4):
                assert t_value(n, l) == len(trapezoid.enumerate_trapezoids(n, l))

    def test_n5_counts(self):
        for l in range(2, 7):
            assert t_value(5, l) == detform.count(5, l), l
        assert t_value(5, 1) == len(trapezoid.enumerate_trapezoids(5, 1))

    def test_n6_counts(self):
        # the walk and the interpolated product against the product
        t6 = t_polynomial(6)
        for l in range(2, 7):
            count = detform.count(6, l)
            assert t_value(6, l) == count, l
            assert _at_l(t6, l) == count, l

    def test_the_walk_interpolates_to_t_polynomial(self):
        # t_polynomial samples Andrews' product, and the walk agrees at its
        # n(n-1)/2 + 1 points l = 0, 1, ..., so the walk's interpolating
        # polynomial has the same coordinates
        for n in range(6):
            coords, points = t_polynomial(n), range(n * (n - 1) // 2 + 1)
            assert len(coords) <= len(points), n
            assert [t_value(n, l) for l in points] \
                == [_at_l(coords, l) for l in points], n

    def test_past_the_walks_reach(self):
        # t_8, which the walk does not reach, against the determinant's
        # coefficient sum
        t8 = t_polynomial(8)
        for l in range(2, 6):
            assert _at_l(t8, l) == gf_value(detform.gf_det(8, l)), l

    def test_t_value_builds_m_n_once(self):
        compute_Mn.cache_clear()
        for l in range(1, 7):
            value = t_value(4, l)
            if l >= 2:
                assert value == detform.count(4, l), l
        assert compute_Mn.cache_info().misses == 1

    def test_quasi_counts(self):
        # l = 1 gives the quasi trapezoid counts (2, 5, 20 for n <= 3)
        for n, expected in [(1, 2), (2, 5), (3, 20)]:
            assert t_value(n, 1) == expected
            assert len(trapezoid.enumerate_trapezoids(n, 1)) == expected

    def test_qast_vanishing(self):
        # positions with j_m < -1 and j_{m+1} > 1 contribute nothing at l=1
        from altsign.operatorform import all_positions
        for n in (2, 3):
            for m, j in all_positions(n):
                if 0 < m < n and j[m - 1] < -1 and j[m] > 1:
                    assert count_ast_prescribed(n, 1, j) == 0, (n, j)

    def test_falling_factorial_basis(self):
        # interpolated at n(n-1)/2 + 1 points, with the zero coordinates
        # above the degree dropped (t_3 at 4 points, t_4 at 7)
        assert t_polynomial(2) == [4, 1]
        assert t_polynomial(3) == [12, 8, 1]
        assert len(t_polynomial(4)) == 5

    def test_falling_factorial_coefficients_are_exact(self):
        # the differences of ints are ints; dividing by k! must not turn
        # them into floats
        t4 = t_polynomial(4)
        assert t4 == [60, 72, 23, Fraction(5, 2), Fraction(1, 12)]
        assert not any(isinstance(c, float) for c in t4), t4


def _at_l(coords, l):
    """The polynomial of falling-factorial coordinates coords at l."""
    return sum(c * math.perm(l, k) for k, c in enumerate(coords))


class TestAsymMIdentity:
    # every point of {0..3}^n for n <= 3 is test_identities' asymm row
    def test_n4(self):
        for x in ((0, 1, 2, 3), (1, 0, 2, 3), (0, 0, 2, 3), (2, 2, 3, 1)):
            assert verify_asymM(4, x)

    def test_rejects_a_wrong_target(self, monkeypatch):
        from altsign import operatorform
        value = operatorform.eval_Mn
        monkeypatch.setattr(operatorform, "eval_Mn",
                            lambda n, x: value(n, x) + 1)
        for n, x in ((1, (0,)), (2, (1, 0)), (3, (1, 2, 3)),
                     (4, (0, 1, 2, 3))):
            assert not verify_asymM(n, x), (n, x)

    def test_constant_term_equals_the_quotient_route(self):
        from itertools import product
        for n in (1, 2, 3):
            for x in product(range(4), repeat=n):
                assert asymM_constant_term(n, x) == _quotient_at_zero(n, x)

    def test_rejects_bad_points(self):
        for n, x in ((2, (1,)), (2, (1, -1))):
            with pytest.raises(ValueError, match="non-negative"):
                verify_asymM(n, x)


def _quotient_at_zero(n, x):
    """The quotient route, kept as the oracle: antisymmetrize
    prod (1+Y_i)^{x_i} prod_{i<j} (1+Y_j+Y_i Y_j), exact-divide by the
    Vandermonde product and evaluate at Y = 0."""
    from itertools import permutations
    ys = [var(f"Y{i}") for i in range(1, n + 1)]
    total = MPoly((), {(): 0})
    for sigma in permutations(range(n)):
        inversions = sum(sigma[i] > sigma[j]
                         for i in range(n) for j in range(i + 1, n))
        term = MPoly((), {(): (-1) ** inversions})
        y = [ys[k] for k in sigma]
        for i in range(n):
            term *= (y[i] + 1) ** x[i]
            for j in range(i + 1, n):
                term *= 1 + y[j] + y[i] * y[j]
        total += term
    vandermonde = MPoly((), {(): 1})
    for i in range(n):
        for j in range(i + 1, n):
            vandermonde *= ys[j] - ys[i]
    quotient = total.exact_divide(vandermonde)
    return quotient.evaluate({f"Y{i}": 0 for i in range(1, n + 1)})


class TestAsymLemma:
    def test_n1(self):
        assert verify_asym_lemma(1, sample_count=20, seed=1)

    def test_n2(self):
        assert verify_asym_lemma(2, sample_count=40, seed=2)

    def test_n3(self):
        assert verify_asym_lemma(3, sample_count=25, seed=3)

    def test_deterministic_for_fixed_seed(self):
        assert verify_asym_lemma(2, 5, seed=42) == \
            verify_asym_lemma(2, 5, seed=42)

    def test_needs_a_sample(self):
        # a check over no sample points would pass while checking nothing
        for count in (0, -3):
            with pytest.raises(ValueError, match="at least one sample"):
                verify_asym_lemma(2, count, seed=2024)


@lru_cache(maxsize=None)
def _mn_by_fractions(n):
    """M_n built in monomials and Fraction arithmetic, each Vandermonde
    factor divided by j - i as it is taken: the oracle for compute_Mn."""
    poly = MPoly((), {(): 1})
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            poly *= (var(f"x{j}") - var(f"x{i}")) * Fraction(1, j - i)
    for p in range(1, n + 1):
        for q in range(p + 1, n + 1):
            dq = fwd_diff(poly, f"x{q}")
            poly = poly + dq + fwd_diff(dq, f"x{p}")
    return poly


class TestIntegerCore:
    def test_mn_expands_to_the_fraction_construction(self):
        for n in range(1, 6):
            assert _expand(compute_Mn(n)) == _mn_by_fractions(n), n

    def test_mn_has_int_coefficients(self):
        assert {type(c) for c in compute_Mn(5).values()} == {int}


class TestIntegrality:
    def test_no_assert_statements(self):
        # integrality checks must not vanish under python -O
        src = Path(altsign.__file__).parent
        for path in sorted(src.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            found = [node.lineno for node in ast.walk(tree)
                     if isinstance(node, ast.Assert)]
            assert not found, (path.name, found)
