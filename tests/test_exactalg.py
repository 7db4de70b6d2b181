import importlib.util
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import altsign
from altsign.errors import NonDivisibleError
from altsign.exactalg import (Gf, MPoly, _newton_coordinates, binomial,
                              det_fraction_free, det_gf, monomials)


def _run_optimized(code):
    """Run code under python -O: (whether it exited 0, its stderr)."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(altsign.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    return done.returncode == 0, done.stderr


def var(name):
    return MPoly.variable(name)


def gf_value(g, p=1, q=1, r=1):
    """g at P = p, Q = q, R = r: at the default 1s, the number of objects
    a generating function weighs."""
    return g.evaluate({"P": p, "Q": q, "R": r})


def det_cofactor(m):
    """Naive cofactor expansion, the independent determinant oracle."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = None
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = m[0][j] * det_cofactor(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def det_bareiss(m):
    """Bareiss elimination over polynomial entries, each step divided by the
    previous pivot through exact_divide: the determinant oracle beyond the
    orders det_cofactor reaches, independent of det_gf's interpolation."""
    n = len(m)
    m = [list(row) for row in m]
    sign = 1
    prev = None  # pivot of the previous sweep; None means divide by one
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                t = m[i][j] * pivot - m[i][k] * m[k][j]
                m[i][j] = t if prev is None else t.exact_divide(prev)
        prev = pivot
    if not n:
        return 1
    return m[-1][-1] if sign == 1 else -m[-1][-1]


class TestBinomial:
    def test_examples(self):
        assert binomial(5, 2) == 10
        assert binomial(-1, 2) == 1  # (-1)(-2)/2!
        assert binomial(3, -1) == 0

    def test_pascal_and_negation_rules(self):
        for a in range(-20, 21):
            for k in range(-2, 21):
                assert binomial(a, k) == binomial(a - 1, k) + binomial(a - 1, k - 1)
                assert binomial(a, k) == (-1) ** k * binomial(k - a - 1, k) or k < 0
                if k >= 0:
                    assert binomial(a, k) == (-1) ** k * binomial(k - a - 1, k)

    def test_matches_factorial_definition(self):
        from math import comb
        for a in range(0, 15):
            for k in range(0, 15):
                assert binomial(a, k) == comb(a, k)


class TestMPoly:
    def test_shift_var(self):
        p = var("x2") - var("x1")
        assert p.shift_var("x2", 1) == var("x2") - var("x1") + 1

    def test_exact_divide(self):
        y1, y2 = var("Y1"), var("Y2")
        assert ((y2 - y1) * (y2 + y1)).exact_divide(y2 - y1) == y2 + y1
        with pytest.raises(ZeroDivisionError,
                           match="^polynomial division by zero$"):
            y1.exact_divide(MPoly())

    def test_substitute_scalar(self):
        p = var("x1") * var("l")
        assert p.substitute("l", 3) == 3 * var("x1")

    def test_substitute_poly(self):
        p = var("x1") ** 2
        q = p.substitute("x1", var("l") - 3)
        assert q == var("l") ** 2 - 6 * var("l") + 9
        with pytest.raises(ValueError,
                           match="^negative power of a polynomial$"):
            p ** -1

    def test_ring_axioms_smoke(self):
        rng = random.Random(7)
        for _ in range(20):
            a, b, c = (random_poly(rng) for _ in range(3))
            assert a * (b + c) == a * b + a * c
            assert (a + b) * c == a * c + b * c
            assert a + b == b + a
            assert a * b == b * a

    def test_exact_divide_roundtrip(self):
        rng = random.Random(11)
        for _ in range(30):
            p = random_poly(rng)
            q = random_poly(rng)
            if not q:
                continue
            assert (p * q).exact_divide(q) == p

    def test_non_divisible_reports_remainder(self):
        x = var("x1")
        with pytest.raises(NonDivisibleError) as info:
            (x ** 2 + 1).exact_divide(x)
        assert info.value.remainder

    def test_evaluate(self):
        p = var("x1") * var("x2") + Fraction(1, 2)
        assert p.evaluate({"x1": 2, "x2": 3}) == Fraction(13, 2)

    def test_str_canonical(self):
        p = var("x1") + var("x2") ** 2 - 1
        assert str(p) == "x2^2 + x1 - 1"

    def test_hash_agrees_with_equality(self):
        # constants hash as their value; unused registry slots do not count
        assert len({MPoly((), {(): 1}), 1}) == 1
        assert len({MPoly((), {(): Fraction(1, 2)}), Fraction(1, 2)}) == 1
        assert len({MPoly((), {(): 0}), 0}) == 1
        assert len({var("x1") - var("x1") + 3, 3}) == 1
        padded = var("x1") - var("x1") + var("x2")
        assert padded == var("x2") and hash(padded) == hash(var("x2"))

    def test_exact_divide_by_scalar_keeps_fractions(self):
        x = var("x1")
        q = (2 * x + 1).exact_divide(2)
        assert q == x + Fraction(1, 2)
        assert all(type(c) is Fraction for c in q.terms.values())

    def test_inexact_coefficients_rejected(self):
        for bad in (0.1, "1/2", None):
            with pytest.raises(TypeError):
                MPoly(("x1",), {(1,): bad})
            with pytest.raises(TypeError):
                var("x1") + bad
        with pytest.raises(TypeError):
            MPoly((), {(): 0.5})
        with pytest.raises(TypeError):
            var("x1").shift_var("x1", 0.5)
        # coefficients are kept as given; a bool is stored as an int
        assert all(type(c) is int
                   for c in MPoly(("x1",), {(1,): 3, (0,): True}).terms.values())

    def test_inexact_evaluation_points_rejected(self):
        x = var("x")
        for bad in (0.1, "1/2"):
            with pytest.raises(TypeError):
                x.evaluate({"x": bad})
        assert x.evaluate({"x": Fraction(1, 2)}) == Fraction(1, 2)
        assert (x * x).evaluate({"x": -3}) == 9

    def test_equals_gf_and_hashes_alike(self):
        assert var("P") == Gf.weight(p=1)
        assert hash(var("P")) == hash(Gf.weight(p=1))
        mixed = var("P") * var("x1") + 2 * Gf.weight(p=1)
        assert type(mixed) is MPoly
        assert all(type(c) is int for c in mixed.terms.values())
        assert mixed - var("P") * var("x1") == 2 * Gf.weight(p=1)


def random_poly(rng, names=("x1", "x2", "Y1")):
    p = MPoly((), {(): 0})
    for _ in range(rng.randint(0, 4)):
        term = MPoly((), {(): rng.randint(-3, 3)})
        for name in names:
            term = term * var(name) ** rng.randint(0, 2)
        p += term
    return p


class TestGf:
    def test_arith_and_eval(self):
        w = Gf.weight(1, 0, 1) + Gf.weight(0, 1, 1) + 2 * Gf.weight(0, 0, 1)
        assert gf_value(w) == 4
        assert gf_value(w, p=2, q=3, r=1) == 7
        assert not (w - w)

    def test_p_plus_q_minus_1(self):
        b = Gf.weight(o=1)
        assert gf_value(b) == 1
        assert b * Gf.weight() == b

    def test_weight_is_the_explicit_product(self):
        P, Q, R = (Gf.weight(p=1), Gf.weight(q=1), Gf.weight(r=1))
        bracket = P + Q - 1
        for p, q, r in ((0, 0, 0), (1, 0, 2), (0, 3, 1), (2, 1, 0)):
            base = Gf.weight()
            for factor, e in ((P, p), (Q, q), (R, r)):
                for _ in range(e):
                    base = base * factor
            assert Gf.weight(p, q, r) == base
            assert Gf.weight(p, q, r, 1) == base * bracket
            assert Gf.weight(p, q, r, 2) == base * bracket * bracket
        assert Gf.weight() == Gf.weight()
        assert str(Gf.weight(o=2)) == "1 - 2*P - 2*Q + P^2 + 2*P*Q + Q^2"

    def test_str_matches_handwritten_order(self):
        g = (Gf.weight(r=2) + 4 * Gf.weight(r=1) + Gf.weight(p=1, r=1)
             + Gf.weight(q=1, r=1) + Gf.weight())
        assert str(g) == "R^2 + 4*R + P*R + Q*R + 1"

    def test_exact_divide(self):
        a = Gf.weight(p=1) + Gf.weight()
        b = Gf.weight(q=1) + 2 * Gf.weight()
        assert (a * b).exact_divide(a) == b
        with pytest.raises(NonDivisibleError):
            (a * b + Gf.weight()).exact_divide(a)

    def test_coefficients_stay_int(self):
        g = 3 * Gf.weight(p=1) * Gf.weight(o=1) - 2
        assert type(g) is Gf
        assert all(type(c) is int for c in g.terms.values())
        assert all(type(c) is int
                   for c in (g ** 3).exact_divide(g).terms.values())
        with pytest.raises(TypeError):
            g * Fraction(1, 2)
        with pytest.raises(TypeError):
            g + Fraction(1)
        with pytest.raises(TypeError):
            Gf({(0, 0, 0): Fraction(1)})
        with pytest.raises(TypeError):
            Gf({(0, 0, 0): 1.0})

    def test_inexact_evaluation_points_rejected(self):
        g = Gf.weight(p=1)
        with pytest.raises(TypeError):
            gf_value(g, p=0.5)
        assert gf_value(g, p=Fraction(1, 2)) == Fraction(1, 2)
        assert gf_value(g + Gf.weight(r=2), p=2, r=-1) == 3

    def test_hash_agrees_with_equality(self):
        assert len({Gf.weight(), 1}) == 1
        assert len({Gf(), 0}) == 1
        assert len({3 * Gf.weight(), 3, Gf.weight(q=1)}) == 2


class TestDeterminant:
    def test_identity(self):
        m = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        assert det_fraction_free(m) == 1

    def test_empty_and_single(self):
        assert det_fraction_free([]) == 1
        assert det_fraction_free([[5]]) == 5
        with pytest.raises(ValueError, match="^matrix is not square$"):
            det_fraction_free([[1, 2], [3]])

    def test_gf_example(self):
        # oracle: 2x2 cofactor expansion done by hand
        R, P, Q = Gf.weight(r=1), Gf.weight(p=1), Gf.weight(q=1)
        one = Gf.weight()
        m = [[R + one, R],
             [R * (P + Q + 2 * one), R * (P + Q + 3 * one) + one]]
        expected = (R * R + 4 * R + P * R + Q * R + one)
        assert det_cofactor(m) == expected
        assert det_bareiss(m) == expected
        # Q R is not affine in P R, R and Q
        with pytest.raises(ValueError):
            det_gf(m)
        m = [[R + one, P * R - Q], [2 * Q + R, one - P * R]]
        expected = (one + R - P * R - 2 * P * R * R - 2 * P * Q * R
                    + 2 * Q * Q + Q * R)
        assert det_cofactor(m) == expected
        assert det_gf(m) == expected
        assert type(det_gf([])) is Gf and det_gf([]) == 1
        with pytest.raises(ValueError):
            det_gf([[one, R], [one]])

    def test_grid_determinant_refuses_other_monomials(self):
        R, P, Q = Gf.weight(r=1), Gf.weight(p=1), Gf.weight(q=1)
        for entry in (P, Q * R, R * R, P * R * R):
            with pytest.raises(ValueError, match="not affine"):
                det_gf([[Gf.weight(), entry], [R, Q]])

    def test_equal_rows_zero(self):
        # equal rows, and a column with no nonzero pivot, give the int 0
        for m in ([[3, -4], [3, -4]], [[2, 0, 1], [5, 0, 7], [1, 0, 4]],
                  [[0, 1, 2], [0, 3, 4], [0, 5, 6]]):
            d = det_fraction_free(m)
            assert d == 0 and type(d) is int, m

    def test_against_cofactor_random(self):
        # mostly zero entries force pivot swaps; large ones keep the exact
        # division honest beyond machine words
        rng = random.Random(23)
        for n in range(1, 6):
            for _ in range(20):
                m = [[rng.choice((0, 0, 0, 1, -1, 2, 3 ** 40, -(5 ** 30)))
                      for _ in range(n)] for _ in range(n)]
                assert det_fraction_free(m) == det_cofactor(m), m

    def test_only_int_entries(self):
        # no Fraction or polynomial is eliminated, not even at order one
        for bad in (Fraction(1, 2), Fraction(3), Gf.weight(), Gf.weight(q=1),
                    var("x1"), MPoly((), {(): 2})):
            with pytest.raises(TypeError):
                det_fraction_free([[bad]])
            with pytest.raises(TypeError):
                det_fraction_free([[1, 2], [bad, 4]])
        assert det_fraction_free([[True, 2], [0, True]]) == 1

    def test_bareiss_oracle_against_cofactor(self):
        # the tests' polynomial oracle, on the matrices the kernel refuses
        rng = random.Random(29)
        for n in range(1, 5):
            for _ in range(8):
                m = [[random_poly(rng, ("x1", "P")) for _ in range(n)]
                     for _ in range(n)]
                assert det_bareiss(m) == det_cofactor(m)
        x = var("x1")
        assert det_bareiss([[x, x + 1], [x, x + 1]]) == 0

    def test_agreement_check(self):
        R, P, Q = Gf.weight(r=1), Gf.weight(p=1), Gf.weight(q=1)
        one = Gf.weight()
        m = [[R + one, P * R - Q, R], [2 * Q + R, one - P * R, Q],
             [one, 3 * R, P * R + Q]]
        d = det_cofactor(m)
        assert det_gf(m) == d
        with pytest.raises(ValueError, match="not affine"):
            det_gf([[Q * R]])
        assert det_gf([]) == one

    def test_int_matrix(self):
        rng = random.Random(5)
        for n in range(1, 6):
            m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            assert det_fraction_free(m) == det_cofactor(m)

    def test_newton_gives_monomial_coefficients(self):
        # x^2 - 3x + 5 at x = 0, 1, 2; x^3 at 0..4, one node more than needed
        def newton(values):
            return monomials(_newton_coordinates(values))
        assert newton([5, 3, 3]) == [5, -3, 1]
        assert newton([0, 1, 8, 27, 64]) == [0, 0, 0, 1, 0]
        assert newton([7]) == [7]

    def test_non_integer_interpolation_raises_under_optimize(self):
        # C(x, 2) is integer-valued at 0, 1, 2 but has monomial coefficients
        # -1/2 and 1/2: the k! divisibility check must survive python -O
        ok, err = _run_optimized(
            "from altsign.exactalg import monomials, _newton_coordinates\n"
            "try:\n"
            "    monomials(_newton_coordinates([0, 0, 1]))\n"
            "except ArithmeticError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
        assert ok, err


class TestTracerTable:
    """The benchmark's tracer finds each function it wraps by looking the
    name up in its owner's own namespace (Gf.__add__ must be bound in Gf,
    not only inherited from MPoly)."""

    def test_every_entry_is_found(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("_altsign_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        for name, module, attr in tracer.WRAPPED + tracer.COUNTED:
            assert tracer._lookup(module, attr) is not None, name
        # reflected operators are the same functions, so one wrapper each
        assert vars(Gf)["__radd__"] is vars(Gf)["__add__"]
        assert vars(Gf)["__rmul__"] is vars(Gf)["__mul__"]
