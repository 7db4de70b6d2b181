"""Property tests for the polynomial core: MPoly, and Gf as its
specialization to the registry (P, Q, R) with int coefficients."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from altsign.exactalg import _PQR, Gf, MPoly, _remap, det_gf  # noqa: E402
from test_exactalg import det_cofactor  # noqa: E402


def gf_from_mpoly(p: MPoly) -> Gf:
    """The Gf value of a polynomial whose variables are among P, Q, R, with
    integer coefficients: the oracle that reads a plain MPoly result as a
    Gf."""
    for i, v in enumerate(p.vars):
        if v not in _PQR and any(exp[i] for exp in p.terms):
            raise ValueError(f"unexpected variable {v!r} in {p}")
    terms = _remap(p, _PQR)
    for c in terms.values():
        if c.denominator != 1:
            raise ValueError(f"non-integer coefficient {c} in {p}")
    return Gf._make(_PQR, {e: int(c) for e, c in terms.items()})


props = settings(max_examples=40, deadline=None)

exps = st.tuples(*[st.integers(0, 2)] * 3)
fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def mpolys(draw, coeffs=fractions):
    """Up to four terms over a registry of at most three of four names."""
    names = draw(st.lists(st.sampled_from(["x1", "x2", "P", "Q"]),
                          unique=True, max_size=3))
    terms = draw(st.dictionaries(exps.map(lambda e: e[:len(names)]),
                                 coeffs, max_size=4))
    return MPoly(names, terms)


gfs = st.dictionaries(exps, st.integers(-4, 4), max_size=4).map(Gf)
# integer combinations of 1, P R, R and Q, the entries det_gf takes
affine_gfs = st.dictionaries(
    st.sampled_from([(0, 0, 0), (1, 0, 1), (0, 0, 1), (0, 1, 0)]),
    st.integers(-4, 4), max_size=4).map(Gf)
affine_matrices = st.integers(0, 4).flatmap(
    lambda n: st.lists(st.lists(affine_gfs, min_size=n, max_size=n),
                       min_size=n, max_size=n))


def as_mpoly(g: Gf) -> MPoly:
    return MPoly(("P", "Q", "R"), g.terms)


def coefficient_types(p):
    return {type(c) for c in p.terms.values()}


def check_ring_axioms(a, b, c, zero, one):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a * zero == zero
    assert a - a == zero and a - b == -(b - a)
    assert a ** 2 == a * a


@props
@given(mpolys(), mpolys(), mpolys())
def test_mpoly_ring_axioms(a, b, c):
    check_ring_axioms(a, b, c, MPoly((), {(): 0}), MPoly((), {(): 1}))


@props
@given(gfs, gfs, gfs)
def test_gf_ring_axioms(a, b, c):
    check_ring_axioms(a, b, c, Gf(), Gf.weight())


@props
@given(mpolys(), mpolys())
def test_mpoly_exact_divide_undoes_product(a, b):
    if b:
        assert (a * b).exact_divide(b) == a


@props
@given(gfs, gfs)
def test_gf_exact_divide_undoes_product(a, b):
    if b:
        assert (a * b).exact_divide(b) == a


@props
@given(gfs, gfs, st.integers(-3, 3))
def test_gf_ops_match_mpoly_ops(a, b, k):
    ma, mb = as_mpoly(a), as_mpoly(b)
    pairs = [(a + b, ma + mb), (a - b, ma - mb), (a * b, ma * mb),
             (-a, -ma), (a ** 2, ma ** 2), (a * k, ma * k), (k - a, k - ma)]
    if b:
        pairs.append(((a * b).exact_divide(b), (ma * mb).exact_divide(mb)))
    for g, m in pairs:
        assert type(g) is Gf
        assert gf_from_mpoly(m).terms == g.terms
        assert str(gf_from_mpoly(m)) == str(g)


@props
@given(mpolys(), mpolys(), gfs)
def test_equal_values_hash_alike(a, b, g):
    m = as_mpoly(g)
    padded = m + MPoly.variable("x1") - MPoly.variable("x1")
    for x, y in [(a, b), (a + b, b + a), (a - a, 0), (g, m), (g, padded),
                 (m, padded), (g - g + 3, 3), (a * 0 + Fraction(1, 2),
                                               Fraction(1, 2))]:
        if x == y:
            assert hash(x) == hash(y)
    assert g == m and g == padded


@props
@given(mpolys(), mpolys(), gfs, gfs)
def test_coefficient_types(a, b, g, h):
    for p in (a + b, a - b, a * b, -a, a ** 2, a * Fraction(1, 3), 2 * a,
              a.exact_divide(3), g + a, a * g, g - a):
        assert type(p) is MPoly
        assert coefficient_types(p) <= {int, Fraction}
    for p in (g + h, g - h, g * h, -g, g ** 2, 3 * g, g - 1, 1 - g):
        assert type(p) is Gf
        assert coefficient_types(p) <= {int}


int_mpolys = mpolys(st.integers(-4, 4))


@props
@given(int_mpolys, int_mpolys, gfs, st.sampled_from(["x1", "x2", "P", "Q"]),
       st.integers(-3, 3))
def test_int_operands_give_int_coefficients(a, b, g, x, k):
    # coefficients are kept as given: no Fraction unless one is put in
    for p in (a + b, a - b, a * b, -a, a ** 3, k * a, a + k, k - a, a * g,
              g - a, a.shift_var(x, k), a.substitute(x, k),
              a.substitute(x, b)):
        assert coefficient_types(p) <= {int}
    assert type(a.evaluate({v: k for v in a.vars})) is int


@props
@given(mpolys(), st.sampled_from(["x1", "x2", "P", "Q"]),
       st.integers(-3, 3), st.integers(-3, 3))
def test_shifts_compose(p, x, a, b):
    # E^a E^b = E^(a+b)
    assert p.shift_var(x, a).shift_var(x, b) == p.shift_var(x, a + b)


@props
@given(affine_matrices, st.sampled_from(["", "zero row", "equal rows"]))
@example([[Gf()] * 3] * 3, "")
def test_grid_determinant_matches_elimination(m, singular):
    # a zero row, or two equal rows, makes every point singular
    if singular == "zero row" and m:
        m = [[Gf()] * len(m)] + m[1:]
    elif singular == "equal rows" and len(m) > 1:
        m = [m[0]] + m[:1] + m[2:]
    else:
        singular = ""
    d = det_gf(m)
    assert d == det_cofactor(m)
    assert not singular or d == 0
