"""The operator formula route: the polynomial M_n, difference operators,
closed-form (s,t)-tree counts, trapezoid counts and generating functions
with prescribed 1-column positions, the base-length polynomial t_n, and
exact verification of the two symmetrizer identities the derivation rests
on.

Every operator is a polynomial in the shifts E_x: p(x) -> p(x+1):

    forward difference:   fwd = E_x - Id
    backward difference:  bwd = Id - E_x^{-1}
    weight factors:       E (1 - P bwd)      = E + P (1 - E)
                          E^{-1} (1 + Q fwd) = E^{-1} + Q (1 - E^{-1})

Operators in distinct variables commute, as do all operators in the same
variable.  A position x fixes both the operator on one variable and that
variable's value v: (-fwd)^a = (1 - E)^a (x < 0) or bwd^a = (1 - E^{-1})^a
(x > 0), times the weight factor.  Read at v, a polynomial in E^e
(e = +-1) is a signed binomial combination of the values at v + e k, so
each step (_step) substitutes shifted points and shifts no polynomial, and
every formula here folds one step per variable.  Only compute_Mn applies
fwd to a whole polynomial.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache

from .errors import InvalidShapeError, ShapeMismatchError
from .exactalg import (Gf, MPoly, binomial, forward_differences,
                       gf_from_mpoly)


def xvar(i: int) -> str:
    return f"x{i}"


def shift(p: MPoly, name: str, k: int = 1) -> MPoly:
    return p.shift_var(name, k)


def fwd_diff(p: MPoly, name: str) -> MPoly:
    return p.shift_var(name, 1) - p


def bwd_diff(p: MPoly, name: str) -> MPoly:
    return p - p.shift_var(name, -1)


def _denominator(n: int) -> int:
    """D_n = prod_{i<j} (j - i): compute_Mn(n) is D_n M_n."""
    return math.prod(j - i for j in range(1, n + 1) for i in range(1, j))


@lru_cache(maxsize=None)
def compute_Mn(n: int) -> MPoly:
    """D_n M_n, the integer polynomial prod_{p<q} (1 + fwd_q + fwd_p fwd_q)
    applied to prod_{i<j} (x_j - x_i), with D_n = _denominator(n); M_n
    itself has total degree n(n-1)/2 and M_1 = 1.  Every fold divides by
    D_n once, at its end, so the operators run over the integers.

    Cached per n; practical up to n = 6 or so.
    """
    if n < 1:
        raise ValueError("n must be positive")
    poly = MPoly.constant(1)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            poly = poly * (MPoly.variable(xvar(j)) - MPoly.variable(xvar(i)))
    for p_ in range(1, n + 1):
        for q_ in range(p_ + 1, n + 1):
            dq = fwd_diff(poly, xvar(q_))
            poly = poly + dq + fwd_diff(dq, xvar(p_))
    return poly


def _integer(v) -> int:
    if v.denominator != 1:
        raise ArithmeticError(f"operator value {v} is not an integer")
    return v.numerator


def _step(p: MPoly, i: int, x: int, value, weighted: bool = False) -> MPoly:
    """The one operator step of x_i at the signed position x, read at
    x_i = value: (1 - E^e)^a, times E^e + w (1 - E^e) when weighted, with
    (a, e, w) = (-x-1, 1, P) for x < 0 and (x-1, -1, Q) for x > 0."""
    a, e, w = (-x - 1, 1, "P") if x < 0 else (x - 1, -1, "Q")
    at = [p.substitute(xvar(i), value + e * k)
          for k in range(a + 1 + weighted)]

    def diffs(b, s):  # (1 - E^e)^b E^{es}, read at value
        return sum((-1) ** k * math.comb(b, k) * at[s + k]
                   for k in range(b + 1))

    return (diffs(a, 1) + MPoly.variable(w) * diffs(a + 1, 0) if weighted
            else diffs(a, 0))


def _fold(n: int, xs, values, weighted: bool = False) -> MPoly:
    """M_n after the step of every variable x_i at (xs[i-1], values[i-1])."""
    p = compute_Mn(n)
    for i, (x, value) in enumerate(zip(xs, values), start=1):
        p = _step(p, i, x, value, weighted)
    return p * Fraction(1, _denominator(n))


def _at(x: int, l):
    """The value of x_i at the signed position x: x itself for x < 0,
    x + l - 3 for x > 0; l may be a number or the symbolic polynomial l."""
    return x if x < 0 else x + l - 3


def eval_Mn(n: int, values) -> int:
    """M_n at any integer point, monotone or not (no operator acts)."""
    values = tuple(values)
    if len(values) != n:
        raise ShapeMismatchError(f"need {n} values, got {len(values)}")
    return _integer(_fold(n, [-1] * n, values).evaluate({}))


def count_sttrees_formula(n: int, s, t, b) -> int:
    """Closed-form count of (s,t)-trees of order n with diagonal bottom
    entries b: apply (-fwd_{x_1})^{s_1} ... bwd_{x_n}^{t_n} to M_n and
    evaluate at x = b.  As positions: s_k is x = -s_k - 1, t_k is
    x = t_k + 1, and a free variable is x = -1 (no difference).  Outside
    sttree.formula_domain (where enumerate_sttrees refuses the input or the
    formula miscounts) it raises InvalidShapeError."""
    from .sttree import formula_domain
    s, t, b = tuple(s), tuple(t), tuple(b)
    if len(s) + len(t) > n:
        raise ShapeMismatchError("len(s) + len(t) exceeds n")
    if len(b) != n:
        raise ShapeMismatchError(f"need {n} bottom entries, got {len(b)}")
    if any(k < 0 for k in s + t):
        raise InvalidShapeError("truncation lengths must be non-negative")
    if not formula_domain(n, s, t, b):
        raise InvalidShapeError(f"the closed formula does not apply to "
                                f"n={n}, s={s}, t={t}, b={b}")
    xs = ([-k - 1 for k in s] + [-1] * (n - len(s) - len(t))
          + [k + 1 for k in t])
    return _integer(_fold(n, xs, b).evaluate({}))


def _positions(n: int, j):
    """Check the signed positions j_1 < ... < j_m < 0 < j_{m+1} < ... < j_n;
    j, or None outside the labeled range -n..n (the value is 0 there)."""
    j = tuple(j)
    if any(x == 0 for x in j) or list(j) != sorted(set(j)):
        raise ValueError(f"positions must be strictly increasing and nonzero: {j}")
    if len(j) != n:
        raise ShapeMismatchError(f"need {n} positions, got {len(j)}")
    if j and (j[0] < -n or j[-1] > n):
        return None
    return j


def count_ast_prescribed(n: int, l: int, j) -> int:
    """Number of (n,l)-trapezoids whose 1-columns sit at the signed
    positions j_1 < ... < j_m < 0 < j_{m+1} < ... < j_n; zero when the
    positions leave the labeled range."""
    j = _positions(n, j)
    if j is None:
        return 0
    return _integer(_fold(n, j, [_at(x, l) for x in j]).evaluate({}))


def gf_ast_prescribed(n: int, l: int, j) -> Gf:
    """P,Q-generating function of the (n,l)-trapezoids with 1-columns at
    positions j: the operator product E (1 - P bwd) (-fwd)^{-j_i-1} for the
    negative positions and E^{-1} (1 + Q fwd) bwd^{j_i-1} for the positive
    ones, applied to M_n.  At P = Q = 1 this reduces to the plain count."""
    if l < 2:
        raise ValueError("the weighted operator formula needs l >= 2")
    j = _positions(n, j)
    if j is None:
        return Gf.zero()
    return gf_from_mpoly(_fold(n, j, [_at(x, l) for x in j], weighted=True))


def all_positions(n: int):
    """All admissible 1-column position vectors: m negative labels from
    -n..-1 and n-m positive labels from 1..n, for m = 0..n."""
    if n < 1:
        raise ValueError("n must be positive")
    for m in range(n + 1):
        for neg in itertools.combinations(range(-n, 0), m):
            for pos in itertools.combinations(range(1, n + 1), n - m):
                yield m, neg + pos


def _position_sum(n: int, l, weighted: bool) -> MPoly:
    """The operator values of all_positions(n) summed, each times R^m when
    weighted.  A depth-first walk over increasing labels: x_i takes each
    label that leaves enough larger ones for x_{i+1}..x_n, so the position
    vectors that share a prefix share its steps."""
    if n < 1:
        raise ValueError("n must be positive")
    if weighted and l < 2:
        raise ValueError("the weighted operator formula needs l >= 2")
    labels = [*range(-n, 0), *range(1, n + 1)]
    r = MPoly.variable("R") if weighted else 1

    def walk(p, i, first):
        if i > n:
            return p
        total = MPoly.constant(0)
        for k in range(first, n + i):
            x = labels[k]
            below = walk(_step(p, i, x, _at(x, l), weighted), i + 1, k + 1)
            total += r * below if x < 0 else below
        return total

    return walk(compute_Mn(n), 1, 0) * Fraction(1, _denominator(n))


def gf_ast_via_operator(n: int, l: int) -> Gf:
    """Full generating function by the operator route: sum R^m times the
    prescribed-position P,Q-polynomials over all position vectors."""
    return gf_from_mpoly(_position_sum(n, l, True))


def count_ast_via_operator(n: int, l: int) -> int:
    return _integer(_position_sum(n, l, False).evaluate({}))


@lru_cache(maxsize=None)
def t_polynomial(n: int) -> MPoly:
    """The number of (n,l)-trapezoids as a polynomial in the symbolic base
    length l: the prescribed-position operator values summed over all
    positions, with x_i = j_i + l - 3 substituted symbolically for the
    positive positions.  Valid counts for l >= 2; t_n(1) counts the quasi
    variant."""
    return _position_sum(n, MPoly.variable("l"), False)


def t_value(n: int, l: int) -> int:
    return _integer(t_polynomial(n).evaluate({"l": l}))


def falling_factorial_coeffs(p: MPoly, name: str = "l"):
    """Coefficients c_k with p = sum_k c_k * name*(name-1)*...*(name-k+1),
    via Newton's forward differences at 0."""
    diffs = forward_differences(p.evaluate({name: i})
                                for i in range(max(p.degree(), 0) + 1))
    coeffs = [Fraction(d, math.factorial(k)) for k, d in enumerate(diffs)]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def asymM_constant_term(n: int, x) -> int:
    """S(0) for the quotient S of the antisymmetrization of
    F = prod (1+Y_i)^{x_i} prod_{i<j} (1+Y_j+Y_i Y_j) by the Vandermonde
    product prod_{i<j} (Y_j - Y_i), read off without dividing.

    The Vandermonde product is homogeneous of degree n(n-1)/2 with
    coefficient 1 at Y^delta, delta = (0, 1, ..., n-1), so S(0) is the
    coefficient of Y^delta in the antisymmetrization: the sum over
    permutations sigma of sign(sigma) times F's coefficient at the exponent
    vector sigma.  No factor lowers an exponent, so F is built with every
    term that has an exponent above n-1 dropped."""
    x = tuple(x)
    if len(x) != n or any(v < 0 for v in x):
        raise ValueError("x must be n non-negative integers")

    def unit(*idx):
        return tuple(idx.count(i) for i in range(n))

    factors = [{unit(*[i] * k): binomial(x[i], k)
                for k in range(min(x[i], n - 1) + 1)} for i in range(n)]
    factors += [{unit(): 1, unit(j): 1, unit(i, j): 1}
                for i in range(n) for j in range(i + 1, n)]
    poly = {unit(): 1}
    for factor in factors:
        product = {}
        for e, c in poly.items():
            for f, d in factor.items():
                g = tuple(a + b for a, b in zip(e, f))
                if max(g) < n:
                    product[g] = product.get(g, 0) + c * d
        poly = product
    return sum(_sign(sigma) * poly.get(sigma, 0)
               for sigma in itertools.permutations(range(n)))


def verify_asymM(n: int, x) -> bool:
    """Check the constant-term representation of M_n at a non-negative
    integer point: the constant term of ASym[F] / Vandermonde
    (asymM_constant_term) equals M_n(x)."""
    return asymM_constant_term(n, x) == eval_Mn(n, x)


def _sign(sigma):
    sign = 1
    for i in range(len(sigma)):
        for j in range(i + 1, len(sigma)):
            if sigma[i] > sigma[j]:
                sign = -sign
    return sign


def verify_asym_lemma(n: int, sample_count: int = 100, seed: int = 2024) -> bool:
    """Randomized exact check of the antisymmetrizer lemma

        ASym [ prod_{i<j} (1+X_j+X_i X_j) prod_i X_i^{i-1} /
               (1 - X_i X_{i+1} ... X_n) ]
          = prod_i 1/(1-X_i) prod_{i<j} (1+X_i+X_j)(X_j-X_i)/(1-X_i X_j)

    at sample_count rational points avoiding all poles (every nonempty
    subset product must differ from 1).  Exact rational arithmetic, so any
    agreement failure is decisive."""
    if sample_count < 1:
        raise ValueError(f"need at least one sample, got {sample_count}")
    rng = random.Random(seed)
    for _ in range(sample_count):
        x = _sample_point(rng, n)
        lhs = Fraction(0)
        for sigma in itertools.permutations(range(n)):
            y = [x[sigma[i]] for i in range(n)]
            term = Fraction(_sign(sigma))
            for i in range(n):
                for j in range(i + 1, n):
                    term *= 1 + y[j] + y[i] * y[j]
            for i in range(n):
                prod_tail = Fraction(1)
                for j in range(i, n):
                    prod_tail *= y[j]
                term *= y[i] ** i / (1 - prod_tail)
            lhs += term
        rhs = Fraction(1)
        for i in range(n):
            rhs /= 1 - x[i]
        for i in range(n):
            for j in range(i + 1, n):
                rhs *= (1 + x[i] + x[j]) * (x[j] - x[i]) / (1 - x[i] * x[j])
        if lhs != rhs:
            return False
    return True


def _sample_point(rng, n):
    while True:
        x = [Fraction(rng.randint(-19, 19), rng.randint(2, 13))
             for _ in range(n)]
        ok = True
        for size in range(1, n + 1):
            for subset in itertools.combinations(x, size):
                prod = Fraction(1)
                for v in subset:
                    prod *= v
                if prod == 1:
                    ok = False
        if ok and len(set(x)) == n:
            return x
