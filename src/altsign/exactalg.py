"""Exact arithmetic kernel: generalized binomial coefficients, one sparse
multivariate polynomial type over the rationals (``MPoly``) with its
specialization to generating functions in P, Q, R over the integers
(``Gf``), and fraction-free determinants.

Python's unbounded ``int`` and ``fractions.Fraction`` serve as the scalar
types; nothing in this package ever touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub

from .errors import NonDivisibleError


def binomial(a: int, k: int) -> int:
    """Binomial coefficient a(a-1)...(a-k+1)/k! for an integer a of either sign.

    Returns 0 for k < 0.  Satisfies the Pascal recurrence and the
    upper-negation rule C(a,k) = (-1)^k C(k-a-1,k) for all integers a.
    """
    if k < 0:
        return 0
    c = 1
    for i in range(k):
        # c equals C(a, i) here, so c*(a-i) is divisible by i+1 exactly
        c = c * (a - i) // (i + 1)
    return c


def _var_key(name: str):
    """Canonical sort key for variable names: alphabetic stem, then the
    numeric suffix compared as a number ("x2" before "x10")."""
    stem = name.rstrip("0123456789")
    suffix = name[len(stem):]
    return (stem, int(suffix) if suffix else -1)


def _sorted_vars(names):
    return tuple(sorted(set(names), key=_var_key))


def _divide_sparse(num, den, coeff_div):
    """Exact division of sparse exponent-dict polynomials.  Terms are keyed
    by equal-length exponent tuples; leading terms are taken in graded-lex
    order.  coeff_div(x, y, rem) divides two coefficients.  Raises
    NonDivisibleError (with the residual terms as witness) when the
    division is not exact."""
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    if not num:
        return {}
    order = lambda e: (sum(e), e)
    den_lead = max(den, key=order)
    den_lead_c = den[den_lead]
    rem = dict(num)
    quot = {}
    while rem:
        lead = max(rem, key=order)
        exp = tuple(map(sub, lead, den_lead))
        if any(e < 0 for e in exp):
            raise NonDivisibleError("not divisible", remainder=rem)
        # the leading exponent falls strictly each round, so exp is new
        c = quot[exp] = coeff_div(rem[lead], den_lead_c, rem)
        for de, dc in den.items():
            key = tuple(map(add, exp, de))
            v = rem.get(key, 0) - c * dc
            if v:
                rem[key] = v
            else:
                rem.pop(key, None)
    return quot


def _exact(value):
    """value unchanged if it is an int or a Fraction; evaluation points
    must be exact, as coefficients must."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"evaluation point {value!r} is not an int or a "
                        f"Fraction")
    return value


class MPoly:
    """Sparse multivariate polynomial over Fraction coefficients.

    Stored as an ordered variable registry plus a map from exponent tuples
    (one slot per registered variable) to nonzero coefficients of type
    _ring; _scalars combine with a polynomial.  Gf narrows both to int.
    Values are immutable in use: all operations return new polynomials.
    """

    __slots__ = ("vars", "terms")
    _scalars = (int, Fraction)
    _ring = Fraction

    def __init__(self, vars=(), terms=None):
        self.vars = tuple(vars)
        clean = {}
        if terms:
            for exp, c in terms.items():
                if not isinstance(c, self._scalars):
                    raise TypeError(f"coefficient {c!r} is not an exact "
                                    f"{self._ring.__name__}")
                if c:
                    clean[tuple(exp)] = self._ring(c)
        self.terms = clean

    @classmethod
    def _make(cls, vars_, terms):
        """Wrap a finished exponent dict (nonzero coefficients of the ring)
        without copying or cleaning it."""
        p = object.__new__(cls)
        p.vars = vars_
        p.terms = terms
        return p

    @staticmethod
    def constant(c) -> "MPoly":
        return MPoly((), {(): c})

    @staticmethod
    def variable(name: str) -> "MPoly":
        return MPoly._make((name,), {(1,): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _scalar(self, c):
        """The scalar c as a polynomial of this class over this registry."""
        return self._make(self.vars,
                          {(0,) * len(self.vars): self._ring(c)} if c else {})

    def _align(self, other):
        """(result class, registry, terms of self, terms of other) over one
        registry, or None when other is neither a polynomial nor a scalar of
        the ring.  A Gf meeting a plain MPoly is computed as an MPoly."""
        if isinstance(other, MPoly):
            if type(other) is type(self):
                if other.vars == self.vars:
                    return type(self), self.vars, self.terms, other.terms
            else:
                self, other = _as_mpoly(self), _as_mpoly(other)
            union = _sorted_vars(self.vars + other.vars)
            return MPoly, union, _remap(self, union), _remap(other, union)
        if isinstance(other, self._scalars):
            return type(self), self.vars, self.terms, self._scalar(other).terms
        return None

    def __eq__(self, other):
        aligned = self._align(other)
        if aligned is None:
            return NotImplemented
        return aligned[2] == aligned[3]

    def __hash__(self):
        # equal over any registries -> equal hash; a constant hashes as its value
        if self.degree() <= 0:
            return hash(sum(self.terms.values(), Fraction(0)))
        return hash(frozenset(
            (frozenset((v, e) for v, e in zip(self.vars, exp) if e), c)
            for exp, c in self.terms.items()))

    def __add__(self, other):
        aligned = self._align(other)
        if aligned is None:
            return NotImplemented
        cls, vars_, a, b = aligned
        out = dict(a)
        for exp, c in b.items():
            v = out.get(exp, 0) + c
            if v:
                out[exp] = v
            else:
                del out[exp]
        return cls._make(vars_, out)

    __radd__ = __add__

    def __neg__(self):
        return self._make(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, (MPoly, self._scalars)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, self._scalars):
            if not other:
                return self._make(self.vars, {})
            return self._make(self.vars,
                              {e: c * other for e, c in self.terms.items()})
        aligned = self._align(other)
        if aligned is None:
            return NotImplemented
        cls, vars_, a, b = aligned
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                key = tuple(map(add, e1, e2))
                v = out.get(key, 0) + c1 * c2
                if v:
                    out[key] = v
                else:
                    out.pop(key, None)
        return cls._make(vars_, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = self._scalar(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def substitute(self, name: str, value) -> "MPoly":
        """Replace a variable by a Fraction, int or MPoly."""
        if name not in self.vars:
            return self
        p = _as_mpoly(self)
        idx = p.vars.index(name)
        rest_vars = p.vars[:idx] + p.vars[idx + 1:]
        groups = {}  # the terms by their power of name, one product each
        for exp, c in p.terms.items():
            groups.setdefault(exp[idx], {})[exp[:idx] + exp[idx + 1:]] = c
        out = MPoly._make(rest_vars, {})
        for e, group in groups.items():
            out += MPoly._make(rest_vars, group) * value ** e
        return out

    def shift_var(self, name: str, c) -> "MPoly":
        """The substitution x -> x + c (used by the shift operator E_x)."""
        return self.substitute(name, MPoly.variable(name) + c)

    def evaluate(self, assignment: dict) -> Fraction:
        """Evaluate with every registered variable assigned a number."""
        total = Fraction(0)
        values = [Fraction(_exact(assignment[v])) for v in self.vars]
        for exp, c in self.terms.items():
            term = c
            for v, e in zip(values, exp):
                if e:
                    term *= v ** e
            total += term
        return total

    _divide_coeff = staticmethod(lambda x, y, _rem: Fraction(x, y))

    def exact_divide(self, other) -> "MPoly":
        """Exact division in the polynomial ring; NonDivisibleError otherwise."""
        aligned = self._align(other)
        if aligned is None:
            raise TypeError(f"cannot divide {self!r} by {other!r}")
        cls, vars_, a, b = aligned
        return cls._make(vars_, _divide_sparse(a, b, cls._divide_coeff))

    @staticmethod
    def _print_key(exp):
        # total degree descending, then exponents descending in var order
        return (-sum(exp), tuple(-x for x in exp))

    def __str__(self):
        names = _sorted_vars(self.vars)
        terms = _remap(self, names)
        if not terms:
            return "0"
        return _join_terms([(terms[e], _monomial_str(names, e))
                            for e in sorted(terms, key=self._print_key)])

    __repr__ = __str__


def _as_mpoly(p: MPoly) -> MPoly:
    """p itself, or a Gf as an MPoly with Fraction coefficients."""
    if type(p) is MPoly:
        return p
    return MPoly._make(p.vars, {e: Fraction(c) for e, c in p.terms.items()})


def _remap(p: MPoly, target_vars):
    """Exponent dict of p re-expressed over the registry target_vars."""
    pos = {v: i for i, v in enumerate(target_vars)}
    width = len(target_vars)
    out = {}
    for exp, c in p.terms.items():
        new = [0] * width
        for v, e in zip(p.vars, exp):
            if e:
                new[pos[v]] += e
        out[tuple(new)] = out.get(tuple(new), 0) + c
    return {e: c for e, c in out.items() if c}


def _monomial_str(names, exp):
    factors = []
    for v, e in zip(names, exp):
        if e == 1:
            factors.append(v)
        elif e:
            factors.append(f"{v}^{e}")
    return "*".join(factors)


def _join_terms(parts):
    """Render (coefficient, monomial-string) pairs as a sum."""
    chunks = []
    for coeff, mono in parts:
        neg = coeff < 0
        mag = -coeff if neg else coeff
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not chunks:
            chunks.append(f"-{body}" if neg else body)
        else:
            chunks.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(chunks)


_PQR = ("P", "Q", "R")


class Gf(MPoly):
    """Generating-function value: an MPoly over the fixed registry
    (P, Q, R) with int coefficients, so its terms map
    (deg P, deg Q, deg R) -> coefficient.  Arithmetic among Gf values and
    ints stays in Gf; with a plain MPoly it gives an MPoly."""

    __slots__ = ()
    _scalars = int
    _ring = int

    def __init__(self, terms=None):
        super().__init__(_PQR, terms)

    @classmethod
    def zero(cls) -> "Gf":
        return cls._make(_PQR, {})

    @classmethod
    def one(cls) -> "Gf":
        return cls._make(_PQR, {(0, 0, 0): 1})

    @classmethod
    def monomial(cls, p=0, q=0, r=0, coeff=1) -> "Gf":
        return cls({(p, q, r): coeff})

    @classmethod
    def p_plus_q_minus_1(cls) -> "Gf":
        return cls._make(_PQR, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 0): -1})

    # Bound in Gf's own namespace as well, so that a per-class profile
    # counts Gf's adds and divisions apart from MPoly's.
    __add__ = __radd__ = MPoly.__add__
    exact_divide = MPoly.exact_divide

    def __mul__(self, other):
        # The one body of its own: adding the three exponent slots by hand
        # is twice as fast as the generic tuple sum on the large Bareiss
        # products of the determinant route.
        if type(other) is not Gf:
            return MPoly.__mul__(self, other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                v = out.get(key, 0) + c1 * c2
                if v:
                    out[key] = v
                else:
                    out.pop(key, None)
        return Gf._make(_PQR, out)

    __rmul__ = __mul__

    def evaluate(self, p=1, q=1, r=1) -> int:
        p, q, r = map(_exact, (p, q, r))
        return sum(c * p ** ep * q ** eq * r ** er
                   for (ep, eq, er), c in self.terms.items())

    @staticmethod
    def _divide_coeff(x, y, rem):
        q_, r_ = divmod(x, y)
        if r_:
            raise NonDivisibleError("coefficient not divisible", remainder=rem)
        return q_

    @staticmethod
    def _print_key(exp):
        # R-major order, matching how these polynomials are written by hand:
        # R-degree descending, then total P,Q-degree ascending, then P before Q.
        return (-exp[2], exp[0] + exp[1], -exp[0])


def gf_from_mpoly(p: MPoly) -> Gf:
    """Convert a polynomial whose variables are among P, Q, R (with integer
    coefficients) into a Gf value."""
    for i, v in enumerate(p.vars):
        if v not in _PQR and any(exp[i] for exp in p.terms):
            raise ValueError(f"unexpected variable {v!r} in {p}")
    terms = _remap(p, _PQR)
    for c in terms.values():
        if c.denominator != 1:
            raise ValueError(f"non-integer coefficient {c} in {p}")
    return Gf._make(_PQR, {e: int(c) for e, c in terms.items()})


def _exact_div_element(a, b):
    if isinstance(a, MPoly):
        return a.exact_divide(b)
    if isinstance(a, Fraction) or isinstance(b, Fraction):
        return Fraction(a) / Fraction(b)
    q, r = divmod(a, b)
    if r:
        raise NonDivisibleError(f"{a} not divisible by {b}", remainder=r)
    return q


def det_fraction_free(matrix):
    """Determinant of a square matrix of int, Fraction or MPoly (Gf
    included) entries by Bareiss elimination.  Each step divides exactly by
    the previous pivot, so no rational functions appear.  A zero pivot is
    swapped with a row below; if none is nonzero the result is the zero of
    the entry type.  The 0x0 determinant is the int 1.
    """
    n = len(matrix)
    if n == 0:
        return 1
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix is not square")
    if n == 1:
        return matrix[0][0]
    m = [list(row) for row in matrix]
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
                return matrix[0][0] - matrix[0][0]
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                t = m[i][j] * pivot - m[i][k] * m[k][j]
                m[i][j] = t if prev is None else _exact_div_element(t, prev)
        prev = pivot
    d = m[n - 1][n - 1]
    return d if sign == 1 else -d
