"""Exact arithmetic kernel: generalized binomial coefficients, sparse
multivariate polynomials over the rationals, three-variable generating
functions with integer coefficients, and fraction-free determinants.

Python's unbounded ``int`` and ``fractions.Fraction`` serve as the scalar
types; nothing in this package ever touches floating point.
"""

from __future__ import annotations

from fractions import Fraction

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
    """Exact division of sparse exponent-dict polynomials (shared by MPoly
    and Gf).  Terms are keyed by equal-length exponent tuples; leading terms
    are taken in graded-lex order.  Raises NonDivisibleError (with the
    residual terms as witness) when the division is not exact."""
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
        exp = tuple(a - b for a, b in zip(lead, den_lead))
        if any(e < 0 for e in exp):
            raise NonDivisibleError("not divisible", remainder=rem)
        c = coeff_div(rem[lead], den_lead_c, rem)
        quot[exp] = quot.get(exp, 0) + c
        for de, dc in den.items():
            key = tuple(a + b for a, b in zip(exp, de))
            v = rem.get(key, 0) - c * dc
            if v:
                rem[key] = v
            else:
                rem.pop(key, None)
    return quot


class MPoly:
    """Sparse multivariate polynomial over Fraction coefficients.

    Stored as an ordered variable registry plus a map from exponent tuples
    (one slot per registered variable) to nonzero Fraction coefficients.
    Values are immutable in use: all operations return new polynomials.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars=(), terms=None):
        self.vars = tuple(vars)
        clean = {}
        if terms:
            for exp, c in terms.items():
                c = Fraction(c)
                if c:
                    clean[tuple(exp)] = c
        self.terms = clean

    @classmethod
    def constant(cls, c) -> "MPoly":
        c = Fraction(c)
        return cls((), {(): c} if c else {})

    @classmethod
    def variable(cls, name: str) -> "MPoly":
        return cls((name,), {(1,): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _coerce(self, other):
        if isinstance(other, MPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MPoly.constant(other)
        return None

    def _aligned(self, other: "MPoly"):
        """Remap both polynomials onto the union registry."""
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        union = _sorted_vars(self.vars + other.vars)
        return union, _remap(self, union), _remap(other, union)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        _, a, b = self._aligned(other)
        return a == b

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __hash__(self):
        # equal over any registries -> equal hash; a constant hashes as its value
        if self.degree() <= 0:
            return hash(sum(self.terms.values(), Fraction(0)))
        return hash(frozenset(
            (frozenset((v, e) for v, e in zip(self.vars, exp) if e), c)
            for exp, c in self.terms.items()))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        vars_, a, b = self._aligned(other)
        out = dict(a)
        for exp, c in b.items():
            v = out.get(exp, 0) + c
            if v:
                out[exp] = v
            else:
                out.pop(exp, None)
        return MPoly(vars_, out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return MPoly(self.vars, {})
            return MPoly(self.vars, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, MPoly):
            return NotImplemented
        vars_, a, b = self._aligned(other)
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                v = out.get(key, 0) + c1 * c2
                if v:
                    out[key] = v
                else:
                    out.pop(key, None)
        return MPoly(vars_, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = MPoly.constant(1)
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
        idx = self.vars.index(name)
        rest_vars = self.vars[:idx] + self.vars[idx + 1:]
        if isinstance(value, (int, Fraction)):
            value_poly = None
        else:
            value_poly = value
        out = MPoly(rest_vars, {})
        powers = {0: MPoly.constant(1)}
        for exp, c in self.terms.items():
            e = exp[idx]
            rest = exp[:idx] + exp[idx + 1:]
            if value_poly is None:
                out += MPoly(rest_vars, {rest: c * Fraction(value) ** e})
            else:
                if e not in powers:
                    powers[e] = value_poly ** e
                out += MPoly(rest_vars, {rest: c}) * powers[e]
        return out

    def shift_var(self, name: str, c) -> "MPoly":
        """The substitution x -> x + c (used by the shift operator E_x)."""
        return self.substitute(name, MPoly.variable(name) + Fraction(c))

    def evaluate(self, assignment: dict) -> Fraction:
        """Evaluate with every registered variable assigned a number."""
        total = Fraction(0)
        values = [Fraction(assignment[v]) for v in self.vars]
        for exp, c in self.terms.items():
            term = c
            for v, e in zip(values, exp):
                if e:
                    term *= v ** e
            total += term
        return total

    def coefficient(self, name: str, k: int) -> "MPoly":
        """Coefficient of name**k, as a polynomial in the other variables."""
        if name not in self.vars:
            return self if k == 0 else MPoly(self.vars, {})
        idx = self.vars.index(name)
        rest_vars = self.vars[:idx] + self.vars[idx + 1:]
        out = {}
        for exp, c in self.terms.items():
            if exp[idx] == k:
                out[exp[:idx] + exp[idx + 1:]] = c
        return MPoly(rest_vars, out)

    def exact_divide(self, other) -> "MPoly":
        """Exact division in the polynomial ring; NonDivisibleError otherwise."""
        other = self._coerce(other)
        vars_, a, b = self._aligned(other)

        def coeff_div(x, y, _rem):
            return x / y

        quot = _divide_sparse(a, b, coeff_div)
        return MPoly(vars_, quot)

    def _canonical_terms(self):
        union = _sorted_vars(self.vars)
        terms = _remap(self, union)
        order = sorted(terms, key=lambda e: (-sum(e), tuple(-x for x in e)))
        return union, terms, order

    def __str__(self):
        union, terms, order = self._canonical_terms()
        if not order:
            return "0"
        parts = []
        for exp in order:
            parts.append((terms[exp], _monomial_str(union, exp)))
        return _join_terms(parts)

    __repr__ = __str__


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


class Gf:
    """Generating-function value: a polynomial in P, Q, R with integer
    coefficients, stored as a map (deg P, deg Q, deg R) -> coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for exp, c in terms.items():
                if c:
                    clean[tuple(exp)] = c
        self.terms = clean

    @classmethod
    def zero(cls) -> "Gf":
        return cls()

    @classmethod
    def one(cls) -> "Gf":
        return cls({(0, 0, 0): 1})

    @classmethod
    def monomial(cls, p=0, q=0, r=0, coeff=1) -> "Gf":
        return cls({(p, q, r): coeff})

    @classmethod
    def p_plus_q_minus_1(cls) -> "Gf":
        return cls({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 0): -1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = Gf({(0, 0, 0): other})
        if not isinstance(other, Gf):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if set(self.terms) <= {(0, 0, 0)}:  # a constant hashes as its value
            return hash(self.terms.get((0, 0, 0), 0))
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = Gf({(0, 0, 0): other})
        if not isinstance(other, Gf):
            return NotImplemented
        out = dict(self.terms)
        for exp, c in other.terms.items():
            v = out.get(exp, 0) + c
            if v:
                out[exp] = v
            else:
                del out[exp]
        return Gf(out)

    __radd__ = __add__

    def __neg__(self):
        return Gf({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = Gf({(0, 0, 0): other})
        if not isinstance(other, Gf):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return Gf({e: c * other for e, c in self.terms.items()})
        if not isinstance(other, Gf):
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                v = out.get(key, 0) + c1 * c2
                if v:
                    out[key] = v
                else:
                    out.pop(key, None)
        return Gf(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = Gf.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def evaluate(self, p=1, q=1, r=1) -> int:
        return sum(c * p ** ep * q ** eq * r ** er
                   for (ep, eq, er), c in self.terms.items())

    def exact_divide(self, other: "Gf") -> "Gf":
        def coeff_div(x, y, rem):
            q_, r_ = divmod(x, y)
            if r_:
                raise NonDivisibleError("coefficient not divisible",
                                        remainder=rem)
            return q_

        return Gf(_divide_sparse(self.terms, other.terms, coeff_div))

    def __str__(self):
        # R-major order, matching how these polynomials are written by hand:
        # R-degree descending, then total P,Q-degree ascending, then P before Q.
        if not self.terms:
            return "0"
        order = sorted(self.terms,
                       key=lambda e: (-e[2], e[0] + e[1], -e[0]))
        parts = [(self.terms[e], _monomial_str(("P", "Q", "R"), e))
                 for e in order]
        return _join_terms(parts)

    __repr__ = __str__


def gf_from_mpoly(p: MPoly) -> Gf:
    """Convert a polynomial whose variables are among P, Q, R (with integer
    coefficients) into a Gf value."""
    for v in p.vars:
        if v not in ("P", "Q", "R"):
            for exp in p.terms:
                if exp[p.vars.index(v)]:
                    raise ValueError(f"unexpected variable {v!r} in {p}")
    pos = {v: p.vars.index(v) for v in p.vars}
    out = {}
    for exp, c in p.terms.items():
        if c.denominator != 1:
            raise ValueError(f"non-integer coefficient {c} in {p}")
        key = tuple(exp[pos[v]] if v in pos else 0 for v in ("P", "Q", "R"))
        out[key] = out.get(key, 0) + c.numerator
    return Gf(out)


def _exact_div_element(a, b):
    if isinstance(a, (MPoly, Gf)):
        return a.exact_divide(b)
    if isinstance(a, Fraction) or isinstance(b, Fraction):
        return Fraction(a) / Fraction(b)
    q, r = divmod(a, b)
    if r:
        raise NonDivisibleError(f"{a} not divisible by {b}", remainder=r)
    return q


def det_fraction_free(matrix):
    """Determinant of a square matrix over an integral domain (int, Fraction,
    MPoly or Gf entries) by Bareiss elimination.

    All intermediate divisions are exact, so no rational functions appear.
    The 0x0 determinant is 1.
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
