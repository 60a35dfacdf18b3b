"""Scalars of the universal Novikov field with exact rational exponents.

A scalar is a finite sum  sum_i  c_i * T^{e_i}  with complex coefficients
c_i and rational exponents e_i, together with a truncation order: exponents
at or above the truncation order are unknown and silently dropped.  A
truncation order of ``None`` means the scalar is exact (all of its terms are
known).  Coefficient arithmetic is complex floating point, with magnitudes
below the configured ``eps_coeff`` pruned from every result.

Exponents are exact and sit on an integer lattice: a scalar stores one
denominator ``_den`` (the least that makes every exponent and the
truncation order integral), the sorted exponent numerators ``_e``, the
coefficients ``_c`` and the truncation numerator ``_t``.  Operations rescale
their operands to the lcm of the denominators, work on Python ints and
reduce the result by one gcd, so equal scalars have equal fields.
``Fraction`` appears only at the boundary: the constructor and exponent
arguments, ``terms``, ``valuation``, ``leading``, ``trunc`` and JSON.  Every
result stores ``0j + c``, so no stored coefficient has a negative-zero part
(the JSON output prints the sign of zero).

The valuation of a scalar is the least exponent carrying a nonzero
coefficient, and ``math.inf`` for the zero scalar.  Scalars with
nonnegative valuation form the subring on which ``novikov_exp`` below
operates.

``invert`` multiplies only on the window each Newton step makes correct.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from numbers import Number
from typing import Iterable, Union

from .config import get_config
from .errors import InvalidPolytope, NotInLambdaZero, ZeroLeadingCoefficient

ExponentLike = Union[Fraction, int, str]
INF = math.inf


def _as_fraction(e: ExponentLike) -> Fraction:
    if isinstance(e, Fraction):
        return e
    if isinstance(e, (int, str)):
        return Fraction(e)
    raise TypeError(f"exponent must be rational, got {type(e).__name__}: {e!r}")


def json_fraction(x, what: str) -> Fraction:
    """A rational field read from JSON: a float as the decimal it is
    written as, not its binary expansion; booleans are refused, anything
    else as ``Fraction`` reads it."""
    if isinstance(x, bool):
        raise InvalidPolytope(f"{what} must be a rational number, got {x!r}")
    return Fraction(repr(x)) if isinstance(x, float) else Fraction(x)


def _fill(s: "NovikovScalar", den: int, es, cs, t: int | None) -> "NovikovScalar":
    """Store sorted distinct exponent numerators ``es`` over ``den`` with
    their coefficients: drops exponents at or above ``t`` and coefficients
    within ``eps_coeff`` of zero (a NaN is not), clears negative zeros and
    reduces ``den``."""
    if t is not None and es and es[-1] >= t:
        k = bisect_left(es, t)
        es, cs = es[:k], cs[:k]
    eps = get_config().eps_coeff
    es = [e for e, c in zip(es, cs) if not abs(c) <= eps]
    cs = [0j + c for c in cs if not abs(c) <= eps]
    if den != 1:
        g = math.gcd(den, *es) if t is None else math.gcd(den, t, *es)
        if g != 1:
            den //= g
            es = [e // g for e in es]
            t = None if t is None else t // g
    s._den, s._e, s._c, s._t = den, tuple(es), tuple(cs), t
    return s


def _make(den: int, es, cs, t: int | None) -> "NovikovScalar":
    return _fill(object.__new__(NovikovScalar), den, es, cs, t)


def _rescaled(s: "NovikovScalar", den: int):
    """Exponent and truncation numerators of ``s`` over a multiple ``den``
    of its denominator."""
    f = den // s._den
    if f == 1:
        return s._e, s._t
    return [e * f for e in s._e], None if s._t is None else s._t * f


def _common(a: "NovikovScalar", b: "NovikovScalar"):
    """(den, a's exponents, a's order, b's exponents, b's order) over the
    lcm of the two denominators."""
    if a._den == b._den:
        return a._den, a._e, a._t, b._e, b._t
    den = math.lcm(a._den, b._den)
    return (den, *_rescaled(a, den), *_rescaled(b, den))


def _precedes(a: "NovikovScalar", b: "NovikovScalar") -> bool:
    """A total order on the stored values; coefficients are compared only
    between scalars with the same exponents."""
    ka, kb = (len(a._e), a._den, a._e), (len(b._e), b._den, b._e)
    if ka != kb:
        return ka < kb
    return [(c.real, c.imag) for c in a._c] < [(c.real, c.imag) for c in b._c]


def _ratio(e: int, den: int) -> str:
    """str(Fraction(e, den)) without building the Fraction."""
    g = math.gcd(e, den)
    return str(e // g) if g == den else f"{e // g}/{den // g}"


def _min_order(a: int | None, b: int | None) -> int | None:
    return b if a is None else a if b is None else min(a, b)


class NovikovScalar:
    """Immutable truncated series  sum c_i T^{e_i}."""

    __slots__ = ("_den", "_e", "_c", "_t")

    def __init__(
        self,
        terms: Iterable[tuple[ExponentLike, complex]] = (),
        trunc: Fraction | int | str | None = None,
    ):
        tr = None if trunc is None else _as_fraction(trunc)
        pairs = [(_as_fraction(e), complex(c)) for e, c in terms]
        den = math.lcm(
            1 if tr is None else tr.denominator,
            *(e.denominator for e, _ in pairs),
        )
        acc: dict[int, complex] = {}
        for e, c in pairs:
            k = e.numerator * (den // e.denominator)
            acc[k] = acc.get(k, 0j) + c
        es = sorted(acc)
        t = None if tr is None else tr.numerator * (den // tr.denominator)
        _fill(self, den, es, [acc[e] for e in es], t)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, trunc: Fraction | None = None) -> "NovikovScalar":
        return cls((), trunc)

    @classmethod
    def one(cls) -> "NovikovScalar":
        return _make(1, (0,), (1.0,), None)

    @classmethod
    def from_number(cls, c: complex) -> "NovikovScalar":
        return _make(1, (0,), (complex(c),), None)

    @classmethod
    def monomial(
        cls, exp: ExponentLike, coeff: complex = 1.0, trunc=None
    ) -> "NovikovScalar":
        return cls(((_as_fraction(exp), complex(coeff)),), trunc)

    @classmethod
    def from_lattice(cls, den: int, es, cs, t: int | None = None) -> "NovikovScalar":
        """``lattice`` read back: cs at the sorted exponents es/den, mod T^(t/den)."""
        return _make(den, es, cs, t)

    # -- basic accessors -------------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[Fraction, complex], ...]:
        d = self._den
        return tuple((Fraction(e, d), c) for e, c in zip(self._e, self._c))

    def lattice(self) -> tuple[int, tuple[int, ...], tuple[complex, ...]]:
        """The terms without Fractions: (denominator, exponent numerators,
        coefficients)."""
        return self._den, self._e, self._c

    @property
    def trunc(self) -> Fraction | None:
        return None if self._t is None else Fraction(self._t, self._den)

    def is_zero(self) -> bool:
        """True when no terms are known; with a finite truncation order this
        means zero modulo that order."""
        return not self._e

    def valuation(self) -> Fraction | float:
        """Least exponent with nonzero coefficient; ``inf`` for zero."""
        return Fraction(self._e[0], self._den) if self._e else INF

    def leading(self) -> tuple[Fraction, complex]:
        if not self._e:
            raise ZeroLeadingCoefficient("zero scalar has no leading term")
        return Fraction(self._e[0], self._den), self._c[0]

    def coeff_at(self, exp: ExponentLike) -> complex:
        e = _as_fraction(exp)
        k, r = divmod(e.numerator * self._den, e.denominator)
        i = bisect_left(self._e, k)
        if r or i == len(self._e) or self._e[i] != k:
            return 0j
        return self._c[i]

    def max_abs_coeff(self) -> float:
        return max(map(abs, self._c), default=0.0)

    def in_lambda_zero(self) -> bool:
        return self.is_zero() or self._e[0] >= 0

    def in_lambda_plus(self) -> bool:
        return self.is_zero() or self._e[0] > 0

    # -- ring operations -------------------------------------------------------

    def _coerce(self, other) -> "NovikovScalar | None":
        if isinstance(other, NovikovScalar):
            return other
        if isinstance(other, Number):
            return NovikovScalar.from_number(other)
        return None

    def _plus(self, o: "NovikovScalar", negate: bool) -> "NovikovScalar":
        den, ea, ta, eb, tb = _common(self, o)
        acc = dict(zip(ea, self._c))
        for e, c in zip(eb, [0j - c for c in o._c] if negate else o._c):
            acc[e] = acc[e] + c if e in acc else c
        es = sorted(acc)
        return _make(den, es, [acc[e] for e in es], _min_order(ta, tb))

    def __add__(self, other) -> "NovikovScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, False)

    __radd__ = __add__

    def __neg__(self) -> "NovikovScalar":
        return _make(self._den, self._e, [0j - c for c in self._c], self._t)

    def __sub__(self, other) -> "NovikovScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, True)

    def __rsub__(self, other) -> "NovikovScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o._plus(self, True)

    def __mul__(self, other) -> "NovikovScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self, o
        # sums of products round by the order they are added in, so fix an
        # order of the operands that makes a * b == b * a bit for bit
        if len(a._e) > 1 and len(b._e) > 1 and _precedes(b, a):
            a, b = b, a
        den, ea, ta, eb, tb = _common(a, b)
        # knowing a mod T^s and b mod T^t gives ab mod T^min(s + val b, t + val a),
        # where a scalar that is zero mod T^t still has valuation >= t
        low_a = ea[0] if ea else ta
        low_b = eb[0] if eb else tb
        tr = _min_order(
            None if ta is None or low_b is None else ta + low_b,
            None if tb is None or low_a is None else tb + low_a,
        )
        out: dict[int, complex] = {}
        for e1, c1 in zip(ea, a._c):
            for e2, c2 in zip(eb, b._c):
                e = e1 + e2
                if tr is not None and e >= tr:
                    break  # eb is increasing
                out[e] = out.get(e, 0j) + c1 * c2
        es = sorted(out)
        return _make(den, es, [out[e] for e in es], tr)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "NovikovScalar":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.invert() ** (-n)
        result = NovikovScalar.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def shift(self, exp: ExponentLike) -> "NovikovScalar":
        """Multiply by the exact monomial T^exp."""
        d = _as_fraction(exp)
        den = math.lcm(self._den, d.denominator)
        es, t = _rescaled(self, den)
        k = d.numerator * (den // d.denominator)
        return _make(
            den, [e + k for e in es], self._c, None if t is None else t + k
        )

    def truncate(self, order: ExponentLike) -> "NovikovScalar":
        """Forget everything at or above T^order."""
        o = _as_fraction(order)
        return self.with_order(o if self._t is None else min(o, self.trunc))

    def with_order(self, order: ExponentLike) -> "NovikovScalar":
        """The same terms taken as known modulo T^order: the truncation
        order is replaced, also when that raises it, and terms at or above
        it are dropped."""
        o = _as_fraction(order)
        den = math.lcm(self._den, o.denominator)
        t = o.numerator * (den // o.denominator)
        return _make(den, _rescaled(self, den)[0], self._c, t)

    def invert(self) -> "NovikovScalar":
        """Multiplicative inverse.

        Exact for a single-term scalar.  Otherwise the unit part u is
        inverted by Newton doubling (Brent-Kung) up to the knowledge window
        t of the input, or to the configured default order for exact
        inputs: an inverse g known modulo T^k becomes g(2 - ug) modulo
        T^min(2k, t), computed from u and g cut to that window only.
        """
        if self.is_zero():
            raise ZeroLeadingCoefficient("cannot invert zero scalar")
        den, v, c0 = self._den, self._e[0], self._c[0]
        if len(self._e) == 1:
            return _make(
                den, (-v,), (1.0 / c0,), None if self._t is None else self._t - 2 * v
            )
        s = self
        if s._t is None:
            order = get_config().truncation_order
            if order is None:
                raise ValueError(
                    "inverting a multi-term scalar needs a finite truncation order"
                )
            s = s.truncate(s.valuation() + order)
            den, v = s._den, s._e[0]
        # s = c0 T^v (1 + r), r strictly higher order
        unit = _make(den, [e - v for e in s._e], [c / c0 for c in s._c], s._t - v)
        two = NovikovScalar.from_number(2.0)
        d, t = unit._den, unit._t
        inv = _make(d, (0,), (1.0,), t)
        # a unit whose higher terms all fell below eps_coeff is 1 to its
        # whole window
        known = unit._e[1] if len(unit._e) > 1 else t
        while known < t:
            known = min(2 * known, t)
            g = inv.with_order(Fraction(known, d))
            inv = g * (two - unit.with_order(Fraction(known, d)) * g)
        return inv.shift(Fraction(-v, den)) * (1.0 / c0)

    def __truediv__(self, other) -> "NovikovScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.invert()

    def __rtruediv__(self, other) -> "NovikovScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.invert()

    # -- comparisons -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self._den, self._e, self._c, self._t) == (o._den, o._e, o._c, o._t)

    def __hash__(self) -> int:
        return hash((self._den, self._e, self._c, self._t))

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        d = self._den
        return {
            "terms": [
                {"exp": _ratio(e, d), "re": c.real, "im": c.imag}
                for e, c in zip(self._e, self._c)
            ],
            "trunc": "inf" if self._t is None else _ratio(self._t, d),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "NovikovScalar":
        trunc = d.get("trunc", "inf")
        return cls(
            (
                (json_fraction(t["exp"], "exp"), complex(t["re"], t["im"]))
                for t in d["terms"]
            ),
            None if trunc == "inf" else json_fraction(trunc, "trunc"),
        )

    def __repr__(self) -> str:
        return render_scalar(self)


def novikov_exp(x: NovikovScalar) -> NovikovScalar:
    """exp on the valuation >= 0 subring: split x = x0 + x+, with x0 the
    exponent-zero coefficient, and return e^{x0} * sum x+^k / k!."""
    if not x.in_lambda_zero():
        raise NotInLambdaZero(f"exp needs valuation >= 0, got {x.valuation()}")
    x0 = x.coeff_at(0)
    k = bisect_right(x._e, 0)
    xplus = _make(x._den, x._e[k:], x._c[k:], x._t)
    head = cmath.exp(x0)
    if xplus.is_zero():
        return _make(x._den, (0,), (head,), x._t)
    window = x.trunc if x.trunc is not None else get_config().truncation_order
    out = NovikovScalar.one().truncate(window)
    power = NovikovScalar.one().truncate(window)
    k = 0
    while power.valuation() < window:
        k += 1
        power = power * xplus * (1.0 / k)
        out = out + power
        if power.is_zero():
            break
    return out * head


def format_fraction(e: Fraction) -> str:
    """Exact human-friendly exponent: decimal when terminating, else p/q."""
    if e.denominator == 1:
        return str(e.numerator)
    den = e.denominator
    while den % 2 == 0:
        den //= 2
    while den % 5 == 0:
        den //= 5
    if den == 1:
        value = e.numerator / e.denominator
        return repr(value)
    return f"{e.numerator}/{e.denominator}"


def _format_coeff(c: complex) -> str:
    # display rounding only; the stored coefficients stay untouched
    if not cmath.isfinite(c):  # as Python prints it: no part is hidden
        return repr(c.real) if c.imag == 0 else repr(c)
    scale = max(abs(c.real), abs(c.imag), 1.0)
    if abs(c.imag) <= 1e-12 * scale:
        r = c.real
        if r == int(r):
            return str(int(r))
        return f"{r:.10g}"
    if abs(c.real) <= 1e-12 * scale:
        return f"{c.imag:.10g}j"
    return f"({c.real:.10g}{c.imag:+.10g}j)"


def render_scalar(s: NovikovScalar) -> str:
    if s.is_zero():
        body = "0"
    else:
        parts = []
        for e, c in s.terms:
            cs = _format_coeff(c)
            if e == 0:
                parts.append(cs)
            else:
                tpow = "T" if e == 1 else f"T^{format_fraction(e)}"
                if cs == "1":
                    parts.append(tpow)
                elif cs == "-1":
                    parts.append(f"-{tpow}")
                else:
                    parts.append(f"{cs} {tpow}")
        body = " + ".join(parts).replace("+ -", "- ")
    if s.trunc is not None:
        body += f" + O(T^{format_fraction(s.trunc)})"
    return body
