"""
Working in the universal coefficient field
==========================================

Scalars are finite sums sum_i c_i T^{e_i} with complex c_i and exact
rational exponents e_i, ordered by the valuation v(x) = min e_i.  Division
and exp work to any requested order, so the same object serves both exact
identities and truncated numerics.
"""

from fractions import Fraction

from toriclg import (
    NovikovScalar,
    configured,
    novikov_exp,
    render_scalar,
)

F = Fraction
T = NovikovScalar.monomial

x = T(F(1, 2), 1.0) + T(F(3, 2), -2.0)
y = NovikovScalar.one() + T(F(1, 3), 1.0)
print("x =", render_scalar(x))
print("y =", render_scalar(y))
print("x * y =", render_scalar(x * y))
print("v(x) =", x.valuation(), "  v(x*y) =", (x * y).valuation())

# inversion is a Newton iteration; the window comes from the configuration
with configured(truncation_order=F(3)):
    inv = y.invert()
    print("\n1/y to order 3 =", render_scalar(inv))
    print("y * (1/y) =", render_scalar(y * inv))

    # exp turns sums of positive valuation into products
    s, t = T(F(1, 3), 1.0), T(F(1, 2), -2.0)
    print("exp(s + t) =", render_scalar(novikov_exp(s + t)))
    print("exp(s) exp(t) =", render_scalar(novikov_exp(s) * novikov_exp(t)))

# truncated scalars carry their window along and arithmetic respects it
a = NovikovScalar([(F(0), 1.0), (F(2), 5.0)], trunc=F(4))
b = T(F(3), 1.0)
print("\na =", render_scalar(a))
print("a + b =", render_scalar(a + b))
print("a * b =", render_scalar(a * b), " (window shifts with the valuation)")

# serialization keeps exponents exact
d = x.to_json_dict()
print("\nJSON form of x:", d)
print("round trip equal:", NovikovScalar.from_json_dict(d) == x)
