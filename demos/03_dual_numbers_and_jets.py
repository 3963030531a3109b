"""Second-order jets: exact derivatives of curve formulas.

A Jet2 carries value, first and second derivative through arithmetic and
the six functions of the expression language. Its first two slots never
read the third, so (f, f') alone is the dual number f + f'*eps with
eps^2 = 0. The float walk over the same parsed tree gives the jet's value
slot bit for bit, without the derivatives.
"""

import math

from ruled4.dual import Jet2
from ruled4.errors import DomainError
from ruled4.expr import evaluate_float, evaluate_jet, parse_expr


def main():
    print("Jets carry f, f' and f'' through the product and chain rules:")
    # t^2 sin t at t = 1.3, against the hand expansion
    t = 1.3
    ast = parse_expr("t^2 * sin(t)")
    jet = evaluate_jet(ast, t)
    hand1 = 2 * t * math.sin(t) + t * t * math.cos(t)
    hand2 = (2 - t * t) * math.sin(t) + 4 * t * math.cos(t)
    print(f"  value  f   = {jet.f:.15f}")
    print(f"  first  f'  = {jet.d1:.15f}   hand {hand1:.15f}")
    print(f"  second f'' = {jet.d2:.15f}   hand {hand2:.15f}")
    assert abs(jet.d1 - hand1) <= 1e-14 and abs(jet.d2 - hand2) <= 1e-14

    print("\nThe (f, f') slots are a dual number: they never read f''")
    # (x^2 + 1) / x from two seeds that differ only in the second slot
    one = Jet2.constant(1.0)
    for x in (Jet2(2.0, 1.0, 0.0), Jet2(2.0, 1.0, 9.0)):
        q = (x * x + one) / x
        print(f"  x = {x}  ->  f = {q.f}, f' = {q.d1}, f'' = {q.d2}")
    eps = Jet2(0.0, 1.0, 0.0)
    sq = eps * eps
    print(f"  eps * eps = {sq}: value and first slot exactly zero")
    assert sq.f == 0.0 and sq.d1 == 0.0

    print("\nThe float walk is the jet's value slot, bit for bit:")
    exprs = ["sinh(t/3) * exp(-t^2/5)", "sqrt(t^2 + 1)", "cos(2*t)/(t + 4)"]
    for text in exprs:
        node = parse_expr(text)
        for tt in (-1.25, 0.4, 2.0):
            assert evaluate_float(node, tt) == evaluate_jet(node, tt).f
    print("  float == f over 3 formulas x 3 points")
    node = parse_expr("sqrt(t)")
    try:
        evaluate_jet(node, 0.0)
    except DomainError as exc:
        print(f"  sqrt(t) at 0: float {evaluate_float(node, 0.0)}; "
              f"jet DomainError: {exc}")
    else:
        raise AssertionError("the jet of sqrt(t) exists at 0")

    print("\nParse errors point at the offending character:")
    try:
        parse_expr("sin(t) + * 2")
    except Exception as exc:
        print(f"  parse_expr('sin(t) + * 2') -> {type(exc).__name__}: {exc}")

    print("done.")


if __name__ == "__main__":
    main()
