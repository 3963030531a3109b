"""Dual numbers and order-2 jets."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ruled4.dual import (
    DUAL_FUNCTIONS,
    JET_FUNCTIONS,
    Dual,
    Jet2,
    dual_pow,
    jet_pow,
)
from ruled4.errors import DomainError

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)
duals = st.builds(Dual, finite, finite)
jets = st.builds(Jet2, finite, finite, finite)


def test_epsilon_squares_to_zero_exactly():
    eps = Dual(0.0, 1.0)
    sq = eps * eps
    assert sq.re == 0.0 and sq.eps == 0.0


@given(duals, duals)
def test_dual_commutativity_exact(a, b):
    assert a + b == b + a
    assert (a * b).re == (b * a).re
    assert (a * b).eps == (b * a).eps


@given(duals, duals)
def test_dual_product_rule(a, b):
    p = a * b
    assert p.re == a.re * b.re
    assert p.eps == a.eps * b.re + a.re * b.eps


def test_dual_division_inverts_multiplication():
    a = Dual(3.0, 2.0)
    b = Dual(-1.5, 0.25)
    q = (a * b) / b
    assert abs(q.re - a.re) <= 1e-14
    assert abs(q.eps - a.eps) <= 1e-14
    with pytest.raises(DomainError):
        a / Dual(0.0, 1.0)


def test_dual_derivative_of_rational_function():
    # f(t) = (t^2 + 1) / t at t = 2: f = 2.5, f' = 1 - 1/t^2 = 0.75
    t = Dual(2.0, 1.0)
    f = (t * t + Dual(1.0, 0.0)) / t
    assert abs(f.re - 2.5) <= 1e-15
    assert abs(f.eps - 0.75) <= 1e-15


def test_jet_variable_and_constant():
    v = Jet2.variable(3.0)
    assert (v.f, v.d1, v.d2) == (3.0, 1.0, 0.0)
    c = Jet2.constant(7.0)
    assert (c.f, c.d1, c.d2) == (7.0, 0.0, 0.0)


def test_jet_cubic_derivatives_exact():
    t = Jet2.variable(2.0)
    f = t * t * t
    assert (f.f, f.d1, f.d2) == (8.0, 12.0, 12.0)


def test_jet_quotient_derivatives():
    # f(t) = 1 / t at t = 2: (0.5, -0.25, 0.25)
    f = Jet2.constant(1.0) / Jet2.variable(2.0)
    assert abs(f.f - 0.5) <= 1e-15
    assert abs(f.d1 + 0.25) <= 1e-15
    assert abs(f.d2 - 0.25) <= 1e-15
    with pytest.raises(DomainError):
        Jet2.constant(1.0) / Jet2.variable(0.0)


@given(jets, jets)
def test_jet_product_rule(a, b):
    p = a * b
    assert p.f == a.f * b.f
    assert p.d1 == a.d1 * b.f + a.f * b.d1
    assert p.d2 == a.d2 * b.f + 2.0 * a.d1 * b.d1 + a.f * b.d2


def test_jet_pow_values():
    x = Jet2.variable(4.0)
    r = jet_pow(x, Fraction(1, 2))
    assert (r.f, r.d1, r.d2) == (2.0, 0.25, -1.0 / 32.0)
    inv = jet_pow(Jet2.variable(2.0), Fraction(-1))
    assert (inv.f, inv.d1, inv.d2) == (0.5, -0.25, 0.25)
    assert jet_pow(x, Fraction(0)) == Jet2(1.0, 0.0, 0.0)
    assert jet_pow(x, Fraction(1)) is x
    # integer exponents accept negative bases
    cube = jet_pow(Jet2.variable(-2.0), Fraction(3))
    assert (cube.f, cube.d1, cube.d2) == (-8.0, 12.0, -12.0)


def test_pow_domain_errors():
    with pytest.raises(DomainError):
        jet_pow(Jet2.variable(-2.0), Fraction(1, 2))
    with pytest.raises(DomainError):
        jet_pow(Jet2.variable(0.0), Fraction(-1))
    with pytest.raises(DomainError):
        dual_pow(Dual(-2.0, 1.0), Fraction(1, 2))
    with pytest.raises(DomainError):
        dual_pow(Dual(0.0, 1.0), Fraction(-2))


@given(st.floats(min_value=0.05, max_value=10.0),
       st.sampled_from([Fraction(1, 2), Fraction(3), Fraction(-2),
                        Fraction(2, 3), Fraction(-5, 2), Fraction(7)]))
def test_dual_pow_eps_equals_jet_pow_d1(base, expo):
    d = dual_pow(Dual(base, 1.0), expo)
    j = jet_pow(Jet2.variable(base), expo)
    assert d.re == j.f
    assert d.eps == j.d1


@given(st.sampled_from(sorted(JET_FUNCTIONS)), duals)
def test_function_table_eps_equals_d1(name, x):
    if name == "sqrt" and x.re <= 0.0:
        x = Dual(abs(x.re) + 0.5, x.eps)
    if name in ("exp", "sinh", "cosh"):
        x = Dual(max(-5.0, min(5.0, x.re)), x.eps)
    d = DUAL_FUNCTIONS[name](x)
    j = JET_FUNCTIONS[name](Jet2(x.re, x.eps, 0.0))
    assert d.re == j.f
    assert d.eps == j.d1


def test_function_second_derivatives():
    x = Jet2.variable(0.7)
    s = JET_FUNCTIONS["sin"](x)
    assert abs(s.d2 + math.sin(0.7)) <= 1e-15
    c = JET_FUNCTIONS["cos"](x)
    assert abs(c.d2 + math.cos(0.7)) <= 1e-15
    e = JET_FUNCTIONS["exp"](x)
    assert abs(e.d2 - math.exp(0.7)) <= 1e-15
    sh = JET_FUNCTIONS["sinh"](x)
    assert abs(sh.d2 - math.sinh(0.7)) <= 1e-15
    ch = JET_FUNCTIONS["cosh"](x)
    assert abs(ch.d2 - math.cosh(0.7)) <= 1e-15
    r = JET_FUNCTIONS["sqrt"](x)
    assert abs(r.d2 + 0.25 * 0.7 ** -1.5) <= 1e-15


def test_sqrt_at_zero():
    assert JET_FUNCTIONS["sqrt"](Jet2.constant(0.0)) == Jet2(0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        JET_FUNCTIONS["sqrt"](Jet2.variable(0.0))
    with pytest.raises(DomainError):
        DUAL_FUNCTIONS["sqrt"](Dual(0.0, 1.0))
    with pytest.raises(DomainError):
        JET_FUNCTIONS["sqrt"](Jet2.constant(-1.0))
