"""Order-2 jets against closed-form derivatives."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ruled4.dual import JET_FUNCTIONS, Jet2, jet_pow
from ruled4.errors import DomainError

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)
jets = st.builds(Jet2, finite, finite, finite)


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
    # f(t) = (t^2 + 1) / t at t = 2: f' = 1 - 1/t^2 = 0.75, f'' = 2/t^3
    t = Jet2.variable(2.0)
    g = (t * t + Jet2.constant(1.0)) / t
    assert (g.f, g.d1, g.d2) == pytest.approx((2.5, 0.75, 0.25), abs=1e-15)
    # division undoes multiplication in every slot
    a, b = Jet2(3.0, 2.0, -1.0), Jet2(-1.5, 0.25, 0.5)
    q = (a * b) / b
    assert (q.f, q.d1, q.d2) == pytest.approx((a.f, a.d1, a.d2), abs=1e-14)
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
    # d/dx x^p = p x^(p-1) and d2 = p (p-1) x^(p-2), bases across (0, 10]
    for p in (Fraction(1, 2), Fraction(3), Fraction(-2), Fraction(2, 3),
              Fraction(-5, 2), Fraction(7)):
        pf = float(p)
        for base in (0.05, 0.7, 1.0, 3.3, 10.0):
            j = jet_pow(Jet2.variable(base), p)
            want = (base ** pf, pf * base ** (pf - 1.0),
                    pf * (pf - 1.0) * base ** (pf - 2.0))
            assert (j.f, j.d1, j.d2) == pytest.approx(want, rel=1e-14)


def test_pow_domain_errors():
    with pytest.raises(DomainError):
        jet_pow(Jet2.variable(-2.0), Fraction(1, 2))
    with pytest.raises(DomainError):
        jet_pow(Jet2.variable(0.0), Fraction(-1))
    with pytest.raises(DomainError):
        jet_pow(Jet2.variable(0.0), Fraction(-2))


def test_function_second_derivatives():
    v = 0.7
    x = Jet2.variable(v)
    closed_forms = {  # name: (d1, d2) at v
        "sin": (math.cos(v), -math.sin(v)),
        "cos": (-math.sin(v), -math.cos(v)),
        "exp": (math.exp(v), math.exp(v)),
        "sinh": (math.cosh(v), math.sinh(v)),
        "cosh": (math.sinh(v), math.cosh(v)),
        "sqrt": (0.5 * v ** -0.5, -0.25 * v ** -1.5),
    }
    assert set(closed_forms) == set(JET_FUNCTIONS)
    for name, (d1, d2) in closed_forms.items():
        j = JET_FUNCTIONS[name](x)
        assert abs(j.d1 - d1) <= 1e-15, name
        assert abs(j.d2 - d2) <= 1e-15, name


def test_sqrt_at_zero():
    assert JET_FUNCTIONS["sqrt"](Jet2.constant(0.0)) == Jet2(0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        JET_FUNCTIONS["sqrt"](Jet2.variable(0.0))
    with pytest.raises(DomainError):
        JET_FUNCTIONS["sqrt"](Jet2.constant(-1.0))
