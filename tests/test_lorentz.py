"""Signature, ternary product, and characterization of the 4-vector algebra."""

import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ruled4.errors import NonFiniteValue
from ruled4.lorentz import (
    MEMBERSHIP_TOL,
    CausalCharacter,
    ModelSpace,
    Vec4,
    characterize,
    cross4,
    lorentz_dot,
    lorentz_norm,
)

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)
vec4s = st.builds(Vec4, finite, finite, finite, finite)


def test_signature_on_basis():
    e0, e1, e2, e3 = (Vec4.basis(i) for i in range(4))
    assert lorentz_dot(e0, e0) == -1.0
    assert lorentz_dot(e1, e1) == 1.0
    assert lorentz_dot(e2, e2) == 1.0
    assert lorentz_dot(e3, e3) == 1.0
    assert lorentz_dot(e0, e1) == 0.0


@given(vec4s, vec4s)
def test_dot_formula_and_symmetry(x, y):
    expected = -x.c0 * y.c0 + x.c1 * y.c1 + x.c2 * y.c2 + x.c3 * y.c3
    assert lorentz_dot(x, y) == expected
    assert lorentz_dot(x, y) == lorentz_dot(y, x)


def test_norm_is_zero_on_light_cone():
    assert lorentz_norm(Vec4(1.0, 1.0, 0.0, 0.0)) == 0.0
    assert lorentz_norm(Vec4(0.0, 2.0, 0.0, 0.0)) == 2.0
    assert lorentz_norm(Vec4(3.0, 0.0, 0.0, 0.0)) == 3.0


def test_vec4_arithmetic_and_guards():
    a = Vec4(1.0, 2.0, 3.0, 4.0)
    b = Vec4(0.5, -1.0, 0.0, 2.0)
    assert (a + b).components() == (1.5, 1.0, 3.0, 6.0)
    assert (a - b).components() == (0.5, 3.0, 3.0, 2.0)
    assert (-a).components() == (-1.0, -2.0, -3.0, -4.0)
    assert (a * 2.0).components() == (2.0, 4.0, 6.0, 8.0)
    assert (2.0 * a).components() == (2.0, 4.0, 6.0, 8.0)
    assert Vec4.zero().is_zero()
    assert not a.is_zero()
    with pytest.raises(ValueError):
        Vec4(float("nan"), 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        Vec4(0.0, float("inf"), 0.0, 0.0)


def test_cross4_pinned_values():
    e0, e1, e2, e3 = (Vec4.basis(i) for i in range(4))
    assert cross4(e1, e2, e3).components() == (-1.0, 0.0, 0.0, 0.0)
    assert cross4(e0, e1, e2).components() == (0.0, 0.0, 0.0, -1.0)
    assert cross4(e0, e1, e3).components() == (0.0, 0.0, 1.0, 0.0)
    assert cross4(e0, e2, e3).components() == (0.0, -1.0, 0.0, 0.0)


@given(vec4s, vec4s, vec4s)
def test_cross4_orthogonal_to_arguments(x, y, z):
    c = cross4(x, y, z)
    scale = max(1.0, max(abs(v) for v in c.components()))
    for arg in (x, y, z):
        arg_scale = max(1.0, max(abs(v) for v in arg.components()))
        assert abs(lorentz_dot(c, arg)) <= 1e-11 * scale * arg_scale


@given(vec4s, vec4s, vec4s)
def test_cross4_antisymmetry(x, y, z):
    c = cross4(x, y, z)
    swapped = cross4(y, x, z)
    assert max_diff(c, -swapped) <= 1e-11 * scale_of(c)
    rotated = cross4(y, z, x)
    # cyclic rotation is an even permutation: same vector
    assert max_diff(c, rotated) <= 1e-11 * scale_of(c)


def max_diff(u, v):
    return max(abs(a - b) for a, b in zip(u.components(), v.components()))


def scale_of(u):
    return max(1.0, max(abs(v) for v in u.components()))


def test_cross4_contraction_is_determinant():
    rng = random.Random(20260816)
    for _ in range(300):
        rows = [[rng.uniform(-2, 2) for _ in range(4)] for _ in range(4)]
        w, x, y, z = (Vec4(*r) for r in rows)
        det = float(np.linalg.det(np.array(rows)))
        got = lorentz_dot(cross4(x, y, z), w)
        assert abs(got - det) <= 1e-11 * max(1.0, abs(det))


def test_cross4_lagrange_identity():
    rng = random.Random(7)
    for _ in range(300):
        x, y, z = (Vec4(*(rng.uniform(-2, 2) for _ in range(4)))
                   for _ in range(3))
        c = cross4(x, y, z)
        gram = np.array([[lorentz_dot(u, v) for v in (x, y, z)]
                         for u in (x, y, z)])
        nn = lorentz_dot(c, c)
        assert abs(nn + float(np.linalg.det(gram))) <= 1e-10 * max(1.0, abs(nn))


@given(vec4s, vec4s, vec4s, finite)
def test_cross4_linear_in_first_argument(x, y, z, s):
    lhs = cross4(x * s, y, z)
    rhs = cross4(x, y, z) * s
    assert max_diff(lhs, rhs) <= 1e-9 * scale_of(rhs)


def test_characterize_model_spaces():
    hyp = characterize(Vec4(math.cosh(0.7), math.sinh(0.7), 0.0, 0.0))
    assert hyp.character is CausalCharacter.TIMELIKE
    assert ModelSpace.HYPERBOLIC in hyp.memberships
    assert abs(hyp.norm - 1.0) < 1e-12

    lower = characterize(Vec4(-math.cosh(0.7), math.sinh(0.7), 0.0, 0.0))
    assert ModelSpace.HYPERBOLIC not in lower.memberships

    des = characterize(Vec4(math.sinh(0.3), math.cosh(0.3), 0.0, 0.0))
    assert des.character is CausalCharacter.SPACELIKE
    assert ModelSpace.DE_SITTER in des.memberships

    cone = characterize(Vec4(2.0, 2.0, 0.0, 0.0))
    assert cone.character is CausalCharacter.LIGHTLIKE
    assert ModelSpace.LIGHT_CONE in cone.memberships
    assert cone.norm == 0.0

    spatial_null = characterize(Vec4(0.0, 1.0, 0.0, 0.0))
    # q = 1: spacelike, on the de Sitter sphere, not on the cone
    assert spatial_null.memberships == frozenset({ModelSpace.DE_SITTER})

    zero = characterize(Vec4.zero())
    assert zero.character is CausalCharacter.ZERO
    assert zero.memberships == frozenset()


@pytest.mark.parametrize("x", [Vec4(1e200, 1e200, 0.0, 0.0),
                               Vec4(1e200, 0.0, 0.0, 0.0)],
                         ids=["inf-minus-inf", "minus-inf"])
def test_characterize_refuses_an_overflowing_quadratic_form(x):
    # <x, x> is nan or -inf: no causal character, no norm
    with pytest.raises(NonFiniteValue):
        characterize(x)


def test_characterize_membership_tolerance_edges():
    inside = characterize(Vec4(0.0, math.sqrt(1.0 + 0.5 * MEMBERSHIP_TOL),
                               0.0, 0.0))
    assert ModelSpace.DE_SITTER in inside.memberships
    outside = characterize(Vec4(0.0, math.sqrt(1.0 + 10 * MEMBERSHIP_TOL),
                                0.0, 0.0))
    assert ModelSpace.DE_SITTER not in outside.memberships
