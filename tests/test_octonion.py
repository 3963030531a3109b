"""Multiplication table closure, octonion identities, star product."""

import math
import random

import pytest

from ruled4.errors import InconsistentSeed, NonFiniteValue, NonUnitI
from ruled4.expr import CurveSpec
from ruled4.lorentz import DEFAULT_I, Vec4, cross4, lorentz_dot
from ruled4.octonion import (
    Octonion,
    ParticularOctonion,
    build_mul_table,
    default_table,
    oct_mul,
    particular_product,
    table_to_csv,
)
from ruled4.octo import star_point, star_point_dual


def test_default_table_pinned_products():
    t = default_table()
    assert t.product(1, 2) == (1, 4)
    assert t.product(2, 3) == (1, 5)   # one cycling step
    assert t.product(2, 4) == (1, 1)   # one doubling step
    assert t.product(2, 1) == (-1, 4)  # anticommutation
    for i in range(1, 8):
        assert t.product(i, i) == (-1, 0)


def test_table_structural_bullets_exhaustive():
    t = default_table()
    cyc = lambda i: i % 7 + 1
    dbl = lambda i: (2 * i - 1) % 7 + 1
    for i in range(1, 8):
        for j in range(1, 8):
            s, k = t.product(i, j)
            if i == j:
                assert (s, k) == (-1, 0)
                continue
            assert s in (-1, 1) and 1 <= k <= 7 and k not in (i, j)
            assert t.product(j, i) == (-s, k)
            assert t.product(cyc(i), cyc(j)) == (s, cyc(k))
            assert t.product(dbl(i), dbl(j)) == (s, dbl(k))


def test_inconsistent_seeds_raise():
    for seed in ((1, 2, 3), (1, 1, 2), (0, 2, 4), (1, 2, 8), (1, 2, 2)):
        with pytest.raises(InconsistentSeed):
            build_mul_table(seed)


def test_alternate_fano_seed_builds():
    t = build_mul_table((2, 3, 5))
    assert t.product(2, 3) == (1, 5)
    assert t.product(3, 4) == (1, 6)


def test_table_csv_golden():
    text = table_to_csv(default_table())
    lines = text.splitlines()
    assert lines[0] == ",e1,e2,e3,e4,e5,e6,e7"
    assert lines[1] == "e1,-0,+4,+7,-2,+6,-5,-3"
    assert len(lines) == 8
    assert text.endswith("\n")


def basis_oct(i):
    return Octonion.basis(i)


def test_non_associativity_witness_exact():
    e1, e2, e3 = basis_oct(1), basis_oct(2), basis_oct(3)
    left = oct_mul(oct_mul(e1, e2), e3)
    right = oct_mul(e1, oct_mul(e2, e3))
    minus_e6 = [0.0] * 8
    minus_e6[6] = -1.0
    plus_e6 = [0.0] * 8
    plus_e6[6] = 1.0
    assert list(left.coeffs) == minus_e6
    assert list(right.coeffs) == plus_e6


def test_one_is_two_sided_identity():
    rng = random.Random(3)
    one = Octonion.one()
    for _ in range(20):
        q = Octonion(tuple(rng.uniform(-5, 5) for _ in range(8)))
        assert oct_mul(one, q).coeffs == q.coeffs
        assert oct_mul(q, one).coeffs == q.coeffs


def test_conjugate_product_is_squared_norm():
    rng = random.Random(11)
    for _ in range(50):
        q = Octonion(tuple(rng.uniform(-3, 3) for _ in range(8)))
        prod = oct_mul(q, q.conjugate())
        n2 = q.norm() ** 2
        assert abs(prod.coeffs[0] - n2) <= 1e-12 * max(1.0, n2)
        assert max(abs(c) for c in prod.coeffs[1:]) <= 1e-12 * max(1.0, n2)


def test_alternativity_and_norm_multiplicativity():
    rng = random.Random(42)
    for _ in range(300):
        x = Octonion(tuple(rng.uniform(-3, 3) for _ in range(8)))
        y = Octonion(tuple(rng.uniform(-3, 3) for _ in range(8)))
        scale = max(1.0, x.norm() ** 2 * y.norm())
        left = oct_mul(oct_mul(x, x), y)
        right = oct_mul(x, oct_mul(x, y))
        assert max(abs(a - b) for a, b in zip(left.coeffs, right.coeffs)) \
            <= 1e-10 * scale
        left = oct_mul(oct_mul(y, x), x)
        right = oct_mul(y, oct_mul(x, x))
        assert max(abs(a - b) for a, b in zip(left.coeffs, right.coeffs)) \
            <= 1e-10 * scale
        pq = oct_mul(x, y)
        assert abs(pq.norm() - x.norm() * y.norm()) \
            <= 1e-10 * max(1.0, x.norm() * y.norm())


def test_octonion_guards():
    with pytest.raises(ValueError):
        Octonion((1.0, 2.0))
    with pytest.raises(ValueError):
        Octonion((float("nan"),) + (0.0,) * 7)


def test_particular_octonion_round_trip():
    p = ParticularOctonion(2.0, Vec4(1.0, -1.0, 0.5, 3.0))
    o = p.to_octonion()
    assert o.coeffs == (2.0, 1.0, -1.0, 0.5, 3.0, 0.0, 0.0, 0.0)
    assert ParticularOctonion.from_octonion(o) == p
    with pytest.raises(ValueError):
        ParticularOctonion.from_octonion(Octonion.basis(5))
    assert ParticularOctonion.pure(Vec4.basis(0)).scalar == 0.0


def test_star_product_scalar_identity():
    rng = random.Random(5)
    for _ in range(20):
        p = ParticularOctonion(rng.uniform(-2, 2),
                               Vec4(*(rng.uniform(-2, 2) for _ in range(4))))
        got = particular_product(ParticularOctonion(1.0, Vec4.zero()), p)
        assert got.scalar == p.scalar
        assert got.vector.components() == p.vector.components()


def test_star_product_pure_pair():
    rng = random.Random(6)
    for _ in range(30):
        u = Vec4(*(rng.uniform(-2, 2) for _ in range(4)))
        v = Vec4(*(rng.uniform(-2, 2) for _ in range(4)))
        got = particular_product(ParticularOctonion.pure(u),
                                 ParticularOctonion.pure(v))
        assert got.scalar == -lorentz_dot(u, v)
        expect = cross4(u, v, DEFAULT_I)
        assert got.vector.components() == expect.components()


def _bits(*values):
    # float.hex tells -0.0 from 0.0, which == does not
    return [v.hex() for v in values]


def test_star_product_definition_shape():
    rng = random.Random(11)

    def draw():
        return rng.choice((0.0, -0.0, rng.uniform(-3, 3), rng.uniform(-3, 3)))

    draws = [(ParticularOctonion(2.0, Vec4(1.0, 0.0, -1.0, 2.0)),
              ParticularOctonion(-3.0, Vec4(0.5, 1.0, 0.0, -1.0)))]
    draws += [(ParticularOctonion(draw(), Vec4(*(draw() for _ in range(4)))),
               ParticularOctonion(draw(), Vec4(*(draw() for _ in range(4)))))
              for _ in range(200)]
    for i_vec in (DEFAULT_I, Vec4(1.0, 0.0, 0.0, 0.0)):
        for q, p in draws:
            got = particular_product(q, p, i_vec)
            scalar = q.scalar * p.scalar - lorentz_dot(q.vector, p.vector)
            vector = (q.scalar * p.vector + p.scalar * q.vector
                      + cross4(q.vector, p.vector, i_vec))
            assert _bits(got.scalar) == _bits(scalar)
            assert _bits(*got.vector.components()) \
                == _bits(*vector.components())


def test_star_product_overflow_raises():
    big = [CurveSpec.from_strings(texts) for texts in (
        ["1e200", "2e200", "-1e200", "3e200"],
        ["-2e200", "1e200", "3e200", "1e200"],
        ["3e200", "-1e200", "2e200", "-2e200"],
        ["1e200", "3e200", "1e200", "-1e200"])]
    q, p = (ParticularOctonion(1.0, c.position(0.0)) for c in big[:2])
    with pytest.raises(NonFiniteValue):
        particular_product(q, p)
    with pytest.raises(NonFiniteValue):
        star_point(*big[:3], 0.5, 1.0, -1.0)
    with pytest.raises(NonFiniteValue):
        star_point_dual(*big, 0.5, 1.0, -1.0)


def test_star_product_bilinear():
    rng = random.Random(9)
    i_vec = Vec4(1.0, 0.0, 0.0, 0.0)  # timelike axis is also unit
    for _ in range(20):
        q1 = ParticularOctonion(rng.uniform(-2, 2),
                                Vec4(*(rng.uniform(-2, 2) for _ in range(4))))
        q2 = ParticularOctonion(rng.uniform(-2, 2),
                                Vec4(*(rng.uniform(-2, 2) for _ in range(4))))
        p = ParticularOctonion(rng.uniform(-2, 2),
                               Vec4(*(rng.uniform(-2, 2) for _ in range(4))))
        lhs = particular_product(q1 + q2, p, i_vec)
        r1 = particular_product(q1, p, i_vec)
        r2 = particular_product(q2, p, i_vec)
        assert abs(lhs.scalar - (r1.scalar + r2.scalar)) <= 1e-12
        assert max(abs(a - b) for a, b in
                   zip(lhs.vector.components(),
                       (r1.vector + r2.vector).components())) <= 1e-12


def test_star_product_rejects_non_unit_axis():
    q = ParticularOctonion.pure(Vec4.basis(1))
    with pytest.raises(NonUnitI):
        particular_product(q, q, Vec4(0.0, 0.0, 0.0, 2.0))
    with pytest.raises(NonUnitI):
        particular_product(q, q, Vec4(1.0, 1.0, 0.0, 0.0))  # lightlike
    # |<i,i>| = 1 admits timelike axes
    particular_product(q, q, Vec4(1.0, 0.0, 0.0, 0.0))


def test_star_product_axis_tolerance():
    q = ParticularOctonion.pure(Vec4.basis(1))
    nearly = Vec4(0.0, 0.0, 0.0, math.sqrt(1.0 + 0.5e-9))
    particular_product(q, q, nearly)
    with pytest.raises(NonUnitI):
        particular_product(q, q, Vec4(0.0, 0.0, 0.0, math.sqrt(1.0 + 1e-6)))
