"""Building ruled hypersurfaces from ternary products of vector curves.

Given three curves u, v, w of 4-vectors and a fixed unit vector i_vec, the
base curve is alpha = u x v + u x w (each term the ternary product with
i_vec in the last slot) and the ruling directions are w and v.  The same
point arises as the vector part of the star product

    u * (v + w) + s*w + r*v

in the scalar-plus-vector algebra (octonion.particular_product), whose
scalar part -<u, v> - <u, w> measures how far u is from being orthogonal
to the ruling plane.  The vector parts agree identically; the scalar
defect is what orthogonality buys.  A second constructor consumes two
dual-number curves (a + eps a*, b + eps b*), crossing each curve with its
own dual part instead.

Constructed surfaces are UNCONSTRAINED: their directors live on no fixed
model space, so the metric uses the actual director products.  Unit and
orthogonality expectations are advisory, checked at the ADVISORY_SAMPLES
points of the x interval that hypersurface._sample keeps; violations become
warnings on the returned surface, never errors.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import NonFiniteValue
from .hypersurface import (Curve, RuledHypersurface, SurfaceKind, _position,
                           _sample, make_ruled)
from .lorentz import DEFAULT_I, Vec4, _require_axis, cross4, lorentz_dot

# star_point and star_point_dual import ruled4.octonion themselves, so that
# building a surface or grading its claims does not load the algebra.

__all__ = [
    "PairCrossCurve", "construct_from_octonions", "construct_from_dual_curves",
    "star_point", "star_point_dual", "ADVISORY_TOL",
]

ADVISORY_TOL = 1e-9


class PairCrossCurve(NamedTuple):
    """Curve t -> sum over pairs of cross4(left(t), right(t), i_vec).

    Derivatives come from the product rule applied to each bilinear term,
    so they are exact whenever the factor curves provide exact jets.  A
    factor shared by several pairs (u in u x v + u x w) is evaluated once.
    """

    pairs: tuple[tuple[Curve, Curve], ...]
    i_vec: Vec4 = DEFAULT_I

    def evaluate(self, t: float) -> tuple[Vec4, Vec4, Vec4]:
        return self.evaluate_sharing(t, {})

    def evaluate_sharing(self, t: float, jets: dict) -> tuple[Vec4, Vec4, Vec4]:
        """evaluate(t), reading and filling `jets`, factor jets by id."""
        for pair in self.pairs:
            for c in pair:
                if id(c) not in jets:
                    jets[id(c)] = c.evaluate(t)
        pos = Vec4.zero()
        vel = Vec4.zero()
        acc = Vec4.zero()
        for left, right in self.pairs:
            l0, l1, l2 = jets[id(left)]
            r0, r1, r2 = jets[id(right)]
            pos = pos + cross4(l0, r0, self.i_vec)
            vel = vel + cross4(l1, r0, self.i_vec) + cross4(l0, r1, self.i_vec)
            acc = acc + cross4(l2, r0, self.i_vec) \
                + 2.0 * cross4(l1, r1, self.i_vec) \
                + cross4(l0, r2, self.i_vec)
        return pos, vel, acc


def _advisory_checks(curves: dict[str, Curve],
                     x_interval: tuple[float, float],
                     units: list[str],
                     ortho_pairs: list[tuple[str, str]],
                     dual_pairs: list[tuple[str, str]],
                     rulings: tuple[str, str]) -> tuple[str, ...]:
    """The advisories under the Lorentz product, over the samples that
    hypersurface._sample keeps, then whether the rulings coincide up to
    sign.  A dual curve a + eps a* is on the dual unit sphere when a is
    unit and 2<a, a*> = 0."""
    warnings: list[str] = []
    rows = _sample(curves.values(), x_interval, warnings)
    pos = {name: [row[k] for _, row in rows] for k, name in enumerate(curves)}
    for name in units:
        worst = 0.0
        for p in pos[name]:
            worst = max(worst, abs(abs(lorentz_dot(p, p)) - 1.0))
        if worst > ADVISORY_TOL:
            warnings.append(f"curve {name} is not unit under the lorentz "
                            f"product: max deviation {worst:.6g}")
    for name_a, name_b in ortho_pairs:
        worst = 0.0
        for pa, pb in zip(pos[name_a], pos[name_b]):
            worst = max(worst, abs(lorentz_dot(pa, pb)))
        if worst > ADVISORY_TOL:
            warnings.append(f"curves {name_a} and {name_b} are not orthogonal "
                            "under the lorentz product: max product "
                            f"{worst:.6g}")
    for name, star in dual_pairs:
        worst = 0.0
        for pr, pe in zip(pos[name], pos[star]):
            worst = max(worst, abs(2.0 * lorentz_dot(pr, pe)))
        if worst > ADVISORY_TOL:
            warnings.append(f"dual curve {name} leaves the dual unit sphere: "
                            f"max dual-part norm deviation {worst:.6g}")
    pairs = list(zip(pos[rulings[0]], pos[rulings[1]]))
    # over no sample, a gap of 0.0 would read as coinciding rulings
    if pairs:
        aligned = min(
            max(abs(c) for pv, pw in pairs for c in (pv - pw).components()),
            max(abs(c) for pv, pw in pairs for c in (pv + pw).components()))
        if aligned <= ADVISORY_TOL:
            warnings.append(f"ruling directions coincide up to sign "
                            f"(max component gap {aligned:.6g}); the ruled "
                            "plane degenerates to a line")
    return tuple(warnings)


def construct_from_octonions(u: Curve, v: Curve, w: Curve,
                             *,
                             i_vec: Vec4 = DEFAULT_I,
                             x_interval: tuple[float, float] = (-1.0, 1.0),
                             ) -> RuledHypersurface:
    """Surface alpha(t) + y*w(t) + z*v(t) with alpha = u x v + u x w."""
    _require_axis(i_vec)
    base = make_ruled(PairCrossCurve(((u, v), (u, w)), i_vec), w, v,
                      SurfaceKind.UNCONSTRAINED, x_interval=x_interval)
    return base._replace(warnings=base.warnings + _advisory_checks(
        {"u": u, "v": v, "w": w}, x_interval, ["u", "v", "w"],
        [("u", "v"), ("u", "w")], [], ("v", "w")))


def construct_from_dual_curves(a: Curve, a_star: Curve,
                               b: Curve, b_star: Curve,
                               *,
                               i_vec: Vec4 = DEFAULT_I,
                               x_interval: tuple[float, float] = (-1.0, 1.0),
                               ) -> RuledHypersurface:
    """Surface from two dual-number curves a + eps a*, b + eps b*.

    The base curve is a x a* + b x b* and the ruling directions are the
    real parts a and b.  Advisory checks ask each dual curve to be a dual
    unit vector under the Lorentz product: real norm 1 and real-dual
    product 0.
    """
    _require_axis(i_vec)
    base = make_ruled(PairCrossCurve(((a, a_star), (b, b_star)), i_vec), a,
                      b, SurfaceKind.UNCONSTRAINED, x_interval=x_interval)
    return base._replace(warnings=base.warnings + _advisory_checks(
        {"a": a, "a_star": a_star, "b": b, "b_star": b_star}, x_interval,
        ["a", "b"], [], [("a", "a_star"), ("b", "b_star")], ("a", "b")))


def star_point(u: Curve, v: Curve, w: Curve, t: float, y: float, z: float,
               *, i_vec: Vec4 = DEFAULT_I) -> ParticularOctonion:
    """The same surface point as a sum of two star products.

    Computes (y + u(t)) * (0 + w(t)) + (z + u(t)) * (0 + v(t)) in the
    scalar-plus-vector algebra.  Its vector part equals eval_point on the
    constructed surface identically; its scalar part is
    -(<u, w> + <u, v>), zero precisely when u is Lorentz-orthogonal to
    both ruling directions.
    """
    from .octonion import ParticularOctonion
    pu, pv, pw = (_position(c, t) for c in (u, v, w))
    _require_axis(i_vec)
    return ParticularOctonion(*_star_sum((float(y), pu, 0.0, pw),
                                         (float(z), pu, 0.0, pv), i_vec))


def star_point_dual(a: Curve, a_star: Curve, b: Curve, b_star: Curve,
                    t: float, y: float, z: float,
                    *, i_vec: Vec4 = DEFAULT_I) -> ParticularOctonion:
    """Dual-curve surface point as a sum of two star products.

    Computes a(t) * (y + a*(t)) + b(t) * (z + b*(t)).  The vector part
    equals eval_point on the dual construction identically; the scalar
    part -(<a, a*> + <b, b*>) vanishes exactly on the dual unit sphere.
    """
    from .octonion import ParticularOctonion
    pa, pas, pb, pbs = (_position(c, t) for c in (a, a_star, b, b_star))
    _require_axis(i_vec)
    return ParticularOctonion(*_star_sum((0.0, pa, float(y), pas),
                                         (0.0, pb, float(z), pbs), i_vec))


def _star_sum(first: tuple, second: tuple, i: Vec4) -> tuple[float, Vec4]:
    """_star_product(*first, i) + _star_product(*second, i), in that order;
    a scalar sum that is not finite raises NonFiniteValue, as a vector
    part's Vec4 does.  The axis i is taken as unit; the callers check it."""
    s1, v1 = _star_product(*first, i)
    s2, v2 = _star_product(*second, i)
    scalar = s1 + s2
    if scalar * 0.0 != 0.0:  # x * 0.0 is a signed zero for finite x
        raise NonFiniteValue("star product scalar part is not finite")
    return scalar, v1 + v2


def _star_product(qs: float, qv: Vec4, ps: float, pv: Vec4, i: Vec4
                  ) -> tuple[float, Vec4]:
    """octonion.particular_product on the scalar and vector parts, with no
    axis check and no screen on the scalar part."""
    return qs * ps - lorentz_dot(qv, pv), pv * qs + qv * ps + cross4(qv, pv, i)
