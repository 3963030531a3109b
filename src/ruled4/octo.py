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
orthogonality expectations are advisory; violations become warnings on the
returned surface, never errors.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DomainError
from .expr import CurveSpec
from .hypersurface import (Curve, RuledHypersurface, SurfaceKind, _axis,
                           make_ruled)
from .lorentz import (DEFAULT_I, Vec4, _require_axis, cross4, euclid_dot,
                      lorentz_dot)

# star_point and star_point_dual import ruled4.octonion themselves, so that
# building a surface or grading its claims does not load the algebra.

__all__ = [
    "PairCrossCurve", "construct_from_octonions", "construct_from_dual_curves",
    "star_point", "star_point_dual", "ADVISORY_TOL", "ADVISORY_SAMPLES",
    "SKIPPED_NOTE",
]

ADVISORY_TOL = 1e-9
# The advisory checks sample the x interval at _axis's ADVISORY_SAMPLES
# points.  Where a curve is undefined at some, the surface's warnings carry
# SKIPPED_NOTE with their number: a note, not a hypothesis violation.
ADVISORY_SAMPLES = 33
SKIPPED_NOTE = ("advisory checks skipped {} of %d samples, where a curve is "
                "undefined" % ADVISORY_SAMPLES)


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


def _position(curve: Curve, t: float) -> Vec4:
    """curve's position at t; a CurveSpec builds no derivatives for it."""
    if isinstance(curve, CurveSpec):
        return curve.position(t)
    return curve.evaluate(t)[0]


def _positions(curves: dict[str, Curve], x_interval: tuple[float, float]
               ) -> tuple[dict[str, list[Vec4]], int]:
    """(each curve's position at every advisory sample of x_interval where
    all of them have one, one evaluation apiece; the number skipped)."""
    pos: dict[str, list[Vec4]] = {name: [] for name in curves}
    skipped = 0
    for t in _axis(*x_interval, ADVISORY_SAMPLES):
        try:
            row = [_position(curve, t) for curve in curves.values()]
        except DomainError:
            skipped += 1
            continue
        for samples, p in zip(pos.values(), row):
            samples.append(p)
    return pos, skipped


def _advisory_checks(curves: dict[str, Curve],
                     x_interval: tuple[float, float],
                     units: list[str],
                     ortho_pairs: list[tuple[str, str]],
                     dual_pairs: list[tuple[str, str]],
                     rulings: tuple[str, str],
                     dual_norm: str) -> tuple[str, ...]:
    """The advisories under the `dual_norm` product, over the samples that
    _positions keeps, then whether the rulings coincide up to sign.  A dual
    curve a + eps a* is on the dual unit sphere when a is unit and
    2<a, a*> = 0."""
    pos, skipped = _positions(curves, x_interval)
    dot = lorentz_dot if dual_norm == "lorentz" else euclid_dot
    warnings: list[str] = []
    if skipped:
        warnings.append(SKIPPED_NOTE.format(skipped))
    for name in units:
        worst = 0.0
        for p in pos[name]:
            worst = max(worst, abs(abs(dot(p, p)) - 1.0))
        if worst > ADVISORY_TOL:
            warnings.append(f"curve {name} is not unit under the {dual_norm} "
                            f"product: max deviation {worst:.6g}")
    for name_a, name_b in ortho_pairs:
        worst = 0.0
        for pa, pb in zip(pos[name_a], pos[name_b]):
            worst = max(worst, abs(dot(pa, pb)))
        if worst > ADVISORY_TOL:
            warnings.append(f"curves {name_a} and {name_b} are not orthogonal "
                            f"under the {dual_norm} product: max product "
                            f"{worst:.6g}")
    for name, star in dual_pairs:
        worst = 0.0
        for pr, pe in zip(pos[name], pos[star]):
            worst = max(worst, abs(2.0 * dot(pr, pe)))
        if worst > ADVISORY_TOL:
            warnings.append(f"dual curve {name} leaves the dual unit sphere: "
                            f"max dual-part norm deviation {worst:.6g}")
    pos_v, pos_w = pos[rulings[0]], pos[rulings[1]]
    # over no sample, a gap of 0.0 would read as coinciding rulings
    if pos_v:
        worst_minus = 0.0
        worst_plus = 0.0
        for pv, pw in zip(pos_v, pos_w):
            worst_minus = max(worst_minus,
                              max(abs(c) for c in (pv - pw).components()))
            worst_plus = max(worst_plus,
                             max(abs(c) for c in (pv + pw).components()))
        aligned = min(worst_minus, worst_plus)
        if aligned <= ADVISORY_TOL:
            warnings.append(f"ruling directions coincide up to sign "
                            f"(max component gap {aligned:.6g}); the ruled "
                            "plane degenerates to a line")
    return tuple(warnings)


def construct_from_octonions(u: Curve, v: Curve, w: Curve,
                             *,
                             i_vec: Vec4 = DEFAULT_I,
                             dual_norm: str = "lorentz",
                             x_interval: tuple[float, float] = (-1.0, 1.0),
                             ) -> RuledHypersurface:
    """Surface alpha(t) + y*w(t) + z*v(t) with alpha = u x v + u x w."""
    _require_axis(i_vec)
    base = make_ruled(PairCrossCurve(((u, v), (u, w)), i_vec), w, v,
                      SurfaceKind.UNCONSTRAINED, x_interval=x_interval)
    return base._replace(warnings=base.warnings + _advisory_checks(
        {"u": u, "v": v, "w": w}, x_interval, ["u", "v", "w"],
        [("u", "v"), ("u", "w")], [], ("v", "w"), dual_norm))


def construct_from_dual_curves(a: Curve, a_star: Curve,
                               b: Curve, b_star: Curve,
                               *,
                               i_vec: Vec4 = DEFAULT_I,
                               dual_norm: str = "lorentz",
                               x_interval: tuple[float, float] = (-1.0, 1.0),
                               ) -> RuledHypersurface:
    """Surface from two dual-number curves a + eps a*, b + eps b*.

    The base curve is a x a* + b x b* and the ruling directions are the
    real parts a and b.  Advisory checks ask each dual curve to be a dual
    unit vector under the chosen product: real norm 1 and real-dual
    product 0.
    """
    _require_axis(i_vec)
    base = make_ruled(PairCrossCurve(((a, a_star), (b, b_star)), i_vec), a,
                      b, SurfaceKind.UNCONSTRAINED, x_interval=x_interval)
    return base._replace(warnings=base.warnings + _advisory_checks(
        {"a": a, "a_star": a_star, "b": b, "b_star": b_star}, x_interval,
        ["a", "b"], [], [("a", "a_star"), ("b", "b_star")], ("a", "b"),
        dual_norm))


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
    return ParticularOctonion(*_star(pu, pv, pw, y, z, i_vec))


def _star(pu: Vec4, pv: Vec4, pw: Vec4, y: float, z: float,
          i: Vec4) -> tuple[float, Vec4]:
    """star_point's (scalar, vector) from the positions of u, v, w at t.

    The axis i is taken as unit; star_point checks it.
    """
    s1, v1 = _star_product(float(y), pu, 0.0, pw, i)
    s2, v2 = _star_product(float(z), pu, 0.0, pv, i)
    return s1 + s2, v1 + v2


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
    return ParticularOctonion(*_star_dual(pa, pas, pb, pbs, y, z, i_vec))


def _star_dual(pa: Vec4, pas: Vec4, pb: Vec4, pbs: Vec4, y: float,
               z: float, i: Vec4) -> tuple[float, Vec4]:
    """star_point_dual's (scalar, vector) from the positions at t.

    The axis i is taken as unit; star_point_dual checks it.
    """
    s1, v1 = _star_product(0.0, pa, float(y), pas, i)
    s2, v2 = _star_product(0.0, pb, float(z), pbs, i)
    return s1 + s2, v1 + v2


def _star_product(qs: float, qv: Vec4, ps: float, pv: Vec4, i: Vec4
                  ) -> tuple[float, Vec4]:
    """octonion.particular_product on the scalar and vector parts, with no
    axis check."""
    return qs * ps - lorentz_dot(qv, pv), pv * qs + qv * ps + cross4(qv, pv, i)
