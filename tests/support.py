"""Shared random-instance generators and independent numerical oracles.

The generators manufacture director curves that satisfy their pseudo-sphere
constraint exactly (hyperbolic-trigonometric parametrizations), so strict
construction never depends on a normalization tolerance.  The oracles here
deliberately avoid the library's own code paths: finite differences of the
flux form for the Laplacian, and sympy/mpmath differentiation for curve
jets, so agreement is evidence rather than tautology.
"""

import math
import random
from dataclasses import dataclass, field, replace

from ruled4.errors import DegenerateNormal, DomainError, SingularMetric
from ruled4.expr import CurveSpec
from ruled4.hypersurface import SurfaceKind, make_ruled
from ruled4.lorentz import Vec4
from ruled4.pointwise import curvature_report, first_form, frame, inverse_metric

DEGENERACY_ERRORS = (DegenerateNormal, SingularMetric, DomainError)


@dataclass(frozen=True)
class CountingCurve(CurveSpec):
    """A CurveSpec that adds one to a shared counter per evaluate or
    position call."""

    counter: list = field(default=None, compare=False, repr=False)

    def evaluate(self, t):
        self.counter[0] += 1
        return super().evaluate(t)

    def position(self, t):
        self.counter[0] += 1
        return super().position(t)


def counting_scene(cfg):
    """(cfg with every curve counted, the shared one-slot counter)."""
    counter = [0]
    curves = {k: CountingCurve(v.comps, counter) for k, v in cfg.curves.items()}
    return replace(cfg, curves=curves), counter


def max_comp_diff(u: Vec4, v: Vec4) -> float:
    return max(abs(a - b) for a, b in zip(u.components(), v.components()))


def grid3(lo: float, hi: float) -> list[float]:
    return [lo, 0.5 * (lo + hi), hi]


def grid27() -> list[tuple[float, float, float]]:
    """The 27 points of grid3 on each axis of the box (-1, 1)^3."""
    axis = grid3(-1.0, 1.0)
    return [(x, y, z) for x in axis for y in axis for z in axis]


# ---------------------------------------------------------------------------
# Random curve text generators.  Coefficients are rounded so the expression
# texts stay short; parsing them back is exact either way.

def _coef(rng: random.Random, lo: float, hi: float) -> str:
    return repr(round(rng.uniform(lo, hi), 3))


def _inner_expr(rng: random.Random) -> str:
    """A small smooth scalar expression of t for use inside sinh/cos/..."""
    kind = rng.randrange(3)
    if kind == 0:
        return f"{_coef(rng, -0.6, 0.6)}*t + {_coef(rng, -0.5, 0.5)}"
    if kind == 1:
        return f"{_coef(rng, -0.5, 0.5)}*sin(t) + {_coef(rng, -0.4, 0.4)}"
    return f"{_coef(rng, -0.4, 0.4)}*t^2 + {_coef(rng, -0.5, 0.5)}*t"


def _base_component(rng: random.Random) -> str:
    kind = rng.randrange(3)
    if kind == 0:
        return (f"{_coef(rng, -2, 2)} + {_coef(rng, -2, 2)}*t + "
                f"{_coef(rng, -1, 1)}*t^2")
    if kind == 1:
        return f"{_coef(rng, -2, 2)}*sin(t) + {_coef(rng, -2, 2)}*t"
    return f"{_coef(rng, -2, 2)}*cos(t) + {_coef(rng, -1, 1)}*t^3"


def rand_base_curve(rng: random.Random) -> CurveSpec:
    return CurveSpec.from_strings([_base_component(rng) for _ in range(4)])


def rand_desitter_director(rng: random.Random) -> CurveSpec:
    """Unit spacelike director: <c,c> = +1 exactly for all t."""
    u = _inner_expr(rng)
    v = _inner_expr(rng)
    w = _inner_expr(rng)
    spatial = [f"cosh({u})*cos({v})*cos({w})",
               f"cosh({u})*cos({v})*sin({w})",
               f"cosh({u})*sin({v})"]
    rng.shuffle(spatial)
    return CurveSpec.from_strings([f"sinh({u})"] + spatial)


def rand_hyperbolic_director(rng: random.Random) -> CurveSpec:
    """Unit timelike director on the upper sheet: <c,c> = -1, c0 > 0."""
    u = _inner_expr(rng)
    v = _inner_expr(rng)
    w = _inner_expr(rng)
    spatial = [f"sinh({u})*cos({v})*cos({w})",
               f"sinh({u})*cos({v})*sin({w})",
               f"sinh({u})*sin({v})"]
    rng.shuffle(spatial)
    return CurveSpec.from_strings([f"cosh({u})"] + spatial)


def _nondegenerate(surface) -> bool:
    for p in grid27():
        try:
            curvature_report(surface, *p)
        except DEGENERACY_ERRORS:
            return False
    return True


def rand_strict_surface(rng: random.Random, kind: SurfaceKind,
                        max_tries: int = 50):
    """A strict random instance, resampled until the 27-point grid is clean."""
    director = (rand_desitter_director if kind is SurfaceKind.TYPE1
                else rand_hyperbolic_director)
    for _ in range(max_tries):
        h = make_ruled(rand_base_curve(rng), director(rng), director(rng),
                       kind, strict=True)
        if _nondegenerate(h):
            return h
    raise RuntimeError(f"no nondegenerate {kind} instance in {max_tries} tries")


def rand_orthogonal_type1(rng: random.Random, max_tries: int = 50):
    """Strict type-1 instance with e == 0 exactly (disjoint director slots)."""
    for _ in range(max_tries):
        p = _inner_expr(rng)
        q = _inner_expr(rng)
        beta = CurveSpec.from_strings(
            [f"sinh({p})", f"cosh({p})", "0", "0"])
        gamma = CurveSpec.from_strings(
            ["0", "0", f"cos({q})", f"sin({q})"])
        h = make_ruled(rand_base_curve(rng), beta, gamma,
                       SurfaceKind.TYPE1, strict=True)
        if _nondegenerate(h):
            return h
    raise RuntimeError(f"no orthogonal type-1 instance in {max_tries} tries")


def rand_orthogonal_type2_lax(rng: random.Random, max_tries: int = 50):
    """Type-2 instance with e == 0 exactly; gamma is deliberately spacelike.

    Two future-pointing unit timelike vectors are never Lorentz-orthogonal,
    so an orthogonal type-2 pair cannot be strict; the gamma here violates
    the hyperbolic membership and the instance is built lax on purpose.
    """
    for _ in range(max_tries):
        p = _inner_expr(rng)
        q = _inner_expr(rng)
        beta = CurveSpec.from_strings(
            [f"cosh({p})", f"sinh({p})", "0", "0"])
        gamma = CurveSpec.from_strings(
            ["0", "0", f"cos({q})", f"sin({q})"])
        h = make_ruled(rand_base_curve(rng), beta, gamma,
                       SurfaceKind.TYPE2, strict=False)
        if _nondegenerate(h):
            return h
    raise RuntimeError(f"no orthogonal type-2 instance in {max_tries} tries")


def rand_unconstrained(rng: random.Random, max_tries: int = 50):
    for _ in range(max_tries):
        beta = CurveSpec.from_strings(
            [_inner_expr(rng) for _ in range(4)])
        gamma = CurveSpec.from_strings(
            [_inner_expr(rng) for _ in range(4)])
        h = make_ruled(rand_base_curve(rng), beta, gamma,
                       SurfaceKind.UNCONSTRAINED)
        if _nondegenerate(h):
            return h
    raise RuntimeError(f"no unconstrained instance in {max_tries} tries")


# ---------------------------------------------------------------------------
# Independent Laplacian oracle: central differences of the flux form
# (1/w) d_i (w g^{ij} d_j phi) with w = sqrt|det g|, nothing shared with the
# library's analytic derivative bookkeeping.

def lb_fd(h, x: float, y: float, z: float, step: float = 1e-4) -> Vec4:
    def flux_row(i: int, px: float, py: float, pz: float) -> Vec4:
        fr = frame(h, px, py, pz)
        md = first_form(h, px, py, pz, fr)
        gi = inverse_metric(md)
        w = math.sqrt(abs(md.detg))
        tangents = (fr.phi_x, fr.phi_y, fr.phi_z)
        acc = Vec4.zero()
        for j in range(3):
            acc = acc + (w * gi[i][j]) * tangents[j]
        return acc

    total = Vec4.zero()
    offsets = ((step, 0.0, 0.0), (0.0, step, 0.0), (0.0, 0.0, step))
    for i, (dx, dy, dz) in enumerate(offsets):
        plus = flux_row(i, x + dx, y + dy, z + dz)
        minus = flux_row(i, x - dx, y - dy, z - dz)
        total = total + (plus - minus) * (1.0 / (2.0 * step))
    md0 = first_form(h, x, y, z)
    return total * (1.0 / math.sqrt(abs(md0.detg)))


# ---------------------------------------------------------------------------
# Independent jet oracle: parse the same text with sympy, differentiate
# symbolically, evaluate under mpmath at 40 digits.  Central differences at
# h = 1e-5 on the mpmath values stay far below the 1e-6 comparison band.

def mp_reference(text: str, t: float, step: float = 1e-5, dps: int = 40):
    """(value, d1_central, d2_central) of one expression at t, high precision."""
    import mpmath
    import sympy

    sym_t = sympy.Symbol("t")
    expr = sympy.sympify(text.replace("^", "**"),
                         locals={"t": sym_t, "e": sympy.E, "pi": sympy.pi})
    fn = sympy.lambdify(sym_t, expr, "mpmath")
    with mpmath.workdps(dps):
        h = mpmath.mpf(step)
        t0 = mpmath.mpf(t)
        f0 = fn(t0)
        fp = fn(t0 + h)
        fm = fn(t0 - h)
        d1 = (fp - fm) / (2 * h)
        d2 = (fp - 2 * f0 + fm) / (h * h)
        return float(f0), float(d1), float(d2)
