"""Workload scenes: two generated families of scenes.

The seed draws one scene from the workload's fixed set; every scene of
the sets has pinned values in reference.json.  Every scene the
program sees is a JSON file written here; the program never sees the
seed.  Each scene carries the name of the family whose expected
claim verdicts the output checker applies to it.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# Verdicts per claim, as the test suite pins them for the shipped scenes.
# Generated scenes inherit the verdicts of the scene they are modelled on.
EXPECTED_VERDICTS = {
    "exampleE1": {
        "flatness": "pass", "minimality": "discrepancy",
        "laplace_beltrami_zero": "discrepancy",
        "gauss_map_consistency": "pass", "metric_consistency": "pass",
        "minimality_linkage": "pass", "lb_closed_form": "pass",
        "lb_closed_form_weights": "discrepancy",
        "director_membership": "discrepancy",
    },
    "exampleEx3": {
        "flatness": "pass", "minimality": "pass",
        "laplace_beltrami_zero": "pass", "gauss_map_consistency": "pass",
        "metric_consistency": "pass", "minimality_linkage": "pass",
        "construction_hypotheses": "discrepancy",
        "construction_equivalence": "pass",
        "reference_curves": "discrepancy", "alpha_probe": "discrepancy",
    },
}

# Shapes of the generated grids.  octo-wide: few x slices, so hundreds of
# vertices share each curve evaluation point.  typed-long: many x slices
# and the minimal 2x2 (y, z) block, so almost nothing is shared.
OCTO_WIDE_RESOLUTION = (4, 11, 11)
TYPED_LONG_RESOLUTION = (64, 2, 2)


@dataclass(frozen=True)
class Scene:
    workload: str
    label: str  # the key of the scene's pinned values in reference.json
    path: Path
    family: str
    mesh_format: str


def _frac(rng: random.Random, lo: int, hi: int, den: int,
          signed: bool = False) -> Fraction:
    """A nonzero fraction n/den with lo <= |n| <= hi, so no term drops out."""
    sign = rng.choice((-1, 1)) if signed else 1
    return Fraction(sign * rng.randint(lo, hi), den)


# exampleEx3's generating curves and published reference block.
_EX3_CURVES = {
    "u": ["-cos(t)*cos(2*t)", "cos(t)*sin(2*t)", "0", "0"],
    "v": ["cos(t)*sin(2*t)", "sin(t)*sin(2*t)", "sin(t)", "-cos(t)"],
    "w": ["sin(t)*sin(2*t)", "sin(t)*cos(2*t)", "cos(t)", "sin(t)"],
}
_EX3_REFERENCE = {
    "alpha": ["0", "0", "sin(2*t)*(sin(2*t)/2 - cos(t)^2)",
              "sin(2*t)*(sin(2*t)/2 + cos(t)^2)"],
    "s_director": ["sin(t)*sin(2*t)", "sin(t)*cos(2*t)", "cos(t)", "sin(t)"],
    "r_director": ["cos(t)*sin(2*t)", "sin(t)*sin(2*t)", "sin(t)", "cos(t)"],
}
# The shipped Ex3 grid steps t by 2*pi/24 over [0, 2*pi].
EX3_T_STEPS = 24


def octo_wide_boxes() -> list[tuple[int, int]]:
    """Every (first step k, spacing m) whose 4 x slices stay in [0, 2*pi].

    Boxes whose slices all sit on multiples of pi/2 are left out: there the
    published base curve agrees with a constructed candidate, so
    `alpha_probe` cannot tell them apart and grades `pass`.
    """
    nx = OCTO_WIDE_RESOLUTION[0]
    quarter = EX3_T_STEPS // 4
    return [(k, m) for m in range(1, EX3_T_STEPS // (nx - 1) + 1)
            for k in range(EX3_T_STEPS - (nx - 1) * m + 1)
            if any((k + j * m) % quarter for j in range(nx))]


def octo_wide_scene(k: int, m: int) -> dict:
    """Ex3's curves and reference block; x slices on the shipped t grid.

    The slices are t = 2*pi*(k + j*m)/24 for j = 0..3, and (s, r) is an
    11 x 11 block on Ex3's [-1, 1]^2.  Each of these boxes grades like
    Ex3 (pin_reference.py checks them all).  A box drawn freely can put a
    vertex near the surface's lightlike locus; there K is rounding noise
    over a tiny det g and exceeds the flatness check's absolute tolerance
    (1e-9), so the scene grades `fail` and the command exits 1.
    """
    nx = OCTO_WIDE_RESOLUTION[0]
    step = 2.0 * math.pi / EX3_T_STEPS
    return {
        "name": "octo-wide",
        "mode": "octonion",
        "curves": _EX3_CURVES,
        "intervals": {"t": [k * step, (k + (nx - 1) * m) * step],
                      "s": [-1.0, 1.0], "r": [-1.0, 1.0]},
        "resolution": list(OCTO_WIDE_RESOLUTION),
        "i_vector": [0.0, 0.0, 0.0, 1.0],
        "projection_axis": 0,
        "claims": {"flat": True},
        "reference": _EX3_REFERENCE,
    }


# exampleE1's constant orthogonal directors: beta timelike, gamma spacelike.
_E1_BETA = ["-2/sqrt(3)", "0", "1/sqrt(3)", "0"]
_E1_GAMMA = ["0", "1/sqrt(7)", "0", "sqrt(6)/sqrt(7)"]
# typed-long draws one of this many base curves, each pinned in
# reference.json.
TYPED_LONG_VARIANTS = 32


def _poly(terms: list[tuple[Fraction, str]]) -> str:
    """c1*m1 + c2*m2 ..., with each sign written as an operator."""
    text = ""
    for c, mono in terms:
        coeff = f"{abs(c.numerator)}" + (f"/{c.denominator}"
                                         if c.denominator != 1 else "")
        term = f"{coeff}*{mono}" if mono else coeff
        if not text:
            text = ("-" if c < 0 else "") + term
        else:
            text += (" - " if c < 0 else " + ") + term
    return text


def typed_long_scene(variant: int) -> dict:
    """A base curve the size of exampleE1's against E1's directors.

    alpha = (a t^3 + k, b t + l, c t, d t^4) with a, c > 0.  The part of
    alpha' outside span(beta, gamma) has the coefficient
    -(a t^2 + 2c/3) on c1 = (1, 0, -2, 0), with <c1, c1> = 3, so
    det g <= -(4/3) c^2 < 0: no vertex degenerates, whatever the draw.
    """
    rng = random.Random(f"typed-long:{variant}")
    alpha = [
        _poly([(_frac(rng, 1, 4, 3), "t^3"), (_frac(rng, 1, 3, 2, True), "")]),
        _poly([(_frac(rng, 1, 3, 1, True), "t"),
               (_frac(rng, 1, 2, 1, True), "")]),
        _poly([(_frac(rng, 1, 3, 1), "t")]),
        _poly([(_frac(rng, 1, 3, 4, True), "t^4")]),
    ]
    x0 = rng.uniform(-1.5, 0.5)
    return {
        "name": "typed-long",
        "mode": "type2",
        "curves": {"alpha": alpha, "beta": _E1_BETA, "gamma": _E1_GAMMA},
        "intervals": {"x": [x0, x0 + rng.uniform(0.75, 1.0)],
                      "y": [-1.0, 1.0], "z": [-1.0, 1.0]},
        "resolution": list(TYPED_LONG_RESOLUTION),
        "strict": False,
        "claims": {"flat": True, "minimal": True,
                   "laplace_beltrami_zero": True},
    }


def workload_rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


WORKLOADS = ("octo-wide", "typed-long")


def labels(workload: str) -> list[str]:
    """Every scene the workload can draw, as reference.json keys them."""
    if workload == "octo-wide":
        return [f"octo-wide/k{k}m{m}" for k, m in octo_wide_boxes()]
    if workload == "typed-long":
        return [f"typed-long/{v}" for v in range(TYPED_LONG_VARIANTS)]
    raise ValueError(f"unknown workload {workload!r}")


def scene_for(label: str, work: Path) -> Scene:
    """The scene a label names, written into `work`."""
    workload, key = label.split("/")
    if workload == "octo-wide":
        k, m = map(int, key[1:].split("m"))
        raw, family, fmt = octo_wide_scene(k, m), "exampleEx3", "json"
    else:
        raw, family, fmt = typed_long_scene(int(key)), "exampleE1", "csv"
    path = work / f"{workload}.json"
    path.write_text(json.dumps(raw, indent=2) + "\n", encoding="utf-8")
    return Scene(workload, label, path, family, fmt)


def draw_scene(workload: str, seed: int, work: Path) -> Scene:
    """Draw the workload's scene and write it into `work`."""
    return scene_for(workload_rng(workload, seed).choice(labels(workload)),
                     work)
