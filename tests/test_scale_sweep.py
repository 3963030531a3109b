"""A seeded scale sweep: random scenes of every mode whose curve
coefficients and (y, z) half-widths span 10^-E to 10^E.

The report document holds check's claims and mesh's rows, so one property
covers the three JSON outputs: it serializes, or building and grading the
scene raise one Ruled4Error.  A non-finite number in an output is neither.
"""

import json
import random

import pytest

from ruled4.check import report_document
from ruled4.errors import Ruled4Error
from ruled4.scene import _CURVE_KEYS, _dumps, scene_from_dict

TERMS = ("t", "t^2", "t^3", "sin(t)", "cos(t)", "exp(t)", "sin(2*t)", "1")
MODES = sorted(_CURVE_KEYS)


def random_scene(rng: random.Random, exponent: float) -> dict:
    """A scene document of a uniformly drawn mode: each curve component is
    a sum of 1-3 terms with coefficients 10^uniform(-E, E), on x in [-1, 1]
    and a (y, z) box of half-width 10^uniform(-E, E)."""
    mode = rng.choice(MODES)

    def component():
        return " + ".join(
            f"{10 ** rng.uniform(-exponent, exponent):.3e}*{rng.choice(TERMS)}"
            for _ in range(rng.randint(1, 3)))

    curves = {key: [component() for _ in range(4)]
              for key in _CURVE_KEYS[mode]}
    half = 10 ** rng.uniform(-exponent, exponent)
    return {"name": "scale-sweep", "mode": mode, "curves": curves,
            "intervals": {"x": [-1, 1], "y": [-half, half],
                          "z": [-half, half]},
            "resolution": [3, 3, 3]}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("exponent", [10, 50])
def test_a_scaled_scene_serializes_or_raises_one_error(exponent, seed):
    rng = random.Random(seed)
    for _ in range(100):
        raw = random_scene(rng, exponent)
        try:
            _dumps(report_document(scene_from_dict(raw)))
        except Ruled4Error:
            continue
        except ValueError as exc:  # a non-finite float in the document
            pytest.fail(f"{exc}: {json.dumps(raw)}")
