"""Building a 2-ruled hypersurface from three curves of octonion products.

The shipped scene exampleEx3 supplies curves u, v, w. The base curve is
assembled from two ternary cross products, the rulings are v and w, and
every surface point can be written instead as a sum of two star products
in the scalar-plus-vector algebra. The construction also runs advisory
checks on the hypotheses (unit curves, mutual orthogonality) and reports
what fails without refusing to build.
"""

import importlib.resources
import math
import tempfile

from ruled4.mesh import export_obj, sample_grid
from ruled4.octo import star_point
from ruled4.pointwise import eval_point
from ruled4.scene import build_hypersurface, load_scene


def scene_path(name):
    return str(importlib.resources.files("ruled4") / "scenes" / name)


def main():
    cfg = load_scene(scene_path("exampleEx3.json"))
    print(f"Scene '{cfg.name}', mode {cfg.mode}")

    surf = build_hypersurface(cfg)
    print("\nAdvisory findings from the hypothesis checks:")
    for w in surf.warnings:
        print(f"  - {w}")

    print("\nBase curve assembled from cross products:")
    a0 = surf.alpha.evaluate(0.0)[0].components()
    print(f"  alpha(0) = ({a0[0]:.6f}, {a0[1]:.6f}, {a0[2]:.6f}, {a0[3]:.6f})")

    print("\nStar-product form of the surface point:")
    u, v, w = cfg.curves["u"], cfg.curves["v"], cfg.curves["w"]
    worst_vec = 0.0
    for t, y, z in [(0.3, 0.5, -0.5), (1.1, -1.0, 0.25), (2.0, 0.8, 0.8)]:
        direct = eval_point(surf, t, y, z)
        star = star_point(u, v, w, t, y, z, i_vec=cfg.i_vec)
        gap = max(abs(p - q) for p, q in
                  zip(direct.components(), star.vector.components()))
        worst_vec = max(worst_vec, gap)
        print(f"  t={t:4.1f} y={y:5.2f} z={z:5.2f}: vector gap {gap:.3e}, "
              f"scalar part {star.scalar:+.6f}")
    assert worst_vec < 1e-12

    print("\nThe scalar part is -(<u,w> + <u,v>); here u is not orthogonal")
    print("to the rulings everywhere, so it is generally nonzero.")

    print("\nReference curves shipped with the scene:")
    ref_r = cfg.reference["r_director"]
    rv = ref_r.evaluate(0.5)[0].components()
    gv = surf.gamma.evaluate(0.5)[0].components()
    print(f"  published r-director at t=0.5: ({rv[0]:+.4f}, {rv[1]:+.4f}, "
          f"{rv[2]:+.4f}, {rv[3]:+.4f})")
    print(f"  constructed gamma at t=0.5:    ({gv[0]:+.4f}, {gv[1]:+.4f}, "
          f"{gv[2]:+.4f}, {gv[3]:+.4f})")
    gap4 = abs(rv[3] - gv[3])
    print(f"  the fourth components disagree by {gap4:.6f} "
          f"(= 2*|cos(0.5)| = {2 * abs(math.cos(0.5)):.6f})")

    print("\nMesh export with a choice of dropped coordinate:")
    mesh = sample_grid(surf, cfg)
    with tempfile.TemporaryDirectory() as tmp:
        for axis in range(4):
            path = f"{tmp}/projection{axis}.obj"
            export_obj(mesh, axis, path)
            with open(path) as fh:
                first = fh.readline().strip()
            print(f"  drop axis {axis}: first OBJ vertex line '{first}'")

    print("done.")


if __name__ == "__main__":
    main()
