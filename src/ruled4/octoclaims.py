"""The claims graded only on construction scenes and reference curves.

check loads this module for an octonion or dual-octonion scene, or for a
scene with "reference" curves, and for no other: the construction
hypotheses, the star-product equivalence, the published reference curves
and the probe of the base curve's reference axis.
"""

from __future__ import annotations

from .check import INTERNAL_REL_TOL, REFERENCE_TOL, ClaimResult, _fmt, _over
from .errors import DomainError, NonFiniteValue
from .hypersurface import ADVISORY_SAMPLES, SKIPPED_NOTE
from .lorentz import Vec4, _require_axis, cross4
from .scene import _CURVE_KEYS, _REFERENCE_ROLES

__all__ = ["claims"]


def _claim_construction_hypotheses(s) -> ClaimResult:
    # a note of skipped samples is no violation; if every sample was
    # skipped, the hypotheses were checked over none
    notes = [SKIPPED_NOTE.format(k) for k in range(ADVISORY_SAMPLES + 1)]
    advisories = [w for w in s.surface.warnings if w not in notes]
    checked = notes[-1] not in s.surface.warnings
    return ClaimResult(
        "construction_hypotheses",
        "the generating curves are unit and mutually orthogonal "
        "(checked under the lorentz product)",
        f"{len(advisories)} hypothesis violations" if advisories
        else "hypotheses hold" if checked
        else "no advisory sample could be evaluated",
        _over(checked, "discrepancy" if advisories else "pass"),
        {"advisories": advisories})


def _claim_construction_equivalence(s, positions) -> ClaimResult:
    from .octo import _star_sum
    # the star sum at (y, z) is its value at (0, 0) plus y w + z v (y a + z b);
    # at (0, 0) it is u * w + u * v (a * a* + b * b*), by position index
    products, rulings = ((((0, 2), (0, 1)), (2, 1)) if s.cfg.mode == "octonion"
                         else (((0, 1), (2, 3)), (0, 2)))
    _require_axis(s.cfg.i_vec)
    worst_vec = 0.0
    worst_scalar = 0.0
    graded = skipped = 0
    for x, _, points in s.slices:
        placed = [pt for pt in points if pt.position is not None]
        if not placed:
            continue
        at = positions[x]
        try:
            scalar, vector = _star_sum(*[(0.0, at[j], 0.0, at[k])
                                         for j, k in products], s.cfg.i_vec)
        except NonFiniteValue:
            skipped += 1
            continue
        worst_scalar = max(worst_scalar, abs(scalar))
        c0, c1, c2, c3 = vector.components()
        (w0, w1, w2, w3), (v0, v1, v2, v3) = [at[k].components()
                                              for k in rulings]
        for pt in placed:
            _, y, z = pt.params
            p0, p1, p2, p3 = pt.position.components()
            worst_vec = max(worst_vec, abs(c0 + y * w0 + z * v0 - p0),
                            abs(c1 + y * w1 + z * v1 - p1),
                            abs(c2 + y * w2 + z * v2 - p2),
                            abs(c3 + y * w3 + z * v3 - p3))
        graded += len(placed)
    return ClaimResult(
        "construction_equivalence",
        "the star-product path and the direct base-plus-ruling path give "
        "the same points",
        f"max vector gap {_fmt(worst_vec)}; max scalar defect "
        f"{_fmt(worst_scalar)} (zero only under orthogonality)",
        _over(graded, "fail" if worst_vec > INTERNAL_REL_TOL else "pass"),
        {"vector_gap": worst_vec, "scalar_defect": worst_scalar,
         "slices_without_star_product": skipped})


def _claim_reference_curves(s, published) -> ClaimResult:
    per_curve = {}
    worst = 0.0
    for key in s.cfg.reference:
        role = _REFERENCE_ROLES[key]
        dev = [0.0, 0.0, 0.0, 0.0]
        # the walk's jets
        for _, sl, refs in published:
            got = sl.jets[role][0]
            for i, (a, b) in enumerate(zip(got.components(),
                                           refs[key].components())):
                dev[i] = max(dev[i], abs(a - b))
        per_curve[key] = dev
        worst = max(worst, max(dev))
    matches = worst <= REFERENCE_TOL
    return ClaimResult(
        "reference_curves",
        "the published closed-form components equal the constructed curves",
        f"max component deviation {_fmt(worst)} "
        + ("(all components match)" if matches
           else "(at least one published component deviates)"),
        _over(len(published), "pass" if matches else "discrepancy"),
        {"per_curve_component_deviation": per_curve,
         "samples": len(published),
         "samples_skipped": len(s.slices) - len(published)})


def _claim_alpha_probe(s, positions, published) -> ClaimResult:
    axes = {f"{label}e{slot + 1}": Vec4.basis(slot) * sign
            for slot in range(4)
            for sign, label in ((1.0, "+"), (-1.0, "-"))}
    candidates = dict.fromkeys(axes, 0.0)
    for t, _, refs in published:
        pu, pv, pw = positions[t]
        want = refs["alpha"].components()
        for label, axis in axes.items():
            got = cross4(pu, pv, axis) + cross4(pu, pw, axis)
            candidates[label] = max(candidates[label], *[
                abs(a - b) for a, b in zip(got.components(), want)])
    matched = [label for label, worst in candidates.items()
               if worst <= REFERENCE_TOL]
    return ClaimResult(
        "alpha_probe",
        "the published base curve arises from the ternary-product "
        "construction for some reference axis",
        f"matched candidates: {matched if matched else 'none'}",
        _over(len(published), "pass" if matched else "discrepancy"),
        {"max_deviation_per_candidate": candidates, "matched": matched,
         "samples": len(published),
         "samples_skipped": len(s.slices) - len(published)})


def claims(s) -> list[ClaimResult]:
    """The claims of this module that apply to a check session, in report
    order; each curve is evaluated once per x for all."""
    out = []
    # the slices the walk evaluated; a flagged one is skipped, and counted
    walked = [(x, sl) for x, sl, _ in s.slices if sl is not None]
    if s.cfg.mode in ("octonion", "dual-octonion"):
        # the scene's own u, v, w (or a, a*, b, b*), not the walk's base
        # curve, so the claims built on them stay independent of it
        names = _CURVE_KEYS[s.cfg.mode]
        positions = {x: tuple(s.cfg.curves[name].position(x)
                              for name in names) for x, _ in walked}
        out += [_claim_construction_hypotheses(s),
                _claim_construction_equivalence(s, positions)]
    if s.cfg.reference:
        # the walked samples where every published curve is defined; the
        # others are skipped, and counted
        published = []
        for x, sl in walked:
            try:
                published.append((x, sl, {
                    key: ref.position(x)
                    for key, ref in s.cfg.reference.items()}))
            except DomainError:
                pass
        out.append(_claim_reference_curves(s, published))
        if s.cfg.mode == "octonion" and "alpha" in s.cfg.reference:
            out.append(_claim_alpha_probe(s, positions, published))
    return out
