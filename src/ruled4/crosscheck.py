"""Independent re-derivations used to cross-examine the main pipeline.

Everything here recomputes a quantity the core modules already produce, by
a deliberately different route: expanded per-component cofactor formulas
for the ruling normal, a constrained kind's det g as a polynomial
(_detg_closed), and Gram-matrix identities for the ternary product whose
determinants are Leibniz permutation sums (_det), not the cofactor
expansion behind cross4.  lb_closed_full_p is an intentionally wrong
variant of the orthogonal Laplacian closed form, kept as a probe:
lb_closed_orthogonal's kernel with full weight on the P_k terms.  check.py's
gauss_map_consistency runs the normal probe three times per x slice (the
normal is linear in phi_x) and _det at each graded vertex; tests and the
traced benchmark call the public functions.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations
from typing import Sequence

from .hypersurface import RuledHypersurface
from .lorentz import Vec4, cross4, lorentz_dot

__all__ = [
    "normal_components_expanded",
    "lorentz_gram", "lagrange_defect", "contraction_defect",
    "lb_closed_full_p",
]


def normal_components_expanded(x_vec: Vec4, beta: Vec4, gamma: Vec4) -> Vec4:
    """Ruling normal via expanded 2x2-cofactor sums, component by component.

    Independent of the minor-expansion route in lorentz.cross4; uses the
    antisymmetrized products E_ij - E_ji with E_ij = gamma_i * x_j, weighted
    by the components of beta.  Must agree with cross4(x_vec, beta, gamma)
    to rounding.
    """
    return Vec4(*_normal_expanded(x_vec.components(), beta.components(),
                                  gamma.components()))


def _normal_expanded(x: tuple, b: tuple, g: tuple
                     ) -> tuple[float, float, float, float]:
    """normal_components_expanded on component tuples.

    dij is the antisymmetrized product g_i x_j - g_j x_i, indices 1..4.
    """
    x1, x2, x3, x4 = x
    b1, b2, b3, b4 = b
    g1, g2, g3, g4 = g
    d43 = g4 * x3 - g3 * x4
    d24 = g2 * x4 - g4 * x2
    d32 = g3 * x2 - g2 * x3
    n1 = b2 * d43 + b3 * d24 + b4 * d32
    n2 = b1 * d43 + b3 * (g1 * x4 - g4 * x1) + b4 * (g3 * x1 - g1 * x3)
    n3 = b1 * d24 + b2 * (g4 * x1 - g1 * x4) + b4 * (g1 * x2 - g2 * x1)
    n4 = b1 * d32 + b2 * (g1 * x3 - g3 * x1) + b3 * (g2 * x1 - g1 * x2)
    return n1, n2, n3, n4


def _detg_closed(sigma: float, a: float, b: float, c: float,
                 e: float) -> float:
    """det g in closed form for a constrained kind, whose ruling diagonal
    is (sigma, sigma): -sigma b^2 + 2 c b e - sigma c^2 - a e^2 + a."""
    return -sigma * b * b + 2.0 * c * b * e - sigma * c * c - a * e * e + a


def lorentz_gram(vectors: Sequence[Vec4]) -> tuple[tuple[float, ...], ...]:
    """Pairwise Lorentzian products, as a tuple of row tuples."""
    return tuple(tuple(lorentz_dot(u, v) for v in vectors) for u in vectors)


@cache
def _signed_permutations(n: int) -> tuple[tuple[tuple[int, ...], float], ...]:
    """Each permutation of range(n) with the sign of its Leibniz term."""
    out = []
    for perm in permutations(range(n)):
        inversions = sum(p > q for k, p in enumerate(perm) for q in perm[k + 1:])
        out.append((perm, -1.0 if inversions % 2 else 1.0))
    return tuple(out)


def _det(rows: Sequence[Sequence[float]]) -> float:
    """Determinant as the Leibniz sum of signed products over permutations."""
    total = 0.0
    for perm, term in _signed_permutations(len(rows)):
        for row, col in zip(rows, perm):
            term *= row[col]
        total += term
    return total


def lagrange_defect(x: Vec4, y: Vec4, z: Vec4) -> float:
    """<c, c> + det(Gram(x, y, z)) for c = cross4(x, y, z); zero in theory."""
    c = cross4(x, y, z)
    return lorentz_dot(c, c) + _det(lorentz_gram((x, y, z)))


def contraction_defect(x: Vec4, y: Vec4, z: Vec4, w: Vec4) -> float:
    """<cross4(x,y,z), w> - det[w; x; y; z]; zero in theory."""
    c = cross4(x, y, z)
    return lorentz_dot(c, w) - _det((w.components(), x.components(),
                                     y.components(), z.components()))


def lb_closed_full_p(h: RuledHypersurface, x: float, y: float, z: float) -> Vec4:
    """Orthogonal Laplacian variant with FULL P-weights: a probe, not a tool.

    Identical to pointwise.lb_closed_orthogonal except the P_k terms are
    not halved.  The quotient rule demands the half, so this variant
    deviates from the general divergence path whenever the metric varies,
    as typedclaims' lb_closed_form_weights reports from the slice kernel.
    """
    from .pointwise import _lb_closed_at  # here, so check never loads it
    return _lb_closed_at(h, x, y, z, 1.0)
