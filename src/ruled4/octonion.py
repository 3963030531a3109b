"""Octonion algebra over an index-generated multiplication table.

The table over imaginary units e1..e7 is not hard-coded: it is the closure
of a single seed product (default e1*e2 = e4) under three rules,

    anticommutation   ei*ej = s*ek   =>  ej*ei = -s*ek      (i != j)
    index cycling     ei*ej = s*ek   =>  e(i+1)*e(j+1) = s*e(k+1)   mod 7
    index doubling    ei*ej = s*ek   =>  e(2i)*e(2j) = s*e(2k)      mod 7

with indices represented in 1..7.  A valid seed yields exactly one signed
result for each of the 42 ordered pairs of distinct units; a bad seed either
conflicts or leaves gaps, and both raise InconsistentSeed.  Diagonal entries
are ei*ei = -1.

Full 8-component multiplication, conjugation and the Euclidean 8-norm are
provided, plus the "particular" octonions whose vector part lives in the
first four slots and which support a ternary star product built from the
Lorentzian scalar product and ternary cross product.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, NamedTuple

from ._frozen import Frozen, _set
from .errors import InconsistentSeed
from .lorentz import DEFAULT_I, Vec4, _require_axis

__all__ = [
    "MulTable", "build_mul_table", "default_table", "table_to_csv",
    "Octonion", "oct_mul",
    "ParticularOctonion", "particular_product",
]


def _cyc(i: int) -> int:
    return i % 7 + 1


def _dbl(i: int) -> int:
    return (2 * i - 1) % 7 + 1


class MulTable(NamedTuple):
    """Signed products for all 49 ordered pairs of imaginary units.

    entries[(i, j)] == (sign, k) meaning ei*ej = sign * ek, where k == 0
    stands for the real unit (the diagonal ei*ei = -1).
    """

    seed: tuple[int, int, int]
    entries: Mapping[tuple[int, int], tuple[int, int]]

    def product(self, i: int, j: int) -> tuple[int, int]:
        return self.entries[(i, j)]


def build_mul_table(seed: tuple[int, int, int] = (1, 2, 4)) -> MulTable:
    """Close a seed product under anticommutation, cycling and doubling."""
    i0, j0, k0 = seed
    for v in seed:
        if not (isinstance(v, int) and 1 <= v <= 7):
            raise InconsistentSeed(f"seed indices must lie in 1..7, got {seed}")
    if len({i0, j0, k0}) != 3:
        raise InconsistentSeed(f"seed indices must be distinct, got {seed}")

    known: dict[tuple[int, int], tuple[int, int]] = {}
    work = [(i0, j0, k0, 1)]

    def put(i: int, j: int, k: int, s: int) -> None:
        prev = known.get((i, j))
        if prev is not None:
            if prev != (s, k):
                raise InconsistentSeed(
                    f"seed {seed} assigns e{i}*e{j} two different values: "
                    f"{prev} and {(s, k)}")
            return
        known[(i, j)] = (s, k)
        work.append((i, j, k, s))

    put(i0, j0, k0, 1)
    while work:
        i, j, k, s = work.pop()
        put(j, i, k, -s)
        put(_cyc(i), _cyc(j), _cyc(k), s)
        put(_dbl(i), _dbl(j), _dbl(k), s)

    for i in range(1, 8):
        for j in range(1, 8):
            if i != j and (i, j) not in known:
                raise InconsistentSeed(
                    f"seed {seed} leaves e{i}*e{j} undefined")
        known[(i, i)] = (-1, 0)

    # A collision-free closure can still fail to be an octonion table when
    # the seed is not a quaternionic triple; ei*(ei*ej) == -ej detects that.
    for i in range(1, 8):
        for j in range(1, 8):
            if i == j:
                continue
            s, k = known[(i, j)]
            s2, m = known[(i, k)] if k != i else (-1, 0)
            if m != j or s * s2 != -1:
                raise InconsistentSeed(
                    f"seed {seed} is not a quaternionic triple: "
                    f"e{i}*(e{i}*e{j}) != -e{j}")

    return MulTable((i0, j0, k0), dict(sorted(known.items())))


_DEFAULT_TABLE: MulTable | None = None


def default_table() -> MulTable:
    global _DEFAULT_TABLE
    if _DEFAULT_TABLE is None:
        _DEFAULT_TABLE = build_mul_table((1, 2, 4))
    return _DEFAULT_TABLE


def table_to_csv(table: MulTable) -> str:
    """7x7 grid as CSV; each cell is a signed result index, 0 the real unit."""
    lines = ["," + ",".join(f"e{j}" for j in range(1, 8))]
    for i in range(1, 8):
        cells = [f"e{i}"]
        for j in range(1, 8):
            s, k = table.product(i, j)
            cells.append(f"{'+' if s > 0 else '-'}{k}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


class Octonion(Frozen):
    """8-component number a0 + a1*e1 + ... + a7*e7."""

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: Iterable[float]):
        coeffs = tuple(float(c) for c in coeffs)
        if len(coeffs) != 8:
            raise ValueError(f"an octonion has 8 coefficients, got {len(coeffs)}")
        for c in coeffs:
            if not math.isfinite(c):
                raise ValueError(f"octonion coefficient must be finite, got {c!r}")
        _set(self, "coeffs", coeffs)

    @staticmethod
    def zero() -> "Octonion":
        return Octonion((0.0,) * 8)

    @staticmethod
    def one() -> "Octonion":
        return Octonion((1.0,) + (0.0,) * 7)

    @staticmethod
    def basis(i: int) -> "Octonion":
        c = [0.0] * 8
        c[i] = 1.0
        return Octonion(tuple(c))

    def __getitem__(self, i: int) -> float:
        return self.coeffs[i]

    def __add__(self, other: "Octonion") -> "Octonion":
        return Octonion(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Octonion") -> "Octonion":
        return Octonion(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Octonion":
        return Octonion(tuple(-a for a in self.coeffs))

    def conjugate(self) -> "Octonion":
        return Octonion((self.coeffs[0],) + tuple(-a for a in self.coeffs[1:]))

    def norm(self) -> float:
        # a left fold from 0.0: sum() rounds differently from Python 3.12 on
        total = 0.0
        for a in self.coeffs:
            total += a * a
        return math.sqrt(total)


def oct_mul(p: Octonion, q: Octonion, table: MulTable | None = None) -> Octonion:
    """Bilinear product over the unit table; deterministic accumulation order."""
    if table is None:
        table = default_table()
    out = [0.0] * 8
    a = p.coeffs
    b = q.coeffs
    for i in range(8):
        ai = a[i]
        if ai == 0.0:
            continue
        for j in range(8):
            bj = b[j]
            if bj == 0.0:
                continue
            if i == 0:
                s, k = 1, j
            elif j == 0:
                s, k = 1, i
            else:
                s, k = table.product(i, j)
            out[k] += s * ai * bj
    return Octonion(tuple(out))


class ParticularOctonion(Frozen):
    """Octonion with vector part confined to units e1..e4.

    The four vector slots are identified with Vec4 slots 0..3, keeping the
    ternary cross product and the star product on the same index convention.
    """

    __slots__ = _fields = ("scalar", "vector")

    def __init__(self, scalar: float, vector: Vec4):
        _set(self, "scalar", float(scalar))
        _set(self, "vector", vector)

    @staticmethod
    def pure(v: Vec4) -> "ParticularOctonion":
        return ParticularOctonion(0.0, v)

    @staticmethod
    def from_octonion(o: Octonion) -> "ParticularOctonion":
        if o.coeffs[5] != 0.0 or o.coeffs[6] != 0.0 or o.coeffs[7] != 0.0:
            raise ValueError("octonion has components outside units e1..e4")
        return ParticularOctonion(o.coeffs[0], Vec4(*o.coeffs[1:5]))

    def to_octonion(self) -> Octonion:
        v = self.vector
        return Octonion((self.scalar, v.c0, v.c1, v.c2, v.c3, 0.0, 0.0, 0.0))

    def __add__(self, other: "ParticularOctonion") -> "ParticularOctonion":
        return ParticularOctonion(self.scalar + other.scalar,
                                  self.vector + other.vector)


def particular_product(q: ParticularOctonion, p: ParticularOctonion,
                       i_vec: Vec4 = DEFAULT_I) -> ParticularOctonion:
    """Ternary star product of particular octonions around the axis i_vec.

    scalar part: S(q)S(p) - <V(q), V(p)>;
    vector part: S(q)V(p) + S(p)V(q) + cross4(V(q), V(p), i_vec).

    Both parts are Lorentzian: octo._star_product states them once, with
    lorentz_dot and cross4.  The axis must be unit in the sense |<i,i>| == 1
    within UNIT_I_TOL, else NonUnitI.
    """
    from .octo import _star_product  # here, so that octtable never loads it
    _require_axis(i_vec)
    return ParticularOctonion(*_star_product(q.scalar, q.vector, p.scalar,
                                             p.vector, i_vec))
