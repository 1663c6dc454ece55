"""Exact rational geometry: points, functionals, hyperplanes, predicates.

Everything here works over arbitrary-precision rationals
(``fractions.Fraction``); there are no floating-point tolerances anywhere in
the package. Points, normals and functionals are plain tuples of ``Fraction``,
so equality is structural and results are safe to hash, cache and share
between threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

Rational = Fraction
Point = tuple[Fraction, ...]
Vector = tuple[Fraction, ...]
LinearFunctional = tuple[Fraction, ...]


class GeometryError(ValueError):
    """Raised for dimension mismatches and degenerate geometric input."""


def rational(value) -> Fraction:
    """Parse a rational from an int, a Fraction, or a string like "3" or "-5/7"."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise GeometryError(f"cannot interpret {value!r} as a rational")


def rational_str(x: Fraction) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def point(coords: Iterable) -> Point:
    return tuple(rational(c) for c in coords)


def vsub(a: Point, b: Point) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def vdot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


@dataclass(frozen=True)
class Hyperplane:
    """Locus normal . x = offset, with a nonzero normal vector."""

    normal: Vector
    offset: Fraction

    def __post_init__(self):
        if not any(self.normal):
            raise GeometryError("hyperplane normal must be nonzero")


def evaluate_functional(c: LinearFunctional, p: Point) -> Fraction:
    """Exact dot product c . p; raises on dimension mismatch."""
    if len(c) != len(p):
        raise GeometryError(f"functional of length {len(c)} applied to point of length {len(p)}")
    return vdot(c, p)


def side_of_hyperplane(h: Hyperplane, p: Point) -> int:
    """Sign of (normal . p - offset): -1, 0 or +1, computed exactly."""
    if len(h.normal) != len(p):
        raise GeometryError(f"hyperplane in dimension {len(h.normal)} tested against point of length {len(p)}")
    v = vdot(h.normal, p) - h.offset
    return (v > 0) - (v < 0)


# ---------------------------------------------------------------------------
# Small exact linear algebra kernel (Gaussian elimination over Fraction).

def _rref(rows: list[list[Fraction]]) -> tuple[int, list[int], list[list[Fraction]]]:
    """Reduced row echelon form in place; returns (rank, pivot columns, rows)."""
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return r, pivots, rows


def matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return _rref([list(r) for r in rows])[0]


def solve_linear(
    a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> tuple[list[Fraction], list[list[Fraction]]] | None:
    """Solve A x = b exactly.

    Returns (particular solution, nullspace basis), or None when the system is
    inconsistent. Free variables are set to zero in the particular solution.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    aug = [list(row) + [rhs] for row, rhs in zip(a, b)]
    rank, pivots, rows = _rref(aug)
    if n in pivots:
        return None
    sol = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        sol[c] = rows[r][n]
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -rows[r][f]
        basis.append(v)
    return sol, basis


def nullspace(rows: Sequence[Sequence[Fraction]], n: int) -> list[list[Fraction]]:
    """Basis of {x in Q^n : rows . x = 0}."""
    if not rows:
        return [[Fraction(1) if j == i else Fraction(0) for j in range(n)] for i in range(n)]
    sol = solve_linear(rows, [Fraction(0)] * len(rows))
    assert sol is not None
    return sol[1]


# ---------------------------------------------------------------------------
# Affine predicates.

def affine_rank(points: Sequence[Point]) -> int:
    """Dimension of the affine hull of the points (0 for a single point)."""
    if not points:
        raise GeometryError("affine_rank of an empty point list")
    p0 = points[0]
    return matrix_rank([vsub(p, p0) for p in points[1:]])


def affinely_independent(points: Sequence[Point]) -> bool:
    return affine_rank(points) == len(points) - 1


def affine_hull_contains(points: Sequence[Point], q: Point) -> bool:
    """True iff q lies in the affine span of the points, decided exactly."""
    if not points:
        raise GeometryError("affine hull of an empty point list")
    if any(len(p) != len(q) for p in points):
        raise GeometryError("dimension mismatch between hull points and query point")
    p0 = points[0]
    diffs = [vsub(p, p0) for p in points[1:]]
    base = matrix_rank(diffs)
    return matrix_rank(diffs + [vsub(q, p0)]) == base


def _primitive(vec: Sequence[Fraction]) -> tuple[list[int], int]:
    """Scale a rational vector to a primitive integer vector with positive lead.

    Returns (integer vector, sign applied), where sign makes the first nonzero
    entry positive.
    """
    lcm = 1
    for x in vec:
        lcm = lcm * x.denominator // gcd(lcm, x.denominator)
    ints = [int(x * lcm) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x), 0)
    sign = -1 if lead < 0 else 1
    return [sign * x for x in ints], sign


def hyperplane_through(points: Sequence[Point]) -> Hyperplane:
    """Canonical hyperplane through points spanning a codimension-1 affine hull.

    The normal is scaled to a primitive integer vector whose first nonzero
    coordinate is positive, so equal hyperplanes compare (and hash) equal.
    """
    if not points:
        raise GeometryError("hyperplane through an empty point list")
    n = len(points[0])
    p0 = points[0]
    diffs = [list(vsub(p, p0)) for p in points[1:]]
    kernel = nullspace(diffs, n)
    if len(kernel) != 1:
        raise GeometryError(f"points span affine dimension {n - len(kernel)}, expected {n - 1}")
    normal, sign = _primitive(kernel[0])
    normal_f = tuple(Fraction(x) for x in normal)
    return Hyperplane(normal_f, vdot(normal_f, p0))


# ---------------------------------------------------------------------------
# Integer side tests. A point scaled once to integer homogeneous coordinates,
# and a hyperplane kept as an integer vector, reduce side_of_hyperplane to the
# sign of one integer dot product.

def homogenize(p: Point) -> tuple[int, ...]:
    """(D, D p_1, ..., D p_n) with D > 0 the lcm of the denominators of p."""
    den = lcm(*(c.denominator for c in p))
    return (den,) + tuple(c.numerator * (den // c.denominator) for c in p)


def integer_plane(h: Hyperplane) -> tuple[int, ...]:
    """(-L offset, L normal_1, ..., L normal_n), L the lcm of all their denominators."""
    return homogenize((-h.offset,) + h.normal)[1:]


def integer_side(plane: Sequence[int], hp: Sequence[int]) -> int:
    """side_of_hyperplane(h, p) from integer_plane(h) and homogenize(p): -1, 0 or +1."""
    if len(plane) != len(hp):
        raise GeometryError(f"hyperplane in dimension {len(plane) - 1} tested against point of length {len(hp) - 1}")
    v = sum(map(mul, plane, hp))
    return (v > 0) - (v < 0)


def barycenter(points: Sequence[Point]) -> Point:
    n = Fraction(len(points))
    return tuple(sum(col, Fraction(0)) / n for col in zip(*points))
