"""Exact rational geometry: points over an integer kernel.

Everything here is exact; there are no floating-point tolerances anywhere in
the package. Points are plain tuples of ``Fraction``, so
equality is structural and results are safe to hash, cache and share between
threads.

Ranks, hyperplanes and side tests run on integers: a point enters as
``homogenize(p)`` = (D, D p), D the lcm of its denominators; a polytope
keeps its vertices' rows (``Polytope.hv``). The one elimination routine,
``_rref``, is fraction-free Gauss-Jordan over ``int`` (E. H. Bareiss, 1968),
whose divisions are all exact. The plane through homogenized points is read
off its integer kernel, and the coordinates of points in their affine hull
off one reduction of their differences.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

Point = tuple[Fraction, ...]


class GeometryError(ValueError):
    """Raised for dimension mismatches and degenerate geometric input."""


def rational(value) -> Fraction:
    """Parse a rational from an int, a Fraction, or a string like "3" or "-5/7".

    A bool is no number here, though Python counts it as an int.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise GeometryError(f"cannot interpret {value!r} as a rational")


def rational_str(x: Fraction) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def point(coords: Iterable) -> Point:
    return tuple(rational(c) for c in coords)


# ---------------------------------------------------------------------------
# Exact linear algebra over int. A rational row is first scaled by the lcm of
# its denominators, which keeps rank and solutions.

def _rref(rows: list[list[int]]) -> tuple[int, list[int], list[list[int]]]:
    """Fraction-free Gauss-Jordan (Bareiss) on a list of integer rows, in place.

    Returns (rank, pivot columns, rows): D times the reduced row echelon form,
    D the last pivot. Rows are replaced, never mutated; each division is exact.
    """
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, m) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        p = top[c]
        for i in range(m):
            if i != r:
                # rows with a 0 in column c are still scaled by p / prev
                f = rows[i][c]
                rows[i] = [(p * a - f * b) // prev for a, b in zip(rows[i], top)]
        prev = p
        pivots.append(c)
        r += 1
        if r == m:
            break
    return r, pivots, rows


def integer_rank(rows: Sequence[Sequence[int]]) -> int:
    return _rref(list(rows))[0]


def integer_plane_through(hpoints: Sequence[Sequence[int]]) -> tuple[int, ...] | None:
    """The canonical plane through homogenized points, as an integer vector.

    This is the primitive integer v with v . hp = 0 for every point, signed so
    that its first nonzero normal entry (after v[0]) is positive: v[0] is
    minus the offset and v[1:] the normal, so equal hyperplanes compare (and
    hash) equal. None when the points span no hyperplane.
    """
    n = len(hpoints[0])
    rank, pivots, rows = _rref(list(hpoints))
    if rank != n - 1:
        return None
    free = next(c for c in range(n) if c not in pivots)
    v = [0] * n
    v[free] = rows[0][pivots[0]]
    for r, c in enumerate(pivots):
        v[c] = -rows[r][free]
    return canonical_plane(v)


def canonical_plane(v: list[int]) -> tuple[int, ...]:
    """The primitive multiple of a plane with its first nonzero normal entry positive."""
    g = gcd(*v)
    if next(x for x in v[1:] if x) < 0:
        g = -g
    return tuple(x // g for x in v)


def hull_coordinates(pts: list[Point]) -> tuple[list[Point], int]:
    """The points in coordinates for their affine hull, and its dimension.

    An exact affine bijection, from one elimination of the differences
    p - p0 as columns: its pivot columns are the first differences
    independent of those before them, a basis of the hull's directions, and
    column i of the result is D times point i's coordinates in that basis.
    Points that span their ambient space come back as given.
    """
    p0 = pts[0]
    rank, pivots, rows = _rref([homogenize(tuple(p[j] - c for p in pts))[1:] for j, c in enumerate(p0)])
    if rank == len(p0):
        return pts, rank
    den = rows[0][pivots[0]] if rank else 1
    return [tuple(Fraction(row[i], den) for row in rows[:rank]) for i in range(len(pts))], rank


# ---------------------------------------------------------------------------
# Integer side tests. A point scaled once to integer homogeneous coordinates,
# and a hyperplane kept as an integer vector, reduce a side test to the sign
# of one integer dot product.

def homogenize(p: Point) -> tuple[int, ...]:
    """(D, D p_1, ..., D p_n) with D > 0 the lcm of the denominators of p."""
    den = lcm(*(c.denominator for c in p))
    return (den,) + tuple(c.numerator * (den // c.denominator) for c in p)


def integer_side(plane: Sequence[int], hp: Sequence[int]) -> int:
    """Side of a homogenized point hp against an integer plane: -1, 0 or +1."""
    if len(plane) != len(hp):
        raise GeometryError(f"hyperplane in dimension {len(plane) - 1} tested against point of length {len(hp) - 1}")
    v = sum(map(mul, plane, hp))
    return (v > 0) - (v < 0)


def barycenter(points: Sequence[Point]) -> Point:
    n = Fraction(len(points))
    return tuple(sum(col, Fraction(0)) / n for col in zip(*points))
