"""Independent reference implementations that the tests check the package against.

``segment_first_hit`` classifies a ray against a simplex by solving for the
hit directly, so it is an oracle for the side-test visibility in
``figurate.partitions``. ``full_scan_generic_point`` is the generic-point
search that checks the affine hull of every simplex with at most d vertices,
an oracle for the ridge-only search.
"""
from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from figurate.geometry import (
    GeometryError,
    Point,
    affine_hull_contains,
    affinely_independent,
    point,
    solve_linear,
    vsub,
)
from figurate.partitions import GenericPoint
from figurate.triangulation import PointedTriangulation

BEFORE_Y = "before_y"
AT_OR_AFTER_Y = "at_or_after_y"
MISSES = "misses"


def segment_first_hit(x: Point, y: Point, simplex: Sequence[Point]) -> str:
    """Classify the first meeting of the ray from x through y with a closed simplex.

    The ray is p(t) = x + t (y - x) for t >= 0, with y at t = 1. Returns
    BEFORE_Y when the first hit has t < 1, AT_OR_AFTER_Y when t >= 1, and
    MISSES when the ray never meets the simplex. All arithmetic is exact; the
    simplex vertices must be affinely independent.
    """
    if x == y:
        raise GeometryError("ray through coincident points is undefined")
    pts = [point(p) for p in simplex]
    if not affinely_independent(pts):
        raise GeometryError("degenerate simplex")
    d = len(x)
    k = len(pts)
    u = vsub(y, x)
    # Unknowns: barycentric weights l_0..l_{k-1}, then t.
    rows = [[pts[i][j] for i in range(k)] + [-u[j]] for j in range(d)]
    rows.append([Fraction(1)] * k + [Fraction(0)])
    rhs = list(x) + [Fraction(1)]
    sol = solve_linear(rows, rhs)
    if sol is None:
        return MISSES
    base, basis = sol
    if not basis:
        lams, t = base[:k], base[k]
        if t >= 0 and all(l >= 0 for l in lams):
            return BEFORE_Y if t < 1 else AT_OR_AFTER_Y
        return MISSES
    # One-parameter family: the ray lies inside the simplex's affine hull.
    # Constraints l_i(s) >= 0 and t(s) >= 0 cut out an interval in s.
    direction = basis[0]
    lo: Fraction | None = None
    hi: Fraction | None = None
    for i in range(k + 1):
        a, b = base[i], direction[i]
        if b == 0:
            if a < 0:
                return MISSES
        else:
            bound = -a / b
            if b > 0:
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = bound if hi is None else min(hi, bound)
    if lo is not None and hi is not None and lo > hi:
        return MISSES
    t0, tdir = base[k], direction[k]
    if tdir == 0:
        t_min = t0
    elif tdir > 0:
        assert lo is not None  # t >= 0 bounds s from below
        t_min = t0 + tdir * lo
    else:
        assert hi is not None
        t_min = t0 + tdir * hi
    return BEFORE_Y if t_min < 1 else AT_OR_AFTER_Y


def full_scan_generic_point(
    tri: PointedTriangulation, seed: int = 0, avoid: tuple[Point, ...] = ()
) -> GenericPoint:
    """The generic-point search with one exact hull membership test per simplex."""
    verts = tri.lattice.polytope.vertices
    targets = sorted(
        (s for s in tri.simplices if s and len(s) <= tri.dim),
        key=lambda s: (len(s), tuple(sorted(s))),
    )
    target_points = [[verts[i] for i in sorted(s)] for s in targets]
    corners = [verts[i] for i in sorted(tri.maximal[0])]
    rng = random.Random(seed)
    bound = 8
    weights = [1] * len(corners)
    for _ in range(64):
        total = Fraction(sum(weights))
        x = tuple(
            sum((w * p[j] for w, p in zip(weights, corners)), Fraction(0)) / total
            for j in range(len(corners[0]))
        )
        if x not in avoid and not any(affine_hull_contains(pts, x) for pts in target_points):
            return GenericPoint(x, tuple(targets), seed)
        weights = [rng.randint(1, bound) for _ in corners]
        bound *= 2
    raise RuntimeError("could not find a generic point")
