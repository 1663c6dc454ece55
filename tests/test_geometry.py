"""Exact predicates: side tests, ranks, hull coordinates, and the oracles'
functional evaluation and ray hits."""
from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

from figurate.geometry import (
    GeometryError,
    _rref,
    canonical_plane,
    homogenize,
    hull_coordinates,
    integer_plane_through,
    integer_rank,
    integer_side,
    point,
    rational,
    rational_str,
)
from oracles import (
    AT_OR_AFTER_Y,
    BEFORE_Y,
    MISSES,
    Hyperplane,
    evaluate_functional,
    integer_plane,
    integer_planes_opposite,
    reference_hull_coordinates,
    reference_hyperplane_through,
    reference_rank,
    reference_rref,
    segment_first_hit,
    side_of_hyperplane,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def pt(*coords):
    return point(coords)


def test_rational_parsing_round_trip():
    assert rational("3/4") == Fraction(3, 4)
    assert rational("-5") == -5
    assert rational_str(Fraction(-5, 7)) == "-5/7"
    assert rational_str(Fraction(4, 2)) == "2"
    for bad in ("1/0", "one", 0.5):
        with pytest.raises(GeometryError, match=f"^cannot interpret {bad!r} as a rational$"):
            rational(bad)


def test_evaluate_functional_examples():
    c = point([1, 2, 4])
    assert evaluate_functional(c, pt(0, 0, 0)) == 0
    assert evaluate_functional(c, pt(1, 1, 1)) == 7
    assert evaluate_functional(c, pt(1, 0, 1)) == 5


def test_evaluate_functional_dimension_mismatch():
    with pytest.raises(GeometryError):
        evaluate_functional(point([1, 2]), pt(1, 2, 3))


def test_side_of_hyperplane_examples():
    h = Hyperplane(point([1, 1, 1]), Fraction(1))
    assert side_of_hyperplane(h, pt(0, 0, 0)) == -1
    assert side_of_hyperplane(h, pt(1, 0, 0)) == 0
    assert side_of_hyperplane(h, pt(1, 1, 1)) == 1
    with pytest.raises(GeometryError):
        side_of_hyperplane(h, pt(0, 0))


@given(
    normal=st.lists(rationals, min_size=2, max_size=4),
    offset=rationals,
    coords=st.lists(rationals, min_size=2, max_size=4),
)
def test_side_negates_with_hyperplane(normal, offset, coords):
    n = min(len(normal), len(coords))
    normal, coords = normal[:n], coords[:n]
    if not any(normal):
        normal[0] = Fraction(1)
    h = Hyperplane(point(normal), offset)
    neg = Hyperplane(point([-x for x in normal]), -offset)
    p = point(coords)
    assert side_of_hyperplane(h, p) == -side_of_hyperplane(neg, p)
    # determinism: repeated evaluation is identical
    assert side_of_hyperplane(h, p) == side_of_hyperplane(h, p)


def test_homogenize_and_integer_plane_examples():
    assert homogenize(pt(Fraction(1, 2), Fraction(-2, 3), 4)) == (6, 3, -4, 24)
    assert homogenize(pt(1, 2)) == (1, 1, 2)
    h = Hyperplane(point(["1/2", "3"]), Fraction(5, 4))
    assert integer_plane(h) == (-5, 2, 12)
    assert integer_side(integer_plane(h), homogenize(pt(0, 0))) == -1
    with pytest.raises(GeometryError):
        integer_side(integer_plane(h), homogenize(pt(0, 0, 0)))


@given(
    normal=st.lists(rationals, min_size=2, max_size=4),
    offset=rationals,
    coords=st.lists(rationals, min_size=2, max_size=4),
)
def test_integer_side_matches_rational_side(normal, offset, coords):
    n = min(len(normal), len(coords))
    normal, coords = normal[:n], coords[:n]
    if not any(normal):
        normal[0] = Fraction(1)
    h = Hyperplane(point(normal), offset)
    p = point(coords)
    assert integer_side(integer_plane(h), homogenize(p)) == side_of_hyperplane(h, p)
    # a point placed on the plane tests 0
    j = next(i for i, c in enumerate(normal) if c)
    on = list(p)
    on[j] += (offset - sum(a * b for a, b in zip(normal, p))) / normal[j]
    assert integer_side(integer_plane(h), homogenize(tuple(on))) == 0


def affine_rank(points):
    """The dimension of the points' affine hull, by the integer kernel."""
    return integer_rank([homogenize(p) for p in points]) - 1


def test_affine_rank_examples():
    assert affine_rank([pt(3, 4)]) == 0
    assert affine_rank([pt(0, 0), pt(1, 1), pt(2, 2)]) == 1
    tetra = [pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1)]
    assert affine_rank(tetra) == 3


def test_affine_rank_of_independent_points():
    # k+1 affinely independent points have rank k; affine combinations add nothing
    for k in range(5):
        pts = [pt(*([0] * 5))] + [
            pt(*[1 if j == i else 0 for j in range(5)]) for i in range(k)
        ]
        assert affine_rank(pts) == k


@given(weights=st.lists(rationals, min_size=2, max_size=4))
def test_affine_combination_keeps_rank(weights):
    pts = [pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1)][: len(weights)]
    total = sum(weights, Fraction(0))
    if total == 0:
        weights[0] += 1
        total += 1
    combo = tuple(
        sum((w * p[j] for w, p in zip(weights, pts)), Fraction(0)) / total
        for j in range(3)
    )
    assert affine_rank(pts + [combo]) == affine_rank(pts)


def _plane(*points):
    return integer_plane_through([homogenize(p) for p in points])


def test_integer_plane_through_is_canonical():
    # same plane from different point triples, scaled coordinates
    a = _plane(pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1))
    b = _plane(pt(0, 0, 1), pt(Fraction(1, 2), Fraction(1, 2), 0), pt(1, 0, 0))
    assert a == b
    assert a == (-1, 1, 1, 1)  # x + y + z = 1
    # first nonzero normal coordinate positive, integer primitive
    assert _plane(pt(0, 0), pt(0, 5)) == (0, 1, 0)
    assert _plane(pt(0, Fraction(-2, 3)), pt(Fraction(1, 2), Fraction(-2, 3))) == (2, 0, 3)
    assert _plane(pt(0, 0, 0), pt(1, 0, 0)) is None  # codimension 2 span


small = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 7))


def _with_dependent_rows(draw, rows):
    """Replace some rows by rational combinations of the rows before them."""
    for i in range(1, len(rows)):
        if draw(st.booleans()):
            coeffs = draw(st.lists(small, min_size=i, max_size=i))
            rows[i] = [sum((c * r[j] for c, r in zip(coeffs, rows)), Fraction(0)) for j in range(len(rows[i]))]
    return rows


@st.composite
def rational_matrices(draw):
    m, n = draw(st.integers(1, 7)), draw(st.integers(1, 8))
    rows = [draw(st.lists(small, min_size=n, max_size=n)) for _ in range(m)]
    return _with_dependent_rows(draw, rows)


@st.composite
def simplex_corners(draw):
    """n points of dimension n - 1, some of them affine combinations of the ones before."""
    n = draw(st.integers(2, 6))
    pts = [draw(st.lists(small, min_size=n - 1, max_size=n - 1)) for _ in range(n)]
    for i in range(1, n):
        if draw(st.booleans()):
            coeffs = draw(st.lists(small, min_size=i - 1, max_size=i - 1))
            pts[i] = [p0 + sum((c * (p[j] - p0) for c, p in zip(coeffs, pts[1:i])), Fraction(0))
                      for j, p0 in enumerate(pts[0])]
    return [tuple(p) for p in pts]


@settings(max_examples=150)
@given(corners=simplex_corners())
def test_planes_opposite_each_point_match_one_plane_per_ridge(corners):
    hp = [homogenize(c) for c in corners]
    opposite = integer_planes_opposite(hp)
    if reference_rank([(1,) + c for c in corners]) < len(corners):
        assert opposite is None
    else:
        through = [integer_plane_through(hp[:j] + hp[j + 1:]) for j in range(len(hp))]
        assert [canonical_plane(c) for c in opposite] == through
        assert all(integer_side(plane, q) != 0 for plane, q in zip(opposite, hp))


def test_planes_opposite_need_a_square_matrix():
    assert integer_planes_opposite([homogenize(pt(0, 0)), homogenize(pt(1, 0))]) is None


@settings(max_examples=150)
@given(a=rational_matrices())
def test_integer_kernel_matches_fraction_elimination(a):
    rank, pivots, rows = _rref([homogenize(r)[1:] for r in a])
    ref_rank, ref_pivots, ref_rows = reference_rref([list(r) for r in a])
    assert (rank, pivots) == (ref_rank, ref_pivots)
    den = rows[0][pivots[0]] if pivots else 1  # the kernel leaves D times the RREF
    assert [[Fraction(x, den) for x in row] for row in rows] == ref_rows


def test_hull_coordinates_examples():
    # points on a line in Q^2, the first difference the basis
    assert hull_coordinates([pt(0, 0), pt(2, 2), pt(1, 1)]) == ([pt(0), pt(1), pt(Fraction(1, 2))], 1)
    # a single point, and points that span their space, which come back as given
    assert hull_coordinates([pt(3, 4, 5)]) == ([()], 0)
    tri = [pt(0, 0), pt(1, 0), pt(0, 1)]
    assert hull_coordinates(tri) == (tri, 2)


@st.composite
def embedded_point_sets(draw):
    """1 to 9 points of an affine space of dimension r <= m, embedded in Q^m,
    m <= 6, some of them repeated; dependent directions or coefficients give
    every rank below r too."""
    m = draw(st.integers(1, 6))
    r = draw(st.integers(0, m))
    origin = draw(st.lists(small, min_size=m, max_size=m))
    directions = [draw(st.lists(small, min_size=m, max_size=m)) for _ in range(r)]
    pts = []
    for _ in range(draw(st.integers(1, 8))):
        coeffs = draw(st.lists(small, min_size=r, max_size=r))
        pts.append(point(o + sum((c * v[j] for c, v in zip(coeffs, directions)), Fraction(0))
                         for j, o in enumerate(origin)))
    if draw(st.booleans()):
        pts.insert(draw(st.integers(0, len(pts))), draw(st.sampled_from(pts)))
    return pts


@settings(max_examples=200)
@given(pts=embedded_point_sets())
def test_hull_coordinates_match_reference(pts):
    coords, rank = hull_coordinates(pts)
    event(f"rank {rank} of {len(pts[0])}")
    assert (coords, rank) == reference_hull_coordinates(pts)


@st.composite
def point_sets(draw):
    """1 to d + 1 points in Q^d, d <= 4, some affinely dependent or repeated."""
    d = draw(st.integers(1, 4))
    k = draw(st.integers(1, d + 1))
    base = [draw(st.lists(small, min_size=d, max_size=d)) for _ in range(k)]
    # affine dependence: a dependent difference row gives a dependent point
    diffs = _with_dependent_rows(draw, [[c - b for c, b in zip(p, base[0])] for p in base[1:]])
    return [point(base[0])] + [point(b + c for b, c in zip(base[0], row)) for row in diffs]


@settings(max_examples=150)
@given(pts=point_sets())
def test_integer_plane_matches_reference_hyperplane(pts):
    plane = integer_plane_through([homogenize(p) for p in pts])
    try:
        ref = reference_hyperplane_through(pts)
    except GeometryError:
        assert plane is None
    else:
        assert plane == integer_plane(ref)


TRI = [pt(0, 0), pt(2, 0), pt(0, 2)]


def test_segment_first_hit_blocking_simplex():
    # x outside, y beyond the far side: the triangle blocks the segment
    assert segment_first_hit(pt(-2, Fraction(1, 2)), pt(3, Fraction(1, 2)), TRI) == BEFORE_Y


def test_segment_first_hit_from_inside():
    assert segment_first_hit(pt(Fraction(1, 2), Fraction(1, 2)), pt(1, Fraction(1, 4)), TRI) == BEFORE_Y


def test_segment_first_hit_parallel_miss():
    assert segment_first_hit(pt(-1, 5), pt(1, 5), TRI) == MISSES


def test_segment_first_hit_ray_points_away():
    assert segment_first_hit(pt(3, 3), pt(4, 4), TRI) == MISSES


def test_segment_first_hit_beyond_y():
    assert segment_first_hit(pt(5, Fraction(1, 2)), pt(3, Fraction(1, 2)), TRI) == AT_OR_AFTER_Y


def test_segment_first_hit_lower_dimensional_simplex():
    edge = [pt(1, 0, 0), pt(0, 1, 0)]
    mid = pt(Fraction(1, 2), Fraction(1, 2), 0)
    # y at the hit point itself: not strictly before
    assert segment_first_hit(pt(0, 0, 1), mid, edge) == AT_OR_AFTER_Y
    # y beyond the edge: the hit comes first
    beyond = pt(Fraction(3, 4), Fraction(3, 4), Fraction(-1, 2))
    assert segment_first_hit(pt(0, 0, 1), beyond, edge) == BEFORE_Y
    # a generic line misses a codimension-2 hull
    assert segment_first_hit(pt(0, 0, 1), pt(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)), edge) == MISSES
    assert segment_first_hit(pt(0, 0, 1), pt(0, 0, 2), edge) == MISSES


def test_segment_first_hit_degenerate_simplex():
    with pytest.raises(GeometryError):
        segment_first_hit(pt(0, 0), pt(1, 1), [pt(0, 0), pt(1, 1), pt(2, 2)])
