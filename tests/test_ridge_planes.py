"""The ridge-plane table: ridge-only genericity and table-driven visibility.

Both are checked against independent oracles kept in ``oracles.py``: the
full-scan generic-point search, and ray casting for visibility. The table
itself, one elimination per maximal simplex, must equal the one kernel per
ridge of ``reference_ridge_planes`` on every builtin of dimension at most 5,
on the large builtins and on random rational polytopes.
"""
import pytest
from hypothesis import given, settings

import figurate.triangulation as triangulation
from figurate.geometry import barycenter, point
from figurate.lattice import Polytope, parse_builtin, polytope_from_vertices
from figurate.partitions import GenericPoint, generic_point, visibility_partitions
from figurate.triangulation import (
    GenericityError,
    PointedTriangulation,
    assign_apexes,
    build_pointed_triangulation,
    vertex_list,
    vertex_order,
)
from oracles import (
    AT_OR_AFTER_Y,
    full_scan_generic_point,
    reference_face_lattice,
    reference_ridge_planes,
    segment_first_hit,
    unverified_triangulation,
)
from test_chain_property import sphere_points, sphere_points_4d
from test_lattice_oracle import LARGE
from test_recursion import BUILTINS

SMALL_FAMILY = (
    ["simplex:%d" % d for d in range(1, 5)]
    + ["cube:%d" % d for d in range(1, 5)]
    + ["cross:%d" % d for d in range(1, 5)]
    + ["pyramid:square", "prism:triangle", "bipyramid:square", "pyramid:cube:3", "bipyramid:cross:3"]
    # their first candidates lie on a ridge plane, so the search must reject them
    + ["bipyramid:triangle", "bipyramid:simplex:3"]
)


def _tri(spec):
    lat = parse_builtin(spec)
    return _triangulated(lat)


def _triangulated(lat):
    return build_pointed_triangulation(lat, assign_apexes(lat, vertex_order(lat.polytope)))


def _ridges(tri):
    return {f ^ 1 << v for f in tri.maximal for v in vertex_list(f)}


def _assert_table_matches_the_reference(tri):
    table, ref = tri.ridge_planes, reference_ridge_planes(tri)
    assert list(table.planes.items()) == list(ref.planes.items())
    assert list(table.facets.items()) == list(ref.facets.items())


@pytest.mark.parametrize("spec", BUILTINS + LARGE)
def test_one_elimination_per_simplex_gives_the_table_of_one_kernel_per_ridge(spec):
    lat = parse_builtin(spec)
    if lat.dim >= 1:
        _assert_table_matches_the_reference(_triangulated(lat))


@settings(max_examples=30, deadline=None)
@given(sphere_points())
def test_table_matches_the_reference_on_rational_sphere_points(points):
    _assert_table_matches_the_reference(_triangulated(polytope_from_vertices("sphere", points)))


@settings(max_examples=10, deadline=None)
@given(sphere_points_4d())
def test_table_matches_the_reference_on_rational_points_on_the_3_sphere(points):
    _assert_table_matches_the_reference(_triangulated(polytope_from_vertices("sphere", points)))


@pytest.mark.parametrize("spec", SMALL_FAMILY)
def test_ridge_only_search_matches_full_scan(spec):
    tri = _tri(spec)
    for seed in range(4):
        plain = generic_point(tri, seed=seed)
        assert plain.x == full_scan_generic_point(tri, seed=seed)
        assert set(plain.certificate) == set(tri.ridge_planes.planes.values())
        # avoiding the first choice forces the seeded retries
        avoid = (plain.x,)
        assert generic_point(tri, seed=seed, avoid=avoid).x == full_scan_generic_point(tri, seed=seed, avoid=avoid)


@pytest.mark.parametrize("spec", ["cube:3", "cross:3", "pyramid:square", "prism:triangle"])
def test_visibility_matches_ray_casting(family, spec):
    b = family[spec]
    verts = b.lattice.polytope.vertices
    for gp, (ext, _) in zip(b.generic_points, b.partitions):
        for f, iv in zip(b.tri.maximal, ext.intervals):
            assert iv.upper == f
            simplex = [verts[i] for i in vertex_list(f)]
            for v in vertex_list(f):
                g = f ^ 1 << v
                hit = segment_first_hit(gp.x, barycenter([verts[i] for i in vertex_list(g)]), simplex)
                # the exterior lower set holds the vertices opposite the visible facets
                assert bool(iv.lower >> v & 1) == (hit == AT_OR_AFTER_Y), (spec, vertex_list(f), v)


def test_one_elimination_per_maximal_simplex(monkeypatch):
    calls = []
    original = triangulation.integer_planes_opposite

    def counted(hpoints):
        calls.append(hpoints)
        return original(hpoints)

    def per_ridge(hpoints):
        raise AssertionError("a ridge plane was computed on its own")

    monkeypatch.setattr(triangulation, "integer_planes_opposite", counted)
    monkeypatch.setattr(triangulation, "integer_plane_through", per_ridge)
    tri = _tri("cube:4")
    points = []
    for i in range(3):
        gp = generic_point(tri, seed=i, avoid=tuple(p.x for p in points))
        points.append(gp)
        visibility_partitions(tri, gp)
    assert len(calls) == len(tri.maximal) == 24
    assert len(tri.ridge_planes.planes) == len(_ridges(tri))


def test_table_sides_and_planes(cube3):
    table = cube3.tri.ridge_planes
    assert table is cube3.tri.ridge_planes  # built once per triangulation
    assert set(table.planes) == _ridges(cube3.tri)
    for f, entries in table.facets.items():
        assert [v for v, *_ in entries] == vertex_list(f)
        for v, g, plane, side in entries:
            assert g == f ^ 1 << v and plane == table.planes[g]
            assert side != 0  # the opposite vertex is off the facet's plane


def _square_with_diagonal_faces():
    # rejected at load, so it comes from the reference construction, which
    # takes any sets
    square = Polytope("sqdiag", tuple(point(v) for v in [(0, 0), (1, 0), (0, 1), (1, 1)]), 2)
    return reference_face_lattice(square, [frozenset({0, 3}), frozenset({1, 2})])


def test_ridge_spanning_no_hyperplane_raises():
    # the lattice has no vertices, so the only maximal simplex is the edge
    # [0, 1] in the plane: its ridges are points, which span no line
    lat = _square_with_diagonal_faces()
    tri = unverified_triangulation(lat, assign_apexes(lat, vertex_order(lat.polytope)))
    assert tri.maximal == (0b11,)
    message = r"^ridge \[1\] of maximal simplex \[0, 1\] spans no hyperplane$"
    with pytest.raises(RuntimeError, match=message):
        tri.ridge_planes
    with pytest.raises(RuntimeError, match=message):
        generic_point(tri)
    gp = GenericPoint(point(["1/3", "1/4"]), ())
    with pytest.raises(RuntimeError, match=message):
        visibility_partitions(tri, gp)


def test_a_flat_maximal_simplex_raises():
    # three points on a line: each pair of them spans the line, so no ridge
    # fails on its own, but the three span no triangle
    pts = Polytope("flat", tuple(point(v) for v in [(0, 0), (1, 0), (2, 0), (0, 1)]), 2)
    lat = reference_face_lattice(pts, [frozenset({0, 2}), frozenset({2, 3}), frozenset({0, 3})])
    tri = PointedTriangulation(lat, None, (), (), (), (0b0111,), True)
    with pytest.raises(RuntimeError, match=r"^the vertices of maximal simplex \[0, 1, 2\] lie in one hyperplane$"):
        tri.ridge_planes


def test_point_on_a_ridge_plane_raises(square):
    f = square.tri.maximal[0]
    verts = square.lattice.polytope.vertices
    on_plane = barycenter([verts[i] for i in vertex_list(f)[:2]])
    gp = GenericPoint(on_plane, ())
    with pytest.raises(GenericityError, match=r"^point lies on the affine hull of facet "):
        visibility_partitions(square.tri, gp)
