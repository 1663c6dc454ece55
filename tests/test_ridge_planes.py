"""The ridge-plane table: ridge-only genericity and table-driven visibility.

Both are checked against independent oracles kept in ``oracles.py``: the
full-scan generic-point search, and ray casting for visibility.
"""
from collections import Counter

import pytest

import figurate.triangulation as triangulation
from figurate.geometry import barycenter, point
from figurate.lattice import Polytope, parse_builtin
from figurate.partitions import GenericPoint, generic_point, visibility_partitions
from figurate.triangulation import (
    GenericityError,
    assign_apexes,
    build_pointed_triangulation,
    generic_functional,
    split_boundary_interior,
)
from oracles import (
    AT_OR_AFTER_Y,
    full_scan_generic_point,
    reference_face_lattice,
    segment_first_hit,
    unverified_triangulation,
)

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
    return build_pointed_triangulation(lat, assign_apexes(lat, generic_functional(lat)))


def _ridges(tri):
    return {f - {v} for f in tri.maximal for v in f}


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
            simplex = [verts[i] for i in sorted(f)]
            for v in f:
                g = f - {v}
                hit = segment_first_hit(gp.x, barycenter([verts[i] for i in sorted(g)]), simplex)
                # the exterior lower set holds the vertices opposite the visible facets
                assert (v in iv.lower) == (hit == AT_OR_AFTER_Y), (spec, sorted(f), v)


def test_one_hyperplane_per_ridge(monkeypatch):
    calls = Counter()
    original = triangulation.integer_plane_through

    def counted(hpoints):
        calls[frozenset(hpoints)] += 1
        return original(hpoints)

    monkeypatch.setattr(triangulation, "integer_plane_through", counted)
    tri = _tri("cube:4")
    split = split_boundary_interior(tri)
    points = []
    for i in range(3):
        gp = generic_point(tri, seed=i, avoid=tuple(p.x for p in points))
        points.append(gp)
        visibility_partitions(tri, gp, split)
    assert len(calls) == len(_ridges(tri)) == len(tri.ridge_planes.planes)
    assert set(calls.values()) == {1}


def test_table_sides_and_planes(cube3):
    table = cube3.tri.ridge_planes
    assert table is cube3.tri.ridge_planes  # built once per triangulation
    assert set(table.planes) == _ridges(cube3.tri)
    for f, entries in table.facets.items():
        assert [v for v, *_ in entries] == sorted(f)
        for v, g, plane, side in entries:
            assert g == f - {v} and plane == table.planes[g]
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
    tri = unverified_triangulation(lat, assign_apexes(lat, generic_functional(lat)))
    assert tri.maximal == (frozenset({0, 1}),)
    message = r"^ridge \[1\] of maximal simplex \[0, 1\] spans no hyperplane$"
    with pytest.raises(RuntimeError, match=message):
        tri.ridge_planes
    with pytest.raises(RuntimeError, match=message):
        generic_point(tri)
    gp = GenericPoint(point(["1/3", "1/4"]), (), 0)
    with pytest.raises(RuntimeError, match=message):
        visibility_partitions(tri, gp, split_boundary_interior(tri))


def test_point_on_a_ridge_plane_raises(square):
    f = square.tri.maximal[0]
    verts = square.lattice.polytope.vertices
    on_plane = barycenter([verts[i] for i in sorted(f)[:2]])
    gp = GenericPoint(on_plane, (), 0)
    with pytest.raises(GenericityError, match=r"^point lies on the affine hull of facet "):
        visibility_partitions(square.tri, gp, square.split)
