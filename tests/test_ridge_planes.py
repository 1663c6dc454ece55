"""The flag walk against the ridge-plane table.

Each point's exterior lower sets come from one walk down the face lattice
(``triangulation.exterior_lower_sets``). The oracle is the ridge-plane table
of ``oracles.ridge_planes``, one elimination per maximal simplex, read by one
side test per facet (``oracles.side_test_lower_sets``). Walk and table must
give the same lower sets at every generic point, and both must raise at
points on a ridge plane, on every builtin of dimension at most 5, on the
large builtins, on random rational polytopes, on every JSON input here and
under drawn vertex orders (``test_chain_property.py``). The table itself
must equal the one kernel per ridge of ``reference_ridge_planes``. The
search is checked against the full-scan search and visibility against ray
casting. The walks read the lattice's facet planes: each is made once per
lattice, whatever the triangulation, and none by the walks on an input whose
load made them.
"""
import json
from pathlib import Path

import pytest
from hypothesis import given, settings

import figurate.lattice as lattice
from figurate.geometry import barycenter, homogenize, point
from figurate.lattice import Polytope, parse_builtin, pick, polytope_from_json, polytope_from_vertices, vertex_list
from figurate.partitions import generic_point, visibility_partitions
from figurate.triangulation import (
    GenericityError,
    assign_apexes,
    build_pointed_triangulation,
    exterior_lower_sets,
    vertex_order,
)
from oracles import (
    AT_OR_AFTER_Y,
    full_scan_generic_point,
    reference_face_lattice,
    reference_ridge_planes,
    ridge_planes,
    segment_first_hit,
    side_test_lower_sets,
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
JSON_INPUTS = sorted(p.name for p in Path(__file__).parent.glob("*.json"))


def _tri(spec):
    lat = parse_builtin(spec)
    return _triangulated(lat)


def _triangulated(lat):
    return build_pointed_triangulation(lat, assign_apexes(lat, vertex_order(lat.polytope)))


def _lower_sets(walk, *args):
    """The lower sets of one reading, or the exception class it raised."""
    try:
        return walk(*args)
    except GenericityError:
        return GenericityError


def assert_walk_matches_the_table(tri, points=3):
    """The walk's lower sets equal the table's at ``points`` generic points,
    and at the barycenters of the first maximal simplices, generic or not."""
    table = ridge_planes(tri)
    assert list(table.planes.items()) == list(reference_ridge_planes(tri).planes.items())
    verts = tri.lattice.polytope.vertices
    gps = []
    for seed in range(points):
        gps.append(generic_point(tri, seed=seed, avoid=tuple(g.x for g in gps)))
        assert gps[-1].certificate == side_test_lower_sets(table, gps[-1].x)
    for f in tri.maximal[:4]:
        x = barycenter([verts[i] for i in vertex_list(f)])
        assert _lower_sets(exterior_lower_sets, tri, homogenize(x)) == _lower_sets(side_test_lower_sets, table, x)


@pytest.mark.parametrize("spec", BUILTINS + LARGE)
def test_walk_matches_the_table_on_the_builtins(spec):
    lat = parse_builtin(spec)
    if lat.dim >= 1:
        assert_walk_matches_the_table(_triangulated(lat))


@settings(max_examples=30, deadline=None)
@given(sphere_points())
def test_walk_matches_the_table_on_rational_sphere_points(points):
    assert_walk_matches_the_table(_triangulated(polytope_from_vertices("sphere", points)))


@settings(max_examples=10, deadline=None)
@given(sphere_points_4d())
def test_walk_matches_the_table_on_rational_points_on_the_3_sphere(points):
    assert_walk_matches_the_table(_triangulated(polytope_from_vertices("sphere", points)))


@pytest.mark.parametrize("name", JSON_INPUTS)
def test_walk_matches_the_table_on_every_json_input(name):
    data = json.loads((Path(__file__).parent / name).read_text())
    try:
        lat = polytope_from_json(data)
    except ValueError:  # rejected when loaded, so never triangulated
        assert name == "square_diagonals_and_vertices.json"
        return
    assert_walk_matches_the_table(_triangulated(lat))


@pytest.mark.parametrize("spec", SMALL_FAMILY)
def test_ridge_only_search_matches_full_scan(spec):
    tri = _tri(spec)
    for seed in range(4):
        plain = generic_point(tri, seed=seed)
        assert plain.x == full_scan_generic_point(tri, seed=seed)
        assert plain.certificate == side_test_lower_sets(ridge_planes(tri), plain.x)
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


def _planes_made(monkeypatch):
    """The points of every ``integer_plane_through`` call made from ``figurate.lattice`` from now on."""
    calls = []
    original = lattice.integer_plane_through

    def count(hpoints):
        calls.append(tuple(hpoints))
        return original(hpoints)

    monkeypatch.setattr(lattice, "integer_plane_through", count)
    return calls


def _walk_three_points(tri):
    points = []
    for i in range(3):
        points.append(generic_point(tri, seed=i, avoid=tuple(p.x for p in points)))
        visibility_partitions(tri, points[-1])


def test_each_facet_plane_is_made_once_per_lattice(monkeypatch):
    # two triangulations of one lattice, from opposite vertex orders, read one set of planes
    calls = _planes_made(monkeypatch)
    lat = parse_builtin("cube:4")
    order = vertex_order(lat.polytope)
    for apexes in (assign_apexes(lat, order), assign_apexes(lat, order[::-1])):
        tri = build_pointed_triangulation(lat, apexes)
        _walk_three_points(tri)
        assert tri.flag_steps is tri.flag_steps  # built once per triangulation
    hv = [homogenize(v) for v in lat.polytope.vertices]
    assert sorted(calls) == sorted(pick(lat.faces[i], hv) for i in lat.facet_ids())  # all 8, once each


@pytest.mark.parametrize("source", ["cube:4 by coordinates", "prism_sphere2_6.json"])
def test_loaded_inputs_keep_the_planes_their_walks_read(monkeypatch, source):
    # the hull search, or the load-time check of the supplied faces, made every plane
    if source.endswith(".json"):
        lat = polytope_from_json(json.loads((Path(__file__).parent / source).read_text()))
    else:
        lat = polytope_from_vertices("cube4", parse_builtin("cube:4").polytope.vertices)
    calls = _planes_made(monkeypatch)
    _walk_three_points(_triangulated(lat))
    assert calls == []


def _square_with_diagonal_faces():
    # rejected at load, so it comes from the reference construction, which
    # takes any sets
    square = Polytope("sqdiag", tuple(point(v) for v in [(0, 0), (1, 0), (0, 1), (1, 1)]), 2)
    return reference_face_lattice(square, [frozenset({0, 3}), frozenset({1, 2})])


def test_a_maximal_simplex_of_no_flag_raises():
    # the lattice has no vertices, so the only maximal simplex is the edge
    # [0, 1] in the plane, and the flags from the top run past every vertex
    lat = _square_with_diagonal_faces()
    tri = unverified_triangulation(lat, assign_apexes(lat, vertex_order(lat.polytope)))
    assert tri.maximal == (0b11,)
    message = r"^maximal simplex \[0, 1\] is the apex set of no flag$"
    with pytest.raises(RuntimeError, match=message):
        exterior_lower_sets(tri, homogenize(point(["1/3", "1/4"])))
    with pytest.raises(RuntimeError, match=message):
        generic_point(tri)


def test_an_apex_on_its_facet_plane_raises():
    # vertex 1 lies on the edge [0, 2], in no proper face: as the top apex it
    # spans a flat triangle with that edge, and lies on its plane
    pts = Polytope("flat", tuple(point(v) for v in [(0, 0), (1, 0), (2, 0), (0, 1)]), 2)
    lat = reference_face_lattice(pts, [frozenset({0, 2}), frozenset({2, 3}), frozenset({0, 3})])
    tri = unverified_triangulation(lat, assign_apexes(lat, (1, 0, 2, 3)))
    assert 0b0111 in tri.maximal
    with pytest.raises(RuntimeError, match=r"^apex 1 lies on the plane of facet \[0, 2\]$"):
        generic_point(tri)


def test_no_facet_between_a_face_and_an_apex_raises():
    # the point [1] is listed as a face of the edge [0, 1] alone, so every
    # facet that holds it holds the edge's apex 0 too
    square = Polytope("sq", tuple(point(v) for v in [(0, 0), (1, 0), (0, 1), (1, 1)]), 2)
    lat = reference_face_lattice(square, [frozenset({0, 1}), frozenset({1}), frozenset({2, 3})])
    tri = unverified_triangulation(lat, assign_apexes(lat, (2, 0, 1, 3)))
    with pytest.raises(RuntimeError, match=r"^no facet holds face \[1\] and misses apex 0 of face \[0, 1\]$"):
        generic_point(tri)


def test_point_on_a_ridge_plane_raises(square):
    f = square.tri.maximal[0]
    verts = square.lattice.polytope.vertices
    on_plane = barycenter([verts[i] for i in vertex_list(f)[:2]])
    message = r"^point lies on the affine hull of apexes \[0, 1\] and face \[\]$"
    with pytest.raises(GenericityError, match=message):
        exterior_lower_sets(square.tri, homogenize(on_plane))
    with pytest.raises(GenericityError, match=r"^point lies on the affine hull of facet \[0, 1\]$"):
        side_test_lower_sets(ridge_planes(square.tri), on_plane)
