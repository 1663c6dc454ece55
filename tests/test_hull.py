"""The gift-wrapping hull search against brute force, and non-extremal input.

``enumerate_facets`` pivots from facet to facet over their ridges.
``brute_force_facets`` in ``oracles.py`` tests a plane through every ``dim``
of the points against all of them. Both must give the same facets, planes
and point sets alike, on random rational point sets in dimensions 2 to 5,
on point sets with four or more points in one plane, and on every builtin
given by its coordinates. Points that are no vertex may be among them: a
facet's set holds every point on its plane. On a line the wrap has no special
case: pivoting over the empty ridge of the lowest point finds the highest
one, both on seeded random rational points and on polygon edges that hold
three or more points, which are wrapped one dimension down.

A point that is no vertex of the hull of the input is rejected when the
input is loaded: ``figurate`` exits 2 naming the first such point.

The lattice keeps the planes the hull search found. Each must be the
canonical ``integer_plane_through`` the facet's homogenized vertices, as
must the planes of supplied faces, made by the load-time check.
"""
import json
import random
from fractions import Fraction
from functools import reduce
from math import comb
from operator import and_
from pathlib import Path

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from figurate.cli import main
from figurate.geometry import GeometryError, homogenize, integer_plane_through, integer_rank, point
from figurate.lattice import (
    Polytope,
    enumerate_facets,
    parse_builtin,
    pick,
    polytope_from_json,
    polytope_from_vertices,
    vertex_list,
)
from oracles import brute_force_facets
from test_recursion import BUILTINS

_RATIONAL = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))


def _check_against_brute_force(points):
    d = len(points[0])
    assume(integer_rank([homogenize(q) for q in points]) == d + 1)
    p = Polytope("points", tuple(points), d)
    facets = enumerate_facets(p)
    assert facets == brute_force_facets(p)
    event(f"d={d}, {len(points)} points, {sum(vs.bit_count() > d for _, vs in facets)} non-simplex facets")


@st.composite
def rational_point_sets(draw):
    d = draw(st.integers(2, 5))
    coords = st.lists(_RATIONAL, min_size=d, max_size=d).map(point)
    return draw(st.lists(coords, min_size=d + 1, max_size=d + 3, unique=True))


@st.composite
def point_sets_with_a_flat(draw):
    """4 or more grid points on x_d = 0 and 1 to 3 points off it, on either side."""
    d = draw(st.integers(3, 4))
    grid = st.lists(st.integers(0, 2), min_size=d - 1, max_size=d - 1)
    flat = draw(st.lists(grid.map(lambda c: point(c + [0])), min_size=4, max_size=d + 3, unique=True))
    off = st.tuples(st.lists(_RATIONAL, min_size=d - 1, max_size=d - 1), st.sampled_from([-1, 1, 2]))
    others = draw(st.lists(off.map(lambda c: point(c[0] + [c[1]])), min_size=1, max_size=3, unique=True))
    return flat + others


@settings(max_examples=40, deadline=None)
@given(rational_point_sets())
def test_gift_wrapping_equals_brute_force_on_rational_points(points):
    _check_against_brute_force(points)


@settings(max_examples=20, deadline=None)
@given(point_sets_with_a_flat())
def test_gift_wrapping_equals_brute_force_with_coplanar_points(points):
    _check_against_brute_force(points)


@pytest.mark.parametrize("spec", [s for s in BUILTINS if s not in ("simplex:0", "cube:0")])
def test_gift_wrapping_finds_the_builtin_facets(spec):
    lattice = parse_builtin(spec)
    p = lattice.polytope
    facets = enumerate_facets(p)
    assert [vs for _, vs in facets] == sorted((lattice.faces[i] for i in lattice.facet_ids()), key=vertex_list)
    if comb(len(p.vertices), p.dim) <= 500:
        assert facets == brute_force_facets(p)


def _assert_the_lattice_keeps_canonical_facet_planes(lat):
    p = lat.polytope
    assert p.hv == tuple(map(homogenize, p.vertices))
    assert sorted(lat.planes) == sorted(lat.faces[i] for i in lat.facet_ids())
    for facet, plane in lat.planes.items():
        assert plane == integer_plane_through(pick(facet, p.hv)), vertex_list(facet)


@settings(max_examples=40, deadline=None)
@given(st.one_of(rational_point_sets(), point_sets_with_a_flat()))
def test_the_hull_planes_kept_by_the_lattice_are_canonical(points):
    d = len(points[0])
    assume(integer_rank([homogenize(q) for q in points]) == d + 1)
    # keep the vertices: the points where the facets through them meet alone
    facets = [vs for _, vs in enumerate_facets(Polytope("points", tuple(points), d))]
    vertices = [q for i, q in enumerate(points) if reduce(and_, (vs for vs in facets if vs >> i & 1), -1) == 1 << i]
    _assert_the_lattice_keeps_canonical_facet_planes(polytope_from_vertices("points", vertices))


@pytest.mark.parametrize("name", sorted(p.name for p in Path(__file__).parent.glob("*.json")))
def test_the_facet_planes_of_every_json_input_are_canonical(name):
    try:
        lat = polytope_from_json(json.loads((Path(__file__).parent / name).read_text()))
    except GeometryError:  # rejected when loaded
        assert name == "square_diagonals_and_vertices.json"
        return
    _assert_the_lattice_keeps_canonical_facet_planes(lat)


def _rational(rng):
    return Fraction(rng.randint(-30, 30), rng.randint(1, 12))


def test_gift_wrapping_on_a_line_finds_the_lowest_and_highest_points():
    rng = random.Random(1)
    for _ in range(300):
        xs = list({_rational(rng) for _ in range(rng.randint(2, 8))})
        if len(xs) < 2:
            continue
        p = Polytope("line", tuple(point([x]) for x in xs), 1)
        facets = enumerate_facets(p)
        ends = sorted([1 << xs.index(min(xs)), 1 << xs.index(max(xs))])
        assert [vs for _, vs in facets] == ends, xs
        assert facets == brute_force_facets(p), xs


def test_gift_wrapping_wraps_an_edge_with_extra_points_on_a_line():
    rng = random.Random(2)
    for _ in range(60):
        corners = [point([_rational(rng), _rational(rng)]) for _ in range(3)]
        a, b, c = corners
        if (b[0] - a[0]) * (c[1] - a[1]) == (b[1] - a[1]) * (c[0] - a[0]):
            continue
        ts = {Fraction(rng.randint(1, 19), 20) for _ in range(rng.randint(1, 3))}
        on_edge = [tuple(x + t * (y - x) for x, y in zip(a, b)) for t in ts]
        p = Polytope("triangle", tuple(corners + on_edge), 2)
        facets = enumerate_facets(p)
        assert max(vs.bit_count() for _, vs in facets) == 2 + len(ts)  # the edge a, b was wrapped on its line
        assert facets == brute_force_facets(p)


def _run(tmp_path, capsys, name, vertices):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"name": name, "vertices": vertices}))
    code = main(["pipeline", "--input", str(path), "--summary"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_TETRA = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
_CUBE = [[i >> 2 & 1, i >> 1 & 1, i & 1] for i in range(8)]
_CUBE4 = [[i >> 3 & 1, i >> 2 & 1, i >> 1 & 1, i & 1] for i in range(16)]
NOT_EXTREMAL = {
    "inside-tetrahedron": (_TETRA + [["1/5", "1/5", "1/5"]], 4),
    "on-a-facet": (_TETRA[:2] + [["1/3", "1/3", "0"]] + _TETRA[2:], 2),
    "on-an-edge": ([["1/2", "0", "0"]] + _TETRA, 0),
    "cube-face-centre": (_CUBE[:5] + [["1/2", "1/2", "1"]] + _CUBE[5:], 5),
    "cube4-square-midpoint": (_CUBE4 + [["1/2", "1/2", "0", "1"]], 16),
}


@pytest.mark.parametrize("name", NOT_EXTREMAL)
def test_a_point_that_is_no_vertex_exits_2(tmp_path, capsys, name):
    vertices, first = NOT_EXTREMAL[name]
    code, out, err = _run(tmp_path, capsys, name, vertices)
    assert code == 2 and out == ""
    assert err == f"figurate: error: vertex {first} of {name!r} is not extremal\n"


def test_square_pyramid_by_coordinates_passes(tmp_path, capsys):
    code, out, err = _run(tmp_path, capsys, "square-pyramid", [[0, 0, 0], [2, 0, 0], [0, 2, 0], [2, 2, 0], [1, 1, 1]])
    assert code == 0 and err == ""
    assert json.loads(out.splitlines()[-1])["failed"] == []
