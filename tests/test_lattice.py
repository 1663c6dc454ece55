"""Face lattices: facet enumeration oracles, builtin families, JSON format."""
import json
from itertools import combinations

import pytest

from figurate.geometry import GeometryError
from figurate.lattice import (
    builtin,
    enumerate_facets,
    parse_builtin,
    polytope_from_json,
    polytope_from_vertices,
    polytope_to_json,
)


def test_cube_facets():
    cube = parse_builtin("cube:3")
    facets = enumerate_facets(cube.polytope)
    assert len(facets) == 6
    assert all(len(vs) == 4 for _, vs in facets)


def test_simplex_facets_omit_one_vertex():
    for d in range(1, 5):
        sx = parse_builtin(f"simplex:{d}")
        facets = enumerate_facets(sx.polytope)
        assert len(facets) == d + 1
        expected = {frozenset(range(d + 1)) - {i} for i in range(d + 1)}
        assert {vs for _, vs in facets} == expected


def test_cross_polytope_facets():
    cross = parse_builtin("cross:3")
    facets = enumerate_facets(cross.polytope)
    assert len(facets) == 8
    assert all(len(vs) == 3 for _, vs in facets)


def test_facet_enumeration_needs_enough_vertices():
    from figurate.geometry import point
    from figurate.lattice import Polytope

    starved = Polytope("starved", (point([0, 0]), point([1, 0])), 2)
    with pytest.raises(GeometryError):
        enumerate_facets(starved)
    # a 2-point input projects into its hull and becomes a valid segment
    seg = polytope_from_vertices("seg", [["0", "0"], ["1", "0"]])
    assert seg.dim == 1


def test_cube_lattice_counts():
    cube = parse_builtin("cube:3")
    assert len(cube.faces) == 28
    assert cube.face_counts() == {-1: 1, 0: 8, 1: 12, 2: 6, 3: 1}


def test_simplex_lattice_is_power_set():
    for d in range(0, 5):
        sx = parse_builtin(f"simplex:{d}")
        assert len(sx.faces) == 2 ** (d + 1)


def test_segment_face_vector():
    seg = parse_builtin("simplex:1")
    assert seg.face_counts() == {-1: 1, 0: 2, 1: 1}


def test_builtin_examples():
    cube = parse_builtin("cube:3")
    assert len(cube.polytope.vertices) == 8
    assert len(cube.faces) == 28
    cross = parse_builtin("cross:3")
    assert len(cross.polytope.vertices) == 6
    assert len(cross.by_dim[2]) == 8
    pyr = parse_builtin("pyramid:square")
    assert len(pyr.polytope.vertices) == 5
    two_faces = [pyr.faces[i] for i in pyr.by_dim[2]]
    assert len(two_faces) == 5  # 4 triangles and the square base
    assert sorted(len(f.vertices) for f in two_faces) == [3, 3, 3, 3, 4]


def test_builtin_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        builtin("cube", -1)
    with pytest.raises(ValueError):
        builtin("cross", 0)
    with pytest.raises(ValueError):
        builtin("pyramid")
    with pytest.raises(ValueError):
        parse_builtin("dodecahedron:3")


def test_lattice_closed_under_intersection():
    for spec in ["cube:3", "cross:3", "simplex:4", "pyramid:square", "prism:triangle", "bipyramid:square"]:
        lat = parse_builtin(spec)
        sets = {f.vertices for f in lat.faces}
        for a, b in combinations(sets, 2):
            assert (a & b) in sets, (spec, sorted(a), sorted(b))


def test_hull_search_matches_combinatorial_lattice():
    specs = [f"{fam}:{d}" for fam in ("simplex", "cube", "cross") for d in range(1, 5)]
    specs += ["pyramid:square", "prism:triangle", "bipyramid:square"]
    for spec in specs:
        lat = parse_builtin(spec)
        coords = [[str(c) for c in v] for v in lat.polytope.vertices]
        hull = polytope_from_vertices(lat.polytope.name, coords)
        assert {f.vertices for f in lat.faces} == {f.vertices for f in hull.faces}, spec
        assert lat.face_counts() == hull.face_counts()


def test_boundary_euler_relation():
    # alternating face counts of the boundary: 1 + (-1)^(d-1)
    for spec in ["simplex:2", "simplex:4", "cube:2", "cube:4", "cross:3", "cross:5",
                 "pyramid:square", "prism:triangle", "bipyramid:square"]:
        lat = parse_builtin(spec)
        d = lat.dim
        total = sum((-1) ** k * len(lat.by_dim.get(k, ())) for k in range(d))
        assert total == 1 + (-1) ** (d - 1), spec


def test_supplied_faces_skip_hull_search():
    # facet list alone is enough: the closure rebuilds the whole lattice
    cube = parse_builtin("cube:3")
    facet_sets = [sorted(cube.faces[i].vertices) for i in cube.facet_ids()]
    coords = [[str(c) for c in v] for v in cube.polytope.vertices]
    rebuilt = polytope_from_json({"name": "cube", "vertices": coords, "faces": facet_sets})
    assert {f.vertices for f in rebuilt.faces} == {f.vertices for f in cube.faces}


def test_polytope_json_round_trip():
    for spec in ["cube:3", "cross:2", "pyramid:triangle"]:
        lat = parse_builtin(spec)
        data = json.loads(json.dumps(polytope_to_json(lat)))
        again = polytope_from_json(data)
        assert again.polytope.vertices == lat.polytope.vertices
        assert {f.vertices for f in again.faces} == {f.vertices for f in lat.faces}


def test_degenerate_input_is_projected():
    sq = polytope_from_vertices("tilted", [[0, 0, 0], [1, 0, 1], [0, 1, 1], [1, 1, 2]])
    assert sq.dim == 2
    assert sq.polytope.ambient_dim == 2
    assert sq.face_counts() == {-1: 1, 0: 4, 1: 4, 2: 1}


def test_invalid_inputs_rejected():
    with pytest.raises(GeometryError):
        polytope_from_vertices("dup", [[0, 0], [1, 0], [1, 0]])
    with pytest.raises(GeometryError):
        polytope_from_vertices("mixed", [[0, 0], [1, 0, 0]])
    with pytest.raises(GeometryError):
        polytope_from_vertices("redundant", [[0, 0], [2, 0], [0, 2], [1, 0]])
    with pytest.raises(GeometryError):
        polytope_from_vertices("empty", [])
    with pytest.raises(ValueError):
        polytope_from_json({"name": "nothing"})
    with pytest.raises(ValueError, match="'faces' must be a list"):
        polytope_from_json({"vertices": [[0], [1]], "faces": 5})
    with pytest.raises(GeometryError, match="must list vertex indices"):
        polytope_from_json({"vertices": [[0], [1]], "faces": [[0, "1"]]})
    with pytest.raises(GeometryError, match="must list vertex indices"):
        polytope_from_json({"vertices": [[0], [1]], "faces": [0]})
