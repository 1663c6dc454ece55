"""Face lattices from generators on masks, checked against the original construction.

``FaceLattice`` closes its generators under intersection on ``int`` masks,
takes dimensions from the grading and subfaces from the children of each
face. ``reference_face_lattice`` in ``oracles.py`` closes ``frozenset``s
pairwise, ranks every face and scans every pair of faces. Both must give the
same face ids, vertex sets, dimensions, subfaces and facets, and the covers
must be the maximal proper subfaces. Subfaces and covers must agree both as
face-id masks and as the id tuples read out of them, and so must the faces
holding each vertex. This holds on every builtin of dimension at most 5, on
simplex:9, pyramid:simplex:8, cube:6, cross:6 and prism:cube:5, on a
polytope given only by rational coordinates, and on the JSON round trip of
each. The round trips of the bipyramids over a point are the exception: their
base point lies between the two tips, so the load check rejects it as no
vertex. The builtin facets are checked to be supporting hyperplanes that close
up: every ridge lies in exactly two of them. Builtin and hull lattices
compute no rank; only supplied faces are checked against one.
"""
import json
from pathlib import Path

import pytest

import figurate.lattice as lattice_module
from figurate.geometry import GeometryError, homogenize, integer_plane_through, integer_side
from figurate.lattice import parse_builtin, polytope_from_json, polytope_from_vertices, polytope_to_json
from oracles import reference_face_lattice
from test_recursion import BUILTINS

POINT_BIPYRAMIDS = ["bipyramid:simplex:0", "bipyramid:cube:0"]
LARGE = ["simplex:9", "pyramid:simplex:8", "cube:6", "cross:6", "prism:cube:5"]
SPECS = BUILTINS + LARGE + ["sphere2_6.json"]


def _lattice(spec):
    if spec == "sphere2_6.json":
        return polytope_from_json(json.loads((Path(__file__).parent / spec).read_text()))
    return parse_builtin(spec)


def _facet_sets(lattice):
    return [lattice.faces[i].vertices for i in lattice.facet_ids()]


def _assert_equal_lattices(lattice, ref):
    assert lattice.faces == ref.faces
    assert lattice.by_dim == ref.by_dim
    assert lattice.facet_ids() == ref.facet_ids()
    assert lattice.top.vertices == frozenset(range(len(lattice.polytope.vertices)))
    assert lattice.below == ref.below
    assert lattice.covers == ref.covers
    assert lattice.with_vertex == ref.with_vertex
    for f in ref.faces:
        assert lattice.subface_ids(f.id, include_empty=True) == ref.subface_ids(f.id, include_empty=True)
        assert lattice.cover_ids(f.id) == ref.cover_ids(f.id), sorted(f.vertices)


@pytest.mark.parametrize("spec", SPECS)
def test_lattice_and_its_json_round_trip_equal_the_reference_construction(spec):
    lattice = _lattice(spec)
    ref = reference_face_lattice(lattice.polytope, _facet_sets(lattice))
    _assert_equal_lattices(lattice, ref)
    # every nonempty face is supplied, so this is the supplied-faces path
    data = json.loads(json.dumps(polytope_to_json(lattice)))
    if spec in POINT_BIPYRAMIDS:
        # the base point is the midpoint of the two tips, so it is no vertex
        with pytest.raises(GeometryError, match=r"^faces of '.*' are not a face lattice: vertex 0 is not a 0-face$"):
            polytope_from_json(data)
        return
    _assert_equal_lattices(polytope_from_json(data), ref)


@pytest.mark.parametrize("spec", BUILTINS + LARGE)
def test_builtin_facets_are_supporting_and_close_up(spec):
    lattice = parse_builtin(spec)
    d = lattice.dim
    if d == 0:
        return
    hv = [homogenize(v) for v in lattice.polytope.vertices]
    facets = _facet_sets(lattice)
    for facet in facets:
        plane = integer_plane_through([hv[i] for i in sorted(facet)])
        assert plane is not None, (spec, sorted(facet))  # affine dimension d - 1
        sides = [integer_side(plane, h) for h in hv]
        assert all(s >= 0 for s in sides) or all(s <= 0 for s in sides), (spec, sorted(facet))
        assert {i for i, s in enumerate(sides) if s == 0} == facet, (spec, sorted(facet))
    for rid in lattice.by_dim[d - 2]:
        ridge = lattice.faces[rid].vertices
        assert sum(ridge <= facet for facet in facets) == 2, (spec, sorted(ridge))


def test_builtin_and_hull_lattices_compute_no_rank(monkeypatch):
    calls = []
    rank = lattice_module.integer_rank
    monkeypatch.setattr(lattice_module, "integer_rank", lambda rows: calls.append(rows) or rank(rows))
    for spec in ["simplex:9", "pyramid:simplex:8", "bipyramid:cross:3", "prism:cube:3", "sphere2_6.json"]:
        _lattice(spec)
    cube = parse_builtin("cube:3")
    polytope_from_vertices("cube", [[str(c) for c in v] for v in cube.polytope.vertices])
    assert calls == []
    # supplied faces are checked against one rank per nonempty face
    polytope_from_json(polytope_to_json(cube))
    assert len(calls) == len(cube.faces) - 1
