"""Face lattices from generators on masks, checked against the original construction.

``FaceLattice`` closes its generators under intersection on ``int`` masks,
takes dimensions from the grading and subfaces from the children of each
face. ``reference_face_lattice`` in ``oracles.py`` closes ``frozenset``s
pairwise, ranks every face and scans every pair of faces, and hands out
only masks. Both must give the same face ids, vertex masks, dimensions,
subfaces and facets, and the covers must be the maximal proper subfaces.
Subfaces and the faces holding each vertex must agree as face-id masks, and
covers as ascending id tuples. This holds on every builtin and compound of
dimension at most 5, on simplex:9, pyramid:simplex:8, cube:6, cross:6 and
prism:cube:5, on every polytope JSON file of the tests, given by coordinates
alone or with its faces, and on the JSON round trip of each. A compound is built on its base's facets and face count, without the
base's lattice, and equals the one built on the base's lattice; the face
count its cap reads is its lattice's size. A bipyramid over a point is
rejected: its base point would lie between the two tips. The builtin facets
are checked to be supporting hyperplanes that close up: every ridge lies in
exactly two of them. Builtin and hull lattices compute no rank; only
supplied faces are checked against one.
"""
import json
import re
from pathlib import Path

import pytest

import figurate.lattice as lattice_module
from figurate.geometry import homogenize, integer_plane_through, integer_side
from figurate.lattice import (
    builtin,
    parse_builtin,
    polytope_from_json,
    polytope_from_vertices,
    polytope_to_json,
    vertex_list,
)
from oracles import reference_face_lattice
from test_recursion import BUILTINS

LARGE = ["simplex:9", "pyramid:simplex:8", "cube:6", "cross:6", "prism:cube:5"]
JSON = ["sphere2_6.json", "prism_sphere2_6.json", "cube3_in_q4.json", "seed_tie7.json"]
SPECS = BUILTINS + LARGE + JSON


def _lattice(spec):
    if spec in JSON:
        return polytope_from_json(json.loads((Path(__file__).parent / spec).read_text()))
    return parse_builtin(spec)


def _facet_masks(lattice):
    return [lattice.faces[i] for i in lattice.facet_ids()]


def _assert_equal_lattices(lattice, ref):
    assert lattice.faces == ref.faces
    assert lattice.dims == ref.dims
    assert lattice.by_dim == ref.by_dim
    assert lattice.facet_ids() == ref.facet_ids()
    assert lattice.faces[lattice.top] == (1 << len(lattice.polytope.vertices)) - 1
    assert lattice.top == len(ref.faces) - 1
    assert lattice.below == ref.below
    assert lattice.covers == ref.covers
    assert lattice.with_vertex == ref.with_vertex


@pytest.mark.parametrize("spec", SPECS)
def test_lattice_and_its_json_round_trip_equal_the_reference_construction(spec):
    lattice = _lattice(spec)
    ref = reference_face_lattice(lattice.polytope, map(vertex_list, _facet_masks(lattice)))
    _assert_equal_lattices(lattice, ref)
    # every nonempty face is supplied, so this is the supplied-faces path
    data = json.loads(json.dumps(polytope_to_json(lattice)))
    _assert_equal_lattices(polytope_from_json(data), ref)


@pytest.mark.parametrize("spec", [s for s in BUILTINS + LARGE if s.split(":")[0] in ("pyramid", "prism", "bipyramid")])
def test_a_compound_equals_the_one_built_on_its_base_lattice(monkeypatch, spec):
    family, _, base = spec.partition(":")
    lattice = parse_builtin(spec)
    ref = builtin(family, base=parse_builtin(base))
    assert lattice.polytope == ref.polytope
    _assert_equal_lattices(lattice, ref)
    monkeypatch.setattr(lattice_module, "_MAX_FACES", 0)
    with pytest.raises(ValueError, match=rf"^builtin {re.escape(spec)} would have {len(lattice)} faces, more than the 0 "):
        parse_builtin(spec)


@pytest.mark.parametrize("base", ["simplex:0", "cube:0"])
def test_bipyramid_over_a_point_is_rejected(base):
    with pytest.raises(ValueError, match=rf"^bipyramid base '{base}' must have dimension >= 1$"):
        parse_builtin(f"bipyramid:{base}")


@pytest.mark.parametrize("spec", BUILTINS + LARGE)
def test_builtin_facets_are_supporting_and_close_up(spec):
    lattice = parse_builtin(spec)
    d = lattice.dim
    if d == 0:
        return
    hv = [homogenize(v) for v in lattice.polytope.vertices]
    facets = _facet_masks(lattice)
    for facet in facets:
        plane = integer_plane_through([hv[i] for i in vertex_list(facet)])
        assert plane is not None, (spec, vertex_list(facet))  # affine dimension d - 1
        sides = [integer_side(plane, h) for h in hv]
        assert all(s >= 0 for s in sides) or all(s <= 0 for s in sides), (spec, vertex_list(facet))
        assert [i for i, s in enumerate(sides) if s == 0] == vertex_list(facet), (spec, vertex_list(facet))
    for rid in lattice.by_dim[d - 2]:
        ridge = lattice.faces[rid]
        assert sum(not ridge & ~facet for facet in facets) == 2, (spec, vertex_list(ridge))


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
