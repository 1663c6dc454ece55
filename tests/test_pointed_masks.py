"""Pointed triangulations built on vertex masks, checked against frozenset oracles.

``build_pointed_triangulation`` must give the per-face complexes, the
polytope's complex and its maximal simplices of the frozenset construction in
``oracles.py`` on every builtin of dimension at most 5 and on a polytope
given only by rational coordinates, and on simplex:9, pyramid:simplex:8,
cube:6, cross:6 and prism:cube:5. Wrong ``faces`` are rejected when the
lattice is built, with a message that names the face or vertex: each check
of the load-time face-lattice test has a case.
``verify_pointed`` must give the verdict of the maximal-simplex scan of
condition 1 on corrupted per-face complexes, and name the smallest violating
simplex. The package keeps simplices as vertex masks, and the oracles as
vertex sets.
"""
import json
import random
import re
from dataclasses import replace
from pathlib import Path

import pytest

from figurate.geometry import GeometryError, point
from figurate.lattice import Polytope, build_face_lattice, parse_builtin, polytope_from_json
from figurate.triangulation import (
    ApexAssignment,
    assign_apexes,
    verify_pointed,
    vertex_order,
)
from oracles import (
    frozen,
    reference_condition_1,
    reference_pointed_complexes,
    to_mask,
    unverified_triangulation,
    vertex_set,
)
from test_lattice_oracle import LARGE
from test_recursion import BUILTINS

_SQUARE = tuple(point(v) for v in [(0, 0), (1, 0), (0, 1), (1, 1)])
_CENTER = point(("1/2", "1/2"))
_MIDPOINT = point(("1/2", "0"))


def _facets_of(spec):
    lattice = parse_builtin(spec)
    return lattice.polytope.vertices, [sorted(lattice.faces[i].vertices) for i in lattice.facet_ids()]


_CUBE3, _CUBE3_FACETS = _facets_of("cube:3")
_CUBE4, _CUBE4_FACETS = _facets_of("cube:4")
_OCTAHEDRON, _OCTAHEDRON_FACETS = _facets_of("cross:3")
WRONG_FACES = {
    # the diagonals as faces: each grades as a vertex, but spans a line
    "sqdiag": (
        _SQUARE,
        [[0, 3], [1, 2]],
        "face [0, 3] has dimension 1, but the faces inside it grade it as 0",
    ),
    # a triangle as a face: it grades as a vertex, but spans the square's plane
    "sqtri": (
        _SQUARE,
        [[0, 1, 3]],
        "face [0, 1, 3] has dimension 2, but the faces inside it grade it as 0",
    ),
    # the diagonals plus the vertices: only the maximal faces generate the
    # closure, so the vertices are checked but do not grade the diagonals
    "sqdiagv": (
        _SQUARE,
        [[0], [1], [2], [3], [0, 3], [1, 2]],
        "face [0, 3] has dimension 1, but the faces inside it grade it as 0",
    ),
    # a crossed quadrilateral 0-3-1-2 grades right, but its diagonal [0, 3]
    # supports nothing
    "sqbowtie": (
        _SQUARE,
        [[0, 3], [1, 3], [1, 2], [0, 2]],
        "facet [0, 3] has vertices on both sides of its hyperplane",
    ),
    # a vertex in the middle of an edge lies on that edge's hyperplane
    "sqmid": (
        _SQUARE + (_MIDPOINT,),
        [[0, 1], [0, 2], [1, 3], [2, 3]],
        "the hyperplane of facet [0, 1] also holds vertex 4",
    ),
    # a long diagonal of the cube grades as an edge that no facet holds
    "cubediag": (
        _CUBE3,
        _CUBE3_FACETS + [[0, 7]],
        "ridge [0, 7] lies in 0 facets, expected 2",
    ),
    # in the 4-cube the long diagonal is no ridge, and no facet holds it
    "cube4diag": (
        _CUBE4,
        _CUBE4_FACETS + [[0, 15]],
        "face [0, 15] is not the intersection of the facets containing it",
    ),
    # with the edge [2, 3] missing, vertices 2 and 3 are no 0-faces
    "sqopen": (
        _SQUARE,
        [[0, 1], [0, 2], [1, 3]],
        "vertex 2 is not a 0-face",
    ),
    # a point inside the square, listed as a vertex
    "sqcenter": (
        _SQUARE + (_CENTER,),
        [[0, 1], [0, 2], [1, 3], [2, 3]],
        "vertex 4 is not a 0-face",
    ),
    # the octahedron without its facet [0, 2, 4]: the other facets still pin
    # every vertex, and the edges of the missing facet lie in one facet each
    # but are no faces, so only the faces inside the facets show the gap
    "octa7": (
        _OCTAHEDRON,
        _OCTAHEDRON_FACETS[1:],
        "1 faces lie between face [0] and face [0, 2, 5], expected 2",
    ),
}


def _lattice(spec):
    if spec == "sphere2_6.json":
        return polytope_from_json(json.loads((Path(__file__).parent / spec).read_text()))
    return parse_builtin(spec)


@pytest.mark.parametrize("spec", sorted(WRONG_FACES))
def test_wrong_faces_are_rejected(spec):
    vertices, faces, detail = WRONG_FACES[spec]
    with pytest.raises(GeometryError) as caught:
        build_face_lattice(Polytope(spec, vertices, len(vertices[0])), faces)
    assert str(caught.value) == f"faces of {spec!r} are not a face lattice: {detail}"


@pytest.mark.parametrize("spec", BUILTINS + ["sphere2_6.json"] + LARGE)
def test_mask_construction_equals_the_frozenset_construction(spec):
    lattice = _lattice(spec)
    apexes = assign_apexes(lattice, vertex_order(lattice.polytope))
    tri = unverified_triangulation(lattice, apexes)
    per_face, simplices, maximal = reference_pointed_complexes(lattice, apexes)
    assert list(per_face) == [f.id for f in lattice.faces[1:]]
    assert len(tri.complexes) == len(lattice) and tri.complexes[0] == {0}
    assert {fid: frozen(tri.complexes[fid]) for fid in per_face} == per_face
    assert frozen(tri.simplices) == simplices
    assert tuple(map(vertex_set, tri.maximal)) == maximal
    assert all(type(c) is frozenset for c in tri.complexes)
    # one facet set gives the maximal simplices and closure under subsets
    assert tri.closed


def _face_detail(detail):
    simplex, face, apex = re.fullmatch(
        r"maximal simplex (\[.*?\]) of face (\[.*?\]) misses apex (\d+)", detail
    ).groups()
    return json.loads(simplex), json.loads(face), int(apex)


def _with_complexes(tri, changed):
    """The triangulation with the complexes of some faces replaced."""
    return replace(tri, complexes=tuple(changed.get(i, c) for i, c in enumerate(tri.complexes)))


def _drop_simplices(tri, rng):
    f = rng.choice(tri.lattice.faces[1:])
    cf = sorted(tri.complexes[f.id], key=lambda s: (s.bit_count(), sorted(vertex_set(s))))
    dropped = set(rng.sample(cf, min(len(cf), rng.randint(1, 3))))
    return {f.id: frozenset(s for s in cf if s not in dropped)}


def _retriangulate(tri, rng):
    """Retriangulate a few faces as if another of their vertices were the apex."""
    faces = [f for f in tri.lattice.faces[1:] if f.dim >= 2]
    changed = {}
    for f in rng.sample(faces, min(len(faces), rng.randint(1, 2))):
        apex = dict(tri.apexes.apex)
        apex[f.id] = rng.choice(sorted(f.vertices - {apex[f.id]}))
        per_face = reference_pointed_complexes(tri.lattice, ApexAssignment(tri.apexes.order, apex))[0]
        changed[f.id] = frozenset(map(to_mask, per_face[f.id]))
    return changed


@pytest.mark.parametrize("spec", ["cube:3", "cross:3", "simplex:4", "pyramid:square", "prism:triangle"])
def test_condition_1_matches_the_maximal_scan(family, spec):
    tri = family[spec].tri
    faces = {f.id: f for f in tri.lattice.faces}
    rng = random.Random(spec)
    verdicts = []
    for trial in range(60):
        corrupt = (_drop_simplices, _retriangulate)[trial % 2]
        bad = _with_complexes(tri, corrupt(tri, rng))
        cert = verify_pointed(bad)
        ref = reference_condition_1(bad)
        assert (cert.condition == 1) == (ref is not None), (spec, trial)
        if ref is not None:
            fid, missed = ref
            simplex, face, apex = _face_detail(cert.detail)
            assert face == sorted(faces[fid].vertices)
            assert apex == tri.apexes.apex[fid] and apex not in missed[0]
            assert simplex == sorted(missed[0]), (spec, trial, cert.detail)
        verdicts.append(ref is not None)
    assert any(verdicts) and not all(verdicts)


def test_condition_1_names_the_smallest_violating_simplex(cube3):
    # with its tetrahedra gone, the cube's maximal simplices are triangles,
    # and several miss the apex
    tri = cube3.tri
    top = tri.lattice.top.id
    bad = _with_complexes(tri, {top: tri.simplices - set(tri.maximal)})
    fid, missed = reference_condition_1(bad)
    assert fid == top and len(missed) > 1 and missed[0] == {1, 3, 7}
    cert = verify_pointed(bad)
    assert (cert.ok, cert.condition) == (False, 1)
    assert cert.detail == "maximal simplex [1, 3, 7] of face [0, 1, 2, 3, 4, 5, 6, 7] misses apex 0"
