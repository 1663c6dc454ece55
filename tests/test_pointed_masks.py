"""Pointed triangulations built on vertex masks, checked against frozenset oracles.

``build_pointed_triangulation`` must give the per-face complexes, the
polytope's complex and its maximal simplices of the frozenset construction in
``oracles.py`` on every builtin of dimension at most 5 and on a polytope
given only by rational coordinates. Wrong ``faces`` are rejected when the
lattice is built, with a message that names the face.
``verify_pointed`` must give the verdict of the maximal-simplex scan of
condition 1 on corrupted per-face complexes, and name the smallest violating
simplex.
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
    build_pointed_triangulation,
    generic_functional,
    verify_pointed,
)
from oracles import reference_condition_1, reference_pointed_complexes
from test_recursion import BUILTINS

_SQUARE = tuple(point(v) for v in [(0, 0), (1, 0), (0, 1), (1, 1)])
WRONG_FACES = {
    # the diagonals as faces: each grades as a vertex, but spans a line
    "sqdiag": (
        [frozenset({0, 3}), frozenset({1, 2})],
        "face [0, 3] has dimension 1, but the faces inside it grade it as 0",
    ),
    # a triangle as a face: it grades as a vertex, but spans the square's plane
    "sqtri": (
        [frozenset({0, 1, 3})],
        "face [0, 1, 3] has dimension 2, but the faces inside it grade it as 0",
    ),
}


def _lattice(spec):
    if spec == "sphere2_6.json":
        return polytope_from_json(json.loads((Path(__file__).parent / spec).read_text()))
    return parse_builtin(spec)


@pytest.mark.parametrize("spec", sorted(WRONG_FACES))
def test_wrong_faces_are_rejected(spec):
    faces, detail = WRONG_FACES[spec]
    with pytest.raises(GeometryError) as caught:
        build_face_lattice(Polytope(spec, _SQUARE, 2), faces)
    assert str(caught.value) == f"faces of {spec!r} are not a face lattice: {detail}"


@pytest.mark.parametrize("spec", BUILTINS + ["sphere2_6.json"])
def test_mask_construction_equals_the_frozenset_construction(spec):
    lattice = _lattice(spec)
    apexes = assign_apexes(lattice, generic_functional(lattice))
    tri = build_pointed_triangulation(lattice, apexes, verify=False)
    per_face, simplices, maximal = reference_pointed_complexes(lattice, apexes)
    assert list(tri.per_face) == list(per_face) == [f.id for f in lattice.faces[1:]]
    assert tri.per_face == per_face
    assert tri.simplices == simplices
    assert tri.maximal == maximal
    assert all(type(c) is frozenset for c in tri.per_face.values())
    # equal simplices of different complexes are one object
    shared = {}
    assert all(shared.setdefault(s, s) is s for c in tri.per_face.values() for s in c)


def _face_detail(detail):
    simplex, face, apex = re.fullmatch(
        r"maximal simplex (\[.*?\]) of face (\[.*?\]) misses apex (\d+)", detail
    ).groups()
    return json.loads(simplex), json.loads(face), int(apex)


def _drop_simplices(tri, rng):
    f = rng.choice(tri.lattice.faces[1:])
    cf = sorted(tri.per_face[f.id], key=lambda s: (len(s), sorted(s)))
    dropped = set(rng.sample(cf, min(len(cf), rng.randint(1, 3))))
    return {f.id: frozenset(s for s in cf if s not in dropped)}


def _retriangulate(tri, rng):
    """Retriangulate a few faces as if another of their vertices were the apex."""
    faces = [f for f in tri.lattice.faces[1:] if f.dim >= 2]
    changed = {}
    for f in rng.sample(faces, min(len(faces), rng.randint(1, 2))):
        apex = dict(tri.apexes.apex)
        apex[f.id] = rng.choice(sorted(f.vertices - {apex[f.id]}))
        per_face = reference_pointed_complexes(tri.lattice, ApexAssignment(tri.apexes.functional, apex))[0]
        changed[f.id] = per_face[f.id]
    return changed


@pytest.mark.parametrize("spec", ["cube:3", "cross:3", "simplex:4", "pyramid:square", "prism:triangle"])
def test_condition_1_matches_the_maximal_scan(family, spec):
    tri = family[spec].tri
    faces = {f.id: f for f in tri.lattice.faces}
    rng = random.Random(spec)
    verdicts = []
    for trial in range(60):
        corrupt = (_drop_simplices, _retriangulate)[trial % 2]
        bad = replace(tri, per_face={**tri.per_face, **corrupt(tri, rng)})
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
    bad = replace(tri, per_face={**tri.per_face, top: tri.simplices - set(tri.maximal)})
    fid, missed = reference_condition_1(bad)
    assert fid == top and len(missed) > 1 and missed[0] == {1, 3, 7}
    cert = verify_pointed(bad)
    assert (cert.ok, cert.condition) == (False, 1)
    assert cert.detail == "maximal simplex [1, 3, 7] of face [0, 1, 2, 3, 4, 5, 6, 7] misses apex 0"
