"""Pointed triangulations built on vertex masks, checked against frozenset oracles.

``build_pointed_triangulation`` must give the polytope's complex and its
maximal simplices of the frozenset construction in ``oracles.py``, the
oracle's closure verdict with no fallback scan, and the
interior of the facet-mask split, on every builtin of dimension
at most 5, on polytopes given only by rational coordinates (cube:3 in Q^4
among them), on the prism over one, whose facets are no simplices, and on
simplex:9, pyramid:simplex:8, cube:6, cross:6 and prism:cube:5. On the
builtins, the large ones and ``sphere2_6.json``, each simplex is built once,
at its carrier found by a scan over every face, the faces joined to each
vertex are the carriers of what it was joined to, a down-set, and what the
faces inside a face carry is the oracle's complex of that face. Wrong ``faces`` are
rejected when the lattice is built, with a message that names the face or
vertex: each check of the load-time face-lattice test has a case, and so
does a face that lists a vertex twice. The per-face pointedness check must
give the verdict of the maximal-simplex scan of condition 1 on corrupted
per-face complexes from the oracle, and name the smallest violating simplex
and the smallest missing edge of condition 3. Both branches of condition 1 have
cases: a complex missing a cone s | {v} over a non-maximal s fails the one
superset test but passes the scan, and one missing a maximal simplex fails
both, naming the scan's simplex. With simplices dropped, the check on the
whole complex raises exactly when the per-face scan does, with its message.
The package keeps simplices as vertex masks, and the oracles as vertex sets.
"""
import json
import random
import re
from dataclasses import replace
from itertools import chain
from pathlib import Path
from unittest import mock

import pytest

import figurate.triangulation as triangulation
from figurate.geometry import GeometryError, point
from figurate.lattice import Polytope, build_face_lattice, parse_builtin, pick, polytope_from_json, vertex_list
from figurate.triangulation import (
    assign_apexes,
    build_pointed_triangulation,
    vertex_order,
)
from oracles import (
    frozen,
    is_simplicial_complex,
    per_face_scan,
    pointedness_violation,
    reference_carriers,
    reference_condition_1,
    reference_pointed_complexes,
    reference_split,
    to_mask,
    vertex_set,
)
from test_lattice_oracle import JSON, LARGE
from test_recursion import BUILTINS

_SQUARE = tuple(point(v) for v in [(0, 0), (1, 0), (0, 1), (1, 1)])
_CENTER = point(("1/2", "1/2"))
_MIDPOINT = point(("1/2", "0"))


def _facets_of(spec):
    lattice = parse_builtin(spec)
    return lattice.polytope.vertices, [vertex_list(lattice.faces[i]) for i in lattice.facet_ids()]


_CUBE3, _CUBE3_FACETS = _facets_of("cube:3")
_CUBE4, _CUBE4_FACETS = _facets_of("cube:4")
_OCTAHEDRON, _OCTAHEDRON_FACETS = _facets_of("cross:3")
_TRIANGLE = tuple(point(v) for v in [(0, 0), (1, 0), (0, 1)])
WRONG_FACES = {
    # a valid triangle plus a face that lists vertex 0 twice: read as the
    # face [0], it would pass every check below
    "tri00": (
        _TRIANGLE,
        [[0, 1], [1, 2], [0, 2], [0, 1, 2], [0, 0]],
        "face [0, 0] lists vertex 0 more than once",
    ),
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
    if spec.endswith(".json"):
        return polytope_from_json(json.loads((Path(__file__).parent / spec).read_text()))
    return parse_builtin(spec)


@pytest.mark.parametrize("spec", sorted(WRONG_FACES))
def test_wrong_faces_are_rejected(spec):
    vertices, faces, detail = WRONG_FACES[spec]
    with pytest.raises(GeometryError) as caught:
        build_face_lattice(Polytope(spec, vertices, len(vertices[0])), faces)
    assert str(caught.value) == f"faces of {spec!r} are not a face lattice: {detail}"


def build_without_the_scan(lattice, apexes):
    """The triangulation, built while counting the fallback closure scans:
    there must be none."""
    scans = []
    with mock.patch.object(triangulation, "_closed_by_scan", scans.append):
        tri = build_pointed_triangulation(lattice, apexes)
    assert not scans
    return tri


@pytest.mark.parametrize("spec", BUILTINS + JSON + LARGE)
def test_mask_construction_equals_the_frozenset_construction(spec):
    lattice = _lattice(spec)
    apexes = assign_apexes(lattice, vertex_order(lattice.polytope))
    tri = build_without_the_scan(lattice, apexes)
    _, simplices, maximal = reference_pointed_complexes(lattice, apexes)
    assert type(tri.simplices) is frozenset and frozen(tri.simplices) == simplices
    # the flags' apex sets are the scanned maximal simplices, and the mask
    # test of closure gives the oracle's verdict with no fallback scan
    assert tuple(map(vertex_set, tri.maximal)) == maximal
    assert tri.closed and is_simplicial_complex(simplices)
    assert (tri.simplices - tri.interior, tri.interior) == reference_split(tri)


def assert_built_once_at_the_carrier(lattice, apexes):
    """Each simplex is carried by exactly one face, its brute-force carrier.
    The faces joined to each vertex v are the carriers of the t in every
    carried v | t, and form a down-set."""
    carried, joined_to = triangulation._carried(lattice, apexes)
    built = [(s, fid) for fid, simplices in enumerate(carried) for s in simplices]
    at = dict(built)
    assert len(at) == len(built)
    assert at == reference_carriers(lattice, at)
    joined = [set() for _ in joined_to]
    for fid, simplices in enumerate(carried[1:], 1):
        v = apexes[fid]
        joined[v].update(at[s ^ 1 << v] for s in simplices)
    assert [set(pick(mask, range(len(lattice)))) for mask in joined_to] == joined
    for mask in joined_to:
        assert all(not lattice.below[g] & ~mask for g in pick(mask, range(len(lattice))))
    return carried


@pytest.mark.parametrize("spec", BUILTINS + ["sphere2_6.json"] + LARGE)
def test_each_simplex_is_built_once_at_its_carrier(spec):
    lattice = _lattice(spec)
    apexes = assign_apexes(lattice, vertex_order(lattice.polytope))
    carried = assert_built_once_at_the_carrier(lattice, apexes)
    tri = build_pointed_triangulation(lattice, apexes)
    assert tri.interior == set(carried[-1])
    # what the faces inside a face carry is the face's complex of the oracle,
    # the polytope's complex restricted to the face
    per_face = reference_pointed_complexes(lattice, apexes)[0]
    for fid in range(1, len(lattice)):
        inside = pick(lattice.below[fid] | 1 << fid, carried)
        assert set(chain.from_iterable(inside)) == set(map(to_mask, per_face[fid])), (spec, vertex_list(lattice.faces[fid]))


@pytest.mark.parametrize("spec", ["cube:3", "cross:3", "simplex:4", "pyramid:square", "prism:triangle", "bipyramid:square"])
def test_the_whole_complex_check_raises_as_the_per_face_scan(family, spec):
    # every single simplex dropped, then 40 drawn drops of two or three: the
    # check on the whole complex raises the per-face scan's first violation,
    # or passes where it passes, as when only a cone over a non-maximal
    # simplex is missing
    b = family[spec]
    lattice, apexes = b.lattice, b.apexes
    carried, _ = triangulation._carried(lattice, apexes)
    every = sorted(b.tri.simplices)
    rng = random.Random(spec)

    def verdict(dropped):
        kept = [[s for s in simplices if s not in dropped] for simplices in carried]
        complex_ = b.tri.simplices - dropped
        found = pointedness_violation(triangulation._verify_complex, lattice, apexes, kept, complex_)
        assert found == pointedness_violation(per_face_scan, lattice, apexes, complex_), (spec, sorted(dropped))
        return found

    drops = [{s} for s in every] + [set(rng.sample(every, rng.randint(2, 3))) for _ in range(40)]
    verdicts = {found and found[0] for found in map(verdict, drops)}
    # every edge of a simplex is a face, whose end off the apex is then maximal
    assert verdicts == ({None, 1} if spec.startswith("simplex") else {None, 1, 3})
    # without the empty simplex and a vertex w, no cone over a simplex of the
    # complex is the edge from the top apex v to w
    v = b.tri.apex_vertex
    w = next(w for w in range(len(lattice.polytope.vertices)) if w != v)
    assert verdict({0, 1 << w, 1 << v | 1 << w})[1].startswith(f"edge [{v}, {w}] missing")


def _face_detail(detail):
    simplex, face, apex = re.fullmatch(
        r"maximal simplex (\[.*?\]) of face (\[.*?\]) misses apex (\d+)", detail
    ).groups()
    return json.loads(simplex), json.loads(face), int(apex)


def _mask_complexes(lattice, apexes):
    """The oracle's complex of every nonempty face, as vertex masks, by face id."""
    per_face = reference_pointed_complexes(lattice, apexes)[0]
    return {fid: frozenset(map(to_mask, c)) for fid, c in per_face.items()}


def _first_condition_1(lattice, apex, per_face):
    """The first face, in face order, on whose complex the per-face check
    reports condition 1, and the detail of that; or None."""
    for fid in range(1, len(lattice)):
        found = pointedness_violation(triangulation._verify_face, lattice.faces[fid], apex[fid], per_face[fid])
        if found is not None and found[0] == 1:
            return fid, found[1]
    return None


def _drop_simplices(b, per_face, rng):
    fid = rng.choice(range(1, len(b.lattice)))
    cf = sorted(per_face[fid], key=lambda s: (s.bit_count(), sorted(vertex_set(s))))
    dropped = set(rng.sample(cf, min(len(cf), rng.randint(1, 3))))
    return {fid: frozenset(s for s in cf if s not in dropped)}


def _retriangulate(b, per_face, rng):
    """Retriangulate a few faces as if another of their vertices were the apex."""
    faces = [fid for fid in range(1, len(b.lattice)) if b.lattice.dims[fid] >= 2]
    changed = {}
    for fid in rng.sample(faces, min(len(faces), rng.randint(1, 2))):
        apex = list(b.apexes)
        apex[fid] = rng.choice(vertex_list(b.lattice.faces[fid] & ~(1 << apex[fid])))
        changed[fid] = _mask_complexes(b.lattice, tuple(apex))[fid]
    return changed


@pytest.mark.parametrize("spec", ["cube:3", "cross:3", "simplex:4", "pyramid:square", "prism:triangle"])
def test_condition_1_matches_the_maximal_scan(family, spec):
    b = family[spec]
    lattice, apex = b.lattice, b.apexes
    per_face = _mask_complexes(lattice, b.apexes)
    rng = random.Random(spec)
    verdicts = []
    for trial in range(60):
        corrupt = (_drop_simplices, _retriangulate)[trial % 2]
        bad = {**per_face, **corrupt(b, per_face, rng)}
        found = _first_condition_1(lattice, apex, bad)
        ref = reference_condition_1(lattice, apex, {fid: frozen(c) for fid, c in bad.items()})
        assert (found is not None) == (ref is not None), (spec, trial)
        if ref is not None:
            fid, missed = ref
            simplex, face, v = _face_detail(found[1])
            assert found[0] == fid and face == vertex_list(lattice.faces[fid])
            assert v == apex[fid] and v not in missed[0]
            assert simplex == sorted(missed[0]), (spec, trial, found[1])
        verdicts.append(ref is not None)
    assert any(verdicts) and not all(verdicts)


def test_condition_1_names_the_smallest_violating_simplex(cube3):
    # with its tetrahedra gone, the cube's maximal simplices are triangles,
    # and several miss the apex
    tri = cube3.tri
    top = tri.lattice.top
    per_face = _mask_complexes(tri.lattice, tri.apexes)
    bad = {**per_face, top: tri.simplices - set(tri.maximal)}
    fid, missed = reference_condition_1(tri.lattice, tri.apexes, {i: frozen(c) for i, c in bad.items()})
    assert fid == top and len(missed) > 1 and missed[0] == {1, 3, 7}
    assert _first_condition_1(tri.lattice, tri.apexes, bad)[0] == top
    assert pointedness_violation(triangulation._verify_face, tri.lattice.faces[top], tri.apex_vertex, bad[top]) == (
        1, "maximal simplex [1, 3, 7] of face [0, 1, 2, 3, 4, 5, 6, 7] misses apex 0"
    )


@pytest.mark.parametrize("spec", ["cube:3", "cross:3", "pyramid:square", "prism:triangle"])
def test_a_missing_cone_over_a_non_maximal_simplex_passes_condition_1(family, spec):
    # dropping t = s | {v} below a maximal simplex M fails the one superset
    # test, but s | {w} for w in M - t is kept, so s is no maximal simplex:
    # the complex is pointed, or only the edge [v, w] is missing
    tri = family[spec].tri
    top, v = tri.lattice.faces[tri.lattice.top], tri.apex_vertex
    bit = 1 << v
    cones = [t for t in tri.simplices if t & bit and t != bit and t not in tri.maximal]
    assert cones
    for t in cones:
        cf = tri.simplices - {t}
        assert not cf.issuperset(map(bit.__or__, cf))
        found = pointedness_violation(triangulation._verify_face, top, v, cf)
        if t.bit_count() > 2:
            assert found is None, (spec, vertex_set(t), found)
        else:
            w = (t ^ bit).bit_length() - 1
            assert found == (3, f"edge [{v}, {w}] missing from triangulation of face {vertex_list(top)}"), (
                spec, vertex_set(t)
            )


@pytest.mark.parametrize("spec", ["cube:3", "cross:3", "pyramid:square", "prism:triangle"])
def test_dropping_a_maximal_simplex_names_the_scan_s_smallest_violator(family, spec):
    # its facet opposite the apex lies in no other maximal simplex, so it
    # becomes maximal and misses the apex
    tri = family[spec].tri
    top, v = tri.lattice.top, tri.apex_vertex
    per_face = _mask_complexes(tri.lattice, tri.apexes)
    for m in tri.maximal:
        bad = {**per_face, top: tri.simplices - {m}}
        fid, missed = reference_condition_1(tri.lattice, tri.apexes, {i: frozen(c) for i, c in bad.items()})
        assert fid == top
        assert pointedness_violation(triangulation._verify_face, tri.lattice.faces[top], v, bad[top]) == (
            1, f"maximal simplex {sorted(missed[0])} of face {vertex_list(tri.lattice.faces[top])} misses apex {v}"
        )


def test_condition_3_names_the_missing_edge(square):
    # without the diagonal from the apex, both triangles still hold the apex,
    # so condition 1 holds and the edge is reported
    tri = square.tri
    top, apex = tri.lattice.faces[tri.lattice.top], tri.apex_vertex
    (diagonal,) = (s for s in tri.simplices if s.bit_count() == 2 and s & 1 << apex and s in tri.interior)
    w = (diagonal ^ 1 << apex).bit_length() - 1
    assert pointedness_violation(triangulation._verify_face, top, apex, tri.simplices - {diagonal}) == (
        3, f"edge [{apex}, {w}] missing from triangulation of face [0, 1, 2, 3]"
    )


def test_condition_3_names_the_smallest_missing_edge():
    # cube:4's square [0, 1, 8, 9] has apex 0, and as a frozenset its other
    # vertices iterate as 8, 1, 9: with the edges to 1 and 8 both gone, the
    # vertices are read in ascending order and the edge to 1 is named
    lattice = parse_builtin("cube:4")
    apexes = assign_apexes(lattice, vertex_order(lattice.polytope))
    tri = build_pointed_triangulation(lattice, apexes)
    face = to_mask([0, 1, 8, 9])
    assert apexes[lattice.faces.index(face)] == 0
    cf = frozenset(s for s in tri.simplices if not s & ~face) - {to_mask([0, 1]), to_mask([0, 8])}
    assert pointedness_violation(triangulation._verify_face, face, 0, cf) == (
        3, "edge [0, 1] missing from triangulation of face [0, 1, 8, 9]"
    )
