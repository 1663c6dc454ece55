"""Pointed triangulation construction, verification, splits, stars and links."""
import random
import re
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from figurate.geometry import evaluate_functional
from figurate.lattice import parse_builtin
from figurate.partitions import f_vector
from figurate.triangulation import (
    ApexAssignment,
    GenericityError,
    PointedTriangulation,
    assign_apexes,
    build_pointed_triangulation,
    generic_functional,
    is_simplicial_complex,
    link,
    pseudomanifold_certificate,
    split_boundary_interior,
    star,
    triangulation_to_json,
    verify_pointed,
)
from oracles import (
    affinely_independent,
    is_pure,
    maximal_simplices,
    pairwise_apex_conflict,
    reference_assign_apexes,
    reference_condition_2,
)
from test_lattice_oracle import LARGE
from test_recursion import BUILTINS


def test_generic_functional_on_cube_is_binary_weighting():
    cube = parse_builtin("cube:3")
    c = generic_functional(cube)
    assert c == (1, 2, 4)
    values = sorted(evaluate_functional(c, v) for v in cube.polytope.vertices)
    assert values == list(range(8))


def test_generic_functional_trivial_cases():
    pt = parse_builtin("simplex:0")
    assert generic_functional(pt) == ()
    seg = parse_builtin("simplex:1")
    c = generic_functional(seg)
    vals = [evaluate_functional(c, v) for v in seg.polytope.vertices]
    assert len(set(vals)) == 2


def test_generic_functional_fallback_on_fractional_coordinates():
    # spread-based weights collide here: (1/2, 0).(1, 3/2) == (0, 1/3).(1, 3/2)
    lat = parse_builtin("cube:2")
    from figurate.lattice import Polytope
    from figurate.geometry import point

    tricky = Polytope("tricky", (point(["1/2", "0"]), point(["0", "1/3"]), point(["0", "0"])), 2)
    c = generic_functional(tricky, seed=7)
    vals = [evaluate_functional(c, v) for v in tricky.vertices]
    assert len(set(vals)) == 3


def test_assign_apexes_on_cube():
    cube = parse_builtin("cube:3")
    apexes = assign_apexes(cube, (Fraction(1), Fraction(2), Fraction(4)))
    verts = cube.polytope.vertices
    origin = verts.index((0, 0, 0))
    assert apexes.apex[cube.top.id] == origin
    for f in cube.faces[1:]:
        if f.dim == 0:
            (v,) = f.vertices
            assert apexes.apex[f.id] == v
    edge = cube.face_id(frozenset({verts.index((0, 0, 0)), verts.index((1, 0, 0))}))
    assert apexes.apex[edge] == origin


def test_assign_apexes_rejects_non_generic_functional():
    cube = parse_builtin("cube:2")
    with pytest.raises(GenericityError):
        assign_apexes(cube, (Fraction(1), Fraction(0)))  # ties along vertical edges
    # duplicate values on vertices sharing no face are harmless
    apexes = assign_apexes(cube, (Fraction(1), Fraction(-1)))
    assert len(apexes.apex) == len(cube.faces) - 1


@pytest.mark.parametrize("spec", BUILTINS + LARGE)
def test_ranked_apexes_equal_the_per_face_scan(spec):
    lattice = parse_builtin(spec)
    c = generic_functional(lattice)
    ranked, scanned = assign_apexes(lattice, c), reference_assign_apexes(lattice, c)
    assert ranked == scanned
    assert list(ranked.apex) == list(scanned.apex)


@pytest.mark.parametrize(
    "spec, c",
    [("cube:2", (1, 0)), ("cube:2", (0, 1)), ("cube:2", (0, 0)), ("cube:2", (-1, 0)),
     ("cube:3", (0, 1, 1)), ("cross:3", (1, 1, 0)), ("prism:triangle", (1, 1, 0))],
)
def test_ties_raise_like_the_per_face_scan(spec, c):
    # each of these is constant along some face at its minimum
    lattice = parse_builtin(spec)
    c = tuple(map(Fraction, c))
    with pytest.raises(GenericityError) as ranked:
        assign_apexes(lattice, c)
    with pytest.raises(GenericityError) as scanned:
        reference_assign_apexes(lattice, c)
    assert str(ranked.value) == str(scanned.value)


@pytest.mark.parametrize("c", [(1, 1), (1, -1), (-1, -1)])
def test_ties_off_every_face_are_harmless_like_the_per_face_scan(c):
    # the tied vertices are opposite corners, which share only the square
    # and are not its minimum
    cube = parse_builtin("cube:2")
    c = tuple(map(Fraction, c))
    assert assign_apexes(cube, c) == reference_assign_apexes(cube, c)


def test_square_triangulation_shape(square):
    assert f_vector(square.tri.simplices, 2) == (1, 4, 5, 2)
    assert len(square.tri.maximal) == 2


def test_cube_triangulation_shape(cube3):
    f = cube3.f
    assert f == (1, 8, 19, 18, 6)
    assert f[1] - f[2] + f[3] - f[4] == 1  # Euler check
    assert len(cube3.tri.maximal) == 6


def test_simplex_triangulates_itself():
    for d in range(0, 6):
        sx = parse_builtin(f"simplex:{d}")
        tri = build_pointed_triangulation(sx, assign_apexes(sx, generic_functional(sx)))
        assert tri.maximal == (frozenset(range(d + 1)),)


def test_verify_pointed_passes_on_family(family):
    for b in family.values():
        assert verify_pointed(b.tri).ok, b.spec
        assert pairwise_apex_conflict(b.lattice, b.apexes.apex) is None, b.spec


def _with_apexes(tri, apex):
    """The triangulation under another apex map, each face carrying only its
    own vertex set: condition 1 holds for any apex inside its face, so
    condition 2 decides whether verification passes the first two checks."""
    per_face = {f.id: frozenset({f.vertices}) for f in tri.lattice.faces[1:]}
    return replace(tri, apexes=ApexAssignment(tri.apexes.functional, apex), per_face=per_face)


def _condition_2_detail_is_a_pairwise_violation(detail):
    faces, apexes = detail.split(" share both apexes ")
    f1, f2 = (frozenset(map(int, re.findall(r"\d+", part))) for part in faces.split("] and ["))
    v1, v2 = map(int, apexes.split(", "))
    return v1 != v2 and {v1, v2} <= f1 & f2


@pytest.mark.parametrize("spec", ["cube:3", "cross:3", "simplex:4", "pyramid:square", "prism:triangle"])
def test_condition_2_catches_corrupted_apexes_like_the_pairwise_check(family, spec):
    b = family[spec]
    faces = b.lattice.faces[1:]
    rng = random.Random(spec)
    verdicts = []
    for trial in range(40):
        # move the apexes of a few faces to other vertices of the same face
        apex = dict(b.apexes.apex)
        for f in rng.sample(faces, 1 + trial % 3):
            apex[f.id] = rng.choice(sorted(f.vertices))
        cert = verify_pointed(_with_apexes(b.tri, apex))
        conflict = pairwise_apex_conflict(b.lattice, apex)
        assert (cert.condition == 2) == (conflict is not None), (spec, apex)
        if conflict is not None:
            assert _condition_2_detail_is_a_pairwise_violation(cert.detail), cert.detail
            assert cert.detail == reference_condition_2(b.lattice, apex)
        verdicts.append(conflict is not None)
    assert any(verdicts) and not all(verdicts)


def test_condition_2_names_the_nested_pair(cube3):
    # the cube takes its highest vertex as apex; the first edge through that
    # vertex keeps its lower end as apex, and is reported with the cube
    lattice = cube3.lattice
    value = {v: evaluate_functional(cube3.apexes.functional, p) for v, p in enumerate(lattice.polytope.vertices)}
    top = lattice.top
    highest = max(top.vertices, key=value.get)
    apex = dict(cube3.apexes.apex)
    apex[top.id] = highest
    edge = next(g for g in lattice.faces if g.dim == 1 and highest in g.vertices)
    cert = verify_pointed(_with_apexes(cube3.tri, apex))
    assert (cert.ok, cert.condition) == (False, 2)
    assert cert.detail == (
        f"faces {sorted(edge.vertices)} and {sorted(top.vertices)} share both apexes {apex[edge.id]}, {highest}"
    )
    assert pairwise_apex_conflict(lattice, apex) is not None
    assert cert.detail == reference_condition_2(lattice, apex)


def test_construction_keeps_its_pointedness_certificate():
    cube = parse_builtin("cube:3")
    apexes = assign_apexes(cube, generic_functional(cube))
    assert build_pointed_triangulation(cube, apexes).pointed.ok
    assert build_pointed_triangulation(cube, apexes, verify=False).pointed is None


def test_verify_pointed_vacuous_on_a_point():
    pt = parse_builtin("simplex:0")
    tri = build_pointed_triangulation(pt, assign_apexes(pt, generic_functional(pt)))
    assert verify_pointed(tri).ok


def _closure(tops):
    out = set()
    for t in tops:
        for k in range(len(t) + 1):
            out.update(frozenset(c) for c in combinations(sorted(t), k))
    return frozenset(out)


def test_verify_pointed_rejects_wrong_diagonal(square):
    # retriangulate the square along the diagonal that avoids the apex
    apex = square.tri.apex_vertex
    others = sorted(frozenset(range(4)) - {apex})
    # in the unit square, the vertex opposite the apex is the one at distance 2
    verts = square.lattice.polytope.vertices
    opposite = next(
        i for i in others
        if sum(x != y for x, y in zip(verts[i], verts[apex])) == 2
    )
    wing1, wing2 = [i for i in others if i != opposite]
    bad_top = _closure([frozenset({wing1, wing2, apex}), frozenset({wing1, wing2, opposite})])
    per_face = dict(square.tri.per_face)
    per_face[square.lattice.top.id] = bad_top
    bad = PointedTriangulation(
        square.lattice, square.tri.apexes, bad_top, per_face,
        tuple(sorted(maximal_simplices(bad_top), key=lambda s: tuple(sorted(s)))),
    )
    cert = verify_pointed(bad)
    assert not cert.ok
    assert cert.condition == 1


def test_split_square(square):
    split = square.split
    interior = {s for s in split.interior}
    assert len(interior) == 3  # the diagonal and both triangles
    assert len(split.boundary) == 9  # empty face, 4 vertices, 4 sides
    assert all(len(s) >= 2 for s in interior)


def test_split_cube_interior_counts(cube3):
    assert cube3.e == (0, 1, 6, 6)
    # brute-force oracle: boundary simplices lie in some proper face of the cube
    proper = [f.vertices for f in cube3.lattice.faces[:-1]]
    brute_boundary = {s for s in cube3.tri.simplices if any(s <= pv for pv in proper)}
    assert brute_boundary == set(cube3.split.boundary)
    fb = f_vector(brute_boundary, 2)
    assert fb == (1, 8, 18, 12)
    f = cube3.f
    assert cube3.e == tuple(f[i + 1] - (fb[i + 1] if i + 1 < len(fb) else 0) for i in range(4))


def test_split_simplex_interior_is_top_only():
    for d in range(1, 6):
        sx = parse_builtin(f"simplex:{d}")
        tri = build_pointed_triangulation(sx, assign_apexes(sx, generic_functional(sx)))
        split = split_boundary_interior(tri)
        assert set(split.interior) == {frozenset(range(d + 1))}


def test_split_is_disjoint_union(family):
    for b in family.values():
        assert set(b.split.boundary) | set(b.split.interior) == set(b.tri.simplices)
        assert not set(b.split.boundary) & set(b.split.interior)
        # boundary equals the union of the proper faces' triangulations
        proper_union = {frozenset()}
        for f in b.lattice.faces[1:-1]:
            proper_union |= set(b.tri.per_face[f.id])
        assert proper_union == set(b.split.boundary), b.spec


def test_family_complexes_are_simplicial_and_pure(family):
    for b in family.values():
        assert is_simplicial_complex(b.tri.simplices, exhaustive=True), b.spec
        assert is_pure(b.tri.simplices, b.dim), b.spec
        for f in b.lattice.faces[1:]:
            cf = b.tri.per_face[f.id]
            assert is_simplicial_complex(cf), (b.spec, f.id)
            assert is_pure(cf, f.dim), (b.spec, f.id)


def test_all_simplices_affinely_independent(family):
    for b in family.values():
        verts = b.lattice.polytope.vertices
        for s in b.tri.simplices:
            if s:
                assert affinely_independent([verts[i] for i in sorted(s)]), (b.spec, sorted(s))


def test_every_maximal_simplex_contains_global_apex(family):
    for b in family.values():
        apex = b.tri.apex_vertex
        assert all(apex in s for s in b.tri.maximal), b.spec


def test_link_maximal_simplices_biject_with_complex(family):
    for b in family.values():
        apex = b.tri.apex_vertex
        lk = link(apex, b.tri.simplices)
        lifted = {s | {apex} for s in maximal_simplices(lk)}
        assert lifted == set(b.tri.maximal), b.spec


def test_star_and_link_examples(square):
    apex = square.tri.apex_vertex
    lk = link(apex, square.tri.simplices)
    edges = [s for s in lk if len(s) == 2]
    vertices = [s for s in lk if len(s) == 1]
    assert len(edges) == 2 and len(vertices) == 3  # a path on the non-apex vertices
    assert is_pure(lk, 1)
    st_ = star(apex, square.tri.simplices)
    assert is_pure(st_, 2)
    assert is_simplicial_complex(st_) and is_simplicial_complex(lk)


def test_star_of_vertex_in_single_simplex():
    sx = parse_builtin("simplex:3")
    tri = build_pointed_triangulation(sx, assign_apexes(sx, generic_functional(sx)))
    assert star(0, tri.simplices) == set(tri.simplices)
    seg_complex = {frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})}
    assert link(0, seg_complex) == {frozenset(), frozenset({1})}
    with pytest.raises(ValueError):
        star(99, seg_complex)


def test_pseudomanifold_certificate(family):
    for b in family.values():
        ok, detail = pseudomanifold_certificate(b.tri, b.split)
        assert ok, (b.spec, detail)


@settings(max_examples=25, deadline=None)
@given(scale=st.fractions(min_value=Fraction(1, 7), max_value=20, max_denominator=9))
def test_apex_assignment_invariant_under_positive_scaling(scale):
    lat = parse_builtin("bipyramid:square")
    c = generic_functional(lat)
    scaled = tuple(scale * x for x in c)
    assert assign_apexes(lat, c).apex == assign_apexes(lat, scaled).apex


def test_triangulation_json_is_deterministic(cube3):
    a = triangulation_to_json(cube3.tri, cube3.split)
    b = triangulation_to_json(cube3.tri)
    assert a == b
    assert len(a["simplices"]) == len(cube3.tri.simplices) - 1  # empty simplex not listed
    assert set(map(tuple, a["boundary"])) | set(map(tuple, a["interior"])) == set(
        map(tuple, a["simplices"])
    )
    assert str(cube3.lattice.top.id) in a["apexes"]
