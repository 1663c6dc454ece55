"""Pointed triangulation construction, verification, boundaries and links.

Simplices are vertex masks; the oracles take vertex sets (``oracles.frozen``).
"""
import random
import re
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import event, given, settings, strategies as st

import figurate.triangulation as triangulation
from figurate.geometry import point
from figurate.lattice import Polytope, parse_builtin, vertex_list
from figurate.partitions import f_vector
from figurate.triangulation import (
    GenericityError,
    assign_apexes,
    build_pointed_triangulation,
    link,
    pseudomanifold_certificate,
    verify_pointed,
    vertex_order,
)
from oracles import (
    affinely_independent,
    evaluate_functional,
    fraction_vertex_order,
    frozen,
    is_pure,
    is_simplicial_complex,
    maximal_simplices,
    pairwise_apex_conflict,
    pointedness_violation,
    reference_assign_apexes,
    reference_condition_2,
    reference_split,
    reference_vertex_order,
    to_mask,
    unverified_triangulation,
    vertex_set,
)
from test_lattice_oracle import LARGE, SPECS, _lattice
from test_recursion import BUILTINS


def test_vertex_order_on_cube_is_binary_weighting():
    # (1, 2, 4) separates the unit cube's vertices: rank = the binary number
    cube = parse_builtin("cube:3")
    order = vertex_order(cube.polytope)
    verts = cube.polytope.vertices
    assert [verts[v][0] + 2 * verts[v][1] + 4 * verts[v][2] for v in order] == list(range(8))


def test_vertex_order_trivial_cases():
    assert vertex_order(parse_builtin("simplex:0").polytope) == (0,)
    assert sorted(vertex_order(parse_builtin("simplex:1").polytope)) == [0, 1]


def test_vertex_order_breaks_a_tie_by_coordinates_read_last_to_first():
    # spread-based weights collide here: (1/2, 0).(1, 3/2) == (0, 1/3).(1, 3/2)
    tricky = Polytope("tricky", (point(["1/2", "0"]), point(["0", "1/3"]), point(["0", "0"])), 2)
    assert vertex_order(tricky) == (2, 0, 1) == reference_vertex_order(tricky) == fraction_vertex_order(tricky)


@pytest.mark.parametrize("spec", SPECS)
def test_vertex_order_on_integer_rows_equals_the_fraction_order(spec):
    # L^n times each value keeps the order and the ties; seed_tie7.json ties
    polytope = _lattice(spec).polytope
    assert vertex_order(polytope) == fraction_vertex_order(polytope)


_COORD = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def _points(draw):
    """Distinct rational points in Q^1..Q^5."""
    d = draw(st.integers(1, 5))
    return draw(st.lists(st.tuples(*[_COORD] * d), min_size=1, max_size=9, unique=True))


@st.composite
def _tied_points(draw):
    """Points in [0, s]^d, d >= 2, with both corners, so M = s + 1, and a pair
    p, q = p + delta (M e_i - e_(i+1)) on which (1, M, M^2, ...) ties."""
    d = draw(st.integers(2, 5))
    s = draw(st.fractions(min_value=Fraction(1, 6), max_value=6, max_denominator=6))
    i = draw(st.integers(0, d - 2))
    delta = s / (s + 1) * draw(st.fractions(min_value=0, max_value=1, max_denominator=6).filter(bool))
    box = st.fractions(min_value=0, max_value=s, max_denominator=6)
    p = draw(st.lists(box, min_size=d, max_size=d))
    p[i], p[i + 1] = Fraction(0), delta
    q = list(p)
    q[i], q[i + 1] = delta * (s + 1), Fraction(0)
    rest = draw(st.lists(st.tuples(*[box] * d), max_size=5))
    pts = [(Fraction(0),) * d, (s,) * d, tuple(p), tuple(q)] + rest
    return list(dict.fromkeys(pts))


@settings(max_examples=80, deadline=None)
@given(st.one_of(_points(), _tied_points()))
def test_vertex_order_is_strict_and_breaks_ties_like_the_scaled_functional(pts):
    poly = Polytope("points", tuple(pts), len(pts[0]))
    order = vertex_order(poly)
    assert sorted(order) == list(range(len(pts)))
    assert order == fraction_vertex_order(poly)
    spread = max(max(col) - min(col) for col in zip(*pts))
    first = [evaluate_functional(tuple((1 + spread) ** j for j in range(len(pts[0]))), p) for p in pts]
    separates = len(set(first)) == len(first)
    event("first candidate separates" if separates else "tie")
    if separates:
        assert [first[v] for v in order] == sorted(first)
    else:
        assert order == reference_vertex_order(poly)


def test_assign_apexes_on_cube():
    cube = parse_builtin("cube:3")
    apexes = assign_apexes(cube, vertex_order(cube.polytope))
    verts = cube.polytope.vertices
    origin = verts.index((0, 0, 0))
    assert len(apexes) == len(cube) and apexes[0] is None
    assert apexes[cube.top] == origin
    for fid in cube.by_dim[0]:
        (v,) = vertex_list(cube.faces[fid])
        assert apexes[fid] == v
    edge = cube.faces.index(1 << origin | 1 << verts.index((1, 0, 0)))
    assert apexes[edge] == origin


@pytest.mark.parametrize("order", [(0, 1, 2), (0, 1, 2, 3, 3), (0, 1, 2, 4), (3, 2, 1, 0, 0), ()])
def test_assign_apexes_rejects_an_order_that_is_no_permutation(order):
    square = parse_builtin("cube:2")
    with pytest.raises(ValueError, match=r"^apex order \[.*\] is no permutation of the polytope's vertex indices$"):
        assign_apexes(square, order)


@pytest.mark.parametrize("spec", BUILTINS + LARGE)
def test_ranked_apexes_equal_the_per_face_scan(spec):
    lattice = parse_builtin(spec)
    order = vertex_order(lattice.polytope)
    assert assign_apexes(lattice, order) == reference_assign_apexes(lattice, order)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["cube:3", "cross:3", "pyramid:square", "prism:triangle", "bipyramid:cube:3"]), st.randoms())
def test_apexes_of_any_order_equal_the_per_face_scan(spec, rng):
    lattice = parse_builtin(spec)
    order = list(range(len(lattice.polytope.vertices)))
    rng.shuffle(order)
    assert assign_apexes(lattice, order) == reference_assign_apexes(lattice, order)


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
        tri = build_pointed_triangulation(sx, assign_apexes(sx, vertex_order(sx.polytope)))
        assert tri.maximal == ((1 << d + 1) - 1,)


def test_verify_pointed_passes_on_family(family):
    for b in family.values():
        assert verify_pointed(b.lattice, b.apexes) is None, b.name
        assert pairwise_apex_conflict(b.lattice, b.apexes) is None, b.name


def _condition_2_detail_is_a_pairwise_violation(detail):
    faces, apexes = detail.split(" share both apexes ")
    f1, f2 = (frozenset(map(int, re.findall(r"\d+", part))) for part in faces.split("] and ["))
    v1, v2 = map(int, apexes.split(", "))
    return v1 != v2 and {v1, v2} <= f1 & f2


@pytest.mark.parametrize("spec", ["cube:3", "cross:3", "simplex:4", "pyramid:square", "prism:triangle"])
def test_condition_2_catches_corrupted_apexes_like_the_pairwise_check(family, spec):
    b = family[spec]
    faces = range(1, len(b.lattice))
    rng = random.Random(spec)
    verdicts = []
    for trial in range(40):
        # move the apexes of a few faces to other vertices of the same face
        apex = list(b.apexes)
        for fid in rng.sample(faces, 1 + trial % 3):
            apex[fid] = rng.choice(vertex_list(b.lattice.faces[fid]))
        found = pointedness_violation(verify_pointed, b.lattice, tuple(apex))
        conflict = pairwise_apex_conflict(b.lattice, apex)
        assert (found is not None) == (conflict is not None), (spec, apex)
        if conflict is not None:
            condition, detail = found
            assert condition == 2 and _condition_2_detail_is_a_pairwise_violation(detail), detail
            assert detail == reference_condition_2(b.lattice, apex)
        verdicts.append(conflict is not None)
    assert any(verdicts) and not all(verdicts)


def test_condition_2_names_the_nested_pair(cube3):
    # the cube takes its highest vertex as apex; the first edge through that
    # vertex keeps its lower end as apex, and is reported with the cube
    lattice = cube3.lattice
    top = lattice.top
    highest = vertex_order(lattice.polytope)[-1]
    apex = list(cube3.apexes)
    apex[top] = highest
    edge = next(g for g in lattice.by_dim[1] if lattice.faces[g] >> highest & 1)
    detail = (
        f"faces {vertex_list(lattice.faces[edge])} and {vertex_list(lattice.faces[top])} "
        f"share both apexes {apex[edge]}, {highest}"
    )
    assert pointedness_violation(verify_pointed, lattice, tuple(apex)) == (2, detail)
    assert pairwise_apex_conflict(lattice, apex) is not None
    assert detail == reference_condition_2(lattice, apex)


def test_construction_raises_on_a_pointedness_violation(monkeypatch):
    cube = parse_builtin("cube:3")
    apexes = assign_apexes(cube, vertex_order(cube.polytope))
    assert build_pointed_triangulation(cube, apexes) == unverified_triangulation(cube, apexes)

    def failing(lattice, apexes):
        raise GenericityError("construction violated pointedness condition 2: forced")

    monkeypatch.setattr(triangulation, "verify_pointed", failing)
    with pytest.raises(GenericityError, match=r"^construction violated pointedness condition 2: forced$"):
        build_pointed_triangulation(cube, apexes)


def test_construction_checks_the_whole_complex_once(monkeypatch):
    # conditions 1 and 3 are checked once, after the build, on what each face
    # carries and on their union, the complex it returns
    cube = parse_builtin("cube:3")
    apexes = assign_apexes(cube, vertex_order(cube.polytope))
    seen = []

    def failing(lattice, apexes, carried, simplices):
        seen.append((carried, simplices))
        raise GenericityError("construction violated pointedness condition 1: forced")

    monkeypatch.setattr(triangulation, "_verify_complex", failing)
    with pytest.raises(GenericityError, match=r"^construction violated pointedness condition 1: forced$"):
        build_pointed_triangulation(cube, apexes)
    [(carried, simplices)] = seen
    assert len(carried) == len(cube) and sum(map(len, carried)) == len(simplices)
    assert simplices == set().union(*carried) == unverified_triangulation(cube, apexes).simplices


def test_verify_pointed_vacuous_on_a_point():
    pt = parse_builtin("simplex:0")
    assert verify_pointed(pt, assign_apexes(pt, vertex_order(pt.polytope))) is None


def _closure(tops):
    out = set()
    for t in tops:
        for k in range(len(t) + 1):
            out.update(to_mask(c) for c in combinations(sorted(t), k))
    return frozenset(out)


def test_face_check_rejects_wrong_diagonal(square):
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
    condition, _ = pointedness_violation(triangulation._verify_face, square.lattice.faces[-1], apex, bad_top)
    assert condition == 1


def test_boundary_and_interior_are_the_facet_mask_split(family):
    for b in family.values():
        tri = b.tri
        boundary = tri.simplices - tri.interior
        assert (boundary, tri.interior) == reference_split(tri), b.name
        assert tri.interior <= tri.simplices, b.name
        # the boundary is the union of the proper faces' triangulations, each
        # the complex restricted to the face
        proper = b.lattice.faces[1:-1]
        assert {s for s in tri.simplices if any(not s & ~m for m in proper)} == boundary, b.name
    square = family["cube:2"].tri
    assert len(square.simplices - square.interior) == 9  # empty face, 4 vertices, 4 sides
    assert len(square.interior) == 3  # the diagonal and both triangles
    assert all(s.bit_count() >= 2 for s in square.interior)
    cube3 = family["cube:3"]
    fb = f_vector(cube3.tri.simplices - cube3.tri.interior, 2)
    assert fb == (1, 8, 18, 12)
    assert cube3.e == (0, 1, 6, 6) == tuple(f - g for f, g in zip(cube3.f[1:], fb[1:] + (0,)))
    for d in range(1, 6):
        assert family[f"simplex:{d}"].tri.interior == {(1 << d + 1) - 1}


def test_family_complexes_are_simplicial_and_pure(family):
    for b in family.values():
        assert b.tri.closed and is_simplicial_complex(frozen(b.tri.simplices)), b.name
        assert all((s & t) in b.tri.simplices for s, t in combinations(b.tri.simplices, 2)), b.name
        assert is_pure(frozen(b.tri.simplices), b.dim), b.name
        for fid in range(1, len(b.lattice)):
            face_mask = b.lattice.faces[fid]
            cf = frozen({s for s in b.tri.simplices if not s & ~face_mask})
            assert is_simplicial_complex(cf), (b.name, fid)
            assert is_pure(cf, b.lattice.dims[fid]), (b.name, fid)


@pytest.mark.parametrize("spec", ["cube:3", "cross:3", "pyramid:square"])
def test_the_closure_scan_matches_the_oracle_on_dropped_simplices(family, spec):
    # drop simplices from the complex: a dropped facet of a simplex left in
    # breaks closure, a dropped maximal simplex does not
    simplices = family[spec].tri.simplices
    rng = random.Random(spec)
    verdicts = []
    for trial in range(40):
        bad = simplices - set(rng.sample(sorted(simplices), 1 + trial % 3))
        closed = triangulation._closed_by_scan(bad)
        assert closed == is_simplicial_complex(frozen(bad)), (spec, trial)
        verdicts.append(closed)
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("spec", ["cube:3", "cross:3", "pyramid:square", "prism:triangle"])
def test_joined_masks_that_are_no_down_sets_reach_the_scan(family, monkeypatch, spec):
    b = family[spec]
    lattice, simplices = b.lattice, b.tri.simplices
    _, joined_to = triangulation._carried(lattice, b.apexes)
    scan, scans = triangulation._closed_by_scan, []
    monkeypatch.setattr(triangulation, "_closed_by_scan", lambda c: scans.append(c) or scan(c))
    assert triangulation._closed(lattice, joined_to, simplices) and not scans
    # the test certifies the complex its masks built: with down-sets it
    # passes, and no scan runs, whatever complex is passed
    edge = next(s for s in simplices if s.bit_count() == 2)
    assert triangulation._closed(lattice, joined_to, simplices - {edge}) and not scans
    # a nonempty face without the empty face below it is no down-set, so the
    # scan decides, on a closed complex and on one missing an edge
    for v in range(len(lattice.polytope.vertices)):
        hand_made = list(joined_to)
        hand_made[v] = 1 << lattice.top
        for complex_ in (simplices, simplices - {edge}):
            scans.clear()
            assert triangulation._closed(lattice, hand_made, complex_) == is_simplicial_complex(frozen(complex_))
            assert scans == [complex_]
    assert not is_simplicial_complex(frozen(simplices - {edge}))


def test_all_simplices_affinely_independent(family):
    for b in family.values():
        verts = b.lattice.polytope.vertices
        for s in frozen(b.tri.simplices):
            if s:
                assert affinely_independent([verts[i] for i in sorted(s)]), (b.name, sorted(s))


def test_every_maximal_simplex_contains_global_apex(family):
    for b in family.values():
        apex = b.tri.apex_vertex
        assert all(1 << apex & s for s in b.tri.maximal), b.name


def test_link_maximal_simplices_biject_with_complex(family):
    for b in family.values():
        apex = b.tri.apex_vertex
        lk = link(apex, b.tri.simplices)
        lifted = {s | {apex} for s in maximal_simplices(frozen(lk))}
        assert lifted == set(map(vertex_set, b.tri.maximal)), b.name


def test_link_examples(square):
    apex = square.tri.apex_vertex
    lk = link(apex, square.tri.simplices)
    edges = [s for s in lk if s.bit_count() == 2]
    vertices = [s for s in lk if s.bit_count() == 1]
    assert len(edges) == 2 and len(vertices) == 3  # a path on the non-apex vertices
    assert is_pure(frozen(lk), 1)
    assert is_simplicial_complex(frozen(lk))


def test_link_of_vertex_in_single_simplex():
    sx = parse_builtin("simplex:3")
    tri = build_pointed_triangulation(sx, assign_apexes(sx, vertex_order(sx.polytope)))
    assert link(0, tri.simplices) == {s for s in tri.simplices if not s & 1}
    seg_complex = {0, 0b01, 0b10, 0b11}
    assert link(0, seg_complex) == {0, 0b10}
    # asked inside a stage, so a failed stage, not a usage error
    with pytest.raises(RuntimeError, match=r"^vertex 99 is not in the complex$"):
        link(99, seg_complex)


def test_pseudomanifold_certificate(family):
    for b in family.values():
        ok, detail = pseudomanifold_certificate(b.tri)
        assert ok, (b.name, detail)


@pytest.mark.parametrize("change, detail", [
    # the boundary triangles of the dropped tetrahedron lie in no maximal simplex
    (lambda m: m[1:], "complex ridges in no maximal simplex: [[0, 1, 3], [1, 3, 7]]"),
    (lambda m: m[:2] + m[3:], "complex ridges in no maximal simplex: [[0, 2, 3], [2, 3, 7]]"),
    # [4, 5, 6, 7] is no simplex of the complex, and two of its triangles neither
    (lambda m: m + (0b11110000,), "ridges of maximal simplices not in the complex: [[4, 5, 6], [5, 6, 7]]"),
    (lambda m: m + m[:1], "ridge [1, 3, 7] lies in 2 maximal simplices, expected 1"),
    (lambda m: m + m[-1:], "ridge [0, 6, 7] lies in 3 maximal simplices, expected 2"),
])
def test_pseudomanifold_certificate_names_the_first_bad_ridge(cube3, change, detail):
    tri = cube3.tri
    assert list(map(vertex_list, tri.maximal)) == [
        [0, 1, 3, 7], [0, 1, 5, 7], [0, 2, 3, 7], [0, 2, 6, 7], [0, 4, 5, 7], [0, 4, 6, 7]
    ]
    assert pseudomanifold_certificate(replace(tri, maximal=change(tri.maximal))) == (False, detail)
