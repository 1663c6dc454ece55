"""Visibility partitions and the f/h/k/e vector calculus."""
import pytest
from hypothesis import given, strategies as st

from figurate.lattice import parse_builtin
from figurate.partitions import (
    EXTERIOR,
    INTERIOR,
    Interval,
    Partition,
    e_vector,
    euler_characteristic,
    exterior_partition,
    f_vector,
    generic_point,
    h_from_f,
    h_from_partition,
    interior_counts_from_k,
    interior_partition,
    k_from_partition,
    verify_partition,
    visible_facets,
)
from figurate.triangulation import (
    GenericityError,
    assign_apexes,
    build_pointed_triangulation,
    generic_functional,
    link,
)
from figurate.pipeline import vector_claims
from oracles import f_from_h, reference_hull_contains


def _tri(spec):
    lat = parse_builtin(spec)
    return build_pointed_triangulation(lat, assign_apexes(lat, generic_functional(lat)))


def test_generic_point_on_segment():
    tri = _tri("simplex:1")
    gp = generic_point(tri)
    (x,) = gp.x
    assert 0 < x < 1
    # the only hulls to avoid are the two endpoints
    assert len(gp.certificate) == 2


def test_generic_point_on_square(square):
    gp = square.generic_points[0]
    # all 5 edge lines (4 sides + diagonal) and 4 vertices were checked
    assert len([s for s in gp.certificate if len(s) == 2]) == 5
    assert len(gp.certificate) == 9
    verts = square.lattice.polytope.vertices
    for s in gp.certificate:
        assert not reference_hull_contains([verts[i] for i in sorted(s)], gp.x)


def test_generic_point_on_cube(cube3):
    gp = cube3.generic_points[0]
    by_len = {}
    for s in gp.certificate:
        by_len[len(s)] = by_len.get(len(s), 0) + 1
    assert by_len == {1: 8, 2: 19, 3: 18}


def test_generic_points_distinct_with_avoid(cube3):
    xs = [gp.x for gp in cube3.generic_points]
    assert len(set(xs)) == 3


def test_visible_facets_none_from_home_simplex(square):
    gp = square.generic_points[0]
    empties = [f for f in square.tri.maximal if not visible_facets(square.tri, f, gp.x)]
    assert len(empties) == 1
    # and that simplex actually contains the point: every facet hull check has
    # x on the apex side, which the partition construction already encodes


def test_visible_facets_square_diagonal(square):
    gp = square.generic_points[0]
    t_home = next(f for f in square.tri.maximal if not visible_facets(square.tri, f, gp.x))
    t_other = next(f for f in square.tri.maximal if f != t_home)
    diagonal = t_home & t_other
    assert len(diagonal) == 2
    assert visible_facets(square.tri, t_other, gp.x) == {diagonal}


def test_boundary_facets_not_visible_from_their_simplex(cube3):
    gp = cube3.generic_points[0]
    counts = {}
    for f in cube3.tri.maximal:
        for v in f:
            counts.setdefault(f - {v}, []).append(f)
    for ridge, owners in counts.items():
        if ridge in cube3.split.boundary:
            (owner,) = owners
            assert ridge not in visible_facets(cube3.tri, owner, gp.x)


def test_visible_facets_raises_on_degenerate_point(square):
    apex = square.tri.apex_vertex
    verts = square.lattice.polytope.vertices
    # midpoint of the diagonal lies on that edge's hull
    t1 = next(f for f in square.tri.maximal)
    other = max(f for f in square.tri.maximal)
    diag = sorted(t1 & other)
    mid = tuple((verts[diag[0]][j] + verts[diag[1]][j]) / 2 for j in range(2))
    with pytest.raises(GenericityError):
        visible_facets(square.tri, t1, mid)


def test_exterior_partition_simplex_single_interval():
    for d in range(1, 5):
        tri = _tri(f"simplex:{d}")
        part = exterior_partition(tri, generic_point(tri))
        assert len(part.intervals) == 1
        (iv,) = part.intervals
        assert iv.lower == frozenset()
        assert iv.size() == 2 ** (d + 1)


def test_exterior_partition_square_sizes(square):
    part = square.exterior[0]
    sizes = sorted(iv.size() for iv in part.intervals)
    assert sizes == [4, 8]
    assert sum(sizes) == len(square.tri.simplices) == 12


def test_exterior_partition_cube_sizes(cube3):
    part = cube3.exterior[0]
    assert sum(iv.size() for iv in part.intervals) == len(cube3.tri.simplices) == 52


def test_interior_partition_simplex():
    for d in range(1, 5):
        tri = _tri(f"simplex:{d}")
        part = interior_partition(tri, generic_point(tri))
        (iv,) = part.intervals
        assert iv.lower == iv.upper == frozenset(range(d + 1))


def test_interior_partition_square(square):
    part = square.interior[0]
    # brute-force interior: simplices in no proper face of the square
    proper = [f.vertices for f in square.lattice.faces[:-1]]
    brute = {s for s in square.tri.simplices if not any(s <= pv for pv in proper)}
    assert len(brute) == 3
    covered = {m for iv in part.intervals for m in iv.members()}
    assert covered == brute
    assert sorted(iv.size() for iv in part.intervals) == [1, 2]


def test_interior_partition_cube_size(cube3):
    part = cube3.interior[0]
    boundary_count = len(cube3.split.boundary)
    assert sum(iv.size() for iv in part.intervals) == 52 - boundary_count == 13


def test_verify_partition_pass_and_fail(cube3):
    ext = cube3.exterior[0]
    assert verify_partition(ext, set(cube3.tri.simplices)).ok
    intr = cube3.interior[0]
    assert verify_partition(intr, set(cube3.split.interior)).ok
    # exterior intervals against the interior target must fail loudly
    cert = verify_partition(ext, set(cube3.split.interior))
    assert not cert.ok
    assert cert.foreign  # boundary faces are not interior elements


def test_f_vector_examples(cube3):
    assert cube3.f == (1, 8, 19, 18, 6)
    for d in range(1, 5):
        tri = _tri(f"simplex:{d}")
        f = f_vector(tri.simplices, d)
        from math import comb
        assert f == tuple(comb(d + 1, k + 1) for k in range(-1, d + 1))
    seg = _tri("simplex:1")
    assert f_vector(seg.simplices, 1) == (1, 2, 1)


def test_e_vector_rejects_empty_simplex():
    with pytest.raises(ValueError):
        e_vector({frozenset(), frozenset({1})}, 1)


def test_h_from_f_examples(cube3):
    assert h_from_f(cube3.f, 3) == (1, 4, 1, 0, 0)
    for d in range(1, 5):
        tri = _tri(f"simplex:{d}")
        assert h_from_f(f_vector(tri.simplices, d), d) == (1,) + (0,) * (d + 1)
    cross = _tri("cross:3")
    assert h_from_f(f_vector(cross.simplices, 3), 3) == (1, 2, 1, 0, 0)


@given(st.integers(1, 5), st.data())
def test_h_f_round_trip(d, data):
    f = tuple(data.draw(st.integers(-40, 40)) for _ in range(d + 2))
    assert f_from_h(h_from_f(f, d), d) == f
    h = tuple(data.draw(st.integers(-40, 40)) for _ in range(d + 2))
    assert h_from_f(f_from_h(h, d), d) == h


def test_h_from_partition_matches_transform(family):
    for b in family.values():
        for part in b.exterior:
            assert h_from_partition(part) == b.h, b.name


def test_h_from_partition_point_invariance(family):
    for b in family.values():
        hs = {h_from_partition(p) for p in b.exterior}
        assert len(hs) == 1, b.name


def test_k_from_partition_examples(cube3):
    assert k_from_partition(cube3.interior[0]) == (0, 0, 1, 4, 1)
    for d in range(1, 5):
        tri = _tri(f"simplex:{d}")
        part = interior_partition(tri, generic_point(tri))
        assert k_from_partition(part) == (0,) * (d + 1) + (1,)


def test_partition_kind_and_verification_guards(cube3):
    ext = cube3.exterior[0]
    with pytest.raises(ValueError):
        k_from_partition(ext)
    with pytest.raises(ValueError):
        h_from_partition(cube3.interior[0])
    unverified = Partition(ext.intervals, EXTERIOR, ext.point, verified=False)
    with pytest.raises(ValueError):
        h_from_partition(unverified)


def test_euler_characteristic_examples(cube3):
    assert euler_characteristic(cube3.f) == 1
    lk = link(cube3.tri.apex_vertex, cube3.tri.simplices)
    assert euler_characteristic(f_vector(lk, 2)) == 1
    fb = f_vector(cube3.split.boundary, 2)
    assert euler_characteristic(fb) == 2


def test_h_top_entries_vanish(family):
    for b in family.values():
        d = b.dim
        assert b.h[d] == 0 and b.h[d + 1] == 0, b.name


def test_link_h_equality(family):
    for b in family.values():
        d = b.dim
        lk = link(b.tri.apex_vertex, b.tri.simplices)
        hlink = h_from_f(f_vector(lk, d - 1), d - 1)
        assert hlink[: d] == b.h[: d], b.name
        # the link's own top entry vanishes too
        assert hlink[d] == 0, b.name


def test_h_sums_to_maximal_count(family):
    from math import factorial

    for b in family.values():
        assert sum(b.h) == b.f[-1] == len(b.tri.maximal), b.name
    for d in range(1, 6):
        assert sum(family[f"cube:{d}"].h) == factorial(d)


def test_e_vector_from_k_expansion(family):
    for b in family.values():
        k = k_from_partition(b.interior[0])
        assert b.e == interior_counts_from_k(k, b.dim), b.name


def test_analysis_vectors_cross_check(cube3):
    assert cube3.f == (1, 8, 19, 18, 6)
    assert cube3.h == (1, 4, 1, 0, 0)
    assert cube3.k == (0, 0, 1, 4, 1)
    assert cube3.e == (0, 1, 6, 6)
    assert [r["claim"] for r in vector_claims(cube3) if r["pass"]] == [
        "h-from-partition-matches-f", "k-reverses-h", "e-vector-from-k"
    ]


def test_interval_members_enumeration():
    iv = Interval(frozenset({1}), frozenset({1, 2, 3}), INTERIOR)
    members = set(iv.members())
    assert members == {
        frozenset({1}), frozenset({1, 2}), frozenset({1, 3}), frozenset({1, 2, 3})
    }
    assert iv.size() == 4
