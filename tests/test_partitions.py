"""Visibility partitions and the f/h/k/e vector calculus.

Simplices and interval bounds are vertex masks. The submask walk of
``verify_partition`` must give the certificate of the ``combinations`` walk
in ``oracles.py`` on the verified partitions and on corrupted ones.
"""
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

import figurate.partitions as partitions
from figurate.geometry import homogenize
from figurate.lattice import parse_builtin, vertex_list
from figurate.partitions import (
    Interval,
    PartitionCertificate,
    e_vector,
    euler_characteristic,
    f_vector,
    generic_point,
    h_from_f,
    interior_counts_from_k,
    lower_histogram,
    verify_partition,
    visibility_partitions,
)
from figurate.triangulation import (
    GenericityError,
    assign_apexes,
    build_pointed_triangulation,
    exterior_lower_sets,
    link,
    vertex_order,
)
from figurate.pipeline import Analysis, vector_claims
from oracles import (
    f_from_h,
    frozen,
    interval_members,
    reference_hull_contains,
    reference_verify_partition,
    ridge_planes,
    side_test_lower_sets,
    to_mask,
    vertex_set,
)


def _tri(spec):
    lat = parse_builtin(spec)
    return build_pointed_triangulation(lat, assign_apexes(lat, vertex_order(lat.polytope)))


def _partitions(tri):
    return visibility_partitions(tri, generic_point(tri))


def _size(iv):
    return 2 ** (iv.upper & ~iv.lower).bit_count()


def _members(iv):
    return {to_mask(m) for m in interval_members(vertex_set(iv.lower), vertex_set(iv.upper))}


def _visible(f, ext):
    """The facets of maximal simplex f visible from the point of the
    exterior partition ext: those opposite the vertices of G_F."""
    (iv,) = [iv for iv in ext.intervals if iv.upper == f]
    return {vertex_set(f) - {v} for v in vertex_set(iv.lower)}


def test_generic_point_on_segment():
    tri = _tri("simplex:1")
    gp = generic_point(tri)
    (x,) = gp.x
    assert 0 < x < 1
    # the one maximal simplex holds the point, so no facet of it is visible
    assert gp.certificate == (0,)


def test_generic_point_on_square(square):
    gp = square.generic_points[0]
    # [0, 1, 3] holds the point; [0, 2, 3] sees it across the diagonal,
    # opposite vertex 2
    assert square.tri.maximal == (0b1011, 0b1101)
    assert gp.certificate == (0, 0b100) == side_test_lower_sets(ridge_planes(square.tri), gp.x)
    verts = square.lattice.polytope.vertices
    for s in frozen(square.tri.simplices):
        if s and len(s) <= 2:
            assert not reference_hull_contains([verts[i] for i in sorted(s)], gp.x)


def test_generic_point_on_cube(cube3):
    gp = cube3.generic_points[0]
    # one lower set per maximal simplex, in order; their sizes are h
    assert [vertex_list(g) for g in gp.certificate] == [[], [5], [2], [6], [4], [4, 6]]
    assert gp.certificate == side_test_lower_sets(ridge_planes(cube3.tri), gp.x)
    assert Counter(map(int.bit_count, gp.certificate)) == {0: 1, 1: 4, 2: 1}


def test_generic_points_distinct_with_avoid(cube3):
    xs = [gp.x for gp in cube3.generic_points]
    assert len(set(xs)) == 3


def test_no_facet_visible_from_the_home_simplex(square):
    ext, _ = square.partitions[0]
    empties = [f for f in square.tri.maximal if not _visible(f, ext)]
    assert len(empties) == 1
    # and that simplex actually contains the point: every facet hull check has
    # x on the apex side, which the partition construction already encodes


def test_square_diagonal_is_the_one_visible_facet(square):
    ext, _ = square.partitions[0]
    t_home = next(f for f in square.tri.maximal if not _visible(f, ext))
    t_other = next(f for f in square.tri.maximal if f != t_home)
    diagonal = vertex_set(t_home & t_other)
    assert len(diagonal) == 2
    assert _visible(t_other, ext) == {diagonal}


def test_boundary_facets_not_visible_from_their_simplex(cube3):
    ext, _ = cube3.partitions[0]
    counts = {}
    for f in cube3.tri.maximal:
        for v in vertex_set(f):
            counts.setdefault(vertex_set(f) - {v}, []).append(f)
    for ridge, owners in counts.items():
        if to_mask(ridge) not in cube3.tri.interior:
            (owner,) = owners
            assert ridge not in _visible(owner, ext)


def test_the_walk_raises_on_a_degenerate_point(square):
    verts = square.lattice.polytope.vertices
    # midpoint of the diagonal lies on that edge's hull
    t1 = next(f for f in square.tri.maximal)
    other = max(f for f in square.tri.maximal)
    diag = sorted(vertex_set(t1 & other))
    mid = tuple((verts[diag[0]][j] + verts[diag[1]][j]) / 2 for j in range(2))
    message = rf"^point lies on the affine hull of apexes \[{diag[0]}\] and face \[{diag[1]}\]$"
    with pytest.raises(GenericityError, match=message):
        exterior_lower_sets(square.tri, homogenize(mid))


def test_the_search_gives_up_after_64_candidates(square, monkeypatch):
    tried = []

    def never_generic(tri, hx):
        tried.append(hx)
        raise GenericityError("forced")

    monkeypatch.setattr(partitions, "exterior_lower_sets", never_generic)
    with pytest.raises(RuntimeError, match=r"^could not find a generic point$"):
        generic_point(square.tri)
    assert len(tried) == 64


def test_exterior_partition_simplex_single_interval():
    for d in range(1, 5):
        ext, _ = _partitions(_tri(f"simplex:{d}"))
        assert len(ext.intervals) == 1
        (iv,) = ext.intervals
        assert iv.lower == 0
        assert _size(iv) == 2 ** (d + 1)


def test_exterior_partition_square_sizes(square):
    ext, _ = square.partitions[0]
    sizes = sorted(map(_size, ext.intervals))
    assert sizes == [4, 8]
    assert sum(sizes) == len(square.tri.simplices) == 12


def test_exterior_partition_cube_sizes(cube3):
    ext, _ = cube3.partitions[0]
    assert sum(map(_size, ext.intervals)) == len(cube3.tri.simplices) == 52


def test_interior_partition_simplex():
    for d in range(1, 5):
        _, intr = _partitions(_tri(f"simplex:{d}"))
        (iv,) = intr.intervals
        assert iv.lower == iv.upper == (1 << d + 1) - 1


def test_interior_partition_square(square):
    _, intr = square.partitions[0]
    # brute-force interior: simplices in no proper face of the square
    proper = [vertex_set(f) for f in square.lattice.faces[:-1]]
    brute = {s for s in frozen(square.tri.simplices) if not any(s <= pv for pv in proper)}
    assert len(brute) == 3
    covered = {m for iv in intr.intervals for m in _members(iv)}
    assert frozen(covered) == brute
    assert sorted(map(_size, intr.intervals)) == [1, 2]


def test_interior_partition_cube_size(cube3):
    _, intr = cube3.partitions[0]
    boundary_count = len(cube3.tri.simplices - cube3.tri.interior)
    assert sum(map(_size, intr.intervals)) == 52 - boundary_count == 13


def test_verify_partition_pass_and_fail(cube3):
    ext, intr = cube3.partitions[0]
    assert verify_partition(ext.intervals, cube3.tri.simplices).ok
    assert verify_partition(intr.intervals, cube3.tri.interior).ok
    # exterior intervals against the interior target must fail loudly
    cert = verify_partition(ext.intervals, cube3.tri.interior)
    assert not cert.ok
    assert cert.foreign  # boundary faces are not interior elements
    # as many distinct members as the target has, but one of them foreign
    swapped = [Interval(0, 0), Interval(0b10, 0b10)]
    assert verify_partition(swapped, frozenset({0, 0b1})) == PartitionCertificate(False, ([0],), (), ([1],))


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
    # asked inside a stage, so a failed stage, not a usage error
    with pytest.raises(RuntimeError, match=r"^an interior complex cannot contain the empty simplex$"):
        e_vector({0, 0b10}, 1)


def test_h_from_f_examples(cube3):
    assert h_from_f(cube3.f) == (1, 4, 1, 0, 0)
    for d in range(1, 5):
        tri = _tri(f"simplex:{d}")
        assert h_from_f(f_vector(tri.simplices, d)) == (1,) + (0,) * (d + 1)
    cross = _tri("cross:3")
    assert h_from_f(f_vector(cross.simplices, 3)) == (1, 2, 1, 0, 0)


@given(st.integers(1, 5), st.data())
def test_h_f_round_trip(d, data):
    f = tuple(data.draw(st.integers(-40, 40)) for _ in range(d + 2))
    assert f_from_h(h_from_f(f), d) == f
    h = tuple(data.draw(st.integers(-40, 40)) for _ in range(d + 2))
    assert h_from_f(f_from_h(h, d)) == h


def test_h_from_partition_matches_transform(family):
    for b in family.values():
        for ext, _ in b.partitions:
            assert lower_histogram(ext) == b.h, b.name


def test_h_from_partition_point_invariance(family):
    for b in family.values():
        hs = {lower_histogram(ext) for ext, _ in b.partitions}
        assert len(hs) == 1, b.name


def test_k_from_partition_examples(cube3):
    assert lower_histogram(cube3.partitions[0][1]) == (0, 0, 1, 4, 1)
    for d in range(1, 5):
        _, intr = _partitions(_tri(f"simplex:{d}"))
        assert lower_histogram(intr) == (0,) * (d + 1) + (1,)


@pytest.mark.parametrize("spec", ["cube:3", "cross:4", "pyramid:square", "bipyramid:triangle"])
def test_both_partitions_are_read_off_the_walks_of_the_search(monkeypatch, spec):
    a = Analysis(parse_builtin(spec), points=3)
    calls = Counter()
    original = partitions.exterior_lower_sets

    def counted(tri, hx):
        calls["walk"] += 1
        return original(tri, hx)

    monkeypatch.setattr(partitions, "exterior_lower_sets", counted)
    a.generic_points
    # one walk per candidate, at least one per point; bipyramid:triangle's
    # first candidates lie on a ridge plane
    searched = calls["walk"]
    assert searched >= a.points and (searched > a.points) == (spec == "bipyramid:triangle")
    pairs = a.partitions
    assert calls["walk"] == searched
    for (ext, intr), gp in zip(pairs, a.generic_points):
        assert [iv.upper for iv in ext.intervals] == [iv.upper for iv in intr.intervals] == list(a.tri.maximal)
        assert tuple(iv.lower for iv in ext.intervals) == gp.certificate
        for e, i in zip(ext.intervals, intr.intervals):
            assert i.lower == e.upper - e.lower


def test_a_failed_cover_raises_and_builds_no_partition(cube3, monkeypatch):
    # a partition exists only verified: a failing certificate raises, naming
    # the partition and its counterexample
    monkeypatch.setattr(partitions, "verify_partition", lambda intervals, target: PartitionCertificate(False, ([0],)))
    gp = cube3.generic_points[0]
    with pytest.raises(RuntimeError, match=r"^exterior intervals failed to partition their target: .*uncovered=\(\[0\],\)"):
        visibility_partitions(cube3.tri, gp)


def test_euler_characteristic_examples(cube3):
    assert euler_characteristic(cube3.f) == 1
    lk = link(cube3.tri.apex_vertex, cube3.tri.simplices)
    assert euler_characteristic(f_vector(lk, 2)) == 1
    fb = f_vector(cube3.tri.simplices - cube3.tri.interior, 2)
    assert euler_characteristic(fb) == 2


def test_h_top_entries_vanish(family):
    for b in family.values():
        d = b.dim
        assert b.h[d] == 0 and b.h[d + 1] == 0, b.name


def test_link_h_equality(family):
    for b in family.values():
        d = b.dim
        lk = link(b.tri.apex_vertex, b.tri.simplices)
        hlink = h_from_f(f_vector(lk, d - 1))
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
        k = lower_histogram(b.partitions[0][1])
        assert b.e == interior_counts_from_k(k), b.name


def test_analysis_vectors_cross_check(cube3):
    assert cube3.f == (1, 8, 19, 18, 6)
    assert cube3.h == (1, 4, 1, 0, 0)
    assert cube3.k == (0, 0, 1, 4, 1)
    assert cube3.e == (0, 1, 6, 6)
    assert [r["claim"] for r in vector_claims(cube3) if r["pass"]] == [
        "h-from-partition-matches-f", "k-reverses-h", "e-vector-from-k"
    ]


def test_interval_members_enumeration():
    iv = Interval(0b0010, 0b1110)
    members = set(interval_members(vertex_set(iv.lower), vertex_set(iv.upper)))
    assert members == {
        frozenset({1}), frozenset({1, 2}), frozenset({1, 3}), frozenset({1, 2, 3})
    }
    # the submask walk covers exactly these members, each once
    assert verify_partition([iv], frozenset(map(to_mask, members))).ok


def _certificate_of_the_oracle(intervals, target):
    ref = reference_verify_partition(
        [(vertex_set(iv.lower), vertex_set(iv.upper)) for iv in intervals], frozen(target)
    )
    listed = lambda simplices: tuple(sorted(s) for s in simplices)
    return PartitionCertificate(ref.ok, listed(ref.uncovered), listed(ref.multiply_covered), listed(ref.foreign))


@pytest.mark.parametrize("spec", ["cube:2", "cube:3", "cross:3", "simplex:3", "pyramid:square", "cube:4"])
def test_submask_check_gives_the_certificate_of_the_combinations_walk(family, spec):
    b = family[spec]
    rng = random.Random(spec)
    full = (1 << len(b.lattice.polytope.vertices)) - 1
    edge = next(s for s in sorted(b.tri.simplices) if s.bit_count() == 2)
    for ext, intr in b.partitions:
        for part, target in ((ext, b.tri.simplices), (intr, b.tri.interior)):
            ivs = list(part.intervals)
            i = rng.randrange(len(ivs))
            cases = {
                "valid": (ivs, target),
                "dropped": (ivs[:i] + ivs[i + 1:], target),
                "duplicated": (ivs + [ivs[i]], target),
                "foreign": (ivs + [Interval(full, full)], target),
                "foreign and overlapping": (ivs + [Interval(edge, full)], target),
            }
            if part is intr:
                s = rng.choice(sorted(b.tri.simplices - b.tri.interior))
                cases["boundary interval"] = (ivs + [Interval(s, s)], target)
                cases["boundary in the target"] = (ivs, target | {s})
            for case, (intervals, tgt) in cases.items():
                cert = verify_partition(intervals, tgt)
                assert cert == _certificate_of_the_oracle(intervals, tgt), (spec, case)
                assert cert.ok == (case == "valid"), (spec, case)
