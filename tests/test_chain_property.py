"""The whole chain on polytopes outside the builtin families.

Rational points on the unit sphere S^(d-1) are always in convex position, and
inverse stereographic projection from the north pole makes every rational
parameter t in Q^(d-1) such a point:

    t -> (2 t, |t|^2 - 1) / (|t|^2 + 1).

Distinct parameters give distinct points. The hull search finds their face
lattice from coordinates alone, and every claim of the pipeline must pass
from two generic points.

The paper's theorem holds for every pointed triangulation, so every claim
must also pass when the apexes come from any other ranking of the vertices,
the flags' apex sets must be the scanned maximal simplices, closure must
need no fallback scan, and the flag walk must read the same lower sets as
the ridge-plane table.

What settles h. The top apex, the first vertex of the order, is a vertex of
every maximal simplex, and the triangulation is the cone from it over the
triangulations of the facets that miss it. Where those facets are simplices,
as on every simplicial input, the top apex alone settles h. Where they are
not, their own triangulations follow the rest of the order, and so may h:
on the prism over ``sphere2_6.json`` (d = 4, 12 vertices) the facets missing
vertex 0 are three prisms over triangles and the far copy of the base, and
the orders 0, 1, ..., 11 and the same with 1 and 7 swapped give
h = (1, 7, 4, 0, 0, 0) and (1, 7, 5, 0, 0, 0). Every claim holds on both.
"""
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import event, given, settings, strategies as st

from figurate.lattice import polytope_from_vertices, vertex_list
from figurate.partitions import generic_point
from figurate.pipeline import run_pipeline
from figurate.triangulation import assign_apexes
from oracles import (
    frozen,
    is_simplicial_complex,
    maximal_simplices,
    reference_split,
    ridge_planes,
    side_test_lower_sets,
    to_mask,
)
from test_pointed_masks import assert_built_once_at_the_carrier, build_without_the_scan
from test_recursion import _lattice

_PARAMETER = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))
# The distinct values of _PARAMETER, simplest first, and its triples by index.
_VALUES = sorted({Fraction(a, b) for a in range(-12, 13) for b in range(1, 5)},
                 key=lambda c: (c.denominator, abs(c), c < 0))
_TRIPLES = st.sampled_from(range(len(_VALUES) ** 3)).map(
    lambda i: tuple(_VALUES[i // len(_VALUES) ** k % len(_VALUES)] for k in (2, 1, 0))
)


def _on_sphere(t: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    norm = sum(c * c for c in t)
    return tuple(2 * c / (norm + 1) for c in t) + ((norm - 1) / (norm + 1),)


@st.composite
def sphere_points_4d(draw):
    """6 to 8 points on S^3, so d = 4 whenever they do not lie in one hyperplane.

    Distinct triples come from sampling indices without replacement, which
    no draw has to retry, where a unique list of tuples often did."""
    ts = draw(st.lists(_TRIPLES, min_size=6, max_size=8, unique=True))
    return [_on_sphere(t) for t in ts]


@st.composite
def sphere_points(draw):
    d = draw(st.integers(1, 3))
    if d == 1:  # S^0 has two points; any two distinct rationals bound a segment
        ends = draw(st.lists(_PARAMETER, min_size=2, max_size=2, unique=True))
        return [(c,) for c in ends]
    ts = draw(st.lists(st.tuples(*[_PARAMETER] * (d - 1)), min_size=d + 1, max_size=d + 6, unique=True))
    return [_on_sphere(t) for t in ts]


@settings(max_examples=40, deadline=None)
@given(sphere_points())
def test_every_claim_holds_on_rational_sphere_points(points):
    _check_every_claim(points)


@settings(max_examples=12, deadline=None)
@given(sphere_points_4d())
def test_every_claim_holds_on_rational_points_on_the_3_sphere(points):
    _check_every_claim(points)


def _check_every_claim(points):
    lattice = polytope_from_vertices("sphere", points)
    assert lattice.polytope.dim >= 1
    event(f"d={lattice.dim}, {len(points)} vertices, {len(lattice)} faces")
    records = run_pipeline(lattice, n_max=6, points=2)
    failed = [r for r in records if not r["pass"]]
    assert not failed, failed[:1]
    assert len(records) == 4 + 4 * 2 + 4 + 2


@pytest.mark.parametrize(
    "spec", ["cube:3", "pyramid:square", "sphere2_6.json", "seed_tie7.json", "prism_sphere2_6.json"]
)
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_every_claim_holds_under_any_vertex_order(spec, data):
    # 5 drawn orders on each of 5 polytopes: 25 examples in all
    lattice = _lattice(spec)
    order = tuple(data.draw(st.permutations(range(len(lattice.polytope.vertices)))))
    with mock.patch("figurate.pipeline.vertex_order", lambda polytope: order):
        records = run_pipeline(lattice, n_max=6, points=2)
    failed = [r for r in records if not r["pass"]]
    assert not failed, failed[:1]
    assert records[0]["witness"]["apex_vertex"] == order[0]
    apexes = assign_apexes(lattice, order)
    tri = build_without_the_scan(lattice, apexes)
    simplices = frozen(tri.simplices)
    scanned = sorted(map(to_mask, maximal_simplices(simplices)), key=lambda s: (s.bit_count(), vertex_list(s)))
    assert tri.maximal == tuple(scanned)
    assert tri.closed and is_simplicial_complex(simplices)
    assert (tri.simplices - tri.interior, tri.interior) == reference_split(tri)
    assert_built_once_at_the_carrier(lattice, apexes)
    table = ridge_planes(tri)
    for seed in range(2):
        gp = generic_point(tri, seed=seed)
        assert gp.certificate == side_test_lower_sets(table, gp.x)
    event(f"h = {next(r['witness']['h'] for r in records if r['claim'] == 'h-top-vanishes')}")


@pytest.mark.parametrize(
    "order, h",
    [
        (tuple(range(12)), [1, 7, 4, 0, 0, 0]),
        ((0, 7, 2, 3, 4, 5, 6, 1, 8, 9, 10, 11), [1, 7, 5, 0, 0, 0]),
    ],
)
def test_one_top_apex_gives_two_h_vectors_on_the_prism(order, h):
    # the top apex 0 misses facets that are no simplices, so the rest of the
    # order moves h; h_1 = 12 - 5 is fixed, since every vertex is used
    lattice = _lattice("prism_sphere2_6.json")
    with mock.patch("figurate.pipeline.vertex_order", lambda polytope: order):
        records = run_pipeline(lattice, n_max=6, points=2)
    failed = [r for r in records if not r["pass"]]
    assert not failed, failed[:1]
    assert records[0]["witness"]["apex_vertex"] == 0
    assert next(r["witness"]["h"] for r in records if r["claim"] == "h-top-vanishes") == h
