"""The whole chain on polytopes outside the builtin families.

Rational points on the unit sphere S^(d-1) are always in convex position, and
inverse stereographic projection from the north pole makes every rational
parameter t in Q^(d-1) such a point:

    t -> (2 t, |t|^2 - 1) / (|t|^2 + 1).

Distinct parameters give distinct points. The hull search finds their face
lattice from coordinates alone, and every claim of the pipeline must pass
from two generic points.

The paper's theorem holds for every pointed triangulation, so every claim
must also pass when the apexes come from any other ranking of the vertices.
"""
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import event, given, settings, strategies as st

from figurate.lattice import polytope_from_vertices
from figurate.pipeline import run_pipeline
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


@pytest.mark.parametrize("spec", ["cube:3", "pyramid:square", "sphere2_6.json", "seed_tie7.json"])
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_every_claim_holds_under_any_vertex_order(spec, data):
    # 5 drawn orders on each of 4 polytopes: 20 examples in all
    lattice = _lattice(spec)
    order = tuple(data.draw(st.permutations(range(len(lattice.polytope.vertices)))))
    with mock.patch("figurate.pipeline.vertex_order", lambda polytope: order):
        records = run_pipeline(lattice, n_max=6, points=2)
    failed = [r for r in records if not r["pass"]]
    assert not failed, failed[:1]
    assert records[0]["witness"]["apex_vertex"] == order[0]
    event(f"h = {next(r['witness']['h'] for r in records if r['claim'] == 'h-top-vanishes')}")
