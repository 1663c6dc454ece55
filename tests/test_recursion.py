"""The recursion for the sequences of every face, run on generating-function
numerators over (1 - x)^(d+1).

Expanded, every face's numerator must equal the term-by-term recursion kept
in ``oracles.py`` face by face, exterior and interior, on every builtin of
dimension at most 5 and on a polytope given only by rational coordinates.
The polytope's own numerators are x h(x) and x k(x), the paper's theorem,
whatever the number of terms asked for.

The recursion reuses one computation for all faces with the same count tuple:
how many of their proper faces, and of those missing their apex, lie in each
class of equal interior numerators. The far counts follow the apexes, so the
face-by-face comparison also runs under hypothesis-drawn vertex orders, on the
prism over ``sphere2_6.json`` (d = 4, 12 vertices, whose h changes with the
order), on the prism over that, and on cube:4, cross:4 and bipyramid:cube:3.
Above dimension 5, where the term-by-term recursion is slow, the polytope's
sequence and interior sequence are checked against closed forms for n <= 30 on
builtins of up to 2188 faces.
"""
import json
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from figurate.lattice import builtin, parse_builtin, polytope_from_json
from figurate.pipeline import Analysis
from figurate.sequences import expand, face_number_sequences, polytope_number_recursive
from figurate.triangulation import assign_apexes, vertex_order
from oracles import (
    cross_number,
    measure_number,
    reference_face_number_sequences,
    simplex_interior,
    simplex_number,
)

_BASIC = [("simplex", 0, 5), ("cube", 0, 5), ("cross", 1, 5)]
BUILTINS = [f"{family}:{d}" for family, lo, hi in _BASIC for d in range(lo, hi + 1)] + [
    f"{compound}:{family}:{d}"
    for compound in ("pyramid", "prism", "bipyramid")
    for family, lo, hi in _BASIC
    for d in range(lo, hi)
    if compound != "bipyramid" or d >= 1  # a bipyramid needs a base of dimension >= 1
]
N_MAX = (0, 1, 2, 3, 40)


def _lattice(spec):
    """A builtin, or a JSON file here behind optional compound prefixes."""
    if not spec.endswith(".json"):
        return parse_builtin(spec)
    family, _, base = spec.partition(":")
    if base:
        return builtin(family, base=_lattice(base))
    return polytope_from_json(json.loads((Path(__file__).parent / spec).read_text()))


@pytest.mark.parametrize("spec", BUILTINS + ["sphere2_6.json"])
def test_expanded_numerators_equal_the_term_by_term_recursion(spec):
    lattice = _lattice(spec)
    assert lattice.dim <= 5
    apexes = assign_apexes(lattice, vertex_order(lattice.polytope))
    ext, intr = face_number_sequences(lattice, apexes)
    assert list(ext) == list(intr) == list(range(1, len(lattice)))
    order = lattice.dim + 1
    for fid in ext:
        assert len(ext[fid]) == len(intr[fid]) == order + 2
    for n_max in N_MAX:
        ref_ext, ref_intr = reference_face_number_sequences(lattice, apexes, n_max)
        for fid in ref_ext:
            assert list(expand(ext[fid], order, n_max)) == ref_ext[fid], (spec, n_max, fid)
            assert list(expand(intr[fid], order, n_max)) == ref_intr[fid], (spec, n_max, fid)


@pytest.mark.parametrize(
    "spec", ["prism_sphere2_6.json", "prism:prism_sphere2_6.json", "cube:4", "cross:4", "bipyramid:cube:3"]
)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_numerators_equal_the_term_by_term_recursion_under_any_vertex_order(spec, data):
    # the apexes decide which subfaces a face's step sums, so each order
    # gives other count tuples; d + 3 terms pin a numerator of d + 3 integers.
    # The prism over the prism holds four copies of sphere2_6.json as 3-faces:
    # under most orders two of them have equal counts over all their proper
    # faces but not over those missing their apexes, and different
    # sequences, so the far counts must be part of the tuple.
    lattice = _lattice(spec)
    order = tuple(data.draw(st.permutations(range(len(lattice.polytope.vertices)))))
    apexes = assign_apexes(lattice, order)
    ext, intr = face_number_sequences(lattice, apexes)
    n_max = lattice.dim + 2
    ref_ext, ref_intr = reference_face_number_sequences(lattice, apexes, n_max)
    for fid in ref_ext:
        assert list(expand(ext[fid], lattice.dim + 1, n_max)) == ref_ext[fid], (order, fid)
        assert list(expand(intr[fid], lattice.dim + 1, n_max)) == ref_intr[fid], (order, fid)


@pytest.mark.parametrize("spec", [s for s in BUILTINS if s not in ("simplex:0", "cube:0")] + ["sphere2_6.json"])
def test_top_numerators_are_x_h_and_x_k(spec):
    a = Analysis(_lattice(spec))
    ext, intr = a.face_sequences
    top = a.lattice.top
    assert len(a.h) == len(a.k) == a.dim + 2  # the numerators' d + 3 terms, after x
    assert ext[top] == (0, *a.h)
    assert intr[top] == (0, *a.k)


@pytest.mark.parametrize("family, number", [("cube", measure_number), ("cross", cross_number)])
def test_long_prefix_of_the_top_face(family, number):
    lattice = parse_builtin(f"{family}:4")
    apexes = assign_apexes(lattice, vertex_order(lattice.polytope))
    values = polytope_number_recursive(lattice, apexes, 2000).values
    assert len(values) == 2001
    assert values == tuple(number(4, n) for n in range(2001))


HIGH = {
    # spec: (sequence, interior sequence); the interior of the d-cube holds
    # the (n - 2)-th cube, that of the cross-polytope the (n - 2)-th one, and
    # pyramid:simplex:8 is a 9-simplex
    "cube:6": (lambda n: n**6, lambda n: max(n - 2, 0) ** 6),
    "cube:7": (lambda n: n**7, lambda n: max(n - 2, 0) ** 7),
    "cross:6": (lambda n: cross_number(6, n), lambda n: cross_number(6, n - 2)),
    "cross:7": (lambda n: cross_number(7, n), lambda n: cross_number(7, n - 2)),
    "simplex:9": (lambda n: simplex_number(9, n), lambda n: simplex_interior(9, n)),
    "simplex:10": (lambda n: simplex_number(10, n), lambda n: simplex_interior(10, n)),
    "pyramid:simplex:8": (lambda n: simplex_number(9, n), lambda n: simplex_interior(9, n)),
}


@pytest.mark.parametrize("spec", sorted(HIGH))
def test_sequences_above_dimension_5_equal_closed_forms(spec):
    lattice = parse_builtin(spec)
    apexes = assign_apexes(lattice, vertex_order(lattice.polytope))
    for interior, number in zip((False, True), HIGH[spec]):
        values = polytope_number_recursive(lattice, apexes, 30, interior).values
        assert values == tuple(map(number, range(31))), (spec, interior)


def test_a_remainder_in_the_division_raises():
    # a step numerator that is not zero at x = 1 has pole order D, which no
    # face of a valid lattice gives; a d-face's interior numerator has it, so
    # a stand-in lattice that puts the square under a second 2-face, over a
    # fifth vertex as its apex, leaves a remainder there
    square = parse_builtin("cube:2")
    top = len(square)
    lattice = SimpleNamespace(
        dim=2,
        by_dim=square.by_dim,
        faces=(*square.faces, (1 << 5) - 1),
        below=(*square.below, square.below[square.top] | 1 << square.top),
        with_vertex=(*square.with_vertex, 1 << top),
    )
    apexes = (*assign_apexes(square, vertex_order(square.polytope)), 4)
    with pytest.raises(RuntimeError, match=rf"face {top}: the step numerator is not divisible by 1 - x"):
        face_number_sequences(lattice, apexes)


def test_negative_n_max_is_rejected():
    with pytest.raises(ValueError, match="n_max must be nonnegative"):
        expand((0, 1, 0), 1, -1)
    lattice = parse_builtin("cube:2")
    apexes = assign_apexes(lattice, vertex_order(lattice.polytope))
    with pytest.raises(ValueError, match="n_max must be nonnegative"):
        polytope_number_recursive(lattice, apexes, -1)
