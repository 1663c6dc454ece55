"""The recursion for the sequences of every face, run on generating-function
numerators over (1 - x)^(d+1).

Expanded, every face's numerator must equal the term-by-term recursion kept
in ``oracles.py`` face by face, exterior and interior, on every builtin of
dimension at most 5 and on a polytope given only by rational coordinates.
The polytope's own numerators are x h(x) and x k(x), the paper's theorem,
whatever the number of terms asked for.
"""
import json
from pathlib import Path

import pytest

import figurate.sequences as sequences
from figurate.lattice import parse_builtin, polytope_from_json
from figurate.pipeline import Analysis
from figurate.sequences import expand, face_number_sequences, polytope_number_recursive
from figurate.triangulation import assign_apexes, vertex_order
from oracles import cross_number, measure_number, reference_face_number_sequences

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
    if spec.endswith(".json"):
        return polytope_from_json(json.loads((Path(__file__).parent / spec).read_text()))
    return parse_builtin(spec)


@pytest.mark.parametrize("spec", BUILTINS + ["sphere2_6.json"])
def test_expanded_numerators_equal_the_term_by_term_recursion(spec):
    lattice = _lattice(spec)
    assert lattice.dim <= 5
    apexes = assign_apexes(lattice, vertex_order(lattice.polytope))
    ext, intr = face_number_sequences(lattice, apexes)
    assert list(ext) == list(intr) == [f.id for f in lattice.faces[1:]]
    order = lattice.dim + 1
    for fid in ext:
        assert len(ext[fid]) == len(intr[fid]) == order + 2
    for n_max in N_MAX:
        ref_ext, ref_intr = reference_face_number_sequences(lattice, apexes, n_max)
        for fid in ref_ext:
            assert list(expand(ext[fid], order, n_max)) == ref_ext[fid], (spec, n_max, fid)
            assert list(expand(intr[fid], order, n_max)) == ref_intr[fid], (spec, n_max, fid)


@pytest.mark.parametrize("spec", [s for s in BUILTINS if s not in ("simplex:0", "cube:0")] + ["sphere2_6.json"])
def test_top_numerators_are_x_h_and_x_k(spec):
    a = Analysis(_lattice(spec))
    ext, intr = a.face_sequences
    top = a.lattice.top.id
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


def test_a_remainder_in_the_division_raises(monkeypatch):
    # a step numerator that is not zero at x = 1 has pole order D, which no
    # face of a valid lattice gives
    lattice = parse_builtin("cube:2")
    apexes = assign_apexes(lattice, vertex_order(lattice.polytope))
    monkeypatch.setattr(sequences, "pick", lambda mask, rows: [(1, 0, 0, 0, 0)])
    with pytest.raises(RuntimeError, match=r"face \d+: the step numerator is not divisible by 1 - x"):
        face_number_sequences(lattice, apexes)


def test_negative_n_max_is_rejected():
    with pytest.raises(ValueError, match="n_max must be nonnegative"):
        expand((0, 1, 0), 1, -1)
    lattice = parse_builtin("cube:2")
    apexes = assign_apexes(lattice, vertex_order(lattice.polytope))
    with pytest.raises(ValueError, match="n_max must be nonnegative"):
        polytope_number_recursive(lattice, apexes, -1)
