"""The recursion for the sequences of every face, summed as whole columns.

``face_number_sequences`` must equal the term-by-term recursion kept in
``oracles.py`` face by face, exterior and interior, on every builtin of
dimension at most 5 and on a polytope given only by rational coordinates.
"""
import json
from pathlib import Path

import pytest

from figurate.lattice import parse_builtin, polytope_from_json
from figurate.sequences import face_number_sequences
from figurate.triangulation import assign_apexes, generic_functional
from oracles import reference_face_number_sequences

_BASIC = [("simplex", 0, 5), ("cube", 0, 5), ("cross", 1, 5)]
BUILTINS = [f"{family}:{d}" for family, lo, hi in _BASIC for d in range(lo, hi + 1)] + [
    f"{compound}:{family}:{d}"
    for compound in ("pyramid", "prism", "bipyramid")
    for family, lo, hi in _BASIC
    for d in range(lo, hi)
    if compound != "bipyramid" or d >= 1  # a bipyramid needs a base of dimension >= 1
]
N_MAX = (0, 1, 2, 3, 40)


def _sphere():
    return polytope_from_json(json.loads((Path(__file__).parent / "sphere2_6.json").read_text()))


@pytest.mark.parametrize("spec", BUILTINS + ["sphere2_6.json"])
def test_column_sums_equal_the_term_by_term_recursion(spec):
    lattice = _sphere() if spec.endswith(".json") else parse_builtin(spec)
    assert lattice.dim <= 5
    apexes = assign_apexes(lattice, generic_functional(lattice))
    for n_max in N_MAX:
        ext, intr = face_number_sequences(lattice, apexes, n_max)
        ref_ext, ref_intr = reference_face_number_sequences(lattice, apexes, n_max)
        assert list(ext) == list(ref_ext) == [f.id for f in lattice.faces[1:]]
        for fid in ref_ext:
            assert ext[fid] == ref_ext[fid], (spec, n_max, fid)
            assert intr[fid] == ref_intr[fid], (spec, n_max, fid)
            assert len(ext[fid]) == len(intr[fid]) == n_max + 1


def test_negative_n_max_is_rejected():
    lattice = parse_builtin("cube:2")
    apexes = assign_apexes(lattice, generic_functional(lattice))
    with pytest.raises(ValueError, match="n_max must be nonnegative"):
        face_number_sequences(lattice, apexes, -1)
