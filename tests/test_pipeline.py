"""Each command assembles the chain in one ``Analysis``, which computes each
certificate and the recursion once.

The maximal simplices come from construction: no scan of the complex for
them, and no fallback scan for closure, runs in the pipeline. A tampered
list of maximal simplices fails a stage, in the flag walk or in the
partition check, and never reaches a passing report. Both partitions of a
point come from one stage, which verifies each of them once. Options after
the lattice are keyword-only. When one sequence method disagrees, both
sequence claims fail and name the first n and every method's value there.
"""
import json
import re
from collections import Counter
from dataclasses import fields, replace

import pytest

import figurate.partitions as partitions
import figurate.pipeline as pipeline
import figurate.sequences as sequences
import figurate.triangulation as triangulation
from figurate.cli import main
from figurate.lattice import parse_builtin
from figurate.partitions import GenericPoint, Partition, verify_partition
from figurate.pipeline import Analysis, all_passed, run_pipeline
from figurate.sequences import SequenceResult
import oracles


def _count(monkeypatch, calls, name, *modules):
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    for module in modules:  # every namespace the function could be called through
        monkeypatch.setattr(module, name, counted, raising=False)


@pytest.fixture
def calls(monkeypatch):
    calls = Counter()
    _count(monkeypatch, calls, "verify_pointed", triangulation, pipeline)
    _count(monkeypatch, calls, "verify_partition", partitions, pipeline)
    _count(monkeypatch, calls, "face_number_sequences", sequences, pipeline)
    _count(monkeypatch, calls, "maximal_simplices", oracles, triangulation, pipeline)
    _count(monkeypatch, calls, "_closed_by_scan", triangulation)
    return calls


def test_each_certificate_is_computed_once(calls):
    records = run_pipeline(parse_builtin("cube:3"), n_max=5, points=3)
    assert all_passed(records)
    assert calls == {"verify_pointed": 1, "verify_partition": 2 * 3, "face_number_sequences": 1}


@pytest.mark.parametrize("method, recursions", [("h", 0), ("recursive", 1)])
def test_sequence_reads_one_analysis(calls, capsys, method, recursions):
    assert main(["sequence", "--builtin", "cube:3", "--method", method, "--n", "5"]) == 0
    expected = {"verify_pointed": 1, "verify_partition": 2, "face_number_sequences": recursions}
    assert calls == Counter(expected)  # missing counts read as 0


def test_stages_are_computed_on_first_use_and_kept(calls):
    a = Analysis(parse_builtin("cube:3"), points=2)
    assert calls == {}
    assert a.partitions is a.partitions and a.tri is a.tri
    assert calls == {"verify_pointed": 1, "verify_partition": 2 * 2}


@pytest.mark.parametrize("spec, points", [("simplex:0", 1), ("cube:0", 1), ("cube:2", 0)])
def test_analysis_rejects_what_the_chain_cannot_run(spec, points):
    with pytest.raises(ValueError):
        Analysis(parse_builtin(spec), points=points)


def test_partitions_are_their_verified_intervals(cube3):
    # a partition is built only after its check passes, so it keeps no certificate
    assert [f.name for f in fields(Partition)] == ["intervals"]
    assert [f.name for f in fields(GenericPoint)] == ["x", "certificate"]
    for ext, intr in cube3.partitions:
        assert verify_partition(ext.intervals, cube3.tri.simplices).ok
        assert verify_partition(intr.intervals, cube3.tri.interior).ok


def test_options_after_the_lattice_are_keyword_only():
    lattice = parse_builtin("cube:2")
    with pytest.raises(TypeError):
        Analysis(lattice, 0)
    with pytest.raises(TypeError):
        run_pipeline(lattice, 0)
    a = Analysis(lattice, seed=1, points=2, n_max=4)
    assert (a.seed, a.points, a.n_max) == (1, 2, 4)


def _one_more_at_4(result):
    """Values off by one at n = 4, as a tuple or in a ``SequenceResult``."""
    if isinstance(result, SequenceResult):
        return replace(result, values=_one_more_at_4(result.values))
    return tuple(v + (n == 4) for n, v in enumerate(result))


# one method's values off by one at n = 4, on cube:3: n^3 and (n - 2)^3
@pytest.mark.parametrize("name, exterior, interior", [
    ("expand",
     {"recursive": 65, "simplex_sum": 64, "from_h": 64},
     {"recursive": 9, "simplex_sum": 8, "from_k": 8, "from_h_reversed": 8}),
    ("polytope_number_simplex_sum",
     {"recursive": 64, "simplex_sum": 65, "from_h": 64},
     {"recursive": 8, "simplex_sum": 9, "from_k": 8, "from_h_reversed": 8}),
    ("polytope_number_from_h",
     {"recursive": 64, "simplex_sum": 64, "from_h": 65},
     {"recursive": 8, "simplex_sum": 8, "from_k": 9, "from_h_reversed": 9}),
])
def test_a_sequence_mismatch_names_the_first_n_and_every_method(monkeypatch, name, exterior, interior):
    original = getattr(pipeline, name)
    monkeypatch.setattr(pipeline, name, lambda *args, **kwargs: _one_more_at_4(original(*args, **kwargs)))
    records = {r["claim"]: r for r in run_pipeline(parse_builtin("cube:3"), n_max=6, points=1)}
    params = {"d": 3, "seed": 0, "n_max": 6}
    for claim, values in [("sequence-three-way", exterior), ("interior-four-way", interior)]:
        assert records[claim] == {
            "record": "claim", "claim": claim, "polytope": "cube:3", "params": params, "pass": False,
            "counterexample": {"n": 4, **values},
        }
    assert [c for c, r in records.items() if not r["pass"]] == ["sequence-three-way", "interior-four-way"]


def _build_then(monkeypatch, change):
    """Make the pipeline's triangulation ``change(tri)`` of the one it builds."""
    build = pipeline.build_pointed_triangulation
    monkeypatch.setattr(pipeline, "build_pointed_triangulation", lambda lattice, apexes: change(build(lattice, apexes)))


# one leaf of cube:3 dropped, or a facet of one, no maximal simplex, added
_TAMPERED = [
    (lambda m: m[1:], r"the apex flags end in 6 simplices, not in the 5 maximal ones"),
    (lambda m: m[:-1], r"the apex flags end in 6 simplices, not in the 5 maximal ones"),
    (lambda m: m + (m[0] & m[0] - 1,), r"maximal simplex \[1, 3, 7\] is the apex set of no flag"),
]


@pytest.mark.parametrize("change, error", _TAMPERED)
def test_tampered_maximal_simplices_fail_the_flag_walk(monkeypatch, capsys, change, error):
    _build_then(monkeypatch, lambda tri: replace(tri, maximal=change(tri.maximal)))
    assert main(["pipeline", "--builtin", "cube:3", "--summary"]) == 1
    *claims, summary = map(json.loads, capsys.readouterr().out.splitlines())
    [stage] = claims
    assert stage["claim"] == "pipeline-stage" and not stage["pass"]
    assert re.fullmatch(error, stage["counterexample"]["error"])
    assert summary["failed"] == ["pipeline-stage"]


@pytest.mark.parametrize("change", [change for change, _ in _TAMPERED])
def test_tampered_maximal_simplices_fail_the_partition_check(cube3, change):
    # with a certificate tampered to match, past the flag walk's own check,
    # the exterior partition misses or covers twice
    tri = cube3.tri
    for gp in cube3.generic_points:
        lower = dict(zip(tri.maximal, gp.certificate))
        maximal = change(tri.maximal)
        certificate = tuple(lower.get(f, 0) for f in maximal)
        with pytest.raises(RuntimeError, match=r"^exterior intervals failed to partition their target: "):
            partitions.visibility_partitions(replace(tri, maximal=maximal), GenericPoint(gp.x, certificate))


def test_a_full_simplex_on_the_boundary_fails_the_euler_stage(monkeypatch, capsys):
    # the boundary's f-vector is f less e: a maximal simplex left out of the
    # interior is a boundary simplex with d + 1 vertices
    _build_then(monkeypatch, lambda tri: replace(tri, interior=tri.interior - {tri.maximal[0]}))
    assert main(["pipeline", "--builtin", "cube:3"]) == 1
    [stage] = map(json.loads, capsys.readouterr().out.splitlines())
    assert stage["claim"] == "pipeline-stage"
    assert stage["counterexample"] == {"error": "boundary simplices with 4 vertices: 1"}
