"""Each command assembles the chain in one ``Analysis``, which computes each
certificate and the recursion once.

The maximal simplices come from construction: no scan of the complex for
them runs in the pipeline. Both partitions of a point come from one stage,
which verifies each of them once.
"""
from collections import Counter

import pytest

import figurate.partitions as partitions
import figurate.pipeline as pipeline
import figurate.sequences as sequences
import figurate.triangulation as triangulation
from figurate.cli import main
from figurate.lattice import parse_builtin
from figurate.pipeline import Analysis, all_passed, run_pipeline
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


def test_partitions_carry_their_certificates(cube3):
    for pair in cube3.partitions:
        for part in pair:
            assert part.certificate.ok
            assert not part.certificate.foreign
