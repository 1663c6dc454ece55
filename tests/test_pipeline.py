"""The claim pipeline runs each certificate and the recursion once, and reuses them.

The maximal simplices come from construction: no scan of the complex for
them runs in the pipeline. Subfaces are read as face-id masks: no subface id
tuple is read out in the pipeline.
"""
from collections import Counter

import pytest

import figurate.partitions as partitions
import figurate.pipeline as pipeline
import figurate.sequences as sequences
import figurate.triangulation as triangulation
from figurate.lattice import FaceLattice, parse_builtin
from figurate.pipeline import DEBUG, RELEASE, all_passed, run_pipeline
import oracles


def _count(monkeypatch, calls, name, *modules):
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    for module in modules:  # every namespace the function could be called through
        monkeypatch.setattr(module, name, counted, raising=False)


@pytest.mark.parametrize("profile", [DEBUG, RELEASE])
def test_each_certificate_is_computed_once(monkeypatch, profile):
    calls = Counter()
    _count(monkeypatch, calls, "verify_pointed", triangulation, pipeline)
    _count(monkeypatch, calls, "verify_partition", partitions, pipeline)
    _count(monkeypatch, calls, "face_number_sequences", sequences, pipeline)
    _count(monkeypatch, calls, "maximal_simplices", oracles, triangulation, pipeline)
    _count(monkeypatch, calls, "subface_ids", FaceLattice)
    records = run_pipeline(parse_builtin("cube:3"), n_max=5, points=3, profile=profile)
    assert all_passed(records)
    assert calls == {"verify_pointed": 1, "verify_partition": 2 * 3, "face_number_sequences": 1}
    assert calls["maximal_simplices"] == 0
    assert calls["subface_ids"] == 0


def test_partitions_carry_their_certificates(cube3):
    for part in cube3.exterior + cube3.interior:
        assert part.verified and part.certificate.ok
        assert not part.certificate.foreign

