"""The benchmark's own checks, on the tiny ``smoke`` variants of its workloads."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from spans import Tracer
from workloads import hull_inputs

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SECONDS = 0.2


@pytest.fixture(autouse=True)
def restore_figurate_modules():
    """The benchmark re-imports figurate; give the other tests their modules back."""
    saved = {k: v for k, v in sys.modules.items() if k == "figurate" or k.startswith("figurate.")}
    yield
    run._purge_figurate()
    sys.modules.update(saved)


def _smoke(tmp_path, workload, trace, pinned=None):
    return run.run_benchmark(workload, 0, SECONDS, trace, smoke=True, out_dir=tmp_path, pinned=pinned)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_emitted(tmp_path, workload, trace):
    result, context = _smoke(tmp_path, workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, context["errors"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if trace:
        assert context["counts_repeat"]
        assert (tmp_path / f"spans-{workload}.jsonl").stat().st_size > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tracing_leaves_reports_unchanged(tmp_path):
    _, modules, plan = run.setup(run.WORKLOADS["sequence-long"], 0, True, tmp_path)
    plain = run.run_pass(modules["cli"], plan.argvs)
    tracer = Tracer(modules)
    tracer.install()
    try:
        traced = run.run_pass(modules["cli"], plan.argvs, tracer)
    finally:
        tracer.remove()
    assert traced.reports == plain.reports
    assert traced.layers["sequences.polytope_number_recursive.s"] > 0
    assert traced.layers["triangulation.verify_pointed.calls"] == len(plan.argvs)
    assert modules["cli"].main.__module__ == "figurate.cli"  # wrappers are gone again


def test_wrong_digest_counts_as_failure(tmp_path):
    result, context = _smoke(tmp_path, "verify-dense", False, pinned=["0" * 64])
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert "digest" in context["errors"][0]


def test_oracle_catches_wrong_sequence_values(tmp_path):
    _, modules, plan = run.setup(run.WORKLOADS["sequence-long"], 0, True, tmp_path)
    reports = run.run_pass(modules["cli"], plan.argvs).reports
    assert plan.oracle(reports) == [None] * len(reports)
    data = json.loads(reports[0])
    data["values"][5] += 1
    reports[0] = json.dumps(data)
    verdicts = plan.oracle(reports)
    assert all(verdicts[:3]) and not any(verdicts[3:])


def test_hull_inputs_depend_only_on_the_seed():
    assert hull_inputs(3, False) == hull_inputs(3, False)
    assert hull_inputs(3, False) != hull_inputs(4, False)
    for _, dim, verts in hull_inputs(3, False)[1:]:
        assert all(len(v) == dim and sum(c * c for c in v) == 1 for v in verts)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = SPEC["command"] + ["--workload", "verify-dense", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
