"""figurate benchmark: closed-loop CLI invocations, timed, checked and traced.

Run from the repository root::

    python3 perfbench/run.py --workload verify-dense --seed 0 --seconds 30 --trace 0

One process and one thread drive ``figurate.cli.main(argv)`` in-process with
the program under ``src/``. Each pass runs the workload's invocations one
after another, each starting when the previous one has returned; passes
repeat until the next one would overrun ``--seconds``.

``--trace 0`` reports the end-to-end metrics of untraced passes.
``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics of the traced ones, plus the tracing overhead; the spans are written
to ``perfbench/out/``. Reports are checked outside the timed region: exit
codes, claim summaries, the workload's oracle, and the sha256 of every report,
which must repeat in every pass, traced or not, and match the digests pinned
in ``digests.json``. The last line of standard output is the result object;
the line before it holds context that no gate reads.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from calibration import REF_S, Sampler
from spans import LAYERS, Tracer, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

SETUP_REPEATS = 5
MIN_PASSES = 3
MIN_TRACE_PASSES = 4  # two untraced and two traced
HARD_LIMIT_S = 120.0  # never start a pass that would end later than this
STEAL_FIELD = 8  # index of the steal column on the "cpu" line of /proc/stat


class SetupError(RuntimeError):
    """The program under test is missing or is not the one under ``src/``."""


@dataclass
class Pass:
    wall: float
    cpu: float
    reports: list[str] | None  # kept only while their digests are new in the run
    digests: tuple[str, ...]
    report_bytes: int
    codes: list[int]
    ref: tuple[float, float]  # mean kernel wall and CPU seconds during the pass
    layers: dict | None = None  # per-layer metrics of a traced pass

    @property
    def wall_cal(self) -> float:
        return self.wall * REF_S / self.ref[0]

    @property
    def cpu_cal(self) -> float:
        # Scaled by the kernel's wall time, like wall_cal: CPU the process
        # loses to contention then shows as cpu_cal below wall_cal.
        return self.cpu * REF_S / self.ref[0]


def _purge_figurate() -> None:
    for name in [m for m in sys.modules if m == "figurate" or m.startswith("figurate.")]:
        del sys.modules[name]


def setup(prepare, seed: int, smoke: bool, work_dir: Path):
    """Import figurate afresh and write the workload's inputs; returns (seconds, modules, plan)."""
    _purge_figurate()
    t0 = time.perf_counter()
    modules = {layer: importlib.import_module(f"figurate.{layer}") for layer in LAYERS}
    plan = prepare(Path(tempfile.mkdtemp(dir=work_dir)), seed, smoke, modules)
    elapsed = time.perf_counter() - t0
    if not Path(modules["cli"].__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"imported figurate from {modules['cli'].__file__}, not from {SRC}")
    return elapsed, modules, plan


def run_pass(cli, argvs, tracer: Tracer | None = None) -> Pass:
    """One closed-loop pass; only the ``main`` calls are timed.

    The calibration kernel runs before and after the pass and on a timer
    during it; its own time is taken out of the invocations it interrupted.
    """
    gc.collect()
    wall = cpu = 0.0
    reports, codes = [], []
    sampler = Sampler()
    sampler.sample()
    with sampler:
        for i, argv in enumerate(argvs):
            if tracer is not None:
                tracer.item = i
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                w0, c0 = time.perf_counter(), time.process_time()
                try:
                    code = cli.main(list(argv))  # looked up per call, so a traced main is used
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:  # a crash is a failed invocation, not a dead benchmark
                    traceback.print_exc(file=sys.__stderr__)
                    code = -1
                c1, w1 = time.process_time(), time.perf_counter()
            spent_wall, spent_cpu = sampler.spent(w0, w1)
            wall += w1 - w0 - spent_wall
            cpu += c1 - c0 - spent_cpu
            reports.append(out.getvalue())
            codes.append(code)
    sampler.sample()
    layers = None if tracer is None else layer_metrics(tracer.spans, tracer.sizes)
    digests = tuple(_sha256(r) for r in reports)
    report_bytes = sum(len(r.encode("utf-8")) for r in reports)
    return Pass(wall, cpu, reports, digests, report_bytes, codes, sampler.kernel_seconds(), layers)


def measure(modules, plan, seconds: float, trace: bool) -> tuple[list[Pass], Tracer | None]:
    """Passes until the next would overrun ``seconds``; alternates traced ones in.

    Returns the passes and the tracer of the first traced pass, whose spans
    are the ones written out.
    """
    passes: list[Pass] = []
    seen: set[tuple[str, ...]] = set()
    first_tracer = None
    start = time.perf_counter()
    while True:
        tracer = None
        if trace and len(passes) % 2 == 1:
            tracer = Tracer(modules)
            tracer.install()
            first_tracer = first_tracer or tracer
        try:
            p = run_pass(modules["cli"], plan.argvs, tracer)
        finally:
            if tracer is not None:
                tracer.remove()
        if p.digests in seen:
            p.reports = None  # so that memory does not grow with the number of passes
        seen.add(p.digests)
        passes.append(p)
        elapsed = time.perf_counter() - start
        upcoming = max(p.wall for p in passes[-2:])
        done = len(passes) >= (MIN_TRACE_PASSES if trace else MIN_PASSES)
        if elapsed + upcoming > (seconds if done else HARD_LIMIT_S):
            return passes, first_tracer


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pinned_digests(workload: str, seed: int, smoke: bool) -> list[str] | None:
    """The report digests pinned for this workload and seed, if any."""
    if smoke:
        return None
    entry = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload)
    if entry is None or entry["seed"] not in (None, seed):
        return None
    return entry["sha256"]


def check(plan, passes: list[Pass], pinned: list[str] | None):
    """Count failed invocations: exit code, oracle, or a digest off the reference.

    The reference is the pinned digest list when there is one, else the first
    pass, so every pass, traced or not, must produce the same bytes.
    """
    reference = pinned or passes[0].digests
    verdicts: dict[tuple[str, ...], list] = {}
    failed, errors = 0, []
    for n, p in enumerate(passes):
        if p.digests not in verdicts:
            verdicts[p.digests] = plan.oracle(p.reports)
        for i, (code, digest, verdict) in enumerate(zip(p.codes, p.digests, verdicts[p.digests])):
            problem = (
                f"exit code {code}" if code != 0
                else verdict if verdict is not None
                else "report digest differs from the reference" if digest != reference[i]
                else None
            )
            if problem is not None:
                failed += 1
                errors.append(f"pass {n} invocation {i}: {problem}")
    return failed, errors


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(passes: list[Pass], setup_s: float) -> dict:
    """Times in calibrated seconds (see ``calibration``); memory as measured."""
    walls = [p.wall_cal for p in passes]
    return {
        "wall_s": _metric(statistics.median(walls), "s"),
        # The tail rule (highest percentile with ten samples beyond it) needs
        # more than ten passes; a run has fewer, so the slowest pass stands in.
        "wall_s_tail": _metric(max(walls), "s"),
        "cpu_s": _metric(statistics.median(p.cpu_cal for p in passes), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": _metric(setup_s, "s"),
    }


def per_layer_metrics(untraced: list[Pass], traced: list[Pass]) -> tuple[dict, bool]:
    """Medians of the traced passes' calibrated layer times; counts from the first.

    Returns the metrics and whether every count repeated exactly across passes.
    """
    metrics = {}
    counts_repeat = True
    for key, first in traced[0].layers.items():
        if isinstance(first, int):
            counts_repeat &= all(p.layers[key] == first for p in traced)
            unit = "bits" if key.endswith("_bits") else "count"
            metrics[key] = _metric(first, unit)
        else:
            values = [p.layers[key] * REF_S / p.ref[0] for p in traced]
            metrics[key] = _metric(statistics.median(values), "s")
    metrics["cli.report_bytes"] = _metric(traced[0].report_bytes, "bytes")
    overhead = statistics.median(p.wall_cal for p in traced) - statistics.median(p.wall_cal for p in untraced)
    metrics["trace.overhead_s"] = _metric(overhead, "s")
    return metrics, counts_repeat


def _steal_ticks() -> int | None:
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return int(fh.readline().split()[STEAL_FIELD])
    except (OSError, IndexError, ValueError):
        return None


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  smoke: bool = False, out_dir: Path = OUT, pinned=None) -> tuple[dict, dict]:
    """Run one workload; returns (result object, context).

    ``pinned`` overrides the digests from ``digests.json``.
    """
    if not (SRC / "figurate" / "cli.py").is_file():
        raise SetupError(f"no figurate sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    prepare = WORKLOADS[workload]
    steal0 = _steal_ticks()
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as work:
        setups = []
        sampler = Sampler()
        for _ in range(SETUP_REPEATS):
            sampler.sample()
            elapsed, modules, plan = setup(prepare, seed, smoke, Path(work))
            setups.append(elapsed)
        sampler.sample()
        setup_ref = sampler.kernel_seconds()[0]
        passes, tracer = measure(modules, plan, seconds, trace)
        if pinned is None:
            pinned = pinned_digests(workload, seed, smoke)
        failed, errors = check(plan, passes, pinned)
    untraced = [p for p in passes if p.layers is None]
    traced = [p for p in passes if p.layers is not None]
    attempted = sum(len(p.codes) for p in passes)
    context = {
        "workload": workload,
        "seed": seed,
        "smoke": smoke,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": sum(len(f.read_text(encoding="utf-8").splitlines()) for f in SRC.rglob("*.py")),
        "invocations_per_pass": len(plan.argvs),
        "ref_s": REF_S,
        "wall_samples": [p.wall for p in untraced],
        "cpu_samples": [p.cpu for p in untraced],
        "kernel_samples": [p.ref[0] for p in untraced],
        "kernel_cpu_samples": [p.ref[1] for p in untraced],
        "setup_samples": setups,
        "setup_kernel": setup_ref,
        "failed_ratio": failed / attempted,
        "errors": errors[:5],
        "digests": passes[0].digests,
        "report_bytes": passes[0].report_bytes,
    }
    if trace:
        metrics, context["counts_repeat"] = per_layer_metrics(untraced, traced)
        context["traced_wall_samples"] = [p.wall for p in traced]
        context["longest_spans_raw_s"] = tracer.longest(8)
        spans_path = out_dir / f"spans-{workload}.jsonl"
        tracer.write(spans_path)
        context["spans_file"] = os.path.relpath(spans_path)
    else:
        metrics = end_to_end_metrics(untraced, statistics.median(setups) * REF_S / setup_ref)
    steal1 = _steal_ticks()
    context["steal_ticks"] = None if steal0 is None or steal1 is None else steal1 - steal0
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, context


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, context = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
