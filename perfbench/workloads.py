"""The benchmark's workloads: CLI invocations, generated inputs and oracles.

Every workload is a list of ``figurate`` command lines run in a closed loop,
one after another, plus an oracle that checks their reports outside the timed
region. The program always runs with its default seed 0; the workload seed
only steers the generated inputs of ``hull-rational``. ``smoke`` selects tiny
variants of the same shapes for the benchmark's own tests.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

# One oracle verdict per invocation: None when the report is right, else why not.
Oracle = Callable[[list[str]], list["str | None"]]


@dataclass(frozen=True)
class Plan:
    argvs: list[list[str]]
    oracle: Oracle


def _summary_failures(report: str) -> str | None:
    """The failed claims a pipeline report's closing summary record lists."""
    try:
        summary = json.loads(report.splitlines()[-1])
    except (IndexError, ValueError):
        return "report has no summary record"
    if summary.get("record") != "summary":
        return "report has no summary record"
    return f"failed claims {summary['failed']}" if summary["failed"] else None


def _pipeline_plan(argvs, extra: Callable[[], str | None] = lambda: None) -> Plan:
    def oracle(reports):
        return [_summary_failures(r) or extra() for r in reports]

    return Plan(argvs, oracle)


def _verify(specs, smoke_specs, points=None) -> Callable:
    def prepare(input_dir, seed, smoke, modules):
        argv = ["pipeline"]
        for spec in smoke_specs if smoke else specs:
            argv += ["--builtin", spec]
        if points is not None:
            argv += ["--points", str(points)]
        return _pipeline_plan([argv + ["--summary"]])

    return prepare


# ---------------------------------------------------------------------------
# hull-rational: seeded rational points on spheres, plus cube:4 by coordinates.

# Written without the program's own serializer, so that a change under src/
# cannot change the benchmark's inputs.
def _rational_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def sphere_points(rng: random.Random, k: int, count: int) -> list[tuple[Fraction, ...]]:
    """``count`` distinct rational points on the unit sphere S^k in Q^(k+1).

    Inverse stereographic projection sends t in Q^k to
    (2t, |t|^2 - 1) / (|t|^2 + 1), which is rational and on the sphere, so
    every generated point is a vertex of the hull of the set.
    """
    params: set[tuple[Fraction, ...]] = set()
    while len(params) < count:
        params.add(tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(k)))
    points = []
    for t in sorted(params):
        s = sum(c * c for c in t)
        points.append(tuple(2 * c / (s + 1) for c in t) + ((s - 1) / (s + 1),))
    rng.shuffle(points)
    return points


def hull_inputs(seed: int, smoke: bool) -> list[tuple[str, int, list[tuple]]]:
    """(name, dimension, vertices) of the hull-rational inputs for a workload seed."""
    rng = random.Random(seed)
    if smoke:
        return [("sphere2-6", 3, sphere_points(rng, 2, 6))]
    cube = [tuple(Fraction(b >> j & 1) for j in range(4)) for b in range(16)]
    return [
        ("cube4-coords", 4, cube),
        ("sphere3-12a", 4, sphere_points(rng, 3, 12)),
        ("sphere3-12b", 4, sphere_points(rng, 3, 12)),
        ("sphere2-20", 3, sphere_points(rng, 2, 20)),
    ]


def _prepare_hull(input_dir, seed, smoke, modules):
    inputs = hull_inputs(seed, smoke)
    argv = ["pipeline"]
    for name, _, verts in inputs:
        path = input_dir / f"{name}.json"
        data = {"name": name, "vertices": [[_rational_str(c) for c in v] for v in verts]}
        path.write_text(json.dumps(data), encoding="utf-8")
        argv += ["--input", str(path)]
    verdict: list[str | None] = []

    def face_counts() -> str | None:
        """Euler-Poincare and f_0 = #points on the program's own face lattices (once)."""
        if not verdict:
            verdict.append(None)
            for name, dim, verts in inputs:
                data = json.loads((input_dir / f"{name}.json").read_text(encoding="utf-8"))
                counts = modules["lattice"].polytope_from_json(data).face_counts()
                euler = sum((-1) ** i * counts.get(i, 0) for i in range(dim))
                if counts.get(dim) != 1 or euler != 1 - (-1) ** dim or counts.get(0) != len(verts):
                    verdict[0] = f"{name}: face counts {counts} break Euler-Poincare or f_0 = {len(verts)}"
                    break
        return verdict[0]

    return _pipeline_plan([argv + ["--summary"]], face_counts)


# ---------------------------------------------------------------------------
# sequence-long: every method variant on long prefixes.

EXTERIOR_METHODS = ("recursive", "simplex-sum", "h")
INTERIOR_METHODS = ("recursive", "simplex-sum", "h", "k")


def _sequence_oracle(variants) -> Oracle:
    """Variants of one polytope and side agree; cube:d gives n^d and (n-2)^d."""

    def oracle(reports):
        verdicts: list[str | None] = [None] * len(reports)
        groups: dict[tuple[str, bool], list[int]] = {}
        for i, (spec, interior) in enumerate(variants):
            groups.setdefault((spec, interior), []).append(i)
        for (spec, interior), idx in groups.items():
            try:
                values = [json.loads(reports[i])["values"] for i in idx]
            except (ValueError, KeyError):
                for i in idx:
                    verdicts[i] = "report is not a sequence record"
                continue
            problem = None
            if any(v != values[0] for v in values):
                problem = "method variants disagree"
            elif spec.startswith("cube:"):
                d = int(spec.partition(":")[2])
                if interior:
                    wrong = [n for n, v in enumerate(values[0]) if n >= 2 and v != (n - 2) ** d]
                else:
                    wrong = [n for n, v in enumerate(values[0]) if v != n**d]
                if wrong:
                    problem = f"{spec} differs from its closed form at n = {wrong[0]}"
            for i in idx:
                verdicts[i] = problem
        return verdicts

    return oracle


def _prepare_sequence(input_dir, seed, smoke, modules):
    specs, n = (("cube:3", "cross:3"), 30) if smoke else (("cube:4", "cross:4"), 2000)
    argvs, variants = [], []
    for spec in specs:
        for interior, methods in ((False, EXTERIOR_METHODS), (True, INTERIOR_METHODS)):
            for method in methods:
                argv = ["sequence", "--builtin", spec, "--method", method, "--n", str(n)]
                argvs.append(argv + ["--interior"] if interior else argv)
                variants.append((spec, interior))
    return Plan(argvs, _sequence_oracle(variants))


# Workload name -> prepare(input dir, seed, smoke, modules) -> Plan. Why each
# workload is here is recorded in BENCHMARK.json and README.md.
WORKLOADS: dict[str, Callable[[Path, int, bool, dict], Plan]] = {
    "verify-dense": _verify(("cube:5", "cross:5"), ("cube:3",)),
    "verify-highdim": _verify(("simplex:9", "pyramid:simplex:8"), ("simplex:3", "pyramid:simplex:2"), points=1),
    "hull-rational": _prepare_hull,
    "sequence-long": _prepare_sequence,
}
