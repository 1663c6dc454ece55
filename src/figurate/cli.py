"""Command-line front door: generate polytopes, verify claims, print sequences.

Reports are newline-delimited JSON so sweeps over many polytopes stream;
``--summary`` appends one aggregate record. Exit status encodes the outcome:
0 when every claim passed, 1 when a claim failed, 2 for usage or input
errors. Seeds only steer the generic point search, never the mathematics,
and identical invocations produce byte-identical output.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from .geometry import GeometryError
from .lattice import (
    FaceLattice,
    builtin,
    parse_builtin,
    polytope_from_json,
    polytope_to_json,
)
from .pipeline import Analysis, all_passed, run_pipeline, summary_record, vector_claims
from .sequences import polytope_number_from_h, polytope_number_recursive, polytope_number_simplex_sum

N_MAX_GUARD = 10000


def _dump(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_inputs(args) -> list[FaceLattice]:
    lattices = []
    for spec in args.builtin or []:
        lattices.append(parse_builtin(spec))
    for path in args.input or []:
        with open(path, encoding="utf-8") as fh:
            lattices.append(polytope_from_json(json.load(fh)))
    if not lattices:
        raise ValueError("no polytope given: use --builtin or --input")
    return lattices


def _cmd_gen(args) -> int:
    compound = args.family in ("pyramid", "prism", "bipyramid")
    unused = ("dimension", args.dim) if compound else ("--base", args.base)
    if unused[1] is not None:
        raise ValueError(f"gen {args.family} does not use {unused[0]} {unused[1]}")
    if compound:
        if args.base is None:
            raise ValueError(f"gen {args.family} requires --base FILE")
        with open(args.base, encoding="utf-8") as fh:
            base = polytope_from_json(json.load(fh))
        lattice = builtin(args.family, base=base)
    else:
        if args.dim is None:
            raise ValueError(f"gen {args.family} requires a dimension argument")
        lattice = builtin(args.family, args.dim)
    data = polytope_to_json(lattice)
    if args.name:
        data["name"] = args.name
    _dump(json.dumps(data, indent=2), args.out)
    return 0


def _cmd_pipeline(args) -> int:
    if not 0 <= args.n <= N_MAX_GUARD:
        raise ValueError(f"--n must lie in [0, {N_MAX_GUARD}]")
    lattices = _load_inputs(args)
    lines = []
    records = []
    for lattice in lattices:
        try:
            recs = run_pipeline(lattice, seed=args.seed, n_max=args.n, points=args.points)
        except ValueError:
            raise  # unusable configuration or input: a usage error, not a failed claim
        except Exception as exc:  # a stage failure becomes a failed claim record
            recs = [{
                "record": "claim",
                "claim": "pipeline-stage",
                "polytope": lattice.polytope.name,
                "params": {"seed": args.seed, "n_max": args.n},
                "pass": False,
                "counterexample": {"error": str(exc)},
            }]
        records.extend(recs)
        lines.extend(json.dumps(r, separators=(",", ":")) for r in recs)
    if args.summary:
        lines.append(json.dumps(summary_record(records), separators=(",", ":")))
    _dump("\n".join(lines), args.out)
    return 0 if all_passed(records) else 1


def _cmd_sequence(args) -> int:
    if not 0 <= args.n <= N_MAX_GUARD:
        raise ValueError(f"--n must lie in [0, {N_MAX_GUARD}]")
    if args.method == "k" and not args.interior:
        raise ValueError("--method k is an interior decomposition; add --interior")
    lattices = _load_inputs(args)
    if len(lattices) > 1:
        raise ValueError(f"sequence takes one polytope, got {len(lattices)}")
    a = Analysis(lattices[0], seed=args.seed, n_max=args.n)
    failed = next((r for r in vector_claims(a) if not r["pass"]), None)
    if failed is not None:
        raise RuntimeError(f"claim {failed['claim']} failed: {json.dumps(failed['counterexample'])}")
    if args.method == "recursive":
        values = polytope_number_recursive(a.lattice, a.apexes, args.n, interior=args.interior).values
    elif args.method == "simplex-sum":
        values = polytope_number_simplex_sum(a.tri, args.n, interior=args.interior).values
    elif args.method == "k":
        values = polytope_number_from_h(a.k, args.n)
    else:
        values = polytope_number_from_h(a.h[::-1] if args.interior else a.h, args.n)
    data = {"polytope": a.name, "method": args.method, "interior": args.interior,
            "h": list(a.h), "k": list(a.k), "values": list(values)}
    _dump(json.dumps(data, separators=(",", ":")), args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by later ones:
    parsing reads it and never changes it."""
    parser = argparse.ArgumentParser(
        prog="figurate",
        description="Pointed triangulations of convex polytopes and their figurate number sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a builtin polytope as JSON")
    gen.add_argument("family", choices=["simplex", "cube", "cross", "pyramid", "prism", "bipyramid"])
    gen.add_argument("dim", nargs="?", type=int, default=None)
    gen.add_argument("--base", help="base polytope JSON for pyramid/prism/bipyramid")
    gen.add_argument("--name", help="override the polytope name")
    gen.add_argument("--out", help="output file (default: stdout)")
    gen.set_defaults(fn=_cmd_gen)

    pipe = sub.add_parser("pipeline", help="triangulate, partition, and verify every claim")
    pipe.add_argument("--builtin", action="append", help="builtin spec like cube:3 or pyramid:square")
    pipe.add_argument("--input", action="append", help="polytope JSON file")
    pipe.add_argument("--n", type=int, default=15, help="check sequences for n in [0, N]")
    pipe.add_argument("--seed", type=int, default=0)
    pipe.add_argument("--points", type=int, default=3, help="distinct generic points per polytope")
    pipe.add_argument("--summary", action="store_true", help="append an aggregate record")
    pipe.add_argument("--out", help="output file (default: stdout)")
    pipe.set_defaults(fn=_cmd_pipeline)

    seq = sub.add_parser("sequence", help="print a sequence prefix and its decomposition")
    seq.add_argument("--builtin", action="append")
    seq.add_argument("--input", action="append")
    seq.add_argument("--method", choices=["recursive", "simplex-sum", "h", "k"], default="recursive")
    seq.add_argument("--interior", action="store_true")
    seq.add_argument("--n", type=int, default=10)
    seq.add_argument("--seed", type=int, default=0)
    seq.add_argument("--out", help="output file (default: stdout)")
    seq.set_defaults(fn=_cmd_sequence)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, GeometryError, OSError, json.JSONDecodeError) as exc:
        print(f"figurate: error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # a failed stage of ``sequence``
        print(f"figurate: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
