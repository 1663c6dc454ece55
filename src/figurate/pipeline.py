"""End-to-end verification pipeline producing machine-readable claim records.

One run triangulates a polytope, builds its visibility partitions from
several distinct generic points, computes all vectors and sequences, and
emits one record per verified claim. Records are plain dicts with a fixed key
order so serialized reports are byte-identical across runs with the same
configuration. A failed claim always carries its first counterexample.
"""
from __future__ import annotations

from .lattice import FaceLattice
from .partitions import (
    e_vector,
    euler_characteristic,
    exterior_partition,
    f_vector,
    generic_point,
    h_from_f,
    h_from_partition,
    interior_counts_from_k,
    interior_partition,
    k_from_partition,
)
from .sequences import (
    face_number_sequences,
    polytope_number_from_h,
    interior_from_h_reversed,
    interior_from_k,
    polytope_number_simplex_sum,
)
from .triangulation import (
    assign_apexes,
    build_pointed_triangulation,
    generic_functional,
    is_simplicial_complex,
    link,
    pseudomanifold_certificate,
    split_boundary_interior,
    verify_pointed,
)

DEBUG = "debug"
RELEASE = "release"


def _record(claim, polytope, params, ok, witness=None, counterexample=None):
    rec = {"record": "claim", "claim": claim, "polytope": polytope, "params": params, "pass": bool(ok)}
    if ok and witness is not None:
        rec["witness"] = witness
    if not ok:
        rec["counterexample"] = counterexample if counterexample is not None else {}
    return rec


def run_pipeline(
    lattice: FaceLattice,
    seed: int = 0,
    n_max: int = 15,
    points: int = 3,
    profile: str = DEBUG,
) -> list[dict]:
    """Run every verification claim for one polytope; returns claim records."""
    name = lattice.polytope.name
    d = lattice.dim
    if d < 1:
        raise ValueError("the verification pipeline needs a polytope of dimension >= 1")
    if points < 1:
        raise ValueError("the pipeline needs at least one generic point")
    params = {"d": d, "seed": seed, "n_max": n_max}
    records: list[dict] = []

    functional = generic_functional(lattice, seed=seed)
    apexes = assign_apexes(lattice, functional)
    tri = build_pointed_triangulation(lattice, apexes, verify=(profile == DEBUG))

    cert = tri.pointed if tri.pointed is not None else verify_pointed(tri)
    records.append(
        _record(
            "pointed-triangulation", name, params, cert.ok,
            witness={"apex_vertex": tri.apex_vertex, "maximal_simplices": len(tri.maximal)},
            counterexample=None if cert.ok else {"condition": cert.condition, "detail": cert.detail},
        )
    )

    closed = is_simplicial_complex(tri.simplices)
    pure = all(len(s) == d + 1 for s in tri.maximal)
    records.append(
        _record(
            "pure-simplicial-complex", name, params, closed and pure,
            witness={"simplices": len(tri.simplices)},
            counterexample={"closed_under_subsets": closed, "pure": pure},
        )
    )

    split = split_boundary_interior(tri)
    ok, detail = pseudomanifold_certificate(tri, split)
    records.append(
        _record(
            "pseudomanifold-boundary", name, params, ok,
            witness={"boundary": len(split.boundary), "interior": len(split.interior)},
            counterexample={"detail": detail},
        )
    )

    f = f_vector(tri.simplices, d)
    h = h_from_f(f, d)
    e = e_vector(split.interior, d)
    fb = f_vector(split.boundary, d - 1)
    apex = tri.apex_vertex
    lk = link(apex, tri.simplices)
    flink = f_vector(lk, d - 1)
    chi_expected_boundary = 1 + (-1) ** (d - 1)
    euler_ok = (
        euler_characteristic(f) == 1
        and euler_characteristic(flink) == 1
        and euler_characteristic(fb) == chi_expected_boundary
    )
    records.append(
        _record(
            "euler-characteristic", name, params, euler_ok,
            witness={"complex": 1, "link": 1, "boundary": chi_expected_boundary},
            counterexample={
                "complex": euler_characteristic(f),
                "link": euler_characteristic(flink),
                "boundary": euler_characteristic(fb),
            },
        )
    )

    # Visibility partitions from several distinct generic points.
    gps = []
    for i in range(points):
        gps.append(generic_point(tri, seed=seed + i, avoid=tuple(g.x for g in gps)))
    h_parts = []
    k_parts = []
    for i, gp in enumerate(gps):
        pparams = dict(params, point=i)
        ext = exterior_partition(tri, gp)
        ext_cert = ext.certificate
        records.append(
            _record(
                "exterior-partition-cover", name, pparams, ext_cert.ok,
                witness={"intervals": len(ext.intervals), "covered": len(tri.simplices)},
                counterexample={
                    "uncovered": [sorted(s) for s in ext_cert.uncovered[:3]],
                    "foreign": [sorted(s) for s in ext_cert.foreign[:3]],
                },
            )
        )
        intr = interior_partition(tri, gp, split)
        int_cert = intr.certificate
        # every interval member outside the interior target is listed as foreign
        boundary_clean = not any(s in split.boundary for s in int_cert.foreign)
        records.append(
            _record(
                "interior-partition-cover", name, pparams, int_cert.ok and boundary_clean,
                witness={"intervals": len(intr.intervals), "covered": len(split.interior)},
                counterexample={
                    "uncovered": [sorted(s) for s in int_cert.uncovered[:3]],
                    "foreign": [sorted(s) for s in int_cert.foreign[:3]],
                    "disjoint_from_boundary": boundary_clean,
                },
            )
        )
        hp = h_from_partition(ext)
        kp = k_from_partition(intr)
        h_parts.append(hp)
        k_parts.append(kp)
        records.append(
            _record(
                "h-from-partition-matches-f", name, pparams, hp == h,
                witness={"h": list(h)},
                counterexample={"from_partition": list(hp), "from_f": list(h)},
            )
        )
        records.append(
            _record(
                "k-reverses-h", name, pparams, kp == tuple(reversed(h)),
                witness={"k": list(kp)},
                counterexample={"k": list(kp), "h": list(h)},
            )
        )
    records.append(
        _record(
            "partition-invariance", name, dict(params, points=points),
            len(set(h_parts)) == 1 and len(set(k_parts)) == 1,
            witness={"points": points},
            counterexample={"h_variants": [list(x) for x in sorted(set(h_parts))]},
        )
    )

    records.append(
        _record(
            "h-top-vanishes", name, params, h[d] == 0 and h[d + 1] == 0,
            witness={"h": list(h)},
            counterexample={"h": list(h)},
        )
    )

    hlink = h_from_f(flink, d - 1)
    link_ok = all(h[i] == hlink[i] for i in range(d))
    records.append(
        _record(
            "link-h-equality", name, params, link_ok,
            witness={"h_link": list(hlink)},
            counterexample={"h": list(h), "h_link": list(hlink)},
        )
    )

    k = k_parts[0]
    records.append(
        _record(
            "e-vector-from-k", name, params, e == interior_counts_from_k(k, d),
            witness={"e": list(e)},
            counterexample={"e": list(e), "from_k": list(interior_counts_from_k(k, d))},
        )
    )

    # Sequence methods must agree exactly, exterior and interior; one recursion
    # gives both recursive sequences of the polytope.
    face_ext, face_int = face_number_sequences(lattice, apexes, n_max)
    rec_ext = face_ext[lattice.top.id]
    sum_ext = polytope_number_simplex_sum(tri, n_max, split=split).values
    h_ext = tuple(polytope_number_from_h(h, d, n) for n in range(n_max + 1))
    mism = next(
        (n for n in range(n_max + 1) if not rec_ext[n] == sum_ext[n] == h_ext[n]), None
    )
    records.append(
        _record(
            "sequence-three-way", name, params, mism is None,
            witness={"h": list(h), "values": list(rec_ext)},
            counterexample=None if mism is None else {
                "n": mism,
                "recursive": rec_ext[mism],
                "simplex_sum": sum_ext[mism],
                "from_h": h_ext[mism],
            },
        )
    )

    rec_int = face_int[lattice.top.id]
    sum_int = polytope_number_simplex_sum(tri, n_max, interior=True, split=split).values
    k_int = tuple(interior_from_k(k, d, n) for n in range(n_max + 1))
    hr_int = tuple(interior_from_h_reversed(h, d, n) for n in range(n_max + 1))
    mism = next(
        (
            n for n in range(n_max + 1)
            if not rec_int[n] == sum_int[n] == k_int[n] == hr_int[n]
        ),
        None,
    )
    records.append(
        _record(
            "interior-four-way", name, params, mism is None,
            witness={"k": list(k), "values": list(rec_int)},
            counterexample=None if mism is None else {
                "n": mism,
                "recursive": rec_int[mism],
                "simplex_sum": sum_int[mism],
                "from_k": k_int[mism],
                "from_h_reversed": hr_int[mism],
            },
        )
    )
    return records


def all_passed(records: list[dict]) -> bool:
    return all(r["pass"] for r in records)


def summary_record(records: list[dict]) -> dict:
    failed = [r["claim"] for r in records if not r["pass"]]
    return {
        "record": "summary",
        "claims": len(records),
        "passed": len(records) - len(failed),
        "failed": sorted(set(failed)),
    }
