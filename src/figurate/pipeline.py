"""End-to-end verification pipeline producing machine-readable claim records.

``Analysis`` is the one place the paper's chain is assembled: one run
triangulates a polytope, which yields its complex and its interior (the
boundary is the rest), builds its visibility partitions from several
distinct generic points, computes all vectors and sequences, and each claim
reads those stages to emit one record. Records are plain dicts with a fixed
key order so serialized reports are byte-identical across runs with the
same configuration. A failed claim always carries its first counterexample.
"""
from __future__ import annotations

from dataclasses import KW_ONLY, dataclass
from functools import cached_property

from .lattice import FaceLattice
from .partitions import (
    GenericPoint,
    Partition,
    e_vector,
    euler_characteristic,
    f_vector,
    generic_point,
    h_from_f,
    interior_counts_from_k,
    lower_histogram,
    visibility_partitions,
)
from .sequences import (
    expand,
    face_number_sequences,
    polytope_number_from_h,
    polytope_number_simplex_sum,
)
from .triangulation import (
    Apexes,
    PointedTriangulation,
    assign_apexes,
    build_pointed_triangulation,
    link,
    pseudomanifold_certificate,
    vertex_order,
)


@dataclass(frozen=True)
class Analysis:
    """The chain for one polytope, each stage computed at most once, on first use.

    apexes from ``vertex_order`` -> verified pointed triangulation, with its
    interior -> ``points`` generic points, the only stage the seed steers,
    searched with seeds ``seed``, ``seed + 1``, ... -> the exterior and
    interior partitions of each point, read off its flag walk -> f/h/e/k
    vectors -> the sequences of every face as numerators over (1 - x)^(d+1);
    the claims expand the polytope's own to ``n_max``.
    Every option after ``lattice`` is keyword-only.
    """

    lattice: FaceLattice
    _: KW_ONLY
    seed: int = 0
    points: int = 1
    n_max: int = 15

    def __post_init__(self):
        if self.lattice.dim < 1:
            raise ValueError("the verification pipeline needs a polytope of dimension >= 1")
        if self.points < 1:
            raise ValueError("the pipeline needs at least one generic point")

    @property
    def name(self) -> str:
        return self.lattice.polytope.name

    @property
    def dim(self) -> int:
        return self.lattice.dim

    @cached_property
    def apexes(self) -> Apexes:
        return assign_apexes(self.lattice, vertex_order(self.lattice.polytope))

    @cached_property
    def tri(self) -> PointedTriangulation:
        return build_pointed_triangulation(self.lattice, self.apexes)

    @cached_property
    def generic_points(self) -> tuple[GenericPoint, ...]:
        gps: list[GenericPoint] = []
        for i in range(self.points):
            gps.append(generic_point(self.tri, seed=self.seed + i, avoid=tuple(g.x for g in gps)))
        return tuple(gps)

    @cached_property
    def partitions(self) -> tuple[tuple[Partition, Partition], ...]:
        """The verified (exterior, interior) partitions of each generic point."""
        return tuple(visibility_partitions(self.tri, gp) for gp in self.generic_points)

    @cached_property
    def f(self) -> tuple[int, ...]:
        return f_vector(self.tri.simplices, self.dim)

    @cached_property
    def h(self) -> tuple[int, ...]:
        return h_from_f(self.f)

    @cached_property
    def e(self) -> tuple[int, ...]:
        return e_vector(self.tri.interior, self.dim)

    @cached_property
    def h_parts(self) -> tuple[tuple[int, ...], ...]:
        """The h-vector of each point's exterior partition."""
        return tuple(lower_histogram(ext) for ext, _ in self.partitions)

    @cached_property
    def k_parts(self) -> tuple[tuple[int, ...], ...]:
        """The k-vector of each point's interior partition."""
        return tuple(lower_histogram(intr) for _, intr in self.partitions)

    @property
    def k(self) -> tuple[int, ...]:
        return self.k_parts[0]

    @cached_property
    def link_f(self) -> tuple[int, ...]:
        """The f-vector of the link of the polytope's apex."""
        return f_vector(link(self.tri.apex_vertex, self.tri.simplices), self.dim - 1)

    @cached_property
    def face_sequences(self) -> tuple[dict[int, tuple[int, ...]], dict[int, tuple[int, ...]]]:
        return face_number_sequences(self.lattice, self.apexes)

    @property
    def params(self) -> dict:
        return {"d": self.dim, "seed": self.seed, "n_max": self.n_max}


def _record(claim, a: Analysis, params, ok, witness=None, counterexample=None):
    rec = {"record": "claim", "claim": claim, "polytope": a.name, "params": params, "pass": bool(ok)}
    if ok and witness is not None:
        rec["witness"] = witness
    if not ok:
        rec["counterexample"] = counterexample if counterexample is not None else {}
    return rec


def _pointed(a: Analysis) -> dict:
    # build_pointed_triangulation raises on any violated condition, which
    # becomes a failed pipeline-stage record; a triangulation that exists is
    # pointed
    tri = a.tri
    return _record(
        "pointed-triangulation", a, a.params, True,
        witness={"apex_vertex": tri.apex_vertex, "maximal_simplices": len(tri.maximal)},
    )


def _pure_complex(a: Analysis) -> dict:
    closed = a.tri.closed
    pure = all(s.bit_count() == a.dim + 1 for s in a.tri.maximal)
    return _record(
        "pure-simplicial-complex", a, a.params, closed and pure,
        witness={"simplices": len(a.tri.simplices)},
        counterexample={"closed_under_subsets": closed, "pure": pure},
    )


def _pseudomanifold(a: Analysis) -> dict:
    ok, detail = pseudomanifold_certificate(a.tri)
    return _record(
        "pseudomanifold-boundary", a, a.params, ok,
        witness={"boundary": len(a.tri.simplices) - len(a.tri.interior), "interior": len(a.tri.interior)},
        counterexample={"detail": detail},
    )


def _euler(a: Analysis) -> dict:
    # the boundary's f-vector is f less the interior's counts, e; the interior
    # holds no empty simplex
    boundary = [fi - ei for fi, ei in zip(a.f, (0, *a.e))]
    if boundary[-1]:
        raise RuntimeError(f"boundary simplices with {a.dim + 1} vertices: {boundary[-1]}")
    chi = {
        "complex": euler_characteristic(a.f),
        "link": euler_characteristic(a.link_f),
        "boundary": euler_characteristic(tuple(boundary[:-1])),
    }
    expected = {"complex": 1, "link": 1, "boundary": 1 + (-1) ** (a.dim - 1)}
    return _record("euler-characteristic", a, a.params, chi == expected, witness=expected, counterexample=chi)


def _covers(a: Analysis, i: int) -> list[dict]:
    # visibility_partitions raises unless both partitions cover their targets
    # exactly once, the interior one without a boundary simplex, so once the
    # partitions exist both claims hold
    ext, intr = a.partitions[i]
    params = dict(a.params, point=i)
    return [
        _record(
            "exterior-partition-cover", a, params, True,
            witness={"intervals": len(ext.intervals), "covered": len(a.tri.simplices)},
        ),
        _record(
            "interior-partition-cover", a, params, True,
            witness={"intervals": len(intr.intervals), "covered": len(a.tri.interior)},
        ),
    ]


def _h_matches_f(a: Analysis, i: int) -> dict:
    hp = a.h_parts[i]
    return _record(
        "h-from-partition-matches-f", a, dict(a.params, point=i), hp == a.h,
        witness={"h": list(a.h)},
        counterexample={"from_partition": list(hp), "from_f": list(a.h)},
    )


def _k_reverses_h(a: Analysis, i: int) -> dict:
    kp = a.k_parts[i]
    return _record(
        "k-reverses-h", a, dict(a.params, point=i), kp == tuple(reversed(a.h)),
        witness={"k": list(kp)},
        counterexample={"k": list(kp), "h": list(a.h)},
    )


def _partition_invariance(a: Analysis) -> dict:
    return _record(
        "partition-invariance", a, dict(a.params, points=a.points),
        len(set(a.h_parts)) == 1 and len(set(a.k_parts)) == 1,
        witness={"points": a.points},
        counterexample={"h_variants": [list(x) for x in sorted(set(a.h_parts))]},
    )


def _h_top_vanishes(a: Analysis) -> dict:
    h, d = a.h, a.dim
    return _record(
        "h-top-vanishes", a, a.params, h[d] == 0 and h[d + 1] == 0,
        witness={"h": list(h)},
        counterexample={"h": list(h)},
    )


def _link_h(a: Analysis) -> dict:
    hlink = h_from_f(a.link_f)
    return _record(
        "link-h-equality", a, a.params, all(a.h[i] == hlink[i] for i in range(a.dim)),
        witness={"h_link": list(hlink)},
        counterexample={"h": list(a.h), "h_link": list(hlink)},
    )


def _e_from_k(a: Analysis) -> dict:
    from_k = interior_counts_from_k(a.k)
    return _record(
        "e-vector-from-k", a, a.params, a.e == from_k,
        witness={"e": list(a.e)},
        counterexample={"e": list(a.e), "from_k": list(from_k)},
    )


def _sequence_three_way(a: Analysis) -> dict:
    n_max, d, h = a.n_max, a.dim, a.h
    rec = expand(a.face_sequences[0][a.lattice.top], d + 1, n_max)
    ssum = polytope_number_simplex_sum(a.tri, n_max).values
    from_h = polytope_number_from_h(h, n_max)
    mism = next((n for n in range(n_max + 1) if not rec[n] == ssum[n] == from_h[n]), None)
    return _record(
        "sequence-three-way", a, a.params, mism is None,
        witness={"h": list(h), "values": list(rec)},
        counterexample=None if mism is None else {
            "n": mism, "recursive": rec[mism], "simplex_sum": ssum[mism], "from_h": from_h[mism],
        },
    )


def _interior_four_way(a: Analysis) -> dict:
    n_max, d, h, k = a.n_max, a.dim, a.h, a.k
    rec = expand(a.face_sequences[1][a.lattice.top], d + 1, n_max)
    ssum = polytope_number_simplex_sum(a.tri, n_max, interior=True).values
    from_k = polytope_number_from_h(k, n_max)
    from_hr = polytope_number_from_h(h[::-1], n_max)
    mism = next(
        (n for n in range(n_max + 1) if not rec[n] == ssum[n] == from_k[n] == from_hr[n]), None
    )
    return _record(
        "interior-four-way", a, a.params, mism is None,
        witness={"k": list(k), "values": list(rec)},
        counterexample=None if mism is None else {
            "n": mism,
            "recursive": rec[mism],
            "simplex_sum": ssum[mism],
            "from_k": from_k[mism],
            "from_h_reversed": from_hr[mism],
        },
    )


def vector_claims(a: Analysis) -> list[dict]:
    """The vector cross-checks at the first point: h from the partition equals
    h from f, k is h reversed, and e follows from k."""
    return [_h_matches_f(a, 0), _k_reverses_h(a, 0), _e_from_k(a)]


def run_pipeline(lattice: FaceLattice, *, seed: int = 0, n_max: int = 15, points: int = 3) -> list[dict]:
    """Run every verification claim for one polytope; returns claim records."""
    a = Analysis(lattice, seed=seed, points=points, n_max=n_max)
    records = [_pointed(a), _pure_complex(a), _pseudomanifold(a), _euler(a)]
    for i in range(points):
        records += _covers(a, i) + [_h_matches_f(a, i), _k_reverses_h(a, i)]
    records += [_partition_invariance(a), _h_top_vanishes(a), _link_h(a), _e_from_k(a)]
    return records + [_sequence_three_way(a), _interior_four_way(a)]


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
