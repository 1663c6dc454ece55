"""Acceptance suite: one test per criterion, exact integer equality throughout.

Each test prints a single PASS/FAIL line (visible under ``pytest -s``) and
then asserts, so the suite both reports and gates. The polytope family is
simplex/cube/cross in dimensions 1..5 plus pyramid(square), prism(triangle)
and bipyramid(square), with three distinct generic points per polytope.
"""
from itertools import product
from math import comb

from figurate.partitions import (
    f_vector,
    h_from_f,
    lower_histogram,
    verify_partition,
)
from figurate.pipeline import run_pipeline
from figurate.sequences import (
    polytope_number_from_h,
    polytope_number_recursive,
    polytope_number_simplex_sum,
)
from figurate.triangulation import link, pseudomanifold_certificate
from oracles import (
    alpha_difference_check,
    eulerian_number,
    facet_cut_check,
    interval_members,
    measure_number,
    to_mask,
    vandermonde_check,
    vertex_set,
)

N_RANGE = range(0, 16)


def _report(number, label, violations):
    status = "PASS" if not violations else "FAIL"
    print(f"criterion {number} [{label}]: {status}")
    assert not violations, violations[:5]


def test_criterion_1_three_way_sequence_agreement(family):
    violations = []
    for b in family.values():
        rec = polytope_number_recursive(b.lattice, b.apexes, max(N_RANGE)).values
        ssum = polytope_number_simplex_sum(b.tri, max(N_RANGE)).values
        fromh = polytope_number_from_h(b.h, max(N_RANGE))
        for n in N_RANGE:
            if not rec[n] == ssum[n] == fromh[n]:
                violations.append((b.name, n, rec[n], ssum[n], fromh[n]))
    _report(1, "three-way sequence agreement, n in [0,15]", violations)


def test_criterion_2_interior_four_way_agreement(family):
    violations = []
    for b in family.values():
        k = lower_histogram(b.partitions[0][1])
        rec = polytope_number_recursive(b.lattice, b.apexes, max(N_RANGE), interior=True).values
        ssum = polytope_number_simplex_sum(b.tri, max(N_RANGE), interior=True).values
        fromk = polytope_number_from_h(k, max(N_RANGE))
        fromh = polytope_number_from_h(b.h[::-1], max(N_RANGE))
        for n in N_RANGE:
            if not rec[n] == ssum[n] == fromk[n] == fromh[n]:
                violations.append((b.name, n, rec[n], ssum[n], fromk[n], fromh[n]))
    # independent grid-count oracle for the interior of the 3-cube
    b3 = family["cube:3"]
    rec3 = polytope_number_recursive(b3.lattice, b3.apexes, max(N_RANGE), interior=True).values
    for n in range(2, 16):
        grid = sum(1 for _ in product(range(1, n - 1), repeat=3))
        assert grid == (n - 2) ** 3
        if rec3[n] != grid:
            violations.append(("cube:3 grid", n, rec3[n], grid))
    _report(2, "interior four-way agreement + cube grid oracle", violations)


def test_criterion_3_closed_form_h_vectors(family):
    violations = []
    for d in range(1, 5):
        hc = family[f"cube:{d}"].h
        expected = tuple(eulerian_number(d, i) for i in range(d)) + (0, 0)
        if hc != expected:
            violations.append((f"cube:{d}", hc, expected))
        hx = family[f"cross:{d}"].h
        expected = tuple(comb(d - 1, i) for i in range(d)) + (0, 0)
        if hx != expected:
            violations.append((f"cross:{d}", hx, expected))
    for d in range(1, 7):
        for n in range(1, 21):
            if measure_number(d, n) != n**d:
                violations.append(("measure", d, n))
    _report(3, "cube/cross h-vectors are Eulerian/binomial rows; gamma = n^d", violations)


def test_criterion_4_partition_h_matches_transform(family):
    violations = []
    for b in family.values():
        assert len({gp.x for gp in b.generic_points}) == 3, b.name
        for i, (part, _) in enumerate(b.partitions):
            hp = lower_histogram(part)
            if hp != b.h:
                violations.append((b.name, i, hp, b.h))
    _report(4, "h from partition == h from f, 3 generic points each", violations)


def test_criterion_5_k_reverses_h(family):
    violations = []
    for b in family.values():
        for i, (_, part) in enumerate(b.partitions):
            k = lower_histogram(part)
            if k != tuple(reversed(b.h)):
                violations.append((b.name, i, k, b.h))
    _report(5, "k_i == h_{d+1-i} entrywise", violations)


def test_criterion_6_h_top_zero_and_link_equality(family):
    violations = []
    for b in family.values():
        d = b.dim
        if b.h[d] != 0 or b.h[d + 1] != 0:
            violations.append((b.name, "top", b.h))
        lk = link(b.tri.apex_vertex, b.tri.simplices)
        hlink = h_from_f(f_vector(lk, d - 1))
        if b.h[:d] != hlink[:d]:
            violations.append((b.name, "link", b.h, hlink))
    _report(6, "h_d = h_{d+1} = 0 and h(C_P) == h(link) below d", violations)


def test_criterion_7_partition_certificates(family):
    violations = []
    for b in family.values():
        whole = set(b.tri.simplices)
        interior = set(b.tri.interior)
        boundary = b.tri.simplices - b.tri.interior
        for i, (ext, part) in enumerate(b.partitions):
            cert = verify_partition(ext.intervals, whole)
            if not cert.ok:
                violations.append((b.name, "exterior", i, cert))
            cert = verify_partition(part.intervals, interior)
            if not cert.ok:
                violations.append((b.name, "interior", i, cert))
            touched = {
                to_mask(m) for iv in part.intervals
                for m in interval_members(vertex_set(iv.lower), vertex_set(iv.upper))
            }
            if touched & boundary:
                violations.append((b.name, "interior-touches-boundary", i))
    _report(7, "partition certificates: exact covers, boundary untouched", violations)


def test_criterion_8_identity_sweeps():
    violations = []
    for d in range(1, 9):
        for n in range(0, 31):
            if not alpha_difference_check(d, n):
                violations.append(("difference", d, n))
            for k in range(0, min(n, d + 1) + 1):
                if not facet_cut_check(d, n, k):
                    violations.append(("facet-cut", d, n, k))
    for d in range(1, 7):
        for j in range(0, d + 2):
            for n in [0] + list(range(2, 21)):
                if not vandermonde_check(d, j, n):
                    violations.append(("vandermonde", d, j, n))
    _report(8, "facet-cut, difference, and binomial-convolution sweeps", violations)


def test_criterion_9_pseudomanifold_and_determinism(family):
    violations = []
    for b in family.values():
        ok, detail = pseudomanifold_certificate(b.tri)
        if not ok:
            violations.append((b.name, detail))
    import json

    def report(seed):
        lines = []
        for spec in ("cube:3", "cross:3"):
            recs = run_pipeline(family[spec].lattice, seed=seed, n_max=10)
            lines.extend(json.dumps(r, separators=(",", ":")) for r in recs)
        return "\n".join(lines)

    for seed in (0, 5):
        if report(seed) != report(seed):
            violations.append(("determinism", seed))
    _report(9, "pseudomanifold boundary check + byte-identical reruns", violations)
