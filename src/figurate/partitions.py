"""Visibility partitions of a pointed triangulation and the vector calculus.

From a generic interior point x, every maximal simplex F has an exterior
lower set G_F, the vertices opposite the facets of F visible from x, and an
interior lower set D_F = F - G_F. The intervals [G_F, F] partition the whole
complex, and the intervals [D_F, F] partition exactly the interior
simplices, the triangulation's ``interior``. Histograms of |G_F| and |D_F|
give the h- and k-vectors, cross-checkable against the binomial transform of
the f-vector.

A facet of F is visible from x exactly when x's barycentric coordinate at
the opposite vertex is negative, which is ray casting for simplices without
leaving exact arithmetic. One flag walk of the triangulation
(``triangulation.exterior_lower_sets``) reads the signs of every maximal
simplex's coordinates at once, and raises where one is zero, that is where x
lies on a ridge plane. So the walk is the generic-point search's genericity
test, and a generic point's certificate is its G_F in ``maximal`` order: in
a pure complex every simplex with at most d vertices lies in a ridge, so a
point off every ridge plane is off every lower affine hull as well. Both
partitions are read off the certificate. Simplices are the triangulation's
``int`` vertex masks, and an interval is a pair of them.
"""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from operator import mul
from typing import Iterable

from .geometry import Point
from .lattice import pick, vertex_list
from .triangulation import Complex, GenericityError, PointedTriangulation, Simplex, exterior_lower_sets


@dataclass(frozen=True)
class GenericPoint:
    """An interior point off every ridge plane of the triangulation.

    ``certificate`` holds the exterior lower set G_F of each maximal simplex
    F, in ``maximal`` order, that the flag walk read at the point.
    """

    x: Point
    certificate: tuple[Simplex, ...]


@dataclass(frozen=True)
class Interval:
    """The simplices G with lower <= G <= upper."""

    lower: Simplex
    upper: Simplex


@dataclass(frozen=True)
class PartitionCertificate:
    """Simplices covered never, more than once, or outside the target, as sorted vertex lists."""

    ok: bool
    uncovered: tuple[list[int], ...] = ()
    multiply_covered: tuple[list[int], ...] = ()
    foreign: tuple[list[int], ...] = ()


@dataclass(frozen=True)
class Partition:
    """Intervals that cover their target exactly once; only
    ``visibility_partitions`` builds one, after it verifies."""

    intervals: tuple[Interval, ...]


def generic_point(
    tri: PointedTriangulation, seed: int = 0, avoid: tuple[Point, ...] = ()
) -> GenericPoint:
    """Deterministic search for a generic interior point.

    Starts from the barycenter of the first maximal simplex and, while the
    candidate lies on a ridge hyperplane (or collides with a point in
    ``avoid``), retries with seeded random barycentric weights of growing
    size. The flag walk of ``exterior_lower_sets`` is the genericity test: it
    raises exactly when the point lies on a ridge plane, and every other
    simplex with at most d vertices lies inside a ridge. Each candidate is
    sum w_i (L / D_i) v_i over the corners' rows v_i = (D_i, D_i p_i) of
    ``Polytope.hv``, L the lcm of the D_i, so it lies strictly inside one
    maximal simplex, hence inside the polytope. After 64 failed candidates
    it raises ``RuntimeError``.
    """
    corners = pick(tri.maximal[0], tri.lattice.polytope.hv)
    den = lcm(*(c[0] for c in corners))
    columns = list(zip(*([den // c[0] * e for e in c] for c in corners)))
    rng = random.Random(seed)
    bound = 8
    weights = [1] * len(corners)
    for _ in range(64):
        hx = [sum(map(mul, weights, col)) for col in columns]
        x = tuple(Fraction(e, hx[0]) for e in hx[1:])
        if x not in avoid:
            try:
                return GenericPoint(x, exterior_lower_sets(tri, hx))
            except GenericityError:
                pass
        weights = [rng.randint(1, bound) for _ in corners]
        bound *= 2
    raise RuntimeError("could not find a generic point")


def visibility_partitions(tri: PointedTriangulation, gp: GenericPoint) -> tuple[Partition, Partition]:
    """The exterior and interior partitions of a generic point, [G_F, F] and
    [F - G_F, F] from its certificate. Each partition is verified against its
    target, the triangulation's whole complex and its interior, and a failure
    raises.
    """
    exterior = [Interval(g, f) for f, g in zip(tri.maximal, gp.certificate)]
    interior = [Interval(f ^ g, f) for f, g in zip(tri.maximal, gp.certificate)]
    return _verified("exterior", exterior, tri.simplices), _verified("interior", interior, tri.interior)


def _verified(kind: str, intervals: list[Interval], target: Complex) -> Partition:
    cert = verify_partition(intervals, target)
    if not cert.ok:
        raise RuntimeError(f"{kind} intervals failed to partition their target: {cert}")
    return Partition(tuple(intervals))


def verify_partition(intervals: Iterable[Interval], target: Complex) -> PartitionCertificate:
    """Target covered exactly once, nothing foreign.

    An interval's members lower | sub are walked by sub = (sub - 1) & free
    from free = upper & ~lower down to 0, into one list. The cover is exact
    iff the list's length, the number of distinct members and the target's
    size agree and the members lie in the target. Only when that fails are
    the members counted one by one, to name the simplices covered never,
    more than once or outside the target.
    """
    members: list[Simplex] = []
    for iv in intervals:
        free = sub = iv.upper & ~iv.lower
        while True:
            members.append(iv.lower | sub)
            if not sub:
                break
            sub = (sub - 1) & free
    distinct = set(members)
    if len(members) == len(distinct) == len(target) and distinct <= target:
        return PartitionCertificate(True)
    covered, multiple, foreign = set(), set(), []
    for member in members:
        if member not in target:
            foreign.append(member)
        elif member in covered:
            multiple.add(member)
        else:
            covered.add(member)
    uncovered = [s for s in target if s not in covered]
    return PartitionCertificate(
        not (uncovered or multiple or foreign), _readout(uncovered), _readout(multiple), _readout(foreign)
    )


def _readout(simplices) -> tuple[list[int], ...]:
    return tuple(sorted(map(vertex_list, simplices), key=lambda vs: (len(vs), vs)))


# ---------------------------------------------------------------------------
# Face-count vectors.

def f_vector(complex_: Iterable[Simplex], dim: int) -> tuple[int, ...]:
    """(f_{-1}, f_0, ..., f_dim); f_{-1} is 1 exactly when the empty simplex is present."""
    counts = [0] * (dim + 2)
    for size, n in Counter(map(int.bit_count, complex_)).items():
        counts[size] += n
    return tuple(counts)


def e_vector(interior: Complex, dim: int) -> tuple[int, ...]:
    """(e_0, ..., e_dim) for an interior complex, which never holds the empty simplex."""
    if 0 in interior:
        raise RuntimeError("an interior complex cannot contain the empty simplex")
    return f_vector(interior, dim)[1:]


def h_from_f(f: tuple[int, ...]) -> tuple[int, ...]:
    """Binomial transform of the f-vector (f_{-1}, ..., f_dim); h_k for k in 0..dim+1.

    h_k = sum_{i=0..k} (-1)^(k-i) C(dim+1-i, k-i) f_{i-1}, the convention
    inverse to f_i = sum_j h_j C(dim+1-j, i+1-j).
    """
    dim = len(f) - 2
    return tuple(
        sum((-1) ** (k - i) * comb(dim + 1 - i, k - i) * f[i] for i in range(k + 1))
        for k in range(dim + 2)
    )


def lower_histogram(partition: Partition) -> tuple[int, ...]:
    """The number of intervals per lower-set size: h from an exterior
    partition, k from an interior one."""
    hist = [0] * (partition.intervals[0].upper.bit_count() + 1)
    for iv in partition.intervals:
        hist[iv.lower.bit_count()] += 1
    return tuple(hist)


def euler_characteristic(f: tuple[int, ...]) -> int:
    """Alternating sum of the face counts over dimensions 0 and up."""
    return sum((-1) ** j * fj for j, fj in enumerate(f[1:]))


def interior_counts_from_k(k: tuple[int, ...]) -> tuple[int, ...]:
    """e_i = sum_{j<=i+1} k_j C(dim+1-j, i+1-j), dim = len(k) - 2: interval
    sizes sorted by dimension."""
    dim = len(k) - 2
    return tuple(
        sum(k[j] * comb(dim + 1 - j, i + 1 - j) for j in range(i + 2))
        for i in range(dim + 1)
    )
