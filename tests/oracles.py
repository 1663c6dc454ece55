"""Independent reference implementations that the tests check the package against.

``reference_rref`` is Gauss-Jordan elimination over ``Fraction``, the
reference for the package's fraction-free integer kernel; the other oracles
here use it rather than the kernel they check. ``reference_hyperplane_through``
is the canonical hyperplane computed from a rational nullspace, a
``Hyperplane`` of rational normal and offset, and ``side_of_hyperplane`` its
side test over ``Fraction``. ``reference_hull_coordinates`` picks a basis of
the hull's directions one rank test at a time and solves one system per
point, the reference for the one elimination of ``geometry.hull_coordinates``.

``segment_first_hit`` classifies a ray against a simplex by solving for the
hit directly, so it is an oracle for the visibility the flag walk reads.
``full_scan_generic_point`` is the generic-point search that checks the
affine hull of every simplex with at most d vertices, an oracle for the
search whose genericity test is the walk.

``reference_face_number_sequences`` is the recursion for the sequences of
every face evaluated term by term, one n at a time, the reference for the
column sums in ``figurate.sequences``. ``pairwise_apex_conflict`` checks
pointedness condition 2 over every pair of faces, and
``reference_condition_2`` over every face-subface pair by subface ids: the
references for the one mask test per face in ``verify_pointed``.
``reference_vertex_order`` ranks the vertices by the functional
(1, M', M'^2, ...), M' = 1 + L * spread with L the lcm of the denominators,
evaluated by ``evaluate_functional``: the reference for the tie-break of
``vertex_order``. ``fraction_vertex_order`` is ``vertex_order`` on the
``Fraction`` coordinates, the reference for its reading on the integer rows
of ``Polytope.hv``. ``reference_assign_apexes`` takes each apex by a ``min``
over the face's vertices by rank, the reference for the one pass down the
ranking in ``assign_apexes``.

``reference_pointed_complexes`` builds the chains and the per-face complexes
of a pointed triangulation by ``frozenset`` unions, the reference for the
construction on vertex masks in ``build_pointed_triangulation``, which keeps
only the polytope's complex; ``frozen`` and ``vertex_set`` turn the
package's masks into those vertex sets, and ``to_mask`` turns a vertex set
back. ``maximal_simplices`` scans every simplex against every vertex of the
complex, the reference for the flags' apex sets in ``tri.maximal``;
``reference_condition_1`` runs it on the complex of every face in
a per-face dict, the reference for the check of pointedness condition 1
(one superset test, then a scan only to name the smallest violating
simplex). ``is_simplicial_complex`` tests closure under
subsets one vertex set at a time, the reference for ``tri.closed`` and for
the facet lookups of its fallback scan.

``ridge_planes`` builds the ridge-plane table of every maximal simplex, one
``integer_planes_opposite`` elimination per simplex (on the package's
kernel ``_rref``), and
``side_test_lower_sets`` reads a point's exterior lower sets off it by one
side test per facet: the reference for the flag walk of
``triangulation.exterior_lower_sets``. ``reference_ridge_planes`` builds the
same table with one ``integer_plane_through`` per distinct ridge (that
kernel is checked against ``reference_hyperplane_through`` in
``test_geometry.py``).
``interval_members`` walks an interval by ``combinations`` and
``reference_verify_partition`` counts every member in a dict of vertex
sets, the reference for the submask walk of ``verify_partition``.

``reference_split`` tests every simplex against every facet's vertex mask,
the reference for the interior that ``build_pointed_triangulation`` reads
off what the polytope itself carries, and for the boundary left over.
``unverified_triangulation`` is the polytope's complex of
``reference_pointed_complexes`` on vertex masks, with its interior from
``reference_split`` and no pointedness check, for tests that inspect a
triangulation on lattices the package rejects.
``pointedness_violation`` runs one of the package's pointedness checks and
reads the condition and detail off the ``GenericityError`` it raises, for
comparison with ``reference_condition_1`` and ``reference_condition_2``.
``integer_plane`` converts a ``Hyperplane`` to the integer vector of
``geometry.integer_plane_through``, and ``f_from_h`` is the inverse of the
f-to-h transform.

``brute_force_facets`` tests a plane through every ``dim`` of the points
against all of them, the reference for the gift-wrapping hull search.

``simplex_number`` and ``simplex_interior`` evaluate the simplex numbers one
``comb`` per term, and ``reference_from_h`` the sum of v_j alpha^d(n - j) one
n at a time: the references for the simplex-number columns of the closed
form and the simplex sums in ``figurate.sequences``.

``eulerian_number``, ``measure_number`` and ``cross_number`` are the closed
forms of the cube and cross-polytope sequences; ``facet_cut_check``,
``vandermonde_check`` and ``alpha_difference_check`` are the simplex-number
identities behind the paper's sums.

``reference_face_lattice`` is the original lattice construction: pairwise
intersection closure of ``frozenset`` vertex sets, one rank per face for its
dimension, and a pairwise scan for subfaces and maximal proper subfaces. It
is the reference for the closure on masks, the grading and the covers (as
ascending id tuples) of ``FaceLattice``, and it builds a lattice from any sets, face lattice or not.
Only its result is on masks: ``faces`` and ``dims`` by face id, like the package's.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb, gcd, lcm
from operator import mul
from typing import Sequence

from figurate.geometry import (
    GeometryError,
    Point,
    _rref,
    canonical_plane,
    homogenize,
    integer_plane_through,
    integer_side,
    point,
)
from figurate.lattice import FaceLattice, Polytope, pick, vertex_list
from figurate.partitions import PartitionCertificate
from figurate.triangulation import Apexes, GenericityError, PointedTriangulation, _verify_face

Simplex = frozenset[int]
Complex = frozenset[Simplex]


def vertex_set(s: int) -> Simplex:
    """The vertex set of a vertex mask."""
    return frozenset(vertex_list(s))


def to_mask(vertices) -> int:
    return sum(1 << v for v in vertices)


def frozen(complex_) -> Complex:
    """A complex of vertex masks as a set of vertex sets."""
    return frozenset(map(vertex_set, complex_))


def vsub(a: Point, b: Point) -> Point:
    return tuple(x - y for x, y in zip(a, b))


def vdot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


@dataclass(frozen=True)
class Hyperplane:
    """Locus normal . x = offset, with a nonzero normal vector."""

    normal: Point
    offset: Fraction

    def __post_init__(self):
        if not any(self.normal):
            raise GeometryError("hyperplane normal must be nonzero")


def side_of_hyperplane(h: Hyperplane, p: Point) -> int:
    """Sign of (normal . p - offset): -1, 0 or +1, computed over Fraction."""
    if len(h.normal) != len(p):
        raise GeometryError(f"hyperplane in dimension {len(h.normal)} tested against point of length {len(p)}")
    v = vdot(h.normal, p) - h.offset
    return (v > 0) - (v < 0)


def reference_rref(rows: list[list[Fraction]]) -> tuple[int, list[int], list[list[Fraction]]]:
    """Reduced row echelon form in place; returns (rank, pivot columns, rows)."""
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return r, pivots, rows


def reference_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return reference_rref([[Fraction(x) for x in r] for r in rows])[0]


def reference_solve_linear(
    a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> tuple[list[Fraction], list[list[Fraction]]] | None:
    """Solve A x = b: (particular solution, nullspace basis), or None if inconsistent."""
    n = len(a[0]) if a else 0
    aug = [[Fraction(x) for x in row] + [Fraction(rhs)] for row, rhs in zip(a, b)]
    rank, pivots, rows = reference_rref(aug)
    if n in pivots:
        return None
    sol = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        sol[c] = rows[r][n]
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -rows[r][f]
        basis.append(v)
    return sol, basis


def reference_hull_coordinates(pts: list[Point]) -> tuple[list[Point], int]:
    """The points in coordinates for their affine hull, and its dimension.

    The basis is chosen greedily, each difference p - p0 tested for rank in
    turn, and each point's coordinates solve a linear system of their own.
    """
    p0 = pts[0]
    diffs = [vsub(p, p0) for p in pts]
    rank = reference_rank(diffs)
    ambient = len(p0)
    if rank == ambient:
        return pts, rank
    basis: list[Point] = []
    for dvec in diffs:
        if len(basis) == rank:
            break
        if reference_rank(basis + [dvec]) > len(basis):
            basis.append(dvec)
    if not basis:
        return [() for _ in pts], 0
    cols = [[b[j] for b in basis] for j in range(ambient)]
    return [tuple(reference_solve_linear(cols, list(vsub(p, p0)))[0]) for p in pts], rank


def affinely_independent(points: Sequence[Point]) -> bool:
    p0 = points[0]
    return reference_rank([vsub(p, p0) for p in points[1:]]) == len(points) - 1


def reference_hull_contains(points: Sequence[Point], q: Point) -> bool:
    p0 = points[0]
    diffs = [vsub(p, p0) for p in points[1:]]
    return reference_rank(diffs + [vsub(q, p0)]) == reference_rank(diffs)


def reference_hyperplane_through(points: Sequence[Point]) -> Hyperplane:
    """The canonical hyperplane through the points from their rational nullspace.

    The normal is primitive integer with a positive first nonzero entry;
    raises GeometryError when the points span no hyperplane.
    """
    n = len(points[0])
    p0 = points[0]
    diffs = [vsub(p, p0) for p in points[1:]]
    if diffs:
        kernel = reference_solve_linear(diffs, [Fraction(0)] * len(diffs))[1]
    else:
        kernel = [[Fraction(int(j == i)) for j in range(n)] for i in range(n)]
    if len(kernel) != 1:
        raise GeometryError(f"points span affine dimension {n - len(kernel)}, expected {n - 1}")
    den = 1
    for x in kernel[0]:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in kernel[0]]
    g = gcd(*ints)
    lead = next(x for x in ints if x)
    normal = tuple(Fraction(x // g if lead > 0 else -x // g) for x in ints)
    return Hyperplane(normal, vdot(normal, p0))


def brute_force_facets(p: Polytope) -> list[tuple[tuple[int, ...], int]]:
    """The facets of a full-dimensional polytope by brute force.

    Every hyperplane through ``dim`` of the points is kept iff all points lie
    weakly on one side of it, with the points on it as its set: C(n, d)
    candidate planes, each tested against all n points. The reference for
    the gift-wrapping ``enumerate_facets``, in its output form of
    (plane, vertex mask) sorted by vertices.
    """
    seen: dict[Hyperplane, frozenset[int] | None] = {}
    for combo in combinations(p.vertices, p.dim):
        try:
            h = reference_hyperplane_through(combo)
        except GeometryError:
            continue
        if h in seen:
            continue
        values = [vdot(h.normal, v) - h.offset for v in p.vertices]
        keep = min(values) >= 0 or max(values) <= 0
        seen[h] = frozenset(i for i, x in enumerate(values) if not x) if keep else None
    found = sorted((sorted(vs), integer_plane(h)) for h, vs in seen.items() if vs is not None)
    return [(plane, to_mask(vs)) for vs, plane in found]


def f_from_h(h: tuple[int, ...], dim: int) -> tuple[int, ...]:
    """f_i = sum_j h_j C(dim+1-j, i+1-j): the inverse of ``partitions.h_from_f``."""
    return tuple(
        sum(h[j] * comb(dim + 1 - j, ii - j) for j in range(ii + 1))
        for ii in range(dim + 2)
    )


def integer_plane(h: Hyperplane) -> tuple[int, ...]:
    """(-L offset, L normal_1, ..., L normal_n), L the lcm of all their denominators."""
    return homogenize((-h.offset,) + h.normal)[1:]


BEFORE_Y = "before_y"
AT_OR_AFTER_Y = "at_or_after_y"
MISSES = "misses"


def segment_first_hit(x: Point, y: Point, simplex: Sequence[Point]) -> str:
    """Classify the first meeting of the ray from x through y with a closed simplex.

    The ray is p(t) = x + t (y - x) for t >= 0, with y at t = 1. Returns
    BEFORE_Y when the first hit has t < 1, AT_OR_AFTER_Y when t >= 1, and
    MISSES when the ray never meets the simplex. All arithmetic is exact; the
    simplex vertices must be affinely independent.
    """
    if x == y:
        raise GeometryError("ray through coincident points is undefined")
    pts = [point(p) for p in simplex]
    if not affinely_independent(pts):
        raise GeometryError("degenerate simplex")
    d = len(x)
    k = len(pts)
    u = vsub(y, x)
    # Unknowns: barycentric weights l_0..l_{k-1}, then t.
    rows = [[pts[i][j] for i in range(k)] + [-u[j]] for j in range(d)]
    rows.append([Fraction(1)] * k + [Fraction(0)])
    rhs = list(x) + [Fraction(1)]
    sol = reference_solve_linear(rows, rhs)
    if sol is None:
        return MISSES
    base, basis = sol
    if not basis:
        lams, t = base[:k], base[k]
        if t >= 0 and all(l >= 0 for l in lams):
            return BEFORE_Y if t < 1 else AT_OR_AFTER_Y
        return MISSES
    # One-parameter family: the ray lies inside the simplex's affine hull.
    # Constraints l_i(s) >= 0 and t(s) >= 0 cut out an interval in s.
    direction = basis[0]
    lo: Fraction | None = None
    hi: Fraction | None = None
    for i in range(k + 1):
        a, b = base[i], direction[i]
        if b == 0:
            if a < 0:
                return MISSES
        else:
            bound = -a / b
            if b > 0:
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = bound if hi is None else min(hi, bound)
    if lo is not None and hi is not None and lo > hi:
        return MISSES
    t0, tdir = base[k], direction[k]
    if tdir == 0:
        t_min = t0
    elif tdir > 0:
        assert lo is not None  # t >= 0 bounds s from below
        t_min = t0 + tdir * lo
    else:
        assert hi is not None
        t_min = t0 + tdir * hi
    return BEFORE_Y if t_min < 1 else AT_OR_AFTER_Y


def full_scan_generic_point(
    tri: PointedTriangulation, seed: int = 0, avoid: tuple[Point, ...] = ()
) -> Point:
    """The point of the generic-point search with one exact hull membership
    test per simplex."""
    verts = tri.lattice.polytope.vertices
    targets = sorted(
        (s for s in frozen(tri.simplices) if s and len(s) <= tri.dim),
        key=lambda s: (len(s), tuple(sorted(s))),
    )
    target_points = [[verts[i] for i in sorted(s)] for s in targets]
    corners = [verts[i] for i in vertex_list(tri.maximal[0])]
    rng = random.Random(seed)
    bound = 8
    weights = [1] * len(corners)
    for _ in range(64):
        total = Fraction(sum(weights))
        x = tuple(
            sum((w * p[j] for w, p in zip(weights, corners)), Fraction(0)) / total
            for j in range(len(corners[0]))
        )
        if x not in avoid and not any(reference_hull_contains(pts, x) for pts in target_points):
            return x
        weights = [rng.randint(1, bound) for _ in corners]
        bound *= 2
    raise RuntimeError("could not find a generic point")


def reference_face_number_sequences(
    lattice: FaceLattice, apexes: Apexes, n_max: int
) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
    """Sequences and interior sequences of every nonempty face, one n at a time."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    ext: dict[int, list[int]] = {}
    intr: dict[int, list[int]] = {}
    for fid in range(1, len(lattice)):
        if lattice.dims[fid] == 0:
            seq = [0] + [1] * n_max
            ext[fid] = seq
            intr[fid] = list(seq)
            continue
        sub = pick(lattice.below[fid] & ~1, range(len(lattice)))
        apex = apexes[fid]
        away = [g for g in sub if apex not in vertex_set(lattice.faces[g])]
        e = [0] * (n_max + 1)
        it = [0] * (n_max + 1)
        if n_max >= 1:
            e[1] = 1
        for n in range(2, n_max + 1):
            e[n] = e[n - 1] + sum(intr[g][n] for g in away)
            it[n] = e[n] - sum(intr[g][n] for g in sub)
        ext[fid] = e
        intr[fid] = it
    return ext, intr


def pairwise_apex_conflict(lattice: FaceLattice, apex: Apexes) -> tuple[int, int] | None:
    """The first pair of face ids whose apexes differ and both lie in the
    intersection of the two faces, or None (pointedness condition 2)."""
    for f1, f2 in combinations(range(1, len(lattice)), 2):
        shared = vertex_set(lattice.faces[f1]) & vertex_set(lattice.faces[f2])
        v1, v2 = apex[f1], apex[f2]
        if v1 in shared and v2 in shared and v1 != v2:
            return f1, f2
    return None


def reference_condition_2(lattice: FaceLattice, apex: Apexes) -> str | None:
    """The nested-pair scan of pointedness condition 2 over each face's
    subface ids: the detail of the first face, and its first subface, whose
    apexes differ while the subface holds the face's apex; or None."""
    for fid in range(1, len(lattice)):
        v = apex[fid]
        f = vertex_set(lattice.faces[fid])
        for gid in pick(lattice.below[fid] & ~1, range(len(lattice))):
            g = vertex_set(lattice.faces[gid])
            if v in g and apex[gid] != v:
                return f"faces {sorted(g)} and {sorted(f)} share both apexes {apex[gid]}, {v}"
    return None


def evaluate_functional(c, p: Point) -> Fraction:
    """Exact dot product c . p; raises on dimension mismatch."""
    if len(c) != len(p):
        raise GeometryError(f"functional of length {len(c)} applied to point of length {len(p)}")
    return sum(map(mul, c, p), Fraction(0))


def reference_vertex_order(polytope: Polytope) -> tuple[int, ...]:
    """The vertex indices sorted by the functional (1, M', M'^2, ...), which
    must separate them: M' = 1 + L * spread, L the lcm of all denominators."""
    verts = polytope.vertices
    scale = lcm(*(x.denominator for v in verts for x in v))
    spread = max((max(col) - min(col) for col in zip(*verts)), default=0)
    c = tuple((1 + scale * spread) ** j for j in range(polytope.ambient_dim))
    value = [evaluate_functional(c, v) for v in verts]
    assert len(set(value)) == len(value), "the M' functional ties"
    return tuple(sorted(range(len(verts)), key=value.__getitem__))


def fraction_vertex_order(polytope: Polytope) -> tuple[int, ...]:
    """The vertex indices sorted by (1, M, M^2, ...), M = 1 + the largest
    per-coordinate spread, over ``Fraction`` coordinates where those values
    are distinct, else by the coordinates read last to first."""
    verts = polytope.vertices
    m = 1 + max((max(col) - min(col) for col in zip(*verts)), default=0)
    weights = [m**j for j in range(polytope.ambient_dim)]
    value = [sum(map(mul, weights, v)) for v in verts]
    key = value.__getitem__ if len(set(value)) == len(value) else lambda i: verts[i][::-1]
    return tuple(sorted(range(len(verts)), key=key))


def reference_assign_apexes(lattice: FaceLattice, order) -> Apexes:
    """Apexes by a ``min`` over each face's vertices by rank in ``order``, face by face."""
    rank = {v: r for r, v in enumerate(order)}
    return (None, *(min(vertex_set(f), key=rank.__getitem__) for f in lattice.faces[1:]))


def maximal_simplices(complex_: Complex | set[Simplex]) -> list[Simplex]:
    """Simplices with no proper superset in the complex (the empty simplex never counts)."""
    members = set(complex_)
    pool = set().union(*members) if members else set()
    return [
        s for s in members
        if s and not any((s | {v}) in members for v in pool - s)
    ]


def is_pure(complex_: Complex | set[Simplex], dim: int) -> bool:
    return all(len(s) == dim + 1 for s in maximal_simplices(complex_))


def _simplex_key(s: Simplex):
    return (len(s), tuple(sorted(s)))


def reference_pointed_complexes(
    lattice: FaceLattice, apexes: Apexes
) -> tuple[dict[int, Complex], Complex, tuple[Simplex, ...]]:
    """(per-face complexes, the polytope's complex, its sorted maximal simplices)."""
    chain: dict[int, set[Simplex]] = {}
    for fid in range(1, len(lattice)):
        v = apexes[fid]
        grown: set[Simplex] = {frozenset({v})}
        for gid in pick(lattice.below[fid] & ~1, range(len(lattice))):
            if v in vertex_set(lattice.faces[gid]):
                continue
            for s in chain[gid]:
                grown.add(s | {v})
        chain[fid] = grown
    per_face: dict[int, Complex] = {}
    for fid in range(1, len(lattice)):
        acc: set[Simplex] = {frozenset()}
        acc |= chain[fid]
        for gid in pick(lattice.below[fid] & ~1, range(len(lattice))):
            acc |= chain[gid]
        per_face[fid] = frozenset(acc)
    top = per_face[lattice.top]
    return per_face, top, tuple(sorted(maximal_simplices(top), key=_simplex_key))


def reference_carriers(lattice: FaceLattice, simplices) -> dict[int, int]:
    """The carrier of each simplex, by face id: the first face, in face order,
    that holds it, by a scan over every face. Face ids grow with dimension
    and the faces holding a simplex are closed under intersection, so the
    first is the smallest."""
    return {s: next(fid for fid, m in enumerate(lattice.faces) if not s & ~m) for s in simplices}


def per_face_scan(lattice: FaceLattice, apexes: Apexes, simplices) -> None:
    """The per-face check of conditions 1 and 3 (``_verify_face``) on each
    face's restriction of ``simplices``, in face order; the first violation
    raises, and condition 3 names the smallest vertex with a missing edge."""
    for fid in range(1, len(lattice)):
        m = lattice.faces[fid]
        _verify_face(m, apexes[fid], frozenset(s for s in simplices if not s & ~m))


def reference_condition_1(
    lattice: FaceLattice, apex: Apexes, per_face: dict[int, Complex]
) -> tuple[int, list[Simplex]] | None:
    """The first face, in face order, whose complex in ``per_face`` has maximal
    simplices missing its apex, and those simplices sorted by (size, sorted
    vertices); or None."""
    for fid in range(1, len(lattice)):
        missed = [s for s in maximal_simplices(per_face[fid]) if apex[fid] not in s]
        if missed:
            return fid, sorted(missed, key=_simplex_key)
    return None


def _close_under_intersection(sets: set[frozenset[int]]) -> set[frozenset[int]]:
    closed = set(sets)
    queue = list(closed)
    while queue:
        s = queue.pop()
        for t in list(closed):
            u = s & t
            if u and u not in closed:
                closed.add(u)
                queue.append(u)
    return closed


class _ReferenceLattice(FaceLattice):
    def __init__(self, polytope: Polytope, face_sets):
        self.polytope = polytope
        self.dim = polytope.dim
        sets = _close_under_intersection({frozenset(s) for s in face_sets})
        sets |= {frozenset(range(len(polytope.vertices))), frozenset()}
        hv = [(Fraction(1),) + tuple(v) for v in polytope.vertices]
        dims = {s: reference_rank([hv[i] for i in s]) - 1 for s in sets}  # -1 for the empty face
        ordered = sorted(sets, key=lambda s: (dims[s], tuple(sorted(s))))
        by_dim: dict[int, list[int]] = {}
        for i, s in enumerate(ordered):
            by_dim.setdefault(dims[s], []).append(i)
        self.by_dim = {d: tuple(ids) for d, ids in by_dim.items()}
        subfaces = tuple(tuple(j for j, g in enumerate(ordered) if g < f) for f in ordered)
        below = [set(ids) for ids in subfaces]
        covers = []
        for ids in subfaces:
            under = set().union(*(below[h] for h in ids))  # subfaces of subfaces
            covers.append(tuple(g for g in ids if g not in under))
        self.below = tuple(sum(1 << g for g in ids) for ids in subfaces)
        self.covers = tuple(covers)
        self.with_vertex = tuple(
            sum(1 << i for i, f in enumerate(ordered) if v in f) for v in range(len(polytope.vertices))
        )
        # only the result leaves the vertex sets: masks and dimensions by face id
        self.faces = tuple(map(to_mask, ordered))
        self.dims = tuple(map(dims.__getitem__, ordered))


def reference_face_lattice(polytope: Polytope, face_sets) -> FaceLattice:
    """The lattice of the intersection closure of ``face_sets``, the polytope
    and the empty face, with dimensions from ranks, and subfaces, covers
    (maximal proper subfaces) and the faces holding each vertex from pairwise
    scans, the covers kept as ascending id tuples."""
    return _ReferenceLattice(polytope, face_sets)


def is_simplicial_complex(complex_: Complex | set[Simplex]) -> bool:
    """Closure under subsets, the empty simplex included."""
    members = set(complex_)
    if not members:
        return True
    if frozenset() not in members:
        return False
    for s in members:
        for v in s:
            if (s - {v}) not in members:
                return False
    return True


@dataclass(frozen=True)
class RidgePlanes:
    """The hyperplane of every facet of every maximal simplex.

    ``planes`` maps each ridge to its canonical hyperplane as an integer
    vector (``geometry.integer_plane_through``). ``facets`` lists for each
    maximal simplex, by increasing opposite vertex, (opposite vertex, ridge,
    plane, side of the opposite vertex).
    """

    planes: dict[int, tuple[int, ...]]
    facets: dict[int, tuple[tuple[int, int, tuple[int, ...], int], ...]]


def integer_planes_opposite(hpoints: Sequence[Sequence[int]]) -> list[list[int]] | None:
    """A plane through all the points but point j, for each j, from one
    elimination: on n points of length n as the rows of M, [M | I] leaves
    D M^-1 on the right, whose column j is orthogonal to every point but
    point j. Each is a nonzero multiple of ``integer_plane_through`` those
    points; ``canonical_plane`` makes it equal. None when M is not square
    or is singular."""
    n = len(hpoints)
    if len(hpoints[0]) == n:
        _, pivots, rows = _rref([list(p) + [int(i == j) for j in range(n)] for i, p in enumerate(hpoints)])
        if pivots[-1] < n:
            return [[row[n + j] for row in rows] for j in range(n)]
    return None


def ridge_planes(tri: PointedTriangulation) -> RidgePlanes:
    """The ridge-plane table from one elimination per maximal simplex."""
    hv = [homogenize(p) for p in tri.lattice.polytope.vertices]
    planes: dict[int, tuple[int, ...]] = {}
    facets = {}
    for f in tri.maximal:
        vs = vertex_list(f)
        opposite = integer_planes_opposite([hv[v] for v in vs])
        if opposite is None:
            raise RuntimeError(f"the vertices of maximal simplex {vs} span no simplex of full dimension")
        entries = []
        for v, column in zip(vs, opposite):
            g = f ^ 1 << v
            plane = planes.get(g)
            if plane is None:  # an interior ridge is met twice, and made canonical once
                plane = planes[g] = canonical_plane(column)
            entries.append((v, g, plane, integer_side(plane, hv[v])))
        facets[f] = tuple(entries)
    return RidgePlanes(planes, facets)


def side_test_lower_sets(table: RidgePlanes, x: Point) -> tuple[int, ...]:
    """The exterior lower set of each maximal simplex of the table, in its
    order, by one side test per facet: the vertices that x lies strictly
    opposite across their facet's plane. x on a facet plane raises
    ``GenericityError``."""
    hx = homogenize(x)
    lower_sets = []
    for f, entries in table.facets.items():
        lower = 0
        for v, g, plane, v_side in entries:
            sx = integer_side(plane, hx)
            if sx == 0:
                raise GenericityError(f"point lies on the affine hull of facet {vertex_list(g)}")
            if sx * v_side < 0:
                lower |= 1 << v
        lower_sets.append(lower)
    return tuple(lower_sets)


def reference_ridge_planes(tri: PointedTriangulation) -> RidgePlanes:
    """The ridge-plane table with one ``integer_plane_through`` per distinct ridge."""
    hv = [homogenize(p) for p in tri.lattice.polytope.vertices]
    planes: dict[int, tuple[int, ...]] = {}
    facets = {}
    for f in tri.maximal:
        entries = []
        for v in vertex_list(f):
            g = f ^ 1 << v
            if g not in planes:
                plane = integer_plane_through([hv[i] for i in vertex_list(g)])
                if plane is None:
                    raise RuntimeError(f"ridge {vertex_list(g)} of maximal simplex {vertex_list(f)} spans no hyperplane")
                planes[g] = plane
            entries.append((v, g, planes[g], integer_side(planes[g], hv[v])))
        facets[f] = tuple(entries)
    return RidgePlanes(planes, facets)


def interval_members(lower: Simplex, upper: Simplex):
    """Every vertex set G with lower <= G <= upper, by size."""
    extra = sorted(upper - lower)
    for k in range(len(extra) + 1):
        for chosen in combinations(extra, k):
            yield lower | frozenset(chosen)


def reference_verify_partition(
    intervals: Sequence[tuple[Simplex, Simplex]], target: Complex
) -> PartitionCertificate:
    """Intervals as (lower, upper) vertex sets, checked member by member
    against a target of vertex sets; the certificate lists vertex sets."""
    counts: dict[Simplex, int] = {}
    foreign = []
    for lower, upper in intervals:
        for member in interval_members(lower, upper):
            if member in target:
                counts[member] = counts.get(member, 0) + 1
            else:
                foreign.append(member)
    uncovered = [s for s in target if s not in counts]
    multiple = [s for s, c in counts.items() if c > 1]
    ok = not (uncovered or multiple or foreign)
    return PartitionCertificate(
        ok,
        tuple(sorted(uncovered, key=_simplex_key)),
        tuple(sorted(multiple, key=_simplex_key)),
        tuple(sorted(foreign, key=_simplex_key)),
    )


def reference_split(tri: PointedTriangulation) -> tuple[frozenset[int], frozenset[int]]:
    """(boundary, interior) of the triangulation's vertex masks: a simplex is
    boundary iff it lies inside some proper face of the polytope, and testing
    against the facets suffices since every proper face lies in one."""
    outside = [~tri.lattice.faces[i] for i in tri.lattice.facet_ids()]
    boundary = frozenset(s for s in tri.simplices if not all(map(s.__and__, outside)))
    return boundary, tri.simplices - boundary


def unverified_triangulation(lattice: FaceLattice, apexes: Apexes) -> PointedTriangulation:
    """The polytope's complex of ``reference_pointed_complexes`` on vertex
    masks, its interior from ``reference_split``, unchecked: the package
    builds only from lattices it accepts."""
    _, top, maximal = reference_pointed_complexes(lattice, apexes)
    simplices = frozenset(map(to_mask, top))
    tri = PointedTriangulation(
        lattice, apexes, simplices, frozenset(), tuple(map(to_mask, maximal)), is_simplicial_complex(top)
    )
    return replace(tri, interior=reference_split(tri)[1])


def pointedness_violation(check, *args) -> tuple[int, str] | None:
    """(condition, detail) of the violation ``check(*args)`` raises, or None when it passes."""
    try:
        check(*args)
    except GenericityError as exc:
        condition, detail = re.fullmatch(r"construction violated pointedness condition (\d): (.*)", str(exc)).groups()
        return int(condition), detail
    return None


def simplex_number(d: int, n: int) -> int:
    """n-th d-simplex number C(n+d-1, d), zero-extended to all n <= 0."""
    if d < 0:
        raise ValueError("simplex dimension must be nonnegative")
    if n <= 0:
        return 0
    return comb(n + d - 1, d)


def simplex_interior(d: int, n: int) -> int:
    """Interior d-simplex numbers: the shift n -> n-d-1, except that the
    0-dimensional sequence is identically 1 from n = 1 on."""
    if d == 0:
        return 1 if n >= 1 else 0
    return simplex_number(d, n - d - 1)


def reference_from_h(v: Sequence[int], d: int, n: int) -> int:
    """Sum of v_j alpha^d(n-j), one term at a time."""
    return sum(vj * simplex_number(d, n - j) for j, vj in enumerate(v))


@cache
def eulerian_number(d: int, i: int) -> int:
    """Number of permutations of [d] with exactly i descents."""
    if d < 1:
        raise ValueError("eulerian numbers need d >= 1")
    if i < 0 or i >= d:
        return 0
    if d == 1:
        return 1
    return (i + 1) * eulerian_number(d - 1, i) + (d - i) * eulerian_number(d - 1, i - 1)


def cross_number(d: int, n: int) -> int:
    """n-th d-cross-polytope number."""
    if d < 1:
        raise ValueError("cross-polytope numbers need d >= 1")
    return sum(comb(d - 1, i) * simplex_number(d, n - i) for i in range(d))


def measure_number(d: int, n: int) -> int:
    """n-th d-cube number (evaluates to n^d for n >= 1)."""
    if d < 1:
        raise ValueError("measure-polytope numbers need d >= 1")
    return sum(eulerian_number(d, i) * simplex_number(d, n - i) for i in range(d))


def facet_cut_check(d: int, n: int, k: int) -> bool:
    """alpha^d(n) - sum_{i<k} alpha^{d-1}(n-i) == alpha^d(n-k), exactly."""
    lhs = simplex_number(d, n) - sum(simplex_number(d - 1, n - i) for i in range(k))
    return lhs == simplex_number(d, n - k)


def vandermonde_check(d: int, j: int, n: int) -> bool:
    """sum_i C(d+1-j, i+1-j) alpha^i(n)# == alpha^d(n-j).

    Holds for n = 0 and every n >= 2 (the n = 1 base cases sit outside the
    binomial identity).
    """
    lhs = sum(
        comb(d + 1 - j, i + 1 - j) * simplex_interior(i, n)
        for i in range(max(j - 1, 0), d + 1)
    )
    return lhs == simplex_number(d, n - j)


def alpha_difference_check(d: int, n: int) -> bool:
    """alpha^d(n) - alpha^d(n-1) == alpha^{d-1}(n)."""
    return simplex_number(d, n) - simplex_number(d, n - 1) == simplex_number(d - 1, n)
