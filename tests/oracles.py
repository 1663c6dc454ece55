"""Independent reference implementations that the tests check the package against.

``reference_rref`` is Gauss-Jordan elimination over ``Fraction``, the
reference for the package's fraction-free integer kernel; the other oracles
here use it rather than the kernel they check. ``reference_hyperplane_through``
is the canonical hyperplane computed from a rational nullspace.

``segment_first_hit`` classifies a ray against a simplex by solving for the
hit directly, so it is an oracle for the side-test visibility in
``figurate.partitions``. ``full_scan_generic_point`` is the generic-point
search that checks the affine hull of every simplex with at most d vertices,
an oracle for the ridge-only search.

``reference_face_number_sequences`` is the recursion for the sequences of
every face evaluated term by term, one n at a time, the reference for the
column sums in ``figurate.sequences``. ``pairwise_apex_conflict`` checks
pointedness condition 2 over every pair of faces, and
``reference_condition_2`` over every face-subface pair by subface ids: the
references for the one mask test per face in ``verify_pointed``.
``reference_assign_apexes`` takes each apex by a ``min`` over the face's
vertices, the reference for the one vertex ranking of ``assign_apexes``.

``reference_pointed_complexes`` builds the chains and the per-face complexes
of a pointed triangulation by ``frozenset`` unions, the reference for the
construction on vertex masks in ``build_pointed_triangulation``.
``maximal_simplices`` scans every simplex against every vertex of the
complex; ``reference_condition_1`` runs it on the complex of every face, the
reference for the one-lookup check of pointedness condition 1.

``reference_face_lattice`` is the original lattice construction: pairwise
intersection closure of ``frozenset`` vertex sets, one rank per face for its
dimension, and a pairwise scan for subfaces and maximal proper subfaces. It
is the reference for the closure on masks, the grading and the covers of
``FaceLattice``, and it builds a lattice from any sets, face lattice or not.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Sequence

from figurate.geometry import (
    GeometryError,
    Hyperplane,
    Point,
    evaluate_functional,
    point,
    vdot,
    vsub,
)
from figurate.lattice import Face, FaceLattice, Polytope
from figurate.partitions import GenericPoint
from figurate.triangulation import (
    ApexAssignment,
    Complex,
    GenericityError,
    PointedTriangulation,
    Simplex,
)


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
) -> GenericPoint:
    """The generic-point search with one exact hull membership test per simplex."""
    verts = tri.lattice.polytope.vertices
    targets = sorted(
        (s for s in tri.simplices if s and len(s) <= tri.dim),
        key=lambda s: (len(s), tuple(sorted(s))),
    )
    target_points = [[verts[i] for i in sorted(s)] for s in targets]
    corners = [verts[i] for i in sorted(tri.maximal[0])]
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
            return GenericPoint(x, tuple(targets), seed)
        weights = [rng.randint(1, bound) for _ in corners]
        bound *= 2
    raise RuntimeError("could not find a generic point")


def reference_face_number_sequences(
    lattice: FaceLattice, apexes: ApexAssignment, n_max: int
) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
    """Sequences and interior sequences of every nonempty face, one n at a time."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    ext: dict[int, list[int]] = {}
    intr: dict[int, list[int]] = {}
    for f in lattice.faces[1:]:
        if f.dim == 0:
            seq = [0] + [1] * n_max
            ext[f.id] = seq
            intr[f.id] = list(seq)
            continue
        sub = lattice.subface_ids(f.id)
        apex = apexes.apex[f.id]
        away = [g for g in sub if apex not in lattice.faces[g].vertices]
        e = [0] * (n_max + 1)
        it = [0] * (n_max + 1)
        if n_max >= 1:
            e[1] = 1
        for n in range(2, n_max + 1):
            e[n] = e[n - 1] + sum(intr[g][n] for g in away)
            it[n] = e[n] - sum(intr[g][n] for g in sub)
        ext[f.id] = e
        intr[f.id] = it
    return ext, intr


def pairwise_apex_conflict(lattice: FaceLattice, apex: dict[int, int]) -> tuple[int, int] | None:
    """The first pair of face ids whose apexes differ and both lie in the
    intersection of the two faces, or None (pointedness condition 2)."""
    for f1, f2 in combinations(lattice.faces[1:], 2):
        shared = f1.vertices & f2.vertices
        v1, v2 = apex[f1.id], apex[f2.id]
        if v1 in shared and v2 in shared and v1 != v2:
            return f1.id, f2.id
    return None


def reference_condition_2(lattice: FaceLattice, apex: dict[int, int]) -> str | None:
    """The nested-pair scan of pointedness condition 2 over each face's
    subface ids: the detail of the first face, and its first subface, whose
    apexes differ while the subface holds the face's apex; or None."""
    for f in lattice.faces[1:]:
        v = apex[f.id]
        for gid in lattice.subface_ids(f.id):
            g = lattice.faces[gid]
            if v in g.vertices and apex[gid] != v:
                return f"faces {sorted(g.vertices)} and {sorted(f.vertices)} share both apexes {apex[gid]}, {v}"
    return None


def reference_assign_apexes(lattice: FaceLattice, c) -> ApexAssignment:
    """Apexes by a ``min`` over each face's vertices, and a count of the
    vertices at that minimum, face by face."""
    value = {i: evaluate_functional(c, v) for i, v in enumerate(lattice.polytope.vertices)}
    apex: dict[int, int] = {}
    for f in lattice.faces[1:]:
        best = min(f.vertices, key=lambda i: (value[i], i))
        if sum(1 for i in f.vertices if value[i] == value[best]) > 1:
            raise GenericityError(
                f"functional is not generic: duplicate minimum on face {sorted(f.vertices)}"
            )
        apex[f.id] = best
    return ApexAssignment(c, apex)


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
    lattice: FaceLattice, apexes: ApexAssignment
) -> tuple[dict[int, Complex], Complex, tuple[Simplex, ...]]:
    """(per-face complexes, the polytope's complex, its sorted maximal simplices)."""
    chain: dict[int, set[Simplex]] = {}
    for f in lattice.faces[1:]:
        v = apexes.apex[f.id]
        grown: set[Simplex] = {frozenset({v})}
        for gid in lattice.subface_ids(f.id):
            if v in lattice.faces[gid].vertices:
                continue
            for s in chain[gid]:
                grown.add(s | {v})
        chain[f.id] = grown
    per_face: dict[int, Complex] = {}
    for f in lattice.faces[1:]:
        acc: set[Simplex] = {frozenset()}
        acc |= chain[f.id]
        for gid in lattice.subface_ids(f.id):
            acc |= chain[gid]
        per_face[f.id] = frozenset(acc)
    top = per_face[lattice.top.id]
    return per_face, top, tuple(sorted(maximal_simplices(top), key=_simplex_key))


def reference_condition_1(tri: PointedTriangulation) -> tuple[int, list[Simplex]] | None:
    """The first face, in face order, with maximal simplices missing its apex,
    and those simplices sorted by (size, sorted vertices); or None."""
    for f in tri.lattice.faces[1:]:
        v = tri.apexes.apex[f.id]
        missed = [s for s in maximal_simplices(tri.per_face[f.id]) if v not in s]
        if missed:
            return f.id, sorted(missed, key=_simplex_key)
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
        sets.add(frozenset(range(len(polytope.vertices))))
        sets.discard(frozenset())
        hv = [(Fraction(1),) + tuple(v) for v in polytope.vertices]
        dims = {s: reference_rank([hv[i] for i in s]) - 1 for s in sets}
        ordered = sorted(sets, key=lambda s: (dims[s], tuple(sorted(s))))
        faces = [Face(0, frozenset(), -1)]
        faces += [Face(i + 1, s, dims[s]) for i, s in enumerate(ordered)]
        self.faces = tuple(faces)
        self._id_by_vertices = {f.vertices: f.id for f in self.faces}
        by_dim: dict[int, list[int]] = {}
        for f in self.faces:
            by_dim.setdefault(f.dim, []).append(f.id)
        self.by_dim = {d: tuple(ids) for d, ids in by_dim.items()}
        self._subfaces = tuple(
            tuple(g.id for g in self.faces if g.vertices < f.vertices) for f in self.faces
        )
        below = [set(ids) for ids in self._subfaces]
        covers = []
        for ids in self._subfaces:
            under = set().union(*(below[h] for h in ids))  # subfaces of subfaces
            covers.append(tuple(g for g in ids if g not in under))
        self._covers = tuple(covers)
        self.below = tuple(sum(1 << g for g in ids) for ids in self._subfaces)
        self.covers = tuple(sum(1 << g for g in ids) for ids in self._covers)
        self.with_vertex = tuple(
            sum(1 << f.id for f in self.faces if v in f.vertices) for v in range(len(polytope.vertices))
        )

    def subface_ids(self, fid: int, include_empty: bool = False) -> tuple[int, ...]:
        ids = self._subfaces[fid]
        return ids if include_empty else ids[1:]

    def cover_ids(self, fid: int) -> tuple[int, ...]:
        return self._covers[fid]


def reference_face_lattice(polytope: Polytope, face_sets) -> FaceLattice:
    """The lattice of the intersection closure of ``face_sets``, the polytope
    and the empty face, with dimensions from ranks, and subfaces, covers
    (maximal proper subfaces) and the faces holding each vertex from pairwise
    scans, kept both as tuples and as face-id masks."""
    return _ReferenceLattice(polytope, face_sets)
