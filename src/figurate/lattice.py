"""Convex polytopes, exact facet enumeration, and face lattices.

A polytope is stored as a tuple of rational vertex points together with its
full face lattice: every face (including the empty face, with dimension -1,
and the polytope itself) is its ``int`` vertex mask, bit i for vertex i,
and ``vertex_list`` prints one as its sorted vertices. Every proper
face is an intersection of facets, so the lattice is built from the facets'
vertex sets alone (V. Kaibel, M. E. Pfetsch, "Computing the face lattice of a
polytope from its vertex-facet incidences", Comput. Geom. 23, 2002): closure
under intersection on ``int`` masks, dimensions from the grading, and
subfaces and covers from each face's intersections with the facets. Subfaces
and the faces holding each vertex are kept as face-id masks, so pointedness
condition 2 is one mask test per face and the recursion splits each face's
subfaces by apex with one AND. Covers are kept as id tuples, read by id by
the triangulation and the load-time check. Each facet's plane is made once
per lattice and kept in ``planes``, by the hull search or on first use.

The builtin families (simplex, cube, cross, pyramid, prism, bipyramid) list
their facets combinatorially, with their number of faces. A compound is
made from its base's vertices, facets and face count, so one lattice is
built, for the compound alone. Supplied ``faces`` generate the lattice the
same way, and are checked to be a face lattice when loaded: each face's
grading against its affine rank, each facet against a supporting hyperplane,
each ridge against its two facets, each generator against the facets
containing it, each vertex as a 0-face, and every interval of length two
against its two middle faces.
Coordinate inputs find their facets by exact gift-wrapping over integer
homogeneous coordinates: from one facet, each ridge is crossed once, by one
sweep of two dot products per point over the pencil of planes through it,
to the facet on its other side. The cost grows with the number of facets
found, not with the C(n, d) planes through d of the n points: 80 rational
points on S^2 take 0.04 s on one core of a 2-vCPU x86 machine under
Python 3.11, where testing all those planes took 8.5 s.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress, product
from math import gcd
from operator import mul
from typing import Iterable, Sequence, TypeVar

from .geometry import (
    GeometryError,
    Point,
    barycenter,
    homogenize,
    hull_coordinates,
    integer_plane_through,
    integer_rank,
    integer_side,
    point,
    rational_str,
)

T = TypeVar("T")


@dataclass(frozen=True)
class Polytope:
    """A convex polytope given by its (extremal, pairwise distinct) vertices.

    Vertices are stored in coordinates for the polytope's own affine hull, so
    ``dim`` always equals the ambient dimension of the stored points.
    """

    name: str
    vertices: tuple[Point, ...]
    dim: int

    @property
    def ambient_dim(self) -> int:
        return len(self.vertices[0]) if self.vertices else 0

    @cached_property
    def hv(self) -> tuple[tuple[int, ...], ...]:
        """The homogenized vertices, ``homogenize(v)`` for each: every rank, plane and side test reads these rows."""
        return tuple(map(homogenize, self.vertices))


class FaceLattice:
    """All faces of a polytope, ordered by inclusion of vertex sets.

    Built from generators (the facets, or the supplied faces) on ``int``
    vertex masks, bit i for vertex i. Only the maximal proper generators,
    those in no other one, take part: on a face lattice they are the facets,
    and every face is an intersection of facets. The faces are closed under
    intersection top down from the full vertex set: each face is ANDed once
    with each maximal generator, and its intersections with those not
    containing it, plus the empty face, are its *children*. Every proper
    subface of a face lies in one of its children.

    - A face's dimension comes from the grading: 1 + the largest dimension
      of its children, the empty face at -1. On a face lattice this is the
      affine dimension, and no rank is computed.
    - ``faces[i]`` is the vertex mask of face i and ``dims[i]`` its
      dimension. Faces are sorted by (dimension, vertex tuple) and
      identified by their position in that order, so face ids are
      deterministic. Id 0 is always the empty face and the last id, ``top``,
      is the full vertex set, since a child has a smaller dimension than its
      face.
    - ``below[i]`` is the face-id mask (bit j for face j) of the proper
      subfaces of face i, the empty face included, OR-ed bottom up over the
      children. ``with_vertex[v]`` masks the faces that hold vertex v.
      Consumers AND these masks and read out only the ids they need
      (``pick``).
    - ``covers[i]`` is the ascending tuple of the ids of its maximal proper
      subfaces, made in the same loop: the children under no other child,
      which on a face lattice are the children one dimension down.
    - ``planes`` maps a facet's vertex mask to its plane, made once per
      lattice: by the hull search, or by ``plane`` on first use.
    """

    def __init__(self, polytope: Polytope, generators: Iterable[int]):
        self.polytope = polytope
        self.dim = polytope.dim
        full = (1 << len(polytope.vertices)) - 1
        gens: list[int] = []
        for g in sorted(set(generators) - {full}, key=int.bit_count, reverse=True):
            if all(g & ~m for m in gens):  # a generator in another has fewer vertices
                gens.append(g)
        children: dict[int, set[int]] = {}
        todo = [full]
        while todo:
            f = todo.pop()
            if f in children:
                continue
            kids = {f & s for s in gens}
            kids.discard(f)
            if f:
                kids.add(0)
            children[f] = kids
            todo.extend(kids)
        dims = {0: -1}
        for f in sorted(children, key=int.bit_count)[1:]:
            dims[f] = 1 + max(map(dims.__getitem__, children[f]))
        verts = {f: pick(f, range(len(polytope.vertices))) for f in children}
        order = sorted(children, key=lambda f: (dims[f], verts[f]))
        self.faces: tuple[int, ...] = tuple(order)
        self.dims: tuple[int, ...] = tuple(map(dims.__getitem__, order))
        by_dim: dict[int, list[int]] = {}
        for i, d in enumerate(self.dims):
            by_dim.setdefault(d, []).append(i)
        self.by_dim = {d: tuple(ids) for d, ids in by_dim.items()}
        id_of = {f: i for i, f in enumerate(order)}
        below, covers = [], []
        for f in order:
            kids = sorted(map(id_of.__getitem__, children[f]))
            mask = under = 0
            for k in kids:
                mask |= 1 << k
                under |= below[k]
            below.append(mask | under)
            covers.append(tuple([k for k in kids if not under >> k & 1]))
        self.below: tuple[int, ...] = tuple(below)
        self.covers: tuple[tuple[int, ...], ...] = tuple(covers)
        with_vertex = [0] * len(polytope.vertices)
        for i, f in enumerate(order):
            for v in verts[f]:
                with_vertex[v] |= 1 << i
        self.with_vertex: tuple[int, ...] = tuple(with_vertex)

    @property
    def top(self) -> int:
        """The id of the polytope itself."""
        return len(self.faces) - 1

    @cached_property
    def planes(self) -> dict[int, tuple[int, ...]]:
        return {}

    def plane(self, facet: int) -> tuple[int, ...]:
        """The plane of a facet, ``integer_plane_through`` its rows of ``Polytope.hv``, kept in ``planes``."""
        if facet not in self.planes:
            self.planes[facet] = integer_plane_through(pick(facet, self.polytope.hv))
        return self.planes[facet]

    def facet_ids(self) -> tuple[int, ...]:
        return self.by_dim.get(self.dim - 1, ())

    def face_counts(self) -> dict[int, int]:
        return {d: len(ids) for d, ids in self.by_dim.items()}

    def __len__(self) -> int:
        return len(self.faces)


def pick(mask: int, items: Sequence[T]) -> tuple[T, ...]:
    """``items[i]`` for each set bit i of ``mask``, ascending."""
    return tuple(compress(items, bin(mask)[:1:-1].encode().translate(_BIT_BYTES)))


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")  # a binary digit string as 0/1 selectors


def vertex_list(mask: int) -> list[int]:
    """The sorted vertices of a face or simplex mask: how records and messages print it."""
    return list(pick(mask, range(mask.bit_length())))


def _mask(vertices) -> int:
    return sum(1 << i for i in vertices)


# ---------------------------------------------------------------------------
# Construction from coordinates.

def enumerate_facets(p: Polytope) -> list[tuple[tuple[int, ...], int]]:
    """Exact facets of a full-dimensional polytope, by gift-wrapping.

    Each facet is (its integer plane in the canonical form of
    ``integer_plane_through``, the mask of the vertices on it), sorted by
    vertex indices. Non-extremal points on a facet are in its mask.
    """
    verts = p.vertices
    d = p.dim
    if d != p.ambient_dim:
        raise GeometryError("facet enumeration requires hull coordinates")
    if d == 0:
        return []
    if len(verts) < d + 1:
        raise GeometryError(f"a {d}-polytope needs at least {d + 1} vertices, got {len(verts)}")
    found = []
    for mask, plane in _wrap(p.hv).items():
        if next(x for x in plane[1:] if x) < 0:
            plane = tuple(-x for x in plane)
        found.append((plane, mask))
    found.sort(key=lambda pf: vertex_list(pf[1]))
    return found


# Gift-wrapping (D. R. Chand, S. S. Kapur, J. ACM 17, 1970; G. Swart,
# J. Algorithms 6, 1985) on homogenized points hv in Z^(m+1) that span Q^m.
# A plane is an integer vector, kept *inward*: plane . q >= 0 for every point
# q, 0 exactly on the face it supports. Faces are vertex masks.

def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def _wrap(hv: Sequence[tuple[int, ...]]) -> dict[int, tuple[int, ...]]:
    """Every facet of the points, as mask -> inward primitive plane.

    From a first facet, each facet's ridges are pivoted over once (ridges
    already crossed are skipped by mask) to the facet on their other side.
    On a line the lowest point's one ridge is empty, and its pivot finds the
    highest point.
    """
    mask, plane = _first_facet(hv)
    facets = {mask: plane}
    todo = [mask]
    crossed: set[int] = set()
    while todo:
        f = todo.pop()
        pf = facets[f]
        a = [_dot(pf, q) for q in hv]
        out = hv[next(i for i, x in enumerate(a) if x)]
        for r in _ridges(hv, f, pf):
            if r in crossed:
                continue
            crossed.add(r)
            beyond = hv[(f & ~r).bit_length() - 1]  # a point of the facet off the ridge
            g, pg = _pivot(hv, a, pf, r, _plane_off(hv, r, out, beyond))
            if g not in facets:
                facets[g] = pg
                todo.append(g)
    return facets


def _plane_off(hv, ridge: int, out, toward) -> tuple[int, ...] | None:
    """The plane through the ridge's points and the point ``out``, positive at
    ``toward``; None when they span more than a plane."""
    p0 = integer_plane_through(pick(ridge, hv) + (out,))
    if p0 is None or _dot(p0, toward) > 0:
        return p0
    return tuple(-x for x in p0)


def _pivot(hv, a: list[int], pf, ridge: int, p0) -> tuple[int, tuple[int, ...]]:
    """The facet across ``ridge`` from the supporting plane ``pf``.

    The planes through the ridge are the pencil x p0 - y pf, where p0 is
    positive on the side of ``pf`` being turned away from. With
    a = pf . q >= 0 and b = p0 . q, the facet's plane is a* p0 - b* pf for
    the point of least b / a over a > 0 (compared by cross-multiplication),
    and its points are the ridge and the ties with that point.
    """
    best_a, best_b, ties = 0, 0, ridge
    for i, (q, ai) in enumerate(zip(hv, a)):
        if ai:
            bi = _dot(p0, q)
            side = bi * best_a - best_b * ai
            if side < 0 or not best_a:
                best_a, best_b, ties = ai, bi, ridge | 1 << i
            elif not side:
                ties |= 1 << i
    plane = [best_a * x - best_b * y for x, y in zip(p0, pf)]
    g = gcd(*plane)
    return ties, tuple(x // g for x in plane)


def _ridges(hv, facet: int, pf) -> list[int]:
    """The ridges of a facet: its facets, one dimension down.

    A facet with m points in Q^m is a simplex. Otherwise its points are
    wrapped in Q^(m-1) after dropping a coordinate j where the plane's
    normal is nonzero, an injective affine map on the plane.
    """
    idx = pick(facet, range(len(hv)))
    if len(idx) == len(hv[0]) - 1:
        return [facet ^ 1 << i for i in idx]
    j = next(j for j in range(1, len(pf)) if pf[j])
    sub = [hv[i][:j] + hv[i][j + 1:] for i in idx]
    return [_mask(pick(r, idx)) for r in _wrap(sub)]


def _first_facet(hv: Sequence[tuple[int, ...]]) -> tuple[int, tuple[int, ...]]:
    """One facet of the points, found exactly.

    A facet of the projection that drops the last coordinate, lifted with a
    0 coefficient, supports the points in a facet or in a ridge. A ridge is
    pivoted over once more, turning away from p + e_m for a point p on it.
    Points on a line have their lowest one as a facet.
    """
    if len(hv[0]) == 2:
        lo = min(hv, key=lambda q: Fraction(q[1], q[0]))
        g = gcd(*lo)
        plane = (-lo[1] // g, lo[0] // g)
        return _mask(i for i, q in enumerate(hv) if not _dot(plane, q)), plane
    t, plane = _first_facet([q[:-1] for q in hv])
    plane += (0,)
    a = [_dot(plane, q) for q in hv]
    out = hv[next(i for i, x in enumerate(a) if x)]
    p = hv[t.bit_length() - 1]
    p0 = _plane_off(hv, t, out, p[:-1] + (p[-1] + p[0],))
    if p0 is None:  # the touched points span the plane
        return t, plane
    return _pivot(hv, a, plane, t, p0)


def build_face_lattice(
    p: Polytope, face_sets: list[Iterable[int]] | None = None
) -> FaceLattice:
    """Face lattice of a polytope, from supplied faces or by hull search.

    When ``face_sets`` is given (maximal faces per dimension, or the full
    list), hyperplane enumeration is skipped and the given sets generate the
    lattice. Each must list distinct vertex indices, and their closure must
    pass ``_check_face_lattice``; otherwise a GeometryError names the bad face
    or vertex. Without ``face_sets``, the enumerated facets generate the
    lattice, and every vertex is checked to be extremal: the facets holding it
    meet in it alone. A point that is no vertex lies in the relative interior
    of a face with at least two vertices, and every facet through it holds
    that whole face. The lattice keeps the enumerated facets' planes.
    """
    if face_sets is not None:
        generators = [_face_mask(p, face) for face in face_sets]
        lattice = FaceLattice(p, generators)
        _check_face_lattice(lattice, generators)
        return lattice
    planes = {mask: plane for plane, mask in enumerate_facets(p)}
    if p.dim > 0:
        for i in range(len(p.vertices)):
            if _facet_meet(1 << i, planes, len(p.vertices)) != 1 << i:
                raise GeometryError(f"vertex {i} of {p.name!r} is not extremal")
    lattice = FaceLattice(p, planes)
    lattice.planes.update(planes)
    return lattice


def _facet_meet(mask: int, facets: Iterable[int], n: int) -> int:
    """The intersection of the facet masks holding ``mask``, of n vertices;
    all n when none does."""
    meet = (1 << n) - 1
    for m in facets:
        if not mask & ~m:
            meet &= m
    return meet


def _check_face_lattice(lattice: FaceLattice, generators: list[int]) -> None:
    """Raise GeometryError unless the closure of ``generators`` is the
    polytope's face lattice.

    In this order: every face spans the affine dimension its grading gives
    it; every facet has a hyperplane through its vertices with all vertices
    weakly on one side, holding exactly that facet; every ridge lies in
    exactly two facets; every generator is the intersection of the facets
    containing it; every vertex is a 0-face; and between any two faces two
    dimensions apart below the polytope lie exactly two faces.

    Then every face is a face of the polytope, and every face of the
    polytope is in the lattice: by induction on dimension, each facet's
    faces are all there, so each ridge is, and the two facets through it
    are; the facets are connected through ridges. The ridge check alone
    misses a facet whose neighbours pin its vertices: the octahedron without
    one facet passes it. On the full face lattice each face's subfaces
    missing a vertex lie in its covers missing that vertex.
    """
    p = lattice.polytope

    def fail(detail: str):
        raise GeometryError(f"faces of {p.name!r} are not a face lattice: {detail}")

    hv = p.hv
    for f, dim in zip(lattice.faces[1:], lattice.dims[1:]):
        rank = integer_rank(pick(f, hv))
        if rank - 1 != dim:
            fail(f"face {vertex_list(f)} has dimension {rank - 1}, but the faces inside it grade it as {dim}")
    if p.dim == 0:
        return
    facets = [lattice.faces[i] for i in lattice.facet_ids()]
    for facet in facets:
        plane = lattice.plane(facet)  # the facet spans dim - 1
        sides = [integer_side(plane, h) for h in hv]
        if min(sides) < 0 < max(sides):
            fail(f"facet {vertex_list(facet)} has vertices on both sides of its hyperplane")
        extra = _mask(i for i, side in enumerate(sides) if side == 0) & ~facet
        if extra:
            fail(f"the hyperplane of facet {vertex_list(facet)} also holds vertex {vertex_list(extra)[0]}")
    in_facets = [0] * len(lattice)
    for fid in lattice.facet_ids():
        for rid in lattice.covers[fid]:
            in_facets[rid] += 1
    for rid in lattice.by_dim.get(p.dim - 2, ()):
        if in_facets[rid] != 2:
            fail(f"ridge {vertex_list(lattice.faces[rid])} lies in {in_facets[rid]} facets, expected 2")
    for g in generators:
        if _facet_meet(g, facets, len(p.vertices)) != g:
            fail(f"face {vertex_list(g)} is not the intersection of the facets containing it")
    vertex_faces = {lattice.faces[i] for i in lattice.by_dim[0]}
    for v in range(len(p.vertices)):
        if 1 << v not in vertex_faces:
            fail(f"vertex {v} is not a 0-face")
    # below the polytope, as the ridges do above: two faces between faces two dimensions apart
    ids = range(len(lattice))
    of_dim = {d: sum(1 << i for i in fids) for d, fids in lattice.by_dim.items()}
    for fid in range(1, lattice.top):
        # the grading is strict, so a subface one dimension down is a cover, and one two down
        # lies in a cover of f exactly when that cover covers it
        between = Counter()
        for c in lattice.covers[fid]:
            between.update(lattice.covers[c])
        for g in pick(lattice.below[fid] & of_dim.get(lattice.dims[fid] - 2, 0), ids):
            if between[g] != 2:
                fail(
                    f"{between[g]} faces lie between face {vertex_list(lattice.faces[g])} "
                    f"and face {vertex_list(lattice.faces[fid])}, expected 2"
                )


def _face_mask(p: Polytope, face) -> int:
    n = len(p.vertices)
    if not isinstance(face, (list, tuple, set, frozenset)) or not all(
        type(i) is int and 0 <= i < n for i in face
    ):
        raise GeometryError(f"face {face!r} of {p.name!r} must list vertex indices in [0, {n - 1}]")
    mask = _mask(set(face))
    if mask.bit_count() < len(face):
        again = next(i for i in face if face.count(i) > 1)
        raise GeometryError(
            f"faces of {p.name!r} are not a face lattice: face {face!r} lists vertex {again} more than once"
        )
    return mask


def polytope_from_vertices(name, coords, face_sets=None) -> FaceLattice:
    """Build a polytope (projected into its affine hull) and its lattice."""
    pts = [point(c) for c in coords]
    if not pts:
        raise GeometryError("a polytope needs at least one vertex")
    if len({len(c) for c in pts}) != 1:
        raise GeometryError("vertices have mixed ambient dimensions")
    if len(set(pts)) != len(pts):
        raise GeometryError("vertices must be pairwise distinct")
    hull_pts, dim = hull_coordinates(pts)
    if len(set(hull_pts)) != len(hull_pts):
        raise GeometryError("vertices must be pairwise distinct")
    return build_face_lattice(Polytope(name, tuple(hull_pts), dim), face_sets)


# ---------------------------------------------------------------------------
# Builtin families (facets listed combinatorially, no hull search).

# A builtin before its lattice: its polytope, its facets as vertex masks and its
# number of faces. Compounds are built on their base's parts, and one lattice is
# built at the end.
Parts = tuple[Polytope, list[int], int]


def _simplex(d: int) -> Parts:
    zero = tuple(Fraction(0) for _ in range(d))
    verts = [zero] + [
        tuple(Fraction(1 if j == i else 0) for j in range(d)) for i in range(d)
    ]
    full = (1 << d + 1) - 1
    facets = [full ^ 1 << i for i in range(d + 1)]
    return Polytope(f"simplex:{d}", tuple(verts), d), facets, 2 ** (d + 1)  # every vertex subset


def _cube(d: int) -> Parts:
    verts = [tuple(Fraction(b) for b in bits) for bits in product((0, 1), repeat=d)]
    full = (1 << len(verts)) - 1
    facets = [] if d else [0]  # a point's one facet is the empty face
    for j in range(d):
        # vertex i has coordinate j equal to bit d - 1 - j of i
        ones = _mask(i for i in range(len(verts)) if i >> d - 1 - j & 1)
        facets += [full ^ ones, ones]
    # a nonempty face fixes each coordinate to 0 or 1 or leaves it free
    return Polytope(f"cube:{d}", tuple(verts), d), facets, 3**d + 1


def _cross(d: int) -> Parts:
    verts = []
    for i in range(d):
        for sign in (1, -1):
            verts.append(tuple(Fraction(sign if j == i else 0) for j in range(d)))
    # vertex 2a + s is +e_a for s = 0 and -e_a for s = 1; a facet picks one per axis
    facets = [_mask(2 * a + s for a, s in enumerate(signs)) for signs in product((0, 1), repeat=d)]
    # a proper face picks +e_a, -e_a or neither per axis
    return Polytope(f"cross:{d}", tuple(verts), d), facets, 3**d + 1


def _lift(v: Point, last) -> Point:
    return tuple(v) + (Fraction(last),)


def _pyramid(bp: Polytope, base_facets: list[int], faces: int) -> Parts:
    apex = 1 << len(bp.vertices)
    verts = [_lift(v, 0) for v in bp.vertices]
    verts.append(_lift(barycenter(bp.vertices), 1))
    facets = [apex - 1] + [g | apex for g in base_facets]  # the base, and cones
    # each face of the base with and without the apex
    return Polytope(f"pyramid:{bp.name}", tuple(verts), bp.dim + 1), facets, 2 * faces


def _prism(bp: Polytope, base_facets: list[int], faces: int) -> Parts:
    nb = len(bp.vertices)
    verts = [_lift(v, 0) for v in bp.vertices] + [_lift(v, 1) for v in bp.vertices]
    full = (1 << nb) - 1
    facets = [full, full << nb] + [g | g << nb for g in base_facets]
    # each nonempty face of the base at both ends and across, and the empty face
    return Polytope(f"prism:{bp.name}", tuple(verts), bp.dim + 1), facets, 3 * faces - 2


def _bipyramid(bp: Polytope, base_facets: list[int], faces: int) -> Parts:
    nb = len(bp.vertices)
    verts = [_lift(v, 0) for v in bp.vertices]
    bary = barycenter(bp.vertices)
    verts.append(_lift(bary, 1))
    verts.append(_lift(bary, -1))
    facets = [g | 1 << tip for g in base_facets for tip in (nb, nb + 1)]
    # each proper face of the base alone and with either tip, the empty face and the whole
    return Polytope(f"bipyramid:{bp.name}", tuple(verts), bp.dim + 1), facets, 3 * faces - 2


# dimension caps bound the face count (2^11 for simplex:10, 3^7 + 1 for cube:7 and
# cross:7); the later pipeline stages, not the lattice, are what they keep snappy.
# A compound may have no more faces than the largest of these.
_BASIC_FAMILIES = {"simplex": (_simplex, 0, 10), "cube": (_cube, 0, 7), "cross": (_cross, 1, 7)}
_MAX_FACES = 3**7 + 1
_COMPOUND_FAMILIES = {"pyramid": _pyramid, "prism": _prism, "bipyramid": _bipyramid}
_BASE_ALIASES = {"square": "cube:2", "triangle": "simplex:2", "segment": "simplex:1"}


def builtin(family: str, dim: int | None = None, base: FaceLattice | None = None) -> FaceLattice:
    """Construct a builtin polytope family member with its combinatorial lattice.

    A compound is built on its base lattice's polytope, facets and number of faces.
    """
    parts = None if base is None else (base.polytope, [base.faces[i] for i in base.facet_ids()], len(base))
    return FaceLattice(*_builtin(family, dim, parts)[:2])


def _builtin(family: str, dim: int | None = None, base: Parts | None = None) -> Parts:
    """The parts of a builtin family member; a compound's come from its base's parts."""
    if family in _BASIC_FAMILIES:
        ctor, min_dim, max_dim = _BASIC_FAMILIES[family]
        if dim is None or dim < min_dim or dim > max_dim:
            raise ValueError(f"{family} requires a dimension in [{min_dim}, {max_dim}]")
        return ctor(dim)
    if family in _COMPOUND_FAMILIES:
        if base is None:
            raise ValueError(f"{family} requires a base polytope")
        bp = base[0]
        if bp.dim != bp.ambient_dim:
            raise ValueError(f"{family} base must be full-dimensional in its coordinates")
        if family == "bipyramid" and bp.dim < 1:
            # the base point would be the midpoint of the two tips, no vertex
            raise ValueError(f"bipyramid base {bp.name!r} must have dimension >= 1")
        parts = _COMPOUND_FAMILIES[family](*base)
        if parts[2] > _MAX_FACES:
            raise ValueError(
                f"builtin {family}:{bp.name} would have {parts[2]} faces, "
                f"more than the {_MAX_FACES} of the largest basic builtin"
            )
        return parts
    raise ValueError(f"unknown builtin family {family!r}")


def parse_builtin(spec: str) -> FaceLattice:
    """Parse a builtin spec like "cube:3", "pyramid:square" or "bipyramid:cross:3".

    The compound prefixes are stripped in a loop and applied from the base
    up, so each level is checked as it is made; only the last level's
    lattice is built.
    """
    compounds = []
    while True:
        spec = _BASE_ALIASES.get(spec, spec)
        family, sep, rest = spec.partition(":")
        if not sep:
            raise ValueError(f"builtin spec {spec!r} must look like family:dim or family:base")
        if family not in _COMPOUND_FAMILIES:
            break
        compounds.append(family)
        spec = rest
    if family not in _BASIC_FAMILIES:
        raise ValueError(f"unknown builtin family {family!r}")
    try:
        d = int(rest)
    except ValueError:
        raise ValueError(f"invalid dimension {rest!r} in builtin spec {spec!r}") from None
    parts = _builtin(family, d)
    for family in reversed(compounds):
        parts = _builtin(family, base=parts)
    return FaceLattice(*parts[:2])


# ---------------------------------------------------------------------------
# JSON interchange.

def polytope_to_json(lattice: FaceLattice) -> dict:
    p = lattice.polytope
    return {
        "name": p.name,
        "vertices": [[rational_str(c) for c in v] for v in p.vertices],
        "faces": [vertex_list(f) for f in lattice.faces if f],
    }


def polytope_from_json(data) -> FaceLattice:
    """The lattice of a decoded polytope JSON object; a malformed one raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError("polytope JSON must be an object")
    if "vertices" not in data:
        raise ValueError("polytope JSON needs a 'vertices' field")
    if not isinstance(data["vertices"], list) or not all(isinstance(v, list) for v in data["vertices"]):
        raise ValueError("polytope JSON 'vertices' must be a list of coordinate lists")
    name = data.get("name", "polytope")
    if not isinstance(name, str):
        raise ValueError("polytope JSON 'name' must be a string")
    faces = data.get("faces")
    if faces is not None and not isinstance(faces, list):
        raise ValueError("polytope JSON 'faces' must be a list of vertex index lists")
    return polytope_from_vertices(name, data["vertices"], faces)
