"""Convex polytopes, exact facet enumeration, and face lattices.

A polytope is stored as a tuple of rational vertex points together with its
full face lattice: every face (including the empty face, with dimension -1,
and the polytope itself) identified by its vertex index set. Every proper
face is an intersection of facets, so the lattice is built from the facets'
vertex sets alone (V. Kaibel, M. E. Pfetsch, "Computing the face lattice of a
polytope from its vertex-facet incidences", Comput. Geom. 23, 2002): closure
under intersection on ``int`` masks, dimensions from the grading, and
subfaces and covers from each face's intersections with the facets.

The builtin families (simplex, cube, cross, pyramid, prism, bipyramid) list
their facets combinatorially. Supplied ``faces`` generate the lattice the
same way, and each face's grading is checked against its affine rank.
Coordinate inputs go through brute-force supporting-hyperplane enumeration
over integer homogeneous coordinates: C(n, d) candidate planes, each tested
against all n vertices. It is exact, and takes under a second for 40 points
in dimension 3, 24 in dimension 4 or 16 in dimension 5 on one core of a
2-vCPU x86 machine under Python 3.11.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Sequence

from .geometry import (
    GeometryError,
    Hyperplane,
    Point,
    barycenter,
    homogenize,
    integer_plane_through,
    integer_rank,
    integer_side,
    matrix_rank,
    plane_to_hyperplane,
    point,
    rational_str,
    solve_linear,
    vsub,
)

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


@dataclass(frozen=True)
class Face:
    id: int
    vertices: frozenset[int]
    dim: int


class FaceLattice:
    """All faces of a polytope, ordered by inclusion of vertex sets.

    Built from generators (the facets, or the supplied faces) on ``int``
    vertex masks, bit i for vertex i. Every face is an intersection of
    generators, so the faces are closed under intersection top down from the
    full vertex set: each face is ANDed once with each generator, and its
    intersections with the generators not containing it, plus the empty face,
    are its *children*. Every proper subface of a face lies in one of its
    children.

    - A face's dimension comes from the grading: 1 + the largest dimension
      of its children, the empty face at -1. On a face lattice this is the
      affine dimension, and no rank is computed.
    - Faces are sorted by (dimension, vertex tuple) and identified by their
      position in that order, so face ids are deterministic. Id 0 is always
      the empty face and the last id is the full vertex set, since a child
      has a smaller dimension than its face.
    - Subfaces are face-id masks OR-ed bottom up over the children. The
      covers of a face are its maximal proper subfaces: the children under
      no other child, which on a face lattice are the children one
      dimension down.
    """

    def __init__(self, polytope: Polytope, generators: Iterable[int]):
        self.polytope = polytope
        self.dim = polytope.dim
        gens = set(generators)
        children: dict[int, set[int]] = {}
        todo = [(1 << len(polytope.vertices)) - 1]
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
        verts = {f: _bits(f, range(len(polytope.vertices))) for f in children}
        order = sorted(children, key=lambda f: (dims[f], verts[f]))
        ids = tuple(range(len(order)))
        self.faces: tuple[Face, ...] = tuple(
            Face(i, frozenset(verts[f]), dims[f]) for i, f in zip(ids, order)
        )
        self._id_by_vertices = {f.vertices: f.id for f in self.faces}
        by_dim: dict[int, list[int]] = {}
        for f in self.faces:
            by_dim.setdefault(f.dim, []).append(f.id)
        self.by_dim = {d: tuple(ids) for d, ids in by_dim.items()}
        id_of = dict(zip(order, ids))
        below = [0] * len(order)  # proper subfaces of each face, as a face-id mask
        subfaces, covers = [], []
        for i, f in enumerate(order):
            kids = under = 0
            for k in map(id_of.__getitem__, children[f]):
                kids |= 1 << k
                under |= below[k]
            below[i] = kids | under
            subfaces.append(_bits(below[i], ids))
            covers.append(_bits(kids & ~under, ids))
        self._subfaces = tuple(subfaces)
        self._covers = tuple(covers)

    @property
    def empty(self) -> Face:
        return self.faces[0]

    @property
    def top(self) -> Face:
        return self.faces[-1]

    def face_id(self, vertices: frozenset[int]) -> int:
        return self._id_by_vertices[frozenset(vertices)]

    def is_face(self, vertices: frozenset[int]) -> bool:
        return frozenset(vertices) in self._id_by_vertices

    def subface_ids(self, fid: int, include_empty: bool = False) -> tuple[int, ...]:
        """Ids of the proper subfaces of face ``fid`` (excluding ``fid`` itself)."""
        ids = self._subfaces[fid]
        return ids if include_empty else ids[1:]

    def cover_ids(self, fid: int) -> tuple[int, ...]:
        """Ids of the maximal proper subfaces of face ``fid``; (0,) for a vertex."""
        return self._covers[fid]

    def faces_of_dim(self, d: int) -> tuple[Face, ...]:
        return tuple(self.faces[i] for i in self.by_dim.get(d, ()))

    def facet_ids(self) -> tuple[int, ...]:
        return self.by_dim.get(self.dim - 1, ())

    def proper_face_vertex_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(f.vertices for f in self.faces[:-1])

    def face_counts(self) -> dict[int, int]:
        return {d: len(ids) for d, ids in self.by_dim.items()}

    def __len__(self) -> int:
        return len(self.faces)


def _bits(mask: int, names: Sequence[int]) -> tuple[int, ...]:
    """``names[i]`` for each set bit i of ``mask``, ascending.

    Taking the ints from ``names`` shares one object per id among all the
    tuples, where each new int would take 28 bytes.
    """
    digits = bin(mask)[:1:-1]  # bit i at position i
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(names[i])
        i = digits.find("1", i + 1)
    return tuple(out)


def _mask(vertices) -> int:
    return sum(1 << i for i in vertices)


# ---------------------------------------------------------------------------
# Construction from coordinates.

def _hull_coordinates(pts: list[Point]) -> tuple[list[Point], int]:
    """Re-coordinatize points inside their affine hull (exact affine bijection)."""
    p0 = pts[0]
    diffs = [vsub(p, p0) for p in pts]
    rank = matrix_rank(diffs)
    ambient = len(p0)
    if rank == ambient:
        return pts, rank
    basis: list[tuple[Fraction, ...]] = []
    for dvec in diffs:
        if len(basis) == rank:
            break
        if matrix_rank(basis + [dvec]) > len(basis):
            basis.append(dvec)
    if not basis:
        return [() for _ in pts], 0
    cols = [[b[j] for b in basis] for j in range(ambient)]
    new_pts = []
    for p in pts:
        sol = solve_linear(cols, list(vsub(p, p0)))
        assert sol is not None
        new_pts.append(tuple(sol[0]))
    return new_pts, rank


def enumerate_facets(p: Polytope) -> list[tuple[Hyperplane, frozenset[int]]]:
    """Exact supporting hyperplanes of a full-dimensional polytope.

    Every hyperplane spanned by ``dim`` affinely independent vertices is kept
    iff all vertices lie weakly on one side of it; its incident vertex set
    holds the vertices that span it, so it has affine rank dim - 1. Results
    are deduplicated by the canonical hyperplane form and returned in a
    deterministic order.
    """
    verts = p.vertices
    d = p.dim
    if d != p.ambient_dim:
        raise GeometryError("facet enumeration requires hull coordinates")
    if d == 0:
        return []
    if len(verts) < d + 1:
        raise GeometryError(f"a {d}-polytope needs at least {d + 1} vertices, got {len(verts)}")
    hv = [homogenize(v) for v in verts]
    seen: dict[tuple[int, ...], frozenset[int] | None] = {}
    for combo in combinations(hv, d):
        plane = integer_plane_through(combo)
        if plane is None or plane in seen:
            continue
        sides = [integer_side(plane, h) for h in hv]
        keep = all(s >= 0 for s in sides) or all(s <= 0 for s in sides)
        seen[plane] = frozenset(i for i, s in enumerate(sides) if s == 0) if keep else None
    found = [(plane_to_hyperplane(plane), vs) for plane, vs in seen.items() if vs is not None]
    found.sort(key=lambda hf: (tuple(sorted(hf[1])), hf[0].normal, hf[0].offset))
    return found


def build_face_lattice(
    p: Polytope, face_sets: list[Iterable[int]] | None = None
) -> FaceLattice:
    """Face lattice of a polytope, from supplied faces or by hull search.

    When ``face_sets`` is given (maximal faces per dimension, or the full
    list), hyperplane enumeration is skipped and the given sets generate the
    lattice. Each must list vertex indices, and each face of the closure must
    have the affine dimension its grading gives it; otherwise the sets are
    not a face lattice, and a GeometryError names the face. Without
    ``face_sets``, the enumerated facets generate the lattice, and every
    vertex is checked to be extremal (its active facet normals must span the
    full dimension).
    """
    if face_sets is not None:
        lattice = FaceLattice(p, [_face_mask(p, face) for face in face_sets])
        hv = [homogenize(v) for v in p.vertices]
        for f in lattice.faces[1:]:
            rank = integer_rank([hv[i] for i in f.vertices])
            if rank - 1 != f.dim:
                raise GeometryError(
                    f"faces of {p.name!r} are not a face lattice: face {sorted(f.vertices)} has "
                    f"dimension {rank - 1}, but the faces inside it grade it as {f.dim}"
                )
        return lattice
    facets = enumerate_facets(p)
    d = p.dim
    if d > 0:
        for i in range(len(p.vertices)):
            active = [list(h.normal) for h, vs in facets if i in vs]
            if matrix_rank(active) != d:
                raise GeometryError(f"vertex {i} of {p.name!r} is not extremal")
    return FaceLattice(p, [_mask(vs) for _, vs in facets])


def _face_mask(p: Polytope, face) -> int:
    n = len(p.vertices)
    if not isinstance(face, (list, tuple, set, frozenset)) or not all(
        type(i) is int and 0 <= i < n for i in face
    ):
        raise GeometryError(f"face {face!r} of {p.name!r} must list vertex indices in [0, {n - 1}]")
    return _mask(set(face))


def polytope_from_vertices(name, coords, face_sets=None) -> FaceLattice:
    """Build a polytope (projected into its affine hull) and its lattice."""
    pts = [point(c) for c in coords]
    if not pts:
        raise GeometryError("a polytope needs at least one vertex")
    if len({len(c) for c in pts}) != 1:
        raise GeometryError("vertices have mixed ambient dimensions")
    if len(set(pts)) != len(pts):
        raise GeometryError("vertices must be pairwise distinct")
    hull_pts, dim = _hull_coordinates(pts)
    if len(set(hull_pts)) != len(hull_pts):
        raise GeometryError("vertices must be pairwise distinct")
    return build_face_lattice(Polytope(name, tuple(hull_pts), dim), face_sets)


# ---------------------------------------------------------------------------
# Builtin families (facets listed combinatorially, no hull search).

def _simplex(d: int) -> FaceLattice:
    zero = tuple(Fraction(0) for _ in range(d))
    verts = [zero] + [
        tuple(Fraction(1 if j == i else 0) for j in range(d)) for i in range(d)
    ]
    full = (1 << d + 1) - 1
    facets = [full ^ 1 << i for i in range(d + 1)]
    return FaceLattice(Polytope(f"simplex:{d}", tuple(verts), d), facets)


def _cube(d: int) -> FaceLattice:
    verts = [tuple(Fraction(b) for b in bits) for bits in product((0, 1), repeat=d)]
    full = (1 << len(verts)) - 1
    facets = []
    for j in range(d):
        # vertex i has coordinate j equal to bit d - 1 - j of i
        ones = _mask(i for i in range(len(verts)) if i >> d - 1 - j & 1)
        facets += [full ^ ones, ones]
    return FaceLattice(Polytope(f"cube:{d}", tuple(verts), d), facets)


def _cross(d: int) -> FaceLattice:
    verts = []
    for i in range(d):
        for sign in (1, -1):
            verts.append(tuple(Fraction(sign if j == i else 0) for j in range(d)))
    # vertex 2a + s is +e_a for s = 0 and -e_a for s = 1; a facet picks one per axis
    facets = [_mask(2 * a + s for a, s in enumerate(signs)) for signs in product((0, 1), repeat=d)]
    return FaceLattice(Polytope(f"cross:{d}", tuple(verts), d), facets)


def _lift(v: Point, last) -> Point:
    return tuple(v) + (Fraction(last),)


def _base_facets(base: FaceLattice) -> list[int]:
    return [_mask(base.faces[i].vertices) for i in base.facet_ids()]


def _pyramid(base: FaceLattice) -> FaceLattice:
    bp = base.polytope
    apex = 1 << len(bp.vertices)
    verts = [_lift(v, 0) for v in bp.vertices]
    verts.append(_lift(barycenter(bp.vertices), 1))
    facets = [apex - 1] + [g | apex for g in _base_facets(base)]  # the base, and cones
    p = Polytope(f"pyramid:{bp.name}", tuple(verts), bp.dim + 1)
    return FaceLattice(p, facets)


def _prism(base: FaceLattice) -> FaceLattice:
    bp = base.polytope
    nb = len(bp.vertices)
    verts = [_lift(v, 0) for v in bp.vertices] + [_lift(v, 1) for v in bp.vertices]
    full = (1 << nb) - 1
    facets = [full, full << nb] + [g | g << nb for g in _base_facets(base)]
    p = Polytope(f"prism:{bp.name}", tuple(verts), bp.dim + 1)
    return FaceLattice(p, facets)


def _bipyramid(base: FaceLattice) -> FaceLattice:
    bp = base.polytope
    nb = len(bp.vertices)
    verts = [_lift(v, 0) for v in bp.vertices]
    bary = barycenter(bp.vertices)
    verts.append(_lift(bary, 1))
    verts.append(_lift(bary, -1))
    facets = [g | 1 << tip for g in _base_facets(base) for tip in (nb, nb + 1)]
    p = Polytope(f"bipyramid:{bp.name}", tuple(verts), bp.dim + 1)
    return FaceLattice(p, facets)


# dimension caps bound the face count (2^11 for simplex:10, 3^7 + 1 for cube:7 and
# cross:7); the later pipeline stages, not the lattice, are what they keep snappy
_BASIC_FAMILIES = {"simplex": (_simplex, 0, 10), "cube": (_cube, 0, 7), "cross": (_cross, 1, 7)}
_COMPOUND_FAMILIES = {"pyramid": _pyramid, "prism": _prism, "bipyramid": _bipyramid}
_BASE_ALIASES = {"square": "cube:2", "triangle": "simplex:2", "segment": "simplex:1"}


def builtin(family: str, dim: int | None = None, base: FaceLattice | None = None) -> FaceLattice:
    """Construct a builtin polytope family member with its combinatorial lattice."""
    if family in _BASIC_FAMILIES:
        ctor, min_dim, max_dim = _BASIC_FAMILIES[family]
        if dim is None or dim < min_dim or dim > max_dim:
            raise ValueError(f"{family} requires a dimension in [{min_dim}, {max_dim}]")
        return ctor(dim)
    if family in _COMPOUND_FAMILIES:
        if base is None:
            raise ValueError(f"{family} requires a base polytope")
        if base.polytope.dim != base.polytope.ambient_dim:
            raise ValueError(f"{family} base must be full-dimensional in its coordinates")
        return _COMPOUND_FAMILIES[family](base)
    raise ValueError(f"unknown builtin family {family!r}")


def parse_builtin(spec: str) -> FaceLattice:
    """Parse a builtin spec like "cube:3", "pyramid:square" or "bipyramid:cross:3"."""
    spec = _BASE_ALIASES.get(spec, spec)
    family, sep, rest = spec.partition(":")
    if not sep:
        raise ValueError(f"builtin spec {spec!r} must look like family:dim or family:base")
    if family in _BASIC_FAMILIES:
        try:
            d = int(rest)
        except ValueError:
            raise ValueError(f"invalid dimension {rest!r} in builtin spec {spec!r}") from None
        return builtin(family, d)
    if family in _COMPOUND_FAMILIES:
        return builtin(family, base=parse_builtin(rest))
    raise ValueError(f"unknown builtin family {family!r}")


# ---------------------------------------------------------------------------
# JSON interchange.

def polytope_to_json(lattice: FaceLattice) -> dict:
    p = lattice.polytope
    return {
        "name": p.name,
        "vertices": [[rational_str(c) for c in v] for v in p.vertices],
        "faces": [sorted(f.vertices) for f in lattice.faces if f.vertices],
    }


def polytope_from_json(data: dict) -> FaceLattice:
    if "vertices" not in data:
        raise ValueError("polytope JSON needs a 'vertices' field")
    name = data.get("name", "polytope")
    faces = data.get("faces")
    if faces is not None and not isinstance(faces, list):
        raise ValueError("polytope JSON 'faces' must be a list of vertex index lists")
    return polytope_from_vertices(name, data["vertices"], faces)
