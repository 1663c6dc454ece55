"""Pointed triangulations built from a generic linear functional.

Each nonempty face F of the polytope gets an apex: the vertex minimizing the
functional over F. Simplices are the convex hulls of apex sets along strictly
decreasing chains of faces G_1 > G_2 > ... with the apex of each G_i outside
G_{i+1}; the triangulation of a face is the union over chains inside that
face, closed by the empty simplex. Chains are enumerated bottom-up over the
lattice with one memoized simplex set per face, and duplicate simplices from
different chains are merged by vertex set.

Construction works on ``int`` vertex masks (bit i for vertex i): a chain
grows by ``s | 1 << apex`` over the complexes of the face's covers (its
maximal proper subfaces) that miss the apex, and each face's complex is its
own chains united with the complexes of all its covers. On a face lattice
every subface missing the apex lies in a cover missing it, since each face
is the intersection of the facets containing it. Every
distinct mask becomes one ``frozenset`` once, and all per-face complexes
share those objects. Pointedness condition 1 needs one lookup per
simplex missing the apex, s | {apex}, and runs the full maximality test only
where that lookup fails.

Complexes throughout the package are plain sets of ``frozenset[int]`` vertex
index sets, with ``frozenset()`` standing for the empty simplex.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import combinations, groupby

from .geometry import (
    LinearFunctional,
    evaluate_functional,
    homogenize,
    integer_plane_through,
    integer_side,
)
from .lattice import FaceLattice, pick

Simplex = frozenset[int]
Complex = frozenset[Simplex]


class GenericityError(ValueError):
    """A functional or point assumed generic turned out not to be."""


@dataclass(frozen=True)
class ApexAssignment:
    """Apex vertex per nonempty face id, induced by a generic functional."""

    functional: LinearFunctional
    apex: dict[int, int]


@dataclass(frozen=True)
class RidgePlanes:
    """The hyperplane of every facet of every maximal simplex, computed once.

    ``planes`` maps each ridge to its canonical hyperplane as an integer
    vector (``geometry.integer_plane_through``), or to None when the ridge's
    vertices span no hyperplane. ``facets`` lists for each maximal simplex, by
    increasing opposite vertex, (opposite vertex, ridge, plane, side of the
    opposite vertex), the side 0 when the plane is missing. ``complete``
    holds when every maximal simplex has dim + 1 vertices and every ridge is
    a simplex of the complex with a plane: then every simplex with at most dim
    vertices lies in a ridge, and its affine hull in that ridge's plane.
    """

    planes: dict[Simplex, tuple[int, ...] | None]
    facets: dict[Simplex, tuple[tuple[int, Simplex, tuple[int, ...] | None, int], ...]]
    complete: bool


@dataclass(frozen=True)
class PointedTriangulation:
    lattice: FaceLattice
    apexes: ApexAssignment
    simplices: Complex
    per_face: dict[int, Complex]
    maximal: tuple[Simplex, ...]
    pointed: PointedCertificate | None = None  # set when construction verified pointedness

    @property
    def dim(self) -> int:
        return self.lattice.dim

    @cached_property
    def ridge_planes(self) -> RidgePlanes:
        """Built on first use and kept with the triangulation, shared by all points."""
        return _ridge_planes(self)

    @property
    def apex_vertex(self) -> int:
        """Apex of the polytope itself (the global functional's argmin)."""
        return self.apexes.apex[self.lattice.top.id]

    def vertex_points(self, s: Simplex):
        verts = self.lattice.polytope.vertices
        return [verts[i] for i in sorted(s)]


@dataclass(frozen=True)
class ComplexSplit:
    boundary: Complex
    interior: Complex


@dataclass(frozen=True)
class PointedCertificate:
    ok: bool
    condition: int | None = None
    detail: str = ""


def generic_functional(lattice_or_polytope, seed: int = 0) -> LinearFunctional:
    """A functional taking pairwise distinct values on the polytope's vertices.

    Tries the weight vector (1, M, M^2, ...) with M = 1 + the largest
    per-coordinate spread, which provably separates points with integer
    coordinates; if verification fails (possible for fractional coordinates),
    falls back to seeded random integer coefficients over a growing range.
    """
    p = getattr(lattice_or_polytope, "polytope", lattice_or_polytope)
    verts = p.vertices
    amb = p.ambient_dim
    spread = Fraction(0)
    for j in range(amb):
        col = [v[j] for v in verts]
        spread = max(spread, max(col) - min(col))
    m = spread + 1
    candidate = tuple(m**j for j in range(amb))
    if _separates(candidate, verts):
        return candidate
    rng = random.Random(seed)
    bound = 16
    for _ in range(64):
        candidate = tuple(Fraction(rng.randint(-bound, bound)) for _ in range(amb))
        if _separates(candidate, verts):
            return candidate
        bound *= 2
    raise RuntimeError("could not find a separating functional")


def _separates(c: LinearFunctional, verts) -> bool:
    values = [evaluate_functional(c, v) for v in verts]
    return len(set(values)) == len(values)


def assign_apexes(lattice: FaceLattice, c: LinearFunctional) -> ApexAssignment:
    """Apex of every nonempty face: the strict argmin of the functional.

    The vertices are ranked once by (value, index). Going down that ranking,
    each vertex is the apex of the faces holding it that no earlier vertex
    took: one AND of face-id masks per vertex. A face ties when it also holds
    a later vertex of its apex's value; the first such face in face order
    raises.
    """
    verts = lattice.polytope.vertices
    value = [evaluate_functional(c, v) for v in verts]
    ranked = sorted(range(len(verts)), key=lambda i: (value[i], i))
    apex: dict[int, int] = dict.fromkeys(range(1, len(lattice)))  # keys in face order
    left = (1 << len(lattice)) - 2  # the nonempty faces without an apex yet
    tied = 0
    for _, twins in groupby(ranked, key=value.__getitem__):
        twins = list(twins)
        for k, v in enumerate(twins):
            mine = lattice.with_vertex[v] & left
            left ^= mine
            for fid in pick(mine, range(len(lattice))):
                apex[fid] = v
            for w in twins[k + 1:]:
                tied |= mine & lattice.with_vertex[w]
    if tied:
        first = lattice.faces[(tied & -tied).bit_length() - 1]
        raise GenericityError(
            f"functional is not generic: duplicate minimum on face {sorted(first.vertices)}"
        )
    return ApexAssignment(c, apex)


def build_pointed_triangulation(
    lattice: FaceLattice, apexes: ApexAssignment, verify: bool = True
) -> PointedTriangulation:
    """Construct the pointed triangulation determined by an apex assignment.

    With ``verify`` (the debug profile, and the default) the three pointedness
    conditions are checked after construction and a violation raises; the
    passing certificate is kept as ``pointed``.
    """
    # complexes[i]: the vertex masks of face i's complex, in face order
    complexes: list[set[int]] = [{0}]
    for f in lattice.faces[1:]:
        v = apexes.apex[f.id]
        bit = 1 << v
        covers = lattice.covers[f.id]
        chain = {bit}
        for c in pick(covers & ~lattice.with_vertex[v], complexes):
            chain.update(map(bit.__or__, c))
        complexes.append(chain.union(*pick(covers, complexes)))
    simplex_of = _SimplexOf({0: frozenset()})  # shared by every complex holding a simplex
    per_face: dict[int, Complex] = {
        f.id: frozenset(map(simplex_of.__getitem__, complexes[f.id])) for f in lattice.faces[1:]
    }
    top_masks = complexes[lattice.top.id]
    # a simplex is maximal when it is no facet of another simplex of the
    # complex; the empty simplex is a facet of the top face's apex
    facets = {m ^ (1 << v) for m in top_masks for v in simplex_of[m]}
    top = per_face[lattice.top.id]
    maximal = tuple(sorted(map(simplex_of.__getitem__, top_masks - facets), key=_simplex_key))
    tri = PointedTriangulation(lattice, apexes, top, per_face, maximal)
    if not verify:
        return tri
    cert = verify_pointed(tri)
    if not cert.ok:
        raise GenericityError(f"construction violated pointedness condition {cert.condition}: {cert.detail}")
    return replace(tri, pointed=cert)


def _ridge_planes(tri: PointedTriangulation) -> RidgePlanes:
    hv = [homogenize(p) for p in tri.lattice.polytope.vertices]
    planes: dict[Simplex, tuple[int, ...] | None] = {}
    facets = {}
    for f in tri.maximal:
        entries = []
        for v in sorted(f):
            g = f - {v}
            if g not in planes:
                planes[g] = integer_plane_through([hv[i] for i in g])
            plane = planes[g]
            entries.append((v, g, plane, 0 if plane is None else integer_side(plane, hv[v])))
        facets[f] = tuple(entries)
    complete = all(len(f) == tri.dim + 1 for f in tri.maximal) and all(
        plane is not None and g in tri.simplices for g, plane in planes.items()
    )
    return RidgePlanes(planes, facets, complete)


def _simplex_key(s: Simplex):
    return (len(s), tuple(sorted(s)))


class _SimplexOf(dict):
    """Vertex mask -> its simplex, each built once: the simplex of the mask
    less its lowest bit, plus that bit's vertex."""

    def __missing__(self, mask: int) -> Simplex:
        rest = mask & (mask - 1)
        s = self[rest] | {(mask ^ rest).bit_length() - 1}
        self[mask] = s
        return s


def is_simplicial_complex(complex_: Complex | set[Simplex], exhaustive: bool = False) -> bool:
    """Closure under subsets, and (optionally) all pairwise intersections present."""
    members = set(complex_)
    if not members:
        return True
    if frozenset() not in members:
        return False
    for s in members:
        for v in s:
            if (s - {v}) not in members:
                return False
    if exhaustive:
        for s, t in combinations(members, 2):
            if (s & t) not in members:
                return False
    return True


def verify_pointed(tri: PointedTriangulation) -> PointedCertificate:
    """Check the three pointedness conditions; reports the first violation.

    1. Every maximal simplex of each face's triangulation contains that
       face's apex.
    2. If the apexes of two faces both lie in the intersection of those
       faces, they coincide.
    3. For each face F, every edge from the apex of F to another vertex of F
       belongs to F's triangulation.

    Condition 1 needs the maximality test only for a simplex s missing the
    apex v whose extension s | {v} is not in the complex: when it is, s is
    not maximal. On a pointed triangulation every simplex missing v lies in a
    maximal simplex holding v, so that lookup settles every simplex. Of the
    violating simplices of the first violating face, the smallest by (size,
    sorted vertices) is reported.

    Condition 2 is checked only on nested pairs: each proper subface G of F
    that contains apex(F) must have apex(G) = apex(F). Per face that is one
    AND of face-id masks, the subfaces of F holding apex(F) less the faces
    apexed there, and the lowest set bit is the G reported. The nested check
    is the pairwise condition, since every apex lies in its face. A nested violation is a
    pair whose intersection G holds both apexes. Conversely, if two distinct
    apexes v1, v2 of faces f1, f2 lie in H = f1 & f2, then H is a face (the
    lattice is closed under intersection) and apex(H) differs from some v_i;
    so H is a proper subface of f_i containing apex(f_i) with another apex.
    """
    lattice = tri.lattice
    apex = tri.apexes.apex
    for f in lattice.faces[1:]:
        cf = tri.per_face[f.id]
        v = apex[f.id]
        with_v = frozenset((v,))
        unsure = [s for s in cf if s and v not in s and s | with_v not in cf]
        if not unsure:
            continue
        pool = frozenset().union(*cf)
        missed = [s for s in unsure if not any(s | {w} in cf for w in pool - s)]
        if missed:
            s = min(missed, key=_simplex_key)
            return PointedCertificate(
                False, 1, f"maximal simplex {sorted(s)} of face {sorted(f.vertices)} misses apex {v}"
            )
    apexed = [0] * len(lattice.polytope.vertices)  # face-id mask of the faces apexed at each vertex
    for fid, v in apex.items():
        apexed[v] |= 1 << fid
    for f in lattice.faces[1:]:
        v = apex[f.id]
        wrong = lattice.below[f.id] & lattice.with_vertex[v] & ~apexed[v]
        if wrong:
            gid = (wrong & -wrong).bit_length() - 1
            return PointedCertificate(
                False, 2, f"faces {sorted(lattice.faces[gid].vertices)} and {sorted(f.vertices)} share both apexes {apex[gid]}, {v}"
            )
    for f in lattice.faces[1:]:
        cf = tri.per_face[f.id]
        v = apex[f.id]
        for w in f.vertices - {v}:
            if frozenset({v, w}) not in cf:
                return PointedCertificate(
                    False, 3, f"edge [{v}, {w}] missing from triangulation of face {sorted(f.vertices)}"
                )
    return PointedCertificate(True)


def split_boundary_interior(tri: PointedTriangulation) -> ComplexSplit:
    """Partition the triangulation into boundary and interior simplices.

    A simplex is boundary iff its vertex set lies inside some proper face of
    the polytope; testing against facets suffices since every proper face is
    contained in one.
    """
    lattice = tri.lattice
    if lattice.dim >= 1:
        targets = [lattice.faces[i].vertices for i in lattice.facet_ids()]
    else:
        targets = [frozenset()]
    boundary = frozenset(s for s in tri.simplices if any(s <= t for t in targets))
    interior = frozenset(tri.simplices - boundary)
    return ComplexSplit(boundary, interior)


def star(v: int, complex_: Complex | set[Simplex]) -> set[Simplex]:
    """All faces containing v, and their faces."""
    members = set(complex_)
    if frozenset({v}) not in members:
        raise ValueError(f"vertex {v} is not in the complex")
    return {s for s in members if (s | {v}) in members}


def link(v: int, complex_: Complex | set[Simplex]) -> set[Simplex]:
    """Faces of the star of v that do not contain v."""
    return {s for s in star(v, complex_) if v not in s}


def boundary_ridge_counts(tri: PointedTriangulation) -> dict[Simplex, int]:
    """How many maximal simplices contain each (d-1)-simplex of the complex."""
    counts: dict[Simplex, int] = {}
    for s in tri.maximal:
        for v in s:
            r = s - {v}
            counts[r] = counts.get(r, 0) + 1
    return counts


def pseudomanifold_certificate(tri: PointedTriangulation, split: ComplexSplit) -> tuple[bool, str]:
    """Boundary ridges must lie in exactly 1 maximal simplex, interior ones in 2."""
    d = tri.dim
    if d == 0:
        return True, ""
    counts = boundary_ridge_counts(tri)
    ridges = {s for s in tri.simplices if len(s) == d}
    if set(counts) != ridges:
        missing = sorted(sorted(s) for s in ridges.symmetric_difference(counts))
        return False, f"ridge set mismatch: {missing[:3]}"
    for r, c in counts.items():
        expected = 1 if r in split.boundary else 2
        if c != expected:
            return False, f"ridge {sorted(r)} lies in {c} maximal simplices, expected {expected}"
    return True, ""


def triangulation_to_json(tri: PointedTriangulation, split: ComplexSplit | None = None) -> dict:
    if split is None:
        split = split_boundary_interior(tri)
    def listed(c):
        return [sorted(s) for s in sorted(c, key=_simplex_key) if s]
    return {
        "apexes": {str(fid): v for fid, v in sorted(tri.apexes.apex.items())},
        "simplices": listed(tri.simplices),
        "boundary": listed(split.boundary),
        "interior": listed(split.interior),
    }
