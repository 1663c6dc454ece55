"""Pointed triangulations built from one strict ranking of the vertices.

Each nonempty face F of the polytope gets an apex: the first vertex of F in
``vertex_order``. The triangulation is the pulling triangulation (J. A. De
Loera, J. Rambau, F. Santos, *Triangulations*, 2010, section 4.3): a face's
complex is its apex joined to the complexes of its subfaces that miss the
apex, together with the complexes of all its subfaces.

Every simplex has one carrier, the smallest face that holds it, and is built
once, there. The empty face carries the empty simplex; a face f with apex v
carries v joined to every simplex carried by a face g below f that misses v
and lies in no cover of f holding v, so that f is the smallest face holding
g and v. On a face lattice every subface missing the apex lies in a cover
missing it, since each face is the intersection of the facets containing
it, so when pointedness condition 2 holds the simplices carried inside a
face are that face's complex. The polytope's complex is the disjoint union
of what the faces carry; its interior is what the polytope itself carries,
and its boundary the rest, never stored. No face's complex is built.

Simplices are ``int`` vertex masks (bit i for vertex i, 0 the empty simplex)
from construction to the claim records, like the faces, and complexes are
sets of them. Faces are read by id from ``FaceLattice.faces``, ``below``,
``with_vertex`` and ``covers``. Condition 2 reads only the apexes and is
checked first; conditions 1 and 3 once on the whole complex, whose
restriction to a face is that face's complex. Each check raises ``GenericityError`` where it finds a
violation.

The maximal simplices are the apex sets of the flags of faces from the
polytope down to a vertex, each step a cover missing the apex: one walk
over ``covers`` lists them (``_flag_leaves``). Closure under subsets is one
mask test per vertex on the faces joined to it during the build
(``_closed``), with a lookup of every simplex's facets only when it fails.
One walk down the same flags reads a point's barycentric signs in all the
maximal simplices (``exterior_lower_sets``), one facet plane per step
(``FlagSteps``), read from the lattice's ``planes``.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain
from math import lcm
from operator import and_, mul
from typing import Sequence

from .lattice import FaceLattice, pick, vertex_list

Simplex = int
Complex = frozenset[Simplex]
Apexes = tuple[int | None, ...]  # the apex of each face by face id, None for the empty face


class GenericityError(RuntimeError):
    """A point assumed generic turned out not to be, or a construction not pointed.

    Every raiser is one of the program's own searches or checks, so this is a
    failed stage, never an input error.
    """


@dataclass(frozen=True)
class PointedTriangulation:
    """The polytope's own complex (each face's is its restriction to the face), its
    ``interior``, the simplices inside no facet (the boundary is the rest), its
    ``maximal`` simplices, the apex sets of the flags sorted by (size, vertices),
    and whether it is ``closed`` under subsets."""

    lattice: FaceLattice
    apexes: Apexes
    simplices: Complex
    interior: Complex
    maximal: tuple[Simplex, ...]
    closed: bool

    @property
    def dim(self) -> int:
        return self.lattice.dim

    @cached_property
    def flag_steps(self) -> FlagSteps:
        """Built on first use and kept with the triangulation, shared by all points."""
        return FlagSteps(self)

    @property
    def apex_vertex(self) -> int:
        """Apex of the polytope itself (the first vertex of the ranking)."""
        return self.apexes[self.lattice.top]


class FlagSteps(dict):
    """The steps of the flag walks by face id, each computed on first use.

    A face f with apex a steps to each nonempty cover g that misses a,
    through the plane l of the first facet in ``facet_ids()`` order, the
    lowest facet id, that holds g and misses a: the step is (g, l, l(a)).
    The planes are the lattice's (``FaceLattice.plane``), each made once per
    lattice, whichever triangulation asks first.
    """

    def __init__(self, tri: PointedTriangulation):
        super().__init__()
        self.lattice, self.apexes = tri.lattice, tri.apexes

    def __missing__(self, fid: int) -> tuple[tuple[int, tuple[int, ...], int], ...]:
        lat, a, out = self.lattice, self.apexes[fid], []
        faces, with_vertex = lat.faces, lat.with_vertex
        facets = sum(1 << i for i in lat.facet_ids()) & ~with_vertex[a]  # the facets missing a, by id
        for g in lat.covers[fid]:
            if not g or with_vertex[a] >> g & 1:
                continue
            apart = reduce(and_, pick(faces[g], with_vertex), facets)
            if not apart:
                raise RuntimeError(
                    f"no facet holds face {vertex_list(faces[g])} and misses apex {a} of face "
                    f"{vertex_list(faces[fid])}"
                )
            facet = faces[(apart & -apart).bit_length() - 1]
            plane = lat.plane(facet)
            la = sum(map(mul, plane, lat.polytope.hv[a]))
            if not la:
                raise RuntimeError(f"apex {a} lies on the plane of facet {vertex_list(facet)}")
            out.append((g, plane, la))
        self[fid] = out = tuple(out)
        return out


def vertex_order(polytope) -> tuple[int, ...]:
    """The vertex indices ranked by a rule that never ties; apexes are first in it.

    The rank is the value of (1, M, M^2, ...), M = 1 + the largest
    per-coordinate spread, where those values are pairwise distinct, as they
    always are for integer coordinates. Otherwise it is the order of the
    coordinates read last to first. That is the order of (1, M', M'^2, ...),
    M' = 1 + L * spread with L the lcm of the denominators: on the integer
    points L p, two distinct points differ by at most M' - 1 in each
    coordinate, so their last differing coordinate j decides the sign, as
    |sum_{i<j} M'^i delta_i| <= (M' - 1)(1 + ... + M'^(j-1)) = M'^j - 1 < M'^j.
    Scaling by L > 0 keeps the order, and vertices are distinct, so the
    ranking is strict.

    Both are read on the integer points L p, from the rows of ``Polytope.hv``:
    the weights (L M)^j L^(n-1-j) give L^n times the value of p, the same
    order and the same ties, with no ``Fraction`` arithmetic.
    """
    hv = polytope.hv
    den = lcm(*(h[0] for h in hv))
    rows = [[den // h[0] * c for c in h[1:]] for h in hv]
    lm = den + max((max(col) - min(col) for col in zip(*rows)), default=0)
    n = polytope.ambient_dim
    weights = [lm**j * den ** (n - 1 - j) for j in range(n)]
    value = [sum(map(mul, weights, r)) for r in rows]
    key = value.__getitem__ if len(set(value)) == len(value) else lambda i: rows[i][::-1]
    return tuple(sorted(range(len(rows)), key=key))


def assign_apexes(lattice: FaceLattice, order) -> Apexes:
    """Apex of every face by face id: its first vertex in ``order``, None for
    the empty face.

    Going down the ranking, each vertex is the apex of the faces holding it
    that no earlier vertex took: one AND of face-id masks per vertex. Raises
    ``ValueError`` unless ``order`` is a permutation of the vertex indices.
    """
    if sorted(order) != list(range(len(lattice.polytope.vertices))):
        raise ValueError(f"apex order {list(order)} is no permutation of the polytope's vertex indices")
    apex: list[int | None] = [None] * len(lattice)
    left = (1 << len(lattice)) - 2  # the nonempty faces without an apex yet
    for v in order:
        mine = lattice.with_vertex[v] & left
        left ^= mine
        for fid in pick(mine, range(len(lattice))):
            apex[fid] = v
    return tuple(apex)


def build_pointed_triangulation(lattice: FaceLattice, apexes: Apexes) -> PointedTriangulation:
    """Construct the pointed triangulation determined by the apexes.

    Condition 2 is checked first, then conditions 1 and 3 on the whole
    complex, and a violation raises, so every triangulation it returns is
    pointed. Each simplex is built once, at its carrier (``_carried``); the
    disjoint union of what the faces carry equals the union of the faces'
    complexes only because condition 2 holds. The interior is what the top
    face carries, the maximal simplices the flags' apex sets
    (``_flag_leaves``), and closure is tested on the faces joined to each
    vertex (``_closed``).
    """
    verify_pointed(lattice, apexes)
    carried, joined_to = _carried(lattice, apexes)
    simplices = frozenset(chain.from_iterable(carried))
    _verify_complex(lattice, apexes, carried, simplices)
    interior = frozenset(carried[-1])
    closed = _closed(lattice, joined_to, simplices)
    return PointedTriangulation(lattice, apexes, simplices, interior, _flag_leaves(lattice, apexes), closed)


def _carried(lattice: FaceLattice, apexes: Apexes) -> tuple[list[list[Simplex]], list[int]]:
    """The simplices each face carries, by face id: the empty simplex for the
    empty face, and for a face f with apex v, v joined to what each face g
    carries, g below f, missing v and in no cover of f that holds v. Beside
    them, by vertex v, the face-id mask of every such g joined to v.

    Those g are one face-id mask, whose ids are read lowest bit first.
    """
    below, covers, with_vertex = lattice.below, lattice.covers, lattice.with_vertex
    carried: list[list[Simplex]] = [[0]]
    joined_to = [0] * len(lattice.polytope.vertices)
    for fid in range(1, len(lattice)):
        v = apexes[fid]
        held = with_vertex[v]
        under = held  # faces holding v, or inside a cover of f that does
        for c in covers[fid]:
            if held >> c & 1:
                under |= below[c]
        bit = 1 << v
        joined: list[Simplex] = []
        rest = below[fid] & ~under
        joined_to[v] |= rest
        while rest:
            low = rest & -rest
            joined.extend(map(bit.__or__, carried[low.bit_length() - 1]))
            rest ^= low
        carried.append(joined)
    return carried, joined_to


def _closed(lattice: FaceLattice, joined_to: Sequence[int], simplices: Complex) -> bool:
    """Whether ``simplices``, what ``_carried`` built with the masks
    ``joined_to``, is closed under subsets.

    It is when the faces joined to each vertex v are a down-set, one AND per
    joined face. By induction on size, a facet of a carried v | t, t carried
    at g, is t or v | t' with t' a facet of t, carried at a face inside g (a
    carrier is the smallest face holding what it carries), so joined to v
    too. Under condition 2 the test always holds; only when it fails does
    ``_closed_by_scan`` decide.
    """
    below = lattice.below
    return all(not b & ~m for m in joined_to for b in pick(m, below)) or _closed_by_scan(simplices)


def _closed_by_scan(complex_: Complex) -> bool:
    """Closure under subsets by one lookup per facet of every simplex, the empty simplex included."""
    return 0 in complex_ and all(s ^ 1 << v in complex_ for s in complex_ for v in vertex_list(s))


def _flag_leaves(lattice: FaceLattice, apexes: Apexes) -> tuple[Simplex, ...]:
    """The apex sets of the flags P = F_d > ... > F_0 from the polytope down
    to a vertex, each F_(i-1) a cover of F_i that misses its apex, sorted by
    (size, vertices): one walk over ``covers``.

    Each has d + 1 vertices, the most a carried simplex has. The exterior
    partition's check (``partitions.visibility_partitions``) certifies them
    as the complex's maximal simplices: every leaf's interval lies in the
    complex and every simplex is in exactly one of them, so none is missed
    and none is listed twice.
    """
    covers, with_vertex, dims = lattice.covers, lattice.with_vertex, lattice.dims
    leaves: list[Simplex] = []
    stack = [(lattice.top, 0)]  # a face and the apexes above it
    while stack:
        fid, above = stack.pop()
        a = apexes[fid]
        if dims[fid]:
            stack.extend((g, above | 1 << a) for g in covers[fid] if not with_vertex[a] >> g & 1)
        else:
            leaves.append(above | 1 << a)
    return tuple(sorted(leaves, key=_simplex_key))


def exterior_lower_sets(tri: PointedTriangulation, hx: Sequence[int]) -> tuple[Simplex, ...]:
    """The exterior lower set G_F of every maximal simplex F, in ``maximal``
    order, at the point ``hx`` in homogeneous coordinates: the vertices of F
    where the point's barycentric coordinate is negative.

    Every maximal simplex is the apex set of a flag P = F_d > ... > F_0, each
    F_(i-1) a cover of F_i that misses its apex, so one depth-first walk of
    ``flag_steps`` reads them all. It carries an integer y in the span of
    the face reached, c times the point in the simplex's vertices' rows of
    ``Polytope.hv``, and the sign of c. At face F with apex a and cover G, the
    plane l of a facet that holds G and misses a vanishes on the rest of the
    simplex: a's coefficient has the sign of l(y) l(a) c, and
    y' = l(a) y - l(y) a lies in G's span, with c' = l(a) c. A zero
    coefficient puts the point on the affine hull of the apexes above a and
    G, a ridge plane of every simplex below, and raises ``GenericityError``;
    flags that end in other simplices than ``maximal``, no facet between G
    and a, or one through a raise ``RuntimeError``, and never happen on a
    face lattice.
    """
    steps = tri.flag_steps
    faces, dims, apexes, hv = tri.lattice.faces, tri.lattice.dims, tri.apexes, tri.lattice.polytope.hv
    leaves: list[tuple[Simplex, Simplex]] = []

    def down(fid, y, flip, above, lower):
        a = apexes[fid]
        bit, ha = 1 << a, hv[a]
        for g, plane, la in steps[fid]:
            ly = sum(map(mul, plane, y))
            if not ly:
                raise GenericityError(
                    f"point lies on the affine hull of apexes {vertex_list(above)} and face "
                    f"{vertex_list(faces[g])}"
                )
            below = lower | bit if (ly < 0) ^ (la < 0) ^ flip else lower
            if dims[g]:
                down(g, [la * u - ly * w for u, w in zip(y, ha)], flip ^ (la < 0), above | bit, below)
                continue
            y0, leaf = la * y[0] - ly * ha[0], 1 << apexes[g]  # at a vertex, y' is c' times its coefficient times it
            if not y0:
                raise GenericityError(
                    f"point lies on the affine hull of apexes {vertex_list(above | bit)} and face []"
                )
            leaves.append((above | bit | leaf, below | leaf if (y0 < 0) ^ (la < 0) ^ flip else below))

    down(len(faces) - 1, hx, False, 0, 0)
    lower = dict(leaves)
    if len(lower) != len(leaves) or lower.keys() != set(tri.maximal):
        missed = sorted(set(tri.maximal) - lower.keys(), key=_simplex_key)
        raise RuntimeError(
            f"maximal simplex {vertex_list(missed[0])} is the apex set of no flag" if missed
            else f"the apex flags end in {len(leaves)} simplices, not in the {len(tri.maximal)} maximal ones"
        )
    return tuple(map(lower.__getitem__, tri.maximal))


def _simplex_key(s: Simplex):
    return (s.bit_count(), vertex_list(s))


def verify_pointed(lattice: FaceLattice, apexes: Apexes) -> None:
    """Check pointedness condition 2, which reads only the apexes: if the
    apexes of two faces both lie in the intersection of those faces, they
    coincide. A violation raises ``GenericityError``. Conditions 1 and 3 are
    checked on the built complex (``_verify_complex``).

    It is checked only on nested pairs: each proper subface G of F that
    contains apex(F) must have apex(G) = apex(F). Per face that is one AND
    of face-id masks, the subfaces of F holding apex(F) less the faces
    apexed there, and the lowest set bit is the G reported. The nested check
    is the pairwise condition, since every apex lies in its face. A nested
    violation is a pair whose intersection G holds both apexes. Conversely,
    if two distinct apexes v1, v2 of faces f1, f2 lie in H = f1 & f2, then H
    is a face (the lattice is closed under intersection) and apex(H) differs
    from some v_i; so H is a proper subface of f_i containing apex(f_i) with
    another apex."""
    apexed = [0] * len(lattice.polytope.vertices)  # face-id mask of the faces apexed at each vertex
    for fid, v in enumerate(apexes[1:], 1):
        apexed[v] |= 1 << fid
    for fid in range(1, len(lattice)):
        v = apexes[fid]
        wrong = lattice.below[fid] & lattice.with_vertex[v] & ~apexed[v]
        if wrong:
            gid = (wrong & -wrong).bit_length() - 1
            raise GenericityError(
                "construction violated pointedness condition 2: faces "
                f"{vertex_list(lattice.faces[gid])} and {vertex_list(lattice.faces[fid])} "
                f"share both apexes {apexes[gid]}, {v}"
            )


def _verify_complex(lattice: FaceLattice, apexes: Apexes, carried: list[list[Simplex]], simplices: Complex) -> None:
    """Check conditions 1 and 3 on every face's complex, the restriction of
    ``simplices``, the union of ``carried``, to the face; the first
    violation, in face order, raises ``GenericityError``.

    A simplex lies in a face exactly when the face holds its carrier, so the
    one superset test of ``_verify_face`` on every face is one test on the
    whole complex: s | {a} is in it for every apex a of a face holding the
    face that carries s. A carried simplex holds its carrier's apex, so only
    the apexes of the faces above the carrier are tried, one vertex mask per
    face ORed top down over the covers. With the empty simplex in the
    complex this test settles condition 3 too: the cones over the empty
    simplex are the vertices, and those over each vertex w are the edges
    from w to the apex of every face holding it. Only when the test fails is
    each face's restriction scanned with ``_verify_face``, in face order: it
    raises the first violation, or passes when only cones over non-maximal
    simplices are missing.
    """
    bits = [1 << v for v in range(len(lattice.polytope.vertices))]
    own = [0] + [bits[v] for v in apexes[1:]]
    above = [0] * len(lattice)  # the apexes of the faces above each face
    for fid in range(len(lattice) - 1, 0, -1):
        mask = above[fid] | own[fid]
        for c in lattice.covers[fid]:
            above[c] |= mask
    if 0 in simplices and all(
        simplices.issuperset(map(bit.__or__, carried[fid]))
        for fid, mask in enumerate(above) for bit in pick(mask & ~own[fid], bits)
    ):
        return
    for fid in range(1, len(lattice)):
        f = lattice.faces[fid]
        _verify_face(f, apexes[fid], frozenset(s for s in simplices if not s & ~f))


def _verify_face(f: int, v: int, cf: Complex) -> None:
    """Check conditions 1 and 3 on the complex ``cf`` of the face with vertex
    mask ``f`` and apex ``v``, in that order; the first violation raises
    ``GenericityError``.

    1. Every maximal simplex of ``cf`` contains ``v``.
    3. Every edge from ``v`` to another vertex of ``f`` is in ``cf``; the
       smallest missing vertex is reported.

    Condition 1 needs the maximality test only for a simplex s missing v
    whose extension s | {v} is not in the complex: when it is, s is not
    maximal. On a pointed triangulation every simplex missing v lies in a
    maximal simplex holding v, so one superset test, every s | {v} in the
    complex, settles condition 1. Only when it fails are the simplices
    scanned, to find the violating ones; of those, the smallest by (size,
    sorted vertices) is reported."""
    bit = 1 << v
    if not cf.issuperset(map(bit.__or__, cf)):
        unsure = [s for s in cf if s and not s & bit and s | bit not in cf]
        missed = [s for s in unsure if not any(s | 1 << w in cf for w in vertex_list(f & ~s))]
        if missed:
            raise GenericityError(
                "construction violated pointedness condition 1: maximal simplex "
                f"{vertex_list(min(missed, key=_simplex_key))} of face {vertex_list(f)} misses apex {v}"
            )
    for w in vertex_list(f & ~bit):
        if (bit | 1 << w) not in cf:
            raise GenericityError(
                "construction violated pointedness condition 3: edge "
                f"[{v}, {w}] missing from triangulation of face {vertex_list(f)}"
            )


def link(v: int, complex_: Complex) -> set[Simplex]:
    """The simplices s of the complex without v for which s | {v} is in it."""
    bit = 1 << v
    if bit not in complex_:
        raise RuntimeError(f"vertex {v} is not in the complex")
    return {s for s in complex_ if not s & bit and s | bit in complex_}


def pseudomanifold_certificate(tri: PointedTriangulation) -> tuple[bool, str]:
    """The ridges of the maximal simplices are the complex's, boundary ones lie in exactly
    1 maximal simplex and interior ones in 2. A failure names the first bad ridges."""
    d = tri.dim
    counts = Counter(s ^ 1 << v for s in tri.maximal for v in vertex_list(s))  # maximal simplices per ridge
    ridges = {s for s in tri.simplices if s.bit_count() == d}
    for stray, where in ((counts.keys() - ridges, "ridges of maximal simplices not in the complex"),
                         (ridges - counts.keys(), "complex ridges in no maximal simplex")):
        if stray:
            return False, f"{where}: {sorted(map(vertex_list, stray))[:3]}"
    for r, c in counts.items():
        expected = 2 if r in tri.interior else 1
        if c != expected:
            return False, f"ridge {vertex_list(r)} lies in {c} maximal simplices, expected {expected}"
    return True, ""
