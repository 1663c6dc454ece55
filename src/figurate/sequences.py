"""Figurate number sequences for polytopes, by several independent methods.

The recursive method is the definition: the sequence of a face is built from
the interior sequences of its proper faces, by double induction on dimension
and index. The simplex-sum method evaluates the triangulation's face counts
against shifted simplex interior numbers, and the decomposition methods
evaluate the h- (or k-) vector against shifted simplex numbers. All methods
must agree exactly; the package's verification pipeline asserts that they do.

Conventions: simplex_number(d, n) is zero for all n <= 0 (the closed form's
binomial would come back to life for very negative arguments, which the
shifted sums here must not see). The dimension-0 interior sequence is 1 for
all n >= 1, matching the recursive definition's base case; the shift formula
n -> n - d - 1 applies from dimension 1 up. The simplex-sum identity holds
for n = 0 and n >= 2, so that method takes its n = 1 value from the base
case of the definition, where it is 1 for every polytope.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, islice
from math import comb

from .lattice import FaceLattice, pick
from .triangulation import (
    ApexAssignment,
    ComplexSplit,
    PointedTriangulation,
    split_boundary_interior,
)
from .partitions import e_vector, f_vector

@dataclass(frozen=True)
class SequenceResult:
    polytope: str
    method: str
    interior: bool
    values: tuple[int, ...]


# ---------------------------------------------------------------------------
# Closed forms.

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


# ---------------------------------------------------------------------------
# Recursive method (the definition).

def face_number_sequences(
    lattice: FaceLattice, apexes: ApexAssignment, n_max: int
) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
    """Sequences and interior sequences for every nonempty face, bottom-up.

    Faces of dimension 0 contribute the constant-1 sequences. For a face F of
    higher dimension, values start 0, 1 and continue with
    F(n) = F(n-1) + sum of G(n)# over faces G of F missing F's apex; the
    interior values start 0, 0 and continue with F(n) minus the interior
    values of all proper faces. Every face is computed once, keyed by id.

    Each face splits its proper subfaces into those missing the apex and
    those holding it, with one AND of face-id masks, and sums each part's
    rows once over all n: the step is the first sum, the total both. F is the
    running sum of the steps from F(1) = 1. Only the order of the integer
    additions differs from the term-by-term recursion.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    rows: list[list[int] | None] = [None]  # interior sequence of each face, in face order
    ext: dict[int, list[int]] = {}
    for f in lattice.faces[1:]:
        if f.dim == 0:
            seq = [0] + [1] * n_max
            ext[f.id] = seq
            rows.append(list(seq))
            continue
        sub = lattice.below[f.id] & ~1
        near = sub & lattice.with_vertex[apexes.apex[f.id]]
        step = list(map(sum, zip(*pick(sub ^ near, rows))))
        total = map(operator.add, step, map(sum, zip(*pick(near, rows))))
        # both lists are cut back to n_max + 1 terms when n_max < 2
        e = [0, *accumulate(islice(step, 2, None), initial=1)][: n_max + 1]
        ext[f.id] = e
        rows.append([0, 0, *map(operator.sub, islice(e, 2, None), islice(total, 2, None))][: n_max + 1])
    return ext, dict(zip(ext, rows[1:]))


def polytope_number_recursive(
    lattice: FaceLattice, apexes: ApexAssignment, n_max: int, interior: bool = False
) -> SequenceResult:
    ext, intr = face_number_sequences(lattice, apexes, n_max)
    top = lattice.top.id
    values = tuple((intr if interior else ext)[top])
    return SequenceResult(lattice.polytope.name, "recursive", interior, values)


# ---------------------------------------------------------------------------
# Simplex-sum method.

def polytope_number_simplex_sum(
    tri: PointedTriangulation,
    n_max: int,
    interior: bool = False,
    split: ComplexSplit | None = None,
) -> SequenceResult:
    """Sum of interior simplex numbers over the triangulation's face counts.

    The exterior sum runs over the whole complex and applies from n = 2 (at
    n = 1 the sum would count vertices; the sequence is 1 there by
    definition). The interior sum runs over the interior complex and is valid
    for every n.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    d = tri.dim
    name = tri.lattice.polytope.name
    if interior:
        if split is None:
            split = split_boundary_interior(tri)
        e = e_vector(split.interior, d)
        values = tuple(
            sum(e[i] * simplex_interior(i, n) for i in range(d + 1))
            for n in range(n_max + 1)
        )
        return SequenceResult(name, "simplex-sum", True, values)
    f = f_vector(tri.simplices, d)
    values = [0] * (n_max + 1)
    if n_max >= 1:
        values[1] = 1
    for n in range(2, n_max + 1):
        values[n] = sum(f[i + 1] * simplex_interior(i, n) for i in range(d + 1))
    return SequenceResult(name, "simplex-sum", False, tuple(values))


# ---------------------------------------------------------------------------
# Decomposition methods.

def polytope_number_from_h(h: tuple[int, ...], d: int, n: int) -> int:
    """Sequence value from the h-vector: sum of h_j alpha^d(n-j)."""
    return sum(hj * simplex_number(d, n - j) for j, hj in enumerate(h))


def interior_from_k(k: tuple[int, ...], d: int, n: int) -> int:
    """Interior value from the k-vector: sum of k_j alpha^d(n-j)."""
    return sum(kj * simplex_number(d, n - j) for j, kj in enumerate(k))


def interior_from_h_reversed(h: tuple[int, ...], d: int, n: int) -> int:
    """Interior value from the h-vector read backwards: h_j alpha^d(n-d-1+j)."""
    return sum(hj * simplex_number(d, n - d - 1 + j) for j, hj in enumerate(h))


def sequence_from_h(name: str, h: tuple[int, ...], d: int, n_max: int) -> SequenceResult:
    values = tuple(polytope_number_from_h(h, d, n) for n in range(n_max + 1))
    return SequenceResult(name, "h", False, values)


def sequence_interior_from_k(name: str, k: tuple[int, ...], d: int, n_max: int) -> SequenceResult:
    values = tuple(interior_from_k(k, d, n) for n in range(n_max + 1))
    return SequenceResult(name, "k", True, values)


def sequence_interior_from_h(name: str, h: tuple[int, ...], d: int, n_max: int) -> SequenceResult:
    values = tuple(interior_from_h_reversed(h, d, n) for n in range(n_max + 1))
    return SequenceResult(name, "h", True, values)


# ---------------------------------------------------------------------------
# Identity checkers (used as oracles by the verification sweeps).

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


def sequence_to_json(result: SequenceResult, h=None, k=None) -> dict:
    data = {
        "polytope": result.polytope,
        "method": result.method,
        "interior": result.interior,
        "h": None if h is None else list(h),
        "k": None if k is None else list(k),
        "values": list(result.values),
    }
    return data
