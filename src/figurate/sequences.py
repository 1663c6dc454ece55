"""Figurate number sequences for polytopes, by several independent methods.

The recursive method is the definition: the sequence of a face is built from
the interior sequences of its proper faces, by double induction on dimension
and index. It runs on generating functions: every face's sequence is a
numerator of d + 3 integers over the common denominator (1 - x)^(d+1),
computed once for all faces with the same count tuple (how many of their
proper faces, and of those missing their apex, have each interior numerator),
each division by 1 - x is checked to leave no remainder, and only the
polytope's own numerator is expanded into terms. The simplex-sum method
evaluates the triangulation's face counts against shifted simplex interior
numbers. The decomposition methods are one closed form, a vector's entries as
the coefficients of shifted simplex numbers: on h it gives the sequence, and
on k or on h reversed the interior sequence (the paper's reversal). The closed
form and the simplex sums read whole simplex-number columns, each built once
per call from one ``comb`` over a range, and add them up scaled by their
coefficients; they take no running sums, so they stay independent of the
recursion they check. All methods must agree exactly; the package's
verification pipeline asserts that they do.

Conventions: the d-simplex number alpha^d(m) = C(m+d-1, d) is zero for all
m <= 0 (the binomial would come back to life for very negative arguments,
which the shifted sums here must not see). The dimension-0 interior sequence
is 1 for all n >= 1, matching the recursive definition's base case; the
shift formula n -> n - d - 1 applies from dimension 1 up. The simplex-sum
identity holds for n = 0 and n >= 2, so that method takes its n = 1 value
from the base case of the definition, where it is 1 for every polytope.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import accumulate, repeat
from math import comb

from .lattice import FaceLattice
from .triangulation import Apexes, PointedTriangulation
from .partitions import e_vector, f_vector

@dataclass(frozen=True)
class SequenceResult:
    polytope: str
    method: str
    interior: bool
    values: tuple[int, ...]


# ---------------------------------------------------------------------------
# Simplex-number columns.

def _simplex_column(d: int, shift: int, n_max: int) -> list[int]:
    """alpha^d(n - shift) = C(n - shift + d - 1, d) for n = 0..n_max, zero
    where n - shift <= 0."""
    if d < 0:
        raise ValueError("simplex dimension must be nonnegative")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    return [0] * min(shift + 1, n_max + 1) + list(map(comb, range(d, n_max - shift + d), repeat(d)))


# ---------------------------------------------------------------------------
# Recursive method (the definition).

def face_number_sequences(
    lattice: FaceLattice, apexes: Apexes
) -> tuple[dict[int, tuple[int, ...]], dict[int, tuple[int, ...]]]:
    """Sequences and interior sequences of every nonempty face, bottom-up, as
    numerators over the common denominator (1 - x)^D, D = d + 1.

    A face's sequence F(n) is the coefficient of x^n in N(x) / (1 - x)^D; each
    numerator N holds D + 2 integers, enough for x h(x) and x k(x). Vertices
    have the constant-1 sequences, x / (1 - x). For a face F of higher
    dimension, values start 0, 1 and continue with F(n) = F(n-1) + sum of
    G(n)# over faces G of F missing F's apex; the interior values start 0, 0
    and continue with F(n) minus the interior values of all proper faces.

    The faces done so far fall into *classes*, one per distinct interior
    numerator, each kept as that numerator and the mask of its face ids.
    With ``sub`` F's proper subfaces and ``far`` those missing the apex, the
    step sums the interior numerators over ``far`` and the total over
    ``sub``: class numerators weighted by ``(far & mask).bit_count()`` and
    ``(sub & mask).bit_count()``. Faces with the same *count tuple* (the far
    counts, then the sub counts) get the same numerators, so each distinct
    tuple is computed and checked once. This is exact: both sums depend only
    on the multiset of subface numerators, subfaces come first in face
    order, and a class numerator never changes. A face costs O(#classes)
    mask ANDs.

    Every sequence is 0 at n = 0, so every numerator starts with 0, and a
    numerator's term at n = 1 is its coefficient of x. With s_1 the step's
    term at n = 1, F's numerator is [x (1-x)^D + step - s_1 x (1-x)^D] /
    (1 - x), divided by running sums. The remainder is the step numerator at
    x = 1, which is 0 because no proper face has pole order D; a face where
    it is not raises ``RuntimeError``. The interior numerator is F's minus
    the total minus c_1 x (1-x)^D, c_1 being the difference's term at n = 1,
    which the definition sets to 0. ``expand`` gives the terms.
    """
    order = lattice.dim + 1
    xw = [0, 1] + [0] * order  # x (1 - x)^D, in D + 2 coefficients
    for _ in range(order):
        xw = [0, *map(operator.sub, xw[1:], xw)]  # times 1 - x
    vertex = tuple(accumulate(xw))  # x / (1 - x), the constant-1 sequence
    vertices = lattice.by_dim.get(0, ())  # ids 1..n: faces sort by dimension
    ext = dict.fromkeys(vertices, vertex)
    intr = dict(ext)
    classes = {vertex: 0}  # interior numerator -> its position in ``masks``
    masks = [(1 << len(vertices) + 1) - 2]  # the face ids of each class
    done = {}  # count tuple -> (numerator, interior numerator, class)
    for fid in range(1 + len(vertices), len(lattice.faces)):
        sub = lattice.below[fid] & ~1
        far = sub & ~lattice.with_vertex[apexes[fid]]
        counts = (*[(far & m).bit_count() for m in masks], *[(sub & m).bit_count() for m in masks])
        got = done.get(counts)
        if got is None:
            in_far, in_sub = counts[: len(masks)], counts[len(masks) :]
            columns = list(zip(*classes))
            step = [sum(map(operator.mul, in_far, c)) for c in columns]
            total = [sum(map(operator.mul, in_sub, c)) for c in columns]
            lift = 1 - step[1]
            e = tuple(accumulate(a + lift * b for a, b in zip(step, xw)))
            if e[-1]:  # the remainder of the division by 1 - x
                raise RuntimeError(f"face {fid}: the step numerator is not divisible by 1 - x")
            diff = list(map(operator.sub, e, total))
            row = tuple(a - diff[1] * b for a, b in zip(diff, xw))
            if row not in classes:
                classes[row] = len(masks)
                masks.append(0)
            got = done[counts] = e, row, classes[row]
        ext[fid], intr[fid], c = got
        masks[c] |= 1 << fid
    return ext, intr


def expand(numerator: tuple[int, ...], order: int, n_max: int) -> tuple[int, ...]:
    """Terms 0..n_max of numerator / (1 - x)^order, by ``order`` running sums."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    terms = list(numerator[: n_max + 1])
    terms += [0] * (n_max + 1 - len(terms))
    for _ in range(order):
        terms = list(accumulate(terms))
    return tuple(terms)


def polytope_number_recursive(
    lattice: FaceLattice, apexes: Apexes, n_max: int, interior: bool = False
) -> SequenceResult:
    ext, intr = face_number_sequences(lattice, apexes)
    top = (intr if interior else ext)[lattice.top]
    values = expand(top, lattice.dim + 1, n_max)
    return SequenceResult(lattice.polytope.name, "recursive", interior, values)


# ---------------------------------------------------------------------------
# Simplex-sum method.

def polytope_number_simplex_sum(tri: PointedTriangulation, n_max: int, interior: bool = False) -> SequenceResult:
    """Sum of interior simplex numbers over the triangulation's face counts.

    The exterior sum runs over the whole complex and applies from n = 2 (at
    n = 1 the sum would count vertices; the sequence is 1 there by
    definition). The interior sum runs over the interior complex and is valid
    for every n.
    """
    d = tri.dim
    counts = e_vector(tri.interior, d) if interior else f_vector(tri.simplices, d)[1:]
    values = [0] * (n_max + 1)
    for i, c in enumerate(counts):  # the interior i-simplex numbers; for i = 0, 1 from n = 1 on
        column = _simplex_column(i, i + 1 if i else 0, n_max)
        values = list(map(operator.add, values, map(operator.mul, column, repeat(c))))
    if n_max >= 1 and not interior:
        values[1] = 1
    return SequenceResult(tri.lattice.polytope.name, "simplex-sum", interior, tuple(values))


# ---------------------------------------------------------------------------
# Decomposition methods.

def polytope_number_from_h(v: tuple[int, ...], n_max: int) -> tuple[int, ...]:
    """Terms 0..n_max of the sum of v_j alpha^d(n - j), d = len(v) - 2: the
    sequence from h, and the interior sequence from k or from h reversed.
    One alpha^d column, shifted by j for v_j."""
    alpha = _simplex_column(len(v) - 2, 0, n_max)
    values = [0] * (n_max + 1)
    for j, vj in enumerate(v[: n_max + 1]):
        values[j:] = map(operator.add, values[j:], map(operator.mul, alpha, repeat(vj)))
    return tuple(values)
