"""Figurate number sequences for polytopes, by several independent methods.

The recursive method is the definition: the sequence of a face is built from
the interior sequences of its proper faces, by double induction on dimension
and index. It runs on generating functions: every face's sequence is a
numerator of d + 3 integers over the common denominator (1 - x)^(d+1), each
division by 1 - x is checked to leave no remainder, and only the polytope's
own numerator is expanded into terms. The simplex-sum method evaluates the
triangulation's face counts against shifted simplex interior numbers. The
decomposition methods are one closed form, a vector's entries as the
coefficients of shifted simplex numbers: on h it gives the sequence, and on k
or on h reversed the interior sequence (the paper's reversal). The closed
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

from .lattice import FaceLattice, pick
from .triangulation import ApexAssignment, ComplexSplit, PointedTriangulation
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
    lattice: FaceLattice, apexes: ApexAssignment
) -> tuple[dict[int, tuple[int, ...]], dict[int, tuple[int, ...]]]:
    """Sequences and interior sequences of every nonempty face, bottom-up, as
    numerators over the common denominator (1 - x)^D, D = d + 1.

    A face's sequence F(n) is the coefficient of x^n in N(x) / (1 - x)^D; each
    numerator N holds D + 2 integers, enough for x h(x) and x k(x). Vertices
    have the constant-1 sequences, x / (1 - x). For a face F of higher
    dimension, values start 0, 1 and continue with F(n) = F(n-1) + sum of
    G(n)# over faces G of F missing F's apex; the interior values start 0, 0
    and continue with F(n) minus the interior values of all proper faces.

    One AND of face-id masks splits F's proper subfaces into those missing the
    apex and those holding it; the step is the sum of the first part's
    interior numerators, the total the sum of both. Every sequence is 0 at
    n = 0, so every numerator starts with 0, and a numerator's term at n = 1
    is its coefficient of x. With s_1 the step's term at n = 1, F's numerator
    is [x (1-x)^D + step - s_1 x (1-x)^D] / (1 - x), divided by running sums.
    The remainder is the step numerator at x = 1, which is 0 because no
    proper face has pole order D; a face where it is not raises
    ``RuntimeError``. The interior numerator is F's minus the total minus
    c_1 x (1-x)^D, c_1 being the difference's term at n = 1, which the
    definition sets to 0. ``expand`` gives the terms.
    """
    order = lattice.dim + 1
    xw = [0, 1] + [0] * order  # x (1 - x)^D, in D + 2 coefficients
    for _ in range(order):
        xw = [0, *map(operator.sub, xw[1:], xw)]  # times 1 - x
    vertex = tuple(accumulate(xw))  # x / (1 - x), the constant-1 sequence
    rows: list[tuple[int, ...] | None] = [None]  # interior numerator of each face, in face order
    ext: dict[int, tuple[int, ...]] = {}
    for f in lattice.faces[1:]:
        if f.dim == 0:
            ext[f.id] = vertex
            rows.append(vertex)
            continue
        sub = lattice.below[f.id] & ~1
        near = sub & lattice.with_vertex[apexes.apex[f.id]]
        step = list(map(sum, zip(*pick(sub ^ near, rows))))
        total = map(operator.add, step, map(sum, zip(*pick(near, rows))))
        lift = 1 - step[1]
        e = tuple(accumulate(a + lift * b for a, b in zip(step, xw)))
        if e[-1]:  # the remainder of the division by 1 - x
            raise RuntimeError(f"face {f.id}: the step numerator is not divisible by 1 - x")
        ext[f.id] = e
        diff = list(map(operator.sub, e, total))
        rows.append(tuple(a - diff[1] * b for a, b in zip(diff, xw)))
    return ext, dict(zip(ext, rows[1:]))


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
    lattice: FaceLattice, apexes: ApexAssignment, n_max: int, interior: bool = False
) -> SequenceResult:
    ext, intr = face_number_sequences(lattice, apexes)
    top = (intr if interior else ext)[lattice.top.id]
    values = expand(top, lattice.dim + 1, n_max)
    return SequenceResult(lattice.polytope.name, "recursive", interior, values)


# ---------------------------------------------------------------------------
# Simplex-sum method.

def polytope_number_simplex_sum(
    tri: PointedTriangulation,
    n_max: int,
    interior: bool = False,
    *,
    split: ComplexSplit,
) -> SequenceResult:
    """Sum of interior simplex numbers over the triangulation's face counts.

    The exterior sum runs over the whole complex and applies from n = 2 (at
    n = 1 the sum would count vertices; the sequence is 1 there by
    definition). The interior sum runs over the interior complex and is valid
    for every n.
    """
    d = tri.dim
    counts = e_vector(split.interior, d) if interior else f_vector(tri.simplices, d)[1:]
    values = [0] * (n_max + 1)
    for i, c in enumerate(counts):  # the interior i-simplex numbers; for i = 0, 1 from n = 1 on
        column = _simplex_column(i, i + 1 if i else 0, n_max)
        values = list(map(operator.add, values, map(operator.mul, column, repeat(c))))
    if n_max >= 1 and not interior:
        values[1] = 1
    return SequenceResult(tri.lattice.polytope.name, "simplex-sum", interior, tuple(values))


# ---------------------------------------------------------------------------
# Decomposition methods.

def polytope_number_from_h(v: tuple[int, ...], d: int, n_max: int) -> tuple[int, ...]:
    """Terms 0..n_max of the sum of v_j alpha^d(n - j): the sequence from h,
    and the interior sequence from k or from h reversed. One alpha^d column,
    shifted by j for v_j."""
    alpha = _simplex_column(d, 0, n_max)
    values = [0] * (n_max + 1)
    for j, vj in enumerate(v[: n_max + 1]):
        values[j:] = map(operator.add, values[j:], map(operator.mul, alpha, repeat(vj)))
    return tuple(values)
