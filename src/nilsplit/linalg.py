"""Exact linear algebra over the rationals: one sparse echelon engine.

A vector is a dict from a totally ordered index to a nonzero Fraction;
absent indices are zero. `Echelon` keeps, in arrival order, the vectors
that enlarge the span of those kept before them; `add` only says whether
it kept a vector. A vector in the span has a unique combination of the
kept ones, built only on request: `kernel` is the one reader of the
combinations of dependent columns, and `residual` gives the combination
of any vector. Which vectors are kept and those combinations depend only
on the arrival order, never on how elimination proceeds, so the kernel
bases, representatives and coordinates built on top are byte-stable.
`kernel` takes sparse columns; `rank` is the one entry point for a dense
matrix given as a list of rows.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush

ZERO = Fraction(0)
ONE = Fraction(1)


class Echelon:
    """Incremental exact echelon of sparse vectors.

    Each kept vector is stored reduced against the earlier ones and scaled
    so that its pivot, its smallest index, has entry 1. A vector is reduced
    by clearing pivots smallest first; clearing one only creates entries at
    larger indices, so a single ascending pass clears every pivot.
    """

    def __init__(self):
        self.kept: list[dict] = []
        # pivot -> (kept position, reduced vector without its pivot entry)
        self._pivots: dict = {}
        # per kept position: (1 / pivot entry before scaling,
        #                      {earlier kept position: factor cleared})
        self._steps: list[tuple[Fraction, dict[int, Fraction]]] = []

    def _eliminate(self, vector: dict):
        """(rest, factors): rest = vector - sum factors[q] * reduced[q]."""
        rest = dict(vector)
        factors = {}
        pivots = self._pivots
        heap = [i for i in rest if i in pivots]
        heapify(heap)
        while heap:
            p = heappop(heap)
            f = rest.pop(p, None)
            if f is None:  # cancelled after it was queued
                continue
            position, tail = pivots[p]
            factors[position] = f
            for i, x in tail.items():
                y = rest.get(i)
                if y is None:
                    rest[i] = -f * x
                    if i in pivots:
                        heappush(heap, i)
                else:
                    y -= f * x
                    if y:
                        rest[i] = y
                    else:
                        del rest[i]
        return rest, factors

    def _combination(self, factors: dict[int, Fraction]) -> dict[int, Fraction]:
        """Rewrite a combination of reduced vectors over the kept vectors."""
        factors = dict(factors)
        combination = {}
        # reduced[q] = inv * (kept[q] - sum_{r < q} earlier[r] * reduced[r])
        for q in range(max(factors, default=-1), -1, -1):
            if not factors:
                break
            f = factors.pop(q, None)
            if not f:
                continue
            inv, earlier = self._steps[q]
            a = f * inv
            combination[q] = a
            for r, g in earlier.items():
                factors[r] = factors.get(r, ZERO) - a * g
        return combination

    def residual(self, vector: dict) -> tuple[dict, dict[int, Fraction]]:
        """(rest, combination) with vector = sum combination[q] * kept[q] + rest.

        rest is zero at every pivot; it is empty exactly when the vector
        lies in the span of the kept vectors.
        """
        rest, factors = self._eliminate(vector)
        return rest, self._combination(factors)

    def add(self, vector: dict) -> bool:
        """Keep the vector if it enlarges the span; return whether it did.

        A dependent vector's combination over the kept vectors is not
        built; kernel() and residual() are the ways to ask for it.
        """
        return self._keep(vector, *self._eliminate(vector))

    def _keep(self, vector: dict, rest: dict, factors: dict[int, Fraction]) -> bool:
        """Keep the vector given its elimination, unless rest is empty."""
        if not rest:
            return False
        p = min(rest)
        inv = ONE / rest.pop(p)
        self._pivots[p] = (len(self.kept), {i: x * inv for i, x in rest.items()})
        self._steps.append((inv, factors))
        self.kept.append(vector)
        return True


def _sparse(values) -> dict[int, Fraction]:
    return {i: x for i, x in enumerate(values) if x}


def rank(rows: list[list[Fraction]]) -> int:
    """Exact rank of a dense matrix given as a list of rows."""
    echelon = Echelon()
    for row in rows:
        echelon.add(_sparse(row))
    return len(echelon.kept)


def kernel(columns) -> tuple[Echelon, list[dict[int, Fraction]]]:
    """Echelon of the sparse columns and a basis of their right kernel.

    Each column is eliminated once, and its combination over the pivot
    columns is built only when it is dependent.

    A column is free when it lies in the span of the columns before it. Its
    kernel vector has a 1 there, 0 at every other free column, and minus the
    column's unique coordinates over the earlier pivot columns: the reduced
    echelon normal form, the same for every exact method. Kernel vectors
    come one per free column, ascending, with their indices ascending.
    """
    echelon = Echelon()
    pivot_columns: list[int] = []
    basis = []
    for j, column in enumerate(columns):
        rest, factors = echelon._eliminate(column)
        if echelon._keep(column, rest, factors):
            pivot_columns.append(j)
            continue
        combination = echelon._combination(factors)
        v = {pivot_columns[q]: -combination[q] for q in sorted(combination)}
        v[j] = ONE
        basis.append(v)
    return echelon, basis

