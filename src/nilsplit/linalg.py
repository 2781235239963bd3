"""Exact linear algebra over the rationals: one sparse echelon engine.

A vector is a dict from an index to a nonzero exact rational: an int
when integral, else a Fraction (exterior.exact); absent indices are zero.
An index is an int, such as a CE slice's monomial key (see
cohomology.DegreeSlice), or a tuple of indices, such as a monomial key or
a (row, monomial key) pair, compared as Python compares them. The one
division is a pivot's inverse, so integral input stays in ints while the
pivots it meets are +-1. `Echelon` keeps, in arrival order, the vectors
that enlarge the span of those kept before them, each only in reduced
form: `add` says whether it kept a vector, `rank` counts the kept ones,
and `eliminate` gives a vector's factors over the reduced kept vectors,
which is all a rank needs. A caller that wants the kept vectors
themselves collects those `add` accepts. `kernel` takes sparse columns
and is the one place that rewrites factors as a combination of the kept
columns, for its dependent ones.

A kept vector's pivot is its largest index, and a vector is reduced by
clearing pivots largest first. On the differentials of filiform and
other graded models this meets far less fill than smallest first. The
choice of pivot moves no output: whether a vector enlarges the span of
those before it, and a dependent column's coordinates over the kept
columns before it, are facts of linear algebra, fixed by the arrival
order alone. So ranks and the reduced echelon kernel bases built on top
are the same for every pivot rule, and byte-stable. A rank is an
`Echelon`'s `rank`, or the number of columns `kernel` is given minus the
length of its kernel.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush

from .exterior import exact

ZERO = 0
ONE = 1
_TOP = float("inf")  # above every negated int entry; only ever compared


def _descending(index):
    """A key that orders indices in exactly the reverse of their order.

    An int is negated. A tuple's entries are mapped recursively and then
    closed by _TOP: negation alone reverses every comparison except a
    proper prefix, which precedes its extensions both ways ((1, 1) <
    (1, 1, 2, 1) and (-1, -1) < (-1, -1, -2, -1)); the closing _TOP exceeds
    the negated entry it meets, so the prefix sorts after its extensions.
    """
    if isinstance(index, int):
        return -index
    return (*map(_descending, index), _TOP)


class Echelon:
    """Incremental exact echelon of sparse vectors.

    Each kept vector is stored reduced against the earlier ones and scaled
    so that its pivot, its largest index, has entry 1. A vector is reduced
    by clearing pivots largest first; clearing one only creates entries at
    smaller indices, so a single descending pass clears every pivot. The
    pass is a heap on _descending keys, computed once per pivot.
    """

    def __init__(self):
        self.rank = 0
        # pivot -> (its _descending key, kept position,
        #           reduced vector without its pivot entry)
        self._pivots: dict = {}

    def eliminate(self, vector: dict):
        """(rest, factors): rest = vector - sum factors[q] * reduced[q].

        reduced[q] is kept vector q reduced against the kept vectors before
        it and scaled to pivot 1, so the reduced vectors are the kept ones
        under an invertible lower triangular change, which kernel undoes
        in _combination.
        """
        rest = dict(vector)
        factors = {}
        pivots = self._pivots
        heap = [(pivots[i][0], i) for i in rest if i in pivots]
        heapify(heap)
        while heap:
            p = heappop(heap)[1]
            f = rest.pop(p, None)
            if f is None:  # cancelled after it was queued
                continue
            _, position, tail = pivots[p]
            factors[position] = f
            for i, x in tail.items():
                y = rest.get(i)
                if y is None:
                    rest[i] = -f * x
                    if i in pivots:
                        heappush(heap, (pivots[i][0], i))
                else:
                    y -= f * x
                    if y:
                        rest[i] = y
                    else:
                        del rest[i]
        return rest, factors

    def add(self, vector: dict) -> bool:
        """Keep the vector if it enlarges the span; return whether it did."""
        return self._keep(self.eliminate(vector)[0]) is not None

    def _keep(self, rest: dict) -> Fraction | None:
        """Keep a vector given its remainder, unless the remainder is
        empty; return the inverse of its pivot entry, or None if not kept."""
        if not rest:
            return None
        p = max(rest)
        x = rest.pop(p)
        # +-1 is its own inverse; never int / int, which is a float
        inv = int(x) if x in (1, -1) else exact(Fraction(1) / x)
        tail = {i: exact(y * inv) for i, y in rest.items()}
        self._pivots[p] = (_descending(p), self.rank, tail)
        self.rank += 1
        return inv


def _combination(steps, factors: dict[int, Fraction]) -> dict[int, Fraction]:
    """Rewrite a combination of reduced vectors over the kept vectors.

    steps[q] is (1 / pivot entry of kept vector q before scaling, its
    factors over the reduced vectors before it).
    """
    factors = dict(factors)
    combination = {}
    # reduced[q] = inv * (kept[q] - sum_{r < q} earlier[r] * reduced[r])
    for q in range(max(factors, default=-1), -1, -1):
        if not factors:
            break
        f = factors.pop(q, None)
        if not f:
            continue
        inv, earlier = steps[q]
        a = f * inv
        combination[q] = a
        for r, g in earlier.items():
            factors[r] = factors.get(r, ZERO) - a * g
    return combination


def kernel(columns) -> list[dict[int, Fraction]]:
    """A basis of the right kernel of the sparse columns; their rank is the
    number of columns minus its length.

    Each column is eliminated once, and its combination over the pivot
    columns is built only when it is dependent, from the elimination steps
    of the pivot columns, which only this function keeps.

    A column is free when it lies in the span of the columns before it. Its
    kernel vector has a 1 there, 0 at every other free column, and minus the
    column's unique coordinates over the earlier pivot columns: the reduced
    echelon normal form, the same for every exact method. Kernel vectors
    come one per free column, ascending, with their indices ascending.
    """
    echelon = Echelon()
    pivot_columns: list[int] = []
    steps: list[tuple[Fraction, dict[int, Fraction]]] = []
    basis = []
    for j, column in enumerate(columns):
        rest, factors = echelon.eliminate(column)
        inv = echelon._keep(rest)
        if inv is not None:
            pivot_columns.append(j)
            steps.append((inv, factors))
            continue
        combination = _combination(steps, factors)
        v = {pivot_columns[q]: -combination[q] for q in sorted(combination)}
        v[j] = ONE
        basis.append(v)
    return basis
