"""Cohomology of finite-type free DGAs by exact linear algebra.

Everything is per-degree: the degree-k component of a free graded algebra
is finite dimensional even when the algebra is not (polynomial generators
contribute boundedly many exponents per degree). A DegreeSlice fixes the
sorted monomial basis in degree k and the sparse images of d on it. One
exact echelon of those images, fed in basis order, gives the rank of d on
C^k and a cocycle basis of Z^k; a second one, [coboundaries | cocycles],
picks representatives of H^k and ranks sets of classes. Both depend only
on the basis order, so repeated runs give identical bases.

A DGA on n generators of degree 1 with d = 0 on C^{n-1}, the CE model of
a unimodular Lie algebra and so of every nilpotent one, satisfies
Poincare duality (Koszul 1950; Hazewinkel 1970). The coefficient <u, v>
of x_1...x_n in uv pairs C^k with C^{n-k} perfectly, and d(uv) = 0 for uv
in C^{n-1} gives <du, v> = -(-1)^k <u, dv>: d on C^{n-1-k} is the adjoint
of d on C^k up to sign, so the two have one rank. The analyzer reads
d = 0 on C^{n-1} off the generator images, then eliminates only the
lower half of the complex; see Cohomology.

The echelon engine is nilsplit.linalg.Echelon. The test suite checks
every Betti number here against an independent naive dense elimination
oracle, which eliminates every degree.
"""

from __future__ import annotations

from math import comb

from . import linalg
from .errors import StructuralError
from .exterior import Element, FreeDGA


class DegreeSlice:
    """Degree-k basis of a free DGA and the images of d on it.

    `basis` is the sorted list of degree-k monomial keys; `images[j]` is
    d(basis[j]) as a map from degree-(k+1) monomial keys to nonzero
    coefficients: the derivation's cached term map itself, shared with
    its cache and never mutated, so no Element is built per monomial.
    """

    def __init__(self, dga: FreeDGA, degree: int):
        if degree < 0:
            raise StructuralError("degree must be nonnegative")
        self.dga = dga
        self.degree = degree
        self.basis = dga.algebra.monomials_of_degree(degree)
        self.images = [dga.d.monomial_terms(key) for key in self.basis]

    @property
    def dim(self) -> int:
        return len(self.basis)


class CohomologyBasis:
    """Chosen representatives of H^k and the rank of sets of classes."""

    def __init__(
        self, dga: FreeDGA, degree: int, echelon: linalg.Echelon, n_boundary: int
    ):
        self.degree = degree
        # kept vectors: independent coboundaries, then the representatives
        self._echelon = echelon
        self._n_boundary = n_boundary
        self.representatives = [Element(dga.algebra, z) for z in echelon.kept[n_boundary:]]
        self.betti = len(self.representatives)

    def rank_of(self, cocycles) -> int:
        """Rank of the classes of degree-k cocycles, without their coordinates.

        Each cocycle is eliminated once against [coboundaries | cocycle
        basis], which spans exactly Z^k once d^2 = 0. Its factors over the
        reduced kept vectors at the representative positions are its class
        coordinates under one invertible triangular change (see
        linalg.Echelon.eliminate), so they span a space of the same rank. A
        non-cocycle, or a monomial of another degree, leaves a remainder and
        is refused.
        """
        first = self._n_boundary
        classes = linalg.Echelon()
        for u in cocycles:
            rest, factors = self._echelon.eliminate(u.terms)
            if rest:
                raise StructuralError(f"not a cocycle of degree {self.degree}")
            classes.add({q: f for q, f in factors.items() if q >= first})
        return len(classes.kept)


class Cohomology:
    """Per-degree cohomology analyzer with cached slices, ranks and bases.

    Each differential d: C^k -> C^{k+1} is eliminated once; its rank serves
    both b_k and b_{k+1}. Every method takes an explicit degree and builds
    only the slices it reads, so one analyzer serves every reader of a DGA
    (see CEModel.cohomology), polynomial-type algebras included.

    `duality`, the certificate of Poincare duality, is n when the n
    generators all have degree 1 and d = 0 on the n monomials of C^{n-1}
    (unimodularity, on a CE model), read once off the images d x_j (see
    _duality), else None. Under it d on C^k and on C^{n-1-k} have one
    rank (see the module docstring), so `rank` eliminates only the lower
    of the two degrees unless the other is cached, and `betti` takes
    dim C^k = C(n, k) without building the slice: a Betti table reads
    slices up to degree (n-1)/2 only. Without it every degree is
    eliminated directly, as for bundle models, whose base generators are
    even. `cocycles` and `basis` always eliminate their own degree.
    """

    def __init__(self, dga: FreeDGA):
        self.dga = dga
        self._slices: dict[int, DegreeSlice] = {}
        # k -> (rank of d on C^k, cocycle basis of Z^k as term maps)
        self._cycles: dict[int, tuple[int, list[dict]]] = {}
        # k -> echelon of d(C^k) inside C^{k+1}, until basis(k + 1) takes it
        self._images: dict[int, linalg.Echelon] = {}
        self._bases: dict[int, CohomologyBasis] = {}
        self.duality = _duality(dga)

    def slice(self, k: int) -> DegreeSlice:
        if k not in self._slices:
            self._slices[k] = DegreeSlice(self.dga, k)
        return self._slices[k]

    def _differential(self, k: int) -> tuple[int, list[dict]]:
        """Rank of d on C^k and the cocycle basis of Z^k.

        A monomial whose image lies in the span of the images before it
        gives one cocycle: the monomial minus its combination of earlier
        monomials, in the reduced echelon normal form.
        """
        if k not in self._cycles:
            s = self.slice(k)
            echelon, kernel = linalg.kernel(s.images)
            cocycles = [{s.basis[i]: x for i, x in v.items()} for v in kernel]
            self._images[k] = echelon
            self._cycles[k] = (len(echelon.kept), cocycles)
        return self._cycles[k]

    def rank(self, k: int) -> int:
        """Rank of d on C^k: 0 below degree 0, and from degree n on under
        duality, where d on C^{n-1-k} has the same rank. A cached
        elimination of either degree serves; otherwise the lower one is
        eliminated."""
        n = self.duality
        if k < 0 or (n is not None and k >= n):
            return 0
        if n is not None and k not in self._cycles:
            mirror = n - 1 - k
            if mirror < k or mirror in self._cycles:
                k = mirror
        return self._differential(k)[0]

    def betti(self, k: int) -> int:
        """dim C^k - rank d_k - rank d_{k-1}, by exact ranks; under duality
        dim C^k is C(n, k) and no slice of degree k is built."""
        if k < 0:
            return 0
        n = self.duality
        dim = comb(n, k) if n is not None else self.slice(k).dim
        return dim - self.rank(k) - self.rank(k - 1)

    def betti_vector(self, cap: int) -> list[int]:
        return [self.betti(k) for k in range(cap + 1)]

    def cocycles(self, k: int) -> list[Element]:
        """Basis of the degree-k cocycles Z^k, deterministic via echelon order."""
        alg = self.dga.algebra
        return [Element(alg, z) for z in self._differential(k)[1]]

    def basis(self, k: int) -> CohomologyBasis:
        """Representative cocycles for H^k, deterministic via echelon order."""
        if k not in self._bases:
            cocycles = self._differential(k)[1]
            if k:
                # the images of C^{k-1}, in basis order, are the coboundaries
                self._differential(k - 1)
                echelon = self._images.pop(k - 1)
            else:
                echelon = linalg.Echelon()
            n_boundary = len(echelon.kept)
            for z in cocycles:
                echelon.add(z)
            self._bases[k] = CohomologyBasis(self.dga, k, echelon, n_boundary)
        return self._bases[k]

    def euler_characteristic(self, cap: int) -> int:
        return sum((-1) ** k * b for k, b in enumerate(self.betti_vector(cap)))


def _duality(dga: FreeDGA) -> int | None:
    """n when the n generators all have degree 1 and d = 0 on C^{n-1}.

    d of the monomial without x_i is +-t_i x_1...x_n, where t_i collects
    the terms c x_a x_b (a < b) of each d x_j: -c into t_a when b = j,
    +c into t_b when a = j. On a CE model t_i is the trace of ad X_i, so
    this is unimodularity, read in one pass over the generator images;
    no monomial of degree n-1 is built.
    """
    alg = dga.algebra
    if any(g != 1 for g in alg.degrees):
        return None
    trace = [0] * len(alg.degrees)
    for j, g in enumerate(alg.generators):
        for (a, _, b, _), c in dga.d.image_of_generator(g.name).terms.items():
            if b == j:
                trace[a] -= c
            elif a == j:
                trace[b] += c
    return None if any(trace) else len(trace)
