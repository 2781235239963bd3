"""Cohomology of finite-type free DGAs by exact linear algebra.

Everything is per-degree: the degree-k component of a free graded algebra
is finite dimensional even when the algebra is not (polynomial generators
contribute boundedly many exponents per degree). A DegreeSlice fixes the
sorted monomial basis in degree k and the sparse images of d on it. One
exact echelon of those images, fed in basis order, gives the rank of d on
C^k and a cocycle basis of Z^k; a second one, [coboundaries | cocycles],
picks representatives of H^k and reduces cocycles to class coordinates.
Both depend only on the basis order, so repeated runs give identical bases.

The echelon engine is nilsplit.linalg.Echelon. The test suite checks
every Betti number here against an independent naive dense elimination
oracle.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .errors import DegreeCapError, StructuralError
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
    """Chosen representatives of H^k and reduction mod coboundaries."""

    def __init__(self, slice_: DegreeSlice, echelon: linalg.Echelon, n_boundary: int):
        self.slice = slice_
        self.degree = slice_.degree
        # kept vectors: independent coboundaries, then the representatives
        self._echelon = echelon
        self._n_boundary = n_boundary
        alg = slice_.dga.algebra
        self.representatives = [Element(alg, z) for z in echelon.kept[n_boundary:]]
        self.betti = len(self.representatives)

    def reduce(self, u: Element) -> dict[int, Fraction]:
        """Coordinates {i: c} of a degree-k cocycle over the representatives.

        Sparse: i indexes `representatives` and absent coordinates are zero.
        The kept vectors, the images of d on C^{k-1} and then the cocycle
        basis, span exactly Z^k once d^2 = 0. So a non-cocycle, or a
        monomial of another degree, leaves a residual and is refused.
        """
        rest, combination = self._echelon.residual(u.terms)
        if rest:
            raise StructuralError(f"not a cocycle of degree {self.degree}")
        first = self._n_boundary
        return {q - first: c for q, c in sorted(combination.items()) if q >= first}

    def rank_of(self, cocycles) -> int:
        """Rank of the classes of degree-k cocycles, without their coordinates.

        Each cocycle is eliminated once against [coboundaries | cocycle
        basis]. Its factors over the reduced kept vectors at the
        representative positions are its class coordinates under one
        invertible triangular change (see linalg.Echelon.eliminate), so they
        span a space of the same rank. A non-cocycle is refused as in reduce.
        """
        first = self._n_boundary
        classes = linalg.Echelon()
        for u in cocycles:
            rest, factors = self._echelon.eliminate(u.terms)
            if rest:
                raise StructuralError(f"not a cocycle of degree {self.degree}")
            classes.add({q: f for q, f in factors.items() if q >= first})
        return len(classes.kept)

    def class_element(self, coords: dict[int, Fraction]) -> Element:
        """The cocycle sum c * representatives[i] over sparse coordinates."""
        out = self.slice.dga.algebra.zero()
        for i, c in coords.items():
            out = out + self.representatives[i].scale(c)
        return out


class Cohomology:
    """Per-degree cohomology analyzer with cached slices, ranks and bases.

    Each differential d: C^k -> C^{k+1} is eliminated once; its rank serves
    both b_k and b_{k+1}. max_degree, when given, bounds how far the
    analyzer will look (polynomial-type algebras are infinite, so callers
    working with them must cap).
    """

    def __init__(self, dga: FreeDGA, max_degree: int | None = None):
        self.dga = dga
        self.max_degree = max_degree
        self._slices: dict[int, DegreeSlice] = {}
        # k -> (rank of d on C^k, cocycle basis of Z^k as term maps)
        self._cycles: dict[int, tuple[int, list[dict]]] = {}
        # k -> echelon of d(C^k) inside C^{k+1}, until basis(k + 1) takes it
        self._images: dict[int, linalg.Echelon] = {}
        self._bases: dict[int, CohomologyBasis] = {}

    def slice(self, k: int) -> DegreeSlice:
        if self.max_degree is not None and k > self.max_degree:
            raise DegreeCapError(
                f"degree {k} beyond configured cap {self.max_degree}"
            )
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

    def betti(self, k: int) -> int:
        """dim C^k - rank d_k - rank d_{k-1}, by exact ranks."""
        if k < 0:
            return 0
        s = self.slice(k)
        rank_in = self._differential(k - 1)[0] if k else 0
        return s.dim - self._differential(k)[0] - rank_in

    def betti_vector(self, cap: int) -> list[int]:
        return [self.betti(k) for k in range(cap + 1)]

    def cocycles(self, k: int) -> list[Element]:
        """Basis of the degree-k cocycles Z^k, deterministic via echelon order."""
        alg = self.dga.algebra
        return [Element(alg, z) for z in self._differential(k)[1]]

    def basis(self, k: int) -> CohomologyBasis:
        """Representative cocycles for H^k, deterministic via echelon order."""
        if k not in self._bases:
            s = self.slice(k)
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
            self._bases[k] = CohomologyBasis(s, echelon, n_boundary)
        return self._bases[k]

    def cup(self, p: int, coords_p, q: int, coords_q) -> dict[int, Fraction]:
        """Product of classes given by sparse coordinates, reduced at degree
        p+q against its basis to sparse coordinates."""
        if self.max_degree is not None and p + q > self.max_degree:
            raise DegreeCapError(
                f"cup lands in degree {p + q}, beyond cap {self.max_degree}"
            )
        u = self.basis(p).class_element(coords_p)
        v = self.basis(q).class_element(coords_q)
        return self.basis(p + q).reduce(u * v)

    def euler_characteristic(self, cap: int) -> int:
        return sum((-1) ** k * b for k, b in enumerate(self.betti_vector(cap)))


def poincare_check(cohomology: Cohomology, n: int) -> bool:
    """b_k == b_{n-k} for 0 <= k <= n; duality of unimodular CE models."""
    bettis = cohomology.betti_vector(n)
    return all(bettis[k] == bettis[n - k] for k in range(n + 1))
