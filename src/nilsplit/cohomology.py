"""Cohomology of finite-type free DGAs by exact linear algebra.

Everything is per-degree: the degree-k component of a free graded algebra
is finite dimensional even when the algebra is not (polynomial generators
contribute boundedly many exponents per degree). A DegreeSlice fixes the
sorted monomial basis in degree k and the sparse images of d on it. One
exact echelon of those images, fed in basis order, gives the rank of d on
C^k and a cocycle basis of Z^k. It depends only on the basis order, so
repeated runs give identical bases. No class representatives are picked:
under Poincare duality a coboundary pairs to zero with every cocycle, so
hard Lefschetz, the one reader of classes, pairs cocycles.

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


class Cohomology:
    """Per-degree cohomology analyzer with cached ranks and cocycle bases.

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
    even. `cocycles` always eliminates its own degree. Each eliminated
    degree keeps one record, (dim C^k, rank of d on C^k, Z^k); its slice
    is dropped.
    """

    def __init__(self, dga: FreeDGA):
        self.dga = dga
        # k -> (dim C^k, rank of d on C^k, cocycle basis of Z^k as term maps)
        self._cycles: dict[int, tuple[int, int, list[dict]]] = {}
        self.duality = _duality(dga)

    def _differential(self, k: int) -> tuple[int, int, list[dict]]:
        """dim C^k, the rank of d on C^k and the cocycle basis of Z^k.

        A monomial whose image lies in the span of the images before it
        gives one cocycle: the monomial minus its combination of earlier
        monomials, in the reduced echelon normal form.
        """
        if k not in self._cycles:
            s = DegreeSlice(self.dga, k)
            kernel = linalg.kernel(s.images)
            cocycles = [{s.basis[i]: x for i, x in v.items()} for v in kernel]
            self._cycles[k] = (s.dim, s.dim - len(kernel), cocycles)
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
        return self._differential(k)[1]

    def betti(self, k: int) -> int:
        """dim C^k - rank d_k - rank d_{k-1}, by exact ranks; under duality
        dim C^k is C(n, k) and no slice of degree k is built."""
        if k < 0:
            return 0
        n = self.duality
        dim = comb(n, k) if n is not None else self._differential(k)[0]
        return dim - self.rank(k) - self.rank(k - 1)

    def betti_vector(self, cap: int) -> list[int]:
        return [self.betti(k) for k in range(cap + 1)]

    def cocycles(self, k: int) -> list[Element]:
        """Basis of the degree-k cocycles Z^k, deterministic via echelon order."""
        alg = self.dga.algebra
        return [Element(alg, z) for z in self._differential(k)[2]]

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
