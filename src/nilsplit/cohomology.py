"""Cohomology of finite-type free DGAs by exact linear algebra.

Everything is per-degree: the degree-k component of a free graded algebra
is finite dimensional even when the algebra is not (polynomial generators
contribute boundedly many exponents per degree). A DegreeSlice fixes the
sorted monomial basis in degree k and streams the sparse images of d on
it. On a CE model, every generator of degree 1, it forms them on bit sets
with integer keys ordered like the tuple keys; otherwise it reads the
derivation's cached term maps (see DegreeSlice). One exact echelon of
those images, fed in basis order, gives the rank of d on C^k, and a Betti
number needs nothing more: a rank-only record keeps neither the basis nor
the images. Only a reader of cocycles has the dependent images rewritten
into a cocycle basis of Z^k (linalg.kernel), keyed by the tuple basis.
That basis depends only on the basis order, so repeated runs give
identical bases. No class representatives are picked:
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

from itertools import combinations
from math import comb

from . import linalg
from .errors import StructuralError
from .exterior import Element, FreeDGA


class DegreeSlice:
    """Degree-k basis of a free DGA and the images of d on it.

    `basis` is the sorted list of degree-k monomial keys and `dim` its
    length. `images` yields d(basis[j]) in basis order as maps from
    degree-(k+1) monomial keys to nonzero coefficients, afresh on each
    read: a reader streams them and the slice keeps none.

    When every generator has degree 1 (a CE model), C^k is spanned by the
    k-subsets S of the n generators, and d(x_S) is formed in one pass over
    the terms c x_a x_b of the images d x_i, i in S. Such a term gives
    x_R x_a x_b with R = S - {i} and the sign (-1)^#{R < i} of the Leibniz
    rule times that of moving x_a and x_b into place, (-1)^#{R between a
    and b}: one popcount on bit sets. No basis is enumerated unless
    `basis` is read, and the derivation's memo is not filled. An image key
    is the integer -sum_{j in T} 2^(n-1-j) of its set T, which orders the
    monomials of one degree exactly as their tuple keys do, so every pivot
    and every output is the one tuple keys give; `monomial` turns it back
    into a tuple key. Otherwise the basis is enumerated and the images are
    the derivation's cached term maps, shared and never mutated.
    """

    def __init__(self, dga: FreeDGA, degree: int):
        if degree < 0:
            raise StructuralError("degree must be nonnegative")
        self.dga = dga
        self.degree = degree
        self._n = _exterior(dga.algebra)
        if self._n is None:
            self._basis = dga.algebra.monomials_of_degree(degree)
            self.dim = len(self._basis)
        else:
            self.dim = comb(self._n, degree)

    @property
    def basis(self) -> list[tuple]:
        if self._n is None:
            return self._basis
        subsets = combinations(range(self._n), self.degree)
        return [tuple(x for i in s for x in (i, 1)) for s in subsets]

    @property
    def images(self):
        if self._n is None:
            return map(self.dga.d.monomial_terms, self._basis)
        return self._ce_images()

    def monomial(self, key) -> tuple:
        """The normal-form tuple key of an image key."""
        n = self._n
        if n is None:
            return key
        return tuple(x for i in range(n) if -key >> (n - 1 - i) & 1 for x in (i, 1))

    def _ce_images(self):
        n = self._n
        bit = [1 << (n - 1 - i) for i in range(n)]
        # (bit of x_i, bits of x_a x_b, sign mask, c) per term c x_a x_b of
        # d x_i; the sign mask holds the generators below i and those
        # strictly between a and b, so its popcount on R has the sign's parity
        terms = []
        for g in self.dga.algebra.generators:
            i = g.index
            below = ((1 << i) - 1) << (n - i)
            for (a, _, b, _), c in self.dga.d.image_of_generator(g.name).terms.items():
                between = ((1 << (b - a - 1)) - 1) << (n - b)
                terms.append((bit[i], bit[a] | bit[b], below ^ between, c))
        for m in map(sum, combinations(bit, self.degree)):
            image = {}
            for own, ab, sign, c in terms:
                if not m & own:
                    continue
                rest = m ^ own
                if rest & ab:
                    continue
                key = -(rest | ab)
                y = image.get(key, 0) + (-c if (rest & sign).bit_count() & 1 else c)
                if y:
                    image[key] = y
                else:
                    del image[key]
            yield image


class Cohomology:
    """Per-degree cohomology analyzer with cached ranks and cocycle bases.

    Each differential d: C^k -> C^{k+1} is eliminated once; its rank serves
    both b_k and b_{k+1}. `rank` and `betti` eliminate it rank-only,
    adding the images to one Echelon and building no combination;
    `cocycles` eliminates it through linalg.kernel, and that record serves
    `rank` too. A reader of both the cocycles and the rank of one degree
    reads the cocycles first, as hard Lefschetz does, or that degree is
    eliminated twice. Every method takes an explicit degree and builds
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
    degree keeps one record, (dim C^k, rank of d on C^k, Z^k or None for a
    rank-only one); its slice is dropped.
    """

    def __init__(self, dga: FreeDGA):
        self.dga = dga
        # k -> (dim C^k, rank of d on C^k, cocycle basis of Z^k as term maps,
        #       or None when only the rank was asked for)
        self._records: dict[int, tuple[int, int, list[dict] | None]] = {}
        self.duality = _duality(dga)

    def _record(self, k: int) -> tuple[int, int, list[dict] | None]:
        """The record of degree k, eliminated rank-only unless cached: the
        images of d stream into one Echelon, the zero ones skipped, and
        neither the basis, the images nor a combination is kept."""
        if k not in self._records:
            s = DegreeSlice(self.dga, k)
            echelon = linalg.Echelon()
            for image in filter(None, s.images):
                echelon.add(image)
            self._records[k] = (s.dim, echelon.rank, None)
        return self._records[k]

    def rank(self, k: int) -> int:
        """Rank of d on C^k: 0 below degree 0, and from degree n on under
        duality, where d on C^{n-1-k} has the same rank. A cached
        elimination of either degree serves; otherwise the lower one is
        eliminated."""
        n = self.duality
        if k < 0 or (n is not None and k >= n):
            return 0
        if n is not None and k not in self._records:
            mirror = n - 1 - k
            if mirror < k or mirror in self._records:
                k = mirror
        return self._record(k)[1]

    def betti(self, k: int) -> int:
        """dim C^k - rank d_k - rank d_{k-1}, by exact ranks; under duality
        dim C^k is C(n, k) and no slice of degree k is built."""
        if k < 0:
            return 0
        n = self.duality
        dim = comb(n, k) if n is not None else self._record(k)[0]
        return dim - self.rank(k) - self.rank(k - 1)

    def betti_vector(self, cap: int) -> list[int]:
        return [self.betti(k) for k in range(cap + 1)]

    def cocycles(self, k: int) -> list[Element]:
        """Basis of the degree-k cocycles Z^k, in the reduced echelon
        normal form: a monomial whose image lies in the span of the images
        before it gives one cocycle, the monomial minus its combination of
        earlier monomials (linalg.kernel). Deterministic via basis order."""
        record = self._records.get(k)
        if record is None or record[2] is None:
            s = DegreeSlice(self.dga, k)
            kernel = linalg.kernel(s.images)
            basis = s.basis
            cocycles = [{basis[i]: x for i, x in v.items()} for v in kernel]
            record = self._records[k] = (s.dim, s.dim - len(kernel), cocycles)
        alg = self.dga.algebra
        return [Element(alg, z) for z in record[2]]

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
    if _exterior(alg) is None:
        return None
    trace = [0] * len(alg.degrees)
    for j, g in enumerate(alg.generators):
        for (a, _, b, _), c in dga.d.image_of_generator(g.name).terms.items():
            if b == j:
                trace[a] -= c
            elif a == j:
                trace[b] += c
    return None if any(trace) else len(trace)


def _exterior(alg) -> int | None:
    """n when the n generators all have degree 1, so that C^k is spanned by
    the k-subsets of the generators, else None."""
    return None if any(g != 1 for g in alg.degrees) else len(alg.degrees)
