"""Free graded-commutative algebras over the rationals.

Generators carry a name, a positive degree, and a fixed index; the index
order is the global monomial ordering and never changes after the algebra
is constructed. A monomial is a flat tuple (i0, e0, i1, e1, ...) in normal
form: indices strictly ascending, exponents positive, and exponent <= 1
for odd-degree generators since odd squares vanish. An Element maps
monomial keys to nonzero exact rationals, an int when integral and a
Fraction otherwise (see exact); inhomogeneous elements are allowed and
list their degrees. Element products merge monomial keys with their
Koszul signs in merge_monomials, which is also the inner loop of the
Derivation; the symplectic search and hard Lefschetz multiply CE-model
elements on bit-set monomials instead (nilsplit.symplectic).

A Derivation computes d of a monomial from its first block and d of the
rest by the Leibniz rule, merging keys straight into one term map, and
caches that map per monomial. Applying d to an Element reads the cache,
and so does a DegreeSlice of an algebra with a generator of degree > 1;
a slice of a CE model, every generator of degree 1, forms d on bit sets
from the generator images instead and leaves the cache unfilled
(nilsplit.cohomology).

The contractions iota_k are formed once, in contraction_columns; the
forcing system, the nondegeneracy check and the common kernel of the
symplectic search read their columns.

Coefficients are exact rationals throughout. The downstream forcing
argument is a statement about exact kernels of linear maps, so nothing in
this module may round.

A Generator is a named tuple (name, degree, index). All objects are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping
from fractions import Fraction

from .errors import StructuralError

ZERO = 0
ONE = 1


def merge_monomials(key_a, key_b, parity):
    """Multiply two normal-form monomial keys.

    Keys are flat tuples (i0, e0, i1, e1, ...) with generator indices
    strictly ascending and exponents positive; parity[i] is 1 when generator
    i has odd degree. Returns (sign, merged_key) where sign is +1 or -1, or
    (0, ()) when the product vanishes on the square of an odd generator.

    The sign counts transpositions of odd-degree factors needed to merge the
    concatenated word key_a + key_b back into ascending order: a factor of
    key_b at index j moves past every not-yet-emitted odd factor of key_a,
    and contributes only if it is itself odd. Even generators never sign.
    """
    if not key_a:
        return 1, key_b
    if not key_b:
        return 1, key_a
    la = len(key_a)
    lb = len(key_b)
    odd_left = 0
    i = 0
    while i < la:
        if parity[key_a[i]]:
            odd_left += 1
        i += 2
    out = []
    inv = 0
    pa = 0
    pb = 0
    while pa < la and pb < lb:
        ia = key_a[pa]
        ib = key_b[pb]
        if ia < ib:
            out.append(ia)
            out.append(key_a[pa + 1])
            if parity[ia]:
                odd_left -= 1
            pa += 2
        elif ib < ia:
            if parity[ib]:
                inv += odd_left
            out.append(ib)
            out.append(key_b[pb + 1])
            pb += 2
        else:
            if parity[ia]:
                return 0, ()
            out.append(ia)
            out.append(key_a[pa + 1] + key_b[pb + 1])
            pa += 2
            pb += 2
    while pa < la:
        out.append(key_a[pa])
        out.append(key_a[pa + 1])
        pa += 2
    while pb < lb:
        # key_a exhausted, so odd_left == 0 and no further sign arises
        out.append(key_b[pb])
        out.append(key_b[pb + 1])
        pb += 2
    return (-1 if inv & 1 else 1), tuple(out)


def _accumulate(terms: dict, key, c) -> None:
    """terms[key] += c, dropping the key when the sum cancels."""
    s = terms.get(key, ZERO) + c
    if s:
        terms[key] = s
    else:
        del terms[key]


Generator = namedtuple("Generator", "name degree index")


def exact(c) -> int | Fraction:
    """c as an exact rational: an int when integral, else a Fraction.

    bool and int give an int (True is 1), a Fraction with denominator 1 its
    numerator, and a str is parsed first. int and Fraction compare, hash and
    print alike, and int arithmetic takes no gcd, so integral coefficients
    stay ints until a division needs a Fraction.
    """
    if isinstance(c, int):
        return int(c)
    if isinstance(c, str):
        c = Fraction(c)
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise StructuralError(f"not an exact rational: {c!r}")


class GradedAlgebra:
    """Free graded-commutative algebra on named generators."""

    def __init__(self, gens: Iterable[tuple[str, int]]):
        gens = list(gens)
        names = [name for name, _ in gens]
        if len(set(names)) != len(names):
            raise StructuralError("generator names must be unique")
        for name, degree in gens:
            if not isinstance(degree, int) or degree < 1:
                raise StructuralError(
                    f"generator {name!r} has degree {degree!r}; need an integer >= 1"
                )
        self.generators = tuple(
            Generator(name, degree, i) for i, (name, degree) in enumerate(gens)
        )
        self.degrees = tuple(g.degree for g in self.generators)
        self.parity = bytes(d & 1 for d in self.degrees)
        self._by_name = {g.name: g for g in self.generators}

    # -- element constructors -------------------------------------------------

    def zero(self) -> Element:
        return Element(self, {})

    def one(self) -> Element:
        return Element(self, {(): ONE})

    def scalar(self, c) -> Element:
        c = exact(c)
        return Element(self, {(): c} if c else {})

    def gen(self, name: str) -> Element:
        g = self._by_name.get(name)
        if g is None:
            raise StructuralError(f"no generator named {name!r}")
        return Element(self, {(g.index, 1): ONE})

    def element(self, terms: Mapping[tuple, object]) -> Element:
        """Build an element from a monomial-key -> coefficient mapping."""
        acc = {}
        for key, c in terms.items():
            c = exact(c)
            if not c:
                continue
            self._check_key(key)
            acc[key] = acc.get(key, ZERO) + c
        return Element(self, {k: c for k, c in acc.items() if c})

    # -- monomial utilities ---------------------------------------------------

    def _check_key(self, key) -> None:
        last = -1
        for p in range(0, len(key), 2):
            i, e = key[p], key[p + 1]
            if not 0 <= i < len(self.generators):
                raise StructuralError(f"generator index {i} out of range")
            if i <= last:
                raise StructuralError(f"monomial key not in normal form: {key}")
            if e < 1 or (self.parity[i] and e > 1):
                raise StructuralError(f"bad exponent {e} for generator {i}")
            last = i

    def monomial_degree(self, key) -> int:
        degs = self.degrees
        return sum(degs[key[p]] * key[p + 1] for p in range(0, len(key), 2))

    def monomial_str(self, key) -> str:
        if not key:
            return "1"
        parts = []
        for p in range(0, len(key), 2):
            name = self.generators[key[p]].name
            e = key[p + 1]
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)

    def monomials_of_degree(self, k: int) -> list[tuple]:
        """All normal-form monomial keys of total degree k, sorted.

        Finite for every k: odd generators contribute exponent <= 1 and even
        generators at most k / degree. Sorted by the flat key tuple, which
        fixes the basis ordering used by every matrix downstream; the keys
        come out in that order, since a key that takes generator i comes
        before every key that skips it, smaller exponents first. A branch
        stops once the remaining degree is more than the generators left
        can add: the sum of their odd degrees, or no limit while an even
        generator remains. The loop picks the next generator to take, so
        the recursion is only as deep as the number of blocks in a key.
        """
        if k < 0:
            return []
        out: list[tuple] = []
        ngen = len(self.generators)
        # reach[i]: the most degree generators i.. can add, capped at k
        reach = [0] * (ngen + 1)
        for i in range(ngen - 1, -1, -1):
            reach[i] = min(k, reach[i + 1] + self.degrees[i]) if self.parity[i] else k
        key: list[int] = []

        def rec(start: int, remaining: int) -> None:
            if remaining == 0:
                out.append(tuple(key))
                return
            for i in range(start, ngen):
                if remaining > reach[i]:
                    return
                d = self.degrees[i]
                cap = remaining // d
                if self.parity[i]:
                    cap = min(cap, 1)
                for e in range(1, cap + 1):
                    key.append(i)
                    key.append(e)
                    rec(i + 1, remaining - e * d)
                    key.pop()
                    key.pop()

        rec(0, k)
        return out

    def __repr__(self):
        gens = ", ".join(f"{g.name}:{g.degree}" for g in self.generators)
        return f"GradedAlgebra({gens})"


class Element:
    """An exact-rational linear combination of normal-form monomials.

    Immutable by convention: no public operation mutates `terms`, and all
    arithmetic returns fresh objects. Two elements are equal iff they live
    on the same generator set and their term maps agree.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: GradedAlgebra, terms: dict):
        self.algebra = algebra
        self.terms = terms

    # -- predicates and views -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, key) -> Fraction:
        return self.terms.get(key, ZERO)

    def degrees(self) -> list[int]:
        return sorted({self.algebra.monomial_degree(k) for k in self.terms})

    def degree(self):
        """Degree of a homogeneous element; None for 0, error otherwise."""
        ds = self.degrees()
        if not ds:
            return None
        if len(ds) > 1:
            raise StructuralError(f"element is inhomogeneous (degrees {ds})")
        return ds[0]

    # -- arithmetic -----------------------------------------------------------

    def _require_same_algebra(self, other: Element) -> None:
        if self.algebra is not other.algebra:
            raise StructuralError("elements live over different generator sets")

    def __add__(self, other: Element) -> Element:
        self._require_same_algebra(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            s = terms.get(key, ZERO) + c
            if s:
                terms[key] = s
            else:
                terms.pop(key, None)
        return Element(self.algebra, terms)

    def __neg__(self) -> Element:
        return Element(self.algebra, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: Element) -> Element:
        return self + (-other)

    def scale(self, c) -> Element:
        c = exact(c)
        if not c:
            return Element(self.algebra, {})
        return Element(self.algebra, {k: c * v for k, v in self.terms.items()})

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def __mul__(self, other):
        """Graded-commutative product; Koszul signs via merge_monomials."""
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Element):
            return NotImplemented
        self._require_same_algebra(other)
        parity = self.algebra.parity
        merge = merge_monomials
        acc: dict[tuple, Fraction] = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                sign, key = merge(ka, kb, parity)
                if not sign:
                    continue
                c = ca * cb if sign > 0 else -ca * cb
                s = acc.get(key, ZERO) + c
                if s:
                    acc[key] = s
                else:
                    del acc[key]
        return Element(self.algebra, acc)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.algebra is other.algebra and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.algebra), frozenset(self.terms.items())))

    # -- rendering ------------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple, Fraction]]:
        alg = self.algebra
        return sorted(
            self.terms.items(), key=lambda kv: (alg.monomial_degree(kv[0]), kv[0])
        )

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for key, c in self.sorted_terms():
            mono = self.algebra.monomial_str(key)
            if key == ():
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"<Element {self}>"


class Derivation:
    """The degree +1 derivation extending a map on generators.

    Determined by its generator images through the graded Leibniz rule
    D(uv) = (Du)v + (-1)^|u| u (Dv). Images must be homogeneous of the
    generator's degree plus one (or zero).

    D of a monomial is built from its first block g^e and the rest r,

        D(g^e r) = e g^(e-1) (Dg) r + (-1)^(e|g|) g^e D(r),

    where g^(e-1) is 1 or an even block, so it commutes with Dg. Each
    product is one merge of monomial keys into a single term map. The
    cache holds D of every monomial reached so far, the suffixes r
    included, as term maps that are shared and never mutated. It fills
    only as elements are differentiated and as slices of algebras with a
    generator of degree > 1 are read: a CE slice does not use it.
    """

    def __init__(self, algebra: GradedAlgebra, images: Mapping[str, Element]):
        self.algebra = algebra
        self._images: dict[int, Element] = {}
        for name, img in images.items():
            g = algebra._by_name.get(name)
            if g is None:
                raise StructuralError(f"no generator named {name!r}")
            if img.algebra is not algebra:
                raise StructuralError("image lives over a different generator set")
            if not img.is_zero() and img.degree() != g.degree + 1:
                raise StructuralError(
                    f"image of {name!r} must have degree {g.degree + 1}, "
                    f"got {img.degree()}"
                )
            if not img.is_zero():
                self._images[g.index] = img
        self._monomial_cache: dict[tuple, dict] = {(): {}}

    def image_of_generator(self, name: str) -> Element:
        g = self.algebra._by_name[name]
        return self._images.get(g.index, self.algebra.zero())

    def monomial_terms(self, key) -> dict:
        """D of one monomial as a term map; cached and shared, never mutate it."""
        terms = self._monomial_cache.get(key)
        if terms is not None:
            return terms
        parity = self.algebra.parity
        i, e = key[0], key[1]
        rest = key[2:]
        terms = {}
        img = self._images.get(i)
        if img is not None:
            power = (i, e - 1) if e > 1 else ()
            for k, c in img.terms.items():
                sign, m = merge_monomials(k, rest, parity)
                if sign and power:
                    s, m = merge_monomials(power, m, parity)
                    sign *= s
                    c *= e
                if sign:
                    _accumulate(terms, m, c if sign > 0 else -c)
        tail = self.monomial_terms(rest)
        if tail:
            block = (i, e)
            odd = parity[i]
            for k, c in tail.items():
                sign, m = merge_monomials(block, k, parity)
                if odd:
                    sign = -sign
                if sign:
                    _accumulate(terms, m, c if sign > 0 else -c)
        self._monomial_cache[key] = terms
        return terms

    def __call__(self, u: Element) -> Element:
        if u.algebra is not self.algebra:
            raise StructuralError("element lives over a different generator set")
        acc: dict[tuple, Fraction] = {}
        for key, c in u.terms.items():
            for m, x in self.monomial_terms(key).items():
                _accumulate(acc, m, c * x)
        return Element(self.algebra, acc)


def contraction_columns(elements, n: int) -> list[dict]:
    """Column k holds iota_k(u) at the rows (index of u, monomial).

    iota_k is the degree -1 derivation with iota_k(g_i) = 1 for i = k and 0
    otherwise; generators 0..n-1 must have degree 1. On a monomial it
    removes x_k with the Koszul sign (-1)^position, the degree of the
    factors before it. One pass over the terms; removing x_k leaves a
    distinct rest per monomial.
    """
    columns: list[dict] = [{} for _ in range(n)]
    for r, u in enumerate(elements):
        degrees = u.algebra.degrees
        for k in range(n):
            if degrees[k] != 1:
                raise StructuralError(
                    f"contraction needs degree-1 generators; "
                    f"{u.algebra.generators[k].name!r} has degree {degrees[k]}"
                )
        for key, c in u.terms.items():
            position = 0
            for p in range(0, len(key), 2):
                i = key[p]
                if i < n:
                    columns[i][(r, key[:p] + key[p + 2 :])] = -c if position & 1 else c
                position += degrees[i] * key[p + 1]
    return columns


class FreeDGA:
    """A free graded-commutative algebra with a degree +1 differential."""

    def __init__(self, algebra: GradedAlgebra, differential: Derivation):
        if differential.algebra is not algebra:
            raise StructuralError("differential defined over a different algebra")
        self.algebra = algebra
        self.d = differential

    def flatness_witness(self):
        """First generator with d(d(g)) != 0, or None when d^2 = 0."""
        for g in self.algebra.generators:
            dd = self.d(self.d.image_of_generator(g.name))
            if not dd.is_zero():
                return g.name, dd
        return None

    @property
    def generators(self):
        return self.algebra.generators

    def __repr__(self):
        return f"FreeDGA({self.algebra!r})"

