"""Symplectic structures on Chevalley-Eilenberg models.

A candidate symplectic form is a degree-2 element omega = sum a_ij x_i x_j
(i < j). It is symplectic when (1) d omega = 0 and (2) omega is
nondegenerate: the map X -> iota_X omega is injective, so that
iota_X omega = 0 forces X = 0. The columns of that map are read off
omega's own terms by exterior.contraction_columns, which the forcing
system also uses, and the exact kernel of those sparse columns gives the
rank and, for a degenerate form, a witness X.

The search for a symplectic form runs over the space Z^2 of closed
2-forms and is a decision procedure with no budget. Two exact
certificates come first. If the closed 2-forms share a nonzero kernel
vector X, every one of them is degenerate, and X is named. If the closed
monomials x_i x_j pair off the generators (a perfect matching), the sum
of the pairs is closed and nondegenerate, and is certified like any other
form. Only when neither applies does the product chain decide. A 2-form
on an n-dimensional algebra is nondegenerate iff its power omega^{n/2} is
nonzero, and by polarization omega^{n/2} vanishes for every closed omega
iff every product of n/2 elements of a basis of Z^2 does. The span of
those products is built one factor at a time: if it dies, that is a proof
that no symplectic form exists; if a product survives, it names a grid of
at most 2^{n/2} small integer weights on which a nondegenerate form must
lie, and the first grid point of full rank is returned. The chain runs
on monomials as bit sets of generators with integer coefficients: a
product that vanishes never reaches the echelon, and the top level ends at
its first nonzero product, since top degree is a line.

Hard Lefschetz for a certified form ranks [omega]^k : H^{n/2-k} ->
H^{n/2+k} as the pairing <omega^k z_i, z_j> over a basis z_j of the
cocycles Z^{n/2-k}: Poincare duality makes the pairing on classes perfect,
and its certificate, d = 0 on C^{n-1}, makes every coboundary pair to
zero with every cocycle, so no class representatives are needed. Its
products and the dual table of the pairing are bit sets too, and every
product here, in the chain and in hard Lefschetz, is one step (_times):
a left factor listed by its terms times a bit-set element, with the
Koszul sign read off one popcount per pair of terms. No Element product
is formed.

The results, SymplecticForm, SymplecticCertificate, SymplecticSearchResult
and LefschetzEntry, are immutable named tuples.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product
from math import lcm

from . import linalg
from .errors import StructuralError
from .exterior import Element, contraction_columns
from .lie_algebras import CEModel

ZERO = 0


class SymplecticForm(namedtuple("SymplecticForm", "model omega")):
    """A degree-2 element omega of a CE model, built and checked once."""

    __slots__ = ()

    @staticmethod
    def from_coeffs(model: CEModel, coeffs) -> SymplecticForm:
        """omega = sum c x_i x_j over (i, j, c) triples, 1-based, i < j."""
        n = model.n
        seen = set()
        terms = {}
        for i, j, c in coeffs:
            if not (1 <= i < j <= n):
                raise StructuralError(f"coefficient indices ({i},{j}) out of range")
            if (i, j) in seen:
                raise StructuralError(f"duplicate coefficient for ({i},{j})")
            seen.add((i, j))
            terms[(i - 1, 1, j - 1, 1)] = c
        return SymplecticForm(model, model.algebra.element(terms))

    @staticmethod
    def from_element(model: CEModel, omega: Element) -> SymplecticForm:
        if omega.algebra is not model.algebra:
            raise StructuralError("omega lives over a different algebra")
        if not omega.is_zero() and omega.degree() != 2:
            raise StructuralError("omega must be homogeneous of degree 2")
        return SymplecticForm(model, omega)

    def __str__(self):
        return str(self.omega)


class SymplecticCertificate(
    namedtuple(
        "SymplecticCertificate",
        "closed d_omega even_dimensional rank nondegenerate kernel_witness",
    )
):
    """Result of checking the two symplectic conditions; never an error.

    kernel_witness is a nonzero kernel vector of a degenerate form, as a
    tuple of n exact rationals, and None for a nondegenerate one.
    """

    __slots__ = ()

    @property
    def symplectic(self) -> bool:
        return self.closed and self.even_dimensional and self.nondegenerate


def is_symplectic(model: CEModel, omega: Element) -> SymplecticCertificate:
    """Certify closedness and nondegeneracy of a degree-2 element.

    Column k of X -> iota_X omega is iota_{e_k} omega, read off omega's
    terms by exterior.contraction_columns. The rank is n minus the dimension
    of the kernel, and the witness is the first reduced-echelon kernel
    vector (see linalg.kernel).
    """
    SymplecticForm.from_element(model, omega)
    d_omega = model.d(omega)
    n = model.n
    kernel = linalg.kernel(contraction_columns([omega], n))
    rank = n - len(kernel)
    witness = tuple(kernel[0].get(k, ZERO) for k in range(n)) if kernel else None
    return SymplecticCertificate(
        closed=d_omega.is_zero(),
        d_omega=d_omega,
        even_dimensional=n % 2 == 0,
        rank=rank,
        nondegenerate=rank == n,
        kernel_witness=witness,
    )


class SymplecticSearchResult(
    namedtuple("SymplecticSearchResult", "status form certificate closed_dim reason")
):
    """Outcome of find_symplectic.

    status is one of:
      "found"             a certified form is attached: the sum of a
                          perfect matching of closed monomials, or else
                          the first grid point of full rank under the
                          product chain (see find_symplectic);
      "definitively-none" no symplectic form exists on this model, proved
                          by the odd dimension, by Z^2 = 0, by a nonzero
                          vector in the common kernel of all closed
                          2-forms, or by the vanishing of every product of
                          dim/2 closed 2-forms.
    form and certificate are the SymplecticForm and its
    SymplecticCertificate when found, else None. reason names which check
    decided. closed_dim is dim Z^2, or -1 when the odd dimension decides
    first.
    """

    __slots__ = ()

    @property
    def found(self) -> bool:
        return self.status == "found"


def closed_two_form_basis(model: CEModel) -> list[Element]:
    """Basis of Z^2, the closed 2-forms; all of degree 2 lies in Lambda^2 V."""
    return model.cohomology.cocycles(2)


def _bits(a: Element) -> dict:
    """An element of a CE model as a map from bit-set monomials to its
    coefficients: every generator has degree 1, so a monomial is the set of
    its generators."""
    return {sum(1 << i for i in key[::2]): c for key, c in a.terms.items()}


def _odd_above(s: int) -> int:
    """The bit set of the generators b with an odd number of generators of
    s above b."""
    mask = above = 0
    for b in range(s.bit_length() - 1, -1, -1):
        if above:
            mask |= 1 << b
        above ^= s >> b & 1
    return mask


def _factor(u: dict) -> list[tuple]:
    """The terms c x_S of a bit-set element as (S, _odd_above(S), c), the
    left factor of _times."""
    return [(s, _odd_above(s), c) for s, c in u.items()]


def _bit_form(omega: Element) -> list[tuple]:
    """A 2-form as the left factor of _times, scaled by the lcm of its
    denominators so that every coefficient is an integer. The scale
    multiplies each product by a nonzero constant, so no rank and no linear
    dependence changes."""
    den = lcm(*(c.denominator for c in omega.terms.values()))
    return _factor({s: int(c * den) for s, c in _bits(omega).items()})


def _times(factor, w: dict) -> dict:
    """u * w for u given as _factor terms and a bit-set element w.

    x_S x_T is zero when S meets T; otherwise it is (-1)^|T cap M| x_{S+T},
    where M = _odd_above(S): each generator b of T moves past the
    generators of S above b. For a term c x_i x_j of a 2-form, M is
    {i, ..., j - 1}, so the sign counts the generators of T strictly
    between i and j. This is the one product step of the W_j chain and of
    hard Lefschetz.
    """
    p = {}
    for s, mask, c in factor:
        for t, x in w.items():
            if s & t:
                continue
            key = s | t
            y = p.get(key, 0) + (-c * x if (t & mask).bit_count() & 1 else c * x)
            if y:
                p[key] = y
            else:
                del p[key]
    return p


def _products(level, forms):
    """(label + (i,), omega_i * w) over the kept (label, w) of a level and
    the basis forms in turn, leaving out the products that vanish.

    w maps bit-set monomials to integers, and forms[i] is omega_i as
    _bit_form gives it.
    """
    for label, w in level:
        for i, form in enumerate(forms):
            p = _times(form, w)
            if p:
                yield label + (i,), p


def _product_chain(omegas: list[Element], half: int):
    """Yield the labels of the kept products of W_1, ..., W_half in turn.

    A label lists the basis index taken at each level, so the kept vector
    it names is the product of those forms. The chain ends after the first
    empty level.

    Every CE generator has degree 1, so a monomial is the bit set S of its
    generators, and each product is one _times step. Each basis form is
    scaled to integer coefficients, which scales its products and so
    changes no linear dependence among them. Which products an echelon
    keeps depends only on their order and their dependence, not on how the
    coordinates are named, so the labels are those of the products of the
    forms themselves. Products that vanish never reach the echelon. Top
    degree is a line, so W_half keeps exactly its first nonzero product:
    that level stops there, with no echelon.
    """
    forms = [_bit_form(omega) for omega in omegas]
    level = [((), {0: 1})]
    for _ in range(1, half):
        echelon = linalg.Echelon()
        level = [(label, p) for label, p in _products(level, forms) if echelon.add(p)]
        yield [label for label, _ in level]
        if not level:
            return
    first = next(_products(level, forms), None)
    yield [first[0]] if first else []


def _none(closed_dim: int, reason: str) -> SymplecticSearchResult:
    return SymplecticSearchResult("definitively-none", None, None, closed_dim, reason)


def _found(model, omega, cert, closed_dim, reason) -> SymplecticSearchResult:
    """The result for a candidate that must certify; anything else is a bug."""
    if not cert.symplectic:
        raise StructuralError("search produced an uncertifiable candidate")
    return SymplecticSearchResult("found", SymplecticForm(model, omega), cert, closed_dim, reason)


def _common_kernel_vector(omegas: list[Element], n: int):
    """The first reduced-echelon vector X with iota_X omega = 0 for every
    omega in the list, as a coordinate tuple, or None when there is none.

    The columns of X -> (iota_X omega_1, ..., iota_X omega_m) are read off
    the forms' terms by exterior.contraction_columns, as is_symplectic reads
    one form's, so X is given the way a kernel witness is.
    """
    kernel = linalg.kernel(contraction_columns(omegas, n))
    return tuple(kernel[0].get(k, ZERO) for k in range(n)) if kernel else None


def _first_perfect_matching(partners: list[list[int]]):
    """The lexicographically first perfect matching of a graph on 0..n-1,
    as ascending pairs (v, u) with v < u, or None when it has none.

    partners[v] lists, ascending, the neighbours of v above v. The smallest
    free vertex is matched first, to each of its free partners in turn, so
    the first complete matching met is the lexicographically first. A set
    of free vertices (a bit set) that has no perfect matching is recorded
    once and never searched again; the record lives only for this call.
    """
    dead = set()

    def match(free: int):
        if not free:
            return []
        if free in dead:
            return None
        v = (free & -free).bit_length() - 1
        for u in partners[v]:
            if free >> u & 1:
                rest = match(free & ~(1 << v | 1 << u))
                if rest is not None:
                    return [(v, u), *rest]
        dead.add(free)
        return None

    return match((1 << len(partners)) - 1)


def _chain_search(model: CEModel, omegas: list[Element]) -> SymplecticSearchResult:
    """Decide by the product chain, given a nonempty basis of Z^2 on an
    even-dimensional model; find_symplectic's last resort.

    W_0 = span(1) and W_{j+1} = span(omega_i * w) over the Z^2 basis
    omega_i and the kept vectors w of W_j. W_j is the span of all products
    of j basis forms, and omega^{n/2} vanishes on all of Z^2 iff
    W_{n/2} = 0, so an empty W_j proves that no symplectic form exists.
    Otherwise the first nonzero product of level n/2 ends the chain: top
    degree is a line, so it is the one kept vector of W_{n/2}, a nonzero
    product omega^a for a multiset a of basis indices. Hence
    (sum t_i omega_i)^{n/2} = P(t) vol for a polynomial P with a nonzero
    t^a coefficient, and sum t_i omega_i is nondegenerate iff P(t) != 0.
    By the Combinatorial Nullstellensatz (Alon 1999) P is nonzero at some
    t in the grid prod {0..a_i}, at most 2^{n/2} points. The grid is
    walked in lexicographic order and the first point whose form has full
    rank is returned with its certificate.

    The products are formed on bit-set monomials (see _product_chain): a
    term c x_i x_j times x_S is zero when S meets {i, j} and is otherwise
    a signed c x_{S + {i, j}}, and the products that vanish are skipped
    before the echelon. Only the labels of the kept products leave the
    chain, so the witness is the one the products of the forms name.
    """
    m = len(omegas)
    half = model.n // 2
    for j, labels in enumerate(_product_chain(omegas, half), 1):
        if not labels:
            return _none(
                m,
                f"every {j}-fold product of closed 2-forms vanishes, so "
                f"omega^{half} = 0 for every closed 2-form omega",
            )

    a = labels[0]
    for point in product(*(range(a.count(i) + 1) for i in range(m))):
        omega = model.algebra.zero()
        for w, omega_i in zip(point, omegas):
            if w:
                omega = omega + omega_i.scale(w)
        cert = is_symplectic(model, omega)
        if cert.nondegenerate:
            reason = f"grid witness under a nonzero {half}-fold product of closed 2-forms"
            return _found(model, omega, cert, m, reason + ", certified")
    raise StructuralError("no grid point under a nonzero product is nondegenerate")


def find_symplectic(model: CEModel) -> SymplecticSearchResult:
    """Decide whether Z^2 has a nondegenerate element; name one if it does.

    The checks run in this order, and the first that applies decides:
      - an odd dimension, or Z^2 = 0: no form;
      - the common kernel K = {X : iota_X omega = 0 for every closed
        omega} is nonzero: every closed 2-form vanishes on the vector X
        the reason names, so none is nondegenerate;
      - the closed monomials x_i x_j, those with d(x_i x_j) = 0, have a
        perfect matching: the sum of its monomials is closed, and it is
        nondegenerate because each generator occurs in exactly one of its
        terms. The lexicographically first matching is taken;
      - otherwise the product chain decides (_chain_search).
    Every form returned is certified by is_symplectic first.
    """
    n = model.n
    if n % 2:
        return _none(-1, f"odd dimension {n}")
    omegas = closed_two_form_basis(model)
    m = len(omegas)
    if m == 0:
        return _none(0, "no nonzero closed 2-forms")

    x = _common_kernel_vector(omegas, n)
    if x is not None:
        return _none(
            m,
            f"iota_X omega = 0 for every closed 2-form omega at X = "
            f"({', '.join(map(str, x))}) in their common kernel, so none is nondegenerate",
        )

    d = model.d
    partners = [
        [j for j in range(i + 1, n) if not d.monomial_terms((i, 1, j, 1))] for i in range(n)
    ]
    matching = _first_perfect_matching(partners)
    if matching is not None:
        omega = model.algebra.element({(i, 1, j, 1): 1 for i, j in matching})
        reason = "sum of the closed monomials x_i x_j of a perfect matching of the generators"
        return _found(model, omega, is_symplectic(model, omega), m, reason + ", certified")
    return _chain_search(model, omegas)


class LefschetzEntry(
    namedtuple(
        "LefschetzEntry",
        "k source_degree target_degree source_betti target_betti rank isomorphism",
    )
):
    __slots__ = ()


def _pairing_rank(products, partners: list[dict], n: int) -> int:
    """Rank of the matrix G_ij = <u_i, a_j> over products u_i, partners a_j,
    all bit-set elements on n generators.

    <u, v> is the coefficient of x_1...x_n in uv. Each term c x_S of a_j is
    filed under the complementary monomial x_C, C = full ^ S, with the sign
    of x_C x_S = +-x_1...x_n, the parity of |S cap _odd_above(C)| as in
    _times. One pass over the terms of u_i then fills row i.
    """
    full = (1 << n) - 1
    dual: dict[int, list] = {}
    for j, a in enumerate(partners):
        for s, c in a.items():
            comp = full ^ s
            sign = (s & _odd_above(comp)).bit_count() & 1
            dual.setdefault(comp, []).append((j, -c if sign else c))
    rows = linalg.Echelon()
    for u in products:
        row = {}
        for key, e in u.items():
            for j, c in dual.get(key, ()):
                y = row.get(j, ZERO) + e * c
                if y:
                    row[j] = y
                else:
                    del row[j]
        rows.add(row)
    return rows.rank


def hard_lefschetz(model: CEModel, sf: SymplecticForm) -> list[LefschetzEntry]:
    """Rank of cup with [omega]^k : H^{h-k} -> H^{h+k} for 0 <= k <= h.

    h is half the dimension n. An entry is an isomorphism when the two
    Betti numbers agree and the map has full rank. The model's analyzer
    must certify Poincare duality (Cohomology.duality is n), or this
    refuses: then b_{h+k} = b_{h-k}, and the pairing of H^{h+k} with
    H^{h-k}, the top coefficient of a product, is perfect. The same
    certificate, d = 0 on C^{n-1}, makes a coboundary pair to zero with
    every cocycle: for z in Z^{h-k} and y in C^{h-k-1}, omega^k z is closed
    and d(omega^k z y) = 0, so <omega^k z, dy> = 0, and likewise
    <omega^k dy, z> = 0. The matrix <omega^k z_i, z_j> over a cocycle basis
    z of Z^{h-k} (see _pairing_rank) thus has the rank of the pairing on
    classes, which is the rank of [omega]^k, and no class representative
    is picked. Only Z^p for p < h is read, each before any rank of its
    degree. k = 0 is the identity on H^h, of rank b_h.

    Everything is on bit-set monomials, with the one product step _times:
    omega is scaled to integer coefficients (the rank of a matrix times a
    nonzero constant is unchanged), omega^k = omega * omega^{k-1} is formed
    once per k, each cocycle is converted to a bit-set map once, and
    omega^k z_i is one product of the two.
    """
    if sf.model.algebra is not model.algebra:
        raise StructuralError("form and model live over different generator sets")
    coh = model.cohomology
    n = model.n
    half = n // 2
    if n % 2:
        raise StructuralError("hard Lefschetz needs an even-dimensional model")
    if coh.duality != n:
        raise StructuralError("hard Lefschetz needs Poincare duality: d != 0 on C^(n-1)")
    form = _bit_form(sf.omega)
    power = {0: 1}
    ranks = []
    for k in range(1, half + 1):
        cocycles = [_bits(z) for z in coh.cocycles(half - k)]
        power = _times(form, power)
        factor = _factor(power)
        ranks.append(_pairing_rank((_times(factor, z) for z in cocycles), cocycles, n))
    # Only now the Betti numbers: the cocycle records of Z^p, p < h, read
    # above one at a time, serve every rank they need, so no degree is
    # eliminated twice (a rank-only record first would be redone for Z^p).
    bettis = [coh.betti(half - k) for k in range(half + 1)]
    return [
        LefschetzEntry(k, half - k, half + k, b, b, rk, b == rk)
        for k, (b, rk) in enumerate(zip(bettis, [bettis[0], *ranks]))
    ]
