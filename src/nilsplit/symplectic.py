"""Symplectic structures on Chevalley-Eilenberg models.

A candidate symplectic form is a degree-2 element omega = sum a_ij x_i x_j
(i < j). It is symplectic when (1) d omega = 0 and (2) omega is
nondegenerate: the map X -> iota_X omega is injective, so that
iota_X omega = 0 forces X = 0. The columns of that map are read off
omega's own terms, and the exact kernel of those sparse columns gives the
rank and, for a degenerate form, a witness X. The same contraction is
exterior.contract, which the forcing system and the obstruction use.

The search for a symplectic form runs over the space Z^2 of closed
2-forms and is a decision procedure with no budget. A 2-form on an
n-dimensional algebra is nondegenerate iff its power omega^{n/2} is
nonzero, and by polarization omega^{n/2} vanishes for every closed omega
iff every product of n/2 elements of a basis of Z^2 does. The span of
those products is built one factor at a time: if it dies, that is a proof
that no symplectic form exists; if a product survives, it names a grid of
at most 2^{n/2} small integer weights on which a nondegenerate form must
lie, and the first grid point of full rank is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import linalg
from .cohomology import Cohomology
from .errors import StructuralError
from .exterior import Element
from .lie_algebras import CEModel

ZERO = Fraction(0)


@dataclass(frozen=True)
class SymplecticForm:
    """A degree-2 element omega of a CE model, built and checked once."""

    model: CEModel
    omega: Element

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


@dataclass(frozen=True)
class SymplecticCertificate:
    """Result of checking the two symplectic conditions; never an error."""

    closed: bool
    d_omega: Element
    even_dimensional: bool
    rank: int
    nondegenerate: bool
    kernel_witness: tuple[Fraction, ...] | None

    @property
    def symplectic(self) -> bool:
        return self.closed and self.even_dimensional and self.nondegenerate


def is_symplectic(model: CEModel, omega: Element) -> SymplecticCertificate:
    """Certify closedness and nondegeneracy of a degree-2 element.

    Column k of X -> iota_X omega is iota_{e_k} omega: a term c x_i x_j
    puts c at x_j in column i and -c at x_i in column j. The rank is n
    minus the dimension of the kernel, and the witness is the first
    reduced-echelon kernel vector (see linalg.kernel).
    """
    SymplecticForm.from_element(model, omega)
    d_omega = model.d(omega)
    n = model.n
    columns: list[dict[int, Fraction]] = [{} for _ in range(n)]
    for key, c in omega.terms.items():
        # degree-2 monomials of a CE model are exactly x_i x_j, i < j
        i, j = key[0], key[2]
        columns[i][j] = c
        columns[j][i] = -c
    _, kernel = linalg.kernel(columns)
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


@dataclass(frozen=True)
class SymplecticSearchResult:
    """Outcome of find_symplectic.

    status is one of:
      "found"             a certified form is attached, the first grid
                          point of full rank (see find_symplectic);
      "definitively-none" no symplectic form exists on this model, proved
                          by the odd dimension, by Z^2 = 0, or by the
                          vanishing of every product of dim/2 closed
                          2-forms (reason names which).
    closed_dim is dim Z^2, or -1 when the odd dimension decides first.
    """

    status: str
    form: SymplecticForm | None
    certificate: SymplecticCertificate | None
    closed_dim: int
    reason: str

    @property
    def found(self) -> bool:
        return self.status == "found"


def closed_two_form_basis(model: CEModel) -> list[Element]:
    """Basis of Z^2, the closed 2-forms; all of degree 2 lies in Lambda^2 V."""
    return Cohomology(model.dga).cocycles(2)


def find_symplectic(model: CEModel) -> SymplecticSearchResult:
    """Decide whether Z^2 has a nondegenerate element; name one if it does.

    W_0 = span(1) and W_{j+1} = span(omega_i * w) over the Z^2 basis
    omega_i and the kept vectors w of W_j. W_j is the span of all products
    of j basis forms, and omega^{n/2} vanishes on all of Z^2 iff
    W_{n/2} = 0, so an empty W_j proves that no symplectic form exists.
    Otherwise the first kept vector of W_{n/2} is a nonzero product
    omega^a for a multiset a of basis indices. Top degree is a line, so
    (sum t_i omega_i)^{n/2} = P(t) vol for a polynomial P with a nonzero
    t^a coefficient, and sum t_i omega_i is nondegenerate iff P(t) != 0.
    By the Combinatorial Nullstellensatz (Alon 1999) P is nonzero at some
    t in the grid prod {0..a_i}, at most 2^{n/2} points. The grid is
    walked in lexicographic order and the first point whose form has full
    rank is returned with its certificate.
    """
    n = model.n

    def none(closed_dim, reason):
        return SymplecticSearchResult("definitively-none", None, None, closed_dim, reason)

    if n % 2:
        return none(-1, f"odd dimension {n}")
    omegas = closed_two_form_basis(model)
    m = len(omegas)
    if m == 0:
        return none(0, "no nonzero closed 2-forms")

    half = n // 2
    # the kept products spanning W_j, each with its multiset of basis indices
    level: list[tuple[tuple[int, ...], Element]] = [((), model.algebra.one())]
    for j in range(1, half + 1):
        echelon = linalg.Echelon()
        kept = []
        for indices, w in level:
            for i, omega in enumerate(omegas):
                p = omega * w
                if echelon.add(p.terms):
                    kept.append((indices + (i,), p))
        if not kept:
            return none(
                m,
                f"every {j}-fold product of closed 2-forms vanishes, so "
                f"omega^{half} = 0 for every closed 2-form omega",
            )
        level = kept

    a = level[0][0]
    for point in product(*(range(a.count(i) + 1) for i in range(m))):
        omega = model.algebra.zero()
        for w, omega_i in zip(point, omegas):
            if w:
                omega = omega + omega_i.scale(w)
        cert = is_symplectic(model, omega)
        if not cert.nondegenerate:
            continue
        if not cert.symplectic:
            raise StructuralError("search produced an uncertifiable candidate")
        return SymplecticSearchResult(
            status="found",
            form=SymplecticForm(model, omega),
            certificate=cert,
            closed_dim=m,
            reason=f"grid witness under a nonzero {half}-fold product of "
            f"closed 2-forms, certified",
        )
    raise StructuralError("no grid point under a nonzero product is nondegenerate")


@dataclass(frozen=True)
class LefschetzEntry:
    k: int
    source_degree: int
    target_degree: int
    source_betti: int
    target_betti: int
    rank: int
    isomorphism: bool


def hard_lefschetz(model: CEModel, sf: SymplecticForm) -> list[LefschetzEntry]:
    """Rank of cup with [omega]^k : H^{n-k} -> H^{n+k} for 0 <= k <= n.

    n is half the dimension. Exact ranks; an entry is an isomorphism when
    the two Betti numbers agree and the cup matrix has full rank.
    """
    if sf.model.algebra is not model.algebra:
        raise StructuralError("form and model live over different generator sets")
    coh = Cohomology(model.dga)
    half = model.n // 2
    if model.n % 2:
        raise StructuralError("hard Lefschetz needs an even-dimensional model")
    entries = []
    for k in range(half + 1):
        p, q = half - k, half + k
        omega_k = sf.omega.power(k)
        basis_p = coh.basis(p)
        basis_q = coh.basis(q)
        cols = [basis_q.reduce(omega_k * rep) for rep in basis_p.representatives]
        rk = linalg.rank(cols)
        entries.append(
            LefschetzEntry(
                k=k,
                source_degree=p,
                target_degree=q,
                source_betti=basis_p.betti,
                target_betti=basis_q.betti,
                rank=rk,
                isomorphism=basis_p.betti == basis_q.betti == rk,
            )
        )
    return entries
