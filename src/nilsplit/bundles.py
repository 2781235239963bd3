"""Twisted models of nilmanifold bundles and the c-splitting check.

The total model of a bundle with nilmanifold fiber over S2 (or over a
formal base with several degree-2 generators a_1..a_m) is the free algebra
on base and fiber generators together, with

    D(base generator) = base differential,
    D(x_k) = sum_j alpha_kj a_j + d x_k,

where alpha is a (2n) x m rational matrix of twisting coefficients. Fiber
generators sit in degree 1, so by degree reasons the twist can only land
on the degree-2 base cocycles; D restricts to the base differential and
differs from the fiber differential by base-ideal terms, which is the
structural shape such models must have.

On fiber elements D = d + sum_j a_j theta_j, where theta_j is the degree -1
contraction with the j-th alpha column: both sides are derivations that
agree on the fiber generators, for every alpha, flat or not. Hence
D^2 x_k = sum_j a_j theta_j(d x_k) and D(omega) = d omega + sum_j a_j
theta_j(omega). The obstruction computes D(omega) in the total model and
reads each theta_j(omega) off it as its a_j-part. D^2 = 0 is never
assumed for a nonzero twist: csplit_compare checks it on every generator
before it computes any cohomology and rejects incompatible alpha with a
witness; library callers may ask tm.total.flatness_witness() themselves.
At alpha = 0 the model is base tensor a checked CE model and needs no
check. The forcing solver assembles theta_j(d x_k) = 0 and
theta_j(omega) = 0, the admissibility and Hamiltonian conditions for a
closed omega, for all alpha at once from exterior.contraction_columns,
and decides whether they force alpha = 0. When they do, the only
admissible model is the product one, and total cohomology splits as base
tensor fiber.

Total Betti numbers come from one of two paths:
- alpha = 0, any base: the total DGA is base tensor fiber, so its Betti
  vector is the Kunneth convolution;
- alpha != 0, any base: the cohomology of the total model's minimal
  model, which _minimal_model reaches by cancelling rank alpha contractible
  pairs (x_k, D x_k).
Comparing the total vector with the convolution makes the splitting
checkable degree by degree. BaseModel and the results ObstructionReport,
ForcingReport and CsplitVerdict are immutable named tuples.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import linalg
from .cohomology import Cohomology
from .errors import StructuralError, TwistIncompatibleError
from .exterior import (
    Derivation,
    Element,
    FreeDGA,
    GradedAlgebra,
    contraction_columns,
    exact,
)
from .lie_algebras import CEModel
from .symplectic import SymplecticForm

ZERO = 0


class BaseModel(namedtuple("BaseModel", "dga twist_gen_names")):
    """A base DGA together with its degree-2 twist generators.

    sphere_base() is the two-generator model of S2, deg a = 2, deg b = 3,
    da = 0, db = a^2 (a^2 bounds, so H^4 = 0 and H^2 is spanned by [a]).
    formal_even_base(m) is a free polynomial algebra on m degree-2
    cocycles. twist_gen_names is the tuple of the names of the a_j.
    """

    __slots__ = ()

    @property
    def m(self) -> int:
        return len(self.twist_gen_names)


def sphere_base() -> BaseModel:
    algebra = GradedAlgebra([("a", 2), ("b", 3)])
    d = Derivation(
        algebra,
        {"a": algebra.zero(), "b": algebra.gen("a") * algebra.gen("a")},
    )
    return BaseModel(dga=FreeDGA(algebra, d), twist_gen_names=("a",))


def formal_even_base(m: int) -> BaseModel:
    if m < 1:
        raise StructuralError("formal base needs at least one generator")
    names = tuple(f"a{j}" for j in range(1, m + 1))
    algebra = GradedAlgebra([(name, 2) for name in names])
    d = Derivation(algebra, {name: algebra.zero() for name in names})
    return BaseModel(dga=FreeDGA(algebra, d), twist_gen_names=names)


def normalize_alpha(alpha, n_fiber: int, m: int) -> tuple[tuple[Fraction, ...], ...]:
    rows = [tuple(exact(v) for v in row) for row in alpha]
    if len(rows) != n_fiber or any(len(r) != m for r in rows):
        raise StructuralError(
            f"alpha must be {n_fiber} x {m}; got {len(rows)} rows "
            f"of lengths {[len(r) for r in rows]}"
        )
    return tuple(rows)


def _relabel(u: Element, target: GradedAlgebra, index_map) -> Element:
    """u with generator i sent to generator index_map[i] of target, or to 0 for None.

    This is the algebra map with those generator images when the indices
    kept (not None) increase and keep their degrees: each key then stays in
    normal form, keys stay distinct, and no Koszul sign arises.
    """
    terms = {}
    for key, c in u.terms.items():
        out = []
        for p in range(0, len(key), 2):
            i = index_map[key[p]]
            if i is None:
                break
            out += (i, key[p + 1])
        else:
            terms[tuple(out)] = c
    return Element(target, terms)


class TwistedModel:
    """Base tensor fiber with twisting matrix alpha; see the module docstring.

    The total algebra lists the base generators, then the fiber ones, so
    base and fiber elements enter it by relabelling generator indices.
    The constructor only builds the model and makes no D^2 = 0 promise:
    csplit_compare() checks it for a nonzero twist, and
    self.total.flatness_witness() names a generator with D^2 != 0.
    """

    def __init__(self, base: BaseModel, fiber: CEModel, alpha):
        self.base = base
        self.fiber = fiber
        self.alpha = normalize_alpha(alpha, fiber.n, base.m)

        base_gens = [(g.name, g.degree) for g in base.dga.algebra.generators]
        fiber_gens = [(g.name, g.degree) for g in fiber.algebra.generators]
        overlap = {n for n, _ in base_gens} & {n for n, _ in fiber_gens}
        if overlap:
            raise StructuralError(f"generator name collision: {sorted(overlap)}")
        total_alg = GradedAlgebra(base_gens + fiber_gens)
        self._fiber_index = range(len(base_gens), len(total_alg.generators))

        images: dict[str, Element] = {}
        for name, _ in base_gens:
            dg = base.dga.d.image_of_generator(name)
            images[name] = _relabel(dg, total_alg, range(len(base_gens)))
        for k, (name, _) in enumerate(fiber_gens):
            dx = fiber.d.image_of_generator(name)
            img = _relabel(dx, total_alg, self._fiber_index)
            for j, twist_name in enumerate(base.twist_gen_names):
                c = self.alpha[k][j]
                if c:
                    img = img + total_alg.gen(twist_name).scale(c)
            images[name] = img
        self.total = FreeDGA(total_alg, Derivation(total_alg, images))

    def include_fiber(self, u: Element) -> Element:
        """u under the inclusion of the fiber algebra into the total one."""
        if u.algebra is not self.fiber.algebra:
            raise StructuralError("element lives outside the fiber algebra")
        return _relabel(u, self.total.algebra, self._fiber_index)

    def alpha_is_zero(self) -> bool:
        return all(not c for row in self.alpha for c in row)


class ObstructionReport(namedtuple("ObstructionReport", "full per_generator hamiltonian")):
    """D(omega) in the total model and its base-generator coefficients.

    full is D applied to omega in the total model, which equals
    d omega + sum_j a_j theta_j(omega), and per_generator[a_j] =
    theta_j(omega), the contraction of omega with the j-th alpha column,
    read off full as its a_j-part: one entry per twist generator, in
    twist_gen_names order. The model is Hamiltonian iff full == 0. omega
    need not be closed.
    """

    __slots__ = ()


def hamiltonian_obstruction(tm: TwistedModel, sf: SymplecticForm) -> ObstructionReport:
    if sf.model.algebra is not tm.fiber.algebra:
        raise StructuralError("symplectic form lives on a different fiber")
    full = tm.total.d(tm.include_fiber(sf.omega))
    # D(omega) has degree 3, so an a_j term is a_j times one fiber monomial
    names = tm.base.twist_gen_names
    index = {g.name: g.index for g in tm.base.dga.algebra.generators}
    parts = {(index[name], 1): {} for name in names}
    for key, c in full.terms.items():
        part = parts.get(key[:2])
        if part is not None:
            part[key[2:]] = c
    to_fiber = [None] * tm._fiber_index.start + list(range(tm.fiber.n))
    per_generator = {
        name: _relabel(Element(tm.total.algebra, part), tm.fiber.algebra, to_fiber)
        for name, part in zip(names, parts.values())
    }
    return ObstructionReport(
        full=full, per_generator=per_generator, hamiltonian=full.is_zero()
    )


def _solve_alphas(fiber: CEModel, m: int, omega: Element | None):
    """Basis of the alphas with D^2 = 0 and, given a closed omega, D(omega) = 0.

    The conditions theta_j(d x_i) = 0 and theta_j(omega) = 0 are linear in
    alpha, and the one for base generator j reads only column j of alpha,
    always through the same map. So the system is solved once: column k
    holds the contraction iota_{e_k}(d x_i) at the rows (i, monomial) and
    iota_{e_k}(omega) at the rows (n, monomial). Each kernel vector v gives
    m basis alphas, the one whose column j is v for each j. Ordered by free
    column k, then j, this is the reduced echelon kernel of the whole
    system with alpha_kj in column k * m + j.
    """
    n = fiber.n
    conditions = [fiber.d.image_of_generator(g.name) for g in fiber.algebra.generators]
    if omega is not None:
        conditions.append(omega)
    kernel = linalg.kernel(contraction_columns(conditions, n))
    return [
        tuple(
            tuple(v.get(k, ZERO) if j == col else ZERO for j in range(m))
            for k in range(n)
        )
        for v in kernel
        for col in range(m)
    ]


class ForcingReport(
    namedtuple(
        "ForcingReport",
        "fiber_dim base_m solution_dimension basis_alphas forced_zero witnesses_verified",
    )
):
    """Solution space of {D^2 = 0 and D(omega) = 0} over all alpha.

    forced_zero means the only admissible Hamiltonian twist is alpha = 0,
    which certifies that the total model is the product one and cohomology
    splits. A positive dimension comes with basis alphas, each re-verified
    by direct evaluation.
    """

    __slots__ = ()


def forcing_check(fiber: CEModel, sf: SymplecticForm, base: BaseModel) -> ForcingReport:
    """Solve the forcing system exactly over all alpha matrices.

    omega must be closed: otherwise D(omega) has the alpha-free part
    d omega, no twist is Hamiltonian, and StructuralError names d omega.

    A kernel vector v comes as m basis alphas, v in one column each (see
    _solve_alphas), and every column tests the same equations
    theta_v(d x_i) = 0 and theta_v(omega) = 0. So each v is verified once,
    on its column-0 copy in basis_alphas[::m], by evaluating D^2 and
    D(omega) in its twisted model.
    """
    if sf.model.algebra is not fiber.algebra:
        raise StructuralError("symplectic form lives on a different fiber")
    d_omega = fiber.d(sf.omega)
    if not d_omega.is_zero():
        raise StructuralError(f"omega is not closed: d(omega) = {d_omega}")
    n, m = fiber.n, base.m
    basis_alphas = _solve_alphas(fiber, m, sf.omega)

    models = [TwistedModel(base, fiber, alpha) for alpha in basis_alphas[::m]]
    verified = all(
        tm.total.flatness_witness() is None
        and tm.total.d(tm.include_fiber(sf.omega)).is_zero()
        for tm in models
    )
    return ForcingReport(
        fiber_dim=n,
        base_m=m,
        solution_dimension=len(basis_alphas),
        basis_alphas=tuple(basis_alphas),
        forced_zero=not basis_alphas,
        witnesses_verified=verified,
    )


def flat_alpha_space(fiber: CEModel, base: BaseModel):
    """Basis of the alphas with D^2 = 0 (no Hamiltonian condition)."""
    return _solve_alphas(fiber, base.m, None)


def _minimal_model(dga: FreeDGA) -> FreeDGA:
    """dga with its contractible pairs (x, Dx) cancelled: no image keeps a
    linear term, so what is left is minimal.

    While some Dx = c a + rest with a a generator and c != 0, the ideal
    (x, Dx) is D-stable and acyclic, and the quotient by it has the same
    cohomology: every Sullivan algebra is a minimal one tensor a
    contractible one (Felix-Halperin-Thomas, GTM 205, section 14). The
    quotient is free on the other generators, in their order, with x -> 0
    and a -> -rest / c in every image; relabelling drops every term with x
    or a, the c a of Dx among them. On a total model a is an even base
    generator, so a^e moves past the rest of its monomial with no sign.
    """
    while True:
        alg = dga.algebra
        pair = next(
            (
                (g.index, key[0], c)
                for g in alg.generators
                for key, c in dga.d.image_of_generator(g.name).terms.items()
                if len(key) == 2 and key[1] == 1
            ),
            None,
        )
        if pair is None:
            return dga
        x, a, c = pair
        kept = [g for g in alg.generators if g.index not in (x, a)]
        quotient = GradedAlgebra([(g.name, g.degree) for g in kept])
        index_map = [None] * len(alg.generators)
        for j, g in enumerate(kept):
            index_map[g.index] = j
        dx = dga.d.image_of_generator(alg.generators[x].name)
        # powers[e] is the image of a^e
        powers = [quotient.one(), _relabel(dx, quotient, index_map).scale(Fraction(-1, c))]
        images = {}
        for g in kept:
            plain, img = {}, quotient.zero()
            for key, coeff in dga.d.image_of_generator(g.name).terms.items():
                blocks = dict(zip(key[::2], key[1::2]))
                e = blocks.pop(a, 0)
                if not e:
                    plain[key] = coeff
                    continue
                while len(powers) <= e:
                    powers.append(powers[-1] * powers[1])
                others = tuple(v for block in blocks.items() for v in block)
                img = img + powers[e] * _relabel(Element(alg, {others: coeff}), quotient, index_map)
            images[g.name] = img + _relabel(Element(alg, plain), quotient, index_map)
        dga = FreeDGA(quotient, Derivation(quotient, images))


def kunneth_convolution(base_betti: list[int], fiber_betti: list[int], cap: int):
    """Degree-wise convolution of two Betti vectors of length >= cap + 1."""
    return [
        sum(base_betti[i] * fiber_betti[d - i] for i in range(d + 1))
        for d in range(cap + 1)
    ]


class CsplitVerdict(namedtuple("CsplitVerdict", "c_splits cap total expected alpha_zero")):
    """total and expected are Betti vectors up to degree cap; alpha_zero means
    the total DGA is literally the tensor product."""

    __slots__ = ()


def csplit_compare(tm: TwistedModel, cap: int | None = None) -> CsplitVerdict:
    """Compare total Betti numbers with the base x fiber convolution.

    Default cap is fiber dimension + 2, the formal top of an S2-base total
    space. expected is the Kunneth convolution, and so is total at
    alpha = 0. This is where a nonzero twist is checked: D^2 = 0 on every
    generator comes first, before any cohomology, and TwistIncompatibleError
    names a witness otherwise. total is then the cohomology of the total
    model's minimal model (_minimal_model), on any base. The fiber's
    analyzer is its model's shared one (CEModel.cohomology).
    """
    alpha_zero = tm.alpha_is_zero()
    witness = None if alpha_zero else tm.total.flatness_witness()
    if witness is not None:
        raise TwistIncompatibleError(*witness)
    if cap is None:
        cap = tm.fiber.n + 2
    base = Cohomology(tm.base.dga).betti_vector(cap)
    expected = kunneth_convolution(base, tm.fiber.cohomology.betti_vector(cap), cap)
    if alpha_zero:
        total = expected
    else:
        total = Cohomology(_minimal_model(tm.total)).betti_vector(cap)
    return CsplitVerdict(
        c_splits=total == expected,
        cap=cap,
        total=tuple(total),
        expected=tuple(expected),
        alpha_zero=alpha_zero,
    )
