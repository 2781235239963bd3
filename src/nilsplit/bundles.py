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
contraction with the j-th alpha column (exterior.contract). Hence
D^2 x_k = sum_j a_j theta_j(d x_k) and D(omega) = d omega + sum_j a_j
theta_j(omega), and the obstruction is read off these contractions. D^2 = 0
is never assumed for a nonzero twist: csplit_compare checks it on every
generator before it computes any cohomology and rejects incompatible alpha
with a witness (build_twisted does the same for library callers). At
alpha = 0 the model is base tensor a checked CE model and needs no check.
The forcing solver assembles theta_j(d x_k) = 0 and theta_j(omega) = 0,
the admissibility and Hamiltonian conditions for a closed omega, for all
alpha at once and decides whether they force alpha = 0. When they do, the
only admissible model is the product one, and total cohomology splits as
base tensor fiber.

Total Betti numbers come from one of three paths:
- alpha = 0, any base: the total DGA is base tensor fiber, so its Betti
  vector is the Kunneth convolution;
- S2 base, alpha != 0: theta anticommutes with d once D^2 = 0, and the Wang
  sequence gives b_k(E) = (b_k - r_k) + (b_{k-2} - r_{k-1}) with b the
  fiber's Betti numbers and r_k the rank of theta_*: H^k(F) -> H^{k-1}(F),
  all computed on the fiber;
- formal base, alpha != 0: the cohomology of the total model itself.
Comparing the total vector with the convolution makes the splitting
checkable degree by degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .cohomology import Cohomology
from .errors import StructuralError, TwistIncompatibleError
from .exterior import (
    Derivation,
    Element,
    FreeDGA,
    GradedAlgebra,
    contract,
    contraction_columns,
    exact,
)
from .lie_algebras import CEModel
from .symplectic import SymplecticForm

ZERO = 0


@dataclass(frozen=True)
class BaseModel:
    """A base DGA together with its degree-2 twist generators.

    kind "s2": the two-generator model of the sphere, deg a = 2, deg b = 3,
    da = 0, db = a^2 (a^2 bounds, so H^4 = 0 and H^2 is spanned by [a]).
    kind "formal": a free polynomial algebra on m degree-2 cocycles.
    """

    kind: str
    dga: FreeDGA
    twist_gen_names: tuple[str, ...]

    @property
    def m(self) -> int:
        return len(self.twist_gen_names)


def sphere_base() -> BaseModel:
    algebra = GradedAlgebra([("a", 2), ("b", 3)])
    d = Derivation(
        algebra,
        {"a": algebra.zero(), "b": algebra.gen("a") * algebra.gen("a")},
    )
    return BaseModel(kind="s2", dga=FreeDGA(algebra, d), twist_gen_names=("a",))


def formal_even_base(m: int) -> BaseModel:
    if m < 1:
        raise StructuralError("formal base needs at least one generator")
    names = tuple(f"a{j}" for j in range(1, m + 1))
    algebra = GradedAlgebra([(name, 2) for name in names])
    d = Derivation(algebra, {name: algebra.zero() for name in names})
    return BaseModel(kind="formal", dga=FreeDGA(algebra, d), twist_gen_names=names)


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
    The constructor only builds the model and makes no D^2 = 0 promise;
    csplit_compare() checks it for a nonzero twist, and build_twisted() is
    the constructor that checks it up front.
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

    def theta(self, j: int) -> dict[int, Fraction]:
        """Column j of alpha (0-based) as the contraction map of exterior.contract."""
        return {k: row[j] for k, row in enumerate(self.alpha) if row[j]}


def _require_flat(tm: TwistedModel) -> None:
    witness = tm.total.flatness_witness()
    if witness is not None:
        raise TwistIncompatibleError(*witness)


def build_twisted(fiber: CEModel, base: BaseModel, alpha) -> TwistedModel:
    """Construct the twisted model, verifying D^2 = 0 on every generator."""
    tm = TwistedModel(base, fiber, alpha)
    _require_flat(tm)
    return tm


@dataclass(frozen=True)
class ObstructionReport:
    """D(omega) in the total model and its base-generator coefficients.

    per_generator[a_j] = theta_j(omega), the contraction of omega with the
    j-th alpha column, and full = d omega + sum_j a_j theta_j(omega). The
    model is Hamiltonian iff full == 0. omega need not be closed.
    """

    full: Element
    per_generator: dict[str, Element]
    hamiltonian: bool


def hamiltonian_obstruction(tm: TwistedModel, sf: SymplecticForm) -> ObstructionReport:
    if sf.model.algebra is not tm.fiber.algebra:
        raise StructuralError("symplectic form lives on a different fiber")
    full = tm.include_fiber(tm.fiber.d(sf.omega))
    per_generator = {}
    for j, name in enumerate(tm.base.twist_gen_names):
        per_generator[name] = contract(sf.omega, tm.theta(j))
        full = full + tm.total.algebra.gen(name) * tm.include_fiber(per_generator[name])
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
    _, kernel = linalg.kernel(contraction_columns(conditions, n))
    return [
        tuple(
            tuple(v.get(k, ZERO) if j == col else ZERO for j in range(m))
            for k in range(n)
        )
        for v in kernel
        for col in range(m)
    ]


@dataclass(frozen=True)
class ForcingReport:
    """Solution space of {D^2 = 0 and D(omega) = 0} over all alpha.

    forced_zero means the only admissible Hamiltonian twist is alpha = 0,
    which certifies that the total model is the product one and cohomology
    splits. A positive dimension comes with basis alphas, each re-verified
    by direct evaluation.
    """

    fiber_dim: int
    base_m: int
    solution_dimension: int
    basis_alphas: tuple
    forced_zero: bool
    witnesses_verified: bool


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


def _wang_betti(tm: TwistedModel, cap: int) -> list[int]:
    """b_k(E) = (b_k - r_k) + (b_{k-2} - r_{k-1}), r_k = rank theta_* on H^k.

    theta d + d theta is a degree-0 derivation that vanishes on generators
    once theta(d x_k) = 0, so theta maps cocycles to cocycles and
    coboundaries to coboundaries; r_k is the rank of the induced map
    H^k(F) -> H^{k-1}(F) on the class bases of the fiber's analyzer.
    """
    theta = tm.theta(0)
    fiber = tm.fiber.cohomology
    b = fiber.betti_vector(cap)
    r = [0] * (cap + 1)
    for k in range(1, cap + 1):
        if b[k] and b[k - 1]:
            target = fiber.basis(k - 1)
            r[k] = target.rank_of(
                contract(z, theta) for z in fiber.basis(k).representatives
            )
    return [
        b[k] - r[k] + (b[k - 2] - r[k - 1] if k >= 2 else 0) for k in range(cap + 1)
    ]


def kunneth_convolution(base_betti: list[int], fiber_betti: list[int], cap: int):
    """Degree-wise convolution of two Betti vectors of length >= cap + 1."""
    return [
        sum(base_betti[i] * fiber_betti[d - i] for i in range(d + 1))
        for d in range(cap + 1)
    ]


@dataclass(frozen=True)
class CsplitVerdict:
    c_splits: bool
    cap: int
    total: tuple[int, ...]
    expected: tuple[int, ...]
    alpha_zero: bool  # alpha = 0: the total DGA is literally the tensor product


def csplit_compare(tm: TwistedModel, cap: int | None = None) -> CsplitVerdict:
    """Compare total Betti numbers with the base x fiber convolution.

    Default cap is fiber dimension + 2, the formal top of an S2-base total
    space. expected is the Kunneth convolution, and so is total at
    alpha = 0. This is where a nonzero twist is checked: D^2 = 0 on every
    generator comes first, before any cohomology, and TwistIncompatibleError
    names a witness otherwise. total then comes from the Wang sequence over
    S2 and from the cohomology of the total model over a formal base. The
    fiber's analyzer is its model's shared one (CEModel.cohomology).
    """
    alpha_zero = tm.alpha_is_zero()
    if not alpha_zero:
        _require_flat(tm)
    if cap is None:
        cap = tm.fiber.n + 2
    base = Cohomology(tm.base.dga).betti_vector(cap)
    expected = kunneth_convolution(base, tm.fiber.cohomology.betti_vector(cap), cap)
    if alpha_zero:
        total = expected
    elif tm.base.kind == "s2":
        total = _wang_betti(tm, cap)
    else:
        total = Cohomology(tm.total).betti_vector(cap)
    return CsplitVerdict(
        c_splits=total == expected,
        cap=cap,
        total=tuple(total),
        expected=tuple(expected),
        alpha_zero=alpha_zero,
    )


def pullback_column(tm: TwistedModel, i: int) -> TwistedModel:
    """The S2-base model carrying column i of alpha (1-based).

    Model-level pullback along the i-th sphere mapping into the base: the
    base generators go to delta_ij a, fiber generators map identically.
    """
    if tm.base.kind != "formal":
        raise StructuralError("pullback_column expects a formal multi-generator base")
    if not 1 <= i <= tm.base.m:
        raise IndexError(f"column {i} out of range 1..{tm.base.m}")
    column = [[row[i - 1]] for row in tm.alpha]
    return build_twisted(tm.fiber, sphere_base(), column)


def _pullback_index(tm: TwistedModel, sub: TwistedModel, i: int) -> list:
    """Index map of the pullback to sub = pullback_column(tm, i).

    a_i goes to a (index 0 of sub), every other a_j to 0, and each fiber
    generator to itself.
    """
    index_map = [0 if j == i else None for j in range(1, tm.base.m + 1)]
    return index_map + list(sub._fiber_index)


def pullback_commutes(tm: TwistedModel, i: int) -> bool:
    """Check f*(D~ g) == D(f* g) on every generator, symbolically."""
    sub = pullback_column(tm, i)
    index_map = _pullback_index(tm, sub, i)
    target = sub.total.algebra
    for g in tm.total.algebra.generators:
        lhs = _relabel(tm.total.d.image_of_generator(g.name), target, index_map)
        rhs = sub.total.d(_relabel(tm.total.algebra.gen(g.name), target, index_map))
        if lhs != rhs:
            return False
    return True
