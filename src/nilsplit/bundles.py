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
    AlgebraMorphism,
    Derivation,
    Element,
    FreeDGA,
    GradedAlgebra,
    contract,
)
from .lie_algebras import CEModel
from .symplectic import SymplecticForm

ZERO = Fraction(0)
ONE = Fraction(1)


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
    rows = [tuple(Fraction(v) for v in row) for row in alpha]
    if len(rows) != n_fiber or any(len(r) != m for r in rows):
        raise StructuralError(
            f"alpha must be {n_fiber} x {m}; got {len(rows)} rows "
            f"of lengths {[len(r) for r in rows]}"
        )
    return tuple(rows)


class TwistedModel:
    """Base tensor fiber with twisting matrix alpha; see the module docstring.

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

        self.include_base = AlgebraMorphism(
            base.dga.algebra,
            total_alg,
            {name: total_alg.gen(name) for name, _ in base_gens},
        )
        self.include_fiber = AlgebraMorphism(
            fiber.algebra,
            total_alg,
            {name: total_alg.gen(name) for name, _ in fiber_gens},
        )

        images: dict[str, Element] = {}
        for name, _ in base_gens:
            images[name] = self.include_base(base.dga.d.image_of_generator(name))
        for k, (name, _) in enumerate(fiber_gens):
            img = self.include_fiber(fiber.d.image_of_generator(name))
            for j, twist_name in enumerate(base.twist_gen_names):
                c = self.alpha[k][j]
                if c:
                    img = img + total_alg.gen(twist_name).scale(c)
            images[name] = img
        self.total = FreeDGA(total_alg, Derivation(total_alg, images))

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
    alpha. The sparse column of alpha_kj holds the contraction
    iota_{e_k}(d x_i) at the rows (j, i, monomial) and iota_{e_k}(omega) at
    the rows (j, n, monomial). Columns come in the order k * m + j of the
    flattened alpha, and the kernel is in reduced echelon normal form.
    """
    n = fiber.n
    conditions = [fiber.d.image_of_generator(g.name) for g in fiber.algebra.generators]
    if omega is not None:
        conditions.append(omega)
    columns = []
    for k in range(n):
        unit = {k: ONE}
        block = {
            (i, key): c
            for i, u in enumerate(conditions)
            for key, c in contract(u, unit).terms.items()
        }
        for j in range(m):
            columns.append({(j, i, key): c for (i, key), c in block.items()})
    _, kernel = linalg.kernel(columns)
    return [
        tuple(tuple(v.get(k * m + j, ZERO) for j in range(m)) for k in range(n))
        for v in kernel
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
    """
    if sf.model.algebra is not fiber.algebra:
        raise StructuralError("symplectic form lives on a different fiber")
    d_omega = fiber.d(sf.omega)
    if not d_omega.is_zero():
        raise StructuralError(f"omega is not closed: d(omega) = {d_omega}")
    n, m = fiber.n, base.m
    basis_alphas = _solve_alphas(fiber, m, sf.omega)

    verified = True
    for alpha in basis_alphas:
        tm = TwistedModel(base, fiber, alpha)
        flat = tm.total.flatness_witness() is None
        ham = tm.total.d(tm.include_fiber(sf.omega)).is_zero()
        verified = verified and flat and ham

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


def total_betti(tm: TwistedModel, cap: int | None = None) -> list[int]:
    """Betti numbers of the total space through degree cap (csplit_compare.total)."""
    return list(csplit_compare(tm, cap).total)


def _wang_betti(tm: TwistedModel, cap: int, fiber: Cohomology) -> list[int]:
    """b_k(E) = (b_k - r_k) + (b_{k-2} - r_{k-1}), r_k = rank theta_* on H^k.

    theta d + d theta is a degree-0 derivation that vanishes on generators
    once theta(d x_k) = 0, so theta maps cocycles to cocycles and
    coboundaries to coboundaries; r_k is the rank of the induced map
    H^k(F) -> H^{k-1}(F) on the chosen class bases.
    """
    theta = tm.theta(0)
    b = fiber.betti_vector(cap)
    r = [0] * (cap + 1)
    for k in range(1, cap + 1):
        if b[k] and b[k - 1]:
            target = fiber.basis(k - 1)
            r[k] = linalg.rank(
                [target.reduce(contract(z, theta)) for z in fiber.basis(k).representatives]
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
    alpha_zero: bool
    ring_level: bool  # alpha = 0: the total DGA is literally the tensor product


def csplit_compare(tm: TwistedModel, cap: int | None = None) -> CsplitVerdict:
    """Compare total Betti numbers with the base x fiber convolution.

    Default cap is fiber dimension + 2, the formal top of an S2-base total
    space. expected is the Kunneth convolution, and so is total at
    alpha = 0. This is where a nonzero twist is checked: D^2 = 0 on every
    generator comes first, before any cohomology, and TwistIncompatibleError
    names a witness otherwise. total then comes from the Wang sequence over
    S2 and from the cohomology of the total model over a formal base.
    """
    alpha_zero = tm.alpha_is_zero()
    if not alpha_zero:
        _require_flat(tm)
    if cap is None:
        cap = tm.fiber.n + 2
    fiber = Cohomology(tm.fiber.dga, max_degree=cap)
    base = Cohomology(tm.base.dga, max_degree=cap)
    expected = kunneth_convolution(base.betti_vector(cap), fiber.betti_vector(cap), cap)
    if alpha_zero:
        total = expected
    elif tm.base.kind == "s2":
        total = _wang_betti(tm, cap, fiber)
    else:
        total = Cohomology(tm.total, max_degree=cap).betti_vector(cap)
    return CsplitVerdict(
        c_splits=total == expected,
        cap=cap,
        total=tuple(total),
        expected=tuple(expected),
        alpha_zero=alpha_zero,
        ring_level=alpha_zero,
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


def pullback_commutes(tm: TwistedModel, i: int) -> bool:
    """Check f*(D~ g) == D(f* g) on every generator, symbolically."""
    sub = pullback_column(tm, i)
    images = {}
    for j, name in enumerate(tm.base.twist_gen_names, start=1):
        images[name] = (
            sub.total.algebra.gen("a") if j == i else sub.total.algebra.zero()
        )
    for g in tm.fiber.algebra.generators:
        images[g.name] = sub.total.algebra.gen(g.name)
    f = AlgebraMorphism(tm.total.algebra, sub.total.algebra, images)
    for g in tm.total.algebra.generators:
        lhs = f(tm.total.d.image_of_generator(g.name))
        rhs = sub.total.d(f(tm.total.algebra.gen(g.name)))
        if lhs != rhs:
            return False
    return True
