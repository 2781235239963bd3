"""Nilpotent Lie algebras from structure constants, and their CE models.

A LieAlgebraSpec holds a dimension n and rational structure constants
[X_i, X_j] = sum_k c * X_k for 1 <= i < j <= n; antisymmetry is implicit.
Rationality is required on purpose: a lattice in the corresponding simply
connected group exists exactly when the algebra has a rational structure,
so rational constants are what make the input an honest compact quotient.

The Chevalley-Eilenberg model is the exterior algebra on the dual basis
x_1..x_n (all degree 1) with the quadratic differential

    d x_k = - sum_{i<j} c_{ij}^k  x_i x_j,

the sign convention being d x_k (X_i, X_j) = -x_k([X_i, X_j]). Either
global sign yields isomorphic cohomology; this one is fixed so that
emitted reports are byte-stable. d^2 = 0 is equivalent to the Jacobi
identity, and both are checked independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .errors import InvalidLieAlgebraError, StructuralError
from .exterior import Derivation, Element, FreeDGA, GradedAlgebra

ZERO = Fraction(0)
ONE = Fraction(1)


def _unit_vector(n: int, i: int) -> list[Fraction]:
    v = [ZERO] * n
    v[i] = ONE
    return v


@dataclass(frozen=True)
class LieAlgebraSpec:
    """Structure constants of a finite-dimensional Lie algebra, 1-based."""

    dim: int
    brackets: tuple[tuple[int, int, int, Fraction], ...]
    name: str = ""

    def __post_init__(self):
        if self.dim < 1:
            raise StructuralError("dimension must be positive")
        seen = set()
        for i, j, k, c in self.brackets:
            if not (1 <= i < j <= self.dim and 1 <= k <= self.dim):
                raise StructuralError(
                    f"bracket indices ({i},{j},{k}) out of range for dim {self.dim}"
                )
            if not isinstance(c, Fraction):
                raise StructuralError("structure constants must be Fractions")
            if (i, j, k) in seen:
                raise StructuralError(f"duplicate bracket entry ({i},{j},{k})")
            seen.add((i, j, k))

    def bracket_table(self) -> dict[tuple[int, int], list[Fraction]]:
        """[X_i, X_j] as coefficient vectors, keys i < j, values 0-based."""
        table: dict[tuple[int, int], list[Fraction]] = {}
        for i, j, k, c in self.brackets:
            row = table.setdefault((i, j), [ZERO] * self.dim)
            row[k - 1] += c
        return table


def _bracket_vectors(
    spec: LieAlgebraSpec,
    table: dict[tuple[int, int], list[Fraction]],
    u: list[Fraction],
    v: list[Fraction],
) -> list[Fraction]:
    """[u, v] by bilinear extension of the structure constants."""
    n = spec.dim
    out = [ZERO] * n
    for (i, j), w in table.items():
        coeff = u[i - 1] * v[j - 1] - u[j - 1] * v[i - 1]
        if coeff:
            for k in range(n):
                if w[k]:
                    out[k] += coeff * w[k]
    return out


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking a structure-constant table.

    Failures are report content, not exceptions: jacobi_failures lists the
    offending basis triples with the defect vector, and a non-nilpotent
    algebra shows up as a lower central series that stabilizes above zero.
    """

    dim: int
    jacobi_ok: bool
    jacobi_failures: tuple = ()
    nilpotent: bool = False
    nilpotency_class: int | None = None
    lower_central_dims: tuple[int, ...] = ()
    derived_dim: int = 0

    @property
    def ok(self) -> bool:
        return self.jacobi_ok and self.nilpotent

    def summary(self) -> str:
        if self.ok:
            return (
                f"ok: nilpotent of class {self.nilpotency_class}, "
                f"dim[g,g] = {self.derived_dim}"
            )
        problems = []
        if not self.jacobi_ok:
            triples = ", ".join(str(t[:3]) for t in self.jacobi_failures[:3])
            problems.append(f"Jacobi fails at {triples}")
        if self.jacobi_ok and not self.nilpotent:
            problems.append(
                "not nilpotent: lower central series dims "
                f"{list(self.lower_central_dims)}"
            )
        return "; ".join(problems)


def validate(spec: LieAlgebraSpec) -> ValidationReport:
    """Check the Jacobi identity and nilpotency; never raises."""
    n = spec.dim
    table = spec.bracket_table()
    basis = [_unit_vector(n, i) for i in range(n)]

    def br(u, v):
        return _bracket_vectors(spec, table, u, v)

    jacobi_failures = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                defect = [
                    x + y + z
                    for x, y, z in zip(
                        br(br(basis[i - 1], basis[j - 1]), basis[k - 1]),
                        br(br(basis[j - 1], basis[k - 1]), basis[i - 1]),
                        br(br(basis[k - 1], basis[i - 1]), basis[j - 1]),
                    )
                ]
                if any(defect):
                    jacobi_failures.append((i, j, k, tuple(defect)))
    jacobi_ok = not jacobi_failures

    # Lower central series by span ranks; a nilpotent algebra of dim n
    # reaches zero within n steps, so a stall above zero is conclusive.
    current = basis
    dims = [n]
    derived_dim = None
    for _ in range(n + 1):
        echelon = linalg.Echelon()
        independent = []
        for i in range(n):
            for w in current:
                v = br(basis[i], w)
                if echelon.add({c: x for c, x in enumerate(v) if x}) is None:
                    independent.append(v)
        dim_next = len(independent)
        if derived_dim is None:
            derived_dim = dim_next
        dims.append(dim_next)
        if dim_next == 0 or dim_next == dims[-2]:
            break
        current = independent
    nilpotent = dims[-1] == 0
    nilpotency_class = len(dims) - 1 if nilpotent else None

    return ValidationReport(
        dim=n,
        jacobi_ok=jacobi_ok,
        jacobi_failures=tuple(jacobi_failures),
        nilpotent=nilpotent,
        nilpotency_class=nilpotency_class,
        lower_central_dims=tuple(dims),
        derived_dim=derived_dim if derived_dim is not None else 0,
    )


@dataclass(frozen=True)
class CEModel:
    """Chevalley-Eilenberg model: exterior algebra on x_1..x_n, quadratic d."""

    spec: LieAlgebraSpec
    dga: FreeDGA
    report: ValidationReport = field(compare=False, default=None)

    @property
    def n(self) -> int:
        return self.spec.dim

    @property
    def algebra(self) -> GradedAlgebra:
        return self.dga.algebra

    @property
    def d(self) -> Derivation:
        return self.dga.d

    def generator_names(self) -> list[str]:
        return [g.name for g in self.algebra.generators]


def ce_dga(spec: LieAlgebraSpec) -> FreeDGA:
    """The exterior algebra with d x_k = -sum c_ij^k x_i x_j; no validation.

    d^2 = 0 holds exactly when the table satisfies the Jacobi identity, so
    this is also the raw material for probing that equivalence on arbitrary
    antisymmetric tables.
    """
    n = spec.dim
    algebra = GradedAlgebra([(f"x{k}", 1) for k in range(1, n + 1)])
    images: dict[str, Element] = {}
    for k in range(1, n + 1):
        terms: dict[tuple, Fraction] = {}
        for i, j, k2, c in spec.brackets:
            if k2 == k and c:
                key = (i - 1, 1, j - 1, 1)
                terms[key] = terms.get(key, ZERO) - c
        images[f"x{k}"] = algebra.element(terms)
    return FreeDGA(algebra, Derivation(algebra, images))


def ce_model(spec: LieAlgebraSpec) -> CEModel:
    """Build the CE model; rejects specs that fail validation."""
    report = validate(spec)
    if not report.ok:
        raise InvalidLieAlgebraError(report)
    dga = ce_dga(spec)
    witness = dga.flatness_witness()
    if witness is not None:
        # unreachable once Jacobi holds; kept as an independent guard
        raise StructuralError(f"d^2 != 0 on {witness[0]} despite Jacobi: {witness[1]}")
    return CEModel(spec=spec, dga=dga, report=report)
