"""Nilpotent Lie algebras from structure constants, and their CE models.

A LieAlgebraSpec holds a dimension n and rational structure constants
[X_i, X_j] = sum_k c * X_k for 1 <= i < j <= n; antisymmetry is implicit.
Rationality is required on purpose: a lattice in the corresponding simply
connected group exists exactly when the algebra has a rational structure,
so rational constants are what make the input an honest compact quotient.
LieAlgebraSpec and ValidationReport are immutable named tuples. A spec
checks its entries in __new__, so _make and _replace check them too.
CEModel is a plain class, immutable by convention, that caches its one
cohomology analyzer.

The Chevalley-Eilenberg model is the exterior algebra on the dual basis
x_1..x_n (all degree 1) with the quadratic differential

    d x_k = - sum_{i<j} c_{ij}^k  x_i x_j,

the sign convention being d x_k (X_i, X_j) = -x_k([X_i, X_j]). Either
global sign yields isomorphic cohomology; this one is fixed so that
emitted reports are byte-stable. d^2 = 0 is equivalent to the Jacobi
identity: the coefficient of x_i x_j x_k (i < j < k) in d^2 x_m is
component m of the Jacobiator J(X_i, X_j, X_k). So the Jacobi identity is
checked once, as d^2 = 0 on the generators, and its failures are read off
those terms.

The lower central series works on sparse vectors, maps {k: c} from a
1-based basis index to a nonzero exact rational, as in nilsplit.linalg,
and is spanned with linalg.Echelon.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property

from . import linalg
from .cohomology import Cohomology
from .errors import InvalidLieAlgebraError, StructuralError
from .exterior import Derivation, Element, FreeDGA, GradedAlgebra, exact

ZERO = 0
ONE = 1


class LieAlgebraSpec(namedtuple("LieAlgebraSpec", "dim brackets name", defaults=("",))):
    """Structure constants of a finite-dimensional Lie algebra, 1-based.

    brackets holds (i, j, k, c) with i < j and c a Fraction. Every way to
    build one, _make and _replace included, goes through the checks in
    __new__.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
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
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def bracket_table(self) -> dict[tuple[int, int], dict[int, Fraction]]:
        """Nonzero brackets [X_i, X_j], i < j, as sparse vectors {k: c}.

        Indices are 1-based and zero constants are dropped, so every key is
        a pair with a nonzero bracket.
        """
        table: dict[tuple[int, int], dict[int, Fraction]] = {}
        for i, j, k, c in self.brackets:
            if c:
                table.setdefault((i, j), {})[k] = exact(c)
        return table


def _bracket(table: dict, u: dict, v: dict) -> dict[int, Fraction]:
    """[u, v] of sparse vectors by bilinear extension of the table."""
    out: dict[int, Fraction] = {}
    for a, x in u.items():
        for b, y in v.items():
            if a < b:
                row, coeff = table.get((a, b)), x * y
            else:
                row, coeff = table.get((b, a)), -x * y
            if row:
                for k, c in row.items():
                    out[k] = out.get(k, ZERO) + coeff * c
    return {k: c for k, c in out.items() if c}


class ValidationReport(
    namedtuple(
        "ValidationReport",
        "dim jacobi_ok jacobi_failures nilpotent nilpotency_class"
        " lower_central_dims derived_dim",
        defaults=((), False, None, (), 0),
    )
):
    """Outcome of checking a structure-constant table.

    Failures are report content, not exceptions: jacobi_failures lists the
    offending basis triples with the defect vector, and a non-nilpotent
    algebra shows up as a lower central series that stabilizes above zero.
    nilpotency_class is None for an algebra that is not nilpotent.
    """

    __slots__ = ()

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
    """Check the Jacobi identity, as d^2 = 0, and nilpotency; never raises."""
    return _validate(spec, ce_dga(spec))


def _validate(spec: LieAlgebraSpec, dga: FreeDGA) -> ValidationReport:
    """validate(spec), reading d^2 off dga = ce_dga(spec)."""
    n = spec.dim

    # The coefficient of x_i x_j x_k (i < j < k) in d^2 x_m is component m
    # of the Jacobiator J(X_i, X_j, X_k).
    defects: dict[tuple, dict[int, Fraction]] = {}
    for m, g in enumerate(dga.generators, start=1):
        for key, c in dga.d(dga.d.image_of_generator(g.name)).terms.items():
            defects.setdefault(key, {})[m] = c
    jacobi_failures = tuple(
        (i + 1, j + 1, k + 1, tuple(defect.get(m, ZERO) for m in range(1, n + 1)))
        for (i, _, j, _, k, _), defect in sorted(defects.items())
    )

    # Lower central series by span ranks; a nilpotent algebra of dim n
    # reaches zero within n steps, so a stall above zero is conclusive.
    # [g, g] is spanned by the nonzero rows of the table, [X_i, X_j], i < j.
    table = spec.bracket_table()
    echelon = linalg.Echelon()
    current = [row for row in table.values() if echelon.add(row)]
    dims = [n, len(current)]
    while dims[-1] and dims[-1] != dims[-2]:
        echelon = linalg.Echelon()
        brackets = (_bracket(table, {i: ONE}, w) for i in range(1, n + 1) for w in current)
        current = [w for w in brackets if echelon.add(w)]
        dims.append(len(current))
    nilpotent = dims[-1] == 0
    nilpotency_class = len(dims) - 1 if nilpotent else None

    return ValidationReport(
        dim=n,
        jacobi_ok=not jacobi_failures,
        jacobi_failures=jacobi_failures,
        nilpotent=nilpotent,
        nilpotency_class=nilpotency_class,
        lower_central_dims=tuple(dims),
        derived_dim=dims[1],
    )


class CEModel:
    """Chevalley-Eilenberg model: exterior algebra on x_1..x_n, quadratic d.
    Compares and hashes by identity."""

    def __init__(self, spec: LieAlgebraSpec, dga: FreeDGA, report: ValidationReport = None):
        self.spec = spec
        self.dga = dga
        self.report = report

    @property
    def n(self) -> int:
        return self.spec.dim

    @property
    def algebra(self) -> GradedAlgebra:
        return self.dga.algebra

    @property
    def d(self) -> Derivation:
        return self.dga.d

    @cached_property
    def cohomology(self) -> Cohomology:
        """This model's one analyzer, built on first use: the Z^2 basis, hard
        Lefschetz and the Kunneth vector share its caches."""
        return Cohomology(self.dga)

    def generator_names(self) -> list[str]:
        return [g.name for g in self.algebra.generators]


def ce_dga(spec: LieAlgebraSpec) -> FreeDGA:
    """The exterior algebra with d x_k = -sum c_ij^k x_i x_j; no validation.

    Every d x_k is read off spec.bracket_table() in one pass. d^2 = 0 holds
    exactly when the table satisfies the Jacobi identity, so this is also
    the raw material for probing that equivalence on arbitrary antisymmetric
    tables.
    """
    n = spec.dim
    algebra = GradedAlgebra([(f"x{k}", 1) for k in range(1, n + 1)])
    terms: list[dict] = [{} for _ in range(n)]
    for (i, j), row in spec.bracket_table().items():
        for k, c in row.items():
            terms[k - 1][(i - 1, 1, j - 1, 1)] = -c
    images = {f"x{k}": Element(algebra, t) for k, t in enumerate(terms, start=1)}
    return FreeDGA(algebra, Derivation(algebra, images))


def ce_model(spec: LieAlgebraSpec) -> CEModel:
    """Build the CE model; rejects specs that fail validation.

    The model keeps the DGA that validation checked d^2 = 0 on, so what
    that pass cached, d of every monomial in the support of some d x_k,
    serves the cohomology built on it.
    """
    dga = ce_dga(spec)
    report = _validate(spec, dga)
    if not report.ok:
        raise InvalidLieAlgebraError(report)
    return CEModel(spec=spec, dga=dga, report=report)
