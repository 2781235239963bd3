"""Exception types shared across the package."""


class NilsplitError(Exception):
    """Base class for all package errors."""


class StructuralError(NilsplitError):
    """Ill-formed algebraic input: mismatched algebras, bad degrees, etc."""


class InvalidLieAlgebraError(NilsplitError):
    """A structure-constant table failed validation (Jacobi or nilpotency)."""

    def __init__(self, report):
        self.report = report
        super().__init__(f"invalid Lie algebra: {report.summary()}")


class TwistIncompatibleError(NilsplitError):
    """A twisting matrix is incompatible with the fiber differential.

    Carries the first generator on which the squared differential fails to
    vanish, together with the offending element.
    """

    def __init__(self, generator_name, witness):
        self.generator_name = generator_name
        self.witness = witness
        super().__init__(
            f"D^2 != 0 on generator {generator_name}: D^2 = {witness}"
        )


class DocumentError(NilsplitError):
    """An algebra document failed strict parsing; message carries the field."""
