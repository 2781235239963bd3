"""Result records are immutable named tuples that keep the dataclass text."""

import re
from fractions import Fraction

import pytest

from nilsplit import catalog
from nilsplit.bundles import (
    TwistedModel,
    csplit_compare,
    forcing_check,
    hamiltonian_obstruction,
    sphere_base,
)
from nilsplit.errors import StructuralError
from nilsplit.lie_algebras import LieAlgebraSpec, ce_model, validate
from nilsplit.symplectic import (
    SymplecticForm,
    find_symplectic,
    hard_lefschetz,
    is_symplectic,
)

F = Fraction


def _records():
    doc = catalog.get("kodaira-thurston")
    spec = doc.to_spec()
    fiber = ce_model(spec)
    sf = SymplecticForm.from_coeffs(fiber, doc.omega_coeffs())
    base = sphere_base()
    tm = TwistedModel(base, fiber, [[0]] * 4)
    return [
        doc,
        spec,
        validate(spec),
        sf,
        is_symplectic(fiber, sf.omega),
        find_symplectic(fiber),
        hard_lefschetz(fiber, sf)[0],
        base,
        hamiltonian_obstruction(tm, sf),
        forcing_check(fiber, sf, base),
        csplit_compare(tm),
        fiber.algebra.generators[0],
    ]


RECORDS = {type(r).__name__: r for r in _records()}


@pytest.mark.parametrize("record", list(RECORDS.values()), ids=list(RECORDS))
def test_record_is_immutable(record):
    name = record._fields[0]
    value = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert getattr(record, name) is value and not hasattr(record, "extra")
    assert tuple(record) == tuple(getattr(record, f) for f in record._fields)


def test_forcing_report_repr_keeps_the_dataclass_text():
    assert repr(RECORDS["ForcingReport"]) == (
        "ForcingReport(fiber_dim=4, base_m=1, solution_dimension=0, basis_alphas=(),"
        " forced_zero=True, witnesses_verified=True)"
    )


GOOD = (4, ((1, 2, 3, F(1)),), "kt")
BAD = {
    "dimension must be positive": {"dim": 0, "brackets": ()},
    "bracket indices (1,2,5) out of range for dim 4": {"brackets": ((1, 2, 5, F(1)),)},
    "structure constants must be Fractions": {"brackets": ((1, 2, 3, 1),)},
    "duplicate bracket entry (1,2,3)": {"brackets": ((1, 2, 3, F(1)), (1, 2, 3, F(2)))},
}


@pytest.mark.parametrize("how", ["positional", "keyword", "make", "replace"])
@pytest.mark.parametrize("message", list(BAD))
def test_spec_refuses_every_way_it_is_built(message, how):
    fields = dict(zip(LieAlgebraSpec._fields, GOOD), **BAD[message])
    build = {
        "positional": lambda: LieAlgebraSpec(*fields.values()),
        "keyword": lambda: LieAlgebraSpec(**fields),
        "make": lambda: LieAlgebraSpec._make(fields.values()),
        "replace": lambda: LieAlgebraSpec(*GOOD)._replace(**BAD[message]),
    }[how]
    with pytest.raises(StructuralError, match=f"^{re.escape(message)}$"):
        build()
