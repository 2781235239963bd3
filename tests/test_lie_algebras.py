"""Structure-constant validation and CE model construction."""

import random
from fractions import Fraction

import pytest
from oracles import validate_naive

from nilsplit import catalog
from nilsplit.cohomology import Cohomology
from nilsplit.errors import InvalidLieAlgebraError, StructuralError
from nilsplit.lie_algebras import LieAlgebraSpec, ce_dga, ce_model, validate

F = Fraction


def spec(dim, *brackets):
    return LieAlgebraSpec(
        dim=dim, brackets=tuple((i, j, k, F(c)) for i, j, k, c in brackets)
    )


def test_validate_abelian():
    report = validate(spec(4))
    assert report.ok
    assert report.nilpotency_class == 1
    assert report.derived_dim == 0
    assert report.lower_central_dims == (4, 0)


@pytest.mark.parametrize("dim", [3, 60])
def test_validate_heisenberg(dim):
    # h3 + R^(dim - 3)
    report = validate(spec(dim, (1, 2, 3, 1)))
    assert report.ok
    assert report.nilpotency_class == 2
    assert report.derived_dim == 1
    assert report.lower_central_dims == (dim, 1, 0)


def test_validate_rejects_non_nilpotent():
    # [X1, X2] = X1: the series stabilizes at span{X1}
    report = validate(spec(2, (1, 2, 1, 1)))
    assert report.jacobi_ok
    assert not report.nilpotent
    assert not report.ok
    assert report.lower_central_dims[-1] == 1
    assert report.nilpotency_class is None


def test_validate_reports_jacobi_failure():
    # J(X1,X2,X3) = [[X2,X3],X1] + [[X3,X1],X2] = [X4,X1] - [X4,X2] = -X4
    bad = spec(4, (1, 2, 3, 1), (2, 3, 4, 1), (1, 3, 4, 1), (1, 4, 4, 1))
    report = validate(bad)
    assert not report.jacobi_ok
    triples = [f[:3] for f in report.jacobi_failures]
    assert (1, 2, 3) in triples
    defect = dict((f[:3], f[3]) for f in report.jacobi_failures)[(1, 2, 3)]
    assert defect == (F(0), F(0), F(0), F(-1))


def test_spec_rejects_bad_indices():
    with pytest.raises(StructuralError):
        spec(3, (2, 1, 3, 1))  # needs i < j
    with pytest.raises(StructuralError):
        spec(3, (1, 2, 4, 1))  # k out of range
    with pytest.raises(StructuralError):
        spec(0)


def test_ce_model_abelian_torus_has_zero_differential():
    model = ce_model(spec(4))
    for name in model.generator_names():
        assert model.d.image_of_generator(name).is_zero()


def test_ce_model_heisenberg_differential():
    model = ce_model(spec(3, (1, 2, 3, 1)))
    x1, x2 = model.algebra.gen("x1"), model.algebra.gen("x2")
    assert model.d.image_of_generator("x3") == -(x1 * x2)
    assert model.d.image_of_generator("x1").is_zero()
    assert model.d.image_of_generator("x2").is_zero()


def test_ce_model_kodaira_thurston_differential():
    model = ce_model(spec(4, (1, 2, 3, 1)))
    x1, x2 = model.algebra.gen("x1"), model.algebra.gen("x2")
    assert model.d.image_of_generator("x3") == -(x1 * x2)
    for name in ("x1", "x2", "x4"):
        assert model.d.image_of_generator(name).is_zero()


def test_ce_model_rejects_invalid_spec():
    with pytest.raises(InvalidLieAlgebraError) as err:
        ce_model(spec(2, (1, 2, 1, 1)))
    assert not err.value.report.nilpotent


def test_d_squared_zero_on_all_catalog_generators(catalog_models):
    for name, model in catalog_models.items():
        assert model.dga.flatness_witness() is None, name


def _random_spec(rng, dim, density=0.3):
    brackets = []
    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            for k in range(1, dim + 1):
                if rng.random() < density:
                    c = rng.choice([-1, 1, 2])
                    brackets.append((i, j, k, F(c)))
    return spec(dim, *brackets)


def test_d_squared_iff_jacobi_on_random_tables():
    """The equivalence, probed in both directions on random small tables."""
    rng = random.Random(2024)
    seen_pass = seen_fail = 0
    for _ in range(300):
        candidate = _random_spec(rng, rng.choice([3, 4]))
        report = validate(candidate)
        flat = ce_dga(candidate).flatness_witness() is None
        assert flat == report.jacobi_ok
        # validate reads Jacobi off d^2; the dense bracket oracle does not
        assert flat == (not validate_naive(candidate)["jacobi_failures"])
        seen_pass += report.jacobi_ok
        seen_fail += not report.jacobi_ok
    assert seen_pass >= 20 and seen_fail >= 20


def test_ce_dga_images_match_a_per_generator_build():
    """d x_k = -sum c_ij^k x_i x_j, built here per k from spec.brackets with
    Element products, on shuffled tables with zero constants and several k
    per pair (i, j)."""
    rng = random.Random(226)
    zeros = shared = 0
    for _ in range(150):
        dim = rng.randint(1, 6)
        brackets = [
            (i, j, k, F(rng.choice([-2, -1, 0, 0, 1, 3]), rng.choice([1, 1, 2])))
            for i in range(1, dim + 1)
            for j in range(i + 1, dim + 1)
            for k in range(1, dim + 1)
            if rng.random() < 0.4
        ]
        rng.shuffle(brackets)
        candidate = LieAlgebraSpec(dim=dim, brackets=tuple(brackets))
        dga = ce_dga(candidate)
        alg = dga.algebra
        for k in range(1, dim + 1):
            want = alg.zero()
            for i, j, k2, c in candidate.brackets:
                if k2 == k:
                    want = want - (alg.gen(f"x{i}") * alg.gen(f"x{j}")).scale(c)
            assert dga.d.image_of_generator(f"x{k}") == want, (candidate, k)
        pairs = [(i, j) for i, j, _, _ in brackets]
        zeros += sum(not c for *_, c in brackets)
        shared += len(pairs) - len(set(pairs))
    assert zeros >= 50 and shared >= 50, (zeros, shared)


def _assert_matches_oracle(candidate):
    report = validate(candidate)
    expected = validate_naive(candidate)
    assert report.jacobi_failures == expected["jacobi_failures"]
    assert report.lower_central_dims == expected["lower_central_dims"]
    assert report.nilpotency_class == expected["nilpotency_class"]
    assert report.derived_dim == expected["derived_dim"]
    return report


def test_validate_matches_dense_oracle_on_random_tables():
    """Sparse validation against the dense oracle, zero constants included.

    "upper" tables only bracket into later basis vectors, so they are
    nilpotent whenever Jacobi holds; "any" tables reach every index.
    """
    rng = random.Random(505)
    seen = {"jacobi": 0, "not-nilpotent": 0, "ok": 0}
    for _ in range(300):
        dim = rng.randint(2, 7)
        density = rng.choice([0.05, 0.15, 0.35])
        upper = rng.random() < 0.5
        brackets = [
            (i, j, k, rng.choice([-2, -1, 0, 1, 2]))
            for i in range(1, dim + 1)
            for j in range(i + 1, dim + 1)
            for k in range(j + 1 if upper else 1, dim + 1)
            if rng.random() < density
        ]
        report = _assert_matches_oracle(spec(dim, *brackets))
        if not report.jacobi_ok:
            seen["jacobi"] += 1
        elif not report.nilpotent:
            seen["not-nilpotent"] += 1
        else:
            seen["ok"] += 1
    assert min(seen.values()) >= 20, seen


def test_validate_matches_dense_oracle_on_catalog():
    for name in catalog.names():
        assert _assert_matches_oracle(catalog.get(name).to_spec()).ok, name


def test_b1_equals_dim_minus_derived_dim(catalog_models):
    for name, model in catalog_models.items():
        b1 = Cohomology(model.dga).betti(1)
        assert b1 == model.n - model.report.derived_dim, name


def test_sign_convention_choice_does_not_change_betti(catalog_models):
    """Negating all structure constants flips the differential's sign."""
    for name in catalog.names():
        doc = catalog.get(name)
        flipped = LieAlgebraSpec(
            dim=doc.dim,
            brackets=tuple((i, j, k, -c) for i, j, k, c in doc.brackets),
        )
        model = catalog_models[name]
        other = ce_model(flipped)
        n = model.n
        assert (
            Cohomology(model.dga).betti_vector(n)
            == Cohomology(other.dga).betti_vector(n)
        ), name
