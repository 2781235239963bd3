"""Degree slices, Betti numbers, representatives, and the
Poincare duality certificate that lets the analyzer read the upper half of
a CE model off the lower one."""

import json
import random
from fractions import Fraction
from math import comb

import pytest
from oracles import betti_vector_naive, d_of_monomial_naive

from nilsplit import catalog
from nilsplit.bundles import TwistedModel, flat_alpha_space, formal_even_base, sphere_base
from nilsplit.cli import main
from nilsplit.cohomology import Cohomology, DegreeSlice
from nilsplit.errors import StructuralError
from nilsplit.lie_algebras import CEModel, LieAlgebraSpec, ce_dga, ce_model
from nilsplit.symplectic import SymplecticForm, find_symplectic, hard_lefschetz

F = Fraction


@pytest.fixture(scope="module")
def torus4():
    return ce_model(LieAlgebraSpec(dim=4, brackets=()))


@pytest.fixture(scope="module")
def heisenberg():
    return ce_model(LieAlgebraSpec(dim=3, brackets=((1, 2, 3, F(1)),)))


@pytest.fixture(scope="module")
def kt():
    return ce_model(LieAlgebraSpec(dim=4, brackets=((1, 2, 3, F(1)),)))


def test_torus_degree_two_slice(torus4):
    s = DegreeSlice(torus4.dga, 2)
    assert len(s.basis) == 6  # x_i x_j, i < j
    assert all(not image for image in s.images)
    assert all(not image for image in DegreeSlice(torus4.dga, 1).images)


def test_sphere_model_degree_four_slice():
    base = sphere_base()
    s = DegreeSlice(base.dga, 4)
    assert s.basis == [(0, 2)]  # only a^2; a*b has degree 5
    assert all(not image for image in s.images)


def test_heisenberg_degree_one_slice(heisenberg):
    s = DegreeSlice(heisenberg.dga, 1)
    assert len(s.basis) == 3
    # single nonzero image: x3 -> -x1x2
    assert [j for j, image in enumerate(s.images) if image] == [2]


def test_slices_compose_to_zero(catalog_models):
    for name, model in catalog_models.items():
        for k in range(1, model.n + 1):
            below = DegreeSlice(model.dga, k - 1)
            s = DegreeSlice(model.dga, k)
            # image keys of the slice below translated to s.basis tuples
            index = {key: j for j, key in enumerate(s.basis)}
            images = list(s.images)
            for image in below.images:
                dd = {}
                for mon, c in image.items():
                    for key, x in images[index[below.monomial(mon)]].items():
                        dd[key] = dd.get(key, 0) + c * x
                assert all(v == 0 for v in dd.values()), (name, k)


def test_torus_betti_binomial(torus4):
    assert Cohomology(torus4.dga).betti_vector(4) == [comb(4, k) for k in range(5)]


def test_kt_betti(kt):
    assert Cohomology(kt.dga).betti_vector(4) == [1, 3, 4, 3, 1]


def test_heisenberg_betti(heisenberg):
    assert Cohomology(heisenberg.dga).betti_vector(3) == [1, 2, 2, 1]


def test_sphere_model_betti():
    coh = Cohomology(sphere_base().dga)
    assert coh.betti_vector(8) == [1, 0, 1, 0, 0, 0, 0, 0, 0]


def test_betti_matches_naive_oracle(catalog_models):
    """The oracle eliminates every degree, so its b_k = b_{n-k} observes the
    duality that the analyzer assumes when it reads the upper half."""
    for name, model in catalog_models.items():
        production = Cohomology(model.dga).betti_vector(model.n)
        oracle = betti_vector_naive(model.dga, model.n)
        assert production == oracle, name
        assert oracle == oracle[::-1], name


def test_poincare_duality_and_euler(catalog_models):
    """duality is the certificate: n generators of degree 1, d = 0 on C^{n-1}."""
    for name, model in catalog_models.items():
        coh = Cohomology(model.dga)
        assert coh.duality == model.n, name
        assert coh.euler_characteristic(model.n) == 0, name
        assert coh.betti(0) == 1, name


def _random_table(rng: random.Random, dim: int) -> LieAlgebraSpec:
    """An antisymmetric table, Jacobi not required, sparse or dense."""
    density = rng.choice([0.05, 0.15, 0.3])
    return LieAlgebraSpec(
        dim=dim,
        brackets=tuple(
            (i, j, k, F(rng.choice([-2, -1, 1, 2])))
            for i in range(1, dim + 1)
            for j in range(i + 1, dim + 1)
            for k in range(1, dim + 1)
            if rng.random() < density
        ),
    )


def test_duality_is_d_vanishing_on_the_degree_n_minus_1_monomials(catalog_models):
    """duality is n exactly when the product-formula oracle finds d = 0 on
    each monomial x_1...x_n without one x_i, and None otherwise: on seeded
    random tables (unimodular or not, Jacobi or not), the catalog and the
    generated corpus, plain and sheared."""
    from test_generated import random_nilpotent_specs, sheared

    rng = random.Random(2323)
    dgas = [model.dga for model in catalog_models.values()]
    for spec in random_nilpotent_specs(seed=2024, count=40):
        dgas += [ce_dga(spec), ce_dga(sheared(spec, rng))]
    dgas += [ce_dga(_random_table(rng, rng.randint(1, 8))) for _ in range(2000)]
    certified = 0
    for dga in dgas:
        n = len(dga.generators)
        top = [(i, 1) for i in range(n)]
        closed = all(
            d_of_monomial_naive(dga, tuple(x for b in top[:i] + top[i + 1 :] for x in b))
            .is_zero()
            for i in range(n)
        )
        assert Cohomology(dga).duality == (n if closed else None), dga
        certified += closed
    assert 500 <= certified <= len(dgas) - 500, certified


def test_low_betti_builds_no_monomial_above_degree_two(monkeypatch):
    """The certificate reads only the generator images, so b_0 and b_1
    build slices of degree at most 1, whose images have degree at most 2."""
    from nilsplit import cohomology

    built = []
    real = cohomology.DegreeSlice

    def spy(dga, degree):
        built.append(degree)
        return real(dga, degree)

    monkeypatch.setattr(cohomology, "DegreeSlice", spy)
    for dim in (12, 60):
        built.clear()
        model = ce_model(LieAlgebraSpec(dim=dim, brackets=((1, 2, 3, F(1)),)))
        assert model.cohomology.betti_vector(1) == [1, dim - 1]
        assert model.cohomology.duality == dim
        assert built and max(built) <= 1, (dim, built)


def test_cli_low_degree_cohomology_at_dim_1100(tmp_path, capsys):
    path = tmp_path / "h3-r1097.json"
    doc = {"name": "h3-r1097", "dim": 1100, "brackets": [{"i": 1, "j": 2, "k": 3, "c": "1"}]}
    path.write_text(json.dumps(doc))
    code = main(["cohomology", str(path), "--max-degree", "1", "--format", "machine"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)["cohomology"]
    assert data["betti"] == [1, 1099]
    assert data["b1_equals_dim_minus_derived"] is True


def test_formal_base_betti_is_polynomial_count():
    from nilsplit.bundles import formal_even_base

    base = formal_even_base(3)
    coh = Cohomology(base.dga)
    assert coh.betti_vector(6) == [1, 0, 3, 0, 6, 0, 10]


# [X1, X2] = X2: a Lie algebra that is not unimodular, so d(x1) = 0 but
# d(x2) = -x1 x2 != 0 on C^{n-1}; ce_dga does not validate
AFF = LieAlgebraSpec(dim=2, brackets=((1, 2, 2, F(1)),))


def test_non_unimodular_dga_is_not_mirrored():
    dga = ce_dga(AFF)
    coh = Cohomology(dga)
    assert coh.duality is None
    assert coh.betti_vector(2) == [1, 1, 0] == betti_vector_naive(dga, 2)
    # the mirror without its certificate reads the wrong half
    forced = Cohomology(dga)
    forced.duality = 2
    assert forced.betti_vector(2) == [1, 2, 1]


def test_hard_lefschetz_refuses_without_duality():
    dga = ce_dga(AFF)
    model = CEModel(spec=AFF, dga=dga)
    sf = SymplecticForm(model, dga.algebra.element({(0, 1, 1, 1): 1}))
    with pytest.raises(StructuralError, match="Poincare duality"):
        hard_lefschetz(model, sf)


def test_bundle_models_are_never_mirrored(kt):
    """Base and total models have even generators: every degree is eliminated."""
    twists = {1: flat_alpha_space(kt, sphere_base())[0], 2: [[0, 0]] * 4}
    for base in (sphere_base(), formal_even_base(2)):
        assert Cohomology(base.dga).duality is None
        tm = TwistedModel(base, kt, twists[base.m])
        assert tm.total.flatness_witness() is None
        coh = Cohomology(tm.total)
        assert coh.duality is None
        assert coh.betti_vector(6) == betti_vector_naive(tm.total, 6), base.m


def _filiform(n: int) -> LieAlgebraSpec:
    return LieAlgebraSpec(dim=n, brackets=tuple((1, i, i + 1, F(1)) for i in range(2, n)))


WORK_SHAPE_SPECS = [
    *(catalog.get(name).to_spec() for name in catalog.names()),
    _filiform(8),
    _filiform(9),
    LieAlgebraSpec(dim=10, brackets=((1, 2, 3, F(1)),)),
]


def test_betti_table_builds_only_the_lower_half():
    for spec in WORK_SHAPE_SPECS:
        n = spec.dim
        coh = ce_model(spec).cohomology
        betti = coh.betti_vector(n)
        assert betti == betti[::-1], spec
        assert sorted(coh._records) == list(range((n - 1) // 2 + 1)), spec


def test_symplectic_job_eliminates_no_degree_above_the_middle():
    """find_symplectic reads Z^2; hard Lefschetz reads Z^{<n/2} and the
    ranks of the lower half, never a degree above them."""
    decided = 0
    for spec in WORK_SHAPE_SPECS:
        model = ce_model(spec)
        res = find_symplectic(model)
        if not res.found:
            continue
        entries = hard_lefschetz(model, res.form)
        half = model.n // 2
        coh = model.cohomology
        assert max(coh._records) <= max(2, half - 1), spec
        assert [e.target_betti for e in entries] == [coh.betti(half + e.k) for e in entries]
        decided += 1
    assert decided >= 7


def test_caps_above_the_dimension_pad_with_zeros(capsys):
    t2 = ce_model(LieAlgebraSpec(dim=2, brackets=()))
    assert t2.cohomology.betti_vector(6) == [1, 2, 1, 0, 0, 0, 0]
    assert main(["cohomology", "torus2", "--max-degree", "6", "--format", "machine"]) == 0
    data = json.loads(capsys.readouterr().out)["cohomology"]
    assert data["betti"] == [1, 2, 1, 0, 0, 0, 0]
    assert data["poincare_duality"] is True and data["euler_characteristic"] == 0
