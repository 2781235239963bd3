"""Degree slices, Betti numbers, representatives, cup products."""

import random
from fractions import Fraction
from math import comb

import pytest
from oracles import betti_vector_naive, rank_naive

from nilsplit.bundles import sphere_base
from nilsplit.cohomology import Cohomology, DegreeSlice, poincare_check
from nilsplit.errors import DegreeCapError, StructuralError
from nilsplit.lie_algebras import LieAlgebraSpec, ce_model

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
            index = {key: j for j, key in enumerate(s.basis)}
            for image in below.images:
                dd = {}
                for mon, c in image.items():
                    for key, x in s.images[index[mon]].items():
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
    for name, model in catalog_models.items():
        production = Cohomology(model.dga).betti_vector(model.n)
        assert production == betti_vector_naive(model.dga, model.n), name


def test_representatives_torus2():
    t2 = ce_model(LieAlgebraSpec(dim=2, brackets=()))
    basis = Cohomology(t2.dga).basis(1)
    assert [str(r) for r in basis.representatives] == ["x1", "x2"]


def test_representatives_kt_degree_one(kt):
    basis = Cohomology(kt.dga).basis(1)
    assert basis.betti == 3
    assert [str(r) for r in basis.representatives] == ["x1", "x2", "x4"]


def test_zero_betti_means_no_representatives():
    coh = Cohomology(sphere_base().dga)
    assert coh.basis(3).representatives == []
    assert coh.basis(1).representatives == []


def test_reduce_standard_coordinates(kt):
    coh = Cohomology(kt.dga)
    basis = coh.basis(2)
    for i, rep in enumerate(basis.representatives):
        assert basis.reduce(rep) == {i: F(1)}


def test_reduce_kills_coboundaries(kt):
    rng = random.Random(7)
    coh = Cohomology(kt.dga)
    alg = kt.algebra
    for _ in range(50):
        k = rng.randint(1, 3)
        basis_k = alg.monomials_of_degree(k - 1)
        u = alg.element(
            {key: F(rng.randint(-3, 3)) for key in basis_k if rng.random() < 0.6}
        )
        du = kt.d(u)
        assert coh.basis(k).reduce(du) == {}


def test_reduce_rejects_non_cocycles(kt):
    coh = Cohomology(kt.dga)
    x1, x2, x3 = (kt.algebra.gen(f"x{i}") for i in (1, 2, 3))
    with pytest.raises(StructuralError):
        coh.basis(1).reduce(x3)
    # a cocycle of degree 2 is not one of degree 1
    with pytest.raises(StructuralError, match="degree 1"):
        coh.basis(1).reduce(x1 * x2)


def test_rank_of_refuses_non_cocycles(kt):
    coh = Cohomology(kt.dga)
    x1, x2, x3 = (kt.algebra.gen(f"x{i}") for i in (1, 2, 3))
    with pytest.raises(StructuralError, match="degree 1"):
        coh.basis(1).rank_of([x1, x3])
    with pytest.raises(StructuralError, match="degree 1"):
        coh.basis(1).rank_of([x1 * x2])


def test_rank_of_equals_rank_of_reduce_coordinates(catalog_models):
    """rank_of counts the rank of the reduce coordinates, densely ranked.

    The cocycles are random sums of representatives plus random
    coboundaries, drawn from a span of fewer classes than cocycles, so the
    coboundary parts would raise the rank if they were counted.
    """
    rng = random.Random(1212)
    deficient = 0
    for name, model in catalog_models.items():
        coh = Cohomology(model.dga)
        alg = model.algebra
        for k in range(1, model.n + 1):
            basis = coh.basis(k)
            below = alg.monomials_of_degree(k - 1)
            for _ in range(3 if basis.betti else 0):
                span = []
                for _ in range(rng.randint(1, basis.betti)):
                    z = alg.zero()
                    for rep in basis.representatives:
                        z = z + rep.scale(rng.randint(-2, 2))
                    span.append(z)
                cocycles = []
                for _ in range(len(span) + rng.randint(0, 2)):
                    z = alg.element({key: F(rng.randint(-2, 2)) for key in below})
                    z = model.d(z)
                    for w in span:
                        z = z + w.scale(rng.randint(-1, 1))
                    cocycles.append(z)
                coords = [basis.reduce(z) for z in cocycles]
                want = rank_naive([[c.get(i, F(0)) for i in range(basis.betti)] for c in coords])
                assert basis.rank_of(cocycles) == want, (name, k)
                deficient += 0 < want < len(cocycles)
    assert deficient >= 20, deficient


def test_cup_torus(torus4):
    coh = Cohomology(torus4.dga)
    b1 = coh.basis(1)
    c_x1 = b1.reduce(torus4.algebra.gen("x1"))
    c_x2 = b1.reduce(torus4.algebra.gen("x2"))
    prod = coh.cup(1, c_x1, 1, c_x2)
    assert prod and all(prod.values())
    assert coh.basis(2).class_element(prod) == torus4.algebra.gen("x1") * torus4.algebra.gen("x2")


def test_cup_kt_x1_x2_dies(kt):
    # x1 x2 = -d(x3) is a coboundary
    coh = Cohomology(kt.dga)
    b1 = coh.basis(1)
    c_x1 = b1.reduce(kt.algebra.gen("x1"))
    c_x2 = b1.reduce(kt.algebra.gen("x2"))
    assert coh.cup(1, c_x1, 1, c_x2) == {}


def test_cup_odd_class_squares_to_zero(kt):
    coh = Cohomology(kt.dga)
    b1 = coh.basis(1)
    for rep in b1.representatives:
        coords = b1.reduce(rep)
        assert coh.cup(1, coords, 1, coords) == {}


def test_cup_graded_commutative_random(kt):
    rng = random.Random(11)
    coh = Cohomology(kt.dga)
    for _ in range(30):
        p = rng.choice([1, 2])
        q = rng.choice([1, 2])
        bp, bq = coh.basis(p), coh.basis(q)
        cp = {i: F(c) for i in range(bp.betti) if (c := rng.randint(-2, 2))}
        cq = {i: F(c) for i in range(bq.betti) if (c := rng.randint(-2, 2))}
        uv = coh.cup(p, cp, q, cq)
        vu = coh.cup(q, cq, p, cp)
        sign = -1 if (p % 2) and (q % 2) else 1
        assert uv == {i: sign * c for i, c in vu.items()}


def test_poincare_duality_and_euler(catalog_models):
    for name, model in catalog_models.items():
        coh = Cohomology(model.dga)
        assert poincare_check(coh, model.n), name
        assert coh.euler_characteristic(model.n) == 0, name
        assert coh.betti(0) == 1, name


def test_degree_cap_errors(kt):
    coh = Cohomology(kt.dga, max_degree=3)
    coh.betti(3)
    with pytest.raises(DegreeCapError):
        coh.betti(4)
    with pytest.raises(DegreeCapError):
        coh.cup(2, {}, 2, {})


def test_formal_base_betti_is_polynomial_count():
    from nilsplit.bundles import formal_even_base

    base = formal_even_base(3)
    coh = Cohomology(base.dga, max_degree=6)
    assert coh.betti_vector(6) == [1, 0, 3, 0, 6, 0, 10]
