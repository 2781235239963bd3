"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines. Everything here is exact arithmetic; there are no tolerances to
tune, a criterion either reproduces the symbolic computation or fails.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

from oracles import betti_vector_naive, contraction_literal, validate_naive

from nilsplit import catalog
from nilsplit.bundles import (
    TwistedModel,
    build_twisted,
    csplit_compare,
    flat_alpha_space,
    forcing_check,
    formal_even_base,
    hamiltonian_obstruction,
    kunneth_convolution,
    pullback_commutes,
    sphere_base,
)
from nilsplit.cohomology import Cohomology
from nilsplit.exterior import Derivation, GradedAlgebra
from nilsplit.lie_algebras import LieAlgebraSpec, ce_dga, ce_model, validate
from nilsplit.symplectic import SymplecticForm, hard_lefschetz

F = Fraction


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] criterion {num}: FAIL - {description}")
        raise
    print(f"[ACCEPTANCE] criterion {num}: PASS - {description}")


def test_criterion_1_forcing_theorem(catalog_models, symplectic_forms):
    with criterion(1, "forcing over S2 returns solution space {0} on the catalog"):
        assert set(symplectic_forms) == {
            "torus2",
            "torus4",
            "torus6",
            "kodaira-thurston",
            "h3-plus-h3",
            "free2step3",
        }
        for name, sf in symplectic_forms.items():
            report = forcing_check(catalog_models[name], sf, sphere_base())
            assert report.solution_dimension == 0, name
            assert report.forced_zero, name


def test_criterion_2_eq1_identity(catalog_models):
    with criterion(
        2, "a-coefficient of D(omega) equals contraction(omega, alpha), 100+ triples"
    ):
        rng = random.Random(20060808)
        names = list(catalog.symplectic_names())
        bases = {1: sphere_base(), 2: formal_even_base(2)}
        checked = 0
        while checked < 120:
            name = rng.choice(names)
            fiber = catalog_models[name]
            n = fiber.n
            coeffs = [
                (i, j, F(rng.randint(-3, 3)))
                for i in range(1, n + 1)
                for j in range(i + 1, n + 1)
                if rng.random() < 0.5
            ]
            omega = SymplecticForm.from_coeffs(fiber, coeffs)
            m = rng.choice([1, 2])
            base = bases[m]
            alpha = [[F(rng.randint(-3, 3)) for _ in range(m)] for _ in range(n)]
            tm = TwistedModel(base, fiber, alpha)
            ob = hamiltonian_obstruction(tm, omega)
            # D of the built total model does not go through the contractions
            assert ob.full == tm.total.d(tm.include_fiber(omega.omega))
            for j, gen_name in enumerate(base.twist_gen_names):
                column = [alpha[k][j] for k in range(n)]
                want = contraction_literal(omega.omega, column)
                assert ob.per_generator[gen_name] == want
            checked += 1
        assert checked >= 100


def test_criterion_3_c_splitting(catalog_models, symplectic_forms):
    with criterion(
        3, "forced models split: total Betti = (1,0,1) * fiber Betti, ring level"
    ):
        for name, sf in symplectic_forms.items():
            fiber = catalog_models[name]
            report = forcing_check(fiber, sf, sphere_base())
            assert report.forced_zero, name
            cap = fiber.n + 2
            tm = build_twisted(fiber, sphere_base(), [[0]] * fiber.n)
            # csplit_compare's total is the convolution at alpha = 0; the total model is not
            got = betti_vector_naive(tm.total, cap)
            assert list(csplit_compare(tm, cap).total) == got, name
            fiber_betti = Cohomology(fiber.dga).betti_vector(cap)
            sphere_betti = [1, 0, 1] + [0] * (cap - 2)
            assert got == kunneth_convolution(sphere_betti, fiber_betti, cap), name
            verdict = csplit_compare(tm, cap)
            assert verdict.c_splits and verdict.alpha_zero, name


def test_criterion_4_non_hamiltonian_control():
    with criterion(
        4, "T2 over S2 with alpha=(1,0): obstruction a*x2, Betti (1,1,0,1,1), no split"
    ):
        t2 = ce_model(LieAlgebraSpec(dim=2, brackets=()))
        sf = SymplecticForm.from_coeffs(t2, [(1, 2, 1)])
        tm = build_twisted(t2, sphere_base(), [[1], [0]])
        ob = hamiltonian_obstruction(tm, sf)
        a_x2 = tm.total.algebra.gen("a") * tm.total.algebra.gen("x2")
        assert ob.full == a_x2
        assert not ob.hamiltonian
        got = list(csplit_compare(tm, 4).total)
        assert got == [1, 1, 0, 1, 1]
        assert got == betti_vector_naive(tm.total, 4)
        assert not csplit_compare(tm, 4).c_splits


def test_criterion_5_multi_generator_bases(catalog_models, symplectic_forms):
    with criterion(
        5, "formal bases m in {2,3}: forcing gives the zero matrix; pullbacks commute"
    ):
        for m in (2, 3):
            base = formal_even_base(m)
            for name, sf in symplectic_forms.items():
                report = forcing_check(catalog_models[name], sf, base)
                assert report.forced_zero, (name, m)
        rng = random.Random(55)
        kt = catalog_models["kodaira-thurston"]
        for m in (2, 3):
            base = formal_even_base(m)
            flats = flat_alpha_space(kt, base)
            assert flats
            for _ in range(8):
                weights = [F(rng.randint(-2, 2)) for _ in flats]
                alpha = [
                    [
                        sum(w * basis[k][j] for w, basis in zip(weights, flats))
                        for j in range(m)
                    ]
                    for k in range(kt.n)
                ]
                tm = build_twisted(kt, base, alpha)
                for i in range(1, m + 1):
                    assert pullback_commutes(tm, i), (m, i)


def test_criterion_6_hard_lefschetz(catalog_models, symplectic_forms):
    with criterion(6, "KT fails hard Lefschetz at k=1; tori pass at every k"):
        kt_entries = hard_lefschetz(
            catalog_models["kodaira-thurston"], symplectic_forms["kodaira-thurston"]
        )
        by_k = {e.k: e for e in kt_entries}
        assert not by_k[1].isomorphism
        assert by_k[0].isomorphism and by_k[2].isomorphism
        for name in ("torus2", "torus4", "torus6"):
            entries = hard_lefschetz(catalog_models[name], symplectic_forms[name])
            assert all(e.isomorphism for e in entries), name


def test_criterion_7_oracle_equivalence(catalog_models):
    with criterion(
        7, "fraction-free Betti path matches naive dense elimination, all degrees"
    ):
        for name, model in catalog_models.items():
            production = Cohomology(model.dga).betti_vector(model.n)
            oracle = betti_vector_naive(model.dga, model.n)
            assert production == oracle, name


def _random_homogeneous(rng, algebra, degree, density=0.4):
    terms = {}
    for key in algebra.monomials_of_degree(degree):
        if rng.random() < density:
            c = F(rng.randint(-4, 4))
            if c:
                terms[key] = c
    return algebra.element(terms)


def test_criterion_8_property_suites(catalog_models):
    with criterion(
        8, "algebra laws (10^3 cases each), d^2=0 iff Jacobi, duality, b1 count"
    ):
        algebra = GradedAlgebra(
            [("x1", 1), ("x2", 1), ("x3", 1), ("a1", 2), ("a2", 2), ("b", 3)]
        )
        rng = random.Random(424242)

        for _ in range(1000):  # graded commutativity
            p, q = rng.randint(0, 4), rng.randint(0, 4)
            u = _random_homogeneous(rng, algebra, p)
            v = _random_homogeneous(rng, algebra, q)
            sign = -1 if (p % 2) and (q % 2) else 1
            assert u * v == (v * u).scale(sign)

        for _ in range(1000):  # associativity on homogeneous triples
            ds = [rng.randint(0, 3) for _ in range(3)]
            u, v, w = (_random_homogeneous(rng, algebra, d) for d in ds)
            assert (u * v) * w == u * (v * w)

        images = {
            g.name: _random_homogeneous(rng, algebra, g.degree + 1, density=0.5)
            for g in algebra.generators
        }
        for _ in range(1000):  # Leibniz for a random degree +1 derivation
            if rng.random() < 0.05:
                images = {
                    g.name: _random_homogeneous(
                        rng, algebra, g.degree + 1, density=0.5
                    )
                    for g in algebra.generators
                }
            d = Derivation(algebra, images)
            p = rng.randint(0, 4)
            u = _random_homogeneous(rng, algebra, p)
            v = _random_homogeneous(rng, algebra, rng.randint(0, 4))
            assert d(u * v) == d(u) * v + (u * d(v)).scale(-1 if p % 2 else 1)

        # d^2 = 0 iff Jacobi, both directions, random small tables
        seen_pass = seen_fail = 0
        for _ in range(250):
            dim = rng.choice([3, 4])
            brackets = tuple(
                (i, j, k, F(rng.choice([-1, 1, 2])))
                for i in range(1, dim + 1)
                for j in range(i + 1, dim + 1)
                for k in range(1, dim + 1)
                if rng.random() < 0.3
            )
            spec = LieAlgebraSpec(dim=dim, brackets=brackets)
            flat = ce_dga(spec).flatness_witness() is None
            assert flat == validate(spec).jacobi_ok
            assert flat == (not validate_naive(spec)["jacobi_failures"])
            seen_pass += flat
            seen_fail += not flat
        assert seen_pass >= 20 and seen_fail >= 20

        # Poincare duality, Euler characteristic, first Betti number
        for name, model in catalog_models.items():
            coh = Cohomology(model.dga)
            assert coh.duality == model.n, name
            assert coh.euler_characteristic(model.n) == 0, name
            assert coh.betti(1) == model.n - model.report.derived_dim, name
