"""Twisted models: construction, obstruction, forcing, c-splitting, pullback."""

import random
from fractions import Fraction

import pytest
from oracles import (
    admissible_alphas_by_grid,
    betti_vector_naive,
    contraction_literal,
    include_by_name,
    monomials_naive,
    rank_naive,
    skew_matrix,
    substitute,
)

from nilsplit.bundles import (
    TwistedModel,
    _pullback_index,
    _relabel,
    build_twisted,
    csplit_compare,
    flat_alpha_space,
    forcing_check,
    formal_even_base,
    hamiltonian_obstruction,
    kunneth_convolution,
    pullback_column,
    pullback_commutes,
    sphere_base,
)
from nilsplit.cohomology import Cohomology
from nilsplit.errors import StructuralError, TwistIncompatibleError
from nilsplit.lie_algebras import LieAlgebraSpec, ce_model
from nilsplit.symplectic import SymplecticForm

F = Fraction


@pytest.fixture(scope="module")
def t2():
    return ce_model(LieAlgebraSpec(dim=2, brackets=()))


@pytest.fixture(scope="module")
def t2_form(t2):
    return SymplecticForm.from_coeffs(t2, [(1, 2, 1)])


@pytest.fixture(scope="module")
def kt():
    return ce_model(LieAlgebraSpec(dim=4, brackets=((1, 2, 3, F(1)),)))


@pytest.fixture(scope="module")
def kt_form(kt):
    return SymplecticForm.from_coeffs(kt, [(1, 4, 1), (2, 3, 1)])


def test_sphere_base_shape():
    base = sphere_base()
    d_b = base.dga.d.image_of_generator("b")
    a = base.dga.algebra.gen("a")
    assert d_b == a * a
    assert base.dga.d.image_of_generator("a").is_zero()
    assert base.dga.flatness_witness() is None
    coh = Cohomology(base.dga)
    assert coh.betti_vector(4) == [1, 0, 1, 0, 0]


def test_zero_alpha_always_builds(kt):
    tm = build_twisted(kt, sphere_base(), [[0]] * 4)
    assert tm.alpha_is_zero()
    # D is d on every fiber generator, and D(b) = a^2 on the base
    for name in kt.generator_names():
        want = tm.include_fiber(kt.d.image_of_generator(name))
        assert tm.total.d.image_of_generator(name) == want, name
    a = tm.total.algebra.gen("a")
    assert tm.total.d.image_of_generator("b") == a * a


def test_torus_fiber_accepts_any_alpha(t2):
    build_twisted(t2, sphere_base(), [[F(5)], [F(-7, 3)]])


def test_kt_alpha_on_x3_is_flat(kt):
    # D^2 x3 = -a (alpha_1 x2 - alpha_2 x1) vanishes when alpha_1=alpha_2=0
    build_twisted(kt, sphere_base(), [[0], [0], [1], [0]])


def test_kt_alpha_on_x1_is_rejected_with_witness(kt):
    with pytest.raises(TwistIncompatibleError) as err:
        build_twisted(kt, sphere_base(), [[1], [0], [0], [0]])
    assert err.value.generator_name == "x3"
    assert str(err.value.witness) == "-a*x2"


def test_structure_conditions_on_twisted_model(kt):
    tm = build_twisted(kt, sphere_base(), [[0], [0], [1], [0]])
    # D restricted to base generators is the base differential
    a = tm.total.algebra.gen("a")
    assert tm.total.d.image_of_generator("b") == a * a
    # and D(x3) - d(x3) = a lies in the base ideal
    d_x3 = tm.total.d.image_of_generator("x3")
    x1x2 = tm.total.algebra.gen("x1") * tm.total.algebra.gen("x2")
    assert d_x3 == a - x1x2


def test_obstruction_zero_alpha(kt, kt_form):
    tm = build_twisted(kt, sphere_base(), [[0]] * 4)
    ob = hamiltonian_obstruction(tm, kt_form)
    assert ob.hamiltonian and ob.full.is_zero()
    assert all(el.is_zero() for el in ob.per_generator.values())


def test_obstruction_t2_nontrivial_twist(t2, t2_form):
    tm = build_twisted(t2, sphere_base(), [[1], [0]])
    ob = hamiltonian_obstruction(tm, t2_form)
    a = tm.total.algebra.gen("a")
    x2 = tm.total.algebra.gen("x2")
    assert ob.full == a * x2
    assert not ob.hamiltonian
    assert ob.per_generator["a"] == t2.algebra.gen("x2")


def test_obstruction_coefficient_equals_contraction(kt, kt_form):
    """The two routes to the linear condition agree for random alpha."""
    rng = random.Random(71)
    base = formal_even_base(2)
    for _ in range(40):
        alpha = [[F(rng.randint(-3, 3)) for _ in range(2)] for _ in range(4)]
        tm = TwistedModel(base, kt, alpha)
        ob = hamiltonian_obstruction(tm, kt_form)
        # D of the built total model does not go through the contractions
        assert ob.full == tm.total.d(tm.include_fiber(kt_form.omega)), alpha
        for j, name in enumerate(base.twist_gen_names):
            column = [alpha[k][j] for k in range(4)]
            assert ob.per_generator[name] == contraction_literal(kt_form.omega, column), (
                alpha,
                name,
            )


def test_forcing_certified_forms_force_zero(catalog_models, symplectic_forms):
    for name, sf in symplectic_forms.items():
        report = forcing_check(catalog_models[name], sf, sphere_base())
        assert report.forced_zero, name
        assert report.solution_dimension == 0, name


def test_forcing_refuses_non_closed_form(kt):
    """d(omega) != 0 leaves no Hamiltonian twist at all, not a forced zero."""
    not_closed = SymplecticForm.from_coeffs(kt, [(3, 4, 1), (1, 2, 1)])
    d_omega = kt.d(not_closed.omega)
    assert str(d_omega) == "-x1*x2*x4"
    with pytest.raises(StructuralError, match=r"d\(omega\) = -x1\*x2\*x4"):
        forcing_check(kt, not_closed, sphere_base())
    # the obstruction still takes it: D(omega) = d(omega) at alpha = 0
    tm = build_twisted(kt, sphere_base(), [[0]] * 4)
    ob = hamiltonian_obstruction(tm, not_closed)
    assert ob.full == tm.include_fiber(d_omega) and not ob.hamiltonian


def test_forcing_degenerate_form_leaves_twists(catalog_models):
    t4 = catalog_models["torus4"]
    degenerate = SymplecticForm.from_coeffs(t4, [(1, 2, 1)])
    report = forcing_check(t4, degenerate, sphere_base())
    assert report.solution_dimension == 2
    assert not report.forced_zero
    assert report.witnesses_verified
    # every basis alpha really is a Hamiltonian twist: D(omega) = 0 directly
    for alpha in report.basis_alphas:
        tm = build_twisted(t4, sphere_base(), alpha)
        assert tm.total.d(tm.include_fiber(degenerate.omega)).is_zero()
        assert any(any(row) for row in alpha)


def test_forcing_verifies_each_kernel_vector_once(monkeypatch):
    """The m copies of a kernel vector test the same equations, so forcing
    builds one twisted model per kernel vector, not one per basis alpha."""
    import nilsplit.bundles as bundles

    built = []
    real = bundles.TwistedModel

    def spy(base, fiber, alpha):
        built.append(alpha)
        return real(base, fiber, alpha)

    monkeypatch.setattr(bundles, "TwistedModel", spy)
    t8 = ce_model(LieAlgebraSpec(dim=8, brackets=()))
    degenerate = SymplecticForm.from_coeffs(t8, [(1, 2, 1)])
    report = forcing_check(t8, degenerate, formal_even_base(3))
    # theta(omega) = v1 x2 - v2 x1 = 0 leaves v3..v8 free, in each of 3 columns
    assert report.solution_dimension == 18
    assert built == list(report.basis_alphas[::3]) and len(built) == 6
    assert report.witnesses_verified


def test_forcing_flags_a_witness_that_fails_verification(kt, kt_form, monkeypatch):
    """A basis alpha with D^2 != 0 is caught, on the column-0 copy it checks."""
    import nilsplit.bundles as bundles

    for base in (sphere_base(), formal_even_base(2)):
        m = base.m
        # alpha on x1 in each column: D^2 x3 = -a_j x2, as in
        # test_kt_alpha_on_x1_is_rejected_with_witness
        bad = [
            tuple(tuple(F(j == col and k == 0) for j in range(m)) for k in range(4))
            for col in range(m)
        ]
        monkeypatch.setattr(bundles, "_solve_alphas", lambda fiber, m, omega, bad=bad: bad)
        report = forcing_check(kt, kt_form, base)
        assert report.basis_alphas == tuple(bad)
        assert not report.witnesses_verified


def test_forcing_solution_dim_is_kernel_of_A(catalog_models):
    """On a torus fiber the flat rows vanish, so dim = dim ker A per column."""
    t4 = catalog_models["torus4"]
    degenerate = SymplecticForm.from_coeffs(t4, [(1, 2, 1)])
    A = skew_matrix(degenerate.omega, 4)
    ker_dim = 4 - rank_naive(A)
    report = forcing_check(t4, degenerate, sphere_base())
    assert report.solution_dimension == ker_dim


def test_forcing_matches_grid_enumeration(t2, t2_form, kt, kt_form):
    """Brute force over {-1,0,1} alphas agrees with the linear solver."""
    base = sphere_base()
    for fiber, sf in ((t2, t2_form), (kt, kt_form)):
        hits = admissible_alphas_by_grid(fiber, base, sf.omega, (-1, 0, 1))
        report = forcing_check(fiber, sf, base)
        assert report.forced_zero
        zero = tuple(tuple(F(0) for _ in range(1)) for _ in range(fiber.n))
        assert hits == [zero]
    # degenerate case: grid hits are exactly the kernel points of the solver
    t4 = ce_model(LieAlgebraSpec(dim=4, brackets=()))
    sf_deg = SymplecticForm.from_coeffs(t4, [(1, 2, 1)])
    hits = admissible_alphas_by_grid(t4, base, sf_deg.omega, (-1, 0, 1))
    report = forcing_check(t4, sf_deg, base)
    span_rows = [
        [alpha[k][0] for k in range(4)] for alpha in report.basis_alphas
    ]
    for alpha in hits:
        vec = [alpha[k][0] for k in range(4)]
        stacked = span_rows + [vec]
        assert rank_naive(stacked) == report.solution_dimension
    assert len(hits) == 3 ** report.solution_dimension


def test_total_betti_product_is_kunneth(t2, kt):
    # at alpha = 0 the total is the convolution; the total model is the check
    tm = build_twisted(t2, sphere_base(), [[0], [0]])
    assert betti_vector_naive(tm.total, 4) == [1, 2, 2, 2, 1]
    assert csplit_compare(tm).total == (1, 2, 2, 2, 1)
    tmk = build_twisted(kt, sphere_base(), [[0]] * 4)
    assert betti_vector_naive(tmk.total, 6) == [1, 3, 5, 6, 5, 3, 1]
    assert csplit_compare(tmk).total == (1, 3, 5, 6, 5, 3, 1)


def test_total_betti_twisted_t2_is_s3_x_s1(t2):
    tm = build_twisted(t2, sphere_base(), [[1], [0]])
    got = list(csplit_compare(tm).total)
    assert got == [1, 1, 0, 1, 1]
    assert got == betti_vector_naive(tm.total, 4)


def test_total_betti_matches_naive_oracle_on_twisted_models(kt):
    tm = build_twisted(kt, sphere_base(), [[0], [0], [1], [0]])
    cap = 6
    assert list(csplit_compare(tm, cap).total) == betti_vector_naive(tm.total, cap)


def test_euler_characteristic_vanishes_when_top_is_verified_zero(t2, kt):
    for fiber, alpha in ((t2, [[1], [0]]), (kt, [[0], [0], [1], [0]])):
        tm = build_twisted(fiber, sphere_base(), alpha)
        cap = fiber.n + 2
        bettis = csplit_compare(tm, cap + 2).total
        assert bettis[cap + 1] == 0 and bettis[cap + 2] == 0
        assert sum((-1) ** k * b for k, b in enumerate(bettis[: cap + 1])) == 0


def test_csplit_verdicts(t2, kt):
    product = build_twisted(kt, sphere_base(), [[0]] * 4)
    good = csplit_compare(product)
    assert good.c_splits and good.alpha_zero
    # good.total is the convolution itself at alpha = 0; the total model is not
    assert tuple(betti_vector_naive(product.total, good.cap)) == good.expected
    twisted = build_twisted(t2, sphere_base(), [[1], [0]])
    bad = csplit_compare(twisted)
    assert not bad.c_splits and not bad.alpha_zero
    assert bad.total == (1, 1, 0, 1, 1)
    assert bad.total == tuple(betti_vector_naive(twisted.total, bad.cap))
    assert bad.expected == (1, 2, 2, 2, 1)


def test_incompatible_unchecked_twist_is_refused(kt):
    """D^2 != 0 raises build_twisted's error instead of negative Betti numbers."""
    cases = (
        (sphere_base(), [[1], [0], [0], [0]]),
        (formal_even_base(2), [[0, 1], [0, 0], [0, 0], [1, 0]]),
    )
    for base, alpha in cases:
        tm = TwistedModel(base, kt, alpha)
        witness = tm.total.flatness_witness()
        assert witness is not None
        with pytest.raises(TwistIncompatibleError) as built:
            build_twisted(kt, base, alpha)
        with pytest.raises(TwistIncompatibleError) as err:
            csplit_compare(tm)
        assert (err.value.generator_name, err.value.witness) == witness
        assert str(err.value) == str(built.value)


def test_kunneth_convolution_plain():
    assert kunneth_convolution([1, 0, 1, 0, 0], [1, 2, 1, 0, 0], 4) == [1, 2, 2, 2, 1]


def test_formal_base_forcing_is_columnwise(catalog_models, symplectic_forms):
    kt_model = catalog_models["kodaira-thurston"]
    sf = symplectic_forms["kodaira-thurston"]
    for m in (2, 3):
        report = forcing_check(kt_model, sf, formal_even_base(m))
        assert report.forced_zero and report.base_m == m


def test_flat_alpha_space_kt():
    kt_model = ce_model(LieAlgebraSpec(dim=4, brackets=((1, 2, 3, F(1)),)))
    base = sphere_base()
    flats = flat_alpha_space(kt_model, base)
    # alpha_1 = alpha_2 = 0 is forced by D^2 x3 = 0; x3, x4 twists are free
    assert len(flats) == 2
    for alpha in flats:
        assert alpha[0][0] == 0 and alpha[1][0] == 0
        build_twisted(kt_model, base, alpha)


def test_pullback_column_extracts_columns(kt):
    base = formal_even_base(2)
    flats = flat_alpha_space(kt, base)
    alpha = flats[0]
    tm = build_twisted(kt, base, alpha)
    for i in (1, 2):
        sub = pullback_column(tm, i)
        assert sub.base.kind == "s2"
        assert [row[0] for row in sub.alpha] == [row[i - 1] for row in tm.alpha]
    with pytest.raises(IndexError):
        pullback_column(tm, 3)
    with pytest.raises(StructuralError):
        pullback_column(build_twisted(kt, sphere_base(), [[0]] * 4), 1)


def test_pullback_zero_matrix_gives_product_model(kt):
    base = formal_even_base(2)
    tm = build_twisted(kt, base, [[0, 0]] * 4)
    sub = pullback_column(tm, 1)
    assert sub.alpha_is_zero()
    assert csplit_compare(sub).alpha_zero


def test_pullback_commutation_identity_random_valid_alphas(kt):
    rng = random.Random(87)
    for m in (2, 3):
        base = formal_even_base(m)
        flats = flat_alpha_space(kt, base)
        assert flats
        for _ in range(10):
            weights = [F(rng.randint(-2, 2)) for _ in flats]
            alpha = [
                [
                    sum(w * basis[k][j] for w, basis in zip(weights, flats))
                    for j in range(m)
                ]
                for k in range(4)
            ]
            tm = build_twisted(kt, base, alpha)
            for i in range(1, m + 1):
                assert pullback_commutes(tm, i)


def test_relabelling_matches_literal_substitution(catalog_models):
    """Inclusion and pullback by relabelling equal products of generator images.

    Every monomial of each catalog fiber goes into the total algebra over
    s2, formal:2 and formal:3; every monomial of those formal total
    algebras through degree 6 goes through each pullback.
    """
    checked = 0
    for fiber in catalog_models.values():
        for base in (sphere_base(), formal_even_base(2), formal_even_base(3)):
            tm = TwistedModel(base, fiber, [[0] * base.m] * fiber.n)
            target = tm.total.algebra
            for k in range(fiber.n + 1):
                for key in monomials_naive(fiber.algebra, k):
                    u = fiber.algebra.element({key: 1})
                    assert tm.include_fiber(u) == include_by_name(u, target), key
                    checked += 1
            if base.kind == "s2":
                continue
            for i in range(1, base.m + 1):
                sub = pullback_column(tm, i)
                sub_alg = sub.total.algebra
                images = {g.name: sub_alg.gen(g.name) for g in fiber.algebra.generators}
                for j, name in enumerate(base.twist_gen_names, start=1):
                    images[name] = sub_alg.gen("a") if j == i else sub_alg.zero()
                index_map = _pullback_index(tm, sub, i)
                for k in range(7):
                    for key in monomials_naive(target, k):
                        u = target.element({key: 1})
                        got = _relabel(u, sub_alg, index_map)
                        assert got == substitute(u, images), (i, key)
                        checked += 1
    assert checked > 5000


def test_alpha_shape_validation(kt):
    with pytest.raises(StructuralError):
        build_twisted(kt, sphere_base(), [[0], [0]])  # wrong row count
    with pytest.raises(StructuralError):
        build_twisted(kt, formal_even_base(2), [[0]] * 4)  # wrong column count
