"""Twisted models: construction, obstruction, forcing, c-splitting."""

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
)

from nilsplit.bundles import (
    BaseModel,
    TwistedModel,
    csplit_compare,
    flat_alpha_space,
    forcing_check,
    formal_even_base,
    hamiltonian_obstruction,
    kunneth_convolution,
    sphere_base,
)
from nilsplit.cohomology import Cohomology
from nilsplit.errors import StructuralError, TwistIncompatibleError
from nilsplit.exterior import Derivation, FreeDGA, GradedAlgebra
from nilsplit.lie_algebras import LieAlgebraSpec, ce_model
from nilsplit.symplectic import SymplecticForm, hard_lefschetz

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
    tm = TwistedModel(sphere_base(), kt, [[0]] * 4)
    assert tm.alpha_is_zero() and tm.total.flatness_witness() is None
    # D is d on every fiber generator, and D(b) = a^2 on the base
    for name in kt.generator_names():
        want = tm.include_fiber(kt.d.image_of_generator(name))
        assert tm.total.d.image_of_generator(name) == want, name
    a = tm.total.algebra.gen("a")
    assert tm.total.d.image_of_generator("b") == a * a


def test_torus_fiber_accepts_any_alpha(t2):
    tm = TwistedModel(sphere_base(), t2, [[F(5)], [F(-7, 3)]])
    assert tm.total.flatness_witness() is None


def test_kt_alpha_on_x3_is_flat(kt):
    # D^2 x3 = -a (alpha_1 x2 - alpha_2 x1) vanishes when alpha_1=alpha_2=0
    tm = TwistedModel(sphere_base(), kt, [[0], [0], [1], [0]])
    assert tm.total.flatness_witness() is None


def test_kt_alpha_on_x1_is_rejected_with_witness(kt):
    with pytest.raises(TwistIncompatibleError) as err:
        csplit_compare(TwistedModel(sphere_base(), kt, [[1], [0], [0], [0]]))
    assert err.value.generator_name == "x3"
    assert str(err.value.witness) == "-a*x2"


def test_structure_conditions_on_twisted_model(kt):
    tm = TwistedModel(sphere_base(), kt, [[0], [0], [1], [0]])
    # D restricted to base generators is the base differential
    a = tm.total.algebra.gen("a")
    assert tm.total.d.image_of_generator("b") == a * a
    # and D(x3) - d(x3) = a lies in the base ideal
    d_x3 = tm.total.d.image_of_generator("x3")
    x1x2 = tm.total.algebra.gen("x1") * tm.total.algebra.gen("x2")
    assert d_x3 == a - x1x2


def test_obstruction_zero_alpha(kt, kt_form):
    tm = TwistedModel(sphere_base(), kt, [[0]] * 4)
    ob = hamiltonian_obstruction(tm, kt_form)
    assert ob.hamiltonian and ob.full.is_zero()
    assert all(el.is_zero() for el in ob.per_generator.values())


def test_obstruction_t2_nontrivial_twist(t2, t2_form):
    tm = TwistedModel(sphere_base(), t2, [[1], [0]])
    ob = hamiltonian_obstruction(tm, t2_form)
    a = tm.total.algebra.gen("a")
    x2 = tm.total.algebra.gen("x2")
    assert ob.full == a * x2
    assert not ob.hamiltonian
    assert ob.per_generator["a"] == t2.algebra.gen("x2")


def test_obstruction_coefficient_equals_contraction(catalog_models, symplectic_forms):
    """theta_j(omega), read off D(omega) as its a_j-part, is the literal
    contraction of omega with column j of alpha: on every catalog fiber,
    over S2 and formal bases with 2 and 3 generators, for seeded, mostly
    non-flat alpha that include all-zero columns. A fiber without a
    catalog form takes a seeded 2-form; omega need not be closed."""
    rng = random.Random(71)
    values = [F(0), F(1), F(-1), F(2), F(1, 2), F(-3, 4)]
    bases = [sphere_base(), formal_even_base(2), formal_even_base(3)]
    runs = flat = 0
    for fiber_name, model in catalog_models.items():
        n = model.n
        sf = symplectic_forms.get(fiber_name)
        if sf is None:
            pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            sf = SymplecticForm.from_coeffs(model, [(i, j, rng.choice(values)) for i, j in pairs])
        for base in bases:
            for t in range(6):
                columns = [[rng.choice(values) for _ in range(n)] for _ in range(base.m)]
                if t < base.m:
                    columns[t] = [F(0)] * n
                tm = TwistedModel(base, model, [list(row) for row in zip(*columns)])
                ob = hamiltonian_obstruction(tm, sf)
                assert tuple(ob.per_generator) == base.twist_gen_names
                for name, column in zip(base.twist_gen_names, columns):
                    want = contraction_literal(sf.omega, column)
                    assert ob.per_generator[name] == want, (fiber_name, base.m, column)
                runs += 1
                flat += tm.total.flatness_witness() is None
    assert flat < runs / 2, (flat, runs)


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
    tm = TwistedModel(sphere_base(), kt, [[0]] * 4)
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
        tm = TwistedModel(sphere_base(), t4, alpha)
        assert tm.total.flatness_witness() is None
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
    tm = TwistedModel(sphere_base(), t2, [[0], [0]])
    assert betti_vector_naive(tm.total, 4) == [1, 2, 2, 2, 1]
    assert csplit_compare(tm).total == (1, 2, 2, 2, 1)
    tmk = TwistedModel(sphere_base(), kt, [[0]] * 4)
    assert betti_vector_naive(tmk.total, 6) == [1, 3, 5, 6, 5, 3, 1]
    assert csplit_compare(tmk).total == (1, 3, 5, 6, 5, 3, 1)


def test_total_betti_twisted_t2_is_s3_x_s1(t2):
    tm = TwistedModel(sphere_base(), t2, [[1], [0]])
    got = list(csplit_compare(tm).total)
    assert got == [1, 1, 0, 1, 1]
    assert got == betti_vector_naive(tm.total, 4)


def test_total_betti_matches_naive_oracle_on_twisted_models(kt):
    tm = TwistedModel(sphere_base(), kt, [[0], [0], [1], [0]])
    cap = 6
    assert list(csplit_compare(tm, cap).total) == betti_vector_naive(tm.total, cap)


def test_euler_characteristic_vanishes_when_top_is_verified_zero(t2, kt):
    for fiber, alpha in ((t2, [[1], [0]]), (kt, [[0], [0], [1], [0]])):
        tm = TwistedModel(sphere_base(), fiber, alpha)
        cap = fiber.n + 2
        bettis = csplit_compare(tm, cap + 2).total
        assert bettis[cap + 1] == 0 and bettis[cap + 2] == 0
        assert sum((-1) ** k * b for k, b in enumerate(bettis[: cap + 1])) == 0


def test_csplit_verdicts(t2, kt):
    product = TwistedModel(sphere_base(), kt, [[0]] * 4)
    good = csplit_compare(product)
    assert good.c_splits and good.alpha_zero
    # good.total is the convolution itself at alpha = 0; the total model is not
    assert tuple(betti_vector_naive(product.total, good.cap)) == good.expected
    twisted = TwistedModel(sphere_base(), t2, [[1], [0]])
    bad = csplit_compare(twisted)
    assert not bad.c_splits and not bad.alpha_zero
    assert bad.total == (1, 1, 0, 1, 1)
    assert bad.total == tuple(betti_vector_naive(twisted.total, bad.cap))
    assert bad.expected == (1, 2, 2, 2, 1)


def test_incompatible_unchecked_twist_is_refused(kt):
    """D^2 != 0 raises csplit_compare's error instead of negative Betti numbers."""
    cases = (
        (sphere_base(), [[1], [0], [0], [0]]),
        (formal_even_base(2), [[0, 1], [0, 0], [0, 0], [1, 0]]),
    )
    for base, alpha in cases:
        tm = TwistedModel(base, kt, alpha)
        witness = tm.total.flatness_witness()
        assert witness is not None
        with pytest.raises(TwistIncompatibleError) as err:
            csplit_compare(tm)
        assert (err.value.generator_name, err.value.witness) == witness


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
        assert TwistedModel(base, kt_model, alpha).total.flatness_witness() is None


def test_relabelling_matches_literal_substitution(catalog_models):
    """Inclusion by relabelling equals the product of generator images.

    Every monomial of each catalog fiber goes into the total algebra over
    s2, formal:2 and formal:3.
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
    assert checked == 900


def test_alpha_shape_validation(kt):
    with pytest.raises(StructuralError):
        TwistedModel(sphere_base(), kt, [[0], [0]])  # wrong row count
    with pytest.raises(StructuralError):
        TwistedModel(formal_even_base(2), kt, [[0]] * 4)  # wrong column count


def _base_named_x1():
    """A one-generator formal base whose generator clashes with a fiber's."""
    algebra = GradedAlgebra([("x1", 2)])
    dga = FreeDGA(algebra, Derivation(algebra, {"x1": algebra.zero()}))
    return BaseModel(dga=dga, twist_gen_names=("x1",))


def _heisenberg3_form():
    h3 = ce_model(LieAlgebraSpec(dim=3, brackets=((1, 2, 3, F(1)),)))
    return h3, SymplecticForm.from_coeffs(h3, [(1, 2, 1)])


@pytest.mark.parametrize(
    "message, call",
    [
        (
            "coefficient indices (1,5) out of range",
            lambda kt, t2, t2_form: SymplecticForm.from_coeffs(kt, [(1, 5, 1)]),
        ),
        (
            "duplicate coefficient for (1,2)",
            lambda kt, t2, t2_form: SymplecticForm.from_coeffs(kt, [(1, 2, 1), (1, 2, 2)]),
        ),
        (
            "omega lives over a different algebra",
            lambda kt, t2, t2_form: SymplecticForm.from_element(kt, t2_form.omega),
        ),
        (
            "symplectic form lives on a different fiber",
            lambda kt, t2, t2_form: hamiltonian_obstruction(
                TwistedModel(sphere_base(), kt, [[0]] * 4), t2_form
            ),
        ),
        (
            "symplectic form lives on a different fiber",
            lambda kt, t2, t2_form: forcing_check(kt, t2_form, sphere_base()),
        ),
        (
            "generator name collision: ['x1']",
            lambda kt, t2, t2_form: TwistedModel(_base_named_x1(), t2, [[0], [0]]),
        ),
        (
            "element lives outside the fiber algebra",
            lambda kt, t2, t2_form: TwistedModel(sphere_base(), kt, [[0]] * 4).include_fiber(
                t2_form.omega
            ),
        ),
        (
            "formal base needs at least one generator",
            lambda kt, t2, t2_form: formal_even_base(0),
        ),
        (
            "form and model live over different generator sets",
            lambda kt, t2, t2_form: hard_lefschetz(kt, t2_form),
        ),
        (
            "hard Lefschetz needs an even-dimensional model",
            lambda kt, t2, t2_form: hard_lefschetz(*_heisenberg3_form()),
        ),
    ],
    ids=[
        "from_coeffs-range",
        "from_coeffs-duplicate",
        "from_element-foreign",
        "obstruction-foreign-form",
        "forcing-foreign-form",
        "twisted-name-collision",
        "include_fiber-foreign",
        "formal-base-zero",
        "lefschetz-foreign-form",
        "lefschetz-odd-dimension",
    ],
)
def test_library_refuses_mismatched_inputs(kt, t2, t2_form, message, call):
    with pytest.raises(StructuralError) as err:
        call(kt, t2, t2_form)
    assert str(err.value) == message
