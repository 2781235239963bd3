"""Exterior algebra core: products, signs, derivations, normal forms."""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilsplit.bundles import TwistedModel, formal_even_base, normalize_alpha, sphere_base
from nilsplit.errors import StructuralError
from nilsplit.exterior import (
    Derivation,
    Element,
    FreeDGA,
    GradedAlgebra,
    contract,
    contraction_columns,
    exact,
)
from nilsplit.lie_algebras import LieAlgebraSpec, ce_dga
from oracles import d_of_monomial_naive, monomials_naive


@pytest.fixture
def odd4():
    return GradedAlgebra([("x1", 1), ("x2", 1), ("x3", 1), ("x4", 1)])


@pytest.fixture
def mixed():
    # odd and even generators together: x_i odd, a_i even, b odd (degree 3)
    return GradedAlgebra(
        [("x1", 1), ("x2", 1), ("x3", 1), ("a1", 2), ("a2", 2), ("b", 3)]
    )


def test_product_base_cases(odd4):
    x1, x2 = odd4.gen("x1"), odd4.gen("x2")
    assert str(x1 * x2) == "x1*x2"
    assert x2 * x1 == -(x1 * x2)
    assert (x1 * x1).is_zero()


def test_even_generators_are_central(mixed):
    a, x1 = mixed.gen("a1"), mixed.gen("x1")
    assert a * x1 == x1 * a
    assert str(a * x1) == "x1*a1"
    b = mixed.gen("b")
    # odd degree-3 generator still anticommutes with odd degree-1
    assert b * x1 == -(x1 * b)
    assert (b * b).is_zero()


def test_degree_bookkeeping(mixed):
    a, b, x = mixed.gen("a1"), mixed.gen("b"), mixed.gen("x2")
    u = a * b * x
    assert u.degree() == 6
    mixed_el = a + x
    assert mixed_el.degrees() == [1, 2]
    with pytest.raises(StructuralError):
        mixed_el.degree()


def test_elements_require_same_algebra(odd4, mixed):
    with pytest.raises(StructuralError):
        odd4.gen("x1") * mixed.gen("x1")
    with pytest.raises(StructuralError):
        odd4.gen("x1") + mixed.gen("x1")


def test_normal_form_idempotence(mixed):
    u = mixed.element(
        {
            (0, 1, 3, 2): Fraction(3, 2),
            (1, 1, 2, 1): Fraction(-1),
            (): Fraction(7),
        }
    )
    again = mixed.element(dict(u.terms))
    assert again == u
    assert all(c != 0 for c in u.terms.values())


def test_coefficients_enter_as_int_when_integral(odd4):
    """exact() is the one door: an integral coefficient becomes an int, True is
    1, any other rational stays a Fraction, and floats are refused."""
    x1 = odd4.gen("x1")
    key = (0, 1)
    for c, want in ((True, 1), (False, 0), (Fraction(4, 2), 2), (-3, -3), ("6/3", 2)):
        assert type(exact(c)) is int and exact(c) == want, c
    assert exact(Fraction(1, 2)) == Fraction(1, 2) and type(exact("-1/2")) is Fraction
    for bad in (0.5, 1.0, None):
        with pytest.raises(StructuralError):
            exact(bad)

    assert odd4.element({key: True}) == x1 == x1.scale(True) == True * x1
    assert odd4.element({key: False}).is_zero() and x1.scale(False).is_zero()
    built = [
        odd4.element({key: True, (1, 1): Fraction(-6, 3)}),
        x1.scale(Fraction(2, 1)),
        x1 * Fraction(5, 5),
        odd4.scalar(Fraction(8, 4)),
        odd4.one(),
        x1,
    ]
    for u in built:
        assert all(type(c) is int for c in u.terms.values()), u.terms
    assert type(x1.scale(Fraction(1, 3)).terms[key]) is Fraction

    spec = LieAlgebraSpec(dim=3, brackets=((1, 2, 3, Fraction(2, 1)), (1, 3, 2, Fraction(0))))
    assert spec.bracket_table() == {(1, 2): {3: 2}}
    assert type(spec.bracket_table()[(1, 2)][3]) is int
    dx3 = ce_dga(spec).d.image_of_generator("x3")
    assert dx3.terms == {(0, 1, 1, 1): -2} and type(dx3.terms[(0, 1, 1, 1)]) is int
    alpha = normalize_alpha([[Fraction(3, 1), True], [Fraction(1, 2), "0"]], 2, 2)
    assert alpha == ((3, 1), (Fraction(1, 2), 0))
    assert [type(c) for row in alpha for c in row] == [int, int, Fraction, int]


def test_element_str_is_sorted_and_stable(mixed):
    u = mixed.gen("b") * mixed.gen("x1") + mixed.gen("a1").scale(Fraction(-1, 2))
    assert str(u) == "-1/2*a1 - x1*b"
    assert str(mixed.zero()) == "0"
    assert str(mixed.one()) == "1"


def test_derivation_examples(mixed):
    # images {x1 -> a1, x2 -> 0}: D(x1 x2) = a1 x2 by Leibniz
    d = Derivation(mixed, {"x1": mixed.gen("a1"), "x2": mixed.zero()})
    x1x2 = mixed.gen("x1") * mixed.gen("x2")
    assert d(x1x2) == mixed.gen("a1") * mixed.gen("x2")

    # all-zero images annihilate everything
    dzero = Derivation(mixed, {})
    assert dzero(x1x2).is_zero()

    # images {b -> a1^2}: D(a1 b) = a1^3, prefix a1 is even so no sign
    a1 = mixed.gen("a1")
    d2 = Derivation(mixed, {"b": a1 * a1})
    assert d2(a1 * mixed.gen("b")) == a1 * a1 * a1


def test_derivation_rejects_bad_image_degree(mixed):
    with pytest.raises(StructuralError):
        Derivation(mixed, {"x1": mixed.gen("b")})  # degree 3 != 1 + 1


def _random_homogeneous(rng, algebra, degree, density=0.6):
    basis = algebra.monomials_of_degree(degree)
    terms = {}
    for key in basis:
        if rng.random() < density:
            c = Fraction(rng.randint(-4, 4))
            if c:
                terms[key] = c
    return algebra.element(terms)


def _random_element(rng, algebra, max_degree=4):
    out = algebra.zero()
    for d in range(max_degree + 1):
        out = out + _random_homogeneous(rng, algebra, d, density=0.3)
    return out


def test_graded_commutativity_random(mixed):
    rng = random.Random(101)
    for _ in range(300):
        p = rng.randint(0, 4)
        q = rng.randint(0, 4)
        u = _random_homogeneous(rng, mixed, p)
        v = _random_homogeneous(rng, mixed, q)
        sign = -1 if (p % 2) and (q % 2) else 1
        assert u * v == (v * u).scale(sign)


def test_associativity_random(mixed):
    rng = random.Random(202)
    for _ in range(150):
        u = _random_element(rng, mixed, 3)
        v = _random_element(rng, mixed, 3)
        w = _random_element(rng, mixed, 3)
        assert (u * v) * w == u * (v * w)


def test_degree_additivity_random(mixed):
    rng = random.Random(303)
    for _ in range(200):
        p = rng.randint(0, 5)
        q = rng.randint(0, 5)
        u = _random_homogeneous(rng, mixed, p)
        v = _random_homogeneous(rng, mixed, q)
        uv = u * v
        if not uv.is_zero():
            assert uv.degree() == p + q


def _random_derivation(rng, algebra):
    images = {}
    for g in algebra.generators:
        images[g.name] = _random_homogeneous(rng, algebra, g.degree + 1, density=0.5)
    return Derivation(algebra, images)


def test_leibniz_random(mixed):
    rng = random.Random(404)
    for _ in range(200):
        d = _random_derivation(rng, mixed)
        p = rng.randint(0, 4)
        u = _random_homogeneous(rng, mixed, p)
        v = _random_element(rng, mixed, 3)
        lhs = d(u * v)
        rhs = d(u) * v + (u * d(v)).scale(-1 if p % 2 else 1)
        assert lhs == rhs


def _assert_derivation_matches_oracle(dga, max_degree=6):
    """Every monomial up to max_degree: production d equals the product formula."""
    alg = dga.algebra
    for k in range(max_degree + 1):
        for key in monomials_naive(alg, k):
            expected = d_of_monomial_naive(dga, key)
            assert dga.d.monomial_terms(key) == expected.terms, alg.monomial_str(key)
            assert dga.d(Element(alg, {key: Fraction(3, 2)})) == expected.scale(
                Fraction(3, 2)
            )


def test_derivation_matches_product_formula_oracle(mixed, catalog_models):
    """Leibniz recursion vs the block-by-block oracle on three kinds of DGA.

    Random derivations on `mixed` (even generators with exponents >= 2, a
    degree-3 generator) and on its generators with the even ones first,
    every catalog CE model, and total models over S^2 and a formal base on
    two generators with zero and random twists.
    """
    rng = random.Random(606)
    # the same generators with the even ones first, so an even block with
    # a nonzero image is followed by odd generators its image must pass
    evens_first = GradedAlgebra(
        [("a1", 2), ("a2", 2), ("x1", 1), ("x2", 1), ("x3", 1), ("b", 3)]
    )
    for alg in (mixed, evens_first):
        for _ in range(20):
            _assert_derivation_matches_oracle(FreeDGA(alg, _random_derivation(rng, alg)))
    for model in catalog_models.values():
        _assert_derivation_matches_oracle(model.dga)
    for name in ("kodaira-thurston", "heisenberg3", "heisenberg5-plus-r"):
        fiber = catalog_models[name]
        for base in (sphere_base(), formal_even_base(2)):
            zero = [[0] * base.m for _ in range(fiber.n)]
            twist = [[rng.randint(-2, 2) for _ in range(base.m)] for _ in range(fiber.n)]
            for alpha in (zero, twist):
                tm = TwistedModel(base, fiber, alpha)
                _assert_derivation_matches_oracle(tm.total)


def test_derivation_even_block_before_odd_image():
    """d(a^2 y3) with d a = y1 y2 y4: dg must pass y3 before g^(e-1) joins it."""
    alg = GradedAlgebra([("a", 2), ("y1", 1), ("y2", 1), ("y3", 1), ("y4", 1)])
    y1, y2, y3, y4 = (alg.gen(f"y{i}") for i in range(1, 5))
    a = alg.gen("a")
    dga = FreeDGA(alg, Derivation(alg, {"a": y1 * y2 * y4}))
    expected = (a * y1 * y2 * y3 * y4).scale(-2)
    assert dga.d(a * a * y3) == expected
    assert d_of_monomial_naive(dga, (0, 2, 3, 1)) == expected


def test_monomials_of_degree_matches_naive_enumeration():
    """The enumeration lists exactly the keys of every exponent vector.

    The pruned branches are where no even generator is left, so the
    algebras put an even generator first, last and between odd ones, and
    the degrees run past what the odd generators alone can reach. On a
    dim-20 exterior algebra, order and count are those of
    itertools.combinations, up to degree 21.
    """
    rng = random.Random(707)
    algebras = [
        GradedAlgebra([(f"x{i}", 1) for i in range(10)]),
        GradedAlgebra([("a", 2), ("x", 1), ("y", 3), ("z", 1)]),
        GradedAlgebra([("x", 1), ("y", 3), ("z", 1), ("a", 2)]),
        GradedAlgebra([("x", 1), ("y", 3), ("a", 2), ("z", 1), ("w", 5)]),
        GradedAlgebra([("x", 3), ("a", 4), ("y", 1), ("b", 2), ("z", 3)]),
        GradedAlgebra([("x", 1), ("y", 3), ("z", 5)]),
    ]
    for _ in range(60):
        n = rng.randint(0, 7)
        algebras.append(GradedAlgebra([(f"g{i}", rng.randint(1, 4)) for i in range(n)]))
    for alg in algebras:
        odd_reach = sum(d for d in alg.degrees if d % 2)
        for k in range(-1, max(11, odd_reach + 4)):
            assert alg.monomials_of_degree(k) == monomials_naive(alg, k), (alg, k)
    alg = GradedAlgebra([(f"x{i}", 1) for i in range(20)])
    for k in (0, 1, 2, 5, 15, 18, 19, 20, 21):
        want = [tuple(x for i in c for x in (i, 1)) for c in combinations(range(20), k)]
        got = alg.monomials_of_degree(k)
        assert got == want, k
        assert len(got) == comb(20, k), k


def test_monomials_of_degree_recurse_per_block_not_per_generator():
    """The recursion is as deep as a key has blocks, so degree 1 on more
    generators than the interpreter's recursion limit lists them all."""
    alg = GradedAlgebra([(f"x{i}", 1) for i in range(1500)])
    assert alg.monomials_of_degree(1) == [(i, 1) for i in range(1500)]
    assert alg.monomials_of_degree(0) == [()]


def test_contract_is_a_degree_minus_one_derivation(mixed):
    """theta(x_k) = alpha_k, graded Leibniz with sign (-1)^|u|, theta^2 = 0."""
    rng = random.Random(505)
    for _ in range(200):
        alpha = {k: Fraction(rng.randint(-3, 3)) for k in range(3)}  # x1..x3
        for k in range(3):
            assert contract(mixed.gen(f"x{k + 1}"), alpha) == mixed.scalar(alpha[k])
        p = rng.randint(0, 4)
        u = _random_homogeneous(rng, mixed, p)
        v = _random_element(rng, mixed, 3)
        lhs = contract(u * v, alpha)
        rhs = contract(u, alpha) * v + (u * contract(v, alpha)).scale(-1 if p % 2 else 1)
        assert lhs == rhs
        assert contract(contract(v, alpha), alpha).is_zero()
    with pytest.raises(StructuralError):
        contract(mixed.gen("a1"), {3: Fraction(1)})  # a1 has degree 2


def test_contraction_columns_match_contract(mixed, catalog_models):
    """Column k holds contract(u, {k: 1}) at the rows (index of u, monomial)."""
    rng = random.Random(606)
    cases = [([_random_element(rng, mixed, 4) for _ in range(3)], 3)]  # x1..x3 only
    for model in catalog_models.values():
        images = [model.d.image_of_generator(name) for name in model.generator_names()]
        randoms = [_random_homogeneous(rng, model.algebra, p, 0.4) for p in (1, 2, 3, 4)]
        cases += [(images, model.n), (randoms, model.n)]
    for elements, n in cases:
        columns = contraction_columns(elements, n)
        assert len(columns) == n
        for k in range(n):
            want = {
                (r, key): c
                for r, u in enumerate(elements)
                for key, c in contract(u, {k: 1}).terms.items()
            }
            assert columns[k] == want, k
    with pytest.raises(StructuralError):
        contraction_columns([mixed.gen("x1")], 4)  # a1 has degree 2


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.randoms())
def test_associativity_on_monomials(p, q, r, hyp_rng):
    algebra = GradedAlgebra(
        [("x1", 1), ("x2", 1), ("x3", 1), ("a1", 2), ("a2", 2), ("b", 3)]
    )

    def pick(degree):
        basis = algebra.monomials_of_degree(degree)
        if not basis:
            return algebra.one()
        key = basis[hyp_rng.randrange(len(basis))]
        return Element(algebra, {key: Fraction(1)})

    u, v, w = pick(p), pick(q), pick(r)
    assert (u * v) * w == u * (v * w)
