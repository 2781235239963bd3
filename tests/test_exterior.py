"""Exterior algebra core: products, signs, derivations, normal forms."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilsplit.errors import StructuralError
from nilsplit.exterior import Derivation, Element, GradedAlgebra, contract


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


def test_power(mixed):
    a = mixed.gen("a1") + mixed.gen("a2")
    sq = a.power(2)
    a1a2 = mixed.gen("a1") * mixed.gen("a2")
    assert sq.coefficient((3, 2)) == 1
    assert sq == mixed.gen("a1").power(2) + a1a2.scale(2) + mixed.gen("a2").power(2)
