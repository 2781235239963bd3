"""Symplectic certificates, contraction, the search, hard Lefschetz."""

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import pytest
from oracles import contraction_literal, lattice_points, lefschetz_ranks_naive, skew_matrix

from nilsplit.cohomology import Cohomology
from nilsplit.errors import StructuralError
from nilsplit.exterior import contract
from nilsplit.lie_algebras import LieAlgebraSpec, ce_model
from nilsplit.symplectic import (
    SymplecticForm,
    _chain_search,
    _first_perfect_matching,
    closed_two_form_basis,
    find_symplectic,
    hard_lefschetz,
    is_symplectic,
)

F = Fraction


@pytest.fixture(scope="module")
def t2():
    return ce_model(LieAlgebraSpec(dim=2, brackets=()))


@pytest.fixture(scope="module")
def t4():
    return ce_model(LieAlgebraSpec(dim=4, brackets=()))


@pytest.fixture(scope="module")
def kt():
    return ce_model(LieAlgebraSpec(dim=4, brackets=((1, 2, 3, F(1)),)))


def _iota(sf, alpha):
    """iota_X omega by the literal formula, checked against exterior.contract."""
    literal = contraction_literal(sf.omega, alpha)
    assert contract(sf.omega, dict(enumerate(F(a) for a in alpha))) == literal
    return literal


def test_contraction_zero_vector(kt, symplectic_forms):
    sf = symplectic_forms["kodaira-thurston"]
    assert _iota(sf, [0, 0, 0, 0]).is_zero()


def test_contraction_t2(t2):
    sf = SymplecticForm.from_coeffs(t2, [(1, 2, 1)])
    assert _iota(sf, [1, 0]) == t2.algebra.gen("x2")


def test_contraction_kt(kt):
    sf = SymplecticForm.from_coeffs(kt, [(1, 4, 1), (2, 3, 1)])
    assert _iota(sf, [0, 0, 1, 0]) == -kt.algebra.gen("x2")


def test_contraction_is_transpose_matrix_action(kt):
    rng = random.Random(5)
    sf = SymplecticForm.from_coeffs(kt, [(1, 4, 1), (2, 3, 2), (1, 2, -3)])
    A = skew_matrix(sf.omega, 4)
    for _ in range(25):
        alpha = [F(rng.randint(-4, 4)) for _ in range(4)]
        got = _iota(sf, alpha)
        coords = [
            sum(A[i][k] * alpha[i] for i in range(4)) for k in range(4)
        ]
        want = kt.algebra.element({(k, 1): c for k, c in enumerate(coords) if c})
        assert got == want


def test_is_symplectic_torus_standard(t4):
    omega = t4.algebra.element({(0, 1, 1, 1): F(1), (2, 1, 3, 1): F(1)})
    cert = is_symplectic(t4, omega)
    assert cert.symplectic and cert.closed and cert.rank == 4


def test_is_symplectic_kt_good_form(kt):
    omega = kt.algebra.element({(0, 1, 3, 1): F(1), (1, 1, 2, 1): F(1)})
    cert = is_symplectic(kt, omega)
    assert cert.symplectic
    assert cert.d_omega.is_zero()


def test_is_symplectic_kt_non_closed_form(kt):
    # d(x3 x4) = (d x3) x4 = -x1 x2 x4
    omega = kt.algebra.element({(0, 1, 1, 1): F(1), (2, 1, 3, 1): F(1)})
    cert = is_symplectic(kt, omega)
    assert not cert.closed
    x = kt.algebra
    assert cert.d_omega == -(x.gen("x1") * x.gen("x2") * x.gen("x4"))
    assert not cert.symplectic


def test_is_symplectic_reports_kernel_witness(t4):
    omega = t4.algebra.element({(0, 1, 1, 1): F(1)})  # x1 x2: rank 2
    cert = is_symplectic(t4, omega)
    assert cert.closed and not cert.nondegenerate and cert.rank == 2
    w = list(cert.kernel_witness)
    assert any(w) and w[0] == 0 and w[1] == 0  # kernel misses x1, x2 directions


def test_certificate_invariant_under_scaling(symplectic_forms):
    sf = symplectic_forms["kodaira-thurston"]
    for scale in (F(2), F(-1, 3), F(7, 5)):
        cert = is_symplectic(sf.model, sf.omega.scale(scale))
        assert cert.symplectic


def test_find_symplectic_torus_certified(t4):
    res = find_symplectic(t4)
    assert res.found and res.certificate.symplectic
    assert res.closed_dim == 6  # all 2-forms on the torus are closed


def test_find_symplectic_kt(kt):
    res = find_symplectic(kt)
    assert res.found and res.certificate.symplectic
    assert res.closed_dim == 5  # x3 x4 is the one non-closed direction


def test_find_symplectic_succeeds_on_every_symplectic_catalog_entry(catalog_models):
    from nilsplit import catalog

    for name in catalog.symplectic_names():
        res = find_symplectic(catalog_models[name])
        assert res.found, name
        assert res.certificate.symplectic, name


def _chain(model):
    """The product chain alone, the last resort of find_symplectic."""
    return _chain_search(model, closed_two_form_basis(model))


def test_find_symplectic_grid_witness_on_every_symplectic_catalog_entry(catalog_models):
    """The chain's witness comes from the grid under a nonzero product."""
    from nilsplit import catalog

    for name in catalog.symplectic_names():
        model = catalog_models[name]
        res = _chain(model)
        assert res.found, name
        assert "grid witness" in res.reason, name
        assert is_symplectic(model, res.form.omega).symplectic, name
        # grid weights are in {0, 1, ..., n/2}: every coefficient is an integer
        assert all(c.denominator == 1 for c in res.form.omega.terms.values()), name


def test_find_symplectic_is_deterministic(catalog_models):
    from nilsplit import catalog

    for name in catalog.symplectic_names():
        a = find_symplectic(catalog_models[name])
        b = find_symplectic(catalog_models[name])
        assert a == b, name


def test_find_symplectic_odd_dimension_definitive():
    h3 = ce_model(LieAlgebraSpec(dim=3, brackets=((1, 2, 3, F(1)),)))
    res = find_symplectic(h3)
    assert res.status == "definitively-none"
    assert "odd" in res.reason


def test_find_symplectic_h5r_definitive(catalog_models):
    res = _chain(catalog_models["heisenberg5-plus-r"])
    assert res.status == "definitively-none"
    assert res.closed_dim == 10
    assert "3-fold product" in res.reason


def _heisenberg_plus_r(k: int) -> LieAlgebraSpec:
    """h_{2k+1} + R: [X_i, X_{i+k}] = X_{2k+1} for i <= k, then a central X_{2k+2}."""
    z = 2 * k + 1
    return LieAlgebraSpec(
        dim=z + 1, brackets=tuple((i, i + k, z, F(1)) for i in range(1, k + 1))
    )


def _free_two_step(g: int) -> LieAlgebraSpec:
    """Free 2-step nilpotent on g generators: [X_i, X_j] = Y_ij."""
    pairs = [(i, j) for i in range(1, g + 1) for j in range(i + 1, g + 1)]
    return LieAlgebraSpec(
        dim=g + len(pairs),
        brackets=tuple((i, j, g + 1 + p, F(1)) for p, (i, j) in enumerate(pairs)),
    )


@pytest.mark.parametrize(
    "spec", [_heisenberg_plus_r(4), _free_two_step(4)], ids=["h9-r", "free2step4"]
)
def test_find_symplectic_dim10_definitive_without_budget(spec):
    """Both dim-10 decisions were out of reach of the lattice sweep."""
    res = _chain(ce_model(spec))
    assert res.status == "definitively-none"
    assert "5-fold product" in res.reason


def _h3_plus_r(k: int) -> LieAlgebraSpec:
    return LieAlgebraSpec(dim=3 + k, brackets=((1, 2, 3, F(1)),))


_FOUND = "grid witness under a nonzero {}-fold product of closed 2-forms, certified"
_NONE = (
    "every {0}-fold product of closed 2-forms vanishes, "
    "so omega^{0} = 0 for every closed 2-form omega"
)

PINNED_SEARCHES = {
    "h3+R5": (_h3_plus_r(5), "found", 23, _FOUND.format(4), "x1*x3 + x2*x4 + x5*x6 + x7*x8"),
    "h3h3+R2": (
        LieAlgebraSpec(dim=8, brackets=((1, 2, 3, F(1)), (4, 5, 6, F(1)))),
        "found", 19, _FOUND.format(4), "x1*x3 + x2*x4 + x5*x6 + x7*x8",
    ),
    "L8": (
        LieAlgebraSpec(dim=8, brackets=tuple((1, i, i + 1, F(1)) for i in range(2, 8))),
        "found", 10, _FOUND.format(4), "x1*x8 + x2*x7 - x3*x6 + x4*x5",
    ),
    "h3+R7": (
        _h3_plus_r(7), "found", 38, _FOUND.format(5), "x1*x3 + x2*x4 + x5*x6 + x7*x8 + x9*x10",
    ),
    "h3+R9": (
        _h3_plus_r(9), "found", 57, _FOUND.format(6),
        "x1*x3 + x2*x4 + x5*x6 + x7*x8 + x9*x10 + x11*x12",
    ),
    "h5+h3": (
        LieAlgebraSpec(dim=8, brackets=((1, 3, 5, F(1)), (2, 4, 5, F(1)), (6, 7, 8, F(1)))),
        "definitively-none", 17, _NONE.format(4), "None",
    ),
    "h7+R": (_heisenberg_plus_r(3), "definitively-none", 21, _NONE.format(4), "None"),
    "h9+R": (_heisenberg_plus_r(4), "definitively-none", 36, _NONE.format(5), "None"),
    "h11+R": (_heisenberg_plus_r(5), "definitively-none", 55, _NONE.format(6), "None"),
}


@pytest.mark.parametrize("name", list(PINNED_SEARCHES))
def test_find_symplectic_pinned_at_dims_8_to_12(name):
    """Status, dim Z^2, reason and witness of the product chain, as the
    Element-product chain gave them."""
    spec, status, closed_dim, reason, form = PINNED_SEARCHES[name]
    res = _chain(ce_model(spec))
    got = (res.status, res.closed_dim, res.reason, str(res.form))
    assert got == (status, closed_dim, reason, form)


_KERNEL = (
    "iota_X omega = 0 for every closed 2-form omega at X = ({}) in their "
    "common kernel, so none is nondegenerate"
)
_MATCHING = (
    "sum of the closed monomials x_i x_j of a perfect matching of the "
    "generators, certified"
)


def _unit(n: int, k: int) -> str:
    """The coordinates of e_k (1-based) as the kernel reason prints them."""
    return ", ".join("1" if i == k else "0" for i in range(1, n + 1))


FRONT_DOOR = {
    "h5+h3": _KERNEL.format(_unit(8, 5)),
    "h7+R": _KERNEL.format(_unit(8, 7)),
    "h9+R": _KERNEL.format(_unit(10, 9)),
    "h11+R": _KERNEL.format(_unit(12, 11)),
    "h3+R5": _MATCHING,
    "h3h3+R2": _MATCHING,
    "h3+R7": _MATCHING,
    "h3+R9": _MATCHING,
    "L8": _FOUND.format(4),
}


@pytest.mark.parametrize("name", list(FRONT_DOOR))
def test_find_symplectic_certificates_pinned(name):
    """Which check decides, through find_symplectic: the common kernel on the
    negatives (the center of the Heisenberg factor), a perfect matching of
    closed monomials on the block-basis positives, with the chain's own
    witness, and the chain on L8, whose Darboux form needs cancelling terms.
    Status, dim Z^2 and every form are the chain's."""
    spec, status, closed_dim, _, form = PINNED_SEARCHES[name]
    res = find_symplectic(ce_model(spec))
    got = (res.status, res.closed_dim, res.reason, str(res.form))
    assert got == (status, closed_dim, FRONT_DOOR[name], form)
    if res.found:
        assert res.certificate.symplectic


def test_find_symplectic_free2step4_falls_back_to_the_chain():
    """free2step4 has no common kernel vector, so the chain decides."""
    res = find_symplectic(ce_model(_free_two_step(4)))
    assert (res.status, res.closed_dim) == ("definitively-none", 26)
    assert res.reason == _NONE.format(5)


def test_find_symplectic_dim20_by_certificates():
    """At dim 20 each certificate decides in milliseconds; the product chain
    took 51 s (h19+R) and 89 s (h3+R^17) on the same inputs."""
    none = find_symplectic(ce_model(_heisenberg_plus_r(9)))
    assert none.status == "definitively-none"
    assert none.reason == _KERNEL.format(_unit(20, 19))
    found = find_symplectic(ce_model(_h3_plus_r(17)))
    assert found.found and found.certificate.symplectic
    assert found.reason == _MATCHING
    assert str(found.form) == " + ".join(
        ["x1*x3", "x2*x4"] + [f"x{i}*x{i + 1}" for i in range(5, 21, 2)]
    )


def _matchings_naive(n: int, edges: set) -> list:
    """Every perfect matching of a graph on 0..n-1, each as sorted pairs."""
    if n == 0:
        return [[]]
    found = []
    for pairs in combinations(sorted(edges), n // 2):
        if len({v for pair in pairs for v in pair}) == n:
            found.append(sorted(pairs))
    return found


def test_first_perfect_matching_against_enumeration():
    """The lexicographically first of all perfect matchings, or None."""
    rng = random.Random(41)
    seen = {True: 0, False: 0}
    for _ in range(300):
        n = rng.choice([2, 4, 6, 8])
        density = rng.choice([0.2, 0.4, 0.7])
        edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density}
        partners = [[j for j in range(i + 1, n) if (i, j) in edges] for i in range(n)]
        want = min(_matchings_naive(n, edges), default=None)
        assert _first_perfect_matching(partners) == want, (n, sorted(edges))
        seen[want is not None] += 1
    assert seen[True] >= 50 and seen[False] >= 50, seen
    # K_19 plus an isolated vertex, the shape of h19+R's graph: the dead
    # sets of free vertices are searched once each (milliseconds), where
    # the plain search would try all 17!! matchings of vertices 0..17
    assert _first_perfect_matching([list(range(i + 1, 19)) for i in range(20)]) is None


def test_lattice_points_count():
    pts = list(lattice_points(3, 2))
    assert len(pts) == 10  # C(3+2, 2)
    assert len(set(pts)) == 10
    assert all(sum(p) <= 2 for p in pts)


def _evaluate(coeffs, point):
    total = F(0)
    for mon, c in coeffs.items():
        term = c
        for var in mon:
            term *= point[var]
        total += term
    return total


def test_lattice_decision_lemma_on_random_cubics():
    """A nonzero homogeneous cubic is nonzero somewhere on the lattice."""
    rng = random.Random(23)
    m, deg = 3, 3
    monomials = list(combinations_with_replacement(range(m), deg))
    for _ in range(50):
        coeffs = {mon: F(rng.randint(-3, 3)) for mon in monomials}
        if all(c == 0 for c in coeffs.values()):
            continue
        values = [_evaluate(coeffs, point) for point in lattice_points(m, deg)]
        assert any(values)


def test_grid_lemma_on_random_homogeneous_polynomials():
    """Alon's Combinatorial Nullstellensatz in the form find_symplectic uses.

    A homogeneous polynomial with a nonzero coefficient at t^a is nonzero
    somewhere on the grid prod {0..a_i}.
    """
    rng = random.Random(29)
    for _ in range(200):
        m, deg = rng.randint(1, 4), rng.randint(1, 4)
        monomials = list(combinations_with_replacement(range(m), deg))
        coeffs = {mon: F(rng.randint(-2, 2)) for mon in monomials if rng.random() < 0.6}
        a = rng.choice(monomials)
        coeffs[a] = F(rng.choice([-3, -1, 1, 2]))
        exponents = [a.count(i) for i in range(m)]
        grid = list(product(*(range(e + 1) for e in exponents)))
        assert len(grid) <= 2**deg
        assert any(_evaluate(coeffs, point) for point in grid), (coeffs, a)


def test_top_power_nonzero_for_certified_forms(catalog_models, symplectic_forms):
    for name, sf in symplectic_forms.items():
        model = catalog_models[name]
        top = model.algebra.one()
        for _ in range(model.n // 2):
            top = top * sf.omega
        assert not top.is_zero(), name
        # and the class survives in H^top, a line
        coh = Cohomology(model.dga)
        assert coh.basis(model.n).rank_of([top]) == 1, name


def test_contraction_vanishes_only_at_zero(catalog_models, symplectic_forms):
    rng = random.Random(31)
    for name, sf in symplectic_forms.items():
        n = catalog_models[name].n
        for _ in range(20):
            alpha = [F(rng.randint(-3, 3)) for _ in range(n)]
            if all(a == 0 for a in alpha):
                continue
            assert not _iota(sf, alpha).is_zero(), name


def test_hard_lefschetz_torus(catalog_models, symplectic_forms):
    entries = hard_lefschetz(catalog_models["torus4"], symplectic_forms["torus4"])
    assert all(e.isomorphism for e in entries)


def test_hard_lefschetz_kt_fails_exactly_at_k1(catalog_models, symplectic_forms):
    entries = hard_lefschetz(
        catalog_models["kodaira-thurston"], symplectic_forms["kodaira-thurston"]
    )
    by_k = {e.k: e for e in entries}
    assert by_k[0].isomorphism
    assert by_k[2].isomorphism
    assert not by_k[1].isomorphism
    assert by_k[1].rank == 2 and by_k[1].source_betti == 3


def test_hard_lefschetz_endpoints_always_iso(catalog_models, symplectic_forms):
    for name, sf in symplectic_forms.items():
        entries = hard_lefschetz(catalog_models[name], sf)
        assert entries[0].isomorphism, name
        assert entries[-1].isomorphism, name


def test_hard_lefschetz_rank_against_naive_oracle(symplectic_forms):
    """The dense oracle ranks omega^k Z^{2-k} modulo coboundaries, with no
    class basis: rank 2 at k = 1 on Kodaira-Thurston, as hard_lefschetz says."""
    sf = symplectic_forms["kodaira-thurston"]
    want = lefschetz_ranks_naive(sf.model.dga, sf.omega, 2)
    assert want[1] == 2
    assert [e.rank for e in hard_lefschetz(sf.model, sf)] == want


def test_from_element_rejects_wrong_degree(kt):
    with pytest.raises(StructuralError):
        SymplecticForm.from_element(kt, kt.algebra.gen("x1"))
