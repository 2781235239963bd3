"""Invariants on seeded random nilpotent algebras, past the catalog.

The generator draws upper-triangular structure constants ([X_i, X_j] only
has components along X_k with k > j, which makes the algebra nilpotent)
and keeps a draw when validation passes, i.e. when Jacobi holds. Each draw
lets its brackets land in the last few basis vectors only, so low-step
algebras such as h5 + R, the non-symplectic ones in even dimension, come
up often enough to test the negative decision too.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from oracles import (
    alphas_by_unit_alpha,
    betti_vector_naive,
    closed_two_forms_naive,
    lefschetz_ranks_naive,
    nullspace_naive,
    product_chain_naive,
    rank_naive,
    skew_matrix,
    symplectic_by_lattice,
)

from nilsplit.bundles import (
    build_twisted,
    csplit_compare,
    flat_alpha_space,
    forcing_check,
    formal_even_base,
    sphere_base,
)
from nilsplit import linalg
from nilsplit.cohomology import Cohomology, DegreeSlice
from nilsplit.exterior import Element
from nilsplit.lie_algebras import LieAlgebraSpec, ce_model, validate
from nilsplit.symplectic import (
    SymplecticForm,
    _bit_form,
    _chain_search,
    _common_kernel_vector,
    _factor,
    _pairing_rank,
    _product_chain,
    _times,
    closed_two_form_basis,
    find_symplectic,
    hard_lefschetz,
    is_symplectic,
)

F = Fraction


def random_nilpotent_specs(seed: int, count: int, dims=(4, 5, 6, 6)):
    """`count` valid nilpotent algebras, each dimension drawn from `dims`.

    The default lists dim 6 twice: its verdicts vary most.
    """
    rng = random.Random(seed)
    specs = []
    while len(specs) < count:
        n = rng.choice(dims)
        top = rng.randint(1, n - 2)  # brackets land in the last `top` vectors
        triples = [
            (i, j, k)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            for k in range(max(j + 1, n - top + 1), n + 1)
        ]
        chosen = rng.sample(triples, rng.randint(1, min(len(triples), n)))
        spec = LieAlgebraSpec(
            dim=n,
            brackets=tuple(
                (i, j, k, F(rng.choice([-2, -1, 1, 2]))) for i, j, k in sorted(chosen)
            ),
        )
        if validate(spec).ok:
            specs.append(spec)
    return specs


def permuted(spec: LieAlgebraSpec, sigma: list[int]) -> LieAlgebraSpec:
    """The same algebra in the basis Y_{sigma[i-1]} = X_i, constants relabelled."""
    brackets = []
    for i, j, k, c in spec.brackets:
        a, b = sigma[i - 1], sigma[j - 1]
        if a > b:  # [Y_b, Y_a] = -[Y_a, Y_b]
            a, b, c = b, a, -c
        brackets.append((a, b, sigma[k - 1], c))
    return LieAlgebraSpec(dim=spec.dim, brackets=tuple(sorted(brackets)))


def sheared(spec: LieAlgebraSpec, rng: random.Random) -> LieAlgebraSpec:
    """The same algebra in the basis Y_a = X_a + sum_{b > a} u_ab X_b.

    The u_ab are seeded small integers, so the change of basis is
    unipotent. [Y_a, Y_b] = sum v_k X_k is rewritten as sum w_c Y_c by
    back substitution: v_k = w_k + sum_{c < k} u_ck w_c.
    """
    n = spec.dim
    u = [[F(int(a == b)) for b in range(n)] for a in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            u[a][b] = F(rng.choice([-1, 0, 0, 1, 2]))
    table = spec.bracket_table()

    def bracket(i, j):  # [X_i, X_j] in X coordinates, 0-based
        if i == j:
            return {}
        sign = 1 if i < j else -1
        return {k - 1: sign * c for k, c in table.get((min(i, j) + 1, max(i, j) + 1), {}).items()}

    brackets = []
    for a in range(n):
        for b in range(a + 1, n):
            v = [F(0)] * n
            for i in range(n):
                for j in range(n):
                    if u[a][i] and u[b][j]:
                        for k, c in bracket(i, j).items():
                            v[k] += u[a][i] * u[b][j] * c
            w = []
            for k in range(n):
                w.append(v[k] - sum(u[c][k] * w[c] for c in range(k)))
            brackets += [(a + 1, b + 1, k + 1, c) for k, c in enumerate(w) if c]
    return LieAlgebraSpec(dim=n, brackets=tuple(brackets))


@pytest.fixture(scope="module")
def dim8_pairs():
    """Seeded dim-8 algebras next to a sheared copy of each."""
    rng = random.Random(88)
    specs = random_nilpotent_specs(seed=808, count=12, dims=(8,))
    return [(spec, sheared(spec, rng)) for spec in specs]


@pytest.fixture(scope="module")
def specs():
    return random_nilpotent_specs(seed=2024, count=40)


@pytest.fixture(scope="module")
def corpus(specs):
    return [ce_model(spec) for spec in specs]


@pytest.fixture(scope="module")
def searches(corpus):
    """One find_symplectic result per algebra of the corpus."""
    return [find_symplectic(model) for model in corpus]


def test_corpus_covers_both_verdicts_in_even_dimension(corpus, searches):
    verdicts = {res.status for model, res in zip(corpus, searches) if model.n % 2 == 0}
    assert verdicts == {"found", "definitively-none"}


def test_chain_verdict_agrees_with_lattice_oracle(corpus, searches):
    for model, res in zip(corpus, searches):
        oracle = symplectic_by_lattice(model.dga, model.n)
        assert res.status in ("found", "definitively-none")
        assert res.found == (oracle is not None), model.algebra
        if res.found:
            assert res.certificate.symplectic


def test_certified_forms_force_zero_twist(corpus, searches):
    """The paper's headline: a symplectic fiber admits no Hamiltonian twist."""
    for model, res in zip(corpus, searches):
        if res.found:
            report = forcing_check(model, res.form, sphere_base())
            assert report.forced_zero and report.solution_dimension == 0, model.algebra


def test_invariant_under_basis_permutation(specs, corpus, searches):
    """Relabelling the basis changes no Betti number, verdict or dim Z^2."""
    rng = random.Random(7)
    moved = 0
    for spec, model, res in zip(specs, corpus, searches):
        sigma = list(range(1, spec.dim + 1))
        rng.shuffle(sigma)
        other = permuted(spec, sigma)
        moved += other != spec
        assert validate(other).ok, sigma
        relabelled = ce_model(other)
        n = spec.dim
        assert (
            Cohomology(relabelled.dga).betti_vector(n) == Cohomology(model.dga).betti_vector(n)
        ), (spec, sigma)
        again = find_symplectic(relabelled)
        assert (again.status, again.closed_dim) == (res.status, res.closed_dim), (spec, sigma)
        if again.found:
            report = forcing_check(relabelled, again.form, sphere_base())
            assert report.forced_zero and report.solution_dimension == 0, (spec, sigma)
    assert moved > len(specs) // 2  # the permutations really change the tables


def test_invariant_under_unipotent_change_of_basis(dim8_pairs):
    """A sheared basis changes no Betti number, verdict or dim Z^2, and every
    form found in either basis forces the twist to {0}."""
    moved = 0
    verdicts = set()
    for spec, other in dim8_pairs:
        moved += other != spec
        assert validate(other).ok, other
        model, relabelled = ce_model(spec), ce_model(other)
        assert Cohomology(relabelled.dga).betti_vector(8) == Cohomology(model.dga).betti_vector(8)
        res, again = find_symplectic(model), find_symplectic(relabelled)
        assert (again.status, again.closed_dim) == (res.status, res.closed_dim), (spec, other)
        verdicts.add(res.status)
        for m, r in ((model, res), (relabelled, again)):
            if r.found:
                report = forcing_check(m, r.form, sphere_base())
                assert report.forced_zero and report.solution_dimension == 0, m.algebra
    assert verdicts == {"found", "definitively-none"}
    assert moved == len(dim8_pairs)  # every shear really changes the table


def test_product_chain_matches_element_product_oracle(catalog_models, corpus, dim8_pairs):
    """The bit-set chain keeps, level by level, what the Element chain keeps.

    Run on every even-dimensional algebra of the catalog, the corpus and the
    sheared dim-8 algebras, whose Z^2 bases have forms of several terms,
    some with fractional coefficients, so the signs of the bit-set products
    and the integer scaling both matter.
    """
    models = [*catalog_models.values(), *corpus, *(ce_model(other) for _, other in dim8_pairs)]
    multi = fractional = compared = 0
    for model in models:
        omegas = closed_two_form_basis(model)
        if model.n % 2 or not omegas:
            continue
        half = model.n // 2
        got = list(_product_chain(omegas, half))
        assert got == product_chain_naive(omegas, half), model.algebra
        compared += 1
        multi += sum(len(w.terms) > 1 for w in omegas)
        fractional += sum(any(c.denominator > 1 for c in w.terms.values()) for w in omegas)
    assert compared >= 30 and multi >= 30 and fractional >= 3, (compared, multi, fractional)


def _bit_map(u: Element) -> dict:
    """u with each normal-form key (i0, 1, i1, 1, ...) as the bit set {i0, i1, ...}."""
    return {sum(1 << i for i in key[::2]): c for key, c in u.terms.items()}


def _random_element(rng, model, degree, keys=()):
    """A seeded nonzero element of the given degree on up to 4 monomials, the
    given keys first, each with a nonzero int or Fraction coefficient."""
    monomials = [
        tuple(x for i in chosen for x in (i, 1)) for chosen in combinations(range(model.n), degree)
    ]
    keys = list(keys) + rng.sample(monomials, min(len(monomials), rng.randint(1, 4)))
    terms = {}
    for key in keys[:4]:
        terms[key] = rng.choice([rng.choice([-3, -2, -1, 1, 2, 3]), F(rng.choice([-5, 1, 3]), 2)])
    return model.algebra.element(terms)


def test_bit_set_products_match_element_products(catalog_models, corpus, dim8_pairs):
    """The bit-set product step equals Element.__mul__ once keys are bit sets.

    On the catalog, the corpus and the sheared dim-8 bases, with int and
    Fraction coefficients: the first Z^2 basis forms and seeded 2-forms
    times seeded elements of every degree 0..n; omega^k built by the step
    itself, then omega^k * a with omega^k as the left factor; _bit_form as
    omega scaled by the lcm of its denominators; and the rank of the pairing
    <u_i, a_j> against the dense rank of the top coefficients of the
    Element products u_i * a_j, where a_j holds complements of terms of
    the u_i so that the pairing is not all zero.
    """
    rng = random.Random(1913)
    models = [*catalog_models.values(), *corpus, *(ce_model(other) for _, other in dim8_pairs)]
    seen = set()
    products = powers = pairings = 0
    for model in models:
        n, alg = model.n, model.algebra
        top = tuple(x for i in range(n) for x in (i, 1))
        forms = closed_two_form_basis(model)[:2] + [_random_element(rng, model, 2) for _ in range(2)]
        for omega in forms:
            if omega.is_zero():
                continue
            scale = lcm(*(c.denominator for c in omega.terms.values()))
            assert _bit_form(omega) == _factor(_bit_map(omega.scale(scale))), (alg, omega)
            unit = _factor(_bit_map(omega))
            for degree in range(n + 1):
                a = _random_element(rng, model, degree)
                want = _bit_map(omega * a)
                assert _times(unit, _bit_map(a)) == want, (alg, omega, a)
                seen.update(type(c) for c in [*omega.terms.values(), *a.terms.values()])
                products += bool(want)
            power, omega_k = {0: 1}, alg.one()
            for k in range(1, n // 2 + 1):
                power, omega_k = _times(unit, power), omega_k * omega
                assert power == _bit_map(omega_k), (alg, omega, k)
                a = _random_element(rng, model, rng.randint(0, n - 2 * k))
                want = _bit_map(omega_k * a)
                assert _times(_factor(power), _bit_map(a)) == want, (alg, omega, k, a)
                powers += len(power) > 1 and bool(want)
        for degree in range(n + 1):
            us = [_random_element(rng, model, degree) for _ in range(3)]
            complements = [
                tuple(x for i in range(n) if i not in key[::2] for x in (i, 1))
                for u in us
                for key in u.terms
            ]
            vs = [
                _random_element(rng, model, n - degree, rng.sample(complements, 2))
                for _ in range(3)
            ]
            matrix = [[(u * v).coefficient(top) for v in vs] for u in us]
            got = _pairing_rank([_bit_map(u) for u in us], [_bit_map(v) for v in vs], n)
            assert got == rank_naive(matrix), (alg, us, vs)
            pairings += got > 0
    assert seen == {int, Fraction}, seen
    assert products >= 700 and powers >= 80 and pairings >= 350, (products, powers, pairings)


def test_certificates_agree_with_product_chain_oracle(catalog_models, corpus, dim8_pairs):
    """find_symplectic against its own last resort, the product chain.

    On the catalog, the corpus and both bases of the dim-8 pairs, wherever
    the dimension is even and Z^2 != 0: status and dim Z^2 agree; every common-kernel "none" is a chain
    "none", and its X is the first vector of the dense kernel of the stacked
    skew matrices of the Z^2 basis; every matching form is certified, and
    the chain finds a form there too.
    """
    models = [*catalog_models.values(), *corpus]
    models += [ce_model(s) for pair in dim8_pairs for s in pair]
    by = {"kernel": 0, "matching": 0, "chain": 0}
    for model in models:
        res = find_symplectic(model)
        omegas = closed_two_form_basis(model)
        if model.n % 2 or not omegas:
            continue
        chain = _chain_search(model, omegas)
        assert (res.status, res.closed_dim) == (chain.status, chain.closed_dim), model.spec
        x = _common_kernel_vector(omegas, model.n)
        rows = [row for omega in omegas for row in skew_matrix(omega, model.n)]
        dense = nullspace_naive(rows, model.n)
        assert x == (tuple(dense[0]) if dense else None), model.spec
        if x is not None:
            assert not res.found and "common kernel" in res.reason, model.spec
            by["kernel"] += 1
        elif "perfect matching" in res.reason:
            assert res.found and is_symplectic(model, res.form.omega).symplectic, model.spec
            assert all(c == 1 for c in res.form.omega.terms.values()), model.spec
            by["matching"] += 1
        else:
            assert res == chain, model.spec
            by["chain"] += 1
    assert by["kernel"] >= 10 and by["matching"] >= 10 and by["chain"] >= 5, by


def test_hard_lefschetz_matches_dense_oracle(
    catalog_models, symplectic_forms, corpus, searches, dim8_pairs
):
    """Every hard Lefschetz rank equals the dense oracle's, k = 0 included.

    Forms: every catalog symplectic form, and the forms found on the
    corpus and on the dim-8 algebras. The oracle ranks omega^k Z^p modulo
    B^q by dense elimination, with no class basis.
    """
    cases = [(catalog_models[name], sf) for name, sf in symplectic_forms.items()]
    cases += [(model, res.form) for model, res in zip(corpus, searches) if res.found]
    for spec, _ in dim8_pairs:
        model = ce_model(spec)
        res = find_symplectic(model)
        if res.found:
            cases.append((model, res.form))
    dims = [model.n for model, _ in cases]
    defects = 0
    for model, sf in cases:
        entries = hard_lefschetz(model, sf)
        want = lefschetz_ranks_naive(model.dga, sf.omega, model.n // 2)
        assert [e.rank for e in entries] == want, (model.algebra, sf)
        defects += sum(e.rank < e.source_betti for e in entries)
    assert 8 in dims and 6 in dims and len(cases) >= 15, dims
    assert defects >= 10  # most of these forms fail hard Lefschetz somewhere


def test_hard_lefschetz_depends_only_on_the_class(
    catalog_models, symplectic_forms, corpus, searches, dim8_pairs
):
    """hard_lefschetz(t omega + d beta) = hard_lefschetz(omega), with no oracle.

    Cup with [omega]^k depends only on the class [omega] up to a nonzero
    scale, so t = 3/2 and seeded 1-forms beta leave the table unchanged
    wherever t omega + d beta is still symplectic (only certified forms are
    kept). The forms are the catalog's, those found on the corpus and those
    found on the sheared dim-8 algebras: non-unit coefficients and, through
    d beta, forms denser than the matching or grid forms.
    """
    rng = random.Random(1988)
    cases = [(catalog_models[name], sf) for name, sf in symplectic_forms.items()]
    cases += [(model, res.form) for model, res in zip(corpus, searches) if res.found]
    for _, other in dim8_pairs:
        model = ce_model(other)
        res = find_symplectic(model)
        if res.found:
            cases.append((model, res.form))
    kept = denser = 0
    for model, sf in cases:
        table = hard_lefschetz(model, sf)
        betas = [model.algebra.zero()]
        betas += [
            model.algebra.element({(i, 1): rng.randint(-3, 3) for i in range(model.n)})
            for _ in range(3)
        ]
        for beta in betas:
            omega = sf.omega.scale(F(3, 2)) + model.d(beta)
            if not is_symplectic(model, omega).symplectic:
                continue
            got = hard_lefschetz(model, SymplecticForm(model, omega))
            assert got == table, (model.spec, sf, beta)
            kept += 1
            denser += len(omega.terms) > len(sf.omega.terms)
    assert {model.n for model, _ in cases} >= {4, 6, 8}, [model.n for model, _ in cases]
    assert kept >= 100 and denser >= 60, (kept, denser)


def _assert_exact(values, where, integral_as_int=False):
    """Each value is exactly an int or a Fraction: never a float or a bool.

    With integral_as_int, an integral value must be an int: what exterior.exact
    makes of every coefficient it admits.
    """
    for c in values:
        assert type(c) is int or type(c) is Fraction, (where, c, type(c))
        if integral_as_int:
            assert type(c) is int or c.denominator > 1, (where, c)


def test_coefficients_are_exact_ints_or_fractions(catalog_models, corpus, dim8_pairs):
    """Every coefficient the engine hands out is an int or a Fraction.

    Checked on the catalog, the corpus and the sheared dim-8 algebras: the d
    of every monomial, every cocycle and representative, the kernel witness
    of a degenerate closed form and the basis alphas it leaves to the
    forcing system. The constants
    are integers, so d divides nowhere and all of its coefficients are ints;
    the sheared bases meet pivots other than +-1, so Fractions appear too.
    """
    models = [*catalog_models.values(), *corpus, *(ce_model(other) for _, other in dim8_pairs)]
    seen = set()
    for model in models:
        where = model.algebra
        for row in model.spec.bracket_table().values():
            _assert_exact(row.values(), (where, "bracket"), integral_as_int=True)
        coh = Cohomology(model.dga)
        for k in range(model.n + 1):
            for image in coh.slice(k).images:
                _assert_exact(image.values(), (where, "d", k), integral_as_int=True)
            basis = coh.basis(k)
            for z in basis.representatives:
                _assert_exact(z.terms.values(), (where, "representative", k))
            for z in coh.cocycles(k):
                _assert_exact(z.terms.values(), (where, "cocycle", k))
                seen.update(type(c) for c in z.terms.values())
        omegas = closed_two_form_basis(model)
        if not omegas:
            continue
        cert = is_symplectic(model, omegas[0])
        _assert_exact(cert.kernel_witness or (), (where, "kernel_witness"))
        sf = SymplecticForm(model, omegas[0])
        for alpha in forcing_check(model, sf, formal_even_base(2)).basis_alphas:
            _assert_exact((c for row in alpha for c in row), (where, "alpha"))
    assert seen == {int, Fraction}


def test_cohomology_invariants(corpus, dim8_pairs):
    """b0 = 1, Poincare duality, chi = 0, b1 = n - dim[g, g] and d o d = 0 on
    the image of every slice, read through each model's shared analyzer.

    coh.duality is the certificate the analyzer mirrors under; duality
    itself is observed on the naive dense oracle, which eliminates every
    degree: its Betti vector equals the analyzer's and is symmetric. Betti
    oracles on catalog-size algebras cannot see a wrong Koszul sign in d;
    d o d on the sheared dim-8 slices does.
    """
    for model in [*corpus, *(ce_model(other) for _, other in dim8_pairs)]:
        n = model.n
        coh = model.cohomology
        betti = coh.betti_vector(n)
        assert betti[0] == 1
        assert coh.duality == n
        oracle = betti_vector_naive(model.dga, n)
        assert betti == oracle, model.spec
        assert oracle == oracle[::-1], model.spec
        assert coh.euler_characteristic(n) == 0
        assert betti[1] == n - model.report.derived_dim
        for k in range(n + 1):
            for image in coh.slice(k).images:
                assert model.d(Element(model.algebra, image)).is_zero(), (model.spec, k)


def test_rank_of_d_is_symmetric_about_the_middle(catalog_models, corpus, dim8_pairs):
    """rank d_k = rank d_{n-1-k}, each slice eliminated directly, not through
    Cohomology.rank: the identity the analyzer's mirror reads the upper half by."""
    models = [*catalog_models.values(), *corpus]
    models += [ce_model(s) for pair in dim8_pairs for s in pair]
    moved = 0
    for model in models:
        ranks = []
        for k in range(model.n):
            echelon = linalg.Echelon()
            for image in DegreeSlice(model.dga, k).images:
                echelon.add(image)
            ranks.append(len(echelon.kept))
        assert ranks == ranks[::-1], (model.spec, ranks)
        moved += len(set(ranks)) > 2
    assert moved >= 20, moved  # most rank sequences are not just 0, r, ..., r, 0


def test_forcing_matches_unit_alpha_oracle(catalog_models, symplectic_forms, corpus, searches):
    """Contraction-assembled forcing equals the dense unit-alpha system's kernel.

    Each algebra is tried with its certified form, where it has one, and
    with the first closed 2-form of the oracle's basis, which is mostly
    degenerate and so leaves twists; flat_alpha_space is the same system
    without the omega rows.
    """
    cases = [(m, symplectic_forms.get(name)) for name, m in catalog_models.items()]
    cases += [(m, res.form if res.found else None) for m, res in zip(corpus, searches)]
    bases = (sphere_base(), formal_even_base(2), formal_even_base(3))
    positive = 0
    for model, certified in cases:
        closed = closed_two_forms_naive(model.dga)[0]
        forms = [SymplecticForm.from_coeffs(model, [(i + 1, j + 1, c) for i, j, c in closed])]
        forms += [certified] if certified is not None else []
        for base in bases:
            assert flat_alpha_space(model, base) == alphas_by_unit_alpha(model, base, None)
            for sf in forms:
                report = forcing_check(model, sf, base)
                oracle = alphas_by_unit_alpha(model, base, sf.omega)
                assert list(report.basis_alphas) == oracle, (model.algebra, base.kind, sf)
                assert report.witnesses_verified
                positive += bool(oracle)
    assert positive >= 100  # the comparison is not only between empty kernels


def test_certificate_matches_dense_kernel_oracle(catalog_models):
    """Rank and kernel witness equal the dense Gauss-Jordan kernel of A.

    K = nullspace_naive(A, n) for the skew matrix A of a random 2-form; the
    rank is n - len(K) and the witness is K[0], on the catalog and on
    random algebras of dim 6-8, for degenerate and nondegenerate forms.
    """
    rng = random.Random(8081)
    models = list(catalog_models.values())
    specs = random_nilpotent_specs(seed=8081, count=12, dims=(6, 7, 8))
    models += [ce_model(spec) for spec in specs]
    seen = {True: 0, False: 0}
    for model in models:
        n = model.n
        for _ in range(15):
            density = rng.choice([0.2, 0.5, 0.9])
            coeffs = [
                (i, j, F(rng.randint(-3, 3)))
                for i in range(1, n + 1)
                for j in range(i + 1, n + 1)
                if rng.random() < density
            ]
            omega = SymplecticForm.from_coeffs(model, coeffs).omega
            cert = is_symplectic(model, omega)
            K = nullspace_naive(skew_matrix(omega, n), n)
            assert cert.rank == n - len(K), (model.algebra, omega)
            witness = tuple(K[0]) if K else None
            assert cert.kernel_witness == witness, (model.algebra, omega)
            seen[cert.nondegenerate] += 1
    assert seen[True] >= 50 and seen[False] >= 50, seen


def _random_admissible_twist(rng, model):
    """A nonzero seeded integer combination of the flat S2 twists."""
    flats = flat_alpha_space(model, sphere_base())
    while True:
        weights = [rng.randint(-2, 2) for _ in flats]
        alpha = [[sum(w * f[k][0] for w, f in zip(weights, flats))] for k in range(model.n)]
        if any(row[0] for row in alpha):
            return alpha


def _filiform(n: int) -> LieAlgebraSpec:
    """L_n: [X_1, X_i] = X_{i+1} for 2 <= i < n."""
    return LieAlgebraSpec(dim=n, brackets=tuple((1, i, i + 1, F(1)) for i in range(2, n)))


H3_H3_R2 = LieAlgebraSpec(dim=8, brackets=((1, 2, 3, F(1)), (4, 5, 6, F(1))))


@pytest.mark.parametrize("fibers", ["corpus", "dim8"])
def test_wang_total_betti_matches_total_model_oracle(fibers, corpus):
    """Over S2 with alpha != 0 the Wang sequence gives the total model's Betti numbers."""
    rng = random.Random(1949)
    models = corpus if fibers == "corpus" else [ce_model(_filiform(8)), ce_model(H3_H3_R2)]
    moved = 0
    for model in models:
        cap = model.n + 2
        alpha = _random_admissible_twist(rng, model)
        tm = build_twisted(model, sphere_base(), alpha)
        got = list(csplit_compare(tm, cap).total)
        assert got == betti_vector_naive(tm.total, cap), (model.algebra, alpha)
        moved += tuple(got) != csplit_compare(tm, cap).expected
        low = rng.randint(0, cap - 1)  # a --max-degree below the top
        assert list(csplit_compare(tm, low).total) == got[: low + 1], (model.algebra, alpha, low)
    # theta_* != 0 on these twists, so the ranks r_k enter the formula
    assert moved >= len(models) // 2


def test_invariants_at_dims_9_and_10():
    """Past the dense oracles' reach, invariants that need no oracle.

    On seeded algebras of dims 9-10: b0 = 1, chi = 0 and b1 = n - dim[g, g];
    every form found forces alpha = 0 over S2 and over formal:2; and under a
    random admissible S2 twist the total space is a closed orientable
    (n+2)-manifold, so its Betti vector at cap n + 2 is palindromic with
    chi = 0.
    """
    rng = random.Random(910)
    specs = random_nilpotent_specs(seed=910, count=12, dims=(9, 10, 10))
    models = [ce_model(spec) for spec in specs]
    found = moved = 0
    for model in models:
        n, coh = model.n, model.cohomology
        betti = coh.betti_vector(n)
        assert betti[0] == 1 and coh.euler_characteristic(n) == 0, model.spec
        assert betti[1] == n - model.report.derived_dim, model.spec
        res = find_symplectic(model)
        if res.found:
            found += 1
            for base in (sphere_base(), formal_even_base(2)):
                report = forcing_check(model, res.form, base)
                assert report.forced_zero and report.solution_dimension == 0, (model.spec, base)
        alpha = _random_admissible_twist(rng, model)
        verdict = csplit_compare(build_twisted(model, sphere_base(), alpha), n + 2)
        total = list(verdict.total)
        assert total == total[::-1], (model.spec, alpha)
        assert sum((-1) ** k * b for k, b in enumerate(total)) == 0, (model.spec, alpha)
        moved += verdict.total != verdict.expected
    assert {m.n for m in models} == {9, 10} and found >= 3, found
    assert moved == len(models), moved  # every twist really changes the vector
