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

import pytest
from oracles import (
    alphas_by_unit_alpha,
    betti_vector_naive,
    closed_two_forms_naive,
    symplectic_by_lattice,
)

from nilsplit.bundles import (
    TwistedModel,
    csplit_compare,
    flat_alpha_space,
    forcing_check,
    formal_even_base,
    sphere_base,
    total_betti,
)
from nilsplit.cohomology import Cohomology, poincare_check
from nilsplit.lie_algebras import LieAlgebraSpec, ce_model, validate
from nilsplit.symplectic import SymplecticForm, find_symplectic

F = Fraction


def random_nilpotent_specs(seed: int, count: int) -> list[LieAlgebraSpec]:
    """`count` valid nilpotent algebras of dim 4-6 drawn from the seed."""
    rng = random.Random(seed)
    specs = []
    while len(specs) < count:
        n = rng.choice((4, 5, 6, 6))  # dim 6 twice: its verdicts vary most
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


def test_cohomology_invariants(corpus):
    """b0 = 1, Poincare duality, chi = 0 and b1 = n - dim[g, g]."""
    for model in corpus:
        n = model.n
        coh = Cohomology(model.dga)
        betti = coh.betti_vector(n)
        assert betti[0] == 1
        assert poincare_check(coh, n)
        assert coh.euler_characteristic(n) == 0
        assert betti[1] == n - model.report.derived_dim


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
        tm = TwistedModel(sphere_base(), model, alpha, check=True)
        got = total_betti(tm, cap)
        assert got == betti_vector_naive(tm.total, cap), (model.algebra, alpha)
        moved += tuple(got) != csplit_compare(tm, cap).expected
        low = rng.randint(0, cap - 1)  # a --max-degree below the top
        assert total_betti(tm, low) == got[: low + 1], (model.algebra, alpha, low)
    # theta_* != 0 on these twists, so the ranks r_k enter the formula
    assert moved >= len(models) // 2
