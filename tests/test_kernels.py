"""The Koszul merge and the exact echelon engine against brute-force references."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from nilsplit import linalg
from nilsplit.exterior import merge_monomials
from oracles import koszul_sign_by_sorting, rank_naive

matrices = st.lists(
    st.lists(st.integers(-9, 9), min_size=1, max_size=6),
    min_size=1,
    max_size=6,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


def _random_key(rng, ngens, parity):
    key = []
    for i in range(ngens):
        if rng.random() < 0.45:
            e = 1 if parity[i] else rng.randint(1, 3)
            key.extend([i, e])
    return tuple(key)


def test_merge_matches_sorting_oracle():
    rng = random.Random(99)
    parity = bytes([1, 1, 0, 1, 0, 0, 1, 0])
    for _ in range(2000):
        a = _random_key(rng, 8, parity)
        b = _random_key(rng, 8, parity)
        assert merge_monomials(a, b, parity) == koszul_sign_by_sorting(a, b, parity)


def test_merge_empty_keys():
    parity = bytes([1, 0])
    assert merge_monomials((), (0, 1), parity) == (1, (0, 1))
    assert merge_monomials((1, 2), (), parity) == (1, (1, 2))
    assert merge_monomials((), (), parity) == (1, ())


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_rank_matches_naive(rows):
    assert linalg.rank([list(r) for r in rows]) == rank_naive(rows)


def test_rank_deficient_and_structured():
    cases = [
        [[0, 0], [0, 0]],
        [[1, 2, 3], [2, 4, 6], [1, 1, 1]],
        [[2, 0], [0, 3], [2, 3]],
        [[5]],
        [[0, 1], [1, 0]],
    ]
    for rows in cases:
        assert linalg.rank([list(r) for r in rows]) == rank_naive(rows)


def test_rank_large_entries_stay_exact():
    # Hilbert-like integer matrix whose minors overflow 64-bit words
    n = 8
    rows = [[10 ** (i + j) + i + 2 * j for j in range(n)] for i in range(n)]
    assert linalg.rank(rows) == rank_naive(rows)


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_nullspace_is_the_reduced_echelon_kernel(rows):
    rows = [[Fraction(x) for x in r] for r in rows]
    ncols = len(rows[0])
    # column j is free when it lies in the span of the columns before it
    free = [
        j
        for j in range(ncols)
        if rank_naive([r[: j + 1] for r in rows]) == rank_naive([r[:j] for r in rows])
    ]
    columns = [{i: r[j] for i, r in enumerate(rows) if r[j]} for j in range(ncols)]
    _, sparse = linalg.kernel(columns)
    kernel = [[v.get(j, 0) for j in range(ncols)] for v in sparse]
    assert len(kernel) == ncols - rank_naive(rows) == len(free)
    for v, f in zip(kernel, free):
        assert all(sum(a * b for a, b in zip(r, v)) == 0 for r in rows)
        assert [v[g] for g in free] == [int(g == f) for g in free]


def test_echelon_add_reports_span_growth_and_residual_recovers_combinations():
    """add() says whether a vector was kept; residual() still writes the rest."""
    rng = random.Random(808)
    for _ in range(100):
        echelon = linalg.Echelon()
        vectors = [
            {i: Fraction(rng.randint(-3, 3)) for i in range(5) if rng.random() < 0.5}
            for _ in range(7)
        ]
        vectors = [{i: x for i, x in v.items() if x} for v in vectors]
        kept = []
        for v in vectors:
            rows = [[u.get(i, 0) for i in range(5)] for u in kept + [v]]
            grows = rank_naive(rows) > len(kept)
            assert echelon.add(v) is grows
            if grows:
                kept.append(v)
        assert echelon.kept == kept
        for v in vectors:
            rest, combination = echelon.residual(v)
            assert not rest
            total = {}
            for q, c in combination.items():
                for i, x in echelon.kept[q].items():
                    total[i] = total.get(i, 0) + c * x
            assert {i: x for i, x in total.items() if x} == v
