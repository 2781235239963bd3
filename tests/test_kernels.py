"""The Koszul merge and the exact echelon engine against brute-force references."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from nilsplit import linalg
from nilsplit.exterior import merge_monomials
from oracles import koszul_sign_by_sorting, nullspace_naive, rank_naive

matrices = st.lists(
    st.lists(st.integers(-9, 9), min_size=1, max_size=6),
    min_size=1,
    max_size=6,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


def echelon_rank(rows):
    """Rank of a dense matrix: the number of its rows an Echelon keeps."""
    echelon = linalg.Echelon()
    for row in rows:
        echelon.add({i: Fraction(x) for i, x in enumerate(row) if x})
    return echelon.rank


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
    assert echelon_rank(rows) == rank_naive(rows)


def test_rank_deficient_and_structured():
    cases = [
        [[0, 0], [0, 0]],
        [[1, 2, 3], [2, 4, 6], [1, 1, 1]],
        [[2, 0], [0, 3], [2, 3]],
        [[5]],
        [[0, 1], [1, 0]],
    ]
    for rows in cases:
        assert echelon_rank(rows) == rank_naive(rows)


def test_rank_large_entries_stay_exact():
    # Hilbert-like integer matrix whose minors overflow 64-bit words
    n = 8
    rows = [[10 ** (i + j) + i + 2 * j for j in range(n)] for i in range(n)]
    assert echelon_rank(rows) == rank_naive(rows)


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
    sparse = linalg.kernel(columns)
    kernel = [[v.get(j, 0) for j in range(ncols)] for v in sparse]
    assert len(kernel) == ncols - rank_naive(rows) == len(free)
    for v, f in zip(kernel, free):
        assert all(sum(a * b for a, b in zip(r, v)) == 0 for r in rows)
        assert [v[g] for g in free] == [int(g == f) for g in free]


def test_echelon_add_reports_span_growth_and_kernel_matches_nullspace():
    """add() says whether a vector was kept; kernel() of the same vectors as
    columns writes each dependent one over the kept ones before it."""
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
        assert echelon.rank == len(kept)
        kernel = linalg.kernel(vectors)
        rows = [[v.get(i, 0) for v in vectors] for i in range(5)]
        dense = [[u.get(j, 0) for j in range(len(vectors))] for u in kernel]
        assert dense == nullspace_naive(rows, len(vectors))


def _columns_with_non_unit_leads(rng, nrows, ncols):
    """Dense integer columns, entries in -3..3, each led by one of +-2, +-3.

    The leading rows are seeded, so columns share them and later columns
    are eliminated against earlier ones before their own pivot is found.
    """
    columns = []
    for _ in range(ncols):
        lead = rng.randrange(nrows)
        tail = [rng.randint(-3, 3) for _ in range(nrows - lead - 1)]
        columns.append([0] * lead + [rng.choice((-3, -2, 2, 3))] + tail)
    return columns


def _is_exact(c):
    return type(c) is int or type(c) is Fraction  # never a float or a bool


def test_non_unit_pivots_give_the_same_exact_kernel_from_ints_and_fractions():
    """Pivots +-2 and +-3 divide: the kernel and its kept columns, alone and
    widened by a random column, are exact and the same whether the columns
    come as ints or as Fractions, and they match the dense oracles."""
    rng = random.Random(1968)
    fractional = 0
    for _ in range(80):
        nrows = rng.randint(2, 6)
        ncols = rng.randint(nrows, nrows + 3)
        dense = _columns_with_non_unit_leads(rng, nrows, ncols)
        rows = [[col[i] for col in dense] for i in range(nrows)]
        as_ints = [{i: x for i, x in enumerate(col) if x} for col in dense]
        as_fractions = [{i: Fraction(x) for i, x in col.items()} for col in as_ints]
        results = []
        for columns in (as_ints, as_fractions):
            kernel = linalg.kernel(columns)
            # a kernel vector's free column is its largest index; the rest pivot
            free = {max(v) for v in kernel}
            kept = [j for j in range(ncols) if j not in free]
            assert all(_is_exact(x) for v in kernel for x in v.values())
            assert len(kept) == rank_naive(rows)
            dense_kernel = [[v.get(j, 0) for j in range(ncols)] for v in kernel]
            assert dense_kernel == nullspace_naive(rows, ncols)
            results.append((kept, kernel))
            for _ in range(3):
                vector = {i: x for i in range(nrows) if (x := rng.randint(-3, 3))}
                wider = linalg.kernel([*columns, vector])
                assert all(_is_exact(x) for v in wider for x in v.values())
                widened = [row + [vector.get(i, 0)] for i, row in enumerate(rows)]
                dense_wider = [[v.get(j, 0) for j in range(ncols + 1)] for v in wider]
                assert dense_wider == nullspace_naive(widened, ncols + 1)
        assert results[0] == results[1]
        fractional += any(type(x) is Fraction for v in results[0][1] for x in v.values())
    assert fractional >= 20, fractional  # the divisions really leave Fractions
