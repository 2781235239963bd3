"""Independent oracles for differential testing of the production paths.

The production Betti pipeline eliminates the sparse images of the
differential in one incremental echelon (nilsplit.linalg.Echelon). The
oracle here deliberately takes the other road: dense textbook Gaussian
elimination over Fraction with naive first-nonzero pivoting, plus its own
dense matrix assembly from the differential. Anything the two roads
disagree on is a bug.

Also here: a dense validation of structure constants (Jacobi on every
basis triple, lower central series by naive ranks), a brute-force Koszul
sign (explicit word sorting), a grid enumerator for admissible twisting
matrices, the forcing system assembled by evaluating the total-model
derivation at every unit twisting matrix (no contraction formula), and a
symplectic decision by the principal lattice: closed 2-forms from a dense
naive kernel, tested for nondegeneracy by naive rank at every lattice
point.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from nilsplit.bundles import BaseModel, TwistedModel
from nilsplit.exterior import Element, FreeDGA

ZERO = Fraction(0)
ONE = Fraction(1)


def rank_naive(rows: list[list[Fraction]]) -> int:
    """Dense rational Gaussian elimination, naive pivoting."""
    work = [[Fraction(x) for x in row] for row in rows]
    m = len(work)
    if m == 0:
        return 0
    n = len(work[0])
    rank = 0
    r = 0
    for c in range(n):
        pivot_row = None
        for i in range(r, m):
            if work[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        piv = work[r][c]
        for i in range(r + 1, m):
            if work[i][c] != 0:
                f = work[i][c] / piv
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        rank += 1
        r += 1
        if r == m:
            break
    return rank


def validate_naive(spec) -> dict:
    """Jacobi failures and lower central series from spec.brackets, densely.

    The structure constants become a full antisymmetric n x n x n array and
    every bracket is the dense bilinear sum over it. Jacobi is evaluated on
    every triple i < j < k; the lower central series g^1 = g,
    g^{m+1} = [g, g^m] is spanned greedily by naive rank, and its
    dimensions are listed until they reach 0 or stop falling.
    """
    n = spec.dim
    table = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for i, j, k, c in spec.brackets:
        table[i - 1][j - 1][k - 1] += c
        table[j - 1][i - 1][k - 1] -= c

    def bracket(u, v):
        out = [ZERO] * n
        for a in range(n):
            for b in range(n):
                if u[a] and v[b]:
                    f = u[a] * v[b]
                    out = [x + f * c for x, c in zip(out, table[a][b])]
        return out

    basis = [[ONE if a == b else ZERO for a in range(n)] for b in range(n)]
    failures = []
    for i, j, k in itertools.combinations(range(n), 3):
        x, y, z = basis[i], basis[j], basis[k]
        terms = (
            bracket(bracket(x, y), z),
            bracket(bracket(y, z), x),
            bracket(bracket(z, x), y),
        )
        defect = tuple(sum(column, ZERO) for column in zip(*terms))
        if any(defect):
            failures.append((i + 1, j + 1, k + 1, defect))

    dims = [n]
    current = basis
    while True:
        spanning: list[list[Fraction]] = []
        for x in basis:
            for w in current:
                v = bracket(x, w)
                if rank_naive(spanning + [v]) > len(spanning):
                    spanning.append(v)
        dims.append(len(spanning))
        current = spanning
        if dims[-1] == 0 or dims[-1] == dims[-2]:
            break
    nilpotent = dims[-1] == 0
    return {
        "jacobi_failures": tuple(failures),
        "lower_central_dims": tuple(dims),
        "nilpotency_class": len(dims) - 1 if nilpotent else None,
        "derived_dim": dims[1],
    }


def differential_matrix(dga: FreeDGA, k: int):
    """Matrix of d: C^k -> C^{k+1}, assembled afresh from the derivation."""
    src = dga.algebra.monomials_of_degree(k)
    dst = dga.algebra.monomials_of_degree(k + 1)
    index = {key: r for r, key in enumerate(dst)}
    rows = [[ZERO] * len(src) for _ in dst]
    for c, key in enumerate(src):
        image = dga.d(Element(dga.algebra, {key: ONE}))
        for mon, coeff in image.terms.items():
            rows[index[mon]][c] = coeff
    return rows, len(src)


def betti_naive(dga: FreeDGA, k: int) -> int:
    """dim C^k - rank d_k - rank d_{k-1}, all by the naive path."""
    d_out, dim_k = differential_matrix(dga, k)
    rank_out = rank_naive(d_out)
    if k == 0:
        rank_in = 0
    else:
        d_in, _ = differential_matrix(dga, k - 1)
        rank_in = rank_naive(d_in)
    return dim_k - rank_out - rank_in


def betti_vector_naive(dga: FreeDGA, cap: int) -> list[int]:
    return [betti_naive(dga, k) for k in range(cap + 1)]


def koszul_sign_by_sorting(key_a, key_b, parity):
    """Reference Koszul sign: expand to a word and bubble-sort it.

    Each monomial key becomes the word of its factors (generators repeated
    exponent times); the concatenated word is sorted by adjacent swaps, a
    swap of two odd factors flipping the sign. Equal odd letters mean the
    product is zero. Returns (sign, merged_key) like merge_monomials does.
    """

    def word(key):
        out = []
        for p in range(0, len(key), 2):
            out.extend([key[p]] * key[p + 1])
        return out

    letters = word(key_a) + word(key_b)
    sign = 1
    # bubble sort, counting odd-odd swaps
    for end in range(len(letters) - 1, 0, -1):
        for i in range(end):
            if letters[i] > letters[i + 1]:
                if parity[letters[i]] and parity[letters[i + 1]]:
                    sign = -sign
                letters[i], letters[i + 1] = letters[i + 1], letters[i]
    for i in range(len(letters) - 1):
        if letters[i] == letters[i + 1] and parity[letters[i]]:
            return 0, ()
    merged = []
    for g in letters:
        if merged and merged[-2] == g:
            merged[-1] += 1
        else:
            merged.extend([g, 1])
    return sign, tuple(merged)


def admissible_alphas_by_grid(fiber, base: BaseModel, omega_fiber: Element, values):
    """All alpha matrices over the value grid with D^2 = 0 and D(omega) = 0.

    Direct evaluation, no linear algebra: builds each model unchecked and
    applies the actual derivation twice.
    """
    n, m = fiber.n, base.m
    hits = []
    for flat in itertools.product(values, repeat=n * m):
        alpha = tuple(
            tuple(Fraction(flat[k * m + j]) for j in range(m)) for k in range(n)
        )
        tm = TwistedModel(base, fiber, alpha, check=False)
        if tm.total.flatness_witness() is not None:
            continue
        if not tm.total.d(tm.include_fiber(omega_fiber)).is_zero():
            continue
        hits.append(alpha)
    return hits


def unit_alpha(n: int, m: int, k0: int, j0: int):
    """The n x m twisting matrix with a single 1 at (k0, j0)."""
    return tuple(
        tuple(ONE if (k, j) == (k0, j0) else ZERO for j in range(m)) for k in range(n)
    )


def constraint_columns_by_unit_alpha(fiber, base: BaseModel, omega: Element | None):
    """Dense columns of the forcing system in alpha, by unit-alpha evaluation.

    D^2 on each fiber generator and (when omega is given) D(omega) are
    linear in alpha with zero constant term: the alpha-free parts are
    d^2 = 0 and d(omega) = 0. Evaluating the real total-model derivation at
    each unit matrix therefore assembles the whole system without any
    hand-derived formula. Column k * m + j belongs to alpha_kj; rows are
    blocks of degree-3 monomials of the total algebra, one block per fiber
    generator and one for omega.
    """
    n, m = fiber.n, base.m
    probe = TwistedModel(base, fiber, unit_alpha(n, m, 0, 0), check=False)
    basis3 = probe.total.algebra.monomials_of_degree(3)
    index3 = {key: r for r, key in enumerate(basis3)}
    gen_names = [g.name for g in fiber.algebra.generators]
    block = len(basis3)
    total_rows = block * (len(gen_names) + (1 if omega is not None else 0))

    columns = []
    for k0 in range(n):
        for j0 in range(m):
            tm = TwistedModel(base, fiber, unit_alpha(n, m, k0, j0), check=False)
            col = [ZERO] * total_rows
            for g_i, name in enumerate(gen_names):
                dd = tm.total.d(tm.total.d.image_of_generator(name))
                for key, c in dd.terms.items():
                    col[g_i * block + index3[key]] = c
            if omega is not None:
                d_omega = tm.total.d(tm.include_fiber(omega))
                off = len(gen_names) * block
                for key, c in d_omega.terms.items():
                    col[off + index3[key]] = c
            columns.append(col)
    return columns


def alphas_by_unit_alpha(fiber, base: BaseModel, omega: Element | None):
    """Kernel of the unit-alpha system by dense Gauss-Jordan, as alpha matrices."""
    n, m = fiber.n, base.m
    columns = constraint_columns_by_unit_alpha(fiber, base, omega)
    rows = [list(r) for r in zip(*columns)]
    return [
        tuple(tuple(v[k * m + j] for j in range(m)) for k in range(n))
        for v in nullspace_naive(rows, n * m)
    ]


def nullspace_naive(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Right kernel by dense Gauss-Jordan elimination, one vector per free column."""
    work = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        piv = work[r][c]
        work[r] = [a / piv for a in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [ZERO] * ncols
        v[free] = ONE
        for row, c in zip(work, pivots):
            v[c] = -row[free]
        basis.append(v)
    return basis


def closed_two_forms_naive(dga: FreeDGA) -> list[list[tuple[int, int, Fraction]]]:
    """A basis of Z^2, the kernel of the naive d on C^2, as (i, j, a_ij) lists.

    CE generators have degree 1, so each degree-2 key is x_i x_j with i < j.
    """
    rows, ncols = differential_matrix(dga, 2)
    keys = dga.algebra.monomials_of_degree(2)
    return [
        [(key[0], key[2], c) for key, c in zip(keys, v) if c]
        for v in nullspace_naive(rows, ncols)
    ]


def lattice_points(m: int, total: int):
    """Nonnegative integer m-tuples with coordinate sum <= total."""
    point = [0] * m

    def rec(i: int, left: int):
        if i == m:
            yield tuple(point)
            return
        for v in range(left + 1):
            point[i] = v
            yield from rec(i + 1, left - v)
        point[i] = 0

    yield from rec(0, total)


def symplectic_by_lattice(dga: FreeDGA, n: int):
    """Weights of a nondegenerate closed 2-form, or None when none exists.

    The Pfaffian of sum t_i A_i is a homogeneous polynomial of degree n/2 in
    the weights, and a polynomial of degree <= n/2 that vanishes on the
    principal lattice of that degree vanishes identically, so sweeping the
    lattice with a naive rank test decides. Cost C(m + n/2, n/2) ranks.
    """
    if n % 2:
        return None
    forms = closed_two_forms_naive(dga)
    for point in lattice_points(len(forms), n // 2):
        A = [[ZERO] * n for _ in range(n)]
        for w, form in zip(point, forms):
            for i, j, c in form if w else ():
                A[i][j] += w * c
                A[j][i] -= w * c
        if rank_naive(A) == n:
            return point
    return None
