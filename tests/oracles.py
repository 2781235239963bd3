"""Independent oracles for differential testing of the production paths.

The production Betti pipeline eliminates the sparse images of the
differential in one incremental echelon (nilsplit.linalg.Echelon). The
oracle here deliberately takes the other road: dense textbook Gaussian
elimination over Fraction with naive first-nonzero pivoting, plus its own
dense matrix assembly: its own basis enumeration and its own d of a
monomial by the block-by-block product formula, reading nothing of the
production derivation but its generator images. Anything the two roads
disagree on is a bug.

Also here: a dense validation of structure constants (Jacobi on every
basis triple, lower central series by naive ranks), a brute-force Koszul
sign (explicit word sorting), maps between models by literal substitution
of generator images (Element products, no index relabelling), a grid
enumerator for admissible twisting matrices, the forcing system assembled
by evaluating the total-model derivation at every unit twisting matrix (no
contraction formula), and a symplectic decision by the principal lattice:
closed 2-forms from a dense naive kernel, tested for nondegeneracy by
naive rank at every lattice point, and the W_j product chain of the
symplectic decision formed by Element products, with independence decided
by its own elimination. The
interior product of a 2-form is here as the literal formula
sum a_ij (alpha_i x_j - alpha_j x_i), next to the dense skew matrix
(a_ij); neither goes through exterior.contract. The rank of a set of
classes is here as the rank of a dense stack of coboundaries and the
cocycles, less that of the coboundaries, with no class basis; the hard
Lefschetz ranks are that rank for omega^k times a naive cocycle basis.
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


def monomials_naive(algebra, k: int) -> list[tuple]:
    """Degree-k monomial keys, by filtering every exponent vector.

    Odd generators take exponent 0 or 1, even ones 0..k // degree; the
    keys of the vectors of total degree k are listed in sorted order.
    """
    if k < 0:
        return []
    degrees = algebra.degrees
    ranges = [range(2) if d % 2 else range(k // d + 1) for d in degrees]
    out = []
    for exponents in itertools.product(*ranges):
        if sum(e * d for e, d in zip(exponents, degrees)) == k:
            out.append(tuple(x for i, e in enumerate(exponents) if e for x in (i, e)))
    return sorted(out)


def d_of_monomial_naive(dga: FreeDGA, key) -> Element:
    """d of one monomial by the product formula, block by block.

    For each block g^e: e * left * dg * right, where left is everything
    before the block times g^(e-1) and right everything after it, signed
    by the degree of what precedes the block. Reads only the generator
    images; no Derivation code runs.
    """
    alg = dga.algebra
    result = alg.zero()
    prefix_degree = 0
    for p in range(0, len(key), 2):
        i, e = key[p], key[p + 1]
        img = dga.d.image_of_generator(alg.generators[i].name)
        left = key[:p] + ((i, e - 1) if e > 1 else ())
        right = key[p + 2 :]
        term = Element(alg, {left: ONE}) * img * Element(alg, {right: ONE})
        sign = -e if prefix_degree % 2 else e
        result = result + term.scale(sign)
        prefix_degree += alg.degrees[i] * e
    return result


def differential_matrix(dga: FreeDGA, k: int):
    """Matrix of d: C^k -> C^{k+1}, from the naive basis and product formula."""
    src = monomials_naive(dga.algebra, k)
    dst = monomials_naive(dga.algebra, k + 1)
    index = {key: r for r, key in enumerate(dst)}
    rows = [[ZERO] * len(src) for _ in dst]
    for c, key in enumerate(src):
        for mon, coeff in d_of_monomial_naive(dga, key).terms.items():
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


def substitute(u: Element, images: dict) -> Element:
    """The algebra map with generator images images[name], factor by factor.

    Each monomial becomes the Element product of the images of its factors,
    left to right, so every Koszul sign comes from Element.__mul__; no
    generator index of the target is computed.
    """
    target = next(iter(images.values())).algebra
    result = target.zero()
    for key, c in u.terms.items():
        term = target.one()
        for p in range(0, len(key), 2):
            img = images[u.algebra.generators[key[p]].name]
            for _ in range(key[p + 1]):
                term = term * img
        result = result + term.scale(c)
    return result


def include_by_name(u: Element, target) -> Element:
    """u in a larger algebra that has each of u's generators under its name."""
    return substitute(u, {g.name: target.gen(g.name) for g in u.algebra.generators})


def admissible_alphas_by_grid(fiber, base: BaseModel, omega_fiber: Element, values):
    """All alpha matrices over the value grid with D^2 = 0 and D(omega) = 0.

    Direct evaluation, no linear algebra: builds each model unchecked and
    applies the actual derivation twice, to omega included by name.
    """
    n, m = fiber.n, base.m
    hits = []
    for flat in itertools.product(values, repeat=n * m):
        alpha = tuple(
            tuple(Fraction(flat[k * m + j]) for j in range(m)) for k in range(n)
        )
        tm = TwistedModel(base, fiber, alpha)
        if tm.total.flatness_witness() is not None:
            continue
        if not tm.total.d(include_by_name(omega_fiber, tm.total.algebra)).is_zero():
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
    probe = TwistedModel(base, fiber, unit_alpha(n, m, 0, 0))
    basis3 = probe.total.algebra.monomials_of_degree(3)
    index3 = {key: r for r, key in enumerate(basis3)}
    gen_names = [g.name for g in fiber.algebra.generators]
    block = len(basis3)
    total_rows = block * (len(gen_names) + (1 if omega is not None else 0))

    columns = []
    for k0 in range(n):
        for j0 in range(m):
            tm = TwistedModel(base, fiber, unit_alpha(n, m, k0, j0))
            col = [ZERO] * total_rows
            for g_i, name in enumerate(gen_names):
                dd = tm.total.d(tm.total.d.image_of_generator(name))
                for key, c in dd.terms.items():
                    col[g_i * block + index3[key]] = c
            if omega is not None:
                d_omega = tm.total.d(include_by_name(omega, tm.total.algebra))
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


def skew_matrix(omega: Element, n: int) -> list[list[Fraction]]:
    """The dense antisymmetric matrix A = (a_ij) of omega = sum a_ij x_i x_j."""
    A = [[ZERO] * n for _ in range(n)]
    for key, c in omega.terms.items():
        i, j = key[0], key[2]
        A[i][j] = c
        A[j][i] = -c
    return A


def contraction_literal(omega: Element, alpha) -> Element:
    """iota_X omega for x_k(X) = alpha_k, expanded term by term.

    sum a_ij (alpha_i x_j - alpha_j x_i); as a coordinate vector this is
    A^T alpha for the skew matrix A of omega.
    """
    alg = omega.algebra
    alpha = [Fraction(a) for a in alpha]
    assert len(alpha) == len(alg.generators)
    coords = [ZERO] * len(alpha)
    for key, c in omega.terms.items():
        i, j = key[0], key[2]
        coords[j] += c * alpha[i]
        coords[i] -= c * alpha[j]
    return Element(alg, {(k, 1): c for k, c in enumerate(coords) if c})


def closed_two_forms_naive(dga: FreeDGA) -> list[list[tuple[int, int, Fraction]]]:
    """A basis of Z^2, the kernel of the naive d on C^2, as (i, j, a_ij) lists.

    CE generators have degree 1, so each degree-2 key is x_i x_j with i < j.
    """
    rows, ncols = differential_matrix(dga, 2)
    keys = monomials_naive(dga.algebra, 2)
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


def product_chain_naive(omegas: list[Element], half: int) -> list[list[tuple[int, ...]]]:
    """Labels of the kept products of W_1, ..., W_half, by Element products.

    W_0 = span(1), and level j tries omega_i * w for each kept w of level
    j - 1 and each basis form in turn, keeping a product when it is
    independent of the ones kept before it at that level. A label lists the
    basis index taken at each level. Every product goes through
    Element.__mul__, the top level included, and independence is decided by
    reducing against the kept products in the order they were kept, with
    the smallest monomial key as pivot (no nilsplit.linalg). The list ends
    after the first empty level.
    """
    labels = []
    level = [((), omegas[0].algebra.one())]
    for _ in range(half):
        rows: list[tuple[tuple, dict]] = []  # (pivot key, row with 1 at its pivot)
        kept = []
        for label, w in level:
            for i, omega in enumerate(omegas):
                p = omega * w
                v = dict(p.terms)
                for pivot, row in rows:
                    f = v.get(pivot)
                    if f:
                        for key, x in row.items():
                            v[key] = v.get(key, ZERO) - f * x
                        v = {key: x for key, x in v.items() if x}
                if v:
                    pivot = min(v)
                    rows.append((pivot, {key: x / v[pivot] for key, x in v.items()}))
                    kept.append((label + (i,), p))
        labels.append([label for label, _ in kept])
        if not kept:
            break
        level = kept
    return labels


def class_rank_naive(dga: FreeDGA, k: int, cocycles: list[Element]) -> int:
    """Rank of the classes of degree-k cocycles, densely.

    With B the image of d on C^{k-1} and Z the cocycles as dense rows over
    the naive degree-k basis, the rank is rank_naive([B ; Z]) - rank_naive(B).
    Matrices come from differential_matrix and the naive enumeration; no
    class basis, echelon or nilsplit.linalg is read.
    """
    index = {key: r for r, key in enumerate(monomials_naive(dga.algebra, k))}
    d_in, _ = differential_matrix(dga, k - 1)
    boundaries = [list(col) for col in zip(*d_in)]
    rows = []
    for z in cocycles:
        row = [ZERO] * len(index)
        for key, c in z.terms.items():
            row[index[key]] = c
        rows.append(row)
    return rank_naive(boundaries + rows) - rank_naive(boundaries)


def lefschetz_ranks_naive(dga: FreeDGA, omega: Element, half: int) -> list[int]:
    """Rank of [omega]^k : H^{half-k} -> H^{half+k} for k = 0..half, densely.

    With Z^p from nullspace_naive of d on C^p, the rank is the class rank
    of omega^k Z^p in degree half + k by class_rank_naive. No class basis,
    echelon or nilsplit.linalg is read.
    """
    alg = dga.algebra
    ranks = []
    for k in range(half + 1):
        p = half - k
        d_p, dim_p = differential_matrix(dga, p)
        source = monomials_naive(alg, p)
        cocycles = [
            Element(alg, {key: c for key, c in zip(source, v) if c})
            for v in nullspace_naive(d_p, dim_p)
        ]
        omega_k = alg.one()
        for _ in range(k):
            omega_k = omega_k * omega
        ranks.append(class_rank_naive(dga, half + k, [omega_k * z for z in cocycles]))
    return ranks
