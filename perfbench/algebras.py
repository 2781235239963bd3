"""Known nilpotent Lie algebras, their pinned invariants, and basis changes.

Everything the benchmark expects of an answer is derived here, without
calling nilsplit: each block carries its Betti vector, the dimension of its
derived subalgebra and its nilpotency class, and a direct sum gets its
Betti vector by the Kunneth convolution. A seeded unimodular integer change
of basis (and a permutation) changes the structure constants and the
sparsity of every matrix downstream but none of these invariants, so the
same expectations hold for every variant.

Pinned values: the Heisenberg algebras follow Santharoubane's formula
b_j = C(2k, j) - C(2k, j - 2) for j <= k; the other vectors were computed
exactly and each satisfies b_0 = 1, Poincare duality, chi = 0 and
b_1 = n - dim[g, g] (checked in perfbench/tests).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

# A block: dim, brackets (i, j, k, c) 1-based with i < j, Betti vector,
# dim [g, g] and nilpotency class (length of the lower central series).


@dataclass(frozen=True)
class Block:
    name: str
    dim: int
    brackets: tuple
    betti: tuple
    derived: int
    nil_class: int


def _heisenberg(k: int) -> Block:
    n = 2 * k + 1
    brackets = tuple((2 * i + 1, 2 * i + 2, n, 1) for i in range(k))
    half = [comb(2 * k, j) - (comb(2 * k, j - 2) if j >= 2 else 0) for j in range(k + 1)]
    return Block(f"h{n}", n, brackets, tuple(half + half[::-1]), 1, 2)


def _filiform(n: int, betti) -> Block:
    brackets = tuple((1, i, i + 1, 1) for i in range(2, n))
    return Block(f"L{n}", n, brackets, tuple(betti), n - 2, n - 1)


def _free2step(m: int, betti) -> Block:
    pairs = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    brackets = tuple((i, j, m + 1 + p, 1) for p, (i, j) in enumerate(pairs))
    return Block(f"free2step{m}", m + len(pairs), brackets, tuple(betti), len(pairs), 2)


BLOCKS = {
    b.name: b
    for b in (
        Block("R", 1, (), (1, 1), 0, 1),
        _heisenberg(1),
        _heisenberg(2),
        _heisenberg(3),
        _heisenberg(4),
        _free2step(3, (1, 3, 8, 12, 8, 3, 1)),
        _free2step(4, (1, 4, 20, 56, 84, 90, 84, 56, 20, 4, 1)),
        _filiform(4, (1, 2, 2, 2, 1)),
        _filiform(5, (1, 2, 3, 3, 2, 1)),
        _filiform(6, (1, 2, 3, 4, 3, 2, 1)),
        _filiform(8, (1, 2, 4, 8, 10, 8, 4, 2, 1)),
    )
}


def convolve(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def pad(vec, cap: int) -> list[int]:
    """vec truncated or zero-extended to degrees 0..cap."""
    return (list(vec) + [0] * (cap + 1))[: cap + 1]


def base_betti(base: str, cap: int) -> list[int]:
    """Betti vector of the 's2' or 'formal:M' base model through cap."""
    if base == "s2":
        return pad([1, 0, 1], cap)
    m = int(base.split(":")[1])
    return [comb(d // 2 + m - 1, m - 1) if d % 2 == 0 else 0 for d in range(cap + 1)]


# Symplectic forms (i, j, c), 1-based over the unit's own generators.
def _filiform_omega(n: int):
    # x1 x_n + sum_{i=2}^{n/2} (-1)^i x_i x_{n+1-i}: closed by telescoping
    return ((1, n, 1),) + tuple((i, n + 1 - i, (-1) ** i) for i in range(2, n // 2 + 1))


UNITS = {
    # name: (blocks, omega or None)
    "R": (("R",), None),
    "R2": (("R", "R"), ((1, 2, 1),)),
    "h3": (("h3",), None),
    "h5": (("h5",), None),
    "h7": (("h7",), None),
    "h9": (("h9",), None),
    "KT": (("h3", "R"), ((1, 4, 1), (2, 3, 1))),
    "h3h3": (("h3", "h3"), ((1, 3, 1), (2, 5, 1), (4, 6, 1))),
    "f2s3": (("free2step3",), ((1, 6, 1), (2, 5, 2), (3, 4, 1))),
    "f2s4": (("free2step4",), None),
    "L4": (("L4",), _filiform_omega(4)),
    "L5": (("L5",), None),
    "L6": (("L6",), _filiform_omega(6)),
    "L8": (("L8",), _filiform_omega(8)),
}


@dataclass(frozen=True)
class Algebra:
    """A direct sum of units, with its structure constants in block basis."""

    label: str
    blocks: tuple
    dim: int
    brackets: tuple  # (i, j, k, Fraction)
    omega: tuple | None  # (i, j, Fraction), present when every unit has one
    betti: tuple
    derived: int
    nil_class: int
    symplectic: bool
    is_torus: bool
    r_generators: tuple  # 0-based indices of the R blocks' basis vectors

    def betti_without_one_r(self) -> list[int]:
        """Betti vector of the summand left after splitting off one R."""
        rest = list(self.blocks)
        rest.remove("R")
        out = [1]
        for name in rest:
            out = convolve(out, BLOCKS[name].betti)
        return out


def direct_sum(label: str, units, symplectic: bool | None = None) -> Algebra:
    """Direct sum of named units (see UNITS).

    The sum carries a form when every unit does; otherwise `symplectic`
    must say whether the sum admits one.
    """
    brackets, omega, betti, block_names = [], [], [1], []
    derived, nil_class, off, r_gens = 0, 1, 0, []
    has_omega = True
    for u in units:
        blocks, u_omega = UNITS[u]
        u_off = off
        for name in blocks:
            b = BLOCKS[name]
            block_names.append(name)
            brackets += [(i + off, j + off, k + off, Fraction(c)) for i, j, k, c in b.brackets]
            betti = convolve(betti, b.betti)
            derived += b.derived
            nil_class = max(nil_class, b.nil_class)
            if name == "R":
                r_gens.append(off)
            off += b.dim
        if u_omega is None:
            has_omega = False
        else:
            omega += [(i + u_off, j + u_off, Fraction(c)) for i, j, c in u_omega]
    if symplectic is None:
        if not has_omega:
            raise ValueError(f"{label}: say whether the sum is symplectic")
        symplectic = True
    return Algebra(
        label=label,
        blocks=tuple(block_names),
        dim=off,
        brackets=tuple(brackets),
        omega=tuple(omega) if has_omega else None,
        betti=tuple(betti),
        derived=derived,
        nil_class=nil_class,
        symplectic=symplectic,
        is_torus=not brackets,
        r_generators=tuple(r_gens),
    )


# -- change of basis ----------------------------------------------------------


def inverse(P):
    """Exact inverse by Gauss-Jordan; P is an integer matrix (list of rows)."""
    n = len(P)
    a = [[Fraction(x) for x in row] + [Fraction(int(r == c)) for c in range(n)] for r, row in enumerate(P)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c])
        a[c], a[p] = a[p], a[c]
        piv = a[c][c]
        a[c] = [x / piv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def change_matrix(rng: random.Random, n: int, shears: int):
    """A seeded unimodular integer matrix: `shears` elementary additions
    X_j += s X_i (s = +-1, i != j), then a permutation of the basis."""
    P = [[int(r == c) for c in range(n)] for r in range(n)]
    for _ in range(shears):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        for r in range(n):  # new column j = column j + s * column i
            P[r][j] += s * P[r][i]
    perm = list(range(n))
    rng.shuffle(perm)
    return [[row[p] for p in perm] for row in P]


@dataclass(frozen=True)
class Variant:
    """An algebra written in the basis X'_c = sum_r P[r][c] X_r."""

    algebra: Algebra
    brackets: tuple
    omega: tuple | None
    P: tuple
    P_inv: tuple

    def vector_coords(self, v):
        """Coordinates in the new basis of a vector given in block basis."""
        n = self.algebra.dim
        return [sum(self.P_inv[k][r] * v[r] for r in range(n)) for k in range(n)]


def rebase(alg: Algebra, P) -> Variant:
    """Structure constants and omega after the change of basis P.

    [X'_i, X'_j] = sum_{a,b} P[a][i] P[b][j] [X_a, X_b], re-expanded with
    P^{-1}; omega'(X'_i, X'_j) = (P^T A P)_{ij}. Unimodular P keeps every
    constant an integer.
    """
    n = alg.dim
    Pinv = inverse(P)
    table = {}
    for a, b, c, v in alg.brackets:
        table.setdefault((a - 1, b - 1), [Fraction(0)] * n)[c - 1] += v
    brackets = []
    for i in range(n):
        for j in range(i + 1, n):
            vec = [Fraction(0)] * n
            for (a, b), w in table.items():
                coef = P[a][i] * P[b][j] - P[b][i] * P[a][j]
                if coef:
                    for c in range(n):
                        if w[c]:
                            vec[c] += coef * w[c]
            if not any(vec):
                continue
            for k in range(n):
                c = sum(Pinv[k][r] * vec[r] for r in range(n))
                if c:
                    brackets.append((i + 1, j + 1, k + 1, c))
    omega = None
    if alg.omega is not None:
        A = [[Fraction(0)] * n for _ in range(n)]
        for i, j, c in alg.omega:
            A[i - 1][j - 1] += c
            A[j - 1][i - 1] -= c
        omega = []
        for i in range(n):
            for j in range(i + 1, n):
                c = sum(P[a][i] * A[a][b] * P[b][j] for a in range(n) for b in range(n) if A[a][b])
                if c:
                    omega.append((i + 1, j + 1, c))
        omega = tuple(omega)
    return Variant(alg, tuple(brackets), omega, tuple(map(tuple, P)), tuple(map(tuple, Pinv)))


def document_text(name: str, var: Variant, with_omega: bool) -> str:
    """Strict document JSON, in the grammar nilsplit parses."""
    obj = {
        "name": name,
        "dim": var.algebra.dim,
        "brackets": [{"i": i, "j": j, "k": k, "c": str(c)} for i, j, k, c in var.brackets],
    }
    if with_omega:
        obj["omega"] = [{"i": i, "j": j, "c": str(c)} for i, j, c in var.omega]
    return json.dumps(obj, indent=2) + "\n"


def jacobi_defects(dim: int, brackets) -> int:
    """Number of basis triples i < j < k where the Jacobi identity fails."""
    table = {}
    for i, j, k, c in brackets:
        table.setdefault((i, j), {})
        table[(i, j)][k] = table[(i, j)].get(k, 0) + Fraction(c)

    def br(u: dict, v: dict) -> dict:
        out = {}
        for a, x in u.items():
            for b, y in v.items():
                if a == b:
                    continue
                key, s = ((a, b), 1) if a < b else ((b, a), -1)
                for k, c in table.get(key, {}).items():
                    out[k] = out.get(k, 0) + s * x * y * c
        return {k: c for k, c in out.items() if c}

    def e(i):
        return {i: Fraction(1)}

    bad = 0
    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            for k in range(j + 1, dim + 1):
                total = {}
                for u, v, w in ((i, j, k), (j, k, i), (k, i, j)):
                    for key, c in br(br(e(u), e(v)), e(w)).items():
                        total[key] = total.get(key, 0) + c
                if any(total.values()):
                    bad += 1
    return bad
