"""Seeded workloads: input documents, CLI argument lists and expected answers.

A workload is a fixed job list for one client in a closed loop. The seed
picks the basis change and permutation of every generated document, the
`--seed` of every symplectic search and the order of the job list; which
algebras appear and which subcommands run on them is fixed, so two seeds
cost about the same while the program never sees the same bytes.

Every job carries its expectation (see check.py): exit code, report status
and the semantic fields derived in algebras.py. Jobs that need a symplectic
decision are marked and count towards `undecided_ratio`; only those on an
algebra in OVER_BUDGET may return `search-exhausted`, every other decision
must be definite.
"""

from __future__ import annotations

import os
import random
from dataclasses import replace

from algebras import (
    Algebra,
    base_betti,
    change_matrix,
    convolve,
    direct_sum,
    document_text,
    jacobi_defects,
    pad,
    rebase,
)

# non-symplectic algebras whose decision lattice exceeds find_symplectic's
# default budget of 200,000 points (h9+R: C(m + 5, 5) with m = dim Z^2)
OVER_BUDGET = {"h9-r"}
S3 = (1, 0, 0, 1)


class Builder:
    """Accumulates documents and jobs for one workload and seed."""

    def __init__(self, workload: str, seed: int, root: str):
        self.rng = random.Random(f"{workload}:{seed}")
        self.dir = os.path.join(root, workload)
        self.docs: dict[str, str] = {}
        self.jobs: list[dict] = []

    def document(self, name: str, alg: Algebra, shears: int, with_omega: bool):
        """Write a seeded variant of alg; returns (path, variant)."""
        var = rebase(alg, change_matrix(self.rng, alg.dim, shears))
        path = os.path.join(self.dir, f"{name}.json")
        self.docs[path] = document_text(name, var, with_omega)
        return path, var

    def job(self, cmd: str, argv: list, expect: dict, decision: bool = False):
        self.jobs.append({"cmd": cmd, "argv": argv, "expect": expect, "decision": decision})

    def search_seed(self) -> list[str]:
        return ["--seed", str(self.rng.randrange(2**32))]

    @staticmethod
    def no_form(alg: Algebra) -> dict:
        """Expectation of a decision on a non-symplectic algebra."""
        if alg.label in OVER_BUDGET:
            return {"exit": 3, "status": ["definitively-none", "search-exhausted"], "may_exhaust": True}
        return {"exit": 3, "status": ["definitively-none"]}

    # -- jobs with their expectations -----------------------------------------

    def validate(self, target: str, alg: Algebra):
        self.job("validate", ["validate", target], {
            "exit": 0, "ok": True, "derived": alg.derived, "nil_class": alg.nil_class,
        })

    def cohomology(self, target: str, alg: Algebra):
        self.job("cohomology", ["cohomology", target], {
            "exit": 0, "betti": list(alg.betti), "b1": alg.dim - alg.derived,
        })

    def symplectic(self, target: str, alg: Algebra, searched: bool, extra=()):
        argv = ["symplectic", target, *extra] + (self.search_seed() if searched else [])
        if alg.dim % 2:
            expect = {"exit": 3, "status": ["definitively-none"]}
        elif alg.symplectic:
            expect = {"exit": 0, "status": ["symplectic"], "dim": alg.dim, "hl_holds": alg.is_torus}
        else:
            expect = self.no_form(alg)
        self.job("symplectic", argv, expect, decision=searched and alg.dim % 2 == 0)

    def csplit(self, target: str, alg: Algebra, base: str, searched: bool,
               alpha=None, total=None, cap=None):
        """csplit over base; alpha None means --alpha solve.

        `total` is the expected total Betti vector before padding to the
        cap; by default the product (Kunneth) one.
        """
        argv = ["csplit", target, "--base", base]
        if alpha is not None:
            # one token: argparse takes a separate "-1,0,..." for an option
            argv.append(f"--alpha={alpha}")
        if cap is not None:
            argv += ["--max-degree", str(cap)]
        if searched:
            argv += self.search_seed()
        decision = searched and alg.dim % 2 == 0
        if alg.dim % 2:
            self.job("csplit", argv, {"exit": 3, "status": ["definitively-none"]})
            return
        if not alg.symplectic:
            self.job("csplit", argv, self.no_form(alg), decision)
            return
        cap = alg.dim + 2 if cap is None else cap
        product = pad(convolve(base_betti(base, cap), alg.betti), cap)
        expect = {"exit": 0, "total": pad(total, cap) if total is not None else product}
        expect["c_splits"] = total is None
        if alpha is None:
            expect.update(status=["forced-zero"], forced_zero=True)
        else:
            expect.update(status=["analyzed"], hamiltonian=total is None)
        self.job("csplit", argv, expect, decision)


def zero_alpha(n: int, m: int) -> str:
    return ";".join([",".join(["0"] * m)] * n) if m > 1 else ",".join(["0"] * n)


def vector_alpha(coords) -> str:
    return ",".join(str(c) for c in coords)


def unit_vector(n: int, i: int) -> list[int]:
    return [int(k == i) for k in range(n)]


# -- catalog-mix --------------------------------------------------------------

CATALOG = {
    "torus2": direct_sum("torus2", ["R2"]),
    "torus4": direct_sum("torus4", ["R2", "R2"]),
    "torus6": direct_sum("torus6", ["R2"] * 3),
    "heisenberg3": direct_sum("heisenberg3", ["h3"], symplectic=False),
    "kodaira-thurston": direct_sum("kodaira-thurston", ["KT"]),
    "heisenberg5-plus-r": direct_sum("heisenberg5-plus-r", ["h5", "R"], symplectic=False),
    "h3-plus-h3": direct_sum("h3-plus-h3", ["h3h3"]),
    "free2step3": direct_sum("free2step3", ["f2s3"]),
}

SMALL = [  # generated algebras of dimension 3 to 6
    direct_sum("h3", ["h3"], symplectic=False),
    direct_sum("r3", ["R"] * 3, symplectic=False),
    direct_sum("kt", ["KT"]),
    direct_sum("l4", ["L4"]),
    direct_sum("h5", ["h5"], symplectic=False),
    direct_sum("l5", ["L5"], symplectic=False),
    direct_sum("kt-r", ["KT", "R"], symplectic=False),
    direct_sum("h3h3", ["h3h3"]),
    direct_sum("f2s3", ["f2s3"]),
    direct_sum("l6", ["L6"]),
    direct_sum("kt-r2", ["KT", "R2"]),
    direct_sum("l4-r2", ["L4", "R2"]),
    direct_sum("h5-r", ["h5", "R"], symplectic=False),
]


def _broken(b: Builder, alg: Algebra, name: str) -> str:
    """A document of alg plus one bracket that breaks the Jacobi identity."""
    while True:
        i, j, k = b.rng.sample(range(1, alg.dim + 1), 3)
        i, j = min(i, j), max(i, j)
        brackets = alg.brackets + ((i, j, k, 1),)
        if (i, j, k) not in {t[:3] for t in alg.brackets} and jacobi_defects(alg.dim, brackets):
            break
    path, _ = b.document(name, replace(alg, brackets=brackets), shears=0, with_omega=False)
    return path


def catalog_mix(b: Builder) -> None:
    for name, alg in CATALOG.items():
        b.job("catalog", ["catalog", "--emit", name], {"exit": 0, "emit_name": name, "dim": alg.dim})
        b.validate(name, alg)
        b.cohomology(name, alg)
        b.symplectic(name, alg, searched=alg.omega is None)
        b.csplit(name, alg, "s2", searched=alg.omega is None)
        if alg.symplectic and alg.dim <= 4:
            b.csplit(name, alg, "formal:2", searched=False)
    # the non-Hamiltonian control: S^3 x S^1, not the product pattern
    b.csplit("torus2", CATALOG["torus2"], "s2", False, alpha="1,0", total=convolve(S3, (1, 1)))
    # x1 of h3 is not central, so D^2 != 0
    b.job("csplit", ["csplit", "kodaira-thurston", "--alpha=1,0,0,0"],
          {"exit": 4, "status": ["invalid-twist"]})

    for copy in range(3):
        for alg in SMALL:
            name = f"{alg.label}-{copy}"
            with_omega = copy == 0 and alg.omega is not None
            path, var = b.document(name, alg, shears=alg.dim // 2, with_omega=with_omega)
            b.validate(path, alg)
            b.cohomology(path, alg)
            b.symplectic(path, alg, searched=not with_omega)
            b.csplit(path, alg, "s2", searched=not with_omega)
            if alg.symplectic and alg.dim <= 4:
                b.csplit(path, alg, "formal:2", searched=not with_omega)
                b.csplit(path, alg, "formal:3", searched=not with_omega)
            if alg.symplectic and copy == 0 and alg.blocks[0] == "h3":
                alpha = vector_alpha(var.vector_coords(unit_vector(alg.dim, 0)))
                b.job("csplit", ["csplit", path, f"--alpha={alpha}"], {"exit": 4, "status": ["invalid-twist"]})
        for alg in (SMALL[3], SMALL[7], SMALL[9]):
            path = _broken(b, alg, f"{alg.label}-broken-{copy}")
            b.job("validate", ["validate", path], {"exit": 2, "jacobi_ok": False})
            b.job("cohomology", ["cohomology", path], {"exit": 2, "jacobi_ok": False})


# -- betti-ladder -------------------------------------------------------------

LADDER = [
    direct_sum("free2step4", ["f2s4"], symplectic=False),
    direct_sum("h3-r7", ["KT", "R2", "R2", "R2"]),
    direct_sum("h3h3-r4", ["h3h3", "R2", "R2"]),
    direct_sum("l8", ["L8"]),
    direct_sum("torus8", ["R2"] * 4),
]


def betti_ladder(b: Builder) -> None:
    _, h3r7, h3h3r4, l8, torus8 = LADDER
    paths, variants = {}, {}
    for variant, shears in (("sparse", 0), ("rotated", 5)):
        for alg in LADDER:
            key = (alg.label, variant)
            paths[key], variants[key] = b.document(f"{alg.label}-{variant}", alg, shears, with_omega=alg.symplectic)
            b.validate(paths[key], alg)
        for alg in (l8, torus8):
            b.cohomology(paths[alg.label, variant], alg)
        # hard Lefschetz holds on the torus and fails on L8; the rotated L8
        # is left out because its cost swings with the basis change
        b.symplectic(paths["torus8", variant], torus8, searched=False, extra=["--omega-from-file"])
    b.symplectic(paths["l8", "sparse"], l8, searched=False, extra=["--omega-from-file"])
    # a full dim-10 cohomology takes seconds (4 to 7 s at this baseline), so
    # one fiber runs it; the other dim-10 fibers get capped csplit jobs
    b.cohomology(paths["h3-r7", "sparse"], h3r7)
    # one-generator twists along an R factor give S^3 x (the rest)
    for alg, variant, cap in ((torus8, "rotated", 5), (h3r7, "sparse", 3)):
        r = unit_vector(alg.dim, alg.r_generators[-1])
        b.csplit(paths[alg.label, variant], alg, "s2", False, cap=cap,
                 alpha=vector_alpha(variants[alg.label, variant].vector_coords(r)),
                 total=convolve(S3, alg.betti_without_one_r()))
    b.csplit(paths["l8", "rotated"], l8, "formal:2", False, cap=4, alpha=zero_alpha(8, 2))
    b.csplit(paths["h3h3-r4", "rotated"], h3h3r4, "s2", False, cap=3, alpha=zero_alpha(10, 1))


# -- symplectic-decide --------------------------------------------------------

DECIDE = [
    direct_sum("h3-r5", ["KT", "R2", "R2"]),
    direct_sum("h3h3-r2", ["h3h3", "R2"]),
    direct_sum("l8", ["L8"]),
    direct_sum("h3-r7", ["KT", "R2", "R2", "R2"]),
    direct_sum("h5-h3", ["h5", "h3"], symplectic=False),
    direct_sum("h7-r", ["h7", "R"], symplectic=False),
    direct_sum("h5-r3", ["h5", "R", "R", "R"], symplectic=False),
    direct_sum("h9-r", ["h9", "R"], symplectic=False),
]


def symplectic_decide(b: Builder) -> None:
    for alg in DECIDE:
        path, _ = b.document(alg.label, alg, shears=0, with_omega=False)
        b.validate(path, alg)
        b.symplectic(path, alg, searched=True)
        if alg.symplectic and alg.dim <= 8:
            b.csplit(path, alg, "s2", searched=True, cap=3)
        if not alg.symplectic and alg.dim <= 8:
            b.cohomology(path, alg)


BUILDERS = {
    "catalog-mix": catalog_mix,
    "betti-ladder": betti_ladder,
    "symplectic-decide": symplectic_decide,
}
NAMES = tuple(BUILDERS)


def generate(workload: str, seed: int, root: str):
    """Documents (path -> text) and the seed-shuffled job list."""
    b = Builder(workload, seed, root)
    BUILDERS[workload](b)
    b.rng.shuffle(b.jobs)
    return b.docs, b.jobs
