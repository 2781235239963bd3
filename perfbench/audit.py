"""Audit the ROADMAP's baseline claims with the tracer.

    python3 perfbench/audit.py

Run from the root of a checkout. Each claim is one CLI job run in-process
under the tracer of tracer.py; the script prints the measured share or
ratio next to its base (the time or count it is a share of).
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.getcwd(), "src")]

from algebras import direct_sum, document_text, rebase  # noqa: E402
from tracer import Tracer  # noqa: E402

from nilsplit import cli  # noqa: E402


def traced(argv) -> Tracer:
    tracer = Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv + ["--format", "machine"])
    finally:
        tracer.uninstall()
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {code}")
    return tracer


def share(tracer: Tracer, root: str, target: str) -> str:
    part, whole, calls = tracer.subtree_share(root, target)
    return f"{part / whole:6.1%} of {whole:.3f} s in {root} ({calls} calls of {target})"


def main() -> None:
    work = os.path.join(".bench_work", "audit")
    os.makedirs(work, exist_ok=True)
    h3r7 = direct_sum("h3-r7", ["KT", "R2", "R2", "R2"])
    path = os.path.join(work, "h3-r7.json")
    with open(path, "w", encoding="utf-8") as fh:
        identity = [[int(r == c) for c in range(10)] for r in range(10)]
        fh.write(document_text("h3-r7", rebase(h3r7, identity), with_omega=True))

    print("1. total Betti of h3+h3 over formal:2, cap 8 (csplit with zero twist)")
    t = traced(["csplit", "h3-plus-h3", "--base", "formal:2", "--alpha", ";".join(["0,0"] * 6)])
    for target in ("linalg.clear_row_denominators", "kernels.bareiss_rank", "cohomology.DegreeSlice"):
        print("   " + share(t, "bundles.total_betti", target))

    print("2. hard Lefschetz on h3+R^7 (symplectic with the document's omega)")
    t = traced(["symplectic", path])
    for target in ("cohomology.reduce", "linalg.solve", "cohomology.basis"):
        print("   " + share(t, "symplectic.hard_lefschetz", target))

    print("3. repeated work in one `cohomology` job on h3+R^7 (n = 10)")
    t = traced(["cohomology", path])
    m = t.metrics()
    rank_calls = m["linalg.rank.calls"][0]
    basis_calls = m["exterior.monomials_of_degree.calls"][0]
    print(f"   linalg.rank: {rank_calls} calls, distinct matrices / calls = "
          f"{m['linalg.rank.distinct_ratio'][0]:.3f} ({round(rank_calls * m['linalg.rank.distinct_ratio'][0])} distinct)")
    print(f"   monomials_of_degree: {basis_calls} calls, distinct (algebra, degree) / calls = "
          f"{m['exterior.basis_distinct_ratio'][0]:.3f}")
    print(f"   cohomology.betti: {m['cohomology.betti.calls'][0]} calls for {h3r7.dim + 1} degrees; "
          f"cohomology.DegreeSlice: {m['cohomology.slices_built'][0]} built")
    print("   " + share(t, "cli.main", "cohomology.poincare_check"))


if __name__ == "__main__":
    main()
