"""Tests of the benchmark's own parts: generator, answer checks, tracer.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

from algebras import BLOCKS, change_matrix, direct_sum, document_text, rebase  # noqa: E402
from check import check  # noqa: E402
from tracer import PARENT, Tracer, self_times  # noqa: E402
from workloads import LADDER, NAMES, SMALL, generate  # noqa: E402

from nilsplit import cli  # noqa: E402
from nilsplit.cohomology import Cohomology  # noqa: E402
from nilsplit.documents import parse_document  # noqa: E402
from nilsplit.lie_algebras import ce_model  # noqa: E402
from nilsplit.symplectic import SymplecticForm, is_symplectic  # noqa: E402


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv + ["--format", "machine"])
    return code, out.getvalue()


@pytest.mark.parametrize("workload", NAMES)
def test_seed_fixes_documents_and_jobs(workload):
    docs, jobs = generate(workload, 7, "work")
    again_docs, again_jobs = generate(workload, 7, "work")
    other_docs, other_jobs = generate(workload, 8, "work")
    assert docs == again_docs and jobs == again_jobs
    assert jobs != other_jobs
    # the seed changes bytes and order, not which jobs run
    assert sorted(j["cmd"] for j in jobs) == sorted(j["cmd"] for j in other_jobs)


@pytest.mark.parametrize("block", sorted(BLOCKS))
def test_pinned_block_invariants(block):
    b = BLOCKS[block]
    assert len(b.betti) == b.dim + 1 and b.betti[0] == 1
    assert list(b.betti) == list(reversed(b.betti))  # Poincare duality
    assert sum((-1) ** k * x for k, x in enumerate(b.betti)) == 0
    assert b.betti[1] == b.dim - b.derived


@pytest.mark.parametrize("alg", SMALL + [LADDER[3]], ids=lambda a: a.label)
def test_rotated_variant_keeps_betti_vector(alg):
    var = rebase(alg, change_matrix(random.Random(alg.label), alg.dim, shears=alg.dim))
    assert var.P != tuple(tuple(int(r == c) for c in range(alg.dim)) for r in range(alg.dim))
    doc = parse_document(document_text(alg.label, var, with_omega=alg.omega is not None))
    model = ce_model(doc.to_spec())
    assert Cohomology(model.dga).betti_vector(alg.dim) == list(alg.betti)
    assert model.report.derived_dim == alg.derived


def test_rotated_omega_is_certified():
    alg = direct_sum("l6-r2", ["L6", "R2"])
    var = rebase(alg, change_matrix(random.Random(3), alg.dim, shears=6))
    doc = parse_document(document_text("l6-r2", var, with_omega=True))
    model = ce_model(doc.to_spec())
    form = SymplecticForm.from_coeffs(model, doc.omega_coeffs())
    assert is_symplectic(model, form.omega).symplectic


def _cohomology_job(name="kodaira-thurston"):
    alg = direct_sum(name, ["KT"])
    return {"cmd": "cohomology", "argv": ["cohomology", name], "decision": False,
            "expect": {"exit": 0, "betti": list(alg.betti), "b1": alg.dim - alg.derived}}


def test_checker_accepts_correct_report():
    job = _cohomology_job()
    code, out = run_cli(job["argv"])
    assert check(job, code, out) == ([], False)


def test_checker_flags_one_wrong_betti_number():
    job = _cohomology_job()
    code, out = run_cli(job["argv"])
    report = json.loads(out)
    report["cohomology"]["betti"][2] += 1
    problems, _ = check(job, code, json.dumps(report))
    assert any("betti" in p for p in problems)


def test_checker_flags_unexpected_exit_code():
    job = _cohomology_job()
    _, out = run_cli(job["argv"])
    problems, undecided = check(job, 3, out)
    assert problems and not undecided
    crashed, _ = check(job, "raised ValueError", "")
    assert crashed


def test_search_exhausted_is_undecided_only_when_allowed():
    exhausted = json.dumps({"status": "search-exhausted"})
    job = {"cmd": "symplectic", "argv": [], "decision": True,
           "expect": {"exit": 3, "status": ["definitively-none", "search-exhausted"], "may_exhaust": True}}
    assert check(job, 3, exhausted) == ([], True)
    # within the lattice budget a decision must be definite
    job["expect"] = {"exit": 3, "status": ["definitively-none"]}
    assert check(job, 3, exhausted)[0]
    # and a symplectic algebra must get its form
    job["expect"] = {"exit": 0, "status": ["symplectic"], "dim": 8, "hl_holds": False}
    assert check(job, 3, exhausted)[0]


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] with children [1, 3] and [2, 6] (overlapping) and one
    # reaching past the root [9, 12]; grandchild [4, 5] under the second
    spans = [
        ["root", 0.0, 10.0, -1, 0.0],
        ["a", 1.0, 3.0, 0, 0.0],
        ["b", 2.0, 6.0, 0, 0.0],
        ["c", 4.0, 5.0, 2, 0.0],
        ["d", 9.0, 12.0, 0, 0.5],
    ]
    # root: children cover [1, 6] and [9, 10] -> 10 - 6 = 4
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 2.5])
    assert all(s[PARENT] < i for i, s in enumerate(spans))


def test_tracer_counts_and_restores():
    import nilsplit.linalg

    original = nilsplit.linalg.rank
    tracer = Tracer()
    tracer.install()
    try:
        assert run_cli(["cohomology", "heisenberg3"])[0] == 0
    finally:
        tracer.uninstall()
    assert nilsplit.linalg.rank is original
    metrics = tracer.metrics()
    assert metrics["cli.main.calls"][0] == 1
    # betti at k and k+1 both rank the same differential
    assert metrics["linalg.rank.calls"][0] > 0
    assert 0 < metrics["linalg.rank.distinct_ratio"][0] < 1
    assert metrics["exterior.monomial_products"][0] > 0
    assert metrics["trace.absent"][0] == 0


def test_tracer_reports_deleted_function_as_absent(monkeypatch):
    import nilsplit.linalg

    monkeypatch.delattr(nilsplit.linalg, "ColumnReducer")
    tracer = Tracer()
    tracer.install()
    try:
        assert run_cli(["catalog", "--emit", "torus2"])[0] == 0
    finally:
        tracer.uninstall()
    assert tracer.absent == ["linalg.ColumnReducer.add"]
    assert tracer.metrics()["linalg.ColumnReducer.add.calls"] == (0, "count")


def test_benchmark_spec_lists_every_measured_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    measured = set(Tracer().metrics()) | {"trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == measured
    assert [w["name"] for w in spec["workloads"]] == list(NAMES)
