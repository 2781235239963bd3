"""Answer checks: compare one job's exit code and report with its expectation.

Checks read semantic report fields, never bytes: a change of basis may
legitimately change a searched omega string or the order of a basis, but
not a Betti number, a verdict or an exit code.
"""

from __future__ import annotations

import json


def check(job: dict, code, stdout: str) -> tuple[list[str], bool]:
    """(problems, undecided) for one finished job.

    A `search-exhausted` result is undecided, not failed, only on a job
    whose expectation allows it (a decision lattice beyond the search
    budget): the result is no proof, but also no error. On every other
    job it is a wrong answer, so a smaller search budget cannot pass.
    """
    exp = job["expect"]
    try:
        report = json.loads(stdout) if stdout else None
    except json.JSONDecodeError as exc:
        return [f"unparseable output: {exc}"], False
    status = report.get("status") if isinstance(report, dict) else None
    if exp.get("may_exhaust") and code == 3 and status == "search-exhausted":
        return [], True
    if code != exp["exit"]:
        return [f"exit code {code}, expected {exp['exit']}"], False
    if not isinstance(report, dict):
        return ["no report on stdout"], False

    problems = []

    def want(label, got, expected):
        if got != expected:
            problems.append(f"{label}: got {got!r}, expected {expected!r}")

    if "status" in exp and status not in exp["status"]:
        problems.append(f"status {status!r} not in {exp['status']}")
    if "emit_name" in exp:
        want("emitted name", report.get("name"), exp["emit_name"])
        want("emitted dim", report.get("dim"), exp["dim"])
    val = report.get("validation", {})
    if "ok" in exp:
        want("validation.ok", val.get("ok"), exp["ok"])
        want("derived_subalgebra_dim", val.get("derived_subalgebra_dim"), exp["derived"])
        want("nilpotency_class", val.get("nilpotency_class"), exp["nil_class"])
    if "jacobi_ok" in exp:
        want("validation.jacobi_ok", val.get("jacobi_ok"), exp["jacobi_ok"])
        want("validation.ok", val.get("ok"), False)
    if "betti" in exp:
        coh = report.get("cohomology", {})
        betti = coh.get("betti")
        want("betti", betti, exp["betti"])
        want("poincare_duality", coh.get("poincare_duality"), True)
        want("euler_characteristic", coh.get("euler_characteristic"), 0)
        want("b1_equals_dim_minus_derived", coh.get("b1_equals_dim_minus_derived"), True)
        if betti:
            want("b1", betti[1] if len(betti) > 1 else None, exp["b1"])
    if "hl_holds" in exp:
        cert = report.get("certificate", {})
        want("certificate.symplectic", cert.get("symplectic"), True)
        want("certificate.rank", cert.get("rank"), exp["dim"])
        want("hard_lefschetz.holds", report.get("hard_lefschetz", {}).get("holds"), exp["hl_holds"])
    if "total" in exp:
        want("total_betti", report.get("total_betti"), exp["total"])
        want("csplit.c_splits", report.get("csplit", {}).get("c_splits"), exp["c_splits"])
    if "forced_zero" in exp:
        forcing = report.get("forcing", {})
        want("forcing.forced_zero", forcing.get("forced_zero"), True)
        want("forcing.solution_dimension", forcing.get("solution_dimension"), 0)
        want("certificate.symplectic", report.get("certificate", {}).get("symplectic"), True)
    if "hamiltonian" in exp:
        want("obstruction.hamiltonian", report.get("obstruction", {}).get("hamiltonian"), exp["hamiltonian"])
    return problems, False
