"""Command-line front end.

    nilsplit validate    FILE-OR-NAME
    nilsplit cohomology  FILE-OR-NAME [--max-degree K]
    nilsplit symplectic  FILE-OR-NAME [--omega-from-file]
    nilsplit csplit      FILE-OR-NAME [--base s2|formal:M]
                         [--alpha solve|SPEC] [--max-degree K]
    nilsplit catalog     --list | --emit NAME

Positional inputs are file paths first, then built-in catalog names.
Every subcommand accepts --format human|machine. The symplectic search is
deterministic; symplectic and csplit still accept --seed N and ignore it,
so older command lines keep working. Each subcommand returns its report
and exit code, and main prints the report once; only catalog --emit and
the human catalog --list write plain text themselves. Exit codes:
0 success, 2 input or validation error, 3 no symplectic structure (the
document's omega fails certification, or none exists), 4 twisting matrix
incompatible with the fiber differential.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys

from . import bundles, catalog, lie_algebras, reports, symplectic
from .documents import (
    AlgebraDocument,
    DocumentError,
    digest,
    emit_document,
    parse_document,
    parse_rational,
)
from .errors import InvalidLieAlgebraError, NilsplitError, TwistIncompatibleError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_SYMPLECTIC = 3
EXIT_BAD_TWIST = 4


def _load(target: str):
    """A file path if one exists, else a catalog name."""
    if os.path.exists(target):
        try:
            with open(target, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise DocumentError(f"cannot read {target}: {exc.strerror}") from None
        except UnicodeDecodeError as exc:
            raise DocumentError(
                f"{target} is not UTF-8 text (byte {exc.start}: {exc.reason})"
            ) from None
        doc = parse_document(text)
        return doc, digest(text), "file"
    doc = catalog.get(target)
    return doc, digest(emit_document(doc)), "catalog"


def _check_max_degree(args) -> None:
    if args.max_degree is not None and args.max_degree < 0:
        raise DocumentError(f"--max-degree must be nonnegative, got {args.max_degree}")


def _validation_section(report: lie_algebras.ValidationReport) -> dict:
    return {
        "ok": report.ok,
        "jacobi_ok": report.jacobi_ok,
        "jacobi_failures": [
            {"i": i, "j": j, "k": k, "defect": [str(x) for x in defect]}
            for i, j, k, defect in report.jacobi_failures
        ],
        "nilpotent": report.nilpotent,
        "nilpotency_class": report.nilpotency_class,
        "lower_central_dims": list(report.lower_central_dims),
        "derived_subalgebra_dim": report.derived_dim,
        "summary": report.summary(),
    }


def _model_job(args):
    """(doc, report, ce); ce is None when the report's validation fails."""
    doc, dig, source = _load(args.algebra)
    report = reports.base_report(doc.name, dig, source)
    try:
        ce = lie_algebras.ce_model(doc.to_spec())
    except InvalidLieAlgebraError as exc:
        report["validation"] = _validation_section(exc.report)
        return doc, report, None
    report["validation"] = _validation_section(ce.report)
    return doc, report, ce


def _certificate_section(cert: symplectic.SymplecticCertificate) -> dict:
    return {
        "closed": cert.closed,
        "d_omega": str(cert.d_omega),
        "even_dimensional": cert.even_dimensional,
        "rank": cert.rank,
        "nondegenerate": cert.nondegenerate,
        "kernel_witness": None
        if cert.kernel_witness is None
        else [str(x) for x in cert.kernel_witness],
        "symplectic": cert.symplectic,
    }


def _omega_for(doc: AlgebraDocument, ce, args, report: dict):
    """A certified form from the document or from the search.

    Returns (form, exit_code). On failure the code is EXIT_NO_SYMPLECTIC and
    the report says why: "omega-not-symplectic" for a document form that
    fails certification, else "definitively-none" from the search, a proof
    that no closed 2-form is nondegenerate (search.reason names it).
    """
    if args.omega_from_file or doc.omega is not None:
        coeffs = doc.omega_coeffs()
        if coeffs is None:
            raise DocumentError("document carries no omega field")
        form = symplectic.SymplecticForm.from_coeffs(ce, coeffs)
        cert = symplectic.is_symplectic(ce, form.omega)
        report["omega"] = {"source": "document", "value": str(form)}
        report["certificate"] = _certificate_section(cert)
        if not cert.symplectic:
            report["status"] = "omega-not-symplectic"
            return None, EXIT_NO_SYMPLECTIC
        return form, EXIT_OK

    result = symplectic.find_symplectic(ce)
    report["search"] = {
        "status": result.status,
        "closed_two_form_dim": result.closed_dim if result.closed_dim >= 0 else None,
        "reason": result.reason,
    }
    if not result.found:
        report["status"] = result.status
        return None, EXIT_NO_SYMPLECTIC
    report["omega"] = {"source": "search", "value": str(result.form)}
    report["certificate"] = _certificate_section(result.certificate)
    return result.form, EXIT_OK


def cmd_validate(args):
    _, report, ce = _model_job(args)
    return report, EXIT_INPUT if ce is None else EXIT_OK


def cmd_cohomology(args):
    _check_max_degree(args)
    _, report, ce = _model_job(args)
    if ce is None:
        return report, EXIT_INPUT
    cap = args.max_degree if args.max_degree is not None else ce.n
    # below the dimension n, duality and the Euler characteristic are
    # reported as null; from n on, the analyzer reads the upper half of the
    # table off the ranks of d below the middle, and poincare_duality is
    # the certificate that makes that exact (Cohomology.duality)
    coh = ce.cohomology
    bettis = coh.betti_vector(cap)
    full = cap >= ce.n
    report["cohomology"] = {
        "max_degree": cap,
        "betti": bettis,
        "poincare_duality": coh.duality == ce.n if full else None,
        "euler_characteristic": coh.euler_characteristic(ce.n) if full else None,
        "b1_equals_dim_minus_derived": bettis[1] == ce.n - ce.report.derived_dim
        if cap >= 1
        else None,
    }
    return report, EXIT_OK


def cmd_symplectic(args):
    doc, report, ce = _model_job(args)
    if ce is None:
        return report, EXIT_INPUT
    form, code = _omega_for(doc, ce, args, report)
    if form is None:
        return report, code
    entries = symplectic.hard_lefschetz(ce, form)
    report["hard_lefschetz"] = {
        "table": [
            {
                "k": e.k,
                "map": f"H^{e.source_degree} -> H^{e.target_degree}",
                "rank": e.rank,
                "betti": e.source_betti,
                "isomorphism": e.isomorphism,
            }
            for e in entries
        ],
        "holds": all(e.isomorphism for e in entries),
    }
    report["status"] = "symplectic"
    return report, EXIT_OK


def _parse_base(text: str) -> bundles.BaseModel:
    if text == "s2":
        return bundles.sphere_base()
    if text.startswith("formal:"):
        digits = text[len("formal:") :]
        try:
            # ASCII digits only: int() also takes "1_0", " 2", Unicode digits
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError(digits)
            m = int(digits)  # past the digit limit this too raises
        except ValueError:
            raise DocumentError(f"bad base spec {text!r}") from None
        if m < 1:
            raise DocumentError("formal base needs at least one generator")
        return bundles.formal_even_base(m)
    raise DocumentError(f"bad base spec {text!r}; expected 's2' or 'formal:M'")


def _count(k: int, one: str, many: str) -> str:
    return f"{k} {one if k == 1 else many}"


def _parse_alpha(text: str, n: int, m: int):
    rows = text.split(";")
    entries = _count(m, "entry", "entries")
    if len(rows) == 1 and m == 1:
        flat = [p.strip() for p in rows[0].split(",")]
        if len(flat) != n:
            raise DocumentError(f"alpha needs {_count(n, 'entry', 'entries')}, got {len(flat)}")
        return [[parse_rational(p, "alpha")] for p in flat]
    if len(rows) != n:
        rows_of = f"{_count(n, 'row', 'rows')} of {entries}"
        raise DocumentError(f"alpha needs {rows_of}, got {len(rows)}")
    out = []
    for r, row in enumerate(rows):
        parts = [p.strip() for p in row.split(",")]
        if len(parts) != m:
            raise DocumentError(f"alpha row {r + 1} needs {entries}")
        out.append([parse_rational(p, f"alpha[{r + 1}]") for p in parts])
    return out


def _csplit_sections(report: dict, verdict: bundles.CsplitVerdict) -> None:
    report["total_betti"] = list(verdict.total)
    report["csplit"] = {
        "c_splits": verdict.c_splits,
        "cap": verdict.cap,
        "total": list(verdict.total),
        "expected_convolution": list(verdict.expected),
        "alpha_zero": verdict.alpha_zero,
    }


def cmd_csplit(args):
    _check_max_degree(args)
    doc, report, ce = _model_job(args)
    if ce is None:
        return report, EXIT_INPUT
    base = _parse_base(args.base)
    alpha = None if args.alpha == "solve" else _parse_alpha(args.alpha, ce.n, base.m)
    if ce.n % 2:
        report["status"] = "definitively-none"
        report["reason"] = f"odd dimension {ce.n}: no symplectic structure"
        return report, EXIT_NO_SYMPLECTIC
    form, code = _omega_for(doc, ce, args, report)
    if form is None:
        return report, code
    cap = args.max_degree if args.max_degree is not None else ce.n + 2
    report["base"] = args.base

    if alpha is None:
        forcing = bundles.forcing_check(ce, form, base)
        report["forcing"] = {
            "solution_dimension": forcing.solution_dimension,
            "forced_zero": forcing.forced_zero,
            "basis_alphas": [
                [[str(c) for c in row] for row in alpha]
                for alpha in forcing.basis_alphas
            ],
            "witnesses_verified": forcing.witnesses_verified,
        }
        zero = [[0] * base.m for _ in range(ce.n)]
        verdict = bundles.csplit_compare(bundles.TwistedModel(base, ce, zero), cap)
        _csplit_sections(report, verdict)
        report["status"] = "forced-zero" if forcing.forced_zero else "twists-remain"
        return report, EXIT_OK

    tm = bundles.TwistedModel(base, ce, alpha)
    try:
        verdict = bundles.csplit_compare(tm, cap)
    except TwistIncompatibleError as exc:
        report["status"] = "invalid-twist"
        report["twist_error"] = {
            "generator": exc.generator_name,
            "d_squared": str(exc.witness),
        }
        return report, EXIT_BAD_TWIST
    obstruction = bundles.hamiltonian_obstruction(tm, form)
    report["obstruction"] = {
        "d_omega_total": str(obstruction.full),
        "per_base_generator": {
            name: str(el) for name, el in obstruction.per_generator.items()
        },
        "hamiltonian": obstruction.hamiltonian,
    }
    _csplit_sections(report, verdict)
    report["status"] = "analyzed"
    return report, EXIT_OK


def cmd_catalog(args):
    if args.list:
        if args.format == "machine":
            return {"catalog": catalog.names()}, EXIT_OK
        sys.stdout.write("".join(name + "\n" for name in catalog.names()))
        return None, EXIT_OK
    if args.emit:
        sys.stdout.write(emit_document(catalog.get(args.emit)))
        return None, EXIT_OK
    raise DocumentError("catalog: pass --list or --emit NAME")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilsplit",
        description="Exact CE models, symplectic certificates, and c-splitting checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("human", "machine"), default="human")

    def ignored_seed(p):
        p.add_argument(
            "--seed",
            type=int,
            default=None,
            help="accepted and ignored: the search is deterministic",
        )

    p = sub.add_parser("validate", help="check Jacobi and nilpotency")
    p.add_argument("algebra", help="document path or catalog name")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("cohomology", help="Betti table of the CE model")
    p.add_argument("algebra")
    p.add_argument("--max-degree", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("symplectic", help="certify or search for a symplectic form")
    p.add_argument("algebra")
    p.add_argument(
        "--omega-from-file",
        action="store_true",
        help="require and certify the document's omega field",
    )
    common(p)
    ignored_seed(p)
    p.set_defaults(func=cmd_symplectic)

    p = sub.add_parser("csplit", help="twisted model analysis over a base")
    p.add_argument("algebra")
    p.add_argument("--base", default="s2", help="'s2' or 'formal:M'")
    p.add_argument(
        "--alpha",
        default="solve",
        help="'solve' or rational entries: 'c1,..,cN' (m=1) / rows 'r1;..;rN'",
    )
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--omega-from-file", action="store_true")
    common(p)
    ignored_seed(p)
    p.set_defaults(func=cmd_csplit)

    p = sub.add_parser("catalog", help="list or emit built-in algebras")
    p.add_argument("--list", action="store_true")
    p.add_argument("--emit", metavar="NAME")
    common(p)
    p.set_defaults(func=cmd_catalog)

    return parser


def _glue_alpha(argv: list[str]) -> list[str]:
    """Pass `--alpha -1,0` as `--alpha=-1,0`.

    argparse reads a separate token starting with '-' as an option unless
    it is a plain negative number, so a twist whose first entry is
    negative would be refused as a missing value.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--alpha" and re.match(r"-[0-9]", token):
            out[-1] = "--alpha=" + token
        else:
            out.append(token)
    return out


# built on the first main() call, not at import; parse_args keeps no state
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(_glue_alpha(sys.argv[1:] if argv is None else argv))
    try:
        report, code = args.func(args)
    except NilsplitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    if report is not None:
        sys.stdout.write(reports.render(report, args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
