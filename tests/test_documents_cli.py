"""Document grammar strictness, catalog round-trips, CLI exit codes."""

import json
import sys
from fractions import Fraction

import pytest
from oracles import lefschetz_ranks_naive

from nilsplit import catalog
from nilsplit.cli import main
from nilsplit.documents import (
    DocumentError,
    emit_document,
    parse_document,
    parse_rational,
)
from nilsplit.lie_algebras import LieAlgebraSpec, ce_model
from nilsplit.symplectic import SymplecticForm

F = Fraction

GOOD = """
{
  "name": "kt",
  "dim": 4,
  "brackets": [{"i": 1, "j": 2, "k": 3, "c": "1"}],
  "omega": [{"i": 1, "j": 4, "c": "1"}, {"i": 2, "j": 3, "c": "1"}]
}
"""


def test_parse_good_document():
    doc = parse_document(GOOD)
    assert doc.dim == 4
    assert doc.brackets == ((1, 2, 3, F(1)),)
    assert doc.omega == ((1, 4, F(1)), (2, 3, F(1)))


def test_rational_grammar():
    cases = {
        "-1/2": F(-1, 2), "3": F(3), "+7/21": F(1, 3), "007": F(7), "-0/5": F(0), "+4/6": F(2, 3)
    }
    for text, value in cases.items():
        parsed = parse_rational(text, "x")
        assert parsed == value and type(parsed) is Fraction, text
    # the whole string in ASCII digits: no final newline, no Arabic-Indic digits
    for bad in ("1/0", "0.5", "a", "1 / 2", "", "--3", "1/-2", "1\n", "\u0661", "1/\u0662"):
        with pytest.raises(DocumentError):
            parse_rational(bad, "x")


@pytest.fixture
def digit_limit():
    """The interpreter's default 4300-digit limit on int(str), for one test."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python converts integers of any length")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


TOO_LONG = "1" + "0" * 4999
LITERALS = {"newline": "1\n", "arabic-indic": "\u0661", "5000-digits": TOO_LONG}
# --alpha strips whitespace around its entries, so a newline is not malformed there
MALFORMED = [
    pytest.param(where, LITERALS[name], id=f"{where}-{name}")
    for where in ("brackets", "omega", "alpha")
    for name in LITERALS
    if (where, name) != ("alpha", "newline")
]


@pytest.mark.parametrize(("where", "bad"), MALFORMED)
def test_cli_refuses_malformed_literals(tmp_path, capsys, digit_limit, where, bad):
    """A non-ASCII digit, a trailing newline or a literal past the digit limit
    is a refusal with exit 2, never a traceback or a silent 1."""
    if where == "alpha":
        argv = ["csplit", "torus2", "--alpha", f"{bad},0"]
    else:
        obj = json.loads(GOOD)
        obj[where][0]["c"] = bad
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(obj))
        argv = ["validate", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2, (where, bad[:8])
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if bad == TOO_LONG:
        assert "too many digits" in err


def test_cli_refuses_a_json_integer_past_the_digit_limit(tmp_path, capsys, digit_limit):
    path = tmp_path / "doc.json"
    path.write_text(GOOD.replace('"dim": 4', '"dim": ' + TOO_LONG))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err == "error: not valid JSON: an integer has too many digits\n"


DEEP = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize("command", ["validate", "cohomology"])
@pytest.mark.parametrize("where", ["document", "omega"])
def test_cli_refuses_deeply_nested_json(tmp_path, capsys, command, where):
    """Nesting past the JSON parser's stack is a refusal with exit 2 and one
    error line, never a RecursionError traceback."""
    text = DEEP if where == "document" else '{"name": "kt", "dim": 4, "brackets": [], "omega": ' + DEEP + "}"
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, command, str(path))
    assert (code, out) == (2, "")
    assert err == "error: not valid JSON: nested too deeply\n"


@pytest.mark.parametrize(
    "mutation",
    [
        lambda d: d.update(extra=1),  # unknown top-level field
        lambda d: d.pop("dim"),
        lambda d: d.update(dim="4"),
        lambda d: d.update(dim=True),
        lambda d: d.update(brackets=[{"i": 1, "j": 2, "k": 3, "c": 1}]),  # int c
        lambda d: d.update(brackets=[{"i": 2, "j": 1, "k": 3, "c": "1"}]),  # i >= j
        lambda d: d.update(brackets=[{"i": 1, "j": 2, "k": 5, "c": "1"}]),  # k > dim
        lambda d: d.update(brackets=[{"i": 1, "j": 2, "k": 3, "c": "1", "z": 0}]),
        lambda d: d.update(brackets=[{"i": 1, "j": 2, "c": "1"}]),  # missing k
        lambda d: d.update(omega=[{"i": 1, "j": 9, "c": "1"}]),  # j > dim
        lambda d: d.update(
            brackets=[
                {"i": 1, "j": 2, "k": 3, "c": "1"},
                {"i": 1, "j": 2, "k": 3, "c": "2"},
            ]
        ),
    ],
)
def test_parse_rejects_bad_documents(mutation):
    obj = json.loads(GOOD)
    mutation(obj)
    with pytest.raises(DocumentError):
        parse_document(json.dumps(obj))


def _good_with(**fields):
    obj = json.loads(GOOD)
    obj.update(fields)
    return json.dumps(obj)


@pytest.mark.parametrize(
    "text, pattern",
    [
        ("[]", r"^top level must be a JSON object$"),
        ("{", r"^not valid JSON: "),
        (_good_with(name=3), r"^name: expected a string$"),
        (_good_with(dim=0), r"^dim: must be positive, got 0$"),
        (_good_with(brackets={}), r"^brackets: expected a list$"),
        (_good_with(brackets=[[1, 2, 3, "1"]]), r"^brackets\[0\]: expected an object$"),
    ],
)
def test_parse_names_what_is_wrong_with_the_text(text, pattern):
    with pytest.raises(DocumentError, match=pattern):
        parse_document(text)


def test_parse_names_the_duplicate_entry():
    obj = json.loads(GOOD)
    obj["brackets"].append({"i": 1, "j": 2, "k": 3, "c": "2"})
    with pytest.raises(DocumentError, match=r"^brackets: duplicate entry for \(1,2,3\)$"):
        parse_document(json.dumps(obj))
    obj = json.loads(GOOD)
    obj["omega"].append({"i": 1, "j": 4, "c": "3"})
    with pytest.raises(DocumentError, match=r"^omega: duplicate entry for \(1,4\)$"):
        parse_document(json.dumps(obj))


def test_parse_rejects_zero_denominator():
    obj = json.loads(GOOD)
    obj["brackets"][0]["c"] = "1/0"
    with pytest.raises(DocumentError, match="zero denominator"):
        parse_document(json.dumps(obj))


def test_emit_parse_round_trip_is_byte_stable():
    for name in catalog.names():
        doc = catalog.get(name)
        text = emit_document(doc)
        again = emit_document(parse_document(text))
        assert again == text, name


def test_catalog_contract():
    assert len(catalog.names()) >= 7
    torus4 = catalog.get("torus4")
    assert torus4.dim == 4 and torus4.brackets == ()
    kt = catalog.get("kodaira-thurston")
    assert kt.dim == 4
    assert kt.brackets == ((1, 2, 3, F(1)),)
    assert len(catalog.symplectic_names()) >= 5
    with pytest.raises(DocumentError):
        catalog.get("nope")


# ---- CLI ---------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_validate_catalog(capsys):
    code, out, _ = run_cli(capsys, "validate", "kodaira-thurston")
    assert code == 0
    assert "nilpotency_class: 2" in out


def test_cli_validate_file_and_exit_codes(tmp_path, capsys):
    good = tmp_path / "kt.json"
    good.write_text(GOOD)
    code, out, _ = run_cli(capsys, "validate", str(good))
    assert code == 0

    bad = tmp_path / "bad.json"
    bad.write_text('{"name":"b","dim":2,"brackets":[{"i":1,"j":2,"k":1,"c":"1/0"}]}')
    code, _, err = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert "zero denominator" in err

    notnilp = tmp_path / "nn.json"
    notnilp.write_text('{"name":"n","dim":2,"brackets":[{"i":1,"j":2,"k":1,"c":"1"}]}')
    code, out, _ = run_cli(capsys, "validate", str(notnilp))
    assert code == 2
    assert "nilpotent: False" in out


JACOBI_FAILS = json.dumps(
    {
        "name": "no-jacobi",
        "dim": 4,
        "brackets": [
            {"i": 1, "j": 2, "k": 3, "c": "1"},
            {"i": 2, "j": 3, "k": 4, "c": "1"},
            {"i": 1, "j": 3, "k": 4, "c": "1"},
            {"i": 1, "j": 4, "k": 4, "c": "1"},
        ],
    }
)


@pytest.mark.parametrize("command", ["validate", "cohomology", "symplectic", "csplit"])
def test_cli_validates_each_job_once(tmp_path, capsys, monkeypatch, command):
    from nilsplit import lie_algebras

    calls = []
    real = lie_algebras._validate

    def spy(spec, dga):
        calls.append(spec.dim)
        return real(spec, dga)

    monkeypatch.setattr(lie_algebras, "_validate", spy)
    code, _, _ = run_cli(capsys, command, "kodaira-thurston", "--format", "machine")
    assert code == 0
    assert calls == [4]

    bad = tmp_path / "bad.json"
    bad.write_text(JACOBI_FAILS)
    calls.clear()
    code, out, _ = run_cli(capsys, command, str(bad), "--format", "machine")
    assert code == 2
    assert calls == [4]
    assert json.loads(out)["validation"]["jacobi_ok"] is False


def test_cli_shared_parser_carries_nothing_between_calls(capsys, monkeypatch):
    """main() reuses one parser; each report equals a fresh parser's."""
    from nilsplit import cli

    argvs = [
        ["csplit", "torus2", "--alpha", "1,0", "--format", "machine"],
        ["csplit", "torus2"],
        ["cohomology", "torus2", "--max-degree", "1", "--format", "machine"],
        ["cohomology", "torus2"],
        ["symplectic", "kodaira-thurston", "--seed", "3", "--format", "machine"],
        ["symplectic", "kodaira-thurston"],
    ]
    shared = [run_cli(capsys, *argv) for argv in argvs]
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [run_cli(capsys, *argv) for argv in argvs]
    assert shared == fresh
    assert "alpha_zero: True" in shared[1][1]


def test_cli_unknown_input_is_error(capsys):
    code, _, err = run_cli(capsys, "validate", "no-such-algebra")
    assert code == 2
    assert "unknown catalog" in err


def test_cli_cohomology_machine(capsys):
    code, out, _ = run_cli(capsys, "cohomology", "kodaira-thurston", "--format", "machine")
    assert code == 0
    data = json.loads(out)
    assert data["cohomology"]["betti"] == [1, 3, 4, 3, 1]
    assert data["cohomology"]["poincare_duality"] is True
    assert data["cohomology"]["euler_characteristic"] == 0


def test_cli_cohomology_other_catalog_entries(capsys):
    code, out, _ = run_cli(capsys, "cohomology", "torus4", "--format", "machine")
    assert json.loads(out)["cohomology"]["betti"] == [1, 4, 6, 4, 1]
    code, out, _ = run_cli(capsys, "cohomology", "heisenberg3", "--format", "machine")
    assert json.loads(out)["cohomology"]["betti"] == [1, 2, 2, 1]


def test_cli_symplectic_kt(capsys):
    code, out, _ = run_cli(capsys, "symplectic", "kodaira-thurston", "--format", "machine")
    assert code == 0
    data = json.loads(out)
    assert data["certificate"]["symplectic"] is True
    table = data["hard_lefschetz"]["table"]
    assert [e["isomorphism"] for e in table] == [True, False, True]
    assert data["hard_lefschetz"]["holds"] is False


def test_cli_symplectic_torus_passes_hl(capsys):
    code, out, _ = run_cli(capsys, "symplectic", "torus4", "--format", "machine")
    assert code == 0
    data = json.loads(out)
    assert data["hard_lefschetz"]["holds"] is True


def test_cli_symplectic_heisenberg3_definitive_none(capsys):
    code, out, _ = run_cli(capsys, "symplectic", "heisenberg3", "--format", "machine")
    assert code == 3
    data = json.loads(out)
    assert data["search"]["status"] == "definitively-none"


def test_cli_symplectic_h5r_definitive_none(capsys):
    code, out, _ = run_cli(
        capsys, "symplectic", "heisenberg5-plus-r", "--format", "machine"
    )
    assert code == 3
    assert json.loads(out)["search"]["status"] == "definitively-none"


def test_cli_symplectic_search_without_document_omega(tmp_path, capsys):
    doc = tmp_path / "t4.json"
    doc.write_text('{"name":"t4","dim":4,"brackets":[]}')
    code, out, _ = run_cli(capsys, "symplectic", str(doc), "--seed", "9", "--format", "machine")
    assert code == 0
    data = json.loads(out)
    assert data["search"]["status"] == "found"
    assert data["omega"]["source"] == "search"
    assert "seed" not in data


@pytest.mark.parametrize("fmt", ["machine", "human"])
@pytest.mark.parametrize(
    "argv",
    [
        ["symplectic", "kodaira-thurston"],
        ["symplectic", "heisenberg5-plus-r"],
        ["csplit", "h3-plus-h3"],
        ["csplit", "torus2", "--alpha", "1,0"],
    ],
)
def test_cli_seed_is_accepted_and_ignored(capsys, argv, fmt):
    """The search is deterministic: --seed changes no byte of the output."""
    plain = run_cli(capsys, *argv, "--format", fmt)
    seeded = run_cli(capsys, *argv, "--seed", "9", "--format", fmt)
    assert seeded == plain


def test_cli_seed_is_refused_off_the_search_subcommands(capsys):
    for argv in (["validate", "torus2"], ["cohomology", "torus2"], ["catalog", "--list"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "9"])
        assert exc.value.code == 2, argv
        assert "--seed" in capsys.readouterr().err


def test_cli_reports_are_byte_stable(capsys):
    _, first, _ = run_cli(capsys, "csplit", "kodaira-thurston", "--format", "machine")
    _, second, _ = run_cli(capsys, "csplit", "kodaira-thurston", "--format", "machine")
    assert first == second


def test_cli_csplit_solve_kt(capsys):
    code, out, _ = run_cli(capsys, "csplit", "kodaira-thurston", "--format", "machine")
    assert code == 0
    data = json.loads(out)
    assert data["forcing"]["forced_zero"] is True
    assert data["forcing"]["solution_dimension"] == 0
    assert data["total_betti"] == [1, 3, 5, 6, 5, 3, 1]
    assert data["csplit"]["c_splits"] is True
    assert data["csplit"]["alpha_zero"] is True
    assert set(data["csplit"]) == {"alpha_zero", "c_splits", "cap", "expected_convolution", "total"}
    assert data["status"] == "forced-zero"


def test_cli_csplit_explicit_alpha_torus2(capsys):
    code, out, _ = run_cli(
        capsys, "csplit", "torus2", "--alpha", "1,0", "--format", "machine"
    )
    assert code == 0
    data = json.loads(out)
    assert data["obstruction"]["hamiltonian"] is False
    assert data["obstruction"]["d_omega_total"] == "a*x2"
    assert data["total_betti"] == [1, 1, 0, 1, 1]
    assert data["csplit"]["c_splits"] is False


def test_cli_csplit_zero_alpha_torus2(capsys):
    code, out, _ = run_cli(
        capsys, "csplit", "torus2", "--alpha", "0,0", "--format", "machine"
    )
    assert code == 0
    data = json.loads(out)
    assert data["obstruction"]["hamiltonian"] is True
    assert data["total_betti"] == [1, 2, 2, 2, 1]
    assert data["csplit"]["c_splits"] is True


def test_cli_csplit_invalid_twist_exit4(capsys):
    cases = (
        (("--alpha", "1,0,0,0"), "-a*x2"),
        (("--base", "formal:2", "--alpha=0,1;0,0;0,0;1,0"), "-a2*x2"),
    )
    for flags, d_squared in cases:
        code, out, _ = run_cli(capsys, "csplit", "kodaira-thurston", *flags, "--format", "machine")
        assert code == 4, flags
        data = json.loads(out)
        assert data["status"] == "invalid-twist"
        assert data["twist_error"] == {"generator": "x3", "d_squared": d_squared}
        assert "csplit" not in data and "obstruction" not in data


def test_cli_csplit_checks_d_squared_once(capsys, monkeypatch):
    """One D^2 check for an explicit twist, none for the product model."""
    from nilsplit.exterior import FreeDGA

    calls = []
    real = FreeDGA.flatness_witness

    def spy(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(FreeDGA, "flatness_witness", spy)
    code, _, _ = run_cli(
        capsys, "csplit", "kodaira-thurston", "--alpha", "0,0,1,0", "--format", "machine"
    )
    assert code == 0
    assert len(calls) == 1

    calls.clear()
    code, _, _ = run_cli(capsys, "csplit", "kodaira-thurston", "--format", "machine")
    assert code == 0
    assert calls == []

    code, out, _ = run_cli(
        capsys, "csplit", "kodaira-thurston", "--alpha", "1,0,0,0", "--format", "machine"
    )
    assert code == 4
    assert len(calls) == 1
    assert json.loads(out)["twist_error"] == {"generator": "x3", "d_squared": "-a*x2"}


def test_cli_csplit_formal_base(capsys):
    code, out, _ = run_cli(
        capsys,
        "csplit",
        "kodaira-thurston",
        "--base",
        "formal:2",
        "--format",
        "machine",
    )
    assert code == 0
    data = json.loads(out)
    assert data["forcing"]["forced_zero"] is True


def test_cli_csplit_formal_base_explicit_alpha(capsys):
    code, out, _ = run_cli(
        capsys,
        "csplit",
        "torus4",
        "--base",
        "formal:2",
        "--alpha",
        "0,0;0,0;0,0;0,0",
        "--format",
        "machine",
    )
    assert code == 0
    data = json.loads(out)
    assert data["obstruction"]["hamiltonian"] is True
    assert data["csplit"]["c_splits"] is True

    code, out, _ = run_cli(
        capsys,
        "csplit",
        "torus4",
        "--base",
        "formal:2",
        "--alpha",
        "1,0;0,0;0,0;0,0",
        "--format",
        "machine",
    )
    assert code == 0
    data = json.loads(out)
    assert data["obstruction"]["hamiltonian"] is False


def test_cli_csplit_row_syntax_for_sphere_base(capsys):
    code, out, _ = run_cli(
        capsys, "csplit", "torus2", "--alpha", "1;0", "--format", "machine"
    )
    assert code == 0
    assert json.loads(out)["total_betti"] == [1, 1, 0, 1, 1]


def test_cli_csplit_non_symplectic_exit3(capsys):
    code, out, _ = run_cli(
        capsys, "csplit", "heisenberg5-plus-r", "--format", "machine"
    )
    assert code == 3


def test_cli_csplit_odd_dim_exit3(capsys):
    code, _, _ = run_cli(capsys, "csplit", "heisenberg3", "--format", "machine")
    assert code == 3


def test_cli_csplit_odd_dim_malformed_base_or_alpha_exit2(capsys):
    # a malformed --base or --alpha is an input error before the odd dimension
    for flags in (("--base", "bogus"), ("--alpha", "1,2")):
        code, out, err = run_cli(capsys, "csplit", "heisenberg3", *flags)
        assert code == 2, flags
        assert out == ""
        assert err.startswith("error: "), flags


def test_cli_catalog_list_and_emit(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--list")
    assert code == 0
    names = out.strip().splitlines()
    assert len(names) >= 7
    assert "kodaira-thurston" in names

    code, out, _ = run_cli(capsys, "catalog", "--emit", "kodaira-thurston")
    assert code == 0
    doc = parse_document(out)
    assert doc.brackets == ((1, 2, 3, F(1)),)
    assert emit_document(doc) == out

    code, _, err = run_cli(capsys, "catalog", "--emit", "nope")
    assert code == 2

    assert run_cli(capsys, "catalog") == (2, "", "error: catalog: pass --list or --emit NAME\n")

    code, out, _ = run_cli(capsys, "catalog", "--list", "--format", "machine")
    assert code == 0 and json.loads(out) == {"catalog": catalog.names()}


def test_cli_emitted_document_reingests_identically(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "catalog", "--emit", "h3-plus-h3")
    path = tmp_path / "h3h3.json"
    path.write_text(out)
    code, out2, _ = run_cli(capsys, "cohomology", str(path), "--format", "machine")
    assert code == 0
    data = json.loads(out2)
    assert data["cohomology"]["betti"][1] == 4  # b1 = 6 - dim[g,g] = 4


def test_cli_omega_from_file_flag(tmp_path, capsys):
    doc = tmp_path / "plain-t4.json"
    doc.write_text('{"name":"t","dim":4,"brackets":[]}')
    code, _, err = run_cli(
        capsys, "symplectic", str(doc), "--omega-from-file", "--format", "machine"
    )
    assert code == 2
    assert "no omega field" in err


def test_cli_hard_lefschetz_of_a_rational_document_form(tmp_path, capsys):
    """A document omega with non-unit rational coefficients on h3 + R^5:
    the CLI's hard Lefschetz ranks equal the dense oracle's."""
    coeffs = [
        (1, 2, "-1/2"), (1, 3, "3/2"), (1, 8, "-9/4"), (2, 3, "2/3"),
        (2, 4, "2/5"), (4, 5, "3/7"), (5, 6, "7/3"), (7, 8, "5/4"),
    ]
    doc = tmp_path / "h3-r5-rational.json"
    doc.write_text(json.dumps({
        "name": "h3-r5",
        "dim": 8,
        "brackets": [{"i": 1, "j": 2, "k": 3, "c": "1"}],
        "omega": [{"i": i, "j": j, "c": c} for i, j, c in coeffs],
    }))
    code, out, _ = run_cli(
        capsys, "symplectic", str(doc), "--omega-from-file", "--format", "machine"
    )
    assert code == 0
    data = json.loads(out)
    assert data["omega"]["source"] == "document"
    model = ce_model(LieAlgebraSpec(dim=8, brackets=((1, 2, 3, F(1)),)))
    omega = SymplecticForm.from_coeffs(model, [(i, j, F(c)) for i, j, c in coeffs]).omega
    table = data["hard_lefschetz"]["table"]
    assert [e["rank"] for e in table] == lefschetz_ranks_naive(model.dga, omega, 4)
    assert [e["rank"] < e["betti"] for e in table] == [False, True, True, True, False]


def test_cli_document_omega_not_symplectic_exit3(tmp_path, capsys):
    doc = tmp_path / "degenerate.json"
    doc.write_text(
        '{"name":"t","dim":4,"brackets":[],"omega":[{"i":1,"j":2,"c":"1"}]}'
    )
    code, out, _ = run_cli(capsys, "symplectic", str(doc), "--format", "machine")
    assert code == 3
    data = json.loads(out)
    assert data["status"] == "omega-not-symplectic"
    assert data["certificate"]["nondegenerate"] is False
    assert data["certificate"]["kernel_witness"] is not None


def test_cli_cohomology_respects_small_max_degree(capsys):
    code, out, _ = run_cli(
        capsys,
        "cohomology",
        "kodaira-thurston",
        "--max-degree",
        "2",
        "--format",
        "machine",
    )
    assert code == 0
    data = json.loads(out)
    assert data["cohomology"]["betti"] == [1, 3, 4]
    # both need every degree up to dim 4: not computed below it
    assert data["cohomology"]["poincare_duality"] is None
    assert data["cohomology"]["euler_characteristic"] is None


def test_cli_cohomology_max_degree_bounds_the_slices(capsys, monkeypatch):
    from nilsplit import cohomology

    built = []
    real = cohomology.DegreeSlice

    def spy(dga, degree):
        built.append(degree)
        return real(dga, degree)

    monkeypatch.setattr(cohomology, "DegreeSlice", spy)
    code, out, _ = run_cli(
        capsys, "cohomology", "torus6", "--max-degree", "2", "--format", "machine"
    )
    assert code == 0
    assert sorted(built) == [0, 1, 2]
    data = json.loads(out)["cohomology"]
    assert data["betti"] == [1, 6, 15]
    assert data["euler_characteristic"] is None


def test_cli_builds_each_fiber_slice_once_per_job(tmp_path, capsys, monkeypatch):
    """The search, hard Lefschetz and csplit read one analyzer per model."""
    from collections import Counter

    from nilsplit import cohomology

    built = Counter()
    real = cohomology.DegreeSlice

    def spy(dga, degree):
        built[len(dga.algebra.generators), degree] += 1
        return real(dga, degree)

    monkeypatch.setattr(cohomology, "DegreeSlice", spy)
    doc = tmp_path / "kt-no-omega.json"
    doc.write_text('{"name":"kt","dim":4,"brackets":[{"i":1,"j":2,"k":3,"c":"1"}]}')
    for argv in (
        ("symplectic", str(doc)),
        ("csplit", str(doc)),
        ("csplit", str(doc), "--base", "formal:2"),
    ):
        built.clear()
        code, _, _ = run_cli(capsys, *argv, "--format", "machine")
        assert code == 0, argv
        # the fiber is the one 4-generator DGA: its slice (4, 2) is read by
        # the search and by hard Lefschetz or the Kunneth vector
        fiber = {key: count for key, count in built.items() if key[0] == 4}
        assert fiber[4, 2] == 1 and set(fiber.values()) == {1}, (argv, fiber)


def test_cli_cohomology_full_cap_reports_duality(capsys):
    for cap in ("4", "6"):
        code, out, _ = run_cli(
            capsys, "cohomology", "kodaira-thurston", "--max-degree", cap, "--format", "machine"
        )
        assert code == 0
        data = json.loads(out)["cohomology"]
        assert data["poincare_duality"] is True
        assert data["euler_characteristic"] == 0
        assert data["betti"][:5] == [1, 3, 4, 3, 1]


def test_cli_symplectic_report_of_a_decided_negative(capsys):
    code, out, _ = run_cli(
        capsys, "symplectic", "heisenberg5-plus-r", "--seed", "4", "--format", "machine"
    )
    assert code == 3
    data = json.loads(out)
    assert data["status"] == "definitively-none"
    assert data["search"]["closed_two_form_dim"] == 10
    # the center x5 of h5 lies in the common kernel of every closed 2-form
    assert data["search"]["reason"] == (
        "iota_X omega = 0 for every closed 2-form omega at X = (0, 0, 0, 0, 1, 0) "
        "in their common kernel, so none is nondegenerate"
    )


def test_cli_bad_base_or_alpha_specs(capsys):
    code, _, err = run_cli(capsys, "csplit", "torus2", "--base", "s3")
    assert code == 2
    # formal:M takes ASCII digits only, not what int() also reads
    for spec in ("formal:1_0", "formal:\u0663", "formal: 2", "formal:+2", "formal:"):
        code, out, err = run_cli(capsys, "csplit", "kodaira-thurston", "--base", spec)
        assert (code, out, err) == (2, "", f"error: bad base spec {spec!r}\n"), spec
    code, out, _ = run_cli(
        capsys, "csplit", "kodaira-thurston", "--base", "formal:02", "--format", "machine"
    )
    assert code == 0 and json.loads(out)["base"] == "formal:02"
    code, _, err = run_cli(capsys, "csplit", "torus2", "--alpha", "1,2,3")
    assert code == 2
    code, _, err = run_cli(capsys, "csplit", "torus2", "--alpha", "x,y")
    assert code == 2
    refusals = [
        (("kodaira-thurston", "--base", "formal:0"), "formal base needs at least one generator"),
        (("torus2", "--base", "formal:2", "--alpha", "1,0"), "alpha needs 2 rows of 2 entries, got 1"),
        (("torus2", "--base", "formal:2", "--alpha", "1,0;0"), "alpha row 2 needs 2 entries"),
    ]
    for argv, message in refusals:
        assert run_cli(capsys, "csplit", *argv) == (2, "", f"error: {message}\n"), argv


def test_cli_alpha_with_leading_minus_parses_as_value(capsys):
    code, out, _ = run_cli(
        capsys, "csplit", "torus2", "--alpha", "-1,0", "--format", "machine"
    )
    assert code == 0
    glued = run_cli(capsys, "csplit", "torus2", "--alpha=-1,0", "--format", "machine")
    assert (code, out) == glued[:2]
    assert json.loads(out)["total_betti"] == [1, 1, 0, 1, 1]
    # heisenberg3 is odd-dimensional: refused for that, not for the alpha
    code, _, _ = run_cli(capsys, "csplit", "heisenberg3", "--alpha", "-1,0,0")
    assert code == 3


def test_cli_directory_input_is_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "validate", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_non_utf8_input_is_error(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(GOOD.replace('"kt"', '"k\xe9"').encode("latin-1"))
    code, out, err = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "UTF-8" in err and err.count("\n") == 1


def test_cli_negative_max_degree_is_error(capsys):
    for argv in (
        ("cohomology", "heisenberg3", "--max-degree", "-1"),
        ("csplit", "kodaira-thurston", "--max-degree", "-1"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ") and "--max-degree" in err
