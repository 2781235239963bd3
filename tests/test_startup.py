"""`import nilsplit.cli` loads every module a subcommand uses and no heavy stdlib extras."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

NOT_LOADED = ["dataclasses", "inspect", "typing", "ast", "dis"]
NILSPLIT = "exterior linalg cohomology lie_algebras symplectic bundles documents catalog reports"
LOADED = [f"nilsplit.{m}" for m in NILSPLIT.split()] + ["hashlib", "json", "argparse", "fractions"]


def test_cli_import_loads_no_dataclasses_and_defers_nothing():
    script = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import nilsplit.cli; "
        "print('\\n'.join(sorted(sys.modules)))"
    )
    # -I ignores PYTHONDONTWRITEBYTECODE, so -B keeps the child from writing into src
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", script], capture_output=True, text=True, check=True
    ).stdout
    modules = set(out.split())
    assert [m for m in NOT_LOADED if m in modules] == []
    assert [m for m in LOADED if m not in modules] == []
