"""Strict parsing and canonical emission of algebra documents.

A document is a single JSON object:

    {
      "name": "kodaira-thurston",
      "dim": 4,
      "brackets": [{"i": 1, "j": 2, "k": 3, "c": "1"}],
      "omega": [{"i": 1, "j": 4, "c": "1"}, {"i": 2, "j": 3, "c": "1"}]
    }

Rationals are strings ("3", "-1/2") of ASCII digits and nothing else:
exactness forbids float literals, and a string keeps every parser honest.
Unknown fields anywhere are rejected; indices are 1-based with i < j.
"omega" is optional and names a candidate symplectic form. Emission is
canonical, so emit(parse(emit(d))) is byte-identical to emit(d).
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import DocumentError
from .lie_algebras import LieAlgebraSpec

# ASCII digits only, and the whole string: re's \d takes any Unicode digit
# and $ matches before a final newline
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(text, where: str) -> Fraction:
    if not isinstance(text, str):
        raise DocumentError(f"{where}: rationals must be strings, got {text!r}")
    if not _RATIONAL_RE.fullmatch(text):
        raise DocumentError(f"{where}: not a rational literal: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise DocumentError(f"{where}: zero denominator in rational {text!r}") from None
    except ValueError:  # past the interpreter's integer digit limit
        raise DocumentError(f"{where}: rational literal has too many digits") from None


def _require_int(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise DocumentError(f"{where}: expected an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class AlgebraDocument:
    """Serializable algebra input: dimension, brackets, optional omega."""

    name: str
    dim: int
    brackets: tuple[tuple[int, int, int, Fraction], ...]
    omega: tuple[tuple[int, int, Fraction], ...] | None = None

    def to_spec(self) -> LieAlgebraSpec:
        return LieAlgebraSpec(dim=self.dim, brackets=self.brackets, name=self.name)

    def omega_coeffs(self):
        if self.omega is None:
            return None
        return [(i, j, c) for i, j, c in self.omega]


def _parse_pair_list(raw, dim: int, where: str, with_k: bool):
    if not isinstance(raw, list):
        raise DocumentError(f"{where}: expected a list")
    out = []
    allowed = {"i", "j", "k", "c"} if with_k else {"i", "j", "c"}
    for idx, entry in enumerate(raw):
        here = f"{where}[{idx}]"
        if not isinstance(entry, dict):
            raise DocumentError(f"{here}: expected an object")
        unknown = set(entry) - allowed
        if unknown:
            raise DocumentError(f"{here}: unknown fields {sorted(unknown)}")
        missing = allowed - set(entry)
        if missing:
            raise DocumentError(f"{here}: missing fields {sorted(missing)}")
        i = _require_int(entry["i"], f"{here}.i")
        j = _require_int(entry["j"], f"{here}.j")
        if not 1 <= i < j <= dim:
            raise DocumentError(
                f"{here}: need 1 <= i < j <= {dim}, got i={i}, j={j}"
            )
        c = parse_rational(entry["c"], f"{here}.c")
        if with_k:
            k = _require_int(entry["k"], f"{here}.k")
            if not 1 <= k <= dim:
                raise DocumentError(f"{here}: need 1 <= k <= {dim}, got k={k}")
            out.append((i, j, k, c))
        else:
            out.append((i, j, c))
    seen = set()
    for entry in out:
        key = entry[:-1]  # (i, j, k) or (i, j)
        if key in seen:
            raise DocumentError(f"{where}: duplicate entry for ({','.join(map(str, key))})")
        seen.add(key)
    return tuple(out)


def parse_document(text: str) -> AlgebraDocument:
    """Parse a document, rejecting anything outside the grammar."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from None
    except ValueError:  # an integer past the interpreter's digit limit
        raise DocumentError("not valid JSON: an integer has too many digits") from None
    except RecursionError:  # arrays or objects nested past the parser's stack
        raise DocumentError("not valid JSON: nested too deeply") from None
    if not isinstance(raw, dict):
        raise DocumentError("top level must be a JSON object")
    unknown = set(raw) - {"name", "dim", "brackets", "omega"}
    if unknown:
        raise DocumentError(f"unknown top-level fields {sorted(unknown)}")
    for field in ("name", "dim", "brackets"):
        if field not in raw:
            raise DocumentError(f"missing required field {field!r}")
    if not isinstance(raw["name"], str):
        raise DocumentError("name: expected a string")
    dim = _require_int(raw["dim"], "dim")
    if dim < 1:
        raise DocumentError(f"dim: must be positive, got {dim}")
    brackets = _parse_pair_list(raw["brackets"], dim, "brackets", with_k=True)
    omega = None
    if "omega" in raw and raw["omega"] is not None:
        omega = _parse_pair_list(raw["omega"], dim, "omega", with_k=False)
    return AlgebraDocument(name=raw["name"], dim=dim, brackets=brackets, omega=omega)


def emit_document(doc: AlgebraDocument) -> str:
    """Canonical JSON encoding with a trailing newline."""
    obj: dict = {
        "name": doc.name,
        "dim": doc.dim,
        "brackets": [{"i": i, "j": j, "k": k, "c": str(c)} for i, j, k, c in doc.brackets],
    }
    if doc.omega is not None:
        obj["omega"] = [{"i": i, "j": j, "c": str(c)} for i, j, c in doc.omega]
    return json.dumps(obj, indent=2) + "\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
