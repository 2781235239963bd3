"""Deterministic report assembly and rendering.

Reports are plain dicts holding only JSON-safe values (strings, ints,
bools, lists, dicts, None); every algebraic object is stringified by the
caller before insertion. Machine rendering is sorted-key JSON and human
rendering is a stable indented text layout; identical inputs therefore
produce byte-identical output in both formats.
"""

from __future__ import annotations

import json

from . import __version__


def base_report(input_name: str, input_digest: str, source: str) -> dict:
    return {
        "tool": {"name": "nilsplit", "version": __version__},
        "input": {"name": input_name, "digest": input_digest, "source": source},
    }


def render_machine(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _human_lines(value, indent: int, lines: list[str], label):
    pad = "  " * indent
    if isinstance(value, dict):
        if label is not None:
            lines.append(f"{pad}{label}:")
            indent += 1
        for key, item in value.items():
            _human_lines(item, indent, lines, key)
    elif isinstance(value, list):
        if label is not None:
            lines.append(f"{pad}{label}:")
        for item in value:
            if isinstance(item, (dict, list)):
                _human_lines(item, indent + 1, lines, "-")
            else:
                lines.append(f"{pad}  - {item}")
    else:
        shown = "none" if value is None else value
        lines.append(f"{pad}{label}: {shown}")


def render_human(report: dict) -> str:
    lines: list[str] = []
    for key, value in report.items():
        if isinstance(value, (dict, list)):
            lines.append(f"== {key} ==")
            _human_lines(value, 0, lines, None if isinstance(value, dict) else key)
        else:
            _human_lines(value, 0, lines, key)
    return "\n".join(lines) + "\n"


def render(report: dict, fmt: str) -> str:
    if fmt == "machine":
        return render_machine(report)
    if fmt == "human":
        return render_human(report)
    raise ValueError(f"unknown format {fmt!r}")
