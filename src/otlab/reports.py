"""Report serialization: canonical JSON, schema checks, CSV curves.

Every command is a pure function of (config, seed), so reports are
emitted through one canonical serializer; replaying a report re-runs
its command and byte-compares the result.  Reports are checked in-package
against the shipped schema/report.schema.json by a small checker that
knows exactly the keywords that schema uses; the tests hold it to the
verdicts and messages of a full JSON Schema validator.
"""

from __future__ import annotations

import csv
import functools
import io
import json
from importlib import resources
from typing import Callable, Optional, Sequence

from . import __version__

CSV_HEADER = ("x", "y", "ci_low", "ci_high")


class ReportError(Exception):
    """A report that breaks the schema.  Not a ValueError: from
    build_report it is a bug, not a config error."""


# JSON Schema types: 1.0 is an integer, True is not
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: (isinstance(v, (int, float))
                         and not isinstance(v, bool)),
}
_TYPES["integer"] = lambda v: (_TYPES["number"](v)
                               and (isinstance(v, int) or v.is_integer()))
_KEYWORDS = {"$schema", "title", "type", "required", "properties",
             "additionalProperties", "enum", "minimum", "items"}


def compile_schema(schema: dict) -> Callable[[object], None]:
    """A check that raises ReportError with the JSON Schema message.

    Only the keywords of report.schema.json are known, with string enums
    and a boolean additionalProperties; any other form raises here.
    """
    kind, enum, minimum = (schema.get(k) for k in ("type", "enum", "minimum"))
    closed = schema.get("additionalProperties", True)
    if (set(schema) - _KEYWORDS or kind not in (None, *_TYPES)
            or not isinstance(closed, bool)
            or not all(isinstance(e, str) for e in enum or ())):
        raise NotImplementedError(f"report schema form not checked: {schema}")
    props = {k: compile_schema(s)
             for k, s in schema.get("properties", {}).items()}
    items = compile_schema(schema["items"]) if "items" in schema else None

    def check(value) -> None:
        if kind is not None and not _TYPES[kind](value):
            raise ReportError(f"{value!r} is not of type {kind!r}")
        if enum is not None and value not in enum:
            raise ReportError(f"{value!r} is not one of {enum!r}")
        if minimum is not None and _TYPES["number"](value) and value < minimum:
            raise ReportError(
                f"{value!r} is less than the minimum of {minimum!r}")
        if isinstance(value, dict):
            for key in schema.get("required", ()):
                if key not in value:
                    raise ReportError(f"{key!r} is a required property")
            extra = sorted((k for k in value if k not in props), key=str)
            if extra and not closed:
                raise ReportError(
                    "Additional properties are not allowed ("
                    f"{', '.join(map(repr, extra))} "
                    f"{'was' if len(extra) == 1 else 'were'} unexpected)")
            for key, sub in props.items():
                if key in value:
                    sub(value[key])
        if isinstance(value, list) and items is not None:
            for item in value:
                items(item)
    return check


@functools.cache
def _report_check() -> Callable[[object], None]:
    """The shipped schema, parsed and compiled once per process."""
    text = resources.files("otlab").joinpath(
        "schema/report.schema.json").read_text()
    return compile_schema(json.loads(text))


def validate_report(report: dict) -> None:
    _report_check()(report)


def build_report(command: str, config: dict, seed: int, derived: dict,
                 aggregates: dict,
                 trials: Optional[list] = None) -> dict:
    report = {
        "version": __version__,
        "command": command,
        "seed": seed,
        "config": config,
        "derived": derived,
        "aggregates": aggregates,
    }
    if trials is not None:
        report["trials"] = trials
    validate_report(report)
    return report


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_report(path: str, report: dict) -> None:
    with open(path, "w") as fh:
        fh.write(canonical_json(report))


def render_csv(rows: Sequence[Sequence[float]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        if len(row) != len(CSV_HEADER):
            raise ValueError(f"curve rows need {len(CSV_HEADER)} columns")
        writer.writerow([repr(float(v)) for v in row])
    return buf.getvalue()


def write_csv(path: str, rows: Sequence[Sequence[float]]) -> None:
    with open(path, "w") as fh:
        fh.write(render_csv(rows))
