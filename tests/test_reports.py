"""The in-package report checker against jsonschema, the reference validator.

`validate_report` interprets report.schema.json itself so that no command
pays for importing jsonschema.  Here both read the same shipped schema
and must agree, verdict and message, on the golden corpus and on
mutations of it that break each rule of the schema once.
"""

import json
from pathlib import Path

import pytest

from otlab.reports import ReportError, compile_schema, validate_report

jsonschema = pytest.importorskip("jsonschema")

SCHEMA = json.loads((Path(__file__).resolve().parents[1] / "src" / "otlab"
                     / "schema" / "report.schema.json").read_text())
GOLDEN = sorted((Path(__file__).resolve().parent / "golden").glob("*.json"))


def _mutations(report):
    yield "as is", report
    for key in SCHEMA["required"]:
        yield f"no {key}", {k: v for k, v in report.items() if k != key}
    yield "extra key", {**report, "extra": 1}
    yield "two extra keys", {**report, "zz": 1, "extra": 2}
    for seed in (-1, True, 1.0, 1.5, 2 ** 70):
        yield f"seed {seed!r}", {**report, "seed": seed}
    yield "unknown command", {**report, "command": "frobnicate"}
    yield "non-string version", {**report, "version": 2}
    yield "config as a list", {**report, "config": []}
    yield "trials as an object", {**report, "trials": {}}
    yield "trials as [1]", {**report, "trials": [1]}


def _cases():
    for path in GOLDEN:
        for what, report in _mutations(json.loads(path.read_text())):
            yield f"{path.stem}: {what}", report
    for other in ([], "report", None, 3):
        yield f"non-object {other!r}", other


def _reference(report):
    try:
        jsonschema.validate(report, SCHEMA)
    except jsonschema.ValidationError as exc:
        return exc.message
    return None


def _ours(report):
    try:
        validate_report(report)
    except ReportError as exc:
        return str(exc)
    return None


def test_checker_agrees_with_jsonschema():
    assert len(GOLDEN) == 18
    valid = 0
    for name, report in _cases():
        want = _reference(report)
        assert _ours(report) == want, name
        valid += want is None
    # each golden report passes as is, with seed 1.0 and with seed 2**70
    assert valid == 3 * len(GOLDEN)


@pytest.mark.parametrize("schema", [
    {"type": "object", "maxProperties": 3},
    # a subschema that no report reaches is compiled, and refused, too
    {"properties": {"trials": {"items": {"pattern": "^x"}}}},
    {"type": "null"},
    {"additionalProperties": {"type": "string"}},
    {"enum": ["run", 1]},
])
def test_unknown_schema_form_raises(schema):
    with pytest.raises(NotImplementedError):
        compile_schema(schema)

