"""Scenario files: schema, validation, loading, expectations.

A scenario file is versioned JSON with a list of named scenarios.  Each
scenario names its building blocks, the glue case, and per-case data
(line identifications with node markers, or a derivation datum {a, b}).
Unknown fields are rejected.  An optional ``expect`` block records the
intended report values; the CLI exits nonzero when they do not match.
"""

from __future__ import annotations

import json

import jsonschema

from dpglue.catalog import GlueScenario, building_block, identification_points
from dpglue.fields import base_field
from dpglue.glue import glue_data

_POINT = {"type": ["integer", "string"]}

_IDENTIFICATION = {
    "type": "object",
    "additionalProperties": False,
    "required": ["map", "node", "nodeTarget"],
    "properties": {
        "map": {
            "type": "array",
            "minItems": 3,
            "maxItems": 3,
            "items": {
                "type": "array",
                "minItems": 2,
                "maxItems": 2,
                "items": _POINT,
            },
        },
        "node": _POINT,
        "nodeTarget": _POINT,
    },
}

_EXPECT = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "gorenstein": {"type": "boolean"},
        "case": {"type": ["string", "null"]},
        "chi": {"type": ["integer", "null"]},
        "h1": {"type": ["integer", "null"]},
        "tame": {"type": "boolean"},
        "singularity": {"type": "string"},
        "degree": {"type": "integer"},
        "wildPoints": {"type": "array"},
    },
}

_SCENARIO = {
    "type": "object",
    "additionalProperties": False,
    "required": ["name", "characteristic", "blocks", "glueCase"],
    "properties": {
        "name": {"type": "string"},
        "characteristic": {"type": "integer", "minimum": 0},
        "blocks": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["case"],
                "properties": {
                    "case": {
                        "enum": ["a1", "a2", "a3", "b", "c0", "c1", "c2",
                                 "d0", "d1", "e"]
                    },
                    "a": {"type": "integer", "minimum": 0},
                },
            },
        },
        "glueCase": {"enum": ["A", "B", "C", "D"]},
        "cover": {"enum": ["separable", "inseparable"]},
        "identifications": {"type": "array", "items": _IDENTIFICATION},
        "derivation": {
            "type": "object",
            "additionalProperties": False,
            "required": ["a", "b"],
            "properties": {
                "a": {"type": "string"},
                "b": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"type": "string"},
                },
            },
        },
        "equations": {"type": "array", "items": {"type": "string"}},
        "expect": _EXPECT,
    },
}

SCENARIO_FILE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["version", "scenarios"],
    "properties": {
        "version": {"const": "1"},
        "scenarios": {"type": "array", "minItems": 1, "items": _SCENARIO},
    },
}

PARAM_FILE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["version", "checks"],
    "properties": {
        "version": {"const": "1"},
        "checks": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["characteristic", "hypersurface", "variables",
                             "substitution", "targetVariables"],
                "properties": {
                    "name": {"type": "string"},
                    "characteristic": {"type": "integer", "minimum": 0},
                    "hypersurface": {"type": "string"},
                    "variables": {"type": "array",
                                  "items": {"type": "string"}},
                    "substitution": {
                        "type": "object",
                        "additionalProperties": {"type": "string"},
                    },
                    "targetVariables": {"type": "array",
                                        "items": {"type": "string"}},
                },
            },
        },
    },
}


class ScenarioFileError(ValueError):
    pass


def validate_document(doc, schema=SCENARIO_FILE_SCHEMA):
    validator = jsonschema.Draft202012Validator(schema)
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.path))
    if errors:
        lines = []
        for e in errors:
            where = "/".join(str(p) for p in e.path) or "<root>"
            lines.append(f"{where}: {e.message}")
        raise ScenarioFileError("; ".join(lines))


def scenario_from_dict(entry: dict):
    """(GlueScenario, expect dict or None).

    The characteristic must be 0 or prime, identification points
    integers or 'inf' and distinct in the field, and derivation b_i
    nonzero.
    """
    field = base_field(entry["characteristic"])
    for ident in entry.get("identifications", []):
        identification_points(field, ident)
    blocks = [building_block(b["case"], b.get("a")) for b in entry["blocks"]]
    derivation = None
    if "derivation" in entry:
        d = entry["derivation"]
        derivation = glue_data(entry["characteristic"], d["a"], d["b"])
    scenario = GlueScenario(
        characteristic=entry["characteristic"],
        blocks=blocks,
        glue_case=entry["glueCase"],
        identifications=entry.get("identifications", []),
        derivation=derivation,
        cover=entry.get("cover", "separable"),
        name=entry["name"],
    )
    return scenario, entry.get("expect")


def _read_document(path: str, schema):
    """Open, parse and validate one JSON file against ``schema``."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioFileError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:
        # bytes that are not UTF-8, or an integer beyond int()'s digit limit
        raise ScenarioFileError(f"{path}: {exc}") from exc
    except OSError as exc:
        raise ScenarioFileError(f"{path}: {exc}") from exc
    validate_document(doc, schema)
    return doc


def load_scenario_file(path: str):
    """Parse + validate a scenario file; list of (scenario, expect)."""
    out = []
    for entry in _read_document(path, SCENARIO_FILE_SCHEMA)["scenarios"]:
        try:
            out.append(scenario_from_dict(entry))
        except (ValueError, ZeroDivisionError) as exc:
            raise ScenarioFileError(
                f"{path}: scenario {entry.get('name', '?')!r}: {exc}"
            ) from exc
    return out


def load_param_file(path: str):
    return _read_document(path, PARAM_FILE_SCHEMA)["checks"]


def check_expectations(report: dict, expect: dict | None):
    """List of mismatch strings (empty means pass)."""
    if not expect:
        return []
    out = []
    for key, want in expect.items():
        got = report.get(key)
        if key == "wildPoints":
            got = [list(x) for x in (got or [])]
        if got != want:
            out.append(f"{key}: expected {want!r}, got {got!r}")
    return out
