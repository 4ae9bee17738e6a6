"""Scenario files: schema, validation, loading, expectations.

A scenario file is versioned JSON with a list of named scenarios.  Each
scenario names its building blocks, the glue case, and per-case data
(line identifications with node markers, or a derivation datum {a, b}).
Unknown fields are rejected.  An optional ``expect`` block records the
intended report values; the CLI exits nonzero when they do not match.

The schemas are JSON Schema (Draft 2020-12) dicts.  The module validates
by its own walker, which implements the ten keywords they use and
refuses, at import, a schema that uses any other.
"""

from __future__ import annotations

import json

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


_KEYWORDS = {"type", "const", "enum", "required", "properties",
             "additionalProperties", "items", "minItems", "maxItems", "minimum"}

_IS_TYPE = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    # Draft 2020-12: 1.0 is an integer, true is not
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
}


def _check_schema(schema):
    """Raise unless ``schema`` uses only what ``_walk`` implements."""
    types = schema.get("type", [])
    unknown = (set(schema) - _KEYWORDS
               | set([types] if isinstance(types, str) else types) - set(_IS_TYPE))
    if unknown or not isinstance(schema.get("items", {}), dict):
        raise TypeError(f"schema walker cannot check {sorted(unknown) or 'items'}")
    for sub in [*schema.get("properties", {}).values(),
                schema.get("items"), schema.get("additionalProperties")]:
        if isinstance(sub, dict):
            _check_schema(sub)


def _equal(a, b) -> bool:
    """JSON equality: true and 1 differ, 1 and 1.0 do not."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    return a == b


def _walk(doc, schema, path, errors):
    """Append (path, message) for each keyword of ``schema`` that ``doc``
    breaks, in schema order and with jsonschema's wording."""
    for key, want in schema.items():
        message = None
        if key == "type":
            names = [want] if isinstance(want, str) else want
            if not any(_IS_TYPE[name](doc) for name in names):
                message = f"{doc!r} is not of type {', '.join(map(repr, names))}"
        elif key == "const":
            if not _equal(doc, want):
                message = f"{want!r} was expected"
        elif key == "enum":
            if not any(_equal(doc, w) for w in want):
                message = f"{doc!r} is not one of {want!r}"
        elif key == "minimum":
            if isinstance(doc, (int, float)) and not isinstance(doc, bool) and doc < want:
                message = f"{doc!r} is less than the minimum of {want!r}"
        elif isinstance(doc, list):
            if key == "items":
                for i, item in enumerate(doc):
                    _walk(item, want, path + [i], errors)
            elif key == "minItems" and len(doc) < want:
                message = f"{doc!r} " + ("should be non-empty" if want == 1 else "is too short")
            elif key == "maxItems" and len(doc) > want:
                message = f"{doc!r} " + ("is expected to be empty" if want == 0 else "is too long")
        elif isinstance(doc, dict):
            if key == "required":
                errors.extend((path, f"{name!r} is a required property")
                              for name in want if name not in doc)
            elif key == "properties":
                for name, sub in want.items():
                    if name in doc:
                        _walk(doc[name], sub, path + [name], errors)
            elif key == "additionalProperties":
                known = schema.get("properties", {})
                extras = sorted((k for k in doc if k not in known), key=str)
                if isinstance(want, dict):
                    for name in extras:
                        _walk(doc[name], want, path + [name], errors)
                elif not want and extras:
                    verb = "was" if len(extras) == 1 else "were"
                    message = (f"Additional properties are not allowed "
                               f"({', '.join(map(repr, extras))} {verb} unexpected)")
        if message is not None:
            errors.append((path, message))


_check_schema(SCENARIO_FILE_SCHEMA)
_check_schema(PARAM_FILE_SCHEMA)


def validate_document(doc, schema=SCENARIO_FILE_SCHEMA):
    """Raise ScenarioFileError listing every ``path: message``, by path."""
    errors = []
    _walk(doc, schema, [], errors)
    if errors:
        errors.sort(key=lambda e: e[0])
        raise ScenarioFileError("; ".join(
            f"{'/'.join(map(str, where)) or '<root>'}: {message}"
            for where, message in errors))


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


def _json_number(text: str):
    """A JSON number with a point or exponent, an int if integral: the schema
    reads 3.0 as 3, and a float would key the field caches apart from 3."""
    value = float(text)
    return int(value) if value.is_integer() else value


def _read_document(path: str, schema):
    """Open, parse and validate one JSON file against ``schema``."""
    try:
        with open(path) as fh:
            doc = json.load(fh, parse_float=_json_number)
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
