"""Scenario files: schema, validation, loading, expectations.

A scenario file is versioned JSON with a list of named scenarios.  Each
scenario names its building blocks, the glue case, and per-case data
(line identifications with node markers, or a derivation datum {a, b}).
Unknown fields are rejected.  An optional ``expect`` block records the
intended report values; the CLI exits nonzero when they do not match.

The schemas are JSON Schema (Draft 2020-12) dicts, compiled once, at
import, into nested closures: one per keyword, run in schema order.  The
compiler implements the ten keywords they use and refuses a schema that
uses any other.
"""

from __future__ import annotations

import json

from dpglue.catalog import GlueScenario, _mobius_ints, _proj_point, building_block
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


# the class of each JSON type but integer, which no class matches:
# Draft 2020-12 counts 1.0 as an integer, and true as none
_TYPE_CLASS = {"object": dict, "array": list, "string": str, "boolean": bool,
               "null": type(None)}


def _is_integer(v) -> bool:
    return (isinstance(v, int) and not isinstance(v, bool)
            or isinstance(v, float) and v.is_integer())


def _equal(a, b) -> bool:
    """JSON equality: true and 1 differ, 1 and 1.0 do not."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    return a == b


# Each keyword compiles, given its value and the whole schema, to a
# check(doc, path, errors) that appends (path, message) for what doc
# breaks, with jsonschema's wording, or to None when it checks nothing.


def _type(want, schema):
    names = [want] if isinstance(want, str) else want
    unknown = [name for name in names if name not in _TYPE_CLASS and name != "integer"]
    if unknown:
        raise TypeError(f"schema compiler cannot check {unknown}")
    classes = tuple(_TYPE_CLASS[name] for name in names if name != "integer")
    integer = "integer" in names
    listed = ", ".join(map(repr, names))

    def check(doc, path, errors):
        if not (isinstance(doc, classes) or integer and _is_integer(doc)):
            errors.append((path, f"{doc!r} is not of type {listed}"))
    return check


def _const(want, schema):
    def check(doc, path, errors):
        if not _equal(doc, want):
            errors.append((path, f"{want!r} was expected"))
    return check


def _enum(want, schema):
    def check(doc, path, errors):
        for w in want:
            if _equal(doc, w):
                return
        errors.append((path, f"{doc!r} is not one of {want!r}"))
    return check


def _minimum(want, schema):
    def check(doc, path, errors):
        if isinstance(doc, (int, float)) and not isinstance(doc, bool) and doc < want:
            errors.append((path, f"{doc!r} is less than the minimum of {want!r}"))
    return check


def _items(want, schema):
    check_item = _compile(want)

    def check(doc, path, errors):
        if isinstance(doc, list):
            for i, item in enumerate(doc):
                check_item(item, path + [i], errors)
    return check


def _min_items(want, schema):
    tail = "should be non-empty" if want == 1 else "is too short"

    def check(doc, path, errors):
        if isinstance(doc, list) and len(doc) < want:
            errors.append((path, f"{doc!r} {tail}"))
    return check


def _max_items(want, schema):
    tail = "is expected to be empty" if want == 0 else "is too long"

    def check(doc, path, errors):
        if isinstance(doc, list) and len(doc) > want:
            errors.append((path, f"{doc!r} {tail}"))
    return check


def _required(want, schema):
    def check(doc, path, errors):
        if isinstance(doc, dict):
            for name in want:
                if name not in doc:
                    errors.append((path, f"{name!r} is a required property"))
    return check


def _properties(want, schema):
    subs = {name: _compile(sub) for name, sub in want.items()}

    def check(doc, path, errors):
        # in the document's order: errors below distinct names have
        # distinct paths, so the sort by path decides their order
        if isinstance(doc, dict):
            for name, value in doc.items():
                sub = subs.get(name)
                if sub is not None:
                    sub(value, path + [name], errors)
    return check


def _additional_properties(want, schema):
    known = frozenset(schema.get("properties", {}))

    def extras(doc):
        return sorted((k for k in doc if k not in known), key=str)

    if isinstance(want, dict):
        check_extra = _compile(want)

        def check(doc, path, errors):
            if isinstance(doc, dict) and not doc.keys() <= known:
                for name in extras(doc):
                    check_extra(doc[name], path + [name], errors)
        return check
    if want:
        return None

    def check(doc, path, errors):
        if isinstance(doc, dict) and not doc.keys() <= known:
            names = extras(doc)
            verb = "was" if len(names) == 1 else "were"
            errors.append((path, f"Additional properties are not allowed "
                                 f"({', '.join(map(repr, names))} {verb} unexpected)"))
    return check


_KEYWORDS = {"type": _type, "const": _const, "enum": _enum, "minimum": _minimum,
             "items": _items, "minItems": _min_items, "maxItems": _max_items,
             "required": _required, "properties": _properties,
             "additionalProperties": _additional_properties}


def _compile(schema):
    """check(doc, path, errors) running ``schema``'s keywords in its order.

    Raises TypeError on a schema that is not a dict, and on a keyword or
    a type name that the compiler does not implement.
    """
    if not isinstance(schema, dict):
        raise TypeError(f"schema compiler cannot check {schema!r}")
    checks = []
    for key, want in schema.items():
        if key not in _KEYWORDS:
            raise TypeError(f"schema compiler cannot check {key!r}")
        check = _KEYWORDS[key](want, schema)
        if check is not None:
            checks.append(check)
    if len(checks) == 1:
        return checks[0]

    def check_all(doc, path, errors):
        for check in checks:
            check(doc, path, errors)
    return check_all


# the shipped schemas, compiled once; validate_document compiles any other
_COMPILED = {id(s): _compile(s) for s in (SCENARIO_FILE_SCHEMA, PARAM_FILE_SCHEMA)}


def validate_document(doc, schema=SCENARIO_FILE_SCHEMA):
    """Raise ScenarioFileError listing every ``path: message``, by path."""
    check = _COMPILED.get(id(schema)) or _compile(schema)
    errors = []
    check(doc, [], errors)
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
        _mobius_ints(field, ident["map"])
        _proj_point(field, ident["node"])
        _proj_point(field, ident["nodeTarget"])
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
        if key == "wildPoints" and isinstance(got, list):
            got = [list(x) for x in got]
        if got != want:
            out.append(f"{key}: expected {want!r}, got {got!r}")
    return out
