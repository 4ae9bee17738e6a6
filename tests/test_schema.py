"""The scenario-file schemas, compiled once: Draft 2020-12 verdicts, messages, imports."""

import copy
import json
import os
import subprocess
import sys
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

import dpglue
from dpglue import scenarios
from dpglue.scenarios import (PARAM_FILE_SCHEMA, SCENARIO_FILE_SCHEMA,
                              ScenarioFileError, validate_document)


def corpus(name):
    return json.loads(resources.files("dpglue").joinpath("data", name).read_text())


def scenario(**changes):
    entry = {"name": "x", "characteristic": 0, "blocks": [{"case": "a1"}],
             "glueCase": "A"}
    entry.update(changes)
    return {"version": "1", "scenarios": [entry]}


SMALL_PARAM = {"version": "1", "checks": [
    {"name": "c", "characteristic": 0, "hypersurface": "y - u", "variables": ["y"],
     "substitution": {"y": "u"}, "targetVariables": ["u"]}]}

# the shipped corpora cut to two entries each, so a mutation hits any part
BASES = [dict(doc, **{key: doc[key][:2]})
         for doc, key in ((corpus("tame_families.json"), "scenarios"),
                          (corpus("wild_families.json"), "scenarios"),
                          (corpus("parametrizations.json"), "checks"))]
BASES += [scenario(derivation={"a": "1/x", "b": ["1"]}, cover="separable",
                  expect={"gorenstein": True, "chi": 1, "wildPoints": []}),
          scenario(glueCase="C", equations=["z"], identifications=[
              {"map": [[0, 0], [1, 1], ["inf", "inf"]], "node": 0, "nodeTarget": "inf"}]),
          SMALL_PARAM]

VALUES = st.sampled_from([True, False, 0, 1, -1, 1.0, 2.5, -0.0, 10**30, "1", "A",
                          "a1", "x", None, [], {}, [1], {"a": 1}, float("inf")])
KINDS = st.sampled_from(["drop", "set", "add key", "swap bool and int", "float",
                         "empty array", "append"])
KEYS = st.sampled_from(["mystery", "name", "a", "case", "version"])


def locations(doc, path=()):
    yield path
    children = (doc.items() if isinstance(doc, dict)
                else enumerate(doc) if isinstance(doc, list) else ())
    for key, child in children:
        yield from locations(child, path + (key,))


def mutate(doc, draw):
    """``doc`` with one to three mutations, each at a place drawn below the root."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        places = list(locations(doc))[1:]
        if not places:
            break
        *parents, last = draw(st.sampled_from(places))
        holder = doc
        for step in parents:
            holder = holder[step]
        old, kind = holder[last], draw(KINDS)
        if kind == "drop":
            del holder[last]
        elif kind == "set":
            holder[last] = draw(VALUES)
        elif kind == "add key" and isinstance(old, dict):
            old[draw(KEYS)] = draw(VALUES)
        elif kind == "swap bool and int" and isinstance(old, int):
            holder[last] = int(old) if isinstance(old, bool) else bool(old)
        elif kind == "float" and isinstance(old, int) and not isinstance(old, bool):
            holder[last] = float(old)
        elif kind == "empty array":
            holder[last] = []
        elif kind == "append" and isinstance(old, list):
            old.append(copy.deepcopy(old[-1]) if old else draw(VALUES))
    return doc


def walker_accepts(doc, schema):
    try:
        validate_document(doc, schema)
    except ScenarioFileError:
        return False
    return True


IS_TYPE = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
}


def equal(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(equal(a[k], b[k]) for k in a)
    return a == b


def walk(doc, schema, path, errors):
    """The schema walker that the compiled closures replaced, kept as their reference.

    It re-dispatches on every keyword of ``schema`` for every node of
    ``doc`` and appends (path, message) in schema order.
    """
    for key, want in schema.items():
        message = None
        if key == "type":
            names = [want] if isinstance(want, str) else want
            if not any(IS_TYPE[name](doc) for name in names):
                message = f"{doc!r} is not of type {', '.join(map(repr, names))}"
        elif key == "const":
            if not equal(doc, want):
                message = f"{want!r} was expected"
        elif key == "enum":
            if not any(equal(doc, w) for w in want):
                message = f"{doc!r} is not one of {want!r}"
        elif key == "minimum":
            if isinstance(doc, (int, float)) and not isinstance(doc, bool) and doc < want:
                message = f"{doc!r} is less than the minimum of {want!r}"
        elif isinstance(doc, list):
            if key == "items":
                for i, item in enumerate(doc):
                    walk(item, want, path + [i], errors)
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
                        walk(doc[name], sub, path + [name], errors)
            elif key == "additionalProperties":
                known = schema.get("properties", {})
                extras = sorted((k for k in doc if k not in known), key=str)
                if isinstance(want, dict):
                    for name in extras:
                        walk(doc[name], want, path + [name], errors)
                elif not want and extras:
                    verb = "was" if len(extras) == 1 else "were"
                    message = (f"Additional properties are not allowed "
                               f"({', '.join(map(repr, extras))} {verb} unexpected)")
        if message is not None:
            errors.append((path, message))


def walker_outcome(doc, schema):
    errors = []
    walk(doc, schema, [], errors)
    errors.sort(key=lambda e: e[0])
    return "; ".join(f"{'/'.join(map(str, where)) or '<root>'}: {message}"
                     for where, message in errors) or None


def outcome(doc, schema):
    try:
        validate_document(doc, schema)
    except ScenarioFileError as exc:
        return str(exc)
    return None


@settings(max_examples=500)
@given(st.sampled_from(BASES), st.data())
def test_compiled_schemas_word_errors_as_the_walker_did(base, data):
    doc = mutate(base, data.draw)
    for schema in (SCENARIO_FILE_SCHEMA, PARAM_FILE_SCHEMA):
        assert outcome(doc, schema) == walker_outcome(doc, schema)


@settings(max_examples=500)
@given(st.sampled_from(BASES), st.data())
def test_walker_agrees_with_jsonschema(base, data):
    jsonschema = pytest.importorskip("jsonschema")
    doc = mutate(base, data.draw)
    for schema in (SCENARIO_FILE_SCHEMA, PARAM_FILE_SCHEMA):
        expected = jsonschema.Draft202012Validator(schema).is_valid(doc)
        assert walker_accepts(doc, schema) == expected


@pytest.mark.parametrize("schema", [
    {"const": 1}, {"enum": [True, [1], {"a": 0}]}, {"enum": ["1", None, 2.0]},
    {"type": ["integer", "null"], "minimum": 1},
], ids=["const-one", "enum-true-list-object", "enum-string-null-float", "minimum"])
@pytest.mark.parametrize("doc", [True, False, 1, 1.0, 0, 2, "1", None, [1], [True],
                                 {"a": 0}, {"a": False}, [], {}])
def test_equality_and_numbers_follow_the_draft(schema, doc):
    assert outcome(doc, schema) == walker_outcome(doc, schema)
    jsonschema = pytest.importorskip("jsonschema")
    expected = jsonschema.Draft202012Validator(schema).is_valid(doc)
    assert walker_accepts(doc, schema) == expected


def rejection(doc, schema=SCENARIO_FILE_SCHEMA):
    with pytest.raises(ScenarioFileError) as err:
        validate_document(doc, schema)
    return str(err.value)


def test_unknown_field_message():
    assert rejection(scenario(mystery=1)) == (
        "scenarios/0: Additional properties are not allowed ('mystery' was unexpected)")


def test_unknown_fields_are_listed_sorted():
    doc = scenario(zeta=1, mystery=2)
    want = ("scenarios/0: Additional properties are not allowed "
            "('mystery', 'zeta' were unexpected)")
    assert rejection(doc) == walker_outcome(doc, SCENARIO_FILE_SCHEMA) == want


def test_missing_required_key_message():
    doc = scenario()
    del doc["scenarios"][0]["glueCase"]
    assert rejection(doc) == "scenarios/0: 'glueCase' is a required property"


def test_wrong_type_message():
    assert rejection(scenario(characteristic="0")) == (
        "scenarios/0/characteristic: '0' is not of type 'integer'")


def test_messages_are_sorted_by_path_and_joined():
    doc = scenario(characteristic=-1, glueCase="E")
    doc["version"] = 1
    assert rejection(doc) == (
        "scenarios/0/characteristic: -1 is less than the minimum of 0; "
        "scenarios/0/glueCase: 'E' is not one of ['A', 'B', 'C', 'D']; "
        "version: '1' was expected")
    assert rejection([]) == "<root>: [] is not of type 'object'"


def test_draft_2020_12_integers_booleans_and_constants():
    validate_document(scenario(characteristic=3.0))
    assert "True is not of type 'integer'" in rejection(scenario(characteristic=True))
    assert "'1' was expected" in rejection({"version": 1, "scenarios": []})
    expect = scenario(expect={"chi": 1.0, "gorenstein": True})
    validate_document(expect)
    assert "1 is not of type 'boolean'" in rejection(scenario(expect={"tame": 1}))
    assert "should be non-empty" in rejection(scenario(blocks=[]))


def test_substitution_values_are_walked_by_their_schema():
    doc = copy.deepcopy(SMALL_PARAM)
    doc["checks"][0]["substitution"]["z"] = 2
    assert rejection(doc, PARAM_FILE_SCHEMA) == (
        "checks/0/substitution/z: 2 is not of type 'string'")


@pytest.mark.parametrize("schema", [
    {"type": "object", "properties": {"a": {"pattern": "x"}}},
    {"type": "array", "items": {"type": "number"}},
    {"type": "array", "items": False},
], ids=["keyword", "type-name", "boolean-items"])
def test_walker_refuses_what_it_does_not_implement(schema):
    with pytest.raises(TypeError, match="schema compiler cannot check"):
        scenarios._compile(schema)


def printed_after_import(expr, setup=""):
    """What a fresh interpreter prints for expr after importing the CLI's
    modules and running the statements in setup."""
    code = f"import sys, dpglue.cli, dpglue.cohomology, dpglue.glue\n{setup}\nprint({expr})"
    src = os.path.dirname(os.path.dirname(dpglue.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    return proc.stdout


def test_import_does_not_load_jsonschema():
    modules = "sorted(m for m in sys.modules if m.split('.')[0] == 'jsonschema')"
    assert printed_after_import(modules) == "[]\n"


def test_import_builds_no_prime_field():
    # GF(p) builds its shared elements on first use, not at import
    assert printed_after_import("sorted(dpglue.fields._gf_cache)") == "[]\n"


# ``dpglue run`` calls nothing in these; the oracles load them at first call
DEFERRED = ("dpglue.artinian", "dpglue.filling", "dpglue.linalg")


def test_import_loads_no_dataclasses_and_no_oracle_modules():
    unloaded = ("dataclasses", "inspect") + DEFERRED
    assert printed_after_import(f"[m for m in {unloaded!r} if m in sys.modules]") == "[]\n"


ORACLES_ON_ONE_DATUM = """
from dpglue.cohomology import h1_OX, truncated_section_oracle
from dpglue.glue import glue_data, gorenstein_at_point, gorenstein_at_point_oracle, kxi_engine
from dpglue.polynomials import Poly
from dpglue.rational import Place
data = glue_data(3, "1/x^3", ["1", "2"])
x = Poly.x(data.field.base)
places = [Place(x), Place(x + 1), Place(x * x + 1), Place.infinity()]
checks = [len(kxi_engine(data).basis) == data.r,
          truncated_section_oracle(data) == (1, h1_OX(data)) == (1, 2)]
checks += [gorenstein_at_point_oracle(data, place) == gorenstein_at_point(data, place)
           for place in places]
"""


def test_oracles_load_their_modules_at_first_call():
    printed = printed_after_import(
        f"all(checks), [m for m in {DEFERRED!r} if m in sys.modules]", ORACLES_ON_ONE_DATUM)
    assert printed == f"True {list(DEFERRED)!r}\n"
