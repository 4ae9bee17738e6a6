"""CLI and scenario-file behavior."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from importlib import resources

import pytest
from hypothesis import example, given, settings, strategies as st

import dpglue
from dpglue import cli, cohomology, glue, scenarios
from dpglue.cli import main
from dpglue.polynomials import Poly, split_squarefree
from dpglue.rational import MAX_NESTING

from conftest import swinnerton_dyer


def data_path(name):
    return str(resources.files("dpglue").joinpath("data", name))


TAME = data_path("tame_families.json")
WILD = data_path("wild_families.json")
PARAMS = data_path("parametrizations.json")

# child processes import the same dpglue as this one
SRC = os.path.dirname(os.path.dirname(dpglue.__file__))
ENV = dict(os.environ,
           PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "dpglue.cli", *args],
        capture_output=True, text=True, env=ENV,
    )
    return proc.returncode, proc.stdout, proc.stderr


# -- schema ------------------------------------------------------------


def test_corpus_files_validate():
    for path in (TAME, WILD):
        loaded = scenarios.load_scenario_file(path)
        assert loaded


def test_unknown_field_rejected(tmp_path):
    doc = {"version": "1", "scenarios": [
        {"name": "x", "characteristic": 0, "blocks": [{"case": "a1"}],
         "glueCase": "A", "mystery": 1}]}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(scenarios.ScenarioFileError):
        scenarios.load_scenario_file(str(p))


def test_zero_b_rejected(tmp_path):
    doc = {"version": "1", "scenarios": [
        {"name": "x", "characteristic": 0, "blocks": [{"case": "c2", "a": 2}],
         "glueCase": "D", "derivation": {"a": "1", "b": ["0"]}}]}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(scenarios.ScenarioFileError):
        scenarios.load_scenario_file(str(p))


def test_json_parse_error_has_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"version": "1",')
    with pytest.raises(scenarios.ScenarioFileError) as err:
        scenarios.load_scenario_file(str(p))
    assert "line" in str(err.value) and "column" in str(err.value)


# -- run ---------------------------------------------------------------


def test_run_corpus_exit_zero():
    assert main(["run", TAME, WILD]) == 0


# The shipped corpora's reports, byte for byte; after a deliberate change
# to a report, rewrite them with, for example,
#   PYTHONPATH=src python -m dpglue.cli run src/dpglue/data/tame_families.json \
#       --format json > tests/golden/tame_families.json
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


@pytest.mark.parametrize("corpus", ["tame_families", "wild_families"])
@pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
def test_run_output_matches_the_golden_file(capsys, corpus, fmt, suffix):
    assert main(["run", data_path(f"{corpus}.json"), "--format", fmt]) == 0
    with open(os.path.join(GOLDEN, f"{corpus}.{suffix}"), "rb") as fh:
        assert capsys.readouterr().out.encode() == fh.read()


def test_run_wild_corpus_values(capsys):
    main(["run", WILD, "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    by_name = {s["name"]: s for s in doc["scenarios"]}
    assert by_name["wild-p3-N1"]["chi"] == -1
    assert by_name["wild-p3-N1"]["h1"] == 2
    assert by_name["wild-p2-orders22"]["chi"] == -1
    assert by_name["wild-p5-N2"]["h1"] == 8
    assert doc["failed"] == 0


def test_run_tame_corpus_all_chi_one(capsys):
    main(["run", TAME, "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    for s in doc["scenarios"]:
        assert s["chi"] == 1 and s["h1"] == 0 and s["tame"]


def test_expectation_mismatch_exits_one(tmp_path):
    doc = {"version": "1", "scenarios": [
        {"name": "x", "characteristic": 0, "blocks": [{"case": "a1"}],
         "glueCase": "A", "expect": {"chi": 2}}]}
    p = tmp_path / "s.json"
    p.write_text(json.dumps(doc))
    assert main(["run", str(p)]) == 1


def test_unnamed_wild_points_do_not_meet_an_empty_expectation(tmp_path, capsys):
    # the pole is an irreducible piece too costly to factor: wildPoints is null
    doc = {"version": "1", "scenarios": [
        {"name": "x", "characteristic": 0, "glueCase": "D", "blocks": [{"case": "c2", "a": 2}],
         "derivation": {"a": f"1/({swinnerton_dyer([2, 3, 5, 7, 11])})", "b": ["1"]},
         "expect": {"wildPoints": []}}]}
    p = tmp_path / "s.json"
    p.write_text(json.dumps(doc))
    assert main(["run", str(p), "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)["scenarios"][0]
    assert report["wildPoints"] is None
    assert report["expectationMismatches"] == ["wildPoints: expected [], got None"]


def test_malformed_file_exits_two(tmp_path):
    p = tmp_path / "s.json"
    p.write_text("not json")
    code, _, err = run_cli(["run", str(p)])
    assert code == 2 and "error" in err


@pytest.mark.parametrize("text, message", [
    (b'{"version": "1", "scenarios": ["\xff"]}', "can't decode byte 0xff"),
    (b'{"version": "1", "scenarios": [' + b"9" * 5000 + b"]}", "digits"),
], ids=["not-utf8", "integer-beyond-digit-limit"])
def test_unreadable_file_exits_two(tmp_path, capsys, text, message):
    p = tmp_path / "s.json"
    p.write_bytes(text)
    code = main(["run", str(p)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and message in captured.err


@pytest.mark.parametrize("case", ["A", "C", "catalog"])
def test_non_prime_characteristic_exits_two(tmp_path, case):
    scenario = {"name": "x", "characteristic": 4, "glueCase": case,
                "blocks": [{"case": "a1" if case == "A" else "a2"}]}
    if case == "C":
        scenario["identifications"] = [
            {"map": [[0, 0], [1, 1], ["inf", "inf"]], "node": 0, "nodeTarget": 0}]
    p = tmp_path / "s.json"
    p.write_text(json.dumps({"version": "1", "scenarios": [scenario]}))
    args = (["catalog", "--degree12", "--characteristic", "4"] if case == "catalog"
            else ["run", str(p)])
    code, out, err = run_cli(args)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "4 is not prime" in err


@pytest.mark.parametrize("characteristic", [(10**9 + 7) * (10**9 + 9), 2**89 - 1],
                         ids=["composite", "beyond-limit"])
def test_huge_characteristic_exits_two_quickly(tmp_path, capsys, characteristic):
    scenario = {"name": "x", "characteristic": characteristic, "glueCase": "A",
                "blocks": [{"case": "a1"}]}
    p = tmp_path / "s.json"
    p.write_text(json.dumps({"version": "1", "scenarios": [scenario]}))
    start = time.perf_counter()
    code = main(["run", str(p)])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and str(characteristic) in captured.err


def lines_scenario(characteristic, points, node, target):
    """One C_1 scenario: a line pair glued to itself along one identification."""
    return {"name": "lines", "characteristic": characteristic, "glueCase": "C",
            "blocks": [{"case": "a2"}],
            "identifications": [{"map": points, "node": node, "nodeTarget": target}]}


@pytest.mark.parametrize("characteristic, points, node, target, message", [
    (0, [["x", 0], [1, 1], ["inf", "inf"]], 0, 0,
     "identification point 'x' is not an integer or 'inf'"),
    (0, [[0, 0], [1, 1], ["inf", "inf"]], 0, "1/2",
     "identification point '1/2' is not an integer or 'inf'"),
    (3, [[0, 0], [3, 1], ["inf", "inf"]], 0, 0,
     "identification points are not distinct"),
], ids=["map-point-x", "node-target-half", "char3-0-equals-3"])
def test_bad_identification_points_exit_two(tmp_path, capsys, characteristic,
                                            points, node, target, message):
    p = tmp_path / "s.json"
    scenario = lines_scenario(characteristic, points, node, target)
    p.write_text(json.dumps({"version": "1", "scenarios": [scenario]}))
    code = main(["run", str(p)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {p}: scenario 'lines': {message}\n"


POINTS = st.one_of(st.integers(), st.integers(-10**40, 10**40).map(str),
                   st.text(max_size=6), st.just("inf"))
THREE_POINTS = st.lists(POINTS, min_size=3, max_size=3, unique_by=str)


@settings(max_examples=80)
@given(st.sampled_from([0, 2, 3, 5, 7]), THREE_POINTS, THREE_POINTS, POINTS, POINTS)
def test_identification_points_end_in_report_or_diagnostic(characteristic, sources,
                                                           targets, node, target):
    points = [list(pair) for pair in zip(sources, targets)]
    scenario = lines_scenario(characteristic, points, node, target)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.json")
        with open(path, "w") as fh:
            json.dump({"version": "1", "scenarios": [scenario]}, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", path])
    assert code in (0, 1, 2)
    assert err.getvalue().count("\n") <= 1
    assert "Traceback" not in err.getvalue()


def test_failing_datum_is_recorded_and_run_continues(tmp_path, capsys, monkeypatch):
    # the closed form raises on the first scenario's datum only
    closed_form = cohomology.closed_form

    def failing(data):
        if data.characteristic == 0:
            raise NotImplementedError("no closed form for this datum")
        return closed_form(data)

    monkeypatch.setattr(cohomology, "closed_form", failing)
    doc = {"version": "1", "scenarios": [
        {"name": "bad", "characteristic": 0, "blocks": [{"case": "c2", "a": 2}],
         "glueCase": "D", "derivation": {"a": "1/x", "b": ["1"]}},
        {"name": "good", "characteristic": 3, "blocks": [{"case": "c2", "a": 2}],
         "glueCase": "D", "derivation": {"a": "1/x^3", "b": ["1"]}}]}
    p = tmp_path / "s.json"
    p.write_text(json.dumps(doc))
    code = main(["run", str(p), "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 1
    assert err == ""  # no traceback
    reports = {s["name"]: s for s in json.loads(out)["scenarios"]}
    assert set(reports) == {"bad", "good"}
    bad = reports["bad"]
    assert bad["gorenstein"] is None and not bad["pass"]
    assert bad["errors"] == ["NotImplementedError: no closed form for this datum"]
    good = reports["good"]
    assert good["pass"] and good["gorenstein"] is True and good["h1"] == 2


def test_integral_floats_read_as_ints_in_either_order(tmp_path):
    # 3.0 is the integer 3 to the schema; kept a float, it would key the
    # field caches apart from 3 for the rest of the process and leak
    # into the reports (degree=2.0, chi=-1.0)
    def write(name, three, two):
        scenario = {"name": "wild", "characteristic": three, "glueCase": "D",
                    "blocks": [{"case": "c2", "a": two}],
                    "derivation": {"a": "1/x^3", "b": ["1"]}}
        path = tmp_path / name
        path.write_text(json.dumps({"version": "1", "scenarios": [scenario]}))
        return str(path)

    floats, ints = write("floats.json", 3.0, 2.0), write("ints.json", 3, 2)

    def run_in_one_process(*paths):
        script = ("import sys\nfrom dpglue.cli import main\n"
                  "for path in sys.argv[1:]:\n"
                  "    for fmt in ('text', 'json'):\n"
                  "        main(['run', path, '--format', fmt])\n")
        proc = subprocess.run([sys.executable, "-c", script, *paths],
                              capture_output=True, text=True, env=ENV)
        assert proc.returncode == 0 and proc.stderr == ""
        return proc.stdout

    alone = run_in_one_process(ints)
    assert "degree=2 gorenstein=True" in alone and "chi=-1 h1=2" in alone
    assert run_in_one_process(floats, ints) == alone * 2
    assert run_in_one_process(ints, floats) == alone * 2


# Each of these once took seconds, hung or went unnamed: a root search
# linear in the constant term or in p, trial division by every candidate
# factor, or over Q no recombination of the factors mod a prime.  The
# last three pin the verdict at infinity and on mixed pole orders.
@pytest.mark.parametrize("characteristic, a, gorenstein, wild, h1", [
    (0, "1/(x-300)^3", False, [["x - 300", 3]], None),
    (0, "1/(x-3000)^3", False, [["x - 3000", 3]], None),
    (1000003, "1/(x^2+1)", False, [["x^2 + 1", 1]], None),
    (7, "1/(x^8+x+3)^7", True, [["x^8 + x + 3", 7]], 48),
    (2, "1/x^8000", True, [["x", 8000]], 4000),
    (0, "-1/((x-2)*(x^2+1))", False, [["x - 2", 1], ["x^2 + 1", 1]], None),
    (0, "1/(x^4+1)", False, [["x^4 + 1", 1]], None),
    (0, "1/((x^2+2)*(x^2+x+1))^2", False, [["x^2 + 2", 2], ["x^2 + x + 1", 2]],
     None),
    (0, "1/(x*(x^2+1))", False, [["x", 1], ["x^2 + 1", 1]], None),
    # 16 quadratic factors mod 19, more subsets than recombination tries:
    # the pole goes unnamed, and over Q it breaks the criterion anyway
    (0, f"1/({swinnerton_dyer([2, 3, 5, 7, 11])})", False, None, None),
    (3, "x^3", True, [["~oo", 3]], 2),
    (3, "x^2", False, [["~oo", 2]], None),
    (3, "1/(x^3*(x+1))", False, [["x", 3], ["x + 1", 1]], None),
    # multiplicities past p, which the square-free split takes apart
    (2, "1/(x^2+x+1)^4001", False, [["x^2 + x + 1", 4001]], None),
    (7, "1/(x^2+1)^2048", False, [["x^2 + 1", 2048]], None),
    (1031, "1/(x^2+x+1)^727", False, [["x^2 + x + 1", 727]], None),
    # three dense powers over a field past fields.SHARED_BELOW
    (1031, "(x^2+x+1)^730 + (x^2+2*x+3)^730 + (x^2+3*x+5)^730", False,
     [["~oo", 1460]], None),
], ids=["Q-x300", "Q-x3000", "GF1000003-quadratic", "GF7-octic", "GF2-x8000",
        "Q-two-places", "Q-quartic", "Q-two-quadratics", "Q-root-at-0", "Q-sd32",
        "GF3-wild-oo", "GF3-tame-oo", "GF3-mixed-orders", "GF2-quadratic-4001",
        "GF7-quadratic-2048", "GF1031-quadratic-727", "GF1031-three-powers-730"])
def test_pole_divisor_inputs_run_quickly(tmp_path, capsys, monkeypatch, characteristic,
                                         a, gorenstein, wild, h1):
    factored, split = [], []
    factor = Poly.factor

    def counting_factor(self):
        factored.append(self)
        return factor(self)

    def counting_split(piece):
        split.append(piece)
        return split_squarefree(piece)

    monkeypatch.setattr(Poly, "factor", counting_factor)
    monkeypatch.setattr(glue, "split_squarefree", counting_split)
    scenario = {"name": "x", "characteristic": characteristic, "glueCase": "D",
                "blocks": [{"case": "c2", "a": 2}],
                "derivation": {"a": a, "b": ["1"]}}
    p = tmp_path / "s.json"
    p.write_text(json.dumps({"version": "1", "scenarios": [scenario]}))
    start = time.perf_counter()
    code = main(["run", str(p), "--format", "json"])
    assert time.perf_counter() - start < 1.0
    report = json.loads(capsys.readouterr().out)["scenarios"][0]
    assert code == (0 if gorenstein else 1)
    assert report["gorenstein"] is gorenstein
    assert report["wildPoints"] == wild and report["h1"] == h1
    # the errors name exactly the poles of an order p does not divide
    if wild is None:
        assert report["errors"] == ["pole of order 1 at the places of an unfactored "
                                    "square-free piece of degree 32 is not allowed"]
    else:
        assert report["errors"] == [
            f"pole of order {order} at Place({name.lstrip('~')}) is not allowed"
            for name, order in wild if characteristic == 0 or order % characteristic]
    # each square-free piece of L is split once, with no second square-free pass
    L, _ = glue.glue_data(characteristic, a, ["1"]).poles
    assert split == [piece for piece, _ in L.squarefree()] and not factored


def test_power_past_the_degree_limit_exits_two_quickly(tmp_path, capsys):
    # expanding this power would build a polynomial of degree 2000006
    scenario = {"name": "x", "characteristic": 1000003, "glueCase": "D",
                "blocks": [{"case": "c2", "a": 2}],
                "derivation": {"a": "1/(x^2+1)^1000003", "b": ["1"]}}
    p = tmp_path / "s.json"
    p.write_text(json.dumps({"version": "1", "scenarios": [scenario]}))
    start = time.perf_counter()
    code = main(["run", str(p)])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and "exceeds the limit" in captured.err


def test_constant_power_past_the_bit_limit_exits_two_quickly(tmp_path, capsys):
    # 14 characters for a number of ten billion bits
    scenario = {"name": "x", "characteristic": 0, "glueCase": "D",
                "blocks": [{"case": "c2", "a": 2}],
                "derivation": {"a": "2^10000000000", "b": ["1"]}}
    p = tmp_path / "s.json"
    p.write_text(json.dumps({"version": "1", "scenarios": [scenario]}))
    start = time.perf_counter()
    code = main(["run", str(p)])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and "exceeds the limit" in captured.err


# Each is refused by the size budget before the operation named runs.  The
# first seven passed the degree and bit limits, which bounded neither
# products nor sums nor the growth of coefficients under a power.
@pytest.mark.parametrize("characteristic, a, refused", [
    (7, "(x^2+1)^4096*(x^2+1)^4096", "a power"),
    (7, "1/(x^2+1)^4096+1/(x^2+2)^4096", "a power"),
    (7, "(x^2+1)^4096/(x^2+2)^4096", "a power"),
    (0, "(x+128)^1024", "a power"),
    (0, "(x^2+1)^4096", "a power"),
    (10**18 + 9, "(x^2+1)^4096", "a power"),
    (1000003, "1/(x^2+1)^4096", "a power"),
    (7, "(x^2+1)^1400*(x^2+x+1)^1400", "a product"),
    (7, "1/(x^2+1)^1400+1/(x^2+2)^1400", "a sum"),
    (7, "(x^2+1)^1400/(x^2+2)^1400", "a quotient"),
])
def test_oversize_expressions_exit_two_quickly(tmp_path, capsys, characteristic, a, refused):
    scenario = {"name": "x", "characteristic": characteristic, "glueCase": "D",
                "blocks": [{"case": "c2", "a": 2}],
                "derivation": {"a": a, "b": ["1"]}}
    p = tmp_path / "s.json"
    p.write_text(json.dumps({"version": "1", "scenarios": [scenario]}))
    start = time.perf_counter()
    code = main(["run", str(p)])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and "exceeds the limit" in captured.err
    assert refused in captured.err


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 1000, 5000])
def test_deep_parentheses_exit_two(tmp_path, capsys, depth):
    # each level would take three frames of the recursive-descent parser
    nested = "(" * depth + "1/x^3" + ")" * depth
    scenario = {"name": "x", "characteristic": 3, "glueCase": "D",
                "blocks": [{"case": "c2", "a": 2}],
                "derivation": {"a": nested, "b": ["1"]}}
    check = {"name": "deep", "characteristic": 0, "hypersurface": nested.replace("x", "y"),
             "variables": ["y"], "substitution": {"y": "u"}, "targetVariables": ["u"]}
    runs = {"run": {"version": "1", "scenarios": [scenario]},
            "verify-param": {"version": "1", "checks": [check]}}
    for command, doc in runs.items():
        p = tmp_path / f"{command}.json"
        p.write_text(json.dumps(doc))
        assert main([command, str(p)]) == 2, command
        captured = capsys.readouterr()
        assert captured.out == "", command
        assert captured.err.count("\n") == 1, command
        assert f"nested deeper than the limit {MAX_NESTING}" in captured.err, command


def squaring_chain(first, keys):
    chain = {f"k{i}": f"k{i - 1}*k{i - 1}" for i in range(1, keys)}
    return {"z": f"k{keys - 1}", "k0": first, **chain}


# Each would run for minutes or exhaust memory if expanded: the size
# budget holds on the composed polynomial, at every operation.
@pytest.mark.parametrize("substitution", [
    {"z": "(u+v+1)^8192"},
    {"z": "q^200", "q": "w^200", "w": "u+v"},
    squaring_chain("u+v+1", 15),
    # 3^(2^k) passes the size budget at k = 14
    squaring_chain("3", 30),
], ids=["dense-power", "nested-powers", "squaring-chain", "squaring-chain-Q"])
def test_composed_substitution_past_the_limits_exits_two_quickly(tmp_path, capsys,
                                                                 substitution):
    check = {"name": "big", "characteristic": 0, "hypersurface": "z",
             "variables": ["z"], "substitution": substitution,
             "targetVariables": ["u", "v"]}
    p = tmp_path / "p.json"
    p.write_text(json.dumps({"version": "1", "checks": [check]}))
    start = time.perf_counter()
    code = main(["verify-param", str(p)])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and "exceeds the limit" in captured.err


def test_parentheses_at_the_nesting_limit_run(tmp_path, capsys):
    nested = "(" * MAX_NESTING + "1/x^3" + ")" * MAX_NESTING
    scenario = {"name": "x", "characteristic": 3, "glueCase": "D",
                "blocks": [{"case": "c2", "a": 2}],
                "derivation": {"a": nested, "b": ["1"]}}
    p = tmp_path / "s.json"
    p.write_text(json.dumps({"version": "1", "scenarios": [scenario]}))
    assert main(["run", str(p), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["scenarios"][0]["h1"] == 2


# With a buffered stdout the tame report outgrows the buffer and fails
# inside print; the wild one fits and fails when main flushes it.
@pytest.mark.parametrize("corpus", [TAME, WILD], ids=["tame", "wild"])
def test_closed_stdout_exits_one_without_traceback(corpus):
    # the read end is closed before the run starts, so the first write
    # fails whatever the pipe buffer holds
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in ENV.items() if k != "PYTHONUNBUFFERED"}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "dpglue.cli", "run", corpus, "--format", "json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser.cache_clear()
    assert main(["run", WILD]) == 0
    first = len(built)
    assert main(["catalog", "--a-max", "1"]) == 0
    assert first and len(built) == first


def test_deterministic_output():
    code1, out1, _ = run_cli(["run", TAME, WILD])
    code2, out2, _ = run_cli(["run", TAME, WILD])
    assert code1 == code2 == 0
    assert out1 == out2


# -- catalog -----------------------------------------------------------


def test_catalog_blocks(capsys):
    assert main(["catalog", "--a-max", "5"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") >= 10
    assert "LATTICE FAIL" not in out


@pytest.mark.parametrize("a_max, code", [(cli.A_MAX_LIMIT, 0), (cli.A_MAX_LIMIT + 1, 2),
                                          (-1, 2)], ids=["limit", "limit+1", "negative"])
def test_catalog_a_max_range(capsys, a_max, code):
    start = time.perf_counter()
    assert main(["catalog", "--a-max", str(a_max)]) == code
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    if code:
        assert captured.out == ""
        assert captured.err == f"error: --a-max: {a_max} is outside 0..{cli.A_MAX_LIMIT}\n"
    else:
        assert captured.err == ""
        assert f"a={a_max} " in captured.out


def test_catalog_json_round_trips(capsys):
    assert main(["catalog", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert {r["case"] for r in rows} >= {"a1", "b", "c1", "d1", "e"}


# surrogates and control characters included
JSON_TEXT = st.text(st.characters(exclude_categories=()), max_size=8)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([10**30, -10**30])
    | JSON_TEXT,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(JSON_TEXT, inner, max_size=4)),
    max_leaves=25)


@settings(max_examples=300)
@given(JSON_VALUES)
@example({"": {}, "a": [], "b": [{}, [[]], ()], "\x00\x1f\x7f": "\u00e9\u2028\U0001f600\ud800"})
def test_json_writer_writes_the_text_of_json_dumps(value):
    assert cli.to_json(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("args", [[], ["--degree12"], ["--degree12", "--characteristic", "3"]],
                         ids=["blocks", "degree12", "degree12-char3"])
def test_catalog_json_is_the_text_of_json_dumps(capsys, args):
    assert main(["catalog", *args, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_catalog_degree12(capsys):
    assert main(["catalog", "--degree12"]) == 0
    out = capsys.readouterr().out
    assert out.count("deg 1") == 3
    assert "IDENTITY FAILS" not in out


# -- verify-param ------------------------------------------------------


def test_verify_param_corpus():
    assert main(["verify-param", PARAMS]) == 0


def test_verify_param_corpus_in_a_fresh_process():
    code, _, err = run_cli(["verify-param", PARAMS])
    assert (code, err) == (0, "")


def test_verify_param_failure(tmp_path, capsys):
    doc = {"version": "1", "checks": [
        {"name": "broken", "characteristic": 0, "hypersurface": "y - 1",
         "variables": ["y"], "substitution": {"y": "u"},
         "targetVariables": ["u"]}]}
    p = tmp_path / "p.json"
    p.write_text(json.dumps(doc))
    assert main(["verify-param", str(p)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_param_schema_error(tmp_path):
    p = tmp_path / "p.json"
    p.write_text(json.dumps({"version": "1", "checks": []}))
    assert main(["verify-param", str(p)]) == 2
