"""dpglue command line: scenario runner, catalog printer, identity checker.

Exit codes: 0 all checks pass, 1 at least one assertion/expectation
fails or the reader of stdout closed it early, 2 malformed input.
Output is deterministic (scenarios in file order).  ``--format json``
writes the text of ``json.dumps(value, indent=2, sort_keys=True)``: a
two-space indent, keys sorted, and strings with every non-ASCII or
control character escaped.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from json.encoder import encode_basestring_ascii

from dpglue import catalog, scenarios
from dpglue.fields import base_field


def _write_json(value, out: list, indent: str) -> None:
    """Append to ``out`` the pieces of ``value``'s JSON text at ``indent``.

    Reports hold only dicts with string keys, lists, tuples, strings,
    ints, bools and None; anything else raises TypeError.
    """
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple, dict)):
        if not value:
            out.append("{}" if isinstance(value, dict) else "[]")
            return
        inner = indent + "  "
        step = ",\n" + inner
        if isinstance(value, dict):
            out.append("{\n" + inner)
            for k, key in enumerate(sorted(value)):
                if k:
                    out.append(step)
                out.append(encode_basestring_ascii(key))
                out.append(": ")
                _write_json(value[key], out, inner)
            out.append("\n" + indent + "}")
        else:
            out.append("[\n" + inner)
            for k, item in enumerate(value):
                if k:
                    out.append(step)
                _write_json(item, out, inner)
            out.append("\n" + indent + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def to_json(value) -> str:
    """The text of ``json.dumps(value, indent=2, sort_keys=True)``."""
    out: list = []
    _write_json(value, out, "")
    return "".join(out)


def _report_lines(report: dict, mismatches) -> list:
    status = "ok" if not mismatches and not report["errors"] else "FAIL"
    head = (f"[{status}] {report['name']}: case={report['case']} "
            f"degree={report['degree']} gorenstein={report['gorenstein']}")
    lines = [head]
    lines.append(
        f"    singularity={report.get('singularity')} tame={report.get('tame')}"
        f" chi={report.get('chi')} h1={report.get('h1')}"
    )
    wild = report.get("wildPoints")
    if wild:
        pts = ", ".join(f"{k} (order {o})" for k, o in wild)
        lines.append(f"    wild points: {pts}")
    nd = report.get("n_delta_generic")
    if nd:
        lines.append(f"    generic stalk (n, delta) = {nd}")
    for err in report["errors"]:
        lines.append(f"    error: {err}")
    for m in mismatches:
        lines.append(f"    expectation mismatch: {m}")
    return lines


def cmd_run(args) -> int:
    loaded = []
    for path in args.files:
        try:
            loaded.extend(scenarios.load_scenario_file(path))
        except scenarios.ScenarioFileError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    failed = 0
    out = []
    for scenario, expect in loaded:
        report = catalog.scenario_report(scenario)
        mismatches = scenarios.check_expectations(report, expect)
        if mismatches or report["errors"]:
            failed += 1
        if args.format == "json":
            entry = dict(report)
            entry["expectationMismatches"] = mismatches
            entry["pass"] = not (mismatches or report["errors"])
            out.append(entry)
        else:
            out.extend(_report_lines(report, mismatches))
    total = len(loaded)
    if args.format == "json":
        doc = {"scenarios": out, "passed": total - failed, "failed": failed}
        print(to_json(doc))
    else:
        for line in out:
            print(line)
        print(f"{total - failed}/{total} scenarios passed")
    return 1 if failed else 0


# the largest --a-max; its block table prints in about 0.1 s (2-core x86-64)
A_MAX_LIMIT = 1000


def cmd_catalog(args) -> int:
    if args.degree12:
        try:
            base_field(args.characteristic)
        except ValueError as exc:
            print(f"error: --characteristic: {exc}", file=sys.stderr)
            return 2
        entries = catalog.degree12_catalog(args.characteristic)
        rows = []
        bad = False
        for e in entries:
            rep = catalog.scenario_report(e["scenario"])
            ok = rep["gorenstein"] and e["verified"] is not False
            bad = bad or not ok
            rows.append({
                "degree": e["degree"],
                "equation": e["equation"],
                "case": rep["case"],
                "parametrizationVerified": e["verified"],
                "gorenstein": rep["gorenstein"],
            })
        if args.format == "json":
            print(to_json(rows))
        else:
            for r in rows:
                v = {True: "identity checked", None: "-"}.get(
                    r["parametrizationVerified"], "IDENTITY FAILS")
                print(f"deg {r['degree']}  case {r['case']:<13} "
                      f"{r['equation']:<40} {v}")
        return 1 if bad else 0
    if not 0 <= args.a_max <= A_MAX_LIMIT:
        print(f"error: --a-max: {args.a_max} is outside 0..{A_MAX_LIMIT}", file=sys.stderr)
        return 2
    rows = catalog.block_table(args.a_max)
    bad = False
    out = []
    for b in rows:
        ok = catalog.verify_block(b)
        bad = bad or not ok
        out.append({
            "case": b.case, "a": b.a, "degree": b.degree,
            "conic": b.conic, "verified": ok,
        })
    if args.format == "json":
        print(to_json(out))
    else:
        for r in out:
            a = "-" if r["a"] is None else r["a"]
            mark = "ok" if r["verified"] else "LATTICE FAIL"
            print(f"{r['case']:<3} a={a:<3} degree={r['degree']:<3} "
                  f"conic={r['conic']:<12} {mark}")
    return 1 if bad else 0


def cmd_verify_param(args) -> int:
    try:
        checks = scenarios.load_param_file(args.file)
    except scenarios.ScenarioFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = 0
    for k, check in enumerate(checks):
        name = check.get("name", f"check {k}")
        try:
            ok = catalog.verify_parametrization(
                check["characteristic"],
                check["hypersurface"],
                check["variables"],
                check["substitution"],
                check["targetVariables"],
            )
        except (ValueError, ZeroDivisionError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        print(f"[{'ok' if ok else 'FAIL'}] {name}")
        failed += 0 if ok else 1
    return 1 if failed else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The dpglue parser, built once per process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="dpglue",
        description="Gorenstein gluing checks for normal surfaces "
                    "joined along conductor data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run scenario files")
    run.add_argument("files", nargs="+")
    run.add_argument("--format", choices=("text", "json"), default="text")
    run.set_defaults(func=cmd_run)

    cat = sub.add_parser("catalog", help="print verified tables")
    group = cat.add_mutually_exclusive_group()
    group.add_argument("--blocks", action="store_true", default=True)
    group.add_argument("--degree12", action="store_true")
    cat.add_argument("--a-max", type=int, default=5)
    cat.add_argument("--characteristic", type=int, default=0)
    cat.add_argument("--format", choices=("text", "json"), default="text")
    cat.set_defaults(func=cmd_catalog)

    vp = sub.add_parser("verify-param", help="check parametrization files")
    vp.add_argument("file")
    vp.set_defaults(func=cmd_verify_param)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early: no traceback, and point stdout
        # at devnull so the interpreter's last flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
