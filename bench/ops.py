"""One benchmark operation per workload, checked against the generator.

Inputs reach dpglue only through public functions: ``cli.main`` for
``verdicts``; ``glue_data``, ``parse_rational``, ``Place`` and the
closed-form / oracle pairs for ``cech`` and ``stalk``.  Each op returns
the list of (reason, detail) pairs for every answer that differs from
the truth; an empty list means the op passed.
"""

from __future__ import annotations

import contextlib
import io
import json

from dpglue import cli
from dpglue.cohomology import chi_OX, h1_OX, truncated_section_oracle
from dpglue.fields import base_field
from dpglue.glue import (KernelElement, glue_data, gorenstein_at_point,
                         gorenstein_at_point_oracle, ker_trace_closed_form,
                         ker_trace_oracle)
from dpglue.polynomials import Poly
from dpglue.rational import Place, parse_rational

from generate import EXPECT_KEYS

CLOSED = "closed_wrong"
ORACLE = "oracle_wrong"


def verdict_op(item, spans):
    buf = io.StringIO()
    with spans.span("cli.main"), contextlib.redirect_stdout(buf):
        rc = cli.main(["run", item["path"], "--format", "json"])
    reports = json.loads(buf.getvalue())["scenarios"]
    truths = item["truths"]
    wrong = []
    if len(reports) != len(truths):
        return [(CLOSED, f"{len(reports)} reports for {len(truths)} scenarios")]
    for rep, want in zip(reports, truths):
        for key in EXPECT_KEYS:
            if rep.get(key) != want[key]:
                wrong.append((CLOSED, f"{rep['name']}: {key} = {rep.get(key)!r}, "
                                      f"truth {want[key]!r}"))
        if rep["pass"] != want["gorenstein"]:
            wrong.append((CLOSED, f"{rep['name']}: pass = {rep['pass']}"))
    want_rc = 0 if all(t["gorenstein"] for t in truths) else 1
    if rc != want_rc:
        wrong.append((CLOSED, f"exit code {rc}, truth {want_rc}"))
    return wrong


def cech_op(item, spans):
    with spans.span("glue.glue_data"):
        data = glue_data(item["p"], item["a"], item["b"])
    with spans.span("cohomology.chi_h1"):
        closed = (chi_OX(data), h1_OX(data))
    with spans.span("cohomology.truncated_section_oracle"):
        oracle = truncated_section_oracle(data, item["n"])
    wrong = []
    if closed != tuple(item["closed"]):
        wrong.append((CLOSED, f"(chi, h1) = {closed}, truth {tuple(item['closed'])}"))
    if oracle != tuple(item["oracle"]):
        wrong.append((ORACLE, f"(h0, h1)(n={item['n']}) = {oracle}, "
                              f"truth {tuple(item['oracle'])}"))
    return wrong


def stalk_op(item, spans):
    p = item["p"]
    with spans.span("glue.glue_data"):
        data = glue_data(p, item["a"], item["b"])
    if item["check"] == "point":
        place = (Place.infinity() if item["place"] is None
                 else Place.finite(Poly.from_ints(base_field(p), item["place"])))
        with spans.span("glue.gorenstein_at_point"):
            closed = gorenstein_at_point(data, place)
        with spans.span("glue.gorenstein_at_point_oracle"):
            oracle = gorenstein_at_point_oracle(data, place)
    else:
        with spans.span("rational.parse_rational"):
            s = KernelElement([parse_rational(data.field, t) for t in item["f"]],
                              [parse_rational(data.field, t) for t in item["g"]])
        with spans.span("glue.ker_trace_closed_form"):
            closed = ker_trace_closed_form(data, s)
        with spans.span("glue.ker_trace_oracle"):
            oracle = ker_trace_oracle(data, s)
    wrong = []
    if closed != item["truth"]:
        wrong.append((CLOSED, f"{item['check']} closed form says {closed}"))
    if oracle != item["truth"]:
        wrong.append((ORACLE, f"{item['check']} oracle says {oracle}"))
    return wrong


OPS = {"verdicts": verdict_op, "cech": cech_op, "stalk": stalk_op}
