"""Spans around the benchmark's calls into dpglue, and per-layer profiles.

Spans are kept in memory and written when the run ends.  Layer numbers
come from ``cProfile`` with ``builtins=False``: each function's self
time goes to the layer of the module that defines it, so time inside a
builtin is charged to its Python caller.
"""

from __future__ import annotations

import contextlib
import json
import os
import pstats
import time

# dpglue modules with a layer of their own; every other file is "other",
# except the two stand-ins below.
LAYERS = ("fields", "polynomials", "rational", "linalg", "artinian", "glue",
          "cohomology", "catalog", "scenarios", "cli")
STAND_INS = {"fractions.py": "fields"}  # Fraction is the field Q
PACKAGE_STAND_INS = {"jsonschema": "scenarios"}  # schema validation


class Spans:
    """In-memory spans: name, op id, own id, parent id, start and end."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.items = []
        self._stack = []
        self._op = None

    @contextlib.contextmanager
    def op(self, op_id: str):
        self._op = op_id
        with self.span("op"):
            yield

    def span(self, name: str):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._record(name)

    @contextlib.contextmanager
    def _record(self, name):
        sid = len(self.items)
        rec = {"op": self._op, "span": sid,
               "parent": self._stack[-1] if self._stack else None,
               "name": name, "start": time.perf_counter(), "end": None}
        self.items.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def write(self, path: str):
        with open(path, "w") as fh:
            for rec in self.items:
                fh.write(json.dumps(rec) + "\n")


def _layer(filename: str, src: str) -> str:
    if filename.startswith(src):
        mod = os.path.splitext(os.path.basename(filename))[0]
        return mod if mod in LAYERS else "other"
    base = os.path.basename(filename)
    if base in STAND_INS:
        return STAND_INS[base]
    parts = filename.split(os.sep)
    for pkg, layer in PACKAGE_STAND_INS.items():
        if pkg in parts:
            return layer
    return "other"


def _targets():
    """Metric stem -> (filename, first line, name) of a dpglue function."""
    from dpglue import artinian, catalog, cohomology, glue, linalg, polynomials
    from dpglue import rational, scenarios

    funcs = {
        "polynomials.factor": polynomials.Poly.factor,
        "polynomials.divmod": polynomials.Poly.__divmod__,
        "polynomials.gcd": polynomials.Poly.gcd,
        "rational.normalise": rational.RationalFunction.__init__,
        "linalg.rref": linalg.rref,
        "linalg.solve": linalg.solve,
        "artinian.verify": artinian.FiniteAlgebra._verify,
        "glue.kxi_engine": glue.kxi_engine,
        "glue.pole_places": glue.pole_places,
        "cohomology.cech": cohomology.truncated_section_oracle,
        "catalog.report": catalog.scenario_report,
        "scenarios.load": scenarios.load_scenario_file,
    }
    out = {}
    for stem, fn in funcs.items():
        code = fn.__code__
        out[stem] = (code.co_filename, code.co_firstlineno, code.co_name)
    return out


def layer_metrics(profile, src: str) -> dict:
    """Per-layer self time and call counts from a finished profile."""
    stats = pstats.Stats(profile).stats
    self_s = {layer: 0.0 for layer in LAYERS + ("other",)}
    field_calls = coords_calls = 0
    cohomology_file = os.path.join(src, "dpglue", "cohomology.py")
    for (filename, _, name), (_, nc, tt, _, _) in stats.items():
        layer = _layer(filename, src)
        self_s[layer] += tt
        if layer == "fields":
            field_calls += nc
        if filename == cohomology_file and name == "coords_in_W":  # nested function
            coords_calls += nc
    out = {f"{layer}.self_s": t for layer, t in self_s.items()}
    out["fields.calls"] = field_calls
    out["cohomology.coords_in_W.calls"] = coords_calls
    for stem, key in _targets().items():
        _, nc, _, ct, _ = stats.get(key, (0, 0, 0.0, 0.0, None))
        out[f"{stem}.calls"] = nc
        out[f"{stem}.cum_s"] = ct
    return out
