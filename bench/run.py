"""dpglue benchmark: one workload, one seed, one closed-loop client.

Run from the root of a dpglue checkout:

    python3 bench/run.py --workload verdicts --seed 1 --seconds 30 --trace 0

One process, one thread: each op starts when the previous one ends.
``--trace 0`` times ops for ``--seconds`` (and at least MIN_SAMPLES ops)
and reports the end-to-end metrics.  ``--trace 1`` runs one fixed cycle
of the workload untraced, then again under cProfile with spans, and
reports the per-layer metrics; a fixed cycle makes every ``.calls``
count repeat exactly for a given seed.  It then runs the census of
known defects, untraced, and counts how those ops fail.  The last line
of stdout is one JSON object; lines before it give each metric with its
unit and sample count, and every failing op with its reason.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import generate
from tracing import Spans, layer_metrics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

MIN_SAMPLES = 100       # ten samples beyond p90
MAX_LOOP_S = 120.0      # never start an op after this, whatever --seconds
OP_DEADLINE_S = 30.0    # per op, untraced; the traced pass allows 2x
SETUP_SAMPLES = 6       # fresh-process imports before, and again after, the loop
PASSES = 40             # rounds of fresh inputs over the shapes, untraced
SELF_TIME_TOLERANCE = 0.1  # layer self times must cover the profiled wall time
IMPORT_CODE = (
    "import os, sys, time\n"
    "sys.path.insert(0, 'src')\n"
    "t = time.perf_counter()\n"
    "import dpglue.cli, dpglue.cohomology, dpglue.glue\n"
    "dt = time.perf_counter() - t\n"
    "assert os.path.abspath(dpglue.__file__).startswith(os.path.abspath('src'))\n"
    "print(repr(dt))\n"
)

PROBE_NOMINAL_S = 0.0015  # about the probe time on a quiet 2-vCPU x86-64 host
PROBE_BLOCK = 10         # consecutive ops rescaled by one median probe time

END_TO_END = {"ops_per_ref_s": "ops/s", "latency_p50_ref_ms": "ms",
              "latency_p90_ref_ms": "ms", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "fields.self_s": "s", "fields.calls": "count",
    "polynomials.self_s": "s", "polynomials.factor.calls": "count",
    "polynomials.factor.cum_s": "s", "polynomials.divmod.calls": "count",
    "polynomials.gcd.calls": "count",
    "rational.self_s": "s", "rational.normalise.calls": "count",
    "linalg.self_s": "s", "linalg.rref.calls": "count", "linalg.solve.calls": "count",
    "artinian.self_s": "s", "artinian.verify.calls": "count",
    "artinian.verify.cum_s": "s",
    "glue.self_s": "s", "glue.kxi_engine.calls": "count",
    "glue.kxi_engine.cum_s": "s", "glue.pole_places.calls": "count",
    "cohomology.self_s": "s", "cohomology.cech.cum_s": "s",
    "cohomology.coords_in_W.calls": "count",
    "catalog.self_s": "s", "catalog.report.cum_s": "s",
    "scenarios.self_s": "s", "scenarios.load.cum_s": "s", "cli.self_s": "s",
    "defects.closed_wrong": "count", "defects.oracle_wrong": "count",
    "defects.errors": "count", "defects.timeouts": "count",
    "other.self_s": "s", "trace.overhead_ratio": "ratio",
}


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


class Tally:
    """Outcome of every op: latencies, failures with reasons, counters."""

    def __init__(self):
        self.latencies = []
        self.warmup = 0  # leading ops that are checked but not timed
        self.probes = []  # host probe time after each timed op, untraced loop only
        self.failures = []  # (op id, reason, detail)
        self.counts = {"closed_wrong": 0, "oracle_wrong": 0, "errors": 0, "timeouts": 0}
        self.returned = []  # per op: True if it returned, without raising or timing out
        self.failed = 0
        self.deg_gt1 = 0

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def timed(self):
        """Latencies of the ops after the warm-up."""
        return self.latencies[self.warmup:]


def run_op(op, item, spans, tally, deadline):
    """Run one op under a SIGALRM deadline and record its outcome."""
    wrong = []
    returned = False
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, deadline)
    try:
        with spans.op(item["id"]):
            wrong = op(item, spans)
        returned = True
    except OpTimeout:
        wrong = [("timeouts", f"no answer within {deadline:g} s")]
    except Exception as exc:  # any exception is a failed op, listed with its reason
        wrong = [("errors", f"{type(exc).__name__}: {exc}")]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    tally.latencies.append(time.perf_counter() - start)
    tally.returned.append(returned)
    tally.deg_gt1 += item["maxPlaceDegree"] > 1
    tally.failed += bool(wrong)
    for reason in {reason for reason, _ in wrong}:
        tally.counts[reason] += 1
    tally.failures.extend((item["id"], reason, detail) for reason, detail in wrong)


def probe():
    """Time a fixed piece of pure-Python work like dpglue's own.

    Fractions, small ints and dicts: on a shared host its time rises and
    falls with the host's speed, in step with the ops around it.
    """
    start = time.perf_counter()
    acc = Fraction(0)
    xs = [Fraction(i, i + 1) for i in range(1, 25)]
    for a in xs:
        for b in xs[:8]:
            acc += a * b - b / (a + 1)
    counts = {}
    for i in range(1000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return time.perf_counter() - start


def reference_latencies(tally):
    """Op times rescaled to a host where the probe takes PROBE_NOMINAL_S.

    Each block of PROBE_BLOCK consecutive ops is divided by the median
    probe time of that block over the nominal one.
    """
    out, timed = [], tally.timed
    for k in range(0, len(timed), PROBE_BLOCK):
        slowdown = statistics.median(tally.probes[k:k + PROBE_BLOCK]) / PROBE_NOMINAL_S
        out.extend(t / slowdown for t in timed[k:k + PROBE_BLOCK])
    return out


def measure_setup():
    """Import times of dpglue in SETUP_SAMPLES fresh processes: (wall, rescaled).

    Each sample is rescaled by the median of five probes taken just before it.
    """
    wall, ref = [], []
    for _ in range(SETUP_SAMPLES):
        slowdown = statistics.median(probe() for _ in range(5)) / PROBE_NOMINAL_S
        proc = subprocess.run([sys.executable, "-c", IMPORT_CODE], cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode:
            raise SystemExit(f"error: importing dpglue from src/ failed:\n{proc.stderr}")
        wall.append(float(proc.stdout))
        ref.append(wall[-1] / slowdown)
    return wall, ref


def import_dpglue():
    if not os.path.isfile(os.path.join(SRC, "dpglue", "__init__.py")):
        raise SystemExit(f"error: no dpglue sources under {SRC}; "
                         "run from the root of a dpglue checkout")
    sys.path.insert(0, SRC)
    import dpglue

    if not os.path.abspath(dpglue.__file__).startswith(SRC):
        raise SystemExit(f"error: dpglue imported from {dpglue.__file__}, not {SRC}")


def make_inputs(workload, seed, passes):
    shipped = {}
    for name in ("tame_families.json", "wild_families.json"):
        path = os.path.join(SRC, "dpglue", "data", name)
        with open(path) as fh:
            shipped[name] = (path, json.load(fh))
    return write_scenarios(generate.workload_inputs(workload, seed, passes, shipped))


def write_scenarios(items):
    """Give every generated scenario document a file for ``dpglue run``."""
    folder = os.path.join(OUT, "scenarios")  # rewritten by every run
    for item in items:
        if "doc" in item and "path" not in item:
            os.makedirs(folder, exist_ok=True)
            item["path"] = os.path.join(folder, f"{item['id']}.json")
            with open(item["path"], "w") as fh:
                json.dump(item["doc"], fh)
    return items


def timed_loop(op, items, seconds, spans, round_len):
    """Closed loop over the cycle until time is up and samples suffice.

    The first round is a warm-up: checked, not timed.  Its times varied
    by 10% from seed to seed, the later rounds' by 1%, as caches filled.
    The loop stops only at the end of a round, so every run times the
    same mix of shapes; a part round would tilt the mix towards its
    first shapes and move the figures from run to run.  It stops at the
    round end nearest to ``seconds``, judged by the mean round time.
    """
    tally = Tally()
    for item in items[:round_len]:
        run_op(op, item, spans, tally, OP_DEADLINE_S)
    tally.warmup = k = round_len
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        rounds = len(tally.timed) // round_len
        if elapsed >= MAX_LOOP_S or (
                k % round_len == 0 and len(tally.timed) >= MIN_SAMPLES
                and elapsed + elapsed / rounds / 2 >= seconds):
            break
        run_op(op, items[k % len(items)], spans, tally, OP_DEADLINE_S)
        tally.probes.append(probe())
        k += 1
    return tally, time.perf_counter() - start


def fixed_pass(op, items, spans, deadline):
    tally = Tally()
    start = time.perf_counter()
    for item in items:
        run_op(op, item, spans, tally, deadline)
    return tally, time.perf_counter() - start


def percentiles_ms(latencies):
    """(p50, p90) in ms."""
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return statistics.median(latencies) * 1e3, deciles[8] * 1e3


def end_to_end(tally, setup):
    """The end-to-end metrics, and the same timings as plain wall time."""
    ref = reference_latencies(tally)
    returned = sum(tally.returned[tally.warmup:])
    p50, p90 = percentiles_ms(ref)
    metrics = {
        "ops_per_ref_s": returned / sum(ref),
        "latency_p50_ref_ms": p50,
        "latency_p90_ref_ms": p90,
        "setup_s": statistics.median(setup[1]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    p50, p90 = percentiles_ms(tally.timed)
    wall = {"ops_per_s": returned / sum(tally.timed),
            "latency_p50_ms": p50, "latency_p90_ms": p90,
            "setup_s": statistics.median(setup[0]),
            "host_slowdown": statistics.median(tally.probes) / PROBE_NOMINAL_S}
    return metrics, wall


def per_layer(census, traced_wall, plain_wall, profile):
    m = layer_metrics(profile, SRC)
    self_total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    m.update({f"defects.{k}": v for k, v in census.counts.items()})
    m["trace.overhead_ratio"] = traced_wall / plain_wall
    if abs(self_total / traced_wall - 1) > SELF_TIME_TOLERANCE:
        raise SystemExit(f"error: layer self times sum to {self_total:.3f} s "
                         f"of {traced_wall:.3f} s profiled")
    return {k: m[k] for k in PER_LAYER}, self_total


def report(workload, seed, trace, tally, metrics, units, note, wall=None, census=None):
    print(f"workload={workload} seed={seed} trace={trace} attempted={tally.attempted} "
          f"failed={tally.failed} {note}")
    n, t = tally.attempted, len(tally.timed)
    counts = {"latency_p50_ref_ms": f"n={t} after {tally.warmup} warm-up ops",
              "latency_p90_ref_ms": f"n={t}, {t - int(0.9 * t)} beyond p90",
              "setup_s": f"median of {2 * SETUP_SAMPLES} fresh imports"}
    for name, value in metrics.items():
        print(f"  {name:<30} {value:>14.6g} {units[name]:<6} {counts.get(name, '')}")
    if wall:
        print(f"  wall time, before rescaling by the host probe (n={t}):")
        for name, unit in (("ops_per_s", "ops/s"), ("latency_p50_ms", "ms"),
                           ("latency_p90_ms", "ms"), ("setup_s", "s"),
                           ("host_slowdown", "x")):
            print(f"  {name:<30} {wall[name]:>14.6g} {unit}")
    print(f"  {'fail_ratio':<30} {tally.failed / n:>14.6g} {'ratio':<6} "
          f"{tally.failed} of {n} ops, warm-up included")
    print(f"  ops with a place of degree > 1: {tally.deg_gt1}/{n} = {tally.deg_gt1 / n:.4f}")
    for op_id, reason, detail in tally.failures:
        print(f"  FAIL {op_id} {reason}: {detail}")
    if census is not None:
        print(f"  census of known defects: {census.failed} of {census.attempted} ops fail")
        for op_id, reason, detail in census.failures:
            print(f"  KNOWN {op_id} {reason}: {detail}")


def write_outputs(workload, seed, trace, tally, spans, census=None):
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{workload}-s{seed}-t{trace}")
    for suffix, t in (("-failures.json", tally), ("-defects.json", census)):
        if t is not None:
            with open(stem + suffix, "w") as fh:
                json.dump([{"op": o, "reason": r, "detail": d} for o, r, d in t.failures],
                          fh, indent=1)
    if spans.enabled:
        spans.write(stem + "-spans.jsonl")


def traced_run(op, items, census_items):
    """One untraced pass (caches warm, baseline wall), then a profiled one,
    then the census of known defects, untraced."""
    _, plain_wall = fixed_pass(op, items, Spans(False), OP_DEADLINE_S)
    spans = Spans(True)
    profile = cProfile.Profile(builtins=False)
    start = time.perf_counter()
    profile.enable()
    tally, _ = fixed_pass(op, items, spans, 2 * OP_DEADLINE_S)
    profile.disable()
    traced_wall = time.perf_counter() - start
    census, _ = fixed_pass(op, census_items, Spans(False), OP_DEADLINE_S)
    metrics, self_total = per_layer(census, traced_wall, plain_wall, profile)
    note = (f"cycle={len(items)} ops, untraced {plain_wall:.3f}s, traced {traced_wall:.3f}s,"
            f" layer self times {self_total:.3f}s")
    return tally, metrics, note, spans, census


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("verdicts", "cech", "stalk"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_dpglue()
    from ops import OPS  # imports dpglue, so only once src/ is on the path

    op = OPS[args.workload]
    items = make_inputs(args.workload, args.seed, 1 if args.trace else PASSES)
    signal.signal(signal.SIGALRM, _alarm)
    census = None
    if not args.trace:
        spans = Spans(False)
        before = measure_setup()
        round_len = len(generate.WORKLOADS[args.workload][0])
        tally, loop_wall = timed_loop(op, items, args.seconds, spans, round_len)
        after = measure_setup()
        setup = (before[0] + after[0], before[1] + after[1])
        metrics, wall = end_to_end(tally, setup)
        units, note = END_TO_END, f"loop={loop_wall:.3f}s"
    else:
        census_items = write_scenarios(generate.defect_inputs(args.workload, args.seed))
        tally, metrics, note, spans, census = traced_run(op, items, census_items)
        units, wall = PER_LAYER, None
    write_outputs(args.workload, args.seed, args.trace, tally, spans, census)
    report(args.workload, args.seed, args.trace, tally, metrics, units, note, wall, census)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
