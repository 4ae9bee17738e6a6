"""Tests of the benchmark itself: inputs, truth, trace counts, smoke runs.

Run from the repository root:  python3 -m pytest bench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import generate  # noqa: E402

CORPORA = ("tame_families.json", "wild_families.json")


def shipped():
    out = {}
    for name in CORPORA:
        path = os.path.join(ROOT, "src", "dpglue", "data", name)
        with open(path) as fh:
            out[name] = (path, json.load(fh))
    return out


def inputs(workload, seed):
    return (generate.workload_inputs(workload, seed, 2, shipped())
            + generate.defect_inputs(workload, seed))


@pytest.mark.parametrize("workload", ["verdicts", "cech", "stalk"])
def test_same_seed_gives_identical_inputs(workload):
    first = json.dumps(inputs(workload, 7), sort_keys=True).encode()
    again = json.dumps(inputs(workload, 7), sort_keys=True).encode()
    other = json.dumps(inputs(workload, 8), sort_keys=True).encode()
    assert first == again
    assert first != other


def test_census_shapes_are_not_timed():
    for shapes, defects, _ in generate.WORKLOADS.values():
        assert defects and not set(map(repr, shapes)) & set(map(repr, defects))


def test_truth_agrees_with_shipped_expect_blocks():
    for _, doc in shipped().values():
        for entry in doc["scenarios"]:
            truth = generate.scenario_truth(entry)
            for key, want in entry["expect"].items():
                assert truth[key] == want, (entry["name"], key)


def test_generated_files_validate_and_carry_expect_blocks():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from dpglue.scenarios import SCENARIO_FILE_SCHEMA, validate_document

    for seed in (1, 2):
        for item in inputs("verdicts", seed):
            validate_document(item["doc"], SCENARIO_FILE_SCHEMA)
            assert all("expect" in e for e in item["doc"]["scenarios"])


def _roots_mod_p(coeffs, p):
    return [v for v in range(p) if sum(c * v ** i for i, c in enumerate(coeffs)) % p == 0]


def _rational_roots(coeffs):
    """Roots of a monic integer polynomial: integer divisors of c_0."""
    c0 = coeffs[0]
    if c0 == 0:
        return [0]
    cands = [d for d in range(1, abs(c0) + 1) if c0 % d == 0]
    return [v for d in cands for v in (d, -d)
            if sum(Fraction(c) * v ** i for i, c in enumerate(coeffs)) == 0]


def test_irreducible_tables_by_brute_force():
    # degree <= 3 and no root in the field means irreducible
    for p, by_degree in generate.IRREDUCIBLES.items():
        seen = set()
        for deg, polys in by_degree.items():
            for coeffs in polys:
                assert len(coeffs) == deg + 1 and coeffs[-1] == 1
                assert coeffs not in seen
                seen.add(coeffs)
                if deg == 1:
                    continue
                roots = _roots_mod_p(coeffs, p) if p else _rational_roots(coeffs)
                assert not roots, (p, coeffs, roots)


def test_parse_reads_back_what_render_wrote():
    for p in generate.CHARACTERISTICS:
        polys = [b for d in (1, 2, 3) for b in generate.IRREDUCIBLES[p][d]]
        f = generate.Fact(p, 3, {polys[0]: -4, polys[-1]: 2, polys[1]: -1})
        back = generate.parse(f.render(), p)
        assert (back.lam, back.exps) == (f.lam, f.exps)


def _run(code, cwd=ROOT):
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


TRACED_CALLS = """
import json, sys
sys.path.insert(0, 'bench')
import run, signal
run.import_dpglue()
from ops import OPS
signal.signal(signal.SIGALRM, run._alarm)
items = run.make_inputs('{w}', 5, 1)[:{k}]
_, metrics, _, _, _ = run.traced_run(OPS['{w}'], items, [])
print(json.dumps({{k: v for k, v in metrics.items() if k.endswith('.calls')}}))
"""


@pytest.mark.parametrize("workload,k", [("verdicts", 12), ("cech", 6), ("stalk", 10)])
def test_traced_call_counts_repeat_exactly(workload, k):
    runs = [_run(TRACED_CALLS.format(w=workload, k=k)) for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    first, second = (json.loads(proc.stdout) for proc in runs)
    assert first == second
    assert any(first.values())


SMOKE = """
import sys
sys.path.insert(0, 'bench')
import run
run.MIN_SAMPLES = 5
run.SETUP_SAMPLES = 1
sys.exit(run.main(['--workload', '{w}', '--seed', '3', '--seconds', '0.3',
                   '--trace', '0']))
"""


@pytest.mark.parametrize("workload", ["verdicts", "cech", "stalk"])
def test_tiny_smoke_run(workload):
    proc = _run(SMOKE.format(w=workload))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 5
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(benchmark_metric_names())


def benchmark_metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)["end_to_end"]]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "verdicts",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
