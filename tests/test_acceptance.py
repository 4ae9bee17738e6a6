"""Acceptance suite: every computable claim reproduced exactly.

Each test here corresponds to one numbered acceptance criterion; all
comparisons are symbolic with zero tolerance.
"""

import ast
import time
from importlib import resources

import pytest

from dpglue import linalg, scenarios
from dpglue.artinian import (annihilator, dual_module, is_faithful, length,
                             matrix_counterexample)
from dpglue.catalog import (GlueScenario, block_table, building_block,
                            scenario_report, verify_block,
                            verify_char2_normalization,
                            verify_char3_normalization, verify_degree1,
                            monomial_relation_check, DEGREE1_SUBSTITUTIONS)
from dpglue.cohomology import (chi_OX, h1_OX, truncated_section_oracle)
from dpglue.fields import base_field
from dpglue.filling import (BranchSpec, build_conductor_ring, classify_codim1,
                            is_half_filling, is_part_filling,
                            serre_invariants)
from dpglue.glue import (KernelElement, glue_data, gorenstein_at_point,
                         gorenstein_at_point_oracle, ker_trace_closed_form,
                         ker_trace_oracle, tangent_dims, wild_cusp_ring)
from dpglue.polynomials import Poly
from dpglue.rational import FunctionField, Place

from conftest import (CHARACTERISTICS, jordan_module, parse_rational_pow,
                      random_part_filling, rand_ratfunc, truncated_algebra)


def corpus(name):
    path = resources.files("dpglue").joinpath("data", name)
    return scenarios.load_scenario_file(str(path))


def test_criterion_1_table_degrees():
    degrees = {"a1": lambda a: 1, "a2": lambda a: 1, "a3": lambda a: 1,
               "b": lambda a: 4, "c0": lambda a: a, "c1": lambda a: a,
               "c2": lambda a: a, "d0": lambda a: a + 2,
               "d1": lambda a: a + 2, "e": lambda a: a + 4}
    seen = set()
    for block in block_table(10):
        assert verify_block(block)
        assert block.degree == degrees[block.case](block.a)
        seen.add(block.case)
    assert seen == set(degrees)


def test_criterion_2_singularity_models():
    Q = base_field(0)

    def half_and_classify(ring, basis):
        res = is_part_filling(basis, ring)
        assert res.ok and is_half_filling(res, ring)
        return repr(classify_codim1(res, ring))

    # node
    ring = build_conductor_ring(Q, [BranchSpec(1), BranchSpec(1)])
    assert half_and_classify(ring, [ring.algebra.unit]) == "node"
    # inseparable node: K[u]/(u^2 - x) over F_2(x)
    F2x = FunctionField(base_field(2))
    minpoly = Poly(F2x, [-F2x.x, F2x.zero, F2x.one])
    ring = build_conductor_ring(F2x, [BranchSpec(1, minpoly=minpoly)])
    assert half_and_classify(ring, [ring.algebra.unit]) == "inseparable-node"
    # cusp
    ring = build_conductor_ring(Q, [BranchSpec(2)])
    assert half_and_classify(ring, [ring.algebra.unit]) == "cusp"
    # tacnode
    ring = build_conductor_ring(Q, [BranchSpec(2), BranchSpec(2)])
    y1, y2 = ring.nilpotent(0), ring.nilpotent(1)
    basis = [ring.algebra.unit, [a - b for a, b in zip(y1, y2)]]
    assert half_and_classify(ring, basis) == "tacnode"
    # r concurrent lines
    for r in (3, 4, 5):
        ring = build_conductor_ring(Q, [BranchSpec(2)] * r)
        basis = [ring.algebra.unit]
        for i in range(r - 1):
            yi, yn = ring.nilpotent(i), ring.nilpotent(i + 1)
            basis.append([a - b for a, b in zip(yi, yn)])
        assert half_and_classify(ring, basis) == f"r-concurrent-lines({r})"
    # failures: diagonal K in K^3, and an r=3 config missing a summand
    ring = build_conductor_ring(Q, [BranchSpec(1)] * 3)
    res = is_part_filling([ring.algebra.unit], ring)
    assert res.ok and not is_half_filling(res, ring)
    ring = build_conductor_ring(Q, [BranchSpec(2)] * 3)
    res = is_part_filling(
        [ring.algebra.unit, ring.nilpotent(0), ring.nilpotent(1)], ring
    )
    assert not res.ok  # the missed summand annihilates the quotient


def test_criterion_3_serre_property_suite(rng):
    start = time.monotonic()
    found = 0
    while found < 100:
        p = CHARACTERISTICS[found % len(CHARACTERISTICS)]
        sample = random_part_filling(rng, base_field(p), max_branches=3,
                                     max_n=2)
        if sample is None:
            continue
        ring, res = sample
        assert ring.dim <= 8
        n, delta, l_d = serre_invariants(res, ring)
        assert l_d <= delta
        assert is_half_filling(res, ring) == (l_d == delta)
        found += 1
    assert time.monotonic() - start < 10.0


def test_criterion_4_trace_oracle_equivalence(rng):
    total = 0
    while total < 100:
        p = CHARACTERISTICS[total % len(CHARACTERISTICS)]
        r = rng.randint(1, 4)
        data = glue_data(
            p,
            rand_ratfunc(rng, p, 3),
            [rand_ratfunc(rng, p, 3, nonzero=True) for _ in range(r)],
        )
        s = KernelElement([rand_ratfunc(rng, p, 2) for _ in range(r)],
                          [rand_ratfunc(rng, p, 2) for _ in range(r)])
        assert ker_trace_closed_form(data, s) == ker_trace_oracle(data, s)
        total += 1
    # hand-picked members and non-members
    data = glue_data(0, "x", ["1", "1"])
    F = data.field
    members = [
        KernelElement([F.one, F.one], [F.zero, -F.one]),
        KernelElement([F.x, F.x], [-(F.x + F.x), F.zero]),
        KernelElement([F.zero, F.zero], [F.one, -F.one]),
        KernelElement([F.x * F.x, F.x * F.x],
                      [-(F.x * F.x), -(F.x * F.x + F.x * F.x)]),
        KernelElement([F.zero, F.zero], [F.zero, F.zero]),
    ]
    non_members = [
        KernelElement([F.one, F.from_int(2)], [F.zero, -F.one]),
        KernelElement([F.one, F.one], [F.zero, F.zero]),
        KernelElement([F.zero, F.zero], [F.one, F.one]),
        KernelElement([F.x, F.x], [F.zero, F.zero]),
        KernelElement([F.one, F.one], [F.one, -F.one]),
    ]
    for s in members:
        assert ker_trace_closed_form(data, s) and ker_trace_oracle(data, s)
    for s in non_members:
        assert not ker_trace_closed_form(data, s)
        assert not ker_trace_oracle(data, s)


def test_criterion_5_pointwise_criterion_oracle(rng):
    places_cache = {}
    checked = 0
    while checked < 50:
        p = CHARACTERISTICS[checked % len(CHARACTERISTICS)]
        if p not in places_cache:
            field = base_field(p)
            places_cache[p] = [
                Place.finite(Poly.x(field)),
                Place.finite(Poly(field, [field.one, field.one])),
                Place.infinity(),
            ]
        k = rng.randrange(0, 11)
        a = rand_ratfunc(rng, p, 2, nonzero=True) * parse_rational_pow(p, -k)
        b = [rand_ratfunc(rng, p, 1, nonzero=True)
             for _ in range(rng.randint(1, 3))]
        data = glue_data(p, a, b)
        place = places_cache[p][rng.randrange(3)]
        assert gorenstein_at_point(data, place) == \
            gorenstein_at_point_oracle(data, place)
        checked += 1


def test_criterion_6_tame_cohomology():
    loaded = corpus("tame_families.json")
    cases = set()
    for scenario, expect in loaded:
        report = scenario_report(scenario)
        assert not scenarios.check_expectations(report, expect)
        assert report["chi"] == 1 and report["h1"] == 0
        cases.add(report["case"])
        data = scenario.derivation
        assert truncated_section_oracle(data) == (1, 0)
        r = data.r
        for n in range(-3, 4):
            h0, h1 = truncated_section_oracle(data, twist=n)
            if n >= 0:
                assert h1 == 0
            else:
                # O_D(n) = O(n) + (r-1)O(n-1): exact sheaf values
                assert h0 == 0
                assert h1 == (-n - 1) + (r - 1) * (-n)
    assert cases == {"A", "B", "C1", "C2", "C3", "C4",
                     "D1", "D2", "D3", "D4"}


def test_criterion_7_wild_cohomology():
    p3 = glue_data(3, "1/x^3", ["1"])
    assert (chi_OX(p3), h1_OX(p3)) == (-1, 2)
    assert truncated_section_oracle(p3) == (1, 2)
    p2 = glue_data(2, "1/(x^2*(x+1)^2)", ["1"])
    assert (chi_OX(p2), h1_OX(p2)) == (-1, 2)
    assert truncated_section_oracle(p2) == (1, 2)
    p5 = glue_data(5, "1/x^10", ["1"])
    assert h1_OX(p5) == 8
    assert truncated_section_oracle(p5) == (1, 8)


def test_criterion_8_wild_cusp_data():
    for p in (2, 3, 5, 7):
        for n in range(1, 6):
            ring = wild_cusp_ring(p, n)
            assert ring.delta == n * (p - 1)
            if p >= 3:
                assert ring.embedding_dim == p
        assert tangent_dims(p, 2) == ((p, p) if p >= 3 else (2, 3))


def test_criterion_9_explicit_normalizations(rng):
    for eq in DEGREE1_SUBSTITUTIONS:
        assert verify_degree1(0, eq)
    for n in (1, 2, 3):
        h0 = rng.choice([1, 2])
        assert verify_char3_normalization(n, h0)
        assert verify_char2_normalization(n)
    for p in (3, 5):
        assert monomial_relation_check(p, 1)
        assert monomial_relation_check(p, 2)


def test_criterion_10_duality_suite(rng):
    count = 0
    while count < 50:
        p = CHARACTERISTICS[count % len(CHARACTERISTICS)]
        field = base_field(p)
        n = rng.randrange(1, 4)
        A = truncated_algebra(field, n)
        sizes = []
        budget = rng.randrange(1, 7)
        while budget > 0:
            j = rng.randrange(1, min(n, budget) + 1)
            sizes.append(j)
            budget -= j
        M = jordan_module(A, sizes)
        D = dual_module(M)
        assert length(D) == length(M)
        ann_m, ann_d = annihilator(M), annihilator(D)
        rank_m = len(linalg.row_space_basis(field, ann_m))
        assert linalg.rank(field, ann_m + ann_d) == rank_m
        assert rank_m == len(linalg.row_space_basis(field, ann_d))
        assert dual_module(D).action == M.action
        count += 1
    for n, alen, mlen in ((2, 5, 4), (3, 10, 6)):
        A, M = matrix_counterexample(base_field(0), n)
        assert length(A.regular_module()) == alen
        assert length(M) == mlen and is_faithful(M)
        assert alen > mlen


def test_criterion_11_perturbation_flips_verdict():
    # C_r scenario: moving one node marker off its image breaks it
    good_ident = {"map": [[0, 1], [1, 2], ["inf", "inf"]],
                  "node": 0, "nodeTarget": 1}
    bad_ident = dict(good_ident, nodeTarget=2)
    blocks = [building_block("a2"), building_block("c1", 2)]
    keep = {"map": [[0, 0], [1, 1], ["inf", "inf"]],
            "node": 0, "nodeTarget": 0}
    good = GlueScenario(0, blocks, "C", identifications=[keep, good_ident])
    bad = GlueScenario(0, blocks, "C", identifications=[keep, bad_ident])
    assert scenario_report(good)["gorenstein"]
    assert not scenario_report(bad)["gorenstein"]
    # wild pole order 3 -> 2 in characteristic 3
    block = [building_block("c2", 2)]
    ok = GlueScenario(3, block, "D", derivation=glue_data(3, "1/x^3", ["1"]))
    broken = GlueScenario(3, block, "D", derivation=glue_data(3, "1/x^2", ["1"]))
    assert scenario_report(ok)["gorenstein"]
    assert not scenario_report(broken)["gorenstein"]


def test_no_verdict_depends_on_a_random_draw():
    # polynomials.py may import random: Cantor-Zassenhaus draws from a
    # fixed seed, and the factorisation it finds is unique
    importers = []
    for path in resources.files("dpglue").iterdir():
        if path.name.endswith(".py") and path.name != "polynomials.py":
            for node in ast.walk(ast.parse(path.read_text())):
                names = []
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                if any(name.split(".")[0] == "random" for name in names):
                    importers.append(path.name)
    assert importers == []
