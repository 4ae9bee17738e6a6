"""Building-block table, gluing classifier, explicit equations."""

import re
import time
from collections import Counter
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from dpglue import catalog, linalg
from dpglue.catalog import (GlueScenario, PicardClass, ScenarioError,
                            block_table, building_block, canonical_class,
                            classify_gluing, degree12_catalog,
                            hirzebruch_pairing, _mobius_ints,
                            monomial_relation_check, node_matching_check,
                            scenario_report, verify_block,
                            verify_char2_normalization,
                            verify_char3_normalization, verify_degree1,
                            verify_parametrization, DEGREE1_SUBSTITUTIONS)
from dpglue.fields import base_field
from dpglue.glue import glue_data
from dpglue.multipoly import MPoly, parse_mpoly


IDENTITY_IDENT = {"map": [[0, 0], [1, 1], ["inf", "inf"]],
                  "node": 0, "nodeTarget": 0}


# -- lattice -----------------------------------------------------------


def test_fibre_self_intersection_zero():
    A = PicardClass(("F", 2), (1, 0))
    assert hirzebruch_pairing(A, A) == 0


@pytest.mark.parametrize("a", range(0, 6))
def test_case_e_degree(a):
    H = PicardClass(("F", a), (a + 2, 1))
    assert hirzebruch_pairing(H, H) == a + 4


def test_cone_polarization_kills_B():
    a = 3
    H = PicardClass(("F", a), (a, 1))
    B = PicardClass(("F", a), (0, 1))
    assert hirzebruch_pairing(H, B) == 0


def test_canonical_squares():
    assert hirzebruch_pairing(canonical_class(("P2",)),
                              canonical_class(("P2",))) == 9
    for a in range(4):
        K = canonical_class(("F", a))
        assert hirzebruch_pairing(K, K) == 8


# -- blocks ------------------------------------------------------------


def test_case_b_verifies():
    assert verify_block(building_block("b"))


def test_case_d_degree():
    block = building_block("d1", 2)
    assert block.degree == 4 and verify_block(block)


def test_cone_case_resolution_degree():
    block = building_block("c1", 3)
    assert block.degree == 3 and verify_block(block)


def test_degree_table_full_range():
    expected = {"a1": lambda a: 1, "a2": lambda a: 1, "a3": lambda a: 1,
                "b": lambda a: 4, "c0": lambda a: a, "c1": lambda a: a,
                "c2": lambda a: a, "d0": lambda a: a + 2,
                "d1": lambda a: a + 2, "e": lambda a: a + 4}
    for block in block_table(10):
        assert verify_block(block)
        assert block.degree == expected[block.case](block.a)


@pytest.mark.parametrize("bad", [("c0", 3), ("c0", 1), ("c1", 0), ("d0", 2),
                                 ("e", -1), ("a1", 2), ("zz", None)])
def test_illegal_blocks_rejected(bad):
    with pytest.raises(ValueError):
        building_block(*bad)


# -- classification ----------------------------------------------------


def test_single_smooth_conic_is_A():
    scen = GlueScenario(0, [building_block("e", 1)], "A")
    assert classify_gluing(scen) == "A"


def test_two_smooth_conics_is_B():
    scen = GlueScenario(0, [building_block("b"), building_block("e", 0)], "B")
    assert classify_gluing(scen) == "B"


def test_two_planes_degenerate_B():
    scen = GlueScenario(0, [building_block("a1")] * 2, "B")
    assert classify_gluing(scen) == "B-degenerate"


def test_line_pair_cycle_is_C3():
    blocks = [building_block("c1", 2), building_block("c1", 3),
              building_block("d1", 0)]
    scen = GlueScenario(0, blocks, "C", identifications=[IDENTITY_IDENT] * 3)
    assert classify_gluing(scen) == "C3"


def test_two_a2_rejected():
    scen = GlueScenario(0, [building_block("a2")] * 2, "C",
                        identifications=[IDENTITY_IDENT] * 2)
    with pytest.raises(ScenarioError):
        classify_gluing(scen)


def test_two_a3_rejected():
    scen = GlueScenario(0, [building_block("a3")] * 2, "D",
                        derivation=glue_data(0, "1", ["1", "1"]))
    with pytest.raises(ScenarioError):
        classify_gluing(scen)


def test_mixed_natures_rejected():
    scen = GlueScenario(0, [building_block("e", 0), building_block("a3")], "B")
    with pytest.raises(ScenarioError):
        classify_gluing(scen)


def test_case_D_needs_matching_derivation():
    scen = GlueScenario(0, [building_block("c2", 2)], "D",
                        derivation=glue_data(0, "1", ["1", "1"]))
    with pytest.raises(ScenarioError):
        classify_gluing(scen)


# -- node matching -----------------------------------------------------


def test_mobius_determined_by_three_points():
    F = base_field(0)
    mat = [[F.from_int(x) for x in row]
           for row in _mobius_ints(F, [[0, 1], [1, 2], ["inf", "inf"]])]  # z -> z+1
    five = (F.from_int(5), F.one)
    img = (mat[0][0] * five[0] + mat[0][1] * five[1],
           mat[1][0] * five[0] + mat[1][1] * five[1])
    assert img[0] / img[1] == F.from_int(6)


def test_matched_nodes_pass():
    scen = GlueScenario(
        0, [building_block("c1", 2)], "C",
        identifications=[{"map": [[0, 1], [1, 2], ["inf", "inf"]],
                          "node": 0, "nodeTarget": 1}],
    )
    ok, problems = node_matching_check(scen)
    assert ok and not problems


def test_translated_node_fails():
    scen = GlueScenario(
        0, [building_block("c1", 2)], "C",
        identifications=[{"map": [[0, 1], [1, 2], ["inf", "inf"]],
                          "node": 0, "nodeTarget": 2}],
    )
    ok, problems = node_matching_check(scen)
    assert not ok and "pole" in problems[0]


def test_self_glued_cone_case():
    scen = GlueScenario(0, [building_block("c1", 2)], "C",
                        identifications=[IDENTITY_IDENT])
    ok, _ = node_matching_check(scen)
    assert ok


# The Moebius maps in field arithmetic, dividing by det, that the integer
# maps replaced; kept as their reference.


def field_point(field, v):
    if v == "inf":
        return (field.one, field.zero)
    try:
        return (field.from_int(int(v)), field.one)
    except ValueError:
        raise ScenarioError(
            f"identification point {v!r} is not an integer or 'inf'") from None


def field_mobius_matrix(field, p1, p2, p3):
    det = p1[0] * p2[1] - p1[1] * p2[0]
    if not det:
        raise ScenarioError("identification points are not distinct")
    alpha = (p3[0] * p2[1] - p3[1] * p2[0]) / det
    beta = (p1[0] * p3[1] - p1[1] * p3[0]) / det
    if not alpha or not beta:
        raise ScenarioError("identification points are not distinct")
    return [[alpha * p1[0], beta * p2[0]], [alpha * p1[1], beta * p2[1]]]


def field_mobius_from_pairs(field, pairs):
    if len(pairs) != 3:
        raise ScenarioError("a Moebius identification needs three point pairs")
    src = [field_point(field, s) for s, _ in pairs]
    dst = [field_point(field, t) for _, t in pairs]
    ms = field_mobius_matrix(field, *src)
    md = field_mobius_matrix(field, *dst)
    (a, b), (c, d) = ms
    return linalg.mat_mul(field, md, [[d, -b], [-c, a]])


def field_node_moved(field, ident):
    mat = field_mobius_from_pairs(field, ident["map"])
    node = field_point(field, ident["node"])
    target = field_point(field, ident["nodeTarget"])
    image = linalg.mat_vec(field, mat, node)
    return bool(image[0] * target[1] - image[1] * target[0])


def outcome(moved, *args):
    try:
        return moved(*args)
    except ScenarioError as exc:
        return str(exc)


ID_POINTS = st.one_of(st.integers(-12, 12), st.just("inf"), st.integers(-12, 12).map(str),
                      st.sampled_from(["x", "1/2", "", " 3 ", "inf ", "1e3", 10**30,
                                       str(-10**30)]))


@settings(max_examples=400)
@given(st.sampled_from([0, 2, 3, 5, 7, 1000003]),
       st.lists(st.lists(ID_POINTS, min_size=2, max_size=2), min_size=2, max_size=4),
       ID_POINTS, ID_POINTS)
def test_integer_mobius_maps_agree_with_field_arithmetic(p, pairs, node, target):
    field = base_field(p)
    ident = {"map": pairs, "node": node, "nodeTarget": target}
    scen = GlueScenario(p, [building_block("c1", 2)], "C", identifications=[ident])

    def moved():
        return not node_matching_check(scen)[0]

    assert outcome(moved) == outcome(field_node_moved, field, ident)
    try:
        want = field_mobius_from_pairs(field, pairs)
    except ScenarioError:
        return
    got = [field.from_int(x) for row in _mobius_ints(field, pairs) for x in row]
    want = [x for row in want for x in row]
    # the same projective map: the two matrices are proportional
    assert any(got) and all(got[i] * want[j] == got[j] * want[i]
                            for i in range(4) for j in range(4))


# -- reports -----------------------------------------------------------


def test_report_tame_cusp():
    scen = GlueScenario(0, [building_block("c2", 2)], "D",
                        derivation=glue_data(0, "1", ["1"]))
    rep = scenario_report(scen)
    assert rep["gorenstein"] and rep["tame"]
    assert rep["chi"] == 1 and rep["singularity"] == "cusp"


def test_report_wild_char3():
    scen = GlueScenario(3, [building_block("c2", 2)], "D",
                        derivation=glue_data(3, "1/x^3", ["1"]))
    rep = scenario_report(scen)
    assert rep["gorenstein"] and not rep["tame"]
    assert rep["chi"] == -1 and rep["h1"] == 2


def test_report_simple_pole_rejected():
    scen = GlueScenario(0, [building_block("c2", 2)], "D",
                        derivation=glue_data(0, "1/x", ["1"]))
    rep = scenario_report(scen)
    assert not rep["gorenstein"]
    assert rep["singularity"] == "not-gorenstein"


def test_report_records_block_failures_without_throwing():
    scen = GlueScenario(0, [building_block("e", 2), building_block("a3")], "B")
    rep = scenario_report(scen)
    assert rep["case"] is None and not rep["gorenstein"]
    assert rep["errors"]


# -- explicit equations ------------------------------------------------


@pytest.mark.parametrize("p", [0, 2, 3, 5, 7])
@pytest.mark.parametrize("eq", sorted(DEGREE1_SUBSTITUTIONS))
def test_degree1_identities(p, eq):
    assert verify_degree1(p, eq)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_char3_normalization(rng, n):
    h0 = rng.choice([1, 2])
    assert verify_char3_normalization(n, h0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_char2_normalization(n):
    assert verify_char2_normalization(n)


@pytest.mark.parametrize("p", [3, 5])
def test_monomial_relation(p):
    for n in (1, 2):
        assert monomial_relation_check(p, n)
        assert monomial_relation_check(p, n, h0=p - 1)


def test_parametrization_failure_detected():
    ok = verify_parametrization(
        0, "z^2 - y^3", ("y", "z"),
        {"y": "q", "z": "u2*q + 1", "q": "u2^2"}, ("u2",),
    )
    assert not ok


def test_cyclic_substitution_rejected():
    with pytest.raises(ValueError):
        verify_parametrization(0, "y", ("y",), {"y": "z", "z": "y"}, ())


# The fixed-point substitution that parsing in dependency order replaced,
# with MPoly.substitute, kept as their reference.


def fixed_point_substitute(poly, mapping):
    target_vars = None
    for v in mapping.values():
        target_vars = v.vars
        break
    if target_vars is None:
        return poly
    out = MPoly(poly.field, target_vars, {})
    for exps, c in poly.terms.items():
        term = MPoly.const(poly.field, target_vars, c)
        for name, e in zip(poly.vars, exps):
            if not e:
                continue
            if name in mapping:
                term = term * mapping[name] ** e
            else:
                term = term * MPoly.var(poly.field, target_vars, name) ** e
        out = out + term
    return out


def fixed_point_verify(characteristic, hypersurface, variables, substitution,
                       target_variables):
    field = base_field(characteristic)
    variables = tuple(variables)
    target_variables = tuple(target_variables)
    all_names = tuple(dict.fromkeys(target_variables + tuple(substitution)))
    exprs = {
        k: parse_mpoly(field, all_names, v) for k, v in substitution.items()
    }
    for _ in range(len(substitution) + 1):
        changed = False
        for k, e in exprs.items():
            used = [
                name
                for name, deg in zip(
                    e.vars, [max((ex[i] for ex in e.terms), default=0)
                             for i in range(len(e.vars))]
                )
                if deg and name in exprs and name != k
            ]
            if used:
                exprs[k] = fixed_point_substitute(e, {u: exprs[u] for u in used})
                changed = True
        if not changed:
            break
    else:
        raise ValueError("cyclic substitution")
    # project onto the target variables
    final = {}
    for k, e in exprs.items():
        proj = MPoly(field, target_variables, {})
        for exps, c in e.terms.items():
            for name, deg in zip(e.vars, exps):
                if deg and name not in target_variables:
                    raise ValueError(f"unresolved name {name!r} in substitution")
            slim = tuple(
                exps[e.vars.index(t)] if t in e.vars else 0
                for t in target_variables
            )
            proj = proj + MPoly(field, target_variables, {slim: c})
        final[k] = proj
    hyp = parse_mpoly(field, variables, hypersurface)
    return fixed_point_substitute(hyp, final).is_zero()


def verify_outcome(verify, *args):
    try:
        return verify(*args)
    except ValueError as error:
        return ValueError, str(error)


@st.composite
def polynomial_texts(draw, names, keys, p):
    """A sum of distinct monomials of degree at most 2 with unit
    coefficients, so that the expanded value names every name its text
    names.  A monomial names at most one of ``keys``, once, so that the
    reference's values grow slowly around a cycle."""
    monomial = st.lists(st.sampled_from(names), max_size=2).filter(
        lambda m: sum(n in keys for n in m) <= 1).map(lambda m: tuple(sorted(m)))
    monomials = draw(st.dictionaries(monomial, st.integers(1, p - 1 if p else 4),
                                     min_size=1, max_size=3))
    text = " + ".join(
        "*".join([str(c)] + [n if e == 1 else f"{n}^{e}" for n, e in Counter(m).items()])
        for m, c in monomials.items())
    if len(monomials) == 1 and not keys & set(*monomials) and draw(st.booleans()):
        return f"({text})^2"
    return text


@st.composite
def substitution_systems(draw):
    p = draw(st.sampled_from([0, 2, 3, 5]))
    targets = draw(st.lists(st.sampled_from("xyz"), min_size=1, max_size=3, unique=True))
    keys = draw(st.lists(st.sampled_from("abcxy"), min_size=1, max_size=4, unique=True))
    names = sorted(set(targets) | set(keys))
    substitution = {k: draw(polynomial_texts(names, set(keys), p)) for k in keys}
    if draw(st.booleans()):
        # an identity: a polynomial in the keys minus its value written out
        chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=2, unique=True))
        hypersurface = " + ".join(f"({k})*({k})" for k in chosen) + " - (" + " + ".join(
            f"({substitution[k]})*({substitution[k]})" for k in chosen) + ")"
    else:
        hypersurface = draw(polynomial_texts(names, set(), p))
    return p, hypersurface, names, substitution, targets


def names_in(text):
    return set(re.findall(r"[a-z]\w*", text))


def names_a_cycle(substitution, targets):
    """Whether the keys named in the values, where a key's own name
    counts only if no target has it, form a cycle."""
    needs = {k: {n for n in names_in(v) if n in substitution and not (n == k and k in targets)}
             for k, v in substitution.items()}
    done = set()
    while ready := {k for k, named in needs.items() if k not in done and named <= done}:
        done |= ready
    return len(done) < len(needs)


@given(substitution_systems())
@settings(max_examples=200)
def test_dependency_order_matches_the_fixed_point(system):
    *_, substitution, targets = system
    want = verify_outcome(fixed_point_verify, *system)
    got = verify_outcome(verify_parametrization, *system)
    if names_a_cycle(substitution, targets):
        # the fixed point sometimes met a cycle whose names cancelled
        assert got == (ValueError, "cyclic substitution")
    elif isinstance(want, bool) or isinstance(got, tuple):
        assert (got if isinstance(got, bool) else ValueError) == (
            want if isinstance(want, bool) else ValueError)
    else:
        # a key that names itself as a target, used in another key's value
        assert any(k in targets and k in names_in(v) and any(
            k in names_in(w) for u, w in substitution.items() if u != k)
            for k, v in substitution.items())
        assert want == (ValueError, "cyclic substitution")


@pytest.mark.parametrize("args, old, new", [
    # a key naming itself, where no target has its name
    ((0, "a", ("a",), {"a": "a + x"}, ("x",)),
     "unresolved name 'a' in substitution", "cyclic substitution"),
    # a hypersurface variable that is neither a key nor a target
    ((0, "w*y", ("w", "y"), {"y": "x"}, ("x",)),
     "not in tuple",
     "variable 'w' is neither substituted nor a target variable"),
    # x means the target inside its own value and the key elsewhere
    ((0, "y - x", ("x", "y"), {"x": "x + 1", "y": "x"}, ("x",)),
     "cyclic substitution", True),
    # over GF(2) the fixed point reads b = 1 + x + b, x = b as x = b = 1
    ((2, "x + 1", ("x",), {"x": "b", "b": "1 + x + b"}, ("y",)),
     True, "cyclic substitution"),
], ids=["self-reference", "hypersurface-variable", "target-key-used",
        "cancelled-cycle"])
def test_intended_differences_from_the_fixed_point(args, old, new):
    for verify, outcome in ((fixed_point_verify, old), (verify_parametrization, new)):
        if isinstance(outcome, bool):
            assert verify(*args) is outcome
        else:
            with pytest.raises(ValueError, match=outcome):
                verify(*args)


# The char-3 model composes u = x^3 into u^(3n+2), of degree 9n + 6, and
# the char-2 model squares u^(2n+1) + v^2.  Both stay a few terms for
# every n, and the size budget counts an MPoly's terms, not its degree:
# so both parsers accept the n = 910 and n = 2048 that the degree limit
# refused, and far past them.
@pytest.mark.parametrize("verify", [verify_char3_normalization, verify_char2_normalization])
def test_sparse_composed_powers_are_accepted(verify):
    for n in (910, 2048, 10**6):
        start = time.perf_counter()
        assert verify(n)
        assert time.perf_counter() - start < 1.0
    with patch.object(catalog, "verify_parametrization", fixed_point_verify):
        assert verify(10**6)


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
def test_long_substitution_chain_runs_quickly(reverse):
    chain = [(f"k{i}", f"k{i - 1} + 1" if i else "u") for i in range(5000)]
    start = time.perf_counter()
    assert verify_parametrization(0, "k4999 - u - 4999", ("k4999", "u"),
                                  dict(reversed(chain) if reverse else chain), ("u",))
    assert time.perf_counter() - start < 1.0


def test_each_value_parsed_once():
    calls = []

    def counting_parse(*args):
        calls.append(args[2])
        return parse_mpoly(*args)

    substitution = {"z": "u2*q", "y": "q", "x2": "u3", "x1": "u1",
                    "q": "u2^2 - u1*u3", "unused": "q^2"}
    with patch.object(catalog, "parse_mpoly", counting_parse):
        assert verify_parametrization(0, "z^2 - y^3 - x1*x2*y^2",
                                      ("x1", "x2", "y", "z"), substitution,
                                      ("u1", "u2", "u3"))
    assert sorted(calls) == sorted([*substitution.values(), "z^2 - y^3 - x1*x2*y^2"])


def test_degree12_catalog_complete():
    entries = degree12_catalog(0)
    assert [e["degree"] for e in entries].count(1) == 3
    assert [e["degree"] for e in entries].count(2) == 6
    for e in entries:
        rep = scenario_report(e["scenario"])
        assert rep["gorenstein"], rep
        if e["verified"] is not None:
            assert e["verified"]
