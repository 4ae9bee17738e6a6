"""Building blocks, gluing classification, and explicit equations.

The block table lists the pairs (C in Y) that can serve as conductor
data: Y is the plane, a scroll, or a cone over a rational normal curve,
polarized so that -K_Y = H + C.  Gluing scenarios combine blocks along
their conics/line pairs/double lines; the classifier decides the case
and the per-case Gorenstein checks run on top.
"""

from __future__ import annotations

from typing import NamedTuple

from dpglue.fields import base_field, is_prime
from dpglue.multipoly import MPoly, parse_mpoly
from dpglue.rational import _tokenize


# -- Picard lattice ----------------------------------------------------


class PicardClass(NamedTuple):
    """Divisor class: c*L on the plane, or c1*A + c2*B on a scroll F_a.

    surface is ("P2",), ("F", a) or ("Fcone", a); cone classes live on
    the minimal resolution F_a.
    """

    surface: tuple
    coeffs: tuple

    def __add__(self, other: "PicardClass") -> "PicardClass":
        if other.surface != self.surface:
            raise ValueError("classes on different surfaces")
        return PicardClass(
            self.surface, tuple(x + y for x, y in zip(self.coeffs, other.coeffs))
        )

    def scale(self, k: int) -> "PicardClass":
        return PicardClass(self.surface, tuple(k * x for x in self.coeffs))


def hirzebruch_pairing(d1: PicardClass, d2: PicardClass) -> int:
    """Intersection pairing: L^2 = 1 on the plane; A^2 = 0, A.B = 1,
    B^2 = -a on F_a."""
    if d1.surface != d2.surface:
        raise ValueError("classes on different surfaces")
    if d1.surface[0] == "P2":
        return d1.coeffs[0] * d2.coeffs[0]
    a = d1.surface[1]
    c1, c2 = d1.coeffs
    e1, e2 = d2.coeffs
    return c1 * e2 + c2 * e1 - a * c2 * e2


def canonical_class(surface: tuple) -> PicardClass:
    if surface[0] == "P2":
        return PicardClass(surface, (-3,))
    a = surface[1]
    return PicardClass(surface, (-(a + 2), -2))


# -- building blocks ---------------------------------------------------


_CONIC_NATURE = {
    "a1": "smooth", "a2": "line-pair", "a3": "double-line",
    "b": "smooth",
    "c0": "smooth", "c1": "line-pair", "c2": "double-line",
    "d0": "smooth", "d1": "line-pair",
    "e": "smooth",
}

_BLOCK_TAGS = tuple(_CONIC_NATURE)


class BuildingBlock(NamedTuple):
    case: str
    a: int | None
    H: PicardClass
    C: PicardClass
    conic: str
    degree: int


def building_block(case: str, a: int | None = None) -> BuildingBlock:
    """Construct a table row; raises on illegal tag/parameter pairs."""
    if case not in _CONIC_NATURE:
        raise ValueError(f"unknown case tag {case!r}")
    conic = _CONIC_NATURE[case]
    if case in ("a1", "a2", "a3"):
        if a not in (None,):
            raise ValueError("plane degree-1 cases take no parameter")
        s = ("P2",)
        return BuildingBlock(case, None, PicardClass(s, (1,)),
                             PicardClass(s, (2,)), conic, 1)
    if case == "b":
        if a not in (None,):
            raise ValueError("the Veronese case takes no parameter")
        s = ("P2",)
        return BuildingBlock(case, None, PicardClass(s, (2,)),
                             PicardClass(s, (1,)), conic, 4)
    if a is None:
        raise ValueError(f"case {case!r} needs the scroll parameter a")
    if case.startswith("c"):
        if a < 2:
            raise ValueError("cone cases need a >= 2")
        if case == "c0" and a != 2:
            raise ValueError("a smooth conic on the cone only occurs for a = 2")
        s = ("Fcone", a)
        return BuildingBlock(case, a, PicardClass(s, (a, 1)),
                             PicardClass(s, (2, 0)), conic, a)
    if case.startswith("d"):
        if a < 0:
            raise ValueError("scroll parameter must be >= 0")
        if case == "d0" and a > 1:
            raise ValueError("a smooth conic of type A+B needs a <= 1")
        s = ("F", a)
        return BuildingBlock(case, a, PicardClass(s, (a + 1, 1)),
                             PicardClass(s, (1, 1)), conic, a + 2)
    # case e
    if a < 0:
        raise ValueError("scroll parameter must be >= 0")
    s = ("F", a)
    return BuildingBlock(case, a, PicardClass(s, (a + 2, 1)),
                         PicardClass(s, (0, 1)), conic, a + 4)


def verify_block(block: BuildingBlock) -> bool:
    """H + C = -K in the Picard lattice and H^2 = the table degree.

    Cone cases are checked on the minimal resolution with the pullback
    polarization aA + B, degree only (the anticanonical identity on the
    cone itself involves fractional discrepancy along B).
    """
    deg = hirzebruch_pairing(block.H, block.H)
    if deg != block.degree:
        return False
    if block.H.surface[0] == "Fcone":
        return True
    anti = canonical_class(block.H.surface).scale(-1)
    total = block.H + block.C
    return total == anti


def block_table(a_max: int = 5):
    """All legal table rows with parameter up to a_max."""
    rows = []
    for tag in ("a1", "a2", "a3", "b"):
        rows.append(building_block(tag))
    for a in range(0, a_max + 1):
        for tag in ("c0", "c1", "c2", "d0", "d1", "e"):
            try:
                rows.append(building_block(tag, a))
            except ValueError:
                continue
    return rows


# -- gluing scenarios --------------------------------------------------


class GlueScenario:
    """Blocks glued along their conductors, with the declared family's data."""

    def __init__(self, characteristic: int, blocks: list, glue_case: str,
                 identifications: list | None = None, derivation=None,
                 cover: str = "separable", name: str = ""):
        self.characteristic = characteristic
        self.blocks = blocks
        self.glue_case = glue_case  # declared family: A | B | C | D
        self.identifications = [] if identifications is None else identifications
        self.derivation = derivation  # GenericGlueData for the D family
        self.cover = cover  # case A metadata (char 2 dichotomy)
        self.name = name

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)


class ScenarioError(ValueError):
    pass


def classify_gluing(scenario: GlueScenario) -> str:
    """Decide the gluing case from the blocks, or raise ScenarioError."""
    blocks = scenario.blocks
    if not blocks:
        raise ScenarioError("no blocks")
    natures = [b.conic for b in blocks]
    tags = [b.case for b in blocks]
    r = len(blocks)
    declared = scenario.glue_case
    if declared == "A":
        if r != 1 or natures[0] != "smooth":
            raise ScenarioError("case A needs a single block with a smooth conic")
        return "A"
    if declared == "B":
        if r != 2 or any(n != "smooth" for n in natures):
            raise ScenarioError("case B needs two blocks with smooth conics")
        if tags[0] == tags[1] == "a1":
            # two planes: the degree-2 weighted quartic y^2 = q^2
            return "B-degenerate"
        return "B"
    if declared == "C":
        if any(n != "line-pair" for n in natures):
            raise ScenarioError("case C needs line-pair conics everywhere")
        if r == 2 and tags[0] == tags[1] == "a2":
            raise ScenarioError("case C_2 cannot use two planes")
        if len(scenario.identifications) != r:
            raise ScenarioError(f"case C_{r} needs {r} line identifications")
        return f"C{r}"
    if declared == "D":
        if any(n != "double-line" for n in natures):
            raise ScenarioError("case D needs double-line conics everywhere")
        if r == 2 and tags[0] == tags[1] == "a3":
            raise ScenarioError("case D_2 cannot use two planes")
        if scenario.derivation is None or scenario.derivation.r != r:
            raise ScenarioError(f"case D_{r} needs derivation data with r = {r}")
        return f"D{r}"
    raise ScenarioError(f"unknown glue case {declared!r}")


# -- Moebius maps and node matching ------------------------------------


def _proj_point(field, v):
    """(x, y) in ints, x reduced mod p over GF(p), from an int, an
    integer string or 'inf'."""
    if v == "inf":
        return (1, 0)
    try:
        n = int(v)
    except ValueError:
        raise ScenarioError(
            f"identification point {v!r} is not an integer or 'inf'") from None
    p = field.characteristic
    return (n % p if p else n, 1)


def _mobius_matrix(field, p1, p2, p3):
    """2x2 int matrix sending (1:0), (0:1), (1:1) to the three points.

    With det = |p1 p2|, alpha and beta solve alpha*p1 + beta*p2 = det*p3;
    the map is projective, so the factor det is kept, not divided out.
    """
    det = p1[0] * p2[1] - p1[1] * p2[0]
    alpha = p3[0] * p2[1] - p3[1] * p2[0]
    beta = p1[0] * p3[1] - p1[1] * p3[0]
    if not (field.from_int(det) and field.from_int(alpha) and field.from_int(beta)):
        raise ScenarioError("identification points are not distinct")
    return ((alpha * p1[0], beta * p2[0]), (alpha * p1[1], beta * p2[1]))


def _mobius_ints(field, pairs):
    """The Moebius map of three point pairs, a 2x2 int matrix up to scale."""
    if len(pairs) != 3:
        raise ScenarioError("a Moebius identification needs three point pairs")
    src = [_proj_point(field, s) for s, _ in pairs]
    dst = [_proj_point(field, t) for _, t in pairs]
    (a, b), (c, d) = _mobius_matrix(field, *src)
    (e, f), (g, h) = _mobius_matrix(field, *dst)
    # md o ms^{-1}, up to scale: the adjugate of ms inverts it projectively
    return ((e * d - f * c, f * a - e * b), (g * d - h * c, h * a - g * b))


def node_matching_check(scenario: GlueScenario):
    """(ok, diagnostics): every identification must carry node to node.

    A mismatch is certified by the usual clash: a section regular at the
    target of the marker has a pole at the matched point on the other
    branch, so the glued ring cannot be Gorenstein there.
    """
    field = base_field(scenario.characteristic)
    problems = []
    for k, ident in enumerate(scenario.identifications):
        (a, b), (c, d) = _mobius_ints(field, ident["map"])
        x, y = _proj_point(field, ident["node"])
        s, t = _proj_point(field, ident["nodeTarget"])
        # the image (ax + by : cx + dy) against the target (s : t)
        if field.from_int((a * x + b * y) * t - (c * x + d * y) * s):
            problems.append(
                f"identification {k} moves the node marker: sections regular "
                "at the marked node acquire a pole on the matched line"
            )
    return (not problems, problems)


# -- reports -----------------------------------------------------------


def scenario_report(scenario: GlueScenario) -> dict:
    """Run all verifications on a scenario; failures recorded, not thrown."""
    from dpglue import cohomology, glue

    report = {
        "name": scenario.name,
        "characteristic": scenario.characteristic,
        "blocks": [],
        "errors": [],
    }
    degree = 0
    for b in scenario.blocks:
        ok = verify_block(b)
        report["blocks"].append(
            {"case": b.case, "a": b.a, "degree": b.degree, "verified": ok}
        )
        if not ok:
            report["errors"].append(f"block {b.case} fails the lattice check")
        degree += b.degree
    report["degree"] = degree
    try:
        case = classify_gluing(scenario)
    except ScenarioError as exc:
        report["case"] = None
        report["errors"].append(str(exc))
        report["gorenstein"] = False
        return report
    report["case"] = case
    r = len(scenario.blocks)
    tame, wild_points, h1 = True, [], 0
    singularity = "node"
    problems = []
    if case == "A" and scenario.characteristic == 2 and scenario.cover == "inseparable":
        singularity = "inseparable-node"
    elif case[0] == "C":
        _, problems = node_matching_check(scenario)
    data = scenario.derivation
    if data is not None and not problems:
        # D: the datum decides; A/B/C: a conductor-level datum must
        # confirm the tame closed-form answer
        try:
            problems, h1 = cohomology.closed_form(data)
            if case[0] == "D":
                named = data.wild_places
                wild_points = None if named is None else [
                    (glue._place_key(pl), order) for pl, order in named]
        except Exception as exc:  # one scenario's failure must not stop the run
            report["errors"].append(f"{type(exc).__name__}: {exc}")
            report.update(gorenstein=None, singularity=None, tame=None,
                          wildPoints=None, chi=None, h1=None)
            return report
        report["n_delta_generic"] = (2 * data.r, data.r)
        wild = cohomology.total_pole_order(data) > 0
        if case[0] == "D":
            tame = not wild
            singularity = (f"wild({r})" if wild else
                           {1: "cusp", 2: "tacnode"}.get(r, f"r-concurrent-lines({r})"))
        elif wild and not problems:
            problems = ["derivation datum is wild"]
    report["errors"].extend(problems)
    if problems:
        h1, singularity = None, "not-gorenstein"
    report["gorenstein"] = not problems
    report["singularity"] = singularity
    report["tame"] = tame
    report["wildPoints"] = wild_points
    report["chi"] = None if h1 is None else 1 - h1
    report["h1"] = h1
    return report


# -- explicit equations ------------------------------------------------


def verify_parametrization(characteristic: int, hypersurface: str,
                           variables, substitution: dict,
                           target_variables) -> bool:
    """Check that the composed polynomial vanishes identically.

    ``substitution`` maps names to expressions in the target variables
    and other keys.  Each value is parsed once, after the keys it names
    (Kahn's topological sort), into an MPoly over the targets, so the
    parser's size budget holds on composed polynomials.  Inside a key's own
    value its name means the target of that name, if there is one; any
    other cycle raises ValueError.
    """
    field = base_field(characteristic)
    targets = tuple(target_variables)
    waiting, users = {}, {k: [] for k in substitution}
    for k, text in substitution.items():
        waiting[k] = {v for kind, v in _tokenize(text) if kind == "name" and v in users
                      and not (v == k and k in targets)}
        for name in waiting[k]:
            users[name].append(k)
    resolved = {}

    def value(name):
        if name in resolved:
            return resolved[name]
        if name in targets:
            return MPoly.var(field, targets, name)
        raise ValueError(f"unknown variable {name!r}")

    ready = [k for k, named in waiting.items() if not named]
    for k in ready:  # grows as keys become ready
        resolved[k] = parse_mpoly(field, targets, substitution[k], value)
        for user in users[k]:
            waiting[user].discard(k)
            if not waiting[user]:
                ready.append(user)
    if len(resolved) < len(substitution):
        raise ValueError("cyclic substitution")

    def hypersurface_variable(name):
        if name not in variables:
            raise ValueError(f"unknown variable {name!r}")
        if name not in resolved and name not in targets:
            raise ValueError(f"variable {name!r} is neither substituted "
                             "nor a target variable")
        return value(name)

    return parse_mpoly(field, targets, hypersurface, hypersurface_variable).is_zero()


def monomial_relation_check(p: int, n: int, h0: int = 1) -> bool:
    """v_i v_j - u^n v_{i+j} is a unit multiple of x^(i+j-2) y^2 for all
    1 <= i, j with i + j <= p - 1, where u = x^p and
    v_i = x^(np+i) - i h0 x^(i-1) y with h0 a unit."""
    if not is_prime(p) or p < 3:
        raise ValueError("p must be an odd prime")
    field = base_field(p)
    if not field.from_int(h0):
        raise ValueError("h0 must be a unit")
    names = ("x", "y")
    x = MPoly.var(field, names, "x")
    y = MPoly.var(field, names, "y")
    h = MPoly.const(field, names, field.from_int(h0))
    u = x**p

    def v(i):
        return x ** (n * p + i) - i * h * x ** (i - 1) * y

    for i in range(1, p):
        for j in range(1, p):
            if i + j > p - 1:
                continue
            lhs = v(i) * v(j) - u**n * v(i + j)
            unit = field.from_int(i * j * h0 * h0)
            if not unit:
                return False
            rhs = MPoly.const(field, names, unit) * x ** (i + j - 2) * y**2
            if lhs != rhs:
                return False
    return True


DEGREE1_SUBSTITUTIONS = {
    "z^2 - y^3 - x1*x2*y^2": "u2^2 - u1*u3",
    "z^2 - y^3 - x1^2*y^2": "u2^2 - u1^2",
    "z^2 - y^3": "u2^2",
}


def verify_degree1(characteristic: int, equation: str) -> bool:
    """The weighted sextic models: x1 = u1, x2 = u3, y = q, z = u2 q."""
    q = DEGREE1_SUBSTITUTIONS[equation]
    return verify_parametrization(
        characteristic,
        equation,
        ("x1", "x2", "y", "z"),
        {"x1": "u1", "x2": "u3", "y": "q", "z": "u2*q", "q": q},
        ("u1", "u2", "u3"),
    )


def verify_char3_normalization(n: int, h0: int = 1) -> bool:
    """u^(3n+2) + u v1^3 + v2^3 = 0 under the Frobenius-twisted map."""
    return verify_parametrization(
        3,
        f"u^{3 * n + 2} + u*v1^3 + v2^3",
        ("u", "v1", "v2"),
        {
            "u": "x^3",
            "v1": f"x^{3 * n + 1} - {h0 % 3}*y",
            "v2": f"x^{3 * n + 2} - {(2 * h0) % 3}*x*y",
        },
        ("x", "y"),
    )


def verify_char2_normalization(n: int) -> bool:
    """u (u^(2n+1) + v^2)^2 + w^2 = 0 under (x^2, x^(2n+1)+y, x y^2)."""
    return verify_parametrization(
        2,
        f"u*(u^{2 * n + 1} + v^2)^2 + w^2",
        ("u", "v", "w"),
        {"u": "x^2", "v": f"x^{2 * n + 1} + y", "w": "x*y^2"},
        ("x", "y"),
    )


def degree12_catalog(characteristic: int = 0):
    """The degree-1 sextics and degree-2 quartics with their scenarios."""
    from dpglue.glue import glue_data

    def single_block(tag, a, family, name):
        extra = {}
        if family == "C":
            extra["identifications"] = [{"map": [[0, 0], [1, 1], ["inf", "inf"]],
                                         "node": 0, "nodeTarget": 0}]
        elif family == "D":
            extra["derivation"] = glue_data(characteristic, 0, ["1"])
        return GlueScenario(characteristic, [building_block(tag, a)], family,
                            name=name, **extra)

    entries = []
    for eq in DEGREE1_SUBSTITUTIONS:
        nature = {"x1*x2": "a1", "x1^2": "a2"}.get(
            next((k for k in ("x1*x2", "x1^2") if k in eq), ""), "a3"
        )
        family = {"a1": "A", "a2": "C", "a3": "D"}[nature]
        entries.append(
            {
                "degree": 1,
                "equation": eq,
                "scenario": single_block(nature, None, family, f"degree1-{nature}"),
                "verified": verify_degree1(characteristic, eq),
            }
        )
    # degree 2: split quartic y^2 = q^2
    split = GlueScenario(
        characteristic,
        [building_block("a1"), building_block("a1")],
        "B",
        name="degree2-split",
    )
    entries.append(
        {"degree": 2, "equation": "y^2 - q^2", "scenario": split, "verified": None}
    )
    # degree 2: the five plane quartics l^2 q
    quartic_cases = [
        ("conic not tangent to l", "d0", 0, "A"),
        ("conic tangent to l", "d1", 0, "C"),
        ("line pair, vertex off l", "c0", 2, "A"),
        ("line pair, vertex on l", "c1", 2, "C"),
        ("line pair containing l", "c2", 2, "D"),
    ]
    for desc, tag, a, family in quartic_cases:
        entries.append(
            {
                "degree": 2,
                "equation": f"y^2 - l^2*q  ({desc})",
                "scenario": single_block(tag, a, family, f"degree2-{tag}"),
                "verified": None,
            }
        )
    return entries
