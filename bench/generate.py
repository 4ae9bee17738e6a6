"""Seeded inputs and their ground truth for the dpglue benchmark.

Nothing here imports dpglue.  Every input is rendered as the text a user
would write in a scenario file, in factored form.  Its truth is read off
that factored form with the hard-coded irreducible tables below and the
formulas of Reid, "Nonnormal del Pezzo surfaces" (Publ. RIMS 30, 1994):

- a pole of a/b_1 of order n_P·p at a place P of degree deg P is wild;
  N = sum of deg P · n_P, chi(O_X) = 1 - N(p-1), h1(O_X) = N(p-1);
- a tame datum has O_D(n) = O(n) + (r-1)·O(n-1) on the line;
- s = sum (f_i + g_i y_i) s_i lies in ker Tr iff f_i = (b_i/b_1) f_1 and
  sum g_i = -(a f_1/b_1)';
- the glued ring is Gorenstein at P iff every b_i/b_1 is a unit at P and
  every a/b_i is regular at P or has a pole of order divisible by p.

Each workload is a fixed cycle of input *shapes* (characteristic, r,
place degrees, multiplicities, kind of negative).  The seed chooses the
places, constants and block parameters inside each shape, so two seeds
give different inputs with the same cost profile.

The timed cycles hold only shapes dpglue answers correctly.  Shapes that
hit a known defect of dpglue (a wild pole at a place of degree > 1, or a
characteristic-0 denominator with two quadratic places) are listed apart
in the ``*_DEFECTS`` tuples; the benchmark runs them as a census of
known defects and counts how they fail.
"""

from __future__ import annotations

import random
from fractions import Fraction

CHARACTERISTICS = (0, 2, 3, 5, 7)

# Monic irreducibles of degree 1-3, coefficients low degree first.
IRREDUCIBLES = {
    0: {
        1: [(0, 1), (1, 1), (-1, 1), (2, 1), (-2, 1), (3, 1)],
        2: [(1, 0, 1), (1, 1, 1), (2, 0, 1), (-2, 0, 1), (3, 0, 1)],
        3: [(-2, 0, 0, 1), (1, 1, 0, 1), (-3, 0, 0, 1), (2, 0, 0, 1)],
    },
    2: {
        1: [(0, 1), (1, 1)],
        2: [(1, 1, 1)],
        3: [(1, 1, 0, 1), (1, 0, 1, 1)],
    },
    3: {
        1: [(0, 1), (1, 1), (2, 1)],
        2: [(1, 0, 1), (2, 1, 1), (2, 2, 1)],
        3: [(1, 2, 0, 1), (2, 2, 0, 1), (2, 0, 1, 1), (1, 0, 2, 1)],
    },
    5: {
        1: [(0, 1), (1, 1), (2, 1), (3, 1), (4, 1)],
        2: [(2, 0, 1), (3, 0, 1), (1, 1, 1), (2, 1, 1)],
        3: [(1, 1, 0, 1), (1, 2, 0, 1), (2, 3, 0, 1)],
    },
    7: {
        1: [(0, 1), (1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1)],
        2: [(1, 0, 1), (2, 0, 1), (4, 0, 1), (3, 1, 1)],
        3: [(2, 0, 0, 1), (3, 0, 0, 1), (1, 1, 0, 1)],
    },
}

INF = "~oo"  # the report's key for the place at infinity


# -- coefficients ------------------------------------------------------


def _c(p, v):
    return v % p if p else Fraction(v)


def _inv(p, v):
    return pow(v, p - 2, p) if p else 1 / v


def poly_text(coeffs, p) -> str:
    """A polynomial as dpglue prints it (``x^2 + 2*x + 1``)."""
    coeffs = [_c(p, v) for v in coeffs]
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        if isinstance(c, Fraction) and c.denominator != 1:
            raise ValueError("only integer coefficients are rendered")
        cstr = str(c)
        if i == 0:
            term = cstr
        else:
            xpow = "x" if i == 1 else f"x^{i}"
            term = {"1": xpow, "-1": f"-{xpow}"}.get(cstr, f"{cstr}*{xpow}")
        parts.append(term)
    if not parts:
        return "0"
    out = parts[0]
    for term in parts[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


# -- factored rational functions ---------------------------------------


class Fact:
    """lam · prod base^e with bases from IRREDUCIBLES[p]; lam = 0 is zero."""

    __slots__ = ("p", "lam", "exps")

    def __init__(self, p, lam, exps=None):
        self.p = p
        self.lam = _c(p, lam)
        self.exps = {} if not self.lam else {
            b: e for b, e in (exps or {}).items() if e}

    def __mul__(self, o):
        exps = dict(self.exps)
        for b, e in o.exps.items():
            exps[b] = exps.get(b, 0) + e
        return Fact(self.p, self.lam * o.lam, exps)

    def __truediv__(self, o):
        if not o.lam:
            raise ZeroDivisionError("division by zero")
        return self * Fact(self.p, _inv(self.p, o.lam),
                           {b: -e for b, e in o.exps.items()})

    def __pow__(self, k):
        if k < 0:
            return Fact(self.p, 1) / (self ** -k)
        return Fact(self.p, self.lam ** k, {b: e * k for b, e in self.exps.items()})

    def order_at(self, base) -> int:
        """Valuation at a finite place (a base) or at INF."""
        if base == INF:
            return -sum((len(b) - 1) * e for b, e in self.exps.items())
        return self.exps.get(base, 0)

    def poles(self):
        """{place key: pole order}, with deg per key in a second dict."""
        out, deg = {}, {}
        if not self.lam:
            return out, deg
        for b, e in self.exps.items():
            if e < 0:
                out[poly_text(b, self.p)] = -e
                deg[poly_text(b, self.p)] = len(b) - 1
        inf = self.order_at(INF)
        if inf < 0:
            out[INF], deg[INF] = -inf, 1
        return out, deg

    def render(self) -> str:
        if not self.lam:
            return "0"
        lam = self.lam
        if isinstance(lam, Fraction):
            if lam.denominator != 1:
                raise ValueError("only integer constants are rendered")
            lam = lam.numerator

        def product(items):
            return "*".join(f"({poly_text(b, self.p)})" + (f"^{e}" if e > 1 else "")
                            for b, e in items)

        num = sorted((b, e) for b, e in self.exps.items() if e > 0)
        den = sorted((b, -e) for b, e in self.exps.items() if e < 0)
        text = str(lam) if not num else (
            product(num) if lam == 1 else f"{lam}*{product(num)}")
        if den:
            text += f"/({product(den)})"
        return text


def _poly_divmod(num, den, p):
    """Quotient and remainder of coefficient lists; den is monic."""
    r = list(num)
    q = [_c(p, 0)] * max(0, len(r) - len(den) + 1)
    while len(r) >= len(den):
        f = r[-1]
        shift = len(r) - len(den)
        q[shift] = f
        for i, c in enumerate(den):
            r[shift + i] = _c(p, r[shift + i] - f * c)
        r.pop()
        while r and not r[-1]:
            r.pop()
    return q, r


def fact_of_poly(coeffs, p) -> Fact:
    """Split a polynomial over the table by trial division."""
    cs = [_c(p, v) for v in coeffs]
    while cs and not cs[-1]:
        cs.pop()
    if not cs:
        return Fact(p, 0)
    lam = cs[-1]
    rest = [c * _inv(p, lam) for c in cs]
    exps = {}
    for deg in (1, 2, 3):
        for base in IRREDUCIBLES[p][deg]:
            den = [_c(p, v) for v in base]
            while len(rest) > 1:
                q, r = _poly_divmod(rest, den, p)
                if r:
                    break
                rest = q
                exps[base] = exps.get(base, 0) + 1
    if len(rest) > 1:
        raise ValueError(f"{poly_text(coeffs, p)} has a factor outside the table")
    return Fact(p, lam, exps)


def _poly_of_fact(f: Fact):
    out = [f.lam]
    for b, e in f.exps.items():
        if e < 0:
            raise ValueError("a sum may only hold polynomials")
        for _ in range(e):
            prod = [_c(f.p, 0)] * (len(out) + len(b) - 1)
            for i, x in enumerate(out):
                for j, y in enumerate(b):
                    prod[i + j] = _c(f.p, prod[i + j] + x * y)
            out = prod
    return out


def _add(a: Fact, b: Fact, sign: int) -> Fact:
    pa, pb = _poly_of_fact(a), _poly_of_fact(b)
    n = max(len(pa), len(pb))
    pa += [0] * (n - len(pa))
    pb += [0] * (n - len(pb))
    return fact_of_poly([x + sign * y for x, y in zip(pa, pb)], a.p)


def parse(text: str, p: int) -> Fact:
    """Read the factored form back from scenario-file text in x."""
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(int(text[i:j]))
            i = j
        elif ch in "x+-*/^()":
            toks.append(ch)
            i += 1
        else:
            raise ValueError(f"unexpected {ch!r} in {text!r}")
    toks.append(None)
    pos = 0

    def peek():
        return toks[pos]

    def take():
        nonlocal pos
        pos += 1
        return toks[pos - 1]

    def primary():
        t = take()
        if isinstance(t, int):
            return Fact(p, t)
        if t == "x":
            return Fact(p, 1, {(0, 1): 1})
        if t == "(":
            v = expr()
            if take() != ")":
                raise ValueError(f"unbalanced parentheses in {text!r}")
            return v
        if t == "-":
            return Fact(p, -1) * primary()
        raise ValueError(f"unexpected token {t!r} in {text!r}")

    def factor():
        v = primary()
        if peek() == "^":
            take()
            neg = peek() == "-"
            if neg:
                take()
            k = take()
            v = v ** (-k if neg else k)
        return v

    def term():
        v = factor()
        while peek() in ("*", "/"):
            v = v * factor() if take() == "*" else v / factor()
        return v

    def expr():
        sign = 1
        if peek() in ("+", "-"):
            sign = -1 if take() == "-" else 1
        v = Fact(p, sign) * term()
        while peek() in ("+", "-"):
            s = 1 if take() == "+" else -1
            v = _add(v, term(), s)
        return v

    v = expr()
    if peek() is not None:
        raise ValueError(f"trailing input in {text!r}")
    return v


# -- truth -------------------------------------------------------------


_BLOCK_DEGREE = {
    "a1": lambda a: 1, "a2": lambda a: 1, "a3": lambda a: 1, "b": lambda a: 4,
    "c0": lambda a: a, "c1": lambda a: a, "c2": lambda a: a,
    "d0": lambda a: a + 2, "d1": lambda a: a + 2, "e": lambda a: a + 4,
}


def derivation_truth(p, a: Fact, bs):
    """Verdicts for the datum (a, b): see the module docstring."""
    ratios_constant = all(b.exps == bs[0].exps for b in bs[1:])
    wild, degs = {}, {}
    for b in bs:
        poles, deg = (a / b).poles()
        for key, order in poles.items():
            wild[key] = max(order, wild.get(key, 0))
        degs.update(deg)
    c1_poles, _ = (a / bs[0]).poles()
    gorenstein = ratios_constant and all(
        p and order % p == 0 for order in c1_poles.values())
    n_wild = sum(degs[k] * order // p for k, order in c1_poles.items()) if gorenstein else 0
    return {
        "gorenstein": gorenstein,
        "tame": not wild,
        "wildPoints": [[k, wild[k]] for k in sorted(wild)],
        "chi": 1 - n_wild * (max(p, 1) - 1) if gorenstein else None,
        "h1": n_wild * (max(p, 1) - 1) if gorenstein else None,
        "maxPlaceDegree": max(degs.values(), default=0),
    }


def _point(p, v):
    if v == "inf":
        return (_c(p, 1), _c(p, 0))
    return (_c(p, int(v)), _c(p, 1))


def _frame(p, p1, p2, p3):
    """2x2 matrix sending (1:0), (0:1), (1:1) to p1, p2, p3."""
    det = p1[0] * p2[1] - p1[1] * p2[0]
    alpha = (p3[0] * p2[1] - p3[1] * p2[0]) * _inv(p, det)
    beta = (p1[0] * p3[1] - p1[1] * p3[0]) * _inv(p, det)
    return ((alpha * p1[0], beta * p2[0]), (alpha * p1[1], beta * p2[1]))


def node_moved(p, ident) -> bool:
    """Does the Moebius map of the identification miss nodeTarget?"""
    src = _frame(p, *[_point(p, s) for s, _ in ident["map"]])
    dst = _frame(p, *[_point(p, t) for _, t in ident["map"]])
    (a, b), (c, d) = src
    inv = ((d, -b), (-c, a))
    m = [[sum(dst[i][k] * inv[k][j] for k in range(2)) for j in range(2)]
         for i in range(2)]
    nx, ny = _point(p, ident["node"])
    img = (m[0][0] * nx + m[0][1] * ny, m[1][0] * nx + m[1][1] * ny)
    tx, ty = _point(p, ident["nodeTarget"])
    return _c(p, img[0] * ty - img[1] * tx) != 0


def scenario_truth(entry) -> dict:
    """The report fields dpglue must print for one scenario entry."""
    p = entry["characteristic"]
    r = len(entry["blocks"])
    case = entry["glueCase"]
    out = {"degree": sum(_BLOCK_DEGREE[b["case"]](b.get("a")) for b in entry["blocks"]),
           "tame": True, "wildPoints": [], "chi": 1, "h1": 0, "gorenstein": True,
           "maxPlaceDegree": 0}
    d = None
    if "derivation" in entry:
        a = parse(entry["derivation"]["a"], p)
        d = derivation_truth(p, a, [parse(b, p) for b in entry["derivation"]["b"]])
        out["maxPlaceDegree"] = d["maxPlaceDegree"]
    if case == "A":
        out["case"] = "A"
        out["singularity"] = ("inseparable-node" if p == 2 and
                              entry.get("cover") == "inseparable" else "node")
    elif case == "B":
        tags = [b["case"] for b in entry["blocks"]]
        out["case"] = "B-degenerate" if tags == ["a1", "a1"] else "B"
        out["singularity"] = "node"
    elif case == "C":
        out["case"] = f"C{r}"
        out["singularity"] = "node"
        if any(node_moved(p, ident) for ident in entry["identifications"]):
            out.update(gorenstein=False, chi=None, h1=None,
                       singularity="not-gorenstein")
    else:
        out["case"] = f"D{r}"
        out.update({k: d[k] for k in ("gorenstein", "tame", "wildPoints", "chi", "h1")})
        if not d["gorenstein"]:
            out["singularity"] = "not-gorenstein"
        elif d["tame"]:
            out["singularity"] = {1: "cusp", 2: "tacnode"}.get(r, f"r-concurrent-lines({r})")
        else:
            out["singularity"] = f"wild({r})"
        return out
    if out["gorenstein"] and d is not None and not (d["gorenstein"] and d["tame"]):
        out.update(gorenstein=False, chi=None, h1=None, singularity="not-gorenstein")
    return out


EXPECT_KEYS = ("gorenstein", "case", "chi", "h1", "tame", "singularity",
               "degree", "wildPoints")


def tame_twist_truth(r: int, n: int):
    """(h0, h1) of O(n) + (r-1)·O(n-1) on the projective line."""
    h0 = max(0, n + 1) + (r - 1) * max(0, n)
    h1 = max(0, -n - 1) + (r - 1) * max(0, -n)
    return (h0, h1)


# -- building blocks of inputs -----------------------------------------


def _const(rng, p):
    return rng.randrange(1, p) if p else rng.choice([1, 2, 3, -1, -2, 5])


def _places(rng, p, degrees, exclude=()):
    """Distinct irreducibles of the given degrees, avoiding ``exclude``."""
    chosen = []
    for deg in degrees:
        pool = [b for b in IRREDUCIBLES[p][deg] if b not in chosen and b not in exclude]
        chosen.append(rng.choice(pool))
    return chosen


def wild_datum(rng, p, r, poles, inf_n=0, bad_order=False, nonconst=False):
    """(a, [b_i]) text with wild poles n·p at places of the given degrees.

    ``poles`` lists (place degree, n).  ``bad_order`` adds 1..p-1 to the
    first pole order; ``nonconst`` multiplies b_2 by a linear place.
    """
    bases = _places(rng, p, [deg for deg, _ in poles])
    exps = {b: -n * p for b, (_, n) in zip(bases, poles)}
    if bad_order:
        exps[bases[0]] -= rng.randrange(1, p)
    if inf_n:
        lin = _places(rng, p, [1], exclude=bases)[0]
        bases.append(lin)
        exps[lin] = inf_n * p + sum((len(b) - 1) * -e for b, e in exps.items())
    a = Fact(p, _const(rng, p), exps)
    bs = [Fact(p, _const(rng, p)) for _ in range(r)]
    if nonconst:
        lin = _places(rng, p, [1], exclude=bases)[0]
        bs[1] = bs[1] * Fact(p, 1, {lin: 1})
    return a.render(), [b.render() for b in bs]


def char0_pole_datum(rng, r, degrees, e):
    """Characteristic-0 datum with poles of order e at the given degrees."""
    bases = _places(rng, 0, degrees)
    a = Fact(0, _const(rng, 0), {b: -e for b in bases})
    return a.render(), [str(_const(rng, 0)) for _ in range(r)]


def tame_datum(rng, p, r):
    return str(_const(rng, p)), [str(_const(rng, p)) for _ in range(r)]


# -- scenario files (verdicts) -----------------------------------------


_SMOOTH = [("a1", None), ("b", None), ("c0", 2), ("d0", 0), ("d0", 1), ("e", 0), ("e", 2)]


def _line_pair(rng):
    tag = rng.choice(["a2", "c1", "d1"])
    return {"a2": ("a2", None), "c1": ("c1", rng.randint(2, 4)),
            "d1": ("d1", rng.randint(0, 3))}[tag]


def _double_line(rng):
    return ("a3", None) if rng.random() < 0.3 else ("c2", rng.randint(2, 4))


def _blocks(rng, r, pick, forbid_pair):
    while True:
        blocks = [pick(rng) for _ in range(r)]
        if not (r == 2 and blocks[0][0] == blocks[1][0] == forbid_pair):
            return [{"case": t} if a is None else {"case": t, "a": a} for t, a in blocks]


def _identification(rng, p, moved):
    """A translation or scaling of the line; ``moved`` misplaces the node."""
    node = rng.randrange(p or 5)
    if rng.random() < 0.5 or p == 2:
        c = rng.randrange(1, p or 5)
        pairs = [[0, c], [1, 1 + c], ["inf", "inf"]]
        target = node + c
    else:
        lam = rng.randrange(2, p or 5)
        pairs = [[0, 0], [1, lam], ["inf", "inf"]]
        target = lam * node
    if moved:
        target += 1
    if p:
        target %= p
    return {"map": pairs, "node": node, "nodeTarget": target}


def verdict_entry(rng, name, shape):
    """A scenario entry of the given shape with its expect block, and its truth."""
    kind, p = shape[0], shape[1]
    entry = {"name": name, "characteristic": p}
    if kind == "A":
        tag, a = rng.choice(_SMOOTH)
        entry["blocks"] = [{"case": tag} if a is None else {"case": tag, "a": a}]
        entry["glueCase"] = "A"
        if shape[2]:
            entry["cover"] = "inseparable"
        a_text, b = tame_datum(rng, p, 1)
        entry["derivation"] = {"a": a_text, "b": b}
    elif kind == "B":
        pair = [("a1", None), ("a1", None)] if shape[2] else [
            ("a1", None), rng.choice(_SMOOTH[1:])]
        entry["blocks"] = [{"case": t} if a is None else {"case": t, "a": a} for t, a in pair]
        entry["glueCase"] = "B"
        entry["derivation"] = {"a": "0", "b": [str(_const(rng, p)) for _ in range(2)]}
    elif kind == "C":
        r, moved = shape[2], shape[3]
        entry["blocks"] = _blocks(rng, r, _line_pair, "a2")
        entry["glueCase"] = "C"
        idents = [_identification(rng, p, False) for _ in range(r)]
        if moved:
            idents[rng.randrange(r)] = _identification(rng, p, True)
        entry["identifications"] = idents
    else:
        r = shape[2]
        entry["blocks"] = _blocks(rng, r, _double_line, "a3")
        entry["glueCase"] = "D"
        if kind == "Dtame":
            a_text, b = tame_datum(rng, p, r)
        elif kind == "D0":
            a_text, b = char0_pole_datum(rng, r, shape[3], shape[4])
        else:
            a_text, b = wild_datum(rng, p, r, shape[3], inf_n=shape[4],
                                   bad_order=kind == "Dbad",
                                   nonconst=kind == "Dnonconst")
        entry["derivation"] = {"a": a_text, "b": b}
    truth = scenario_truth(entry)
    entry["expect"] = {k: truth[k] for k in EXPECT_KEYS}
    return entry, truth


# Each round of a workload lists its shapes in tiers of cost: light ops,
# a band of near-equal cost holding the median, middle ops, a band holding
# the 90th percentile, and the heaviest ops.  Tier sizes put p50 and p90
# inside a band, so that neither percentile sits on a jump between two
# kinds of op and moves with small changes of the mix or of the machine.
# Costs were measured on a 2-core x86-64 container.

# ("A", p, inseparable) | ("B", p, degenerate) | ("C", p, r, moved)
# | ("Dtame", p, r) | (Dwild|Dbad|Dnonconst, p, r, [(deg, n)], inf_n)
# | ("D0", 0, r, [deg, ...], e) | ("shipped", corpus file of the repo).
VERDICT_SHAPES = (
    # light, under ~4 ms: 30
    [("A", 0, False), ("A", 2, True), ("A", 3, False), ("A", 7, False),
     ("B", 0, True), ("B", 3, False), ("B", 5, False), ("B", 7, False),
     ("C", 0, 2, False), ("C", 0, 3, True), ("C", 2, 2, True), ("C", 3, 2, False),
     ("C", 3, 3, False), ("C", 5, 4, True), ("C", 7, 1, False),
     ("Dtame", 0, 1), ("Dtame", 2, 4), ("Dtame", 3, 3), ("Dtame", 5, 6), ("Dtame", 7, 2),
     ("Dbad", 2, 1, [(2, 1)], 0), ("Dbad", 3, 2, [(1, 2)], 0),
     ("Dnonconst", 3, 2, [(1, 1)], 0),
     ("D0", 0, 1, [1], 2), ("D0", 0, 2, [2], 1), ("D0", 0, 2, [1], 3),
     ("D0", 0, 1, [2, 1], 1), ("D0", 0, 2, [3], 1),
     ("Dwild", 2, 1, [(1, 3)], 0), ("Dwild", 3, 1, [(1, 2)], 0)]
    # median band, ~5-7 ms: 20
    + [("Dwild", 7, 1, [(1, 1)], 0)] * 4 + [("Dwild", 5, 1, [(1, 2)], 0)] * 3
    + [("Dbad", 7, 5, [(1, 1)], 0)] * 3 + [("Dnonconst", 7, 2, [(1, 2)], 0)] * 3
    + [("Dnonconst", 5, 3, [(2, 1)], 0)] * 3 + [("Dwild", 2, 2, [(1, 3)], 0)] * 4
    # middle, ~8-19 ms: 18
    + 2 * [("shipped", "wild_families.json"), ("Dwild", 2, 1, [(1, 8)], 0),
           ("Dwild", 3, 1, [(1, 6)], 0), ("Dwild", 5, 2, [(1, 1), (1, 1)], 0),
           ("Dwild", 2, 3, [(1, 1), (1, 1)], 0), ("Dbad", 5, 1, [(3, 1)], 0),
           ("Dwild", 7, 3, [(1, 1)], 1), ("Dwild", 5, 6, [(1, 1)], 0),
           ("Dwild", 3, 2, [(1, 3)], 0)]
    # p90 band, ~20-26 ms: 8
    + [("shipped", "tame_families.json"), ("Dwild", 3, 2, [(1, 6)], 0),
       ("Dwild", 3, 4, [(1, 1), (1, 2)], 0)]
    + [("Dwild", 5, 2, [(1, 3)], 0)] * 2 + [("Dwild", 7, 2, [(1, 2)], 0)] * 3
    # heaviest, ~55-105 ms: 4
    + [("Dwild", 5, 1, [(1, 10)], 0), ("Dwild", 7, 3, [(1, 3)], 2),
       ("Dwild", 5, 1, [(1, 5), (1, 5)], 0), ("Dwild", 7, 1, [(1, 10)], 0)]
)

# Known defects, one op each: chi and h1 ignore the degree of a wild
# place; factoring over Q raises NotImplementedError on two quadratics.
VERDICT_DEFECTS = (
    ("D0", 0, 1, [2, 2], 1), ("D0", 0, 3, [2, 2], 2),
    ("Dwild", 2, 2, [(2, 2)], 0), ("Dwild", 2, 1, [(3, 2), (1, 2)], 0),
    ("Dwild", 3, 1, [(3, 1)], 1), ("Dwild", 2, 1, [(3, 4)], 0),
    ("Dwild", 2, 3, [(1, 1), (2, 1)], 0), ("Dwild", 3, 2, [(2, 3)], 0),
    ("Dwild", 3, 1, [(2, 6)], 0), ("Dwild", 5, 2, [(2, 1), (1, 1)], 0),
    ("Dwild", 7, 2, [(2, 1)], 0), ("Dwild", 5, 1, [(3, 2)], 0),
    ("Dwild", 7, 1, [(3, 2)], 0), ("Dwild", 5, 1, [(2, 10)], 0),
)

# ("tame", p, r, n) and ("wild", p, r, [(deg, n_P)]) at n = 0.
CECH_SHAPES = (
    # light, under ~25 ms: 24
    [("tame", 3, 1, 1), ("tame", 2, 1, -1), ("tame", 7, 1, 3), ("tame", 5, 1, -2),
     ("tame", 2, 1, 2), ("tame", 7, 1, 0), ("tame", 5, 1, 3), ("tame", 3, 1, -2),
     ("tame", 0, 1, 0), ("tame", 0, 1, 2), ("tame", 5, 2, 0),
     ("wild", 2, 1, [(1, 1)]), ("wild", 2, 1, [(1, 1)]), ("wild", 2, 1, [(1, 3)]),
     ("wild", 2, 1, [(1, 2)]), ("wild", 3, 1, [(1, 1)]), ("wild", 3, 1, [(1, 1)]),
     ("wild", 3, 1, [(1, 2)]), ("wild", 2, 1, [(1, 1), (1, 1)]), ("tame", 3, 1, 0),
     ("wild", 5, 1, [(1, 1)]), ("wild", 5, 1, [(1, 1)]), ("tame", 7, 1, -1),
     ("wild", 2, 1, [(1, 2)])]
    # median band, ~34-37 ms: 12
    + [("wild", 7, 1, [(1, 1)])] * 3 + [("tame", 7, 2, -1)] * 3
    + [("wild", 2, 1, [(1, 4)])] * 2 + [("wild", 3, 1, [(1, 1), (1, 1)])] * 2
    + [("wild", 2, 1, [(1, 2), (1, 1)])] * 2
    # middle, ~40-130 ms: 13
    + [("tame", 0, 1, -3), ("wild", 5, 1, [(1, 2)]), ("wild", 3, 2, [(1, 1)]),
       ("wild", 2, 2, [(1, 2)]), ("tame", 3, 2, -3), ("tame", 0, 2, 1), ("tame", 3, 3, 2),
       ("tame", 2, 4, 0), ("wild", 7, 2, [(1, 1)]), ("tame", 0, 2, 3), ("tame", 2, 3, 0),
       ("tame", 5, 3, 0), ("tame", 7, 2, 3)]
    # p90 band, ~185-195 ms: 10
    + [("tame", 7, 3, -2)] * 4 + [("tame", 7, 4, 1)] * 3 + [("tame", 0, 2, -2)] * 3
    # heaviest, ~380 ms: 1
    + [("tame", 0, 3, -1)]
)

# Known defects, one op each: wild places of degree > 1, where chi and
# h1 ignore the degree and the oracle's default bound may too.
CECH_DEFECTS = (
    ("wild", 2, 1, [(2, 1)]), ("wild", 3, 1, [(2, 1)]), ("wild", 2, 1, [(1, 1), (2, 1)]),
    ("wild", 3, 1, [(3, 1)]), ("wild", 5, 1, [(2, 1)]), ("wild", 2, 1, [(3, 2)]),
    ("wild", 3, 1, [(2, 2)]), ("wild", 7, 1, [(2, 1)]),
)

# ("point", p, r, place degree or "inf", kind) and ("kernel", p, r, kind).
STALK_SHAPES = (
    # light, under ~25 ms: 20
    [("point", 0, 1, 1, "regular"), ("point", 0, 2, 2, "pole"),
     ("point", 0, 3, "inf", "regular"), ("point", 0, 4, 3, "bad-ratio"),
     ("point", 2, 1, 1, "wild"), ("point", 2, 2, 3, "bad-order"),
     ("point", 2, 3, "inf", "bad-order"), ("point", 2, 4, 1, "wild"),
     ("point", 3, 1, 1, "wild"), ("point", 3, 2, 2, "bad-ratio"),
     ("point", 3, 3, 1, "wild"), ("point", 3, 5, "inf", "wild"),
     ("point", 5, 1, "inf", "wild"), ("point", 5, 2, 1, "bad-order"),
     ("kernel", 0, 1, "member"), ("kernel", 3, 1, "bad-g"),
     ("kernel", 2, 2, "member"), ("kernel", 2, 2, "bad-g"),
     ("kernel", 5, 2, "member"), ("kernel", 5, 2, "bad-f")]
    # median band, ~30-34 ms: 10
    + [("kernel", 2, 3, "member"), ("kernel", 2, 3, "bad-f"),
       ("kernel", 3, 3, "member"), ("kernel", 3, 3, "bad-g")] * 2
    + [("kernel", 3, 3, "member"), ("kernel", 2, 3, "bad-g")]
    # middle, ~50-90 ms: 12
    + [("kernel", 3, 4, "member"), ("kernel", 3, 4, "bad-f"), ("kernel", 3, 4, "member"),
       ("kernel", 5, 4, "member"), ("kernel", 5, 4, "bad-g"),
       ("kernel", 7, 4, "member"), ("kernel", 7, 4, "bad-f"), ("kernel", 2, 4, "member"),
       ("point", 7, 3, 2, "bad-order"), ("point", 7, 1, 1, "wild"),
       ("point", 7, 6, 1, "wild"), ("point", 7, 2, 3, "regular")]
    # p90 band, ~150 ms: 6
    + [("kernel", 7, 5, "member"), ("kernel", 7, 5, "bad-g"), ("kernel", 3, 5, "member"),
       ("kernel", 3, 5, "bad-f"), ("kernel", 5, 5, "member"), ("kernel", 2, 5, "bad-g")]
    # heaviest, ~280 ms: 2
    + [("kernel", 2, 6, "member"), ("kernel", 5, 6, "bad-f")]
)

# Known defects, one op each: at some wild places of degree 2 or 3 the
# pointwise oracle finds no local witness where the criterion holds.
STALK_DEFECTS = (
    ("point", 2, 1, 2, "wild"), ("point", 3, 3, 3, "wild"), ("point", 5, 1, 2, "wild"),
    ("point", 7, 1, 3, "wild"), ("point", 7, 6, 3, "wild"),
)


def _fixed_order(items):
    """Interleave shapes the same way for every seed."""
    items = list(items)
    random.Random(1994).shuffle(items)
    return items


def verdict_item(rng, shape, op_id, shipped):
    """One scenario file per op: {doc, truths, maxPlaceDegree[, path]}.

    ``shipped`` maps a corpus file name to (path, parsed document); such
    an op runs the file itself, checked against the truth of its entries.
    """
    item = {}
    if shape[0] == "shipped":
        item["path"], item["doc"] = shipped[shape[1]]
        item["truths"] = [scenario_truth(e) for e in item["doc"]["scenarios"]]
    else:
        entry, truth = verdict_entry(rng, op_id, shape)
        item["doc"] = {"version": "1", "scenarios": [entry]}
        item["truths"] = [truth]
    item["maxPlaceDegree"] = max(t["maxPlaceDegree"] for t in item["truths"])
    return item


def cech_item(rng, shape, op_id, shipped):
    """A D-datum and a twist n, with the closed-form and oracle truth."""
    kind, p, r = shape[:3]
    if kind == "tame":
        n = shape[3]
        a, b = tame_datum(rng, p, r)
    else:
        n = 0
        a, b = wild_datum(rng, p, r, shape[3])
    d = derivation_truth(p, parse(a, p), [parse(x, p) for x in b])
    oracle = tame_twist_truth(r, n) if kind == "tame" else (1, d["h1"])
    return {"p": p, "a": a, "b": b, "n": n, "closed": (d["chi"], d["h1"]),
            "oracle": oracle, "maxPlaceDegree": d["maxPlaceDegree"]}


def point_input(rng, p, r, deg, kind):
    """Datum and place with a known pointwise verdict.

    ``kind`` fixes the local picture at the place: a/b_i regular, a wild
    pole (order n·p), a pole of order prime to p, any pole in
    characteristic 0, or a b_i/b_1 that vanishes there.
    """
    if deg == "inf":
        place, place_deg = INF, 1
    else:
        place, place_deg = _places(rng, p, [deg])[0], deg
    lin = _places(rng, p, [1], exclude=[place])[0]
    q = rng.choice([b for d in (1, 2) for b in IRREDUCIBLES[p][d]
                    if b not in (place, lin)])
    order = {"regular": 0, "wild": p, "bad-order": p + 1, "pole": 2,
             "bad-ratio": p}[kind]
    if place == INF:
        # pole of the given order at infinity, one simple pole at q
        a = Fact(p, _const(rng, p), {lin: order + len(q) - 1, q: -1})
        bs = [Fact(p, _const(rng, p)) for _ in range(r)]
        bump = lin
    else:
        a = Fact(p, _const(rng, p), {place: -order, q: -1})
        bs = [Fact(p, _const(rng, p), {q: i % 2}) for i in range(r)]
        bump = place
    if kind == "bad-ratio":
        bs[-1] = bs[-1] * Fact(p, 1, {bump: 1})
    truth = all(b.order_at(place) == bs[0].order_at(place) for b in bs[1:])
    for b in bs:
        o = (a / b).order_at(place)
        if o < 0 and not (p and (-o) % p == 0):
            truth = False
    return {"a": a.render(), "b": [b.render() for b in bs],
            "place": None if place == INF else list(place), "truth": truth,
            "maxPlaceDegree": place_deg}


def kernel_input(rng, p, r, kind):
    """Datum and element with known membership in ker Tr.

    f_1 = b_1·H/a makes (a f_1/b_1)' = H', with H = c·x^2 + c'/(x+t)
    differentiated term by term; g_1 then closes sum g_i = -H'.
    """
    places = _places(rng, p, [1, 2])
    a = Fact(p, _const(rng, p), {places[0]: -2, places[1]: -1})
    bs = [Fact(p, _const(rng, p), {places[1]: i % 2}) for i in range(r)]
    a_t, b_t = a.render(), [b.render() for b in bs]
    c, c2, t = _const(rng, p), _const(rng, p), rng.randrange(p or 5)
    h = f"({c})*x^2 + ({c2})/(x+{t})"
    dh = f"({2 * c})*x + ({-c2})/(x+{t})^2"
    f = [f"({bi})*({h})/({a_t})" for bi in b_t]
    g = [f"({_const(rng, p)})*x" for _ in range(r - 1)]
    g = [f"-({dh})" + "".join(f" - ({gi})" for gi in g)] + g
    delta = f"({_const(rng, p)})*x"
    if kind == "bad-f":
        f[1] = f"{f[1]} + {delta}"
    elif kind == "bad-g":
        g[0] = f"{g[0]} + {delta}"
    return {"a": a_t, "b": b_t, "f": f, "g": g, "truth": kind == "member",
            "maxPlaceDegree": derivation_truth(p, a, bs)["maxPlaceDegree"]}


def stalk_item(rng, shape, op_id, shipped):
    kind, p, r = shape[:3]
    if kind == "point":
        item = point_input(rng, p, r, shape[3], shape[4])
    else:
        item = kernel_input(rng, p, r, shape[3])
    item.update(check=kind, p=p)
    return item


WORKLOADS = {"verdicts": (VERDICT_SHAPES, VERDICT_DEFECTS, verdict_item),
             "cech": (CECH_SHAPES, CECH_DEFECTS, cech_item),
             "stalk": (STALK_SHAPES, STALK_DEFECTS, stalk_item)}


def workload_inputs(workload: str, seed: int, passes: int = 1, shipped=None):
    """``passes`` rounds over the workload's shapes, fresh inputs each round.

    Every round lists the shapes in the same order, so any prefix of the
    list has the same mix of shapes whatever the seed.
    """
    shapes, _, build = WORKLOADS[workload]
    rng = random.Random(seed)
    out = []
    for n in range(passes):
        for k, shape in enumerate(_fixed_order(shapes)):
            out.append(_build(build, rng, shape, f"{workload}-{n:02d}-{k:03d}", shipped))
    return out


def defect_inputs(workload: str, seed: int):
    """One op per known-defect shape of the workload, in list order."""
    _, defects, build = WORKLOADS[workload]
    rng = random.Random(seed)
    return [_build(build, rng, shape, f"{workload}-defect-{k:02d}", None)
            for k, shape in enumerate(defects)]


def _build(build, rng, shape, op_id, shipped):
    item = build(rng, shape, op_id, shipped)
    item["id"] = op_id
    return item
