"""The package's record classes: construction, equality, hashing, reprs and
the errors of the validating ones, whatever class implements them."""

import pytest

from dpglue.artinian import Subalgebra
from dpglue.catalog import BuildingBlock, GlueScenario, PicardClass
from dpglue.cohomology import LineSheafSum
from dpglue.filling import BranchSpec, ConductorRing, FillingResult, SingularityType
from dpglue.glue import GenericGlueData, KernelElement, WildCuspRing, glue_data
from dpglue.polynomials import Poly
from dpglue.rational import Place

from conftest import ff

F3 = ff(3)
X = Poly.x(F3.base)
P2 = ("P2",)

# class, field names, one value per field, a value unequal to it, and
# whether the class was frozen, hence hashable
RECORDS = [
    (Subalgebra, ("parent", "basis", "algebra"),
     ("O_C", [[1, 0]], "table"), ("O_C", [[0, 1]], "table"), False),
    (PicardClass, ("surface", "coeffs"), (P2, (1,)), (P2, (2,)), True),
    (BuildingBlock, ("case", "a", "H", "C", "conic", "degree"),
     ("a1", None, PicardClass(P2, (1,)), PicardClass(P2, (2,)), "smooth", 1),
     ("b", None, PicardClass(P2, (2,)), PicardClass(P2, (1,)), "smooth", 4), True),
    (GlueScenario, ("characteristic", "blocks", "glue_case", "identifications",
                    "derivation", "cover", "name"),
     (0, ["a1"], "A", [], None, "separable", "s"),
     (0, ["a1"], "A", [], None, "inseparable", "s"), False),
    (LineSheafSum, ("degrees",), ((0, -1),), ((0, -2),), True),
    (BranchSpec, ("n", "minpoly"), (2, None), (2, X * X + 1), True),
    (ConductorRing, ("field", "branches", "algebra", "offsets"),
     (F3, [BranchSpec(2)], "table", [0]), (F3, [BranchSpec(3)], "table", [0]), False),
    (FillingResult, ("ok", "reasons", "sub", "quotient"),
     (True, [], None, None), (False, ["not local"], None, None), False),
    (SingularityType, ("tag", "r"), ("wild", 3), ("wild", 4), True),
    (GenericGlueData, ("characteristic", "a", "b"),
     (3, F3.x, (F3.one,)), (3, F3.x, (F3.one, F3.one)), True),
    (KernelElement, ("f", "g"), ([F3.one], [F3.zero]), ([F3.one], [F3.one]), False),
    (WildCuspRing, ("p", "n", "generators", "gaps"),
     (3, 1, (3, 4, 5), (1, 2)), (3, 2, (3, 7, 8), (1, 2, 4, 5)), True),
    (Place, ("poly",), (X,), (X + 1,), True),
]


@pytest.mark.parametrize("cls, names, values, other, frozen", RECORDS,
                         ids=[case[0].__name__ for case in RECORDS])
def test_record(cls, names, values, other, frozen):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    assert [getattr(by_position, name) for name in names] == list(values)
    assert by_position == by_keyword
    assert not by_position != by_keyword
    assert by_position != cls(*other)
    if frozen:
        assert hash(by_position) == hash(by_keyword)
        assert len({by_position, by_keyword, cls(*other)}) == 2


def test_record_defaults():
    assert BranchSpec(2) == BranchSpec(2, None)
    assert BranchSpec(2).residue_degree == 1
    assert BranchSpec(1, X * X + 1).residue_degree == 2
    assert SingularityType("node").r == 0
    result = FillingResult(True)
    assert (result.reasons, result.sub, result.quotient) == ([], None, None)
    assert FillingResult(True).reasons is not result.reasons
    scenario = GlueScenario(0, [], "A")
    assert (scenario.identifications, scenario.derivation, scenario.cover,
            scenario.name) == ([], None, "separable", "")
    # every scenario gets its own list
    assert GlueScenario(0, [], "A").identifications is not scenario.identifications


def test_record_reprs():
    assert repr(Place.infinity()) == "Place(oo)"
    assert repr(Place(X)) == "Place(x)"
    assert repr(SingularityType("wild", 3)) == "wild(3)"
    assert repr(SingularityType("r-concurrent-lines", 4)) == "r-concurrent-lines(4)"
    assert repr(SingularityType("cusp")) == "cusp"


def test_record_methods():
    assert PicardClass(P2, (1,)) + PicardClass(P2, (2,)) == PicardClass(P2, (3,))
    assert PicardClass(("F", 1), (1, 2)).scale(-1) == PicardClass(("F", 1), (-1, -2))
    with pytest.raises(ValueError, match="different surfaces"):
        PicardClass(P2, (1,)) + PicardClass(("F", 0), (1, 0))
    assert LineSheafSum((0, -1)).chi(1) == 3
    ring = WildCuspRing(3, 1, (3, 4, 5), (1, 2))
    assert (ring.embedding_dim, ring.delta) == (3, 2)
    assert ring.contains(4) and not ring.contains(2)
    assert Place.infinity().is_infinity() and Place.infinity().degree == 1
    assert Place.finite(X * X + 1) == Place(X * X + 1)
    assert Place(X * X + 1).degree == 2
    data = glue_data(3, "1/x^3", ["1", "2"])
    assert data.r == 2 and data.field == F3


def test_record_errors():
    with pytest.raises(ValueError, match="^multiplicity must be >= 1$"):
        BranchSpec(0)
    with pytest.raises(ValueError, match="^at least one branch required$"):
        GenericGlueData(3, F3.x, ())
    with pytest.raises(ValueError, match="^every b_i must be nonzero$"):
        GenericGlueData(3, F3.x, (F3.one, F3.zero))
    with pytest.raises(ValueError, match="must be irreducible"):
        Place.finite(X * X)
