"""The package's record types are immutable values: built by keyword,
compared and hashed by their fields, and shown by a repr that rebuilds
them."""
import copy
import pickle

import pytest

from growthdiagrams.graphs import DualityCounterexample, DualityReport, GradedGraph
from growthdiagrams.growth import GrowthGrid, build_growth_diagram
from growthdiagrams.ribbons import QuasiRibbonTableau, RibbonTableau

# (constructor, keyword fields, the same record with one field changed,
# expected repr); each record is built twice to check equality and hash
RECORDS = [
    (
        GradedGraph,
        dict(name="g", family="composition", up_table=len),
        dict(name="g", family="tree", up_table=len),
        "GradedGraph(name='g', family='composition', up_table=<built-in function len>)",
    ),
    (
        DualityCounterexample,
        dict(rank=1, row_label="1", col_label="1", got=0, expected=1),
        dict(rank=1, row_label="1", col_label="1", got=2, expected=1),
        "DualityCounterexample(rank=1, row_label='1', col_label='1', got=0, expected=1)",
    ),
    (
        DualityReport,
        dict(pair="(a, b)", max_rank=1, rank_verdicts=(True, True), counterexample=None),
        dict(pair="(a, b)", max_rank=1, rank_verdicts=(True, False), counterexample=None),
        "DualityReport(pair='(a, b)', max_rank=1, rank_verdicts=(True, True), counterexample=None)",
    ),
    (
        GrowthGrid,
        dict(n=1, family="composition", marks=frozenset({(1, 1)}), labels=((1,), (3,))),
        dict(n=1, family="tree", marks=frozenset({(1, 1)}), labels=((1,), (3,))),
        "GrowthGrid(n=1, family='composition', marks=frozenset({(1, 1)}), labels=((1,), (3,)))",
    ),
    (
        QuasiRibbonTableau,
        dict(rows=((1, 2),)),
        dict(rows=((1,), (2,))),
        "QuasiRibbonTableau(rows=((1, 2),))",
    ),
    (
        RibbonTableau,
        dict(rows=((1, 2),)),
        dict(rows=((2,), (1,))),
        "RibbonTableau(rows=((1, 2),))",
    ),
]


@pytest.mark.parametrize("kind, fields, changed, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_is_an_immutable_value(kind, fields, changed, text):
    record = kind(**fields)
    assert record == kind(**fields)
    assert hash(record) == hash(kind(**fields))
    assert record != kind(**changed)
    assert repr(record) == text
    for name, value in fields.items():
        assert getattr(record, name) == value
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.deepcopy(record) == record


def test_growth_grid_is_the_record_the_fill_builds():
    # the fill keeps its boundary labels: letter 1 up the right column,
    # h = 3 along the top row
    grid = build_growth_diagram((1,), "composition")
    fields = dict(n=1, family="composition", marks=frozenset({(1, 1)}))
    assert grid == GrowthGrid(**fields, labels=((1,), (3,)))
    assert grid != GrowthGrid(**fields, labels=((1,), (1,)))
    # every field is required: the fill is the one way a grid is made
    with pytest.raises(TypeError):
        GrowthGrid(**fields)
    # the grid's (P, Q) pair is its labels converted
    assert grid.pair() == (QuasiRibbonTableau([[1]]), RibbonTableau([[1]]))
    # the vertices and their texts are made from the record when read,
    # and take no part in equality, hashing or the repr
    assert grid.vertices == (((), ()), ((), (1,)))
    assert list(grid.rows()) == [["e", "e"], ["e", "1"]]
    grid = build_growth_diagram((1,), "tree")
    assert grid == GrowthGrid(n=1, family="tree", marks=frozenset({(1, 1)}), labels=((0,), (0,)))
    assert hash(grid) == hash(GrowthGrid(n=1, family="tree", marks=frozenset({(1, 1)}), labels=((0,), (0,))))
    assert grid.vertices == ((None, None), (None, (None, None)))
    assert list(grid.rows()) == [["-", "-"], ["-", "(-,-)"]]
    assert repr(grid) == "GrowthGrid(n=1, family='tree', marks=frozenset({(1, 1)}), labels=((0,), (0,)))"


def test_tableau_kinds_differ():
    rows = ((1, 2),)
    assert QuasiRibbonTableau(rows) != RibbonTableau(rows)
    assert len({QuasiRibbonTableau(rows), RibbonTableau(rows)}) == 2


def test_tableau_rows_are_normalised_and_validated():
    t = QuasiRibbonTableau([[1, 2], [3]])
    assert t.rows == ((1, 2), (3,))
    assert all(type(row) is tuple for row in t.rows)
    assert t == QuasiRibbonTableau(((1, 2), (3,)))
    with pytest.raises(AttributeError):
        t.extra = 1
    with pytest.raises(AttributeError):
        del t.rows
    with pytest.raises(ValueError, match="not strictly increasing"):
        QuasiRibbonTableau([[2, 1]])
    with pytest.raises(ValueError, match="increase upwards"):
        RibbonTableau([[1, 2], [3]])
