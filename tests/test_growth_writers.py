"""
The two writers of ``growthdiag growth`` against their references: the
JSON text, whose grid rows the CLI joins straight from the fill's vertex
texts, against ``jsontext.iterdumps`` of a payload built from the grid's
vertices, which the local rules rebuild; and the ASCII text, which the
CLI writes a line at a time, against the renderer that built the whole
cell matrix (``render_grid`` in ``oracles``).
"""
import tracemalloc

import pytest

from growthdiagrams import cli, growth, jsontext
from growthdiagrams.permutations import GrowthRuleError, all_permutations
from growthdiagrams.trees import labeled_tree_to_json_obj
from oracles import render_grid, trees_to_text
from test_cli import _inputs
from test_growth import _patch_pair

FAMILIES = ("composition", "tree")
SEEDED = _inputs(150, 20)


def growth_output(capsys, family, p, fmt):
    code = cli.main(["growth", family, ",".join(map(str, p)), "--check", "--format", fmt])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    return out


def reference_json(grid):
    """The payload built from the grid's vertices and pair, as
    ``jsontext.iterdumps`` writes it: a tree as its text, made afresh, and a
    composition as its list of parts."""
    k = grid.n + 1
    if grid.family == "composition":
        cells = [list(v) for row in grid.vertices for v in row]
        p, q = (tableau.to_json_obj() for tableau in grid.pair())
    else:
        cells = trees_to_text(v for row in grid.vertices for v in row)
        p, q = map(labeled_tree_to_json_obj, grid.pair())
    payload = {
        "n": grid.n,
        "family": grid.family,
        "grid": [cells[i : i + k] for i in range(0, len(cells), k)],
        "marks": [list(cell) for cell in sorted(grid.marks)],
        "P": p,
        "Q": q,
        "check": "MATCH",
    }
    return "".join(jsontext.iterdumps(payload)) + "\n"


def reference_ascii(grid):
    """The text as the CLI joined it before it wrote a line at a time."""
    labels = list(grid.rows())
    algorithm = cli._FAMILY_ALGORITHMS[grid.family]
    return "\n".join([
        render_grid(grid, labels),
        "",
        "top chain:   " + " -> ".join(labels[grid.n]),
        "right chain: " + " -> ".join(row[grid.n] for row in labels),
        "".join(cli._pair_text(algorithm, *grid.pair())),
        "check against direct insertion: MATCH",
    ]) + "\n"


REFERENCES = {"json": reference_json, "ascii": reference_ascii}


@pytest.mark.parametrize("fmt", sorted(REFERENCES))
@pytest.mark.parametrize("family", FAMILIES)
def test_growth_text_equals_the_reference_exhaustive(capsys, family, fmt):
    for n in range(7):
        for p in all_permutations(n):
            grid = growth.build_growth_diagram(p, family)
            assert growth_output(capsys, family, p, fmt) == REFERENCES[fmt](grid), p


@pytest.mark.parametrize("fmt", sorted(REFERENCES))
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("klass", sorted(SEEDED))
def test_growth_text_equals_the_reference_seeded(capsys, family, fmt, klass):
    p = SEEDED[klass]
    out = growth_output(capsys, family, p, fmt)
    assert out == REFERENCES[fmt](growth.build_growth_diagram(p, family))


@pytest.mark.parametrize("family, p", [("composition", SEEDED["reverse"]), ("tree", _inputs(200, 20)["random"])])
def test_rows_longer_than_a_chunk_are_written_whole(capsys, family, p):
    # a tree text has 4 characters per node, so tree rows outgrow a chunk
    # only past n = 180
    grid = growth.build_growth_diagram(p, family)
    assert max(map(len, grid.json_parts(1))) > jsontext.CHUNK_SIZE
    assert growth_output(capsys, family, p, "json") == reference_json(grid)


@pytest.mark.parametrize("p", [(4, 1, 5, 3, 6, 2), SEEDED["random"]], ids=["415362", "random-150"])
def test_a_wrong_composition_join_fails_the_word_value_check(monkeypatch, p):
    # case (f) appends the other letter: every label still fits its
    # vertex, so only the Binword check on the carried word values fails
    join = growth._pair("composition").join

    def wrong_join(a, h, rank):
        labels = join(a, h, rank)
        return labels if labels != (a, h) else (1 - a, h)

    _patch_pair(monkeypatch, "composition", join=wrong_join)
    grid = growth.build_growth_diagram(p, "composition")
    with pytest.raises(GrowthRuleError, match="does not cover"):
        list(grid.rows())


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("klass", ["random", "reverse"])
def test_json_holds_about_one_row(tmp_path, family, klass):
    # the JSON writer makes each row as it writes it and keeps only the
    # row below, so its peak is a few rows' text, not the grid's
    p = _inputs(300, 25)[klass]
    out = tmp_path / "grid.json"
    largest_row = max(map(len, growth.build_growth_diagram(p, family).json_parts(1)))
    tracemalloc.start()
    try:
        code = cli.main(["growth", family, ",".join(map(str, p)), "--check", "--format", "json", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 12 * largest_row + (1 << 18)
    assert peak < out.stat().st_size / 8
