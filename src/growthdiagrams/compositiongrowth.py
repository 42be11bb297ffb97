"""
The composition family of the growth fill (:mod:`growthdiagrams.growth`),
as the record ``PAIR``: label rules, the step of the text fill, and the
conversions of the boundary labels to the hypoplactic (P, Q) pair.
"""
from __future__ import annotations

from .compositions import is_binword_value_cover
from .growth import DualPair
from .permutations import GrowthRuleError
from .ribbons import QuasiRibbonTableau, RibbonTableau, _hypoplactic_leaf, hypoplactic_insert


def _mark_labels_composition(rank: int, spine: int) -> tuple[int, int]:
    """Case (a): the last part of t grows, or t = () becomes (1,)."""
    return (0, 2 * rank + 2) if rank else (1, 3)


def _join_labels_composition(a: int, h: int, rank: int) -> tuple[int, int]:
    """Cases (e) and (f); rank is rank(t)."""
    if h == 2 * rank + 2 + a:  # y inserted x's letter at the end, so x = y
        return 1, 2 * rank + 5
    return a, h


def _labels_fit_composition(a: int, h: int, rank: int, spine: int) -> bool:
    """Whether letter a can be appended to, and (q, b) = divmod(h, 2)
    inserted into, a composition of this rank."""
    return (a == 1 or a == 0 < rank) and (h == 3 if rank == 0 else 4 <= h <= 2 * rank + 3)


def _text_row(below: tuple[list, list], c: int, vertical: list, horizontal: list):
    """
    Row i of the text fill from row i - 1, ``below``: each vertex's text,
    its parts joined by commas or "e", and its word value.  The letter a
    of y -> z appends a part 1 to y's text when it is 1 and adds one to
    the last part when it is 0, and z's word value is y's with a
    appended, which must be a Binword cover of x's.
    """
    below_texts, below_values = below
    # left of the mark, case (b) or (c): z = y
    texts, values = below_texts[:], below_values[:]
    for j in range(c, len(texts)):
        if horizontal[j] is None:  # case (d): z = x
            texts[j], values[j] = texts[j - 1], values[j - 1]
            continue
        a = vertical[j]
        y = below_texts[j]
        if a:
            z = f"{y},1" if below_values[j] else "1"
        else:
            head, comma, last = y.rpartition(",")
            z = f"{head}{comma}{int(last) + 1}"
        value = below_values[j] << 1 | a
        if not is_binword_value_cover(values[j - 1], value):
            raise GrowthRuleError(f"z={z} does not cover x={texts[j - 1]}")
        texts[j], values[j] = z, value
    return texts, values


def _json_cells(texts: list[str], depth: int) -> str:
    """A row's cells at ``depth``, each the JSON list of its parts."""
    from .jsontext import composition_texts  # here, so that ASCII never loads it
    return (",\n" + "  " * depth).join(composition_texts(texts, depth))


def _quasi_ribbon_forms(letters) -> tuple[list[int], tuple[int, ...]]:
    """Cell k opens a new row for letter 1 and ends the last row for 0;
    the first letter is always 1.  The reading word and row-end flags."""
    return list(range(1, len(letters) + 1)), tuple(letters[1:])


def _ribbon_forms(labels) -> tuple[list[int], tuple[int, ...]]:
    """
    Step k inserts letter b at position q of the word, h = 2q + b, and
    puts k into the reading order: for a 0 at q - 1, the end of the run of
    0s it joins; for a 1 in front of the cell where its run of 1s starts
    (past the first cell), shifting that suffix down.  A row ends before
    each cell whose letter is 1.  The reading word and row-end flags.
    """
    word = bytearray()  # letters 0 and 1
    reading: list[int] = []
    for k, h in enumerate(labels, 1):
        q, b = divmod(h, 2)
        word.insert(q - 1, b)
        if b:
            start = word.rfind(0, 0, q - 1) + 1  # 0-based start of the run
            reading.insert(max(start, 1) - 1, k)
        else:
            reading.insert(q - 1, k)
    return reading, tuple(word[1:])


PAIR = DualPair(
    mark=_mark_labels_composition, join=_join_labels_composition,
    fits=_labels_fit_composition, spined=False,
    start=("e", 0), step=_text_row, json_cells=_json_cells,
    p_from_labels=lambda letters: QuasiRibbonTableau._from_reading(*_quasi_ribbon_forms(letters)),
    q_from_labels=lambda labels: RibbonTableau._from_reading(*_ribbon_forms(labels)),
    direct=hypoplactic_insert,  # the leaf reads the forms that the labels encode
    leaf=lambda dual, p, letters, labels: _hypoplactic_leaf(p, _quasi_ribbon_forms(letters), _ribbon_forms(labels)),
)
