"""
The composition family of the growth fill (:mod:`growthdiagrams.growth`),
as the record ``PAIR``: label rules, vertex growth, and the conversions
of the boundary labels to the hypoplactic (P, Q) pair.
"""
from __future__ import annotations

from .compositions import increment_last, is_binword_value_cover
from .growth import DualPair
from .ribbons import QuasiRibbonTableau, RibbonTableau


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
    empty=(),
    mark=_mark_labels_composition, join=_join_labels_composition,
    fits=_labels_fit_composition, spined=False,
    grow=lambda c, a: c + (1,) if a else increment_last(c),
    # each vertex's word value, which grows as its word does
    carried=0, carry=lambda value, a: value << 1 | a,
    is_horizontal_cover=lambda x, z, u, v: is_binword_value_cover(u, v), text=None,
    p_from_labels=lambda letters: QuasiRibbonTableau._from_reading(*_quasi_ribbon_forms(letters)),
    q_from_labels=lambda labels: RibbonTableau._from_reading(*_ribbon_forms(labels)),
)
