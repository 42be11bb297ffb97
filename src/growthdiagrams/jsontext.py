"""
JSON text equal byte for byte to ``json.dumps(obj, indent=2)``, for
values built from dict (with str keys), list, tuple, str, int, bool and
None; anything else raises TypeError.  The top-level object, or a value
of its dict, may be a ``_Rendered`` (a labeled tree, a growth grid, a
graph's ranks), whose own writer yields its text part by part; every
other value's text is made whole, with strings escaped by the C function
``json`` uses.
"""
from __future__ import annotations

from itertools import chain
from typing import Callable, Iterable, Iterator

try:  # the C escaper alone, without loading the json package around it
    from _json import encode_basestring_ascii as _string
except ImportError:
    from json.encoder import encode_basestring_ascii as _string

_INDENT = "  "
CHUNK_SIZE = 1 << 16  # characters; iterdumps yields a piece once it has this many


class _Rendered:
    """A value whose JSON text ``render(depth)`` yields in whole parts,
    where depth is that of the item that holds it."""

    __slots__ = ("render",)

    def __init__(self, render: Callable[[int], Iterable[str]]):
        self.render = render


def _key(key) -> str:
    """A key's text with the ": " after it."""
    if not isinstance(key, str):
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    return _string(key) + ": "


def _join(bracket: str, texts: Iterable[str], depth: int) -> str:
    """The text of a non-empty container at ``depth`` from its items' texts."""
    newline = "\n" + _INDENT * (depth + 1)
    return bracket[0] + newline + ("," + newline).join(texts) + "\n" + _INDENT * depth + bracket[1]


def _text(value, depth: int, ints: dict) -> str:
    """The text of a value at ``depth``.  ``ints`` holds the text of each
    list of ints by (id, depth), looked up before an item's own call: a
    graph's edges share their ends' compositions."""
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        kinds = set(map(type, value))
        if kinds == {int}:
            text = ints[id(value), depth] = _join("[]", map(int.__repr__, value), depth)
            return text
        if kinds == {str}:
            return _join("[]", map(_string, value), depth)
        inner = depth + 1
        return _join("[]", [ints.get((id(item), inner)) or _text(item, inner, ints) for item in value], depth)
    if isinstance(value, dict):
        if not value:
            return "{}"
        return _join("{}", [_key(key) + _text(item, depth + 1, ints) for key, item in value.items()], depth)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    # a subclass of str or int is written as its exact base would be
    if isinstance(value, str):
        return _string(value)
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _parts(obj) -> Iterator[Iterable[str]]:
    """The parts of obj's text that :func:`iterdumps` defines, in groups:
    the whole value, or a key of the top-level dict, then its value."""
    if not isinstance(obj, dict) or not obj:
        yield obj.render(0) if obj.__class__ is _Rendered else (_text(obj, 0, {}),)
        return
    ints: dict = {}
    lead = "{\n" + _INDENT
    for key, value in obj.items():
        yield (lead + _key(key),)
        yield value.render(1) if value.__class__ is _Rendered else (_text(value, 1, ints),)
        lead = ",\n" + _INDENT
    yield ("\n}",)


def streamed_list(items: Iterable) -> _Rendered:
    """A list, as a value of the top-level dict, whose items are made and
    written one at a time, each item's text a part."""

    def render(depth: int) -> Iterator[str]:
        newline = "\n" + _INDENT * (depth + 1)
        lead = "[" + newline
        for item in items:
            # a cache per item: the ids of an earlier item's lists may be reused
            yield lead + _text(item, depth + 1, {})
            lead = "," + newline
        yield "\n" + _INDENT * depth + "]" if lead[0] == "," else "[]"

    return _Rendered(render)


def iterdumps(obj) -> Iterator[str]:
    """
    ``json.dumps(obj, indent=2)`` in pieces of whole parts: every piece but
    the last has at least ``CHUNK_SIZE`` characters, and fewer without
    its last part.  A part is a key of the top-level dict with what goes
    in front of it, a plain value's whole text, a part that a
    ``_Rendered`` yields, or the closing brace; so the text of a deep
    tree, which grows as the square of its depth, is never whole.

    >>> list(iterdumps({"a": [1, [2]]}))
    ['{\\n  "a": [\\n    1,\\n    [\\n      2\\n    ]\\n  ]\\n}']
    """
    limit = CHUNK_SIZE
    parts: list[str] = []
    size = 0  # characters in parts
    for part in chain.from_iterable(_parts(obj)):
        parts.append(part)
        size += len(part)
        if size >= limit:
            yield "".join(parts)
            parts.clear()
            size = 0
    if parts:
        yield "".join(parts)
