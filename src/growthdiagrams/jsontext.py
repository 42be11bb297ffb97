"""
JSON text equal byte for byte to ``json.dumps(obj, indent=2)``, for
values built from dict (with str keys), list, tuple, str, int, bool and
None; anything else raises TypeError.  At every depth a dict is written
item by item, and so is an iterator, as a list whose items are made one
at a time; a ``_Rendered`` (a labeled tree, a growth grid) yields its own
text part by part; every other value's text is made whole, with strings
escaped by the C function ``json`` uses.  ``growth`` and ``graph`` write
a composition vertex in one form, :func:`composition_texts`.
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


def composition_texts(names: Iterable[str], depth: int) -> Iterator[str]:
    """The texts at ``depth`` of compositions given by their print names:
    "e" is ``[]``, and "2,1" the list of its parts, one ``str.replace`` each."""
    newline = "\n" + _INDENT * depth
    part_break = "," + newline + _INDENT
    start, end = "[" + part_break[1:], newline + "]"
    return ("[]" if name == "e" else start + name.replace(",", part_break) + end for name in names)


def _text(value, depth: int) -> str:
    """The text of a value at ``depth``."""
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if set(map(type, value)) == {int}:
            return _join("[]", map(int.__repr__, value), depth)
        return _join("[]", [_text(item, depth + 1) for item in value], depth)
    if isinstance(value, dict):
        texts = [_key(key) + _text(item, depth + 1) for key, item in value.items()]
        return _join("{}", texts, depth) if texts else "{}"
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


def _streamed(value) -> bool:
    """A dict, an iterator or a ``_Rendered``: a value written part by part."""
    return isinstance(value, dict) or hasattr(value, "__next__") or value.__class__ is _Rendered


def _parts(value, depth: int) -> Iterator[Iterable[str]]:
    """The parts of the text at ``depth`` of a :func:`_streamed` value, in groups."""
    if value.__class__ is _Rendered:
        yield value.render(depth)
        return
    if isinstance(value, dict):
        brackets, items = "{}", ((_key(key), item) for key, item in value.items())
    else:
        brackets, items = "[]", (("", item) for item in value)
    newline = "\n" + _INDENT * (depth + 1)
    lead = brackets[0] + newline
    for key, item in items:
        if _streamed(item):
            yield (lead + key,)
            yield from _parts(item, depth + 1)
        else:
            yield (lead + key + _text(item, depth + 1),)
        lead = "," + newline
    yield ("\n" + _INDENT * depth + brackets[1] if lead[0] == "," else brackets,)


def iterdumps(obj) -> Iterator[str]:
    """
    ``json.dumps(obj, indent=2)`` in pieces of whole parts: every piece but
    the last has at least ``CHUNK_SIZE`` characters, and fewer without
    its last part.  A part is what goes in front of an item of a dict or
    an iterator (bracket or comma, indentation, key), with the item's
    whole text if that is made whole; a part that a ``_Rendered`` yields;
    a closing bracket; or the whole text of any other top-level value.
    So the text of a deep tree, which grows as the square of its depth,
    and of a graph's edges, is never whole.

    >>> list(iterdumps({"a": [1, [2]]}))
    ['{\\n  "a": [\\n    1,\\n    [\\n      2\\n    ]\\n  ]\\n}']
    """
    limit = CHUNK_SIZE
    parts: list[str] = []
    size = 0  # characters in parts
    for part in chain.from_iterable(_parts(obj, 0) if _streamed(obj) else [(_text(obj, 0),)]):
        parts.append(part)
        size += len(part)
        if size >= limit:
            yield "".join(parts)
            parts.clear()
            size = 0
    if parts:
        yield "".join(parts)
