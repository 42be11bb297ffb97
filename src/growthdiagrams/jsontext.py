"""
JSON text equal byte for byte to ``json.dumps(obj, indent=2)``, for
values built from dict (with str keys), list, tuple, str, int, bool and
None; anything else raises TypeError.  Inside the package a value may
also be a ``_Rendered``, whose text its own writer yields part by part,
such as a labeled tree written straight from its tuples, or a growth
grid written a row at a time.

``json.dumps`` recurses once per nesting level and, whenever ``indent``
is set, runs its pure-Python generator encoder.  This emitter walks with
an explicit stack, so nesting depth is unbounded; writes each scalar in
the loop over its container's items, with each key's text and the
indentation of the first 64 depths made once; renders a list whose
items are all ints or all strs in one join, with strings escaped by the
same C function ``json.dumps`` uses; reuses the text of a list of ints
when the same object appears again at the same depth; and escapes each
distinct exact str once per call, in a memo keyed by the string itself,
so that a lookup stays a C-level subscript.
"""
from __future__ import annotations

from itertools import repeat
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


def _scalar(value) -> str:
    """The text of an instance of a subclass of str or int."""
    if isinstance(value, str):
        return _string(value)
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


class _StrTexts(dict):
    """Each exact str's text, made on first use."""

    def __missing__(self, value: str) -> str:
        text = self[value] = _string(value)
        return text


class _KeyTexts(dict):
    """Each key's text with the ": " after it, made on first use."""

    def __missing__(self, key) -> str:
        if not isinstance(key, str):
            raise TypeError(f"keys must be str, not {type(key).__name__}")
        text = self[key] = _string(key) + ": "
        return text


def _breaks(depth: int) -> tuple[str, str]:
    """A newline and the indentation of ``depth``, and the same after a comma."""
    newline = "\n" + _INDENT * depth
    return newline, "," + newline


# made once for the depths most texts stay within; a deeper one is made
# each time, since keeping every depth's would take memory that grows as
# the square of the depth
_SHALLOW_DEPTHS = 64
_SHALLOW = tuple(map(_breaks, range(_SHALLOW_DEPTHS)))


def _flat_list(items, depth: int, strings: _StrTexts):
    """The text of a list of ints only or strs only at ``depth``, else None."""
    if not items:
        return "[]"
    kinds = set(map(type, items))
    if kinds == {int}:
        texts = map(int.__repr__, items)
    elif kinds == {str}:
        texts = map(strings.__getitem__, items)
    else:
        return None
    newline = "\n" + _INDENT * (depth + 1)
    return "[" + newline + ("," + newline).join(texts) + "\n" + _INDENT * depth + "]"


def dumps(obj) -> str:
    """
    ``json.dumps(obj, indent=2)`` without recursion.

    >>> dumps({"a": [1, 2], "b": [[], {}], "c": None})
    '{\\n  "a": [\\n    1,\\n    2\\n  ],\\n  "b": [\\n    [],\\n    {}\\n  ],\\n  "c": null\\n}'
    """
    return "".join(iterdumps(obj))


def iterdumps(obj) -> Iterator[str]:
    """
    The text of :func:`dumps` in pieces of whole parts: every piece but
    the last has at least ``CHUNK_SIZE`` characters, and fewer without
    its last part.  A part is an item (its comma, indentation and key,
    then a scalar, a flat list or an opening bracket), a closing bracket
    with its indentation, or a part that a ``_Rendered`` value yields (the
    first with the comma, indentation and key in front), so the text of a
    deep tree, which grows as the square of its depth, is never all in
    memory at once.

    >>> list(iterdumps({"a": [1, [2]]}))
    ['{\\n  "a": [\\n    1,\\n    [\\n      2\\n    ]\\n  ]\\n}']
    """
    limit = CHUNK_SIZE
    parts: list[str] = []
    append = parts.append
    size = 0  # characters in parts
    # (id, depth) -> the text of a list of ints.  Lists that recur are
    # lists of ints, such as a composition's parts, which callers share;
    # a list of strs, such as a row of tree texts, appears once, and its
    # text can be as long as the output
    ints: dict[tuple[int, int], str] = {}
    open_ids: set[int] = set()
    keys = _KeyTexts()
    strings = _StrTexts()
    # per open container: its remaining (key text, value) items, its
    # closing bracket and its id; the frame at the bottom holds obj alone
    stack: list[tuple] = [(iter((("", obj),)), "", None)]
    sep = ""  # what goes in front of the next item's key
    comma = ",\n"  # the same after the first item
    depth = 0  # of the items of the top frame
    while True:
        # one check per part added, here after a bracket
        if size >= limit:
            yield "".join(parts)
            parts.clear()
            size = 0
        items, bracket, oid = stack[-1]
        for prefix, value in items:
            cls = value.__class__
            if value is None:
                text = "null"
            elif cls is int:
                text = int.__repr__(value)
            elif isinstance(value, dict):
                if value:
                    break
                text = "{}"
            elif cls is str:
                text = strings[value]
            elif isinstance(value, (list, tuple)):
                text = ints.get((id(value), depth))
                if text is None:
                    text = _flat_list(value, depth, strings)
                    if text is None:
                        break
                    if value and value[0].__class__ is int:
                        ints[id(value), depth] = text
            elif cls is _Rendered:
                # a value that writes its own text at this depth, in whole
                # parts; the check follows each
                text = sep + prefix
                append(text)
                size += len(text)
                for text in value.render(depth):
                    append(text)
                    size += len(text)
                    if size >= limit:
                        yield "".join(parts)
                        parts.clear()
                        size = 0
                sep = comma
                continue
            elif value is True:
                text = "true"
            elif value is False:
                text = "false"
            else:
                text = _scalar(value)
            text = sep + prefix + text
            append(text)
            size += len(text)
            sep = comma
            if size >= limit:
                yield "".join(parts)
                parts.clear()
                size = 0
        else:
            # every item is written: close the container
            stack.pop()
            if not stack:
                if parts:
                    yield "".join(parts)
                return
            open_ids.discard(oid)
            depth -= 1
            newline, comma = _SHALLOW[depth] if depth < _SHALLOW_DEPTHS else _breaks(depth)
            text = newline + bracket
            append(text)
            size += len(text)
            sep = comma
            continue
        # value is a non-empty container that is not a flat list: open it
        # and go on with its items
        oid = id(value)
        if oid in open_ids:
            raise ValueError("Circular reference detected")
        open_ids.add(oid)
        if isinstance(value, dict):
            text = sep + prefix + "{"
            stack.append((zip(map(keys.__getitem__, value), value.values()), "}", oid))
        else:
            text = sep + prefix + "["
            stack.append((zip(repeat(""), value), "]", oid))
        append(text)
        size += len(text)
        depth += 1
        sep, comma = _SHALLOW[depth] if depth < _SHALLOW_DEPTHS else _breaks(depth)
