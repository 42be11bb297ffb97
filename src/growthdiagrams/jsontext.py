"""
JSON text equal byte for byte to ``json.dumps(obj, indent=2)``, for
values built from dict (with str keys), list, tuple, str, int, bool and
None; anything else raises TypeError.

``json.dumps`` recurses once per nesting level and, whenever ``indent``
is set, runs its pure-Python generator encoder.  This emitter walks with
an explicit stack, so nesting depth is unbounded; renders a list whose
items are all ints or all strs in one join, with strings escaped by the
same C function ``json.dumps`` uses; and reuses the text of such a list
when the same object appears again at the same depth.
"""
from __future__ import annotations

from itertools import repeat
from typing import Iterator, Optional

try:  # the C escaper alone, without loading the json package around it
    from _json import encode_basestring_ascii as _string
except ImportError:
    from json.encoder import encode_basestring_ascii as _string

_INDENT = "  "
CHUNK_SIZE = 1 << 16  # characters; iterdumps yields a piece once it has this many


def _scalar(value) -> str:
    if isinstance(value, str):
        return _string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _key(key) -> str:
    if isinstance(key, str):
        return _string(key)
    raise TypeError(f"keys must be str, not {type(key).__name__}")


def _flat_list(items, depth: int):
    """The text of a list of ints only or strs only at ``depth``, else None."""
    if not items:
        return "[]"
    kinds = set(map(type, items))
    if kinds == {int}:
        texts = map(int.__repr__, items)
    elif kinds == {str}:
        texts = map(_string, items)
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
    The text of :func:`dumps` in pieces of whole parts, each piece fewer
    than ``CHUNK_SIZE`` characters plus one last part.  A part is one
    indentation with a bracket, key, scalar or flat list, so the text of a
    deep tree, which grows as the square of its depth, is never all in
    memory at once.

    >>> list(iterdumps({"a": [1, [2]]}))
    ['{\\n  "a": [\\n    1,\\n    [\\n      2\\n    ]\\n  ]\\n}']
    """
    parts: list[str] = []
    size = 0  # characters in parts
    flat: dict[tuple[int, int], Optional[str]] = {}  # (id, depth) -> _flat_list text
    open_ids: set[int] = set()
    # per open container: its remaining (key prefix, value) items, its
    # closing bracket, its depth and its id
    stack: list[tuple] = []
    value, depth = obj, 0
    while True:
        # one check per part added, so a piece ends at most one part late
        if size >= CHUNK_SIZE:
            yield "".join(parts)
            parts.clear()
            size = 0
        if isinstance(value, (list, tuple)):
            text = flat.get((id(value), depth))
            if text is None:
                text = flat[id(value), depth] = _flat_list(value, depth)
            items, brackets = zip(repeat(""), value), "[]"
        elif isinstance(value, dict):
            text = None if value else "{}"
            items, brackets = ((_key(k) + ": ", v) for k, v in value.items()), "{}"
        else:
            text = _scalar(value)
        if text is None:
            # a non-empty container: open it and descend into its first item
            if id(value) in open_ids:
                raise ValueError("Circular reference detected")
            open_ids.add(id(value))
            stack.append((items, brackets[1], depth, id(value)))
            depth += 1
            prefix, value = next(items)
            text = brackets[0] + "\n" + _INDENT * depth + prefix
            parts.append(text)
            size += len(text)
            continue
        parts.append(text)
        size += len(text)
        # move on to the next item, closing every container that is done
        while stack:
            if size >= CHUNK_SIZE:
                yield "".join(parts)
                parts.clear()
                size = 0
            items, closing, outer, oid = stack[-1]
            item = next(items, None)
            if item is not None:
                prefix, value = item
                text = ",\n" + _INDENT * depth + prefix
                parts.append(text)
                size += len(text)
                break
            stack.pop()
            open_ids.discard(oid)
            depth = outer
            text = "\n" + _INDENT * depth + closing
            parts.append(text)
            size += len(text)
        else:
            yield "".join(parts)
            return
