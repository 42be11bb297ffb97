"""
Reference implementations kept for the tests: the row-by-row checks that
the one-pass checks in ``growthdiagrams`` replaced, and the insertion and
shadow-line routes built on them.  Each returns plain rows and raises
exactly what the library raised before the one-pass checks, so a test can
compare acceptance, result, exception type and message.

Also here: recursive tree predicates and parsers that only tests call.
They recurse once per level, so they serve small trees only.  And the
descent statistics of a permutation, against which the tests check the
shape of the hypoplactic tableaux; the check of a whole growth diagram
against the reference local rules on vertices; the ASCII grid as the CLI
drew it from a matrix of cells; and the conversions of a grid's boundary
vertex chains to (P, Q), against which the tests check the pair that the
fill's edge labels give.
"""
from growthdiagrams.compositions import composition_to_word, increment_last
from growthdiagrams.growth import _pair
from growthdiagrams.growthcheck import local_rule_composition, local_rule_tree
from growthdiagrams.permutations import PermutationParseError, inverse
from growthdiagrams.trees import is_reflected_bracket_cover, right_spine_length


def row_by_row_validate(rows, increases_down_columns):
    """The tableau check, one row and one overlap column at a time."""
    seen = set()
    for row in rows:
        if not row:
            raise ValueError("empty row in tableau")
        for v in row:
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"labels must be positive integers, got {v!r}")
            if v in seen:
                raise ValueError(f"duplicate label {v}")
            seen.add(v)
        if any(a >= b for a, b in zip(row, row[1:])):
            raise ValueError(f"row {row} is not strictly increasing")
    for upper, lower in zip(rows, rows[1:]):
        if increases_down_columns and not lower[0] > upper[-1]:
            raise ValueError(f"column must increase downwards: {upper[-1]} above {lower[0]}")
        if not increases_down_columns and not lower[0] < upper[-1]:
            raise ValueError(f"column must increase upwards: {upper[-1]} above {lower[0]}")


def tableau_rows(rows, increases_down_columns):
    """The rows as tuples, after the row-by-row check."""
    rows = tuple(tuple(row) for row in rows)
    row_by_row_validate(rows, increases_down_columns)
    return rows


def loop_validate_permutation(word):
    """The permutation check, one value at a time."""
    word = tuple(word)
    n = len(word)
    seen = set()
    for v in word:
        if not isinstance(v, int) or v < 1 or v > n:
            raise PermutationParseError(f"value {v!r} out of range 1..{n}")
        if v in seen:
            raise PermutationParseError(f"duplicate value {v}")
        seen.add(v)
    return word


def _cut(reading, lengths):
    rows, pos = [], 0
    for length in lengths:
        rows.append(tuple(reading[pos : pos + length]))
        pos += length
    return tuple(rows)


def hypoplactic_rows(word):
    """(P rows, Q rows) of hypoplactic insertion: each letter goes just
    after the last entry <= it in the increasing reading word, a row ends
    right after it, and the row end after its predecessor goes."""
    word = tuple(word)
    if len(set(word)) != len(word):
        raise ValueError("letters must be distinct")
    for a in word:
        if not isinstance(a, int) or a < 1:
            raise ValueError(f"labels must be positive integers, got {a!r}")
    reading, ends, q_reading = [], [], []
    for step, a in enumerate(word, 1):
        k = sum(1 for v in reading if v <= a)
        reading.insert(k, a)
        ends.insert(k, True)
        if k:
            ends[k - 1] = False
        q_reading.insert(k, step)
    lengths, length = [], 0
    for end in ends:
        length += 1
        if end:
            lengths.append(length)
            length = 0
    rank = {v: i for i, v in enumerate(sorted(word), 1)}
    return (
        tableau_rows(_cut([rank[v] for v in reading], lengths), True),
        tableau_rows(_cut(q_reading, lengths), False),
    )


def shadow_line_rows(p):
    """(P rows, Q rows) read off the shadow lines of a permutation."""
    p = loop_validate_permutation(p)
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v - 1] = i + 1
    lines = []
    for v in range(1, len(p) + 1):
        if lines and inv[v - 1] > inv[v - 2]:
            lines[-1].append(v)
        else:
            lines.append([v])
    return (
        tableau_rows(lines, True),
        tableau_rows([[inv[v - 1] for v in line] for line in lines], False),
    )


# -- trees ---------------------------------------------------------------------

def tree_from_text(s: str):
    """Parse a tree text, as ``growthdiagrams.trees.trees_to_text`` makes it."""
    pos = 0

    def parse():
        nonlocal pos
        if pos < len(s) and s[pos] == "-":
            pos += 1
            return None
        if pos >= len(s) or s[pos] != "(":
            raise ValueError(f"bad tree text {s!r} at index {pos}")
        pos += 1
        left = parse()
        if pos >= len(s) or s[pos] != ",":
            raise ValueError(f"bad tree text {s!r} at index {pos}")
        pos += 1
        right = parse()
        if pos >= len(s) or s[pos] != ")":
            raise ValueError(f"bad tree text {s!r} at index {pos}")
        pos += 1
        return (left, right)

    t = parse()
    if pos != len(s):
        raise ValueError(f"trailing characters in tree text {s!r}")
    return t


def labeled_tree_from_json_obj(obj):
    """Invert ``growthdiagrams.trees.labeled_tree_to_json_obj``."""
    if obj is None:
        return None
    return (
        obj["label"],
        labeled_tree_from_json_obj(obj["left"]),
        labeled_tree_from_json_obj(obj["right"]),
    )


def is_search_tree(t, lo: float = float("-inf"), hi: float = float("inf")) -> bool:
    """Left subtree labels < node label < right subtree labels, recursively."""
    if t is None:
        return True
    label, left, right = t
    if not lo < label < hi:
        return False
    return is_search_tree(left, lo, label) and is_search_tree(right, label, hi)


def is_increasing_tree(t) -> bool:
    """Each node's label is smaller than every label in its subtrees."""
    if t is None:
        return True
    label, left, right = t
    for child in (left, right):
        if child is not None and child[0] < label:
            return False
    return is_increasing_tree(left) and is_increasing_tree(right)


def is_decreasing_tree(t) -> bool:
    """Each node's label is greater than every label in its subtrees."""
    if t is None:
        return True
    label, left, right = t
    for child in (left, right):
        if child is not None and child[0] > label:
            return False
    return is_decreasing_tree(left) and is_decreasing_tree(right)


def descent_composition(p):
    """
    The composition of n whose partial sums are the descent positions of p,
    i.e. the positions i with p[i] > p[i+1] (1-based).
    """
    n = len(p)
    if n == 0:
        return ()
    bounds = [0] + [i for i in range(1, n) if p[i - 1] > p[i]] + [n]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


def recoils_composition(p):
    """The descent composition of the inverse permutation: the shape of
    the quasi-ribbon tableau that hypoplactic insertion produces."""
    return descent_composition(inverse(p))


def validate_grid(grid):
    """Recheck every boundary value of a GrowthGrid, and every square
    against the local rule of its family on vertices."""
    empty = _pair(grid.family).empty
    rule = {"composition": local_rule_composition, "tree": local_rule_tree}[grid.family]
    n, vertices, marks = grid.n, grid.vertices, grid.marks
    if len(vertices) != n + 1 or any(len(row) != n + 1 for row in vertices):
        raise ValueError("grid is not (n+1) x (n+1)")
    if any(vertices[0][j] != empty for j in range(n + 1)):
        raise ValueError("bottom boundary must be empty")
    if any(vertices[i][0] != empty for i in range(n + 1)):
        raise ValueError("left boundary must be empty")
    if len(marks) != n or len({c for c, _ in marks}) != n or len({r for _, r in marks}) != n:
        raise ValueError("marks are not a permutation matrix")
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            alpha = 1 if (j, i) in marks else 0
            z = rule(vertices[i - 1][j - 1], vertices[i][j - 1], vertices[i - 1][j], alpha)
            if z != vertices[i][j]:
                raise ValueError(f"square ({j}, {i}) disagrees with the local rule")


def render_grid(grid, labels):
    """The ASCII grid as the CLI drew it before it wrote a line at a time:
    a (2n+1) x (2n+1) matrix of cells, vertex labels in the even rows and
    columns, each mark's "x" between its column's two, every column as
    wide as its widest cell, and the whole text joined at once."""
    n = grid.n
    size = 2 * n + 1
    cells = [["" for _ in range(size)] for _ in range(size)]
    for i in range(n + 1):
        for j in range(n + 1):
            cells[2 * (n - i)][2 * j] = labels[i][j]
    for col, row in grid.marks:
        cells[2 * (n - row) + 1][2 * col - 1] = "x"
    widths = [max(len(r[c]) for r in cells) for c in range(size)]
    lines = []
    for r in cells:
        line = "  ".join(cell.ljust(width) for cell, width in zip(r, widths))
        lines.append(line.rstrip())
    return "\n".join(lines)


# -- boundary chains -----------------------------------------------------------
#
# Each converter reads the edge labels of a saturated vertex chain off
# consecutive vertices, in time linear in their size, and converts them as
# the fill's labels are converted.

def boundary_chains(grid):
    """The top row of a GrowthGrid, left to right, and its right column,
    bottom to top: saturated chains that share the corner."""
    return grid.vertices[grid.n], tuple(row[grid.n] for row in grid.vertices)


def _require(condition: bool, chain, graph_name: str):
    if not condition:
        raise ValueError(f"chain {chain!r} is not saturated in the {graph_name}")


def chain_to_quasi_ribbon(chain):
    """
    Label the cells of a saturated chain in the lifted binary tree in the
    order they appear: a grown last part appends to the last row, an
    appended part opens a new row.  The result is automatically canonical.
    """
    chain = [tuple(c) for c in chain]
    _require(bool(chain) and chain[0] == (), chain, "lifted binary tree")
    letters = []
    for prev, cur in zip(chain, chain[1:]):
        if prev and cur == increment_last(prev):
            letters.append(0)
        else:
            _require(cur == prev + (1,), chain, "lifted binary tree")
            letters.append(1)
    return _pair("composition").p_from_labels(letters)


def chain_to_ribbon(chain):
    """
    Convert a saturated Binword chain to a ribbon tableau.  At step k the
    words of the two compositions differ by one inserted letter b, at the
    first position q where the longer word departs from the shorter, and
    the label of the step is h = 2q + b.
    """
    chain = [tuple(c) for c in chain]
    _require(bool(chain) and chain[0] == (), chain, "Binword")
    labels = []
    u = ""  # the word of the composition before cur
    for cur in chain[1:]:
        v = composition_to_word(cur)
        q = next((q for q, (a, b) in enumerate(zip(u, v), 1) if a != b), len(u) + 1)
        _require(len(v) == len(u) + 1 and v[: q - 1] + v[q:] == u, chain, "Binword")
        labels.append(2 * q + int(v[q - 1]))
        u = v
    return _pair("composition").q_from_labels(labels)


def _preorder_bits(t) -> bytes:
    """1 for each node and 0 for each empty subtree, in preorder; the 0s
    come in the in-order order of the empty slots."""
    bits = bytearray()
    stack = [t]
    while stack:
        t = stack.pop()
        if t is None:
            bits.append(0)
        else:
            bits.append(1)
            stack += (t[1], t[0])
    return bytes(bits)


def chain_to_increasing_tree(chain):
    """
    Label a saturated chain in the lattice of binary trees by the order in
    which the nodes appear: the tree at step k hangs a leaf k in one empty
    slot of the tree before it, and s, the in-order index of that slot, is
    the label of the step.
    """
    chain = list(chain)
    _require(bool(chain) and chain[0] is None, chain, "lattice of binary trees")
    slots = []
    u = _preorder_bits(None)
    for cur in chain[1:]:
        t, u = u, _preorder_bits(cur)
        # u is t with one 0 (an empty slot) replaced by 100 (a leaf)
        m = next((m for m, (a, b) in enumerate(zip(t, u)) if a != b), len(t))
        _require(u == t[:m] + b"\1\0\0" + t[m + 1 :], chain, "lattice of binary trees")
        slots.append(t.count(0, 0, m))
    return _pair("tree").q_from_labels(slots)


def chain_to_bst(chain):
    """
    Convert a saturated chain in the reflected bracket tree into a binary
    search tree: element i differs from its predecessor by the node whose
    rightmost deletion gives the predecessor back; that node gets label i
    and the displaced nodes keep the labels set before.  The label of the
    step is the right-spine depth of the new node.
    """
    chain = list(chain)
    _require(bool(chain) and chain[0] is None, chain, "reflected bracket tree")
    depths = []
    for prev, cur in zip(chain, chain[1:]):
        _require(is_reflected_bracket_cover(prev, cur), chain, "reflected bracket tree")
        depths.append(right_spine_length(cur) - 1)
    return _pair("tree").p_from_labels(depths)


CHAIN_CONVERTERS = {
    "composition": (chain_to_quasi_ribbon, chain_to_ribbon),
    "tree": (chain_to_bst, chain_to_increasing_tree),
}


def chain_pair(grid):
    """The (P, Q) pair that the boundary chains of a GrowthGrid encode."""
    top, right = boundary_chains(grid)
    to_p, to_q = CHAIN_CONVERTERS[grid.family]
    return to_p(right), to_q(top)


# -- graphs --------------------------------------------------------------------

def set_binword_table(n):
    """The Binword up-table of rank n, each row deduplicated through a set
    of every insertion of either letter at every place but the front."""
    if n == 0:
        return ((0,),)
    top = 1 << n
    rows = []
    for word in range(top >> 1, top):
        covers = set()
        for p in range(n):
            spread = (word >> p << (p + 1)) | (word & ((1 << p) - 1))
            covers.add(spread - top)
            covers.add(spread + (1 << p) - top)
        rows.append(tuple(sorted(covers)))
    return tuple(rows)
