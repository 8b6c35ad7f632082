"""Strict-partition shapes and their subset bookkeeping.

A shape is a tuple of strictly decreasing positive row lengths.  At rank n
every row length is at most n-1, so shapes correspond to subsets of
{1..n-1} (via their row lengths) and there are 2**(n-1) of them.  A row of
length l has *endpoint* n-l; a length-1 row has endpoint n-1.  Together
with a parity marker on the vertex n, the endpoints of a signed shape form
a subset of {1..n}, which is how shapes are matched to wedge-basis indices.
"""

from __future__ import annotations

import itertools
from enum import Enum
from operator import gt


class Sign(Enum):
    """Which of the two half-spin summands a basis state lives in."""

    PLUS = "plus"
    MINUS = "minus"

    # the two members are singletons, so identity is equality; Enum's own
    # hash goes through the member name on every dict lookup of a state
    __hash__ = object.__hash__

    def flip(self) -> "Sign":
        return MINUS if self is PLUS else PLUS

    def __str__(self) -> str:
        return self.value


# the members as module names, for per-state code: a global read, where
# Sign.PLUS is an Enum class-attribute lookup on every call
PLUS, MINUS = Sign.PLUS, Sign.MINUS


def parse_sign(text: str) -> Sign:
    text = text.strip().lower()
    for sign in Sign:
        if text == sign.value:
            return sign
    raise ValueError("unknown sign %r (expected 'plus' or 'minus')" % text)


def validate_diagram(rows, n=None) -> tuple:
    """Return rows as a tuple, checking int rows, strict decrease (and the rank bound)."""
    rows = tuple(rows)
    if not {int}.issuperset(map(type, rows)):  # exactly int: bool is refused
        raise ValueError("row lengths must be integers, got %r" % (rows,))
    if rows and min(rows) < 1:
        raise ValueError("row lengths must be positive, got %r" % (rows,))
    if not all(map(gt, rows, rows[1:])):
        raise ValueError("row lengths must strictly decrease, got %r" % (rows,))
    if n is not None:
        if n < 2:
            raise ValueError("rank must be at least 2, got %r" % n)
        if rows and rows[0] > n - 1:
            raise ValueError("row length %d exceeds bound %d for rank %d" % (rows[0], n - 1, n))
    return rows


def diagram_sort_key(rows):
    # total boxes first, then longest-row-first lexicographic order
    return (sum(rows), tuple(-r for r in rows))


def enumerate_diagrams(n: int) -> list:
    """All strict partitions with parts at most n-1, in canonical order."""
    if n < 2:
        raise ValueError("rank must be at least 2, got %r" % n)
    shapes = []
    lengths = range(n - 1, 0, -1)
    for size in range(n):
        shapes.extend(itertools.combinations(lengths, size))
    shapes.sort(key=diagram_sort_key)
    return shapes


def enumerate_diagrams_by_boxes(max_boxes: int) -> list:
    """All strict partitions with at most max_boxes boxes, no bound on parts.

    This is the rank-free enumeration: every shape listed here is a valid
    diagram for any rank n > its largest part.
    """
    if max_boxes < 0:
        raise ValueError("box cap must be non-negative, got %r" % max_boxes)
    # a strict partition with s parts has at least s(s+1)/2 boxes
    shapes = [
        rows
        for size in range(max_boxes + 1)
        if size * (size + 1) <= 2 * max_boxes
        for rows in itertools.combinations(range(max_boxes, 0, -1), size)
        if sum(rows) <= max_boxes
    ]
    shapes.sort(key=diagram_sort_key)
    return shapes


def conjugate(rows) -> tuple:
    """Transpose of the diagram; columns become (weakly decreasing) rows."""
    rows = tuple(rows)
    if not rows:
        return ()
    return tuple(sum(1 for r in rows if r >= i) for i in range(1, rows[0] + 1))


def endpoints(rows, n: int) -> frozenset:
    """The set {n - l : l a row length}; strictness makes all endpoints distinct."""
    return frozenset(n - l for l in validate_diagram(rows, n))


def fock_index(state, n: int) -> frozenset:
    """Subset of {1..n} attached to a signed shape, the basis state (sign, rows).

    The endpoints of the rows, plus the marker n when the row count s has
    the parity that the sign selects: for PLUS the marker appears iff s is
    odd, for MINUS iff s is even.  The resulting map is a bijection from
    signed shapes onto all 2**n subsets, PLUS landing on even-size subsets
    and MINUS on odd-size ones.
    """
    sign, rows = state
    idx = set(endpoints(rows, n))
    if (len(rows) % 2 == 1) == (sign is PLUS):
        idx.add(n)
    return frozenset(idx)


def parse_decimal(text: str) -> int:
    """The number that text writes in ASCII decimal digits, surrounding whitespace allowed.

    int() would also read a sign, "_" separators and non-ASCII digits;
    ValueError for those and for anything else.
    """
    digits = text.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError("not a decimal number: %r" % text)
    return int(digits)


def format_diagram(rows) -> str:
    if not rows:
        return "-"
    return ",".join(map(str, rows))


def parse_diagram(text: str, n=None) -> tuple:
    text = text.strip()
    if text in ("-", ""):
        return ()
    try:
        rows = tuple(parse_decimal(part) for part in text.split(","))
    except ValueError:
        raise ValueError("cannot parse diagram %r" % text) from None
    return validate_diagram(rows, n)


def format_fock_index(idx) -> str:
    return "{%s}" % ",".join(map(str, sorted(idx)))


def parse_fock_index(text: str, n=None) -> frozenset:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError("cannot parse index set %r" % text)
    body = text[1:-1].strip()
    if not body:
        return frozenset()
    try:
        parts = [parse_decimal(p) for p in body.split(",")]
    except ValueError:
        raise ValueError("cannot parse index set %r" % text) from None
    idx = frozenset(parts)
    if len(idx) != len(parts):
        raise ValueError("repeated index in %r" % text)
    if n is not None:
        for i in idx:
            if not 1 <= i <= n:
                raise ValueError("index %r out of range 1..%d" % (i, n))
    return idx
