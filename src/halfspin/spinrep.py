"""The shape model of the two half-spin modules.

Basis states are pairs (sign, shape); vectors are exact rational
combinations of them.  The Chevalley operators act through the dimension
vectors of module `quiver`: F_k moves a state to the unique state whose
dimension vector grows by the unit vector at vertex k (E_k shrinks it),
and H_k scales by the Cartan eigenvalue u_k.  The signed ladder operators
geometric_a / geometric_b move single rows and exchange the two families.

Coefficients are exact: a plain int when integral, a Fraction otherwise
(see `exact`).  Weights live in the epsilon coordinates, as length-n
tuples of Fractions; for basis states every entry is +1/2 or -1/2.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import sub

from .diagram import (
    Sign,
    endpoint_count_below,
    add_row_with_endpoint,
    remove_row_with_endpoint,
    conjugate,
    format_diagram,
    parse_diagram,
    parse_sign,
    validate_diagram,
    diagram_sort_key,
)
from .quiver import RankContext, dim_vector, state_u


def exact(v):
    """The exact form of a coefficient: an int when integral, else a Fraction.

    An int is kept as it is and a Fraction with denominator 1 becomes its
    numerator; anything else goes through Fraction(v), so text that is no
    number raises ValueError.
    """
    if type(v) is not int:
        v = Fraction(v)
        if v.denominator == 1:
            return v.numerator
    return v


class SpinVector:
    """Finite rational combination of basis states, zero terms purged."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for state, coeff in items:
                coeff = exact(coeff)
                if state in data:
                    data[state] = exact(data[state] + coeff)
                else:
                    data[state] = coeff
        self.terms = {s: c for s, c in data.items() if c != 0}

    @classmethod
    def from_state(cls, sign, rows, coeff=1):
        return cls({(sign, tuple(rows)): coeff})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, SpinVector) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for s, c in other.terms.items():
            out[s] = out.get(s, 0) + c
        return SpinVector(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return SpinVector({s: -c for s, c in self.terms.items()})

    def scale(self, scalar):
        scalar = exact(scalar)
        return SpinVector({s: scalar * c for s, c in self.terms.items()})

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def __repr__(self):
        return "SpinVector(%s)" % format_spin_vector(self)


def _single_box_edits(rows, n):
    """All shapes reachable from rows by one box: grow, shrink, add, delete."""
    out = set()
    rows = list(rows)
    for j, l in enumerate(rows):
        if l + 1 <= n - 1 and (j == 0 or rows[j - 1] > l + 1):
            grown = rows.copy()
            grown[j] = l + 1
            out.add(tuple(grown))
        if l - 1 == 0:
            out.add(tuple(rows[:j] + rows[j + 1:]))
        elif j == len(rows) - 1 or rows[j + 1] < l - 1:
            shrunk = rows.copy()
            shrunk[j] = l - 1
            out.add(tuple(shrunk))
    if 1 not in rows:
        out.add(tuple(rows + [1]))
    return out


def _shift_state(sign, rows, k, direction, ctx, opname):
    # the unique shape whose dimension vector differs by the unit at k
    # (raised for F, lowered for E; opname follows direction).  The single-
    # box edits do not depend on k, so one sweep over them finds every E and
    # F image of the state; it is memoized on ctx as {+k: F_k image, -k: E_k
    # image}.  At most one edit may match a delta.
    key = (sign, rows)
    moves = ctx._moves.get(key)
    if moves is None:
        n = ctx.n
        v = dim_vector(rows, sign, ctx)
        found = {}
        for cand in _single_box_edits(rows, n):
            delta = list(map(sub, dim_vector(cand, sign, ctx), v))
            if delta.count(0) == n - 1:
                step = sum(delta)
                if step == 1 or step == -1:
                    found.setdefault(step * (delta.index(step) + 1), []).append(cand)
        for j, matches in found.items():
            if len(matches) > 1:
                raise RuntimeError(
                    "%s_%d on (%s,%s): dimension-vector equation has %d solutions %r; "
                    "the component dictionary promises at most one"
                    % ("F" if j > 0 else "E", abs(j), sign, format_diagram(rows),
                       len(matches), matches)
                )
        moves = ctx._moves[key] = {j: matches[0] for j, matches in found.items()}
    return moves.get(direction * k)


def apply_F(k: int, vec: SpinVector, ctx: RankContext) -> SpinVector:
    """Lowering operator at vertex k, extended linearly."""
    if not 1 <= k <= ctx.n:
        raise ValueError("vertex %r out of range 1..%d" % (k, ctx.n))
    out = {}
    for (sign, rows), coeff in vec.terms.items():
        moved = _shift_state(sign, rows, k, +1, ctx, "F")
        if moved is not None:
            key = (sign, moved)
            out[key] = out.get(key, 0) + coeff
    return SpinVector(out)


def apply_E(k: int, vec: SpinVector, ctx: RankContext) -> SpinVector:
    """Raising operator at vertex k, extended linearly."""
    if not 1 <= k <= ctx.n:
        raise ValueError("vertex %r out of range 1..%d" % (k, ctx.n))
    out = {}
    for (sign, rows), coeff in vec.terms.items():
        moved = _shift_state(sign, rows, k, -1, ctx, "E")
        if moved is not None:
            key = (sign, moved)
            out[key] = out.get(key, 0) + coeff
    return SpinVector(out)


def apply_H(k: int, vec: SpinVector, ctx: RankContext) -> SpinVector:
    """Cartan operator at vertex k: scales each state by u_k = (w - Cv)_k."""
    if not 1 <= k <= ctx.n:
        raise ValueError("vertex %r out of range 1..%d" % (k, ctx.n))
    out = {}
    for (sign, rows), coeff in vec.terms.items():
        u = state_u(rows, sign, ctx)
        if u[k - 1]:
            out[(sign, rows)] = coeff * u[k - 1]
    return SpinVector(out)


def kappa(vec: SpinVector, ctx=None) -> SpinVector:
    """The tip-swapping involution: flips the family, keeps the shape."""
    return SpinVector({(sign.flip(), rows): c for (sign, rows), c in vec.terms.items()})


def geometric_a(k: int, vec: SpinVector, ctx: RankContext) -> SpinVector:
    """Row-removing ladder operator; flips the family.

    For k <= n-1 it deletes the row with endpoint k (if present) with sign
    (-1)**(number of rows with endpoint below k).  For k = n it keeps the
    shape and acts only when w_n + (number of rows) is even, with sign
    (-1)**(number of rows).
    """
    n = ctx.n
    if not 1 <= k <= n:
        raise ValueError("vertex %r out of range 1..%d" % (k, n))
    out = {}
    for (sign, rows), coeff in vec.terms.items():
        if k == n:
            w_n = 1 if sign is Sign.PLUS else 0
            if (w_n + len(rows)) % 2 == 0:
                key = (sign.flip(), rows)
                out[key] = out.get(key, 0) + coeff * (-1) ** len(rows)
        else:
            smaller = remove_row_with_endpoint(rows, k, n)
            if smaller is not None:
                key = (sign.flip(), smaller)
                phase = (-1) ** endpoint_count_below(rows, n, k)
                out[key] = out.get(key, 0) + coeff * phase
    return SpinVector(out)


def geometric_b(k: int, vec: SpinVector, ctx: RankContext) -> SpinVector:
    """Row-adding ladder operator; flips the family.

    Mirror image of geometric_a: for k <= n-1 it inserts the row with
    endpoint k (if absent) with the same phase; for k = n it acts exactly
    when w_n + (number of rows) is odd.
    """
    n = ctx.n
    if not 1 <= k <= n:
        raise ValueError("vertex %r out of range 1..%d" % (k, n))
    out = {}
    for (sign, rows), coeff in vec.terms.items():
        if k == n:
            w_n = 1 if sign is Sign.PLUS else 0
            if (w_n + len(rows)) % 2 == 1:
                key = (sign.flip(), rows)
                out[key] = out.get(key, 0) + coeff * (-1) ** len(rows)
        else:
            larger = add_row_with_endpoint(rows, k, n)
            if larger is not None:
                key = (sign.flip(), larger)
                phase = (-1) ** endpoint_count_below(rows, n, k)
                out[key] = out.get(key, 0) + coeff * phase
    return SpinVector(out)


# ---------------------------------------------------------------------------
# weights


def _twice_fundamental_weight(i: int, n: int) -> tuple:
    """The nonzero entries of twice the fundamental weight i, as runs (coordinates, value)."""
    if i <= n - 2:
        return ((range(i), 2),)
    return ((range(n - 1), 1), ((n - 1,), 1 if i == n else -1))


def _simple_root_entries(i: int, n: int) -> tuple:
    """The two nonzero entries of the simple root i, as (coordinate, value) pairs."""
    if i <= n - 1:
        return ((i - 1, 1), (i, -1))
    return ((n - 2, 1), (n - 1, 1))


# the two halves a basis-state weight is made of, shared by every route
_HALVES = {1: Fraction(1, 2), -1: Fraction(-1, 2)}


def _halves(twice) -> tuple:
    return tuple(_HALVES[t] if t in _HALVES else Fraction(t, 2) for t in twice)


def weight_eps(state, ctx: RankContext) -> tuple:
    """Weight of a basis state in epsilon coordinates, via u = w - Cv.

    The sum of u_i times the fundamental weight i, accumulated doubled in
    ints over the nonzero entries only.
    """
    sign, rows = state
    u = state_u(rows, sign, ctx)
    n = ctx.n
    twice = [0] * n
    for i, ui in enumerate(u, start=1):
        if ui:
            for coords, value in _twice_fundamental_weight(i, n):
                for j in coords:
                    twice[j] += ui * value
    return _halves(twice)


def weight_eps_alpha(state, ctx: RankContext) -> tuple:
    """Same weight through the simple-root route.

    Start from the top weight of the family and subtract the root
    combination read off the conjugate shape: the first column depth
    splits between the two tip roots (ceiling to the family's own tip),
    column i >= 2 of depth m subtracts m copies of the root at n-i.
    The weight is accumulated doubled, in ints.
    """
    sign, rows = state
    n = ctx.n
    validate_diagram(rows, n)
    twice = [0] * n
    for coords, value in _twice_fundamental_weight(n if sign is Sign.PLUS else n - 1, n):
        for j in coords:
            twice[j] += value

    def subtract(root_index, mult):
        for j, value in _simple_root_entries(root_index, n):
            twice[j] -= 2 * mult * value

    mu = conjugate(rows)
    if mu:
        hi, lo = (mu[0] + 1) // 2, mu[0] // 2
        if sign is Sign.PLUS:
            subtract(n, hi)
            subtract(n - 1, lo)
        else:
            subtract(n - 1, hi)
            subtract(n, lo)
        for i in range(2, len(mu) + 1):
            subtract(n - i, mu[i - 1])
    return _halves(twice)


def _closed_form(sign, rows, ctx, twice_per_row):
    # doubled: 1 at coordinates 1..n-1, less twice_per_row at n-l per row
    # of length l, and the tip +-1
    n = ctx.n
    validate_diagram(rows, n)
    twice = [1] * (n - 1) + [0]
    for l in rows:
        twice[n - l - 1] -= twice_per_row
    s = len(rows)
    plus_tip = (s % 2 == 0) if sign is Sign.PLUS else (s % 2 == 1)
    twice[n - 1] = 1 if plus_tip else -1
    return _halves(twice)


def weight_eps_closed(state, ctx: RankContext) -> tuple:
    """Same weight once more, as a closed form in the row lengths.

    Half of (eps_1 + ... + eps_{n-1}), minus one full eps_{n-l} per row of
    length l, plus or minus half eps_n: for the PLUS family the tip
    coordinate is +1/2 exactly when the number of rows is even, for MINUS
    when it is odd.
    """
    sign, rows = state
    return _closed_form(sign, rows, ctx, 2)


def weight_eps_halved_variant(state, ctx: RankContext) -> tuple:
    """A near-miss variant of weight_eps_closed with 1/2 per row.

    Subtracting only half an epsilon per row looks symmetric but disagrees
    with the three consistent routes on every non-empty shape.  Kept so the
    regression suite can pin the disagreement (see the weights check);
    never use this for actual weights.
    """
    sign, rows = state
    return _closed_form(sign, rows, ctx, 1)


# ---------------------------------------------------------------------------
# text forms


def format_basis_state(state) -> str:
    sign, rows = state
    return "(%s,%s)" % (sign, format_diagram(rows))


def parse_basis_state(text: str, ctx=None):
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError("cannot parse basis state %r" % text)
    body = text[1:-1]
    head, sep, tail = body.partition(",")
    if not sep:
        raise ValueError("cannot parse basis state %r" % text)
    sign = parse_sign(head)
    rows = parse_diagram(tail, ctx.n if ctx is not None else None)
    return (sign, rows)


def _state_sort_key(state):
    sign, rows = state
    return (0 if sign is Sign.PLUS else 1, diagram_sort_key(rows))


def format_terms(terms, sort_key, body) -> str:
    """Text of a finite combination {key: coeff}, its terms ordered by sort_key.

    body(key) is the text of a term; a coefficient of magnitude 1 is not
    shown unless the body is empty.  The empty combination is "0".
    """
    out = []
    for key in sorted(terms, key=sort_key):
        coeff = terms[key]
        mag = abs(coeff)
        text = body(key)
        if not text:
            text = str(mag)
        elif mag != 1:
            text = "%s * %s" % (mag, text)
        if out:
            out.append(" - " if coeff < 0 else " + ")
        elif coeff < 0:
            out.append("-")
        out.append(text)
    return "".join(out) or "0"


def format_spin_vector(vec: SpinVector) -> str:
    return format_terms(vec.terms, _state_sort_key, format_basis_state)


def tokenize(text: str, token) -> list:
    """Split text into the tokens that the compiled pattern token captures."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = token.match(text, pos)
        if m is None:
            raise ValueError("cannot tokenize %r at position %d" % (text, pos))
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def parse_terms(text: str, atom: str, parse_atom, what: str) -> list:
    """Parse a signed sum such as "2 * X - 1/2 * Y" into (value, coefficient) pairs.

    atom is the regular expression of one atom token, parse_atom turns such
    a token into its value and what names it in error messages.  "0" is
    the empty sum; repeated atoms are not merged.
    """
    stripped = text.strip()
    if stripped == "0":
        return []
    tokens = tokenize(stripped, re.compile(r"\s*(%s|\d+(?:/\d+)?|[+\-*])" % atom))
    terms = []
    i = 0
    while i < len(tokens):
        sgn = 1
        if tokens[i] in ("+", "-"):
            sgn = -1 if tokens[i] == "-" else 1
            i += 1
        elif terms:
            raise ValueError("expected + or - in %r" % text)
        coeff = Fraction(1)
        if i < len(tokens) and tokens[i][0].isdigit():
            coeff = Fraction(tokens[i])
            i += 1
            if i < len(tokens) and tokens[i] == "*":
                i += 1
        if i >= len(tokens) or tokens[i] in ("+", "-", "*") or tokens[i][0].isdigit():
            raise ValueError("expected %s in %r" % (what, text))
        terms.append((parse_atom(tokens[i]), sgn * coeff))
        i += 1
    return terms


def parse_spin_vector(text: str, ctx=None) -> SpinVector:
    """Inverse of format_spin_vector (also accepts unnormalized sums)."""
    terms = parse_terms(text, r"\([^()]*\)", lambda tok: parse_basis_state(tok, ctx), "basis state")
    return SpinVector(terms)
