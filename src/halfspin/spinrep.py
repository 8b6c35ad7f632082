"""The shape model of the two half-spin modules.

Basis states are pairs (sign, shape); vectors are exact rational
combinations of them.  The Chevalley operators act through the dimension
vectors of module `quiver`: F_k moves a state to the unique state whose
dimension vector grows by the unit vector at vertex k (E_k shrinks it),
and H_k scales by the Cartan eigenvalue u_k.  The signed ladder operators
geometric_a / geometric_b move single rows and exchange the two families.

Every operator sends a basis state to at most one signed basis state, so
each is written once as a per-state kernel, state -> (target, coeff) or
None, and `linear` extends a kernel to a vector: E and F share the kernel
`_shift_state`, whose memoized sweep finds every E/F image of a state at
once, and a and b share one parametrised by parity and row edit.
`Combination` holds the arithmetic that the vectors of both models and
the Clifford algebra's elements share, on plain {key: coeff} dicts, each
sum made exact once per key (`add_terms`, `scale_terms`, `sum_terms`),
and gives each of them one shared zero, which every zero image of `linear` is.

Coefficients are exact: a plain int when integral, a Fraction otherwise
(see `exact`).  Weights live in the epsilon coordinates, as length-n
tuples of Fractions; for basis states every entry is one of the two
shared halves of `HALVES`, +1/2 or -1/2.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import accumulate, compress

from .diagram import (
    PLUS,
    conjugate,
    format_diagram,
    parse_diagram,
    parse_sign,
    validate_diagram,
    diagram_sort_key,
)
from .quiver import RankContext, dim_vector, edit_change, state_u


def exact(v):
    """The exact form of a coefficient: an int when integral, else a Fraction.

    An int is kept as it is, a Fraction as it is unless its denominator is 1,
    when it becomes its numerator; anything else goes through Fraction(v),
    so text that is no number raises ValueError.
    """
    if type(v) is not int:
        v = v if type(v) is Fraction else Fraction(v)
        if v.denominator == 1:
            return v.numerator
    return v


def sum_terms(items, start=()):
    """The combination {key: coeff} summed from start and (key, coeff) pairs of
    exact coefficients: a key's first coefficient is kept as it is and later
    ones are added, each sum made exact once, zeros purged."""
    data = dict(start)
    for key, c in items:
        data[key] = c if (old := data.get(key)) is None else old + c
    return {key: c if type(c) is int else exact(c) for key, c in data.items() if c}


def scale_terms(terms, c):
    """c times a combination {key: coeff}; terms itself when c is 1."""
    if c == 1:
        return terms
    if not c:
        return {}
    return {key: exact(c * v) for key, v in terms.items()}


def add_terms(x, y, sign=1):
    """x + sign * y for combinations {key: coeff}, sign 1 or -1, zeros purged.

    x itself is returned when y is empty, so the result may share a dict
    with an argument and is never to be changed in place.
    """
    if not y:
        return x
    if not x:
        return scale_terms(y, sign)
    return sum_terms(y.items() if sign == 1 else [(key, -c) for key, c in y.items()], x)


class Combination:
    """Finite exact combination of basis keys, stored as terms {key: coeff}.

    The vectors of both models and the Clifford algebra's elements share
    this arithmetic; a subclass names its keys (`_key` normalises one) and
    its text form.  Coefficients are exact and nonzero.  Two combinations
    are equal when they have the same type and the same terms.  There is
    no hash: the terms are a plain dict, so a combination is not a key.
    A result may share its terms with an operand (v + zero holds v's
    dict), and each subclass has one shared zero, `ZERO`, that operators
    return for a zero image, so terms are never changed in place.
    """

    __slots__ = ("terms",)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.ZERO = cls._make({})

    def __init__(self, terms=None):
        items = terms.items() if isinstance(terms, dict) else terms or ()
        self.terms = sum_terms((self._key(k), exact(c)) for k, c in items)

    @staticmethod
    def _key(key):
        return key

    @classmethod
    def _make(cls, terms):
        """A combination of trusted terms: normalised keys, exact nonzero coefficients."""
        comb = cls.__new__(cls)
        comb.terms = terms
        return comb

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __add__(self, other):
        return self._make(add_terms(self.terms, other.terms))

    def __sub__(self, other):
        return self._make(add_terms(self.terms, other.terms, -1))

    def __neg__(self):
        return self._make(scale_terms(self.terms, -1))

    def scale(self, scalar):
        return self._make(scale_terms(self.terms, exact(scalar)))

    def __rmul__(self, scalar):
        return self.scale(scalar)


def linear(kernel, vec, *args):
    """The linear extension of a per-state kernel, applied to vec.

    kernel(state, *args) is the image of one basis state, a pair (target,
    coeff) with coeff nonzero, or None for zero; the result has the type
    of vec, and a zero result is that type's shared `ZERO`.  A one-state
    vector, the common case, needs no sum, and a coefficient 1 no product.
    """
    terms = vec.terms
    if len(terms) == 1:
        [(state, c)] = terms.items()
        hit = kernel(state, *args)
        if hit is None:
            return vec.ZERO
        v = hit[1] if c == 1 else c * hit[1]
        return vec._make({hit[0]: v if type(v) is int else exact(v)})
    out = {}
    for state, c in terms.items():
        hit = kernel(state, *args)
        if hit is not None:
            v = hit[1] if c == 1 else c * hit[1]
            out[hit[0]] = v if (old := out.get(hit[0])) is None else old + v
    out = {key: v if type(v) is int else exact(v) for key, v in out.items() if v}
    return vec._make(out) if out else vec.ZERO


class SpinVector(Combination):
    """Finite rational combination of basis states (sign, shape)."""

    __slots__ = ()
    _token = re.compile(r"\s*(\([^()]*\)|[0-9]+(?:/[0-9]+)?|[+\-*])")

    def __repr__(self):
        return "SpinVector(%s)" % format_spin_vector(self)


def _box_edits(rows, n):
    """Single-box edits of rows, lazily, as (position, new length): grow, shrink, add (at len(rows)), delete (to 0)."""
    for j, (above, l, below) in enumerate(zip((n,) + rows, rows, rows[1:] + (-1,))):
        if l + 1 < above:
            yield j, l + 1
        if below < l - 1:  # the last row always shrinks, a length-1 row away
            yield j, l - 1
    if not rows or rows[-1] > 1:
        yield len(rows), 1


def _edited(rows, j, length):
    return rows[:j] + (length,) + rows[j + 1:] if length else rows[:j]


def _single_box_edits(rows, n, where=None):
    """The shapes one box from rows (grow, shrink, add, delete), of the edits that where keeps if given."""
    rows = tuple(rows)
    return {_edited(rows, *e) for e in _box_edits(rows, n) if where is None or where(*e)}


def _shift_state(state, k, direction, ctx):
    # kernel of E_k (direction -1) and F_k (+1): the same-sign state whose dimension vector differs by
    # the unit at k (lowered for E, raised for F).  One sweep after the dimension vector, which validates
    # the state, reads each single-box edit's change off the one string it moves, O(n + rows), into the
    # memo {+k: F_k edit, -k: E_k edit} on ctx; at most one edit may have a change.  Images are built on request.
    moves = ctx._moves.get(state)
    if moves is None:
        dim_vector(state, ctx)
        moves = {}
        for edit in _box_edits(state[1], ctx.n):
            j = edit_change(state, *edit, ctx)
            if moves.setdefault(j, edit) is not edit:
                matches = sorted(_single_box_edits(state[1], ctx.n, lambda *e: edit_change(state, *e, ctx) == j))
                raise RuntimeError(
                    "%s_%d on %s: dimension-vector equation has %d solutions %r; "
                    "the component dictionary promises at most one"
                    % ("F" if j > 0 else "E", abs(j), format_basis_state(state), len(matches), matches)
                )
        ctx._moves[state] = moves
    edit = moves.get(direction * k)
    return None if edit is None else ((state[0], _edited(state[1], *edit)), 1)


def apply_F(k: int, vec: SpinVector, ctx: RankContext) -> SpinVector:
    """Lowering operator at vertex k, extended linearly."""
    ctx.check_index(k)
    return linear(_shift_state, vec, k, +1, ctx)


def apply_E(k: int, vec: SpinVector, ctx: RankContext) -> SpinVector:
    """Raising operator at vertex k, extended linearly."""
    ctx.check_index(k)
    return linear(_shift_state, vec, k, -1, ctx)


def _cartan(state, k, ctx):
    u = state_u(state, ctx)[k - 1]
    return (state, u) if u else None


def apply_H(k: int, vec: SpinVector, ctx: RankContext) -> SpinVector:
    """Cartan operator at vertex k: scales each state by u_k = (w - Cv)_k."""
    ctx.check_index(k)
    return linear(_cartan, vec, k, ctx)


def _flip(state):
    return (state[0].flip(), state[1]), 1


def kappa(vec: SpinVector, ctx=None) -> SpinVector:
    """The tip-swapping involution: flips the family, keeps the shape."""
    return linear(_flip, vec)


def _ladder(state, k, ctx, parity):
    # kernel of a_k (parity 0: removes the row of length n - k) and b_k (parity 1:
    # adds it); both flip the family, with phase (-1)**pos, pos the rows longer than n - k
    sign, rows = state
    length = ctx.n - k
    pos = 0
    while pos < len(rows) and rows[pos] > length:
        pos += 1
    if length:
        present = pos < len(rows) and rows[pos] == length
    else:  # k = n: the marker n of diagram.fock_index, there when w_n + pos is even
        present = (pos + (sign is PLUS)) % 2 == 0
    if present == parity:  # a_k needs the row, b_k its absence
        return None
    if length:
        rows = rows[:pos] + rows[pos + 1:] if present else rows[:pos] + (length,) + rows[pos:]
    return (sign.flip(), rows), -1 if pos & 1 else 1


def geometric_a(k: int, vec: SpinVector, ctx: RankContext) -> SpinVector:
    """Row-removing ladder operator; flips the family.

    For k <= n-1 it deletes the row with endpoint k (if present) with sign
    (-1)**(number of rows with endpoint below k).  For k = n it keeps the
    shape and acts only when w_n + (number of rows) is even, with sign
    (-1)**(number of rows).
    """
    ctx.check_index(k)
    return linear(_ladder, vec, k, ctx, 0)


def geometric_b(k: int, vec: SpinVector, ctx: RankContext) -> SpinVector:
    """Row-adding ladder operator; flips the family.

    Mirror image of geometric_a: for k <= n-1 it inserts the row with
    endpoint k (if absent) with the same phase; for k = n it acts exactly
    when w_n + (number of rows) is odd.
    """
    ctx.check_index(k)
    return linear(_ladder, vec, k, ctx, 1)


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


# the two halves a basis-state weight is made of, shared by every route (the
# wedge side's `clifford.fock_weight` too), so equal weights compare by identity
HALVES = {1: Fraction(1, 2), -1: Fraction(-1, 2)}


def _halves(twice) -> tuple:
    return tuple([HALVES[t] if t in HALVES else Fraction(t, 2) for t in twice])


def weight_eps(state, ctx: RankContext) -> tuple:
    """Weight of a basis state in epsilon coordinates, via u = w - Cv.

    The sum of u_i times the fundamental weight i, accumulated doubled in
    ints over the nonzero entries only, each contiguous run of a fundamental
    weight added to one difference array summed once: O(n + nnz(u)).
    """
    u = state_u(state, ctx)
    n = ctx.n
    steps = [0] * (n + 1)
    for i in compress(range(1, n + 1), u):
        ui = u[i - 1]
        for coords, value in _twice_fundamental_weight(i, n):
            steps[coords[0]] += ui * value
            steps[coords[-1] + 1] -= ui * value
    del steps[-1]
    return _halves(accumulate(steps))


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
    for coords, value in _twice_fundamental_weight(n if sign is PLUS else n - 1, n):
        for j in coords:
            twice[j] += value

    def subtract(root_index, mult):
        for j, value in _simple_root_entries(root_index, n):
            twice[j] -= 2 * mult * value

    mu = conjugate(rows)
    if mu:
        own, other = (n, n - 1) if sign is PLUS else (n - 1, n)
        subtract(own, (mu[0] + 1) // 2)
        subtract(other, mu[0] // 2)
        for i in range(2, len(mu) + 1):
            subtract(n - i, mu[i - 1])
    return _halves(twice)


def _closed_form(state, ctx, twice_per_row):
    # doubled: 1 at coordinates 1..n-1, less twice_per_row at n-l per row
    # of length l, and the tip +-1
    sign, rows = state
    n = ctx.n
    validate_diagram(rows, n)
    twice = [1] * (n - 1) + [0]
    for l in rows:
        twice[n - l - 1] -= twice_per_row
    twice[n - 1] = 1 if (len(rows) % 2 == 0) == (sign is PLUS) else -1
    return _halves(twice)


def weight_eps_closed(state, ctx: RankContext) -> tuple:
    """Same weight once more, as a closed form in the row lengths.

    Half of (eps_1 + ... + eps_{n-1}), minus one full eps_{n-l} per row of
    length l, plus or minus half eps_n: for the PLUS family the tip
    coordinate is +1/2 exactly when the number of rows is even, for MINUS
    when it is odd.
    """
    return _closed_form(state, ctx, 2)


def weight_eps_halved_variant(state, ctx: RankContext) -> tuple:
    """A near-miss variant of weight_eps_closed with 1/2 per row.

    Subtracting only half an epsilon per row looks symmetric but disagrees
    with the three consistent routes on every non-empty shape.  Kept so the
    regression suite can pin the disagreement (see the weights check);
    never use this for actual weights.
    """
    return _closed_form(state, ctx, 1)


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
    return (0 if sign is PLUS else 1, diagram_sort_key(rows))


def format_terms(terms, sort_key, body) -> str:
    """Text of a finite combination {key: coeff}, its terms ordered by sort_key.

    body(key) is the text of a term; a coefficient of magnitude 1 is not
    shown unless the body is empty.  The empty combination is "0".
    """
    out = []
    for key in sorted(terms, key=sort_key):
        coeff = str(terms[key])
        mag = coeff.lstrip("-")
        text = body(key)
        if not text:
            text = mag
        elif mag != "1":
            text = "%s * %s" % (mag, text)
        out.append(" - " if coeff[0] == "-" else " + ")
        out.append(text)
    if out:
        out[0] = "-" if out[0] == " - " else ""
    return "".join(out) or "0"


def format_spin_vector(vec: SpinVector) -> str:
    return format_terms(vec.terms, _state_sort_key, format_basis_state)


def tokenize(text: str, token) -> list:
    """Split text into the tokens that the compiled pattern token captures."""
    parts = token.split(text)
    if any(parts[::2]):
        pos = 0
        while m := token.match(text, pos):
            pos = m.end()
        raise ValueError("cannot tokenize %r at position %d" % (text, pos))
    return parts[1::2]


def parse_scalar(token: str, text: str):
    """The rational number token of text, exact; ValueError if it is none or divides by zero."""
    try:
        return exact(Fraction(token)) if "/" in token else int(token)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % text) from None


def parse_terms(text: str, token, parse_atom, what: str) -> list:
    """Parse a signed sum such as "2 * X - 1/2 * Y" into (value, coefficient) pairs.

    token is a vector type's compiled `_token` pattern, parse_atom turns an
    atom token into its value and what names it in error messages.  "0" is
    the empty sum and blank text is refused; repeated atoms are not merged.
    """
    stripped = text.strip()
    if stripped == "0":
        return []
    if not stripped:
        raise ValueError("expected %s, got blank text" % what)
    tokens = tokenize(stripped, token)
    terms = []
    i = 0
    while i < len(tokens):
        sgn = 1
        if tokens[i] in ("+", "-"):
            sgn = -1 if tokens[i] == "-" else 1
            i += 1
        elif terms:
            raise ValueError("expected + or - in %r" % text)
        coeff = 1
        if i < len(tokens) and tokens[i][0].isdigit():
            coeff = parse_scalar(tokens[i], text)
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
    terms = parse_terms(text, SpinVector._token, lambda tok: parse_basis_state(tok, ctx), "basis state")
    return SpinVector(terms)
