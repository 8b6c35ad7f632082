"""Type D_n graph data, string dimension vectors and weight bookkeeping.

Vertices are numbered 1..n with edges i - i+1 for i <= n-2 and the fork
edge n-2 - n.  Dimension vectors are plain length-n tuples indexed by
vertex (entry 0 is vertex 1).  The rank n=2 graph has no edges and n=3 has
the fork at vertex 1.

The functions of a signed shape take it as the basis state (sign, rows),
the one form the operators and weights pass around.  A `RankContext` holds
n and reads the graph's edges off it, so building one costs O(1).
Computing u = w - Cv costs O(n); a dimension vector costs O(n + rows), read
off the row lengths by the strings' rule.  An E/F step sweeps the shape's
2 * rows single-box edits, each edit's change read off the one string it
moves (`edit_change`) in O(1), so a swept state costs O(n + rows).  A
context memoizes per basis state it has validated, keyed by the state:
u = w - Cv (`_u`, filled by `state_u`) and the E/F edits that one sweep
finds (`_moves`, filled by the E/F kernel `spinrep._shift_state`), but
not the dimension vector.  The memos live and die with their context.
"""

from __future__ import annotations

from collections import namedtuple
from operator import add, sub

from .diagram import PLUS, Sign, validate_diagram


class RankContext:
    """Rank data: the rank n, and the u and sweep memos."""

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("rank must be at least 2, got %r" % n)
        self.n = n
        # (sign, rows) -> {+k: F_k edit, -k: E_k edit}, (position, new length) pairs, filled by spinrep._shift_state
        self._moves = {}
        # (sign, rows) -> u = w - Cv, filled by state_u
        self._u = {}

    def check_index(self, k: int, what: str = "vertex"):
        """Raise ValueError, naming k as what, unless 1 <= k <= n."""
        if not 1 <= k <= self.n:
            raise ValueError("%s %r out of range 1..%d" % (what, k, self.n))

    def adjacent(self, i: int, j: int) -> bool:
        """Whether vertices i and j are joined: by the path 1 - ... - n-1 or the fork edge n-2 - n."""
        lo, hi = (i, j) if i < j else (j, i)
        return hi == lo + 1 < self.n or (lo, hi) == (self.n - 2, self.n)

    def cartan_entry(self, i: int, j: int) -> int:
        """The Cartan matrix entry C_ij: 2 on the diagonal, -1 on edges, else 0."""
        if i == j:
            return 2
        return -1 if self.adjacent(i, j) else 0

    def __repr__(self):
        return "RankContext(n=%d)" % self.n


class StringInterval(namedtuple("StringInterval", "start end")):
    """An indecomposable string, named by its vertex interval.

    end <= n-1 is the chain start..end through vertex n-1's branch;
    end == n is the chain that finishes at vertex n instead of n-1
    (start == n means the single vertex n); end == n+1 is the full fork
    through both branch tips.  It is the immutable pair (start, end), so it
    compares and hashes as that pair.
    """

    __slots__ = ()

    def __str__(self):
        return "V(%d,%d)" % (self.start, self.end)


def validate_string_interval(s: StringInterval, ctx: RankContext) -> StringInterval:
    n = ctx.n
    if s.end <= n - 1:
        ok = 1 <= s.start <= s.end
    elif s.end == n:
        ok = s.start == n or 1 <= s.start <= n - 2
    else:
        ok = s.end == n + 1 and 1 <= s.start <= n - 2
    if not ok:
        raise ValueError("bad interval %s for rank %d" % (s, n))
    return s


def string_dim_vector(s: StringInterval, ctx: RankContext) -> tuple:
    """Vertex-graded dimension of the string s: the reference that `dim_vector` is tested against."""
    validate_string_interval(s, ctx)
    n = ctx.n
    v = [0] * n
    if s.end <= n - 1:  # vertices start..end
        v[s.start - 1:s.end] = [1] * (s.end - s.start + 1)
    elif s.end == n:  # vertices start..n-2 and n
        v[s.start - 1:n - 2] = [1] * (n - 1 - s.start)
        v[n - 1] = 1
    else:  # fork, end == n + 1: vertices start..n
        v[s.start - 1:] = [1] * (n + 1 - s.start)
    return tuple(v)


def _tip_n_rows(state):
    """The rows of a basis state whose strings end at vertex n: odd positions for PLUS, even ones for MINUS.

    This is the rule attaching a string to each row: the string of a row of
    length l starts at vertex n-l and ends at vertex n, skipping n-1, for
    these rows, and at n-1 for the others.
    """
    return state[1][state[0] is not PLUS::2]


def edit_change(state, j, length, ctx: RankContext) -> int:
    """The change of a basis state's dimension vector when row j (len(rows): a new row) grows or shrinks by one
    box to length: +k or -k when vertex k gains or loses one.  Only row j's string moves; by `_tip_n_rows`,
    its box l > 1 is vertex n-l and its first box is tip n at that rule's positions, tip n-1 at the others."""
    old = state[1][j] if j < len(state[1]) else 0
    box = length if length > old else old
    k = ctx.n - box if box > 1 else ctx.n - (j + (state[0] is not PLUS)) % 2
    return k if length > old else -k


def a_sets(state, ctx: RankContext) -> list:
    """The strings attached to the rows of a basis state (sign, rows), one per row."""
    rows, n = validate_diagram(state[1], ctx.n), ctx.n
    tip_n = set(_tip_n_rows(state))
    return [StringInterval(n - l if l > 1 else n, n) if l in tip_n else StringInterval(n - l, n - 1) for l in rows]


def dim_vector(state, ctx: RankContext) -> tuple:
    """Sum of the string dimension vectors over the rows of a basis state.

    Read off the validated rows by the rule of `_tip_n_rows`, building no
    string: path vertex j < n-1 counts the rows of length at least n-j, in
    runs between consecutive lengths, and the tips n-1 and n count the
    strings ending there.  Not memoized: O(n + rows) on every call.
    """
    n = ctx.n
    rows = validate_diagram(state[1], n)
    v = []
    for reached, (l, shorter) in enumerate(zip((n - 1,) + rows, rows + (0,))):
        v += [reached] * (l - shorter)
    tips = len(_tip_n_rows(state))
    v[-1] -= tips
    v.append(tips)
    return tuple(v)


def unit_vector(k: int, ctx: RankContext) -> tuple:
    ctx.check_index(k)
    return (0,) * (k - 1) + (1,) + (0,) * (ctx.n - k)


def framing_vector(sign: Sign, ctx: RankContext) -> tuple:
    # w is the unit vector at vertex n (PLUS) or n-1 (MINUS)
    return unit_vector(ctx.n if sign is PLUS else ctx.n - 1, ctx)


def weight_u(v, w, ctx: RankContext) -> tuple:
    """u = w - C v, the Cartan eigenvalue vector (entries may be negative).

    Row i of C v is 2 v_i minus the sum of v over the neighbours of i.  The
    n-2 path edges i - i+1 are added as two shifted slices and the fork
    edge n-2 - n after them alone: O(n).
    """
    n = ctx.n
    if len(v) != n or len(w) != n:
        raise ValueError("dimension vector length must equal rank %d" % n)
    u = list(map(sub, w, map(add, v, v)))
    path = n - 2
    u[:path] = map(add, u[:path], v[1:path + 1])
    u[1:path + 1] = map(add, u[1:path + 1], v[:path])
    if n >= 3:  # the fork edge n-2 - n
        u[n - 3] += v[n - 1]
        u[n - 1] += v[n - 3]
    return tuple(u)


def state_u(state, ctx: RankContext) -> tuple:
    """u = w - Cv of a basis state, memoized on ctx by the state, list rows by their tuple."""
    try:
        u = ctx._u.get(state)
    except TypeError:  # unhashable list rows
        state = (state[0], tuple(state[1]))
        u = ctx._u.get(state)
    if u is None:
        u = ctx._u[state] = weight_u(dim_vector(state, ctx), framing_vector(state[0], ctx), ctx)
    return u


def format_dim_vector(v) -> str:
    """A vector's entries, comma-joined in parentheses: how v, u and weights print."""
    return "(%s)" % ",".join(str(x) for x in v)
