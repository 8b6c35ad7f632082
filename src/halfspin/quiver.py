"""Type D_n graph data, string dimension vectors and weight bookkeeping.

Vertices are numbered 1..n with edges i - i+1 for i <= n-2 and the fork
edge n-2 - n.  Dimension vectors are plain length-n tuples indexed by
vertex (entry 0 is vertex 1).  The rank n=2 graph has no edges and n=3 has
the fork at vertex 1.

The functions of a signed shape take it as the basis state (sign, rows),
the one form the operators and weights pass around.  A `RankContext` holds
the graph as neighbour lists, so building one and computing u = w - Cv both
cost O(n).  It memoizes three things per basis state it has validated,
keyed by the state itself: the dimension vector (`_dim_vectors`), u = w - Cv
(`_u`, filled by `state_u`), and the E/F images that one sweep over the
state's single-box edits finds (`_moves`, filled by the E/F kernel
`spinrep._shift_state`).  The memos live and die with their context.
"""

from __future__ import annotations

from operator import add, itemgetter

from .diagram import Sign, validate_diagram


class RankContext:
    """Rank data: edges, neighbour lists, and the dimension-vector, u and sweep memos."""

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("rank must be at least 2, got %r" % n)
        self.n = n
        edges = [(i, i + 1) for i in range(1, n - 1)]
        if n >= 3:
            edges.append((n - 2, n))
        self.edges = tuple(edges)
        neighbours = [[] for _ in range(n)]
        for i, j in edges:
            neighbours[i - 1].append(j)
            neighbours[j - 1].append(i)
        # neighbours[i - 1] lists the vertices joined to vertex i
        self.neighbours = tuple(tuple(ns) for ns in neighbours)
        # (sign, rows) -> dimension vector, filled by dim_vector
        self._dim_vectors = {}
        # (sign, rows) -> {+k: (F_k image, 1), -k: (E_k image, 1)}, filled by spinrep._shift_state
        self._moves = {}
        # (sign, rows) -> u = w - Cv, filled by state_u
        self._u = {}

    def check_index(self, k: int, what: str = "vertex"):
        """Raise ValueError, naming k as what, unless 1 <= k <= n."""
        if not 1 <= k <= self.n:
            raise ValueError("%s %r out of range 1..%d" % (what, k, self.n))

    def adjacent(self, i: int, j: int) -> bool:
        return j in self.neighbours[i - 1]

    def cartan_entry(self, i: int, j: int) -> int:
        """The Cartan matrix entry C_ij: 2 on the diagonal, -1 on edges, else 0."""
        if i == j:
            return 2
        return -1 if self.adjacent(i, j) else 0

    def __repr__(self):
        return "RankContext(n=%d)" % self.n


class StringInterval(tuple):
    """An indecomposable string, named by its vertex interval.

    end <= n-1 is the chain start..end through vertex n-1's branch;
    end == n is the chain that finishes at vertex n instead of n-1
    (start == n means the single vertex n); end == n+1 is the full fork
    through both branch tips.  It is the immutable pair (start, end), so it
    compares and hashes as that pair.
    """

    __slots__ = ()

    def __new__(cls, start: int, end: int):
        return tuple.__new__(cls, (start, end))

    start = property(itemgetter(0))
    end = property(itemgetter(1))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        return "StringInterval(start=%r, end=%r)" % self

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
    """Vertex-graded dimension of the string s."""
    validate_string_interval(s, ctx)
    n = ctx.n
    v = [0] * n
    if s.end <= n - 1:  # vertices start..end
        v[s.start - 1:s.end] = [1] * (s.end - s.start + 1)
    elif s.end == n:  # vertices start..n-2 and n
        v[n - 1] = 1
        if s.start <= n - 2:
            v[s.start - 1:n - 2] = [1] * (n - 1 - s.start)
    else:  # fork, end == n + 1: vertices start..n
        v[s.start - 1:] = [1] * (n + 1 - s.start)
    return tuple(v)


def a_sets(state, ctx: RankContext) -> list:
    """The strings attached to the rows of a basis state (sign, rows), one per row.

    Odd-position rows of the PLUS family end at vertex n, even-position
    ones at vertex n-1; for MINUS the two roles are exchanged.
    """
    sign, rows = state
    validate_diagram(rows, ctx.n)
    n = ctx.n
    out = []
    for i, l in enumerate(rows, start=1):
        odd_role = (i % 2 == 1) if sign is Sign.PLUS else (i % 2 == 0)
        if odd_role:
            if l > 1:
                out.append(StringInterval(n - l, n))
            else:
                out.append(StringInterval(n, n))
        else:
            out.append(StringInterval(n - l, n - 1))
    return out


def dim_vector(state, ctx: RankContext) -> tuple:
    """Sum of the string dimension vectors over the rows of a basis state.

    Memoized on ctx by the state itself: only validated shapes are stored,
    so invalid rows raise on every call.  Rows given as a list are keyed
    by their tuple.
    """
    try:
        v = ctx._dim_vectors.get(state)
    except TypeError:  # unhashable list rows
        state = (state[0], tuple(state[1]))
        v = ctx._dim_vectors.get(state)
    if v is None:
        total = (0,) * ctx.n
        for s in a_sets(state, ctx):
            total = tuple(map(add, total, string_dim_vector(s, ctx)))
        v = ctx._dim_vectors[state] = total
    return v


def unit_vector(k: int, ctx: RankContext) -> tuple:
    ctx.check_index(k)
    return tuple(1 if i == k else 0 for i in range(1, ctx.n + 1))


def framing_vector(sign: Sign, ctx: RankContext) -> tuple:
    # w is the unit vector at vertex n (PLUS) or n-1 (MINUS)
    return unit_vector(ctx.n if sign is Sign.PLUS else ctx.n - 1, ctx)


def weight_u(v, w, ctx: RankContext) -> tuple:
    """u = w - C v, the Cartan eigenvalue vector (entries may be negative).

    Row i of C v is 2 v_i minus the sum of v over the neighbours of i.
    """
    n = ctx.n
    if len(v) != n or len(w) != n:
        raise ValueError("dimension vector length must equal rank %d" % n)
    return tuple(
        w[i] - 2 * v[i] + sum(v[j - 1] for j in ctx.neighbours[i]) for i in range(n)
    )


def state_u(state, ctx: RankContext) -> tuple:
    """u = w - Cv of a basis state, memoized on ctx like its dimension vector."""
    try:
        u = ctx._u.get(state)
    except TypeError:  # unhashable list rows
        state = (state[0], tuple(state[1]))
        u = ctx._u.get(state)
    if u is None:
        u = ctx._u[state] = weight_u(dim_vector(state, ctx), framing_vector(state[0], ctx), ctx)
    return u


def format_dim_vector(v) -> str:
    return "(%s)" % ",".join(str(x) for x in v)
