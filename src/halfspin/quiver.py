"""Type D_n graph data, string dimension vectors and weight bookkeeping.

Vertices are numbered 1..n with edges i - i+1 for i <= n-2 and the fork
edge n-2 - n.  Dimension vectors are plain length-n tuples indexed by
vertex (entry 0 is vertex 1).  The rank n=2 graph has no edges and n=3 has
the fork at vertex 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import Sign, validate_diagram


class RankContext:
    """Shared read-only rank data: vertex set, edge set, Cartan matrix."""

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("rank must be at least 2, got %r" % n)
        self.n = n
        edges = [(i, i + 1) for i in range(1, n - 1)]
        if n >= 3:
            edges.append((n - 2, n))
        self.edges = tuple(edges)
        adjacency = {frozenset(e) for e in edges}
        cartan = []
        for i in range(1, n + 1):
            row = []
            for j in range(1, n + 1):
                if i == j:
                    row.append(2)
                elif frozenset((i, j)) in adjacency:
                    row.append(-1)
                else:
                    row.append(0)
            cartan.append(tuple(row))
        self.cartan = tuple(cartan)

    def adjacent(self, i: int, j: int) -> bool:
        return self.cartan[i - 1][j - 1] == -1

    def __repr__(self):
        return "RankContext(n=%d)" % self.n


@dataclass(frozen=True)
class StringInterval:
    """An indecomposable string, named by its vertex interval.

    kind "plain" with end <= n-1 is the chain start..end through vertex
    n-1's branch; end == n is the chain that finishes at vertex n instead
    of n-1 (start == n means the single vertex n); end == n+1 is the full
    fork through both branch tips.
    """

    kind: str
    start: int
    end: int

    def __str__(self):
        return "V(%d,%d)" % (self.start, self.end)


def validate_string_interval(s: StringInterval, ctx: RankContext) -> StringInterval:
    n = ctx.n
    if s.kind != "plain":
        raise ValueError("unknown string kind %r" % s.kind)
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
    if s.end <= n - 1:
        for i in range(s.start, s.end + 1):
            v[i - 1] = 1
    elif s.end == n:
        v[n - 1] = 1
        if s.start <= n - 2:
            for i in range(s.start, n - 1):
                v[i - 1] = 1
    else:  # fork, end == n + 1
        for i in range(s.start, n + 1):
            v[i - 1] = 1
    return tuple(v)


def a_sets(rows, sign: Sign, ctx: RankContext) -> list:
    """The strings attached to the rows of a signed shape, one per row.

    Odd-position rows of the PLUS family end at vertex n, even-position
    ones at vertex n-1; for MINUS the two roles are exchanged.
    """
    validate_diagram(rows, ctx.n)
    n = ctx.n
    out = []
    for i, l in enumerate(rows, start=1):
        odd_role = (i % 2 == 1) if sign is Sign.PLUS else (i % 2 == 0)
        if odd_role:
            if l > 1:
                out.append(StringInterval("plain", n - l, n))
            else:
                out.append(StringInterval("plain", n, n))
        else:
            out.append(StringInterval("plain", n - l, n - 1))
    return out


def dim_vector(rows, sign: Sign, ctx: RankContext) -> tuple:
    """Sum of the string dimension vectors over the rows."""
    n = ctx.n
    v = [0] * n
    for s in a_sets(rows, sign, ctx):
        for i, x in enumerate(string_dim_vector(s, ctx)):
            v[i] += x
    return tuple(v)


def unit_vector(k: int, ctx: RankContext) -> tuple:
    if not 1 <= k <= ctx.n:
        raise ValueError("vertex %r out of range 1..%d" % (k, ctx.n))
    return tuple(1 if i == k else 0 for i in range(1, ctx.n + 1))


def framing_vector(sign: Sign, ctx: RankContext) -> tuple:
    # w is the unit vector at vertex n (PLUS) or n-1 (MINUS)
    return unit_vector(ctx.n if sign is Sign.PLUS else ctx.n - 1, ctx)


def weight_u(v, w, ctx: RankContext) -> tuple:
    """u = w - C v, the Cartan eigenvalue vector (entries may be negative)."""
    n = ctx.n
    if len(v) != n or len(w) != n:
        raise ValueError("dimension vector length must equal rank %d" % n)
    return tuple(
        w[i] - sum(ctx.cartan[i][j] * v[j] for j in range(n)) for i in range(n)
    )


def state_u(rows, sign: Sign, ctx: RankContext) -> tuple:
    return weight_u(dim_vector(rows, sign, ctx), framing_vector(sign, ctx), ctx)


def format_dim_vector(v) -> str:
    return "(%s)" % ",".join(str(x) for x in v)


def parse_dim_vector(text: str, ctx=None) -> tuple:
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError("cannot parse dimension vector %r" % text)
    body = text[1:-1].strip()
    if not body:
        raise ValueError("cannot parse dimension vector %r" % text)
    try:
        v = tuple(int(p) for p in body.split(","))
    except ValueError:
        raise ValueError("cannot parse dimension vector %r" % text) from None
    if ctx is not None and len(v) != ctx.n:
        raise ValueError("expected %d entries, got %d" % (ctx.n, len(v)))
    return v

