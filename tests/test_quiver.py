"""Graph data, string dimension vectors, and the u = w - Cv bookkeeping."""

import copy
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import halfspin
from halfspin.diagram import Sign, enumerate_diagrams
from halfspin.quiver import (
    RankContext,
    StringInterval,
    validate_string_interval,
    string_dim_vector,
    a_sets,
    dim_vector,
    edit_change,
    unit_vector,
    framing_vector,
    weight_u,
    state_u,
    format_dim_vector,
)


SIGNS = (Sign.PLUS, Sign.MINUS)


def d_edges(n):
    """The edges of the D_n graph, written out: the path 1 - ... - n-1 and the fork n-2 - n."""
    return [(i, i + 1) for i in range(1, n - 1)] + ([(n - 2, n)] if n >= 3 else [])


def summed_strings(state, ctx):
    """The dimension vector as the plain sum of the string vectors over a_sets."""
    total = [0] * ctx.n
    for s in a_sets(state, ctx):
        total = [a + b for a, b in zip(total, string_dim_vector(s, ctx))]
    return tuple(total)


def d_cartan(n):
    """The Cartan matrix of d_edges(n), written out in full as row tuples."""
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in d_edges(n):
        c[i - 1][j - 1] = c[j - 1][i - 1] = -1
    return tuple(map(tuple, c))


def dense_u(v, w, n):
    """w - Cv with the Cartan matrix C of d_edges(n) written out in full."""
    c = d_cartan(n)
    return tuple(w[i] - sum(c[i][j] * v[j] for j in range(n)) for i in range(n))


def edge_u(v, w, n):
    """w - Cv summed edge by edge over d_edges(n), for ranks too large for dense_u."""
    u = [w[i] - 2 * v[i] for i in range(n)]
    for i, j in d_edges(n):
        u[i - 1] += v[j - 1]
        u[j - 1] += v[i - 1]
    return tuple(u)


@st.composite
def ranked_states(draw, max_rank=300):
    """(n, state): a random strict partition with parts at most n-1, and a sign."""
    n = draw(st.integers(2, max_rank))
    rows = sorted(draw(st.sets(st.integers(1, n - 1), max_size=60)), reverse=True)
    return n, (draw(st.sampled_from(SIGNS)), tuple(rows))


def max_rank_states():
    """A few basis states at rank 10000, with rows at both ends of the range."""
    n, rng = 10000, random.Random(10000)
    return [
        (Sign.PLUS, ()),
        (Sign.MINUS, (n - 1, n - 2, 2, 1)),
        (Sign.PLUS, tuple(sorted(rng.sample(range(1, n), 50), reverse=True))),
        (Sign.MINUS, tuple(sorted(rng.sample(range(1, n), 61), reverse=True))),
    ]


def joined_pairs(n):
    """Every ordered pair of vertices that RankContext(n).adjacent joins, sorted."""
    ctx = RankContext(n)
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if ctx.adjacent(i, j)]


def both_ways(edges):
    return sorted(edges + [(j, i) for i, j in edges])


def test_rank_context_edges():
    assert joined_pairs(2) == []
    assert joined_pairs(3) == both_ways([(1, 2), (1, 3)])
    assert joined_pairs(4) == both_ways([(1, 2), (2, 3), (2, 4)])
    assert joined_pairs(5) == both_ways([(1, 2), (2, 3), (3, 4), (3, 5)])
    with pytest.raises(ValueError):
        RankContext(1)


def dense_cartan(n):
    ctx = RankContext(n)
    return tuple(
        tuple(ctx.cartan_entry(i, j) for j in range(1, n + 1)) for i in range(1, n + 1)
    )


def test_cartan_matrix():
    assert dense_cartan(4) == (
        (2, -1, 0, 0),
        (-1, 2, -1, -1),
        (0, -1, 2, 0),
        (0, -1, 0, 2),
    )
    ctx = RankContext(4)
    neighbours = [tuple(j for j in range(1, 5) if ctx.adjacent(i, j)) for i in range(1, 5)]
    assert neighbours == [(2,), (1, 3, 4), (2,), (2,)]
    # symmetric, diagonal 2, off-diagonal -1 exactly on edges
    for n in (2, 3, 5, 6):
        c = dense_cartan(n)
        edges = {frozenset(e) for e in d_edges(n)}
        for i in range(n):
            assert c[i][i] == 2
            for j in range(n):
                assert c[i][j] == c[j][i]
                if i != j:
                    assert c[i][j] == (-1 if frozenset((i + 1, j + 1)) in edges else 0)


def test_adjacent():
    ctx = RankContext(4)
    assert ctx.adjacent(2, 4)
    assert ctx.adjacent(4, 2)
    assert not ctx.adjacent(3, 4)  # the two branch tips are not joined
    assert not ctx.adjacent(1, 1)
    assert not RankContext(2).adjacent(1, 2)


def test_string_dim_vectors():
    ctx = RankContext(4)
    assert string_dim_vector(StringInterval(3, 3), ctx) == (0, 0, 1, 0)
    assert string_dim_vector(StringInterval(4, 4), ctx) == (0, 0, 0, 1)
    assert string_dim_vector(StringInterval(1, 4), ctx) == (1, 1, 0, 1)
    assert string_dim_vector(StringInterval(2, 4), ctx) == (0, 1, 0, 1)
    assert string_dim_vector(StringInterval(1, 3), ctx) == (1, 1, 1, 0)
    assert string_dim_vector(StringInterval(1, 5), ctx) == (1, 1, 1, 1)


def test_string_interval_validation():
    ctx = RankContext(4)
    validate_string_interval(StringInterval(2, 2), ctx)
    with pytest.raises(ValueError):
        validate_string_interval(StringInterval(3, 2), ctx)
    with pytest.raises(ValueError):
        validate_string_interval(StringInterval(1, 6), ctx)
    with pytest.raises(ValueError):
        validate_string_interval(StringInterval(3, 4), ctx)  # start must be <= n-2 or == n


def test_a_sets_examples():
    ctx = RankContext(4)
    assert a_sets((Sign.PLUS, (3, 1)), ctx) == [
        StringInterval(1, 4),
        StringInterval(3, 3),
    ]
    assert a_sets((Sign.PLUS, (1,)), ctx) == [StringInterval(4, 4)]
    assert a_sets((Sign.MINUS, (1,)), ctx) == [StringInterval(3, 3)]
    assert a_sets((Sign.PLUS, ()), ctx) == []
    # alternation: odd rows of the plus family end at n, even rows at n-1
    strings = a_sets((Sign.PLUS, (3, 2, 1)), ctx)
    assert strings == [
        StringInterval(1, 4),
        StringInterval(2, 3),
        StringInterval(4, 4),
    ]


# the full frozen state table at rank 4
N4_TABLE = {
    (Sign.PLUS, ()): ((0, 0, 0, 0), (0, 0, 0, 1)),
    (Sign.PLUS, (1,)): ((0, 0, 0, 1), (0, 1, 0, -1)),
    (Sign.PLUS, (2,)): ((0, 1, 0, 1), (1, -1, 1, 0)),
    (Sign.PLUS, (3,)): ((1, 1, 0, 1), (-1, 0, 1, 0)),
    (Sign.PLUS, (2, 1)): ((0, 1, 1, 1), (1, 0, -1, 0)),
    (Sign.PLUS, (3, 1)): ((1, 1, 1, 1), (-1, 1, -1, 0)),
    (Sign.PLUS, (3, 2)): ((1, 2, 1, 1), (0, -1, 0, 1)),
    (Sign.PLUS, (3, 2, 1)): ((1, 2, 1, 2), (0, 0, 0, -1)),
    (Sign.MINUS, ()): ((0, 0, 0, 0), (0, 0, 1, 0)),
    (Sign.MINUS, (1,)): ((0, 0, 1, 0), (0, 1, -1, 0)),
    (Sign.MINUS, (2,)): ((0, 1, 1, 0), (1, -1, 0, 1)),
    (Sign.MINUS, (3,)): ((1, 1, 1, 0), (-1, 0, 0, 1)),
    (Sign.MINUS, (2, 1)): ((0, 1, 1, 1), (1, 0, 0, -1)),
    (Sign.MINUS, (3, 1)): ((1, 1, 1, 1), (-1, 1, 0, -1)),
    (Sign.MINUS, (3, 2)): ((1, 2, 1, 1), (0, -1, 1, 0)),
    (Sign.MINUS, (3, 2, 1)): ((1, 2, 2, 1), (0, 0, -1, 0)),
}


def test_dim_vector_and_u_table_n4():
    ctx = RankContext(4)
    for (sign, rows), (v, u) in N4_TABLE.items():
        assert dim_vector((sign, rows), ctx) == v
        assert state_u((sign, rows), ctx) == u


def test_weight_u_direct():
    # u = w - Cv with the unit framing at vertex n
    ctx = RankContext(4)
    assert weight_u((0, 1, 0, 1), (0, 0, 0, 1), ctx) == (1, -1, 1, 0)
    assert weight_u((0, 0, 0, 0), (0, 0, 0, 1), ctx) == (0, 0, 0, 1)
    with pytest.raises(ValueError):
        weight_u((0, 0), (0, 0, 0, 1), ctx)


def test_framing_and_unit_vectors():
    ctx = RankContext(4)
    assert framing_vector(Sign.PLUS, ctx) == (0, 0, 0, 1)
    assert framing_vector(Sign.MINUS, ctx) == (0, 0, 1, 0)
    assert unit_vector(2, ctx) == (0, 1, 0, 0)
    with pytest.raises(ValueError):
        unit_vector(5, ctx)


def test_dim_vector_injective_per_family():
    for n in range(2, 7):
        ctx = RankContext(n)
        for sign in SIGNS:
            vs = [dim_vector((sign, rows), ctx) for rows in enumerate_diagrams(n)]
            assert len(set(vs)) == len(vs)


def test_tip_entries_count_rows():
    # v_{n-1} + v_n equals the number of rows, for every state
    for n in range(2, 7):
        ctx = RankContext(n)
        for sign in SIGNS:
            for rows in enumerate_diagrams(n):
                v = dim_vector((sign, rows), ctx)
                assert v[n - 2] + v[n - 1] == len(rows)


def test_star_involution_swaps_families():
    # swapping the entries at the two branch tips n-1 and n exchanges the families
    def star(v):
        return v[:-2] + (v[-1], v[-2])

    for n in range(2, 7):
        c = RankContext(n)
        for sign in SIGNS:
            for rows in enumerate_diagrams(n):
                assert star(dim_vector((sign, rows), c)) == dim_vector((sign.flip(), rows), c)


def test_a_sets_sum_matches_dim_vector():
    # the strings attached to a state add up to its dimension vector
    for n in range(2, 6):
        ctx = RankContext(n)
        for sign in SIGNS:
            for rows in enumerate_diagrams(n):
                assert summed_strings((sign, rows), ctx) == dim_vector((sign, rows), ctx)


def test_dim_vector_text_forms():
    assert format_dim_vector((1, 2, 1, 2)) == "(1,2,1,2)"
    assert format_dim_vector(()) == "()"


def test_string_interval_text_forms():
    assert str(StringInterval(1, 4)) == "V(1,4)"
    with pytest.raises(ValueError, match=r"bad interval V\(3,2\) for rank 4"):
        validate_string_interval(StringInterval(3, 2), RankContext(4))


def test_string_interval_is_an_immutable_value():
    s = StringInterval(1, 4)
    assert (s.start, s.end) == (1, 4)
    assert repr(s) == "StringInterval(start=1, end=4)"
    assert s == StringInterval(1, 4) and s != StringInterval(1, 3) and s != StringInterval(4, 1)
    assert hash(s) == hash(StringInterval(1, 4)) == hash((1, 4))
    assert len({s, StringInterval(1, 4), StringInterval(4, 4)}) == 2
    for change in (lambda: setattr(s, "start", 2), lambda: delattr(s, "end"), lambda: setattr(s, "x", 0)):
        with pytest.raises(AttributeError):
            change()
    for twin in (copy.copy(s), pickle.loads(pickle.dumps(s))):
        assert type(twin) is StringInterval and twin == s
    assert (s.start, s.end) == (1, 4)
    # a fresh interpreter imports the command line without dataclasses
    src = str(Path(halfspin.__file__).resolve().parent.parent)
    probe = "import sys, halfspin.cli; print('dataclasses' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "False"


@given(st.integers(2, 7), st.sets(st.integers(1, 6)))
@settings(deadline=None)
def test_u_is_affine_in_v(n, lengths):
    # weight_u is w - Cv, so u(v1) - u(v2) = -C (v1 - v2); check against unit bumps
    ctx = RankContext(n)
    v = [0] * n
    for l in lengths:
        v[l % n] += 1
    v = tuple(v)
    w = framing_vector(Sign.PLUS, ctx)
    base = weight_u(v, w, ctx)
    for k in range(1, n + 1):
        bumped = tuple(x + e for x, e in zip(v, unit_vector(k, ctx)))
        got = weight_u(bumped, w, ctx)
        diff = tuple(a - b for a, b in zip(got, base))
        assert diff == tuple(-ctx.cartan_entry(i, k) for i in range(1, n + 1))


def test_state_u_memo_keeps_validation():
    ctx = RankContext(4)
    for sign in SIGNS:
        for rows in enumerate_diagrams(4):
            state_u((sign, rows), ctx)
            assert dim_vector((sign, list(rows)), ctx) == dim_vector((sign, rows), ctx)
    cached = dict(ctx._u)
    assert len(cached) == 16
    # a hit returns the stored u, also for rows given as a list
    assert state_u((Sign.PLUS, [3, 1]), ctx) is cached[(Sign.PLUS, (3, 1))]
    for bad in ((1, 2), (2, 2), (4,), (4, 1), (0,)):
        for rows in (bad, list(bad), bad):  # the repeat raises too
            with pytest.raises(ValueError):
                dim_vector((Sign.PLUS, rows), ctx)
            with pytest.raises(ValueError):
                state_u((Sign.PLUS, rows), ctx)
    assert ctx._u == cached


def test_state_u_memo_is_per_context():
    small, large = RankContext(4), RankContext(5)
    assert dim_vector((Sign.PLUS, (1,)), small) == (0, 0, 0, 1)
    assert dim_vector((Sign.PLUS, (1,)), large) == (0, 0, 0, 0, 1)
    assert dim_vector((Sign.MINUS, (4,)), large) == (1, 1, 1, 1, 0)
    assert vars(small) == {"n": 4, "_moves": {}, "_u": {}}  # dim_vector stores nothing
    state_u((Sign.PLUS, (1,)), small)
    state_u((Sign.MINUS, (4,)), large)
    assert set(small._u) == {(Sign.PLUS, (1,))}
    assert set(large._u) == {(Sign.MINUS, (4,))}
    with pytest.raises(ValueError):
        state_u((Sign.MINUS, (4,)), small)  # row 4 exceeds rank 4's bound
    assert set(small._u) == {(Sign.PLUS, (1,))}
    assert RankContext(4)._u == {}


@given(st.data())
@settings(deadline=None)
def test_weight_u_matches_dense_cartan(data):
    # the sliced path and fork sums against w - Cv with C written out in full
    n = data.draw(st.integers(2, 300))
    v = tuple(data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)))
    w = tuple(data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)))
    assert weight_u(v, w, RankContext(n)) == dense_u(v, w, n)


@given(ranked_states())
@example((300, (Sign.PLUS, (299, 298, 150, 2, 1))))
@example((300, (Sign.MINUS, tuple(range(299, 0, -2)))))
@settings(deadline=None, max_examples=50)
def test_large_rank_dim_vector_and_u_match_their_references(ranked):
    n, state = ranked
    ctx = RankContext(n)
    v = dim_vector(state, ctx)
    assert v == summed_strings(state, ctx)
    assert state_u(state, ctx) == dense_u(v, framing_vector(state[0], ctx), n)


MAX_RANK_CASES = [(10000, state) for state in max_rank_states()]


@given(st.one_of(ranked_states(), st.sampled_from(MAX_RANK_CASES)))
@example(MAX_RANK_CASES[2])
@example(MAX_RANK_CASES[3])
@example((2, (Sign.PLUS, (1,))))
@example((3, (Sign.MINUS, (2, 1))))
@settings(deadline=None, max_examples=60)
def test_dim_vector_reads_the_strings_off_the_rows(ranked):
    # dim_vector builds no string; the catalog pins it at the ranks the bench
    # and MAX_RANK reach, row by row: appending a row adds that row's string
    # of a_sets (the rows above keep their positions), so the whole vector
    # is the sum of the strings
    n, (sign, rows) = ranked
    ctx = RankContext(n)
    strings = a_sets((sign, rows), ctx)
    before = dim_vector((sign, ()), ctx)
    assert before == (0,) * n
    for i, s in enumerate(strings, start=1):
        after = dim_vector((sign, list(rows[:i])), ctx)
        assert tuple(a - b for a, b in zip(after, before)) == string_dim_vector(s, ctx)
        before = after
    assert before == summed_strings((sign, rows), ctx)


def one_box_edits(rows, n):
    """Every (position, new length, shape) one box from rows, by brute force: each
    row and one new row moved one box either way, kept if the shape is valid."""
    out = set()
    for j in range(len(rows) + 1):
        old = rows[j] if j < len(rows) else 0
        for length in (old - 1, old + 1):
            r = rows[:j] + ((length,) if length else ()) + rows[j + 1:]
            if length >= 0 and all(a > b for a, b in zip(r, r[1:])) and all(1 <= x < n for x in r):
                out.add((j, length, r))
    return out


def check_edit_changes(n, state):
    # the change the E/F sweep reads for each single-box edit is the edit's
    # dimension vector less the state's, one entry of +1 or -1
    from halfspin.spinrep import _box_edits

    ctx = RankContext(n)
    sign, rows = state
    v = dim_vector(state, ctx)
    edits = one_box_edits(rows, n)
    assert sorted(_box_edits(rows, n)) == sorted((j, length) for j, length, _ in edits)
    for j, length, r in edits:
        change = edit_change(state, j, length, ctx)
        moved = [(i, a - b) for i, (a, b) in enumerate(zip(dim_vector((sign, r), ctx), v), start=1) if a != b]
        assert moved == [(abs(change), 1 if change > 0 else -1)], (state, j, length)


def test_edit_change_is_the_dim_vector_difference_at_small_ranks():
    for n in range(2, 10):
        for sign in SIGNS:
            for rows in enumerate_diagrams(n):
                check_edit_changes(n, (sign, rows))


@given(st.one_of(ranked_states(), st.sampled_from(MAX_RANK_CASES)))
@example(MAX_RANK_CASES[1])
@example(MAX_RANK_CASES[3])
@example((300, (Sign.MINUS, tuple(range(299, 0, -2)))))
@settings(deadline=None, max_examples=60)
def test_edit_change_is_the_dim_vector_difference_at_large_ranks(ranked):
    check_edit_changes(*ranked)


@pytest.mark.parametrize("state", max_rank_states(), ids=lambda state: "%s-%d-rows" % (state[0], len(state[1])))
def test_max_rank_dim_vector_and_u_match_their_references(state):
    ctx = RankContext(10000)
    v = dim_vector(state, ctx)
    assert v == summed_strings(state, ctx)
    assert state_u(state, ctx) == edge_u(v, framing_vector(state[0], ctx), 10000)
    assert v[-2] + v[-1] == len(state[1])


def test_adjacent_and_cartan_entry_follow_the_edges():
    # every pair at n = 2..300 (the Cartan matrix in full up to n = 60, as
    # it adds only its diagonal to adjacent); at n = 10000, each vertex
    # against its path neighbours, the next vertices along and the fork's ends
    for n in range(2, 301):
        assert joined_pairs(n) == both_ways(d_edges(n)), n
        if n <= 60:
            assert dense_cartan(n) == d_cartan(n), n
    n = 10000
    ctx = RankContext(n)
    near = [
        (i, j)
        for i in range(1, n + 1)
        for j in (i - 2, i - 1, i + 1, i + 2, n - 2, n)
        if 1 <= j <= n and j != i
    ]
    edges = set(d_edges(n))
    for i, j in near:
        joined = (min(i, j), max(i, j)) in edges
        assert ctx.adjacent(i, j) == joined, (i, j)
        assert ctx.cartan_entry(i, j) == -joined, (i, j)
    assert all(ctx.cartan_entry(i, i) == 2 for i in range(1, n + 1))
