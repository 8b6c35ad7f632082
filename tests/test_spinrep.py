"""Shape-model operators: Chevalley action, ladder operators, weights."""

import io
import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from halfspin import cli
from halfspin.clifford import CliffordElement, FockVector, fock_weight
from halfspin.diagram import Sign, enumerate_diagrams
from halfspin.oracle import weight_routes
from halfspin.quiver import RankContext, state_u
from halfspin.spinrep import (
    HALVES,
    SpinVector,
    apply_E,
    apply_F,
    apply_H,
    kappa,
    geometric_a,
    geometric_b,
    _ladder,
    _simple_root_entries,
    _twice_fundamental_weight,
    weight_eps,
    weight_eps_alpha,
    weight_eps_closed,
    weight_eps_halved_variant,
    format_basis_state,
    parse_basis_state,
    format_spin_vector,
    parse_spin_vector,
)


SIGNS = (Sign.PLUS, Sign.MINUS)
HALF = Fraction(1, 2)


def state(sign, *rows):
    return SpinVector({(sign, rows): 1})


def all_states(n):
    return [(sign, rows) for sign in SIGNS for rows in enumerate_diagrams(n)]


def top(sign):
    """The empty shape of a family: the highest weight vector."""
    return SpinVector({(sign, ()): 1})


def fundamental_weight(i, n):
    """The fundamental weight i in epsilon coordinates, from the runs of twice it."""
    twice = [0] * n
    for coords, value in _twice_fundamental_weight(i, n):
        for j in coords:
            twice[j] = value
    return tuple(Fraction(t, 2) for t in twice)


def simple_root(i, n):
    """The simple root i in epsilon coordinates, from its two nonzero entries."""
    eps = [0] * n
    for j, value in _simple_root_entries(i, n):
        eps[j] = value
    return tuple(eps)


def test_vector_algebra():
    v = state(Sign.PLUS, 2) + state(Sign.PLUS, 2)
    assert v.terms == {(Sign.PLUS, (2,)): Fraction(2)}
    assert not (v - v)
    assert not SpinVector()
    assert (-v).terms == {(Sign.PLUS, (2,)): Fraction(-2)}
    assert (HALF * v).terms == {(Sign.PLUS, (2,)): Fraction(1)}
    assert not v.scale(0)
    assert v == SpinVector({(Sign.PLUS, (2,)): 2})
    with pytest.raises(TypeError):
        hash(v)


def test_highest_weight_vector_is_killed_by_raising():
    for n in (2, 3, 4, 5):
        ctx = RankContext(n)
        for sign in SIGNS:
            for k in range(1, n + 1):
                assert not apply_E(k, top(sign), ctx)


def test_lowering_examples_n4():
    ctx = RankContext(4)
    plus = top(Sign.PLUS)
    assert apply_F(4, plus, ctx) == state(Sign.PLUS, 1)
    for k in (1, 2, 3):
        assert not apply_F(k, plus, ctx)
    assert apply_F(2, state(Sign.PLUS, 1), ctx) == state(Sign.PLUS, 2)
    assert apply_E(2, state(Sign.PLUS, 2), ctx) == state(Sign.PLUS, 1)
    # the minus family starts with F at the other tip
    assert apply_F(3, top(Sign.MINUS), ctx) == state(Sign.MINUS, 1)
    assert not apply_F(4, top(Sign.MINUS), ctx)
    with pytest.raises(ValueError):
        apply_F(5, plus, ctx)
    with pytest.raises(ValueError):
        apply_E(0, plus, ctx)


def test_ef_reject_every_vertex_out_of_range():
    # the range check sits in apply_E / apply_F; _shift_state indexes the
    # dimension vector directly, where k = 0 or -1 would wrap around
    for n in (2, 3, 5):
        ctx = RankContext(n)
        x = state(Sign.PLUS, 1) + state(Sign.MINUS)
        for op in (apply_E, apply_F):
            for k in (-1, 0, n + 1):
                with pytest.raises(ValueError, match="out of range"):
                    op(k, x, ctx)


def per_k_search(state, edits, ctx):
    """Assert that _shift_state finds, for each k and direction on its own, the one edit whose
    dimension vector is the state's moved by the unit at k, or None when no edit is."""
    from halfspin.quiver import dim_vector
    from halfspin.spinrep import _shift_state

    sign, rows = state
    v = dim_vector(state, ctx)
    for k in range(1, ctx.n + 1):
        for direction in (+1, -1):
            target = tuple(x + direction * (i == k - 1) for i, x in enumerate(v))
            matches = [e for e in edits if dim_vector((sign, e), ctx) == target]
            assert len(matches) <= 1
            want = ((sign, matches[0]), 1) if matches else None
            assert _shift_state(state, k, direction, ctx) == want


def one_box_neighbours(rows, n):
    """Every strict partition with parts at most n-1 one box away from rows, by brute force."""
    out = set()
    for j in range(len(rows)):
        for d in (1, -1):
            r = tuple(x for x in rows[:j] + (rows[j] + d,) + rows[j + 1:] if x)
            if all(a > b for a, b in zip(r, r[1:])) and (not r or r[0] <= n - 1):
                out.add(r)
    if not rows or rows[-1] > 1:
        out.add(rows + (1,))
    return out


def box_neighbours(rows, n):
    """The shapes of the sweep's single-box edits of rows."""
    from halfspin.spinrep import _box_edits, _edited

    return {_edited(rows, *edit) for edit in _box_edits(rows, n)}


def test_shift_sweep_agrees_with_the_per_k_search():
    # the one-sweep memo of _shift_state against a search of the single-box
    # edits for each (state, k, direction) on its own
    for n in range(2, 10):
        ctx = RankContext(n)
        for sign, rows in all_states(n):
            per_k_search((sign, rows), box_neighbours(rows, n), ctx)


def test_shift_sweep_agrees_with_the_per_k_search_at_bench_ranks():
    # the per-k search over brute-force neighbours on random states at the
    # ranks a point query reaches, at most 8 rows, tips and ends included
    for n in range(2, 9):
        for rows in enumerate_diagrams(n):
            assert box_neighbours(rows, n) == one_box_neighbours(rows, n)
    rng = random.Random(256)
    cases = [(256, (255, 254, 2, 1)), (256, (255, 128, 127, 1)), (10, tuple(range(9, 1, -1)))]
    for _ in range(36):
        n = rng.randint(10, 256)
        cases.append((n, tuple(sorted(rng.sample(range(1, n), rng.randint(0, 8)), reverse=True))))
    for n, rows in cases:
        ctx = RankContext(n)
        for sign in SIGNS:
            per_k_search((sign, rows), one_box_neighbours(rows, n), ctx)


@pytest.mark.parametrize(
    "apply, rows, impostor, twin, opname",
    [
        # (plus,2) grows to (3) and gains the row (2,1): one F each, made to collide
        (apply_F, (2,), (0, 3), (1, 1), "F"),
        # (plus,2,1) shrinks to (2) and its top row grows to (3,1): made E twins
        (apply_E, (2, 1), (0, 3), (1, 0), "E"),
    ],
)
def test_shift_sweep_refuses_two_edits_with_one_delta(monkeypatch, apply, rows, impostor, twin, opname):
    # impostor and twin are edits (position, new length); the impostor's
    # change is read as the twin's, and the message names both shapes
    from halfspin import spinrep
    from halfspin.quiver import edit_change

    def colliding(state, j, length, ctx):
        return edit_change(state, *(twin if (j, length) == impostor else (j, length)), ctx)

    monkeypatch.setattr(spinrep, "edit_change", colliding)
    ctx = RankContext(4)
    k = abs(edit_change((Sign.PLUS, rows), *twin, ctx))
    shapes = sorted(rows[:j] + ((l,) if l else ()) + rows[j + 1:] for j, l in (impostor, twin))
    message = "%s_%d on (plus,%s): dimension-vector equation has 2 solutions %r; " % (
        opname, k, ",".join(map(str, rows)), shapes) + "the component dictionary promises at most one"
    with pytest.raises(RuntimeError, match="^%s$" % re.escape(message)):
        apply(1, state(Sign.PLUS, *rows), ctx)


def test_h_scales_by_cartan_eigenvalue():
    for n in (2, 3, 4):
        ctx = RankContext(n)
        for sign, rows in all_states(n):
            u = state_u((sign, rows), ctx)
            x = state(sign, *rows)
            for k in range(1, n + 1):
                assert apply_H(k, x, ctx) == x.scale(u[k - 1])


def test_ef_move_along_dimension_vectors():
    # F_k raises v by the unit at k, E_k lowers it; both keep the family
    from halfspin.quiver import dim_vector, unit_vector

    for n in (3, 4):
        ctx = RankContext(n)
        for sign, rows in all_states(n):
            v = dim_vector((sign, rows), ctx)
            for k in range(1, n + 1):
                image = apply_F(k, state(sign, *rows), ctx)
                for (sign2, rows2), coeff in image.terms.items():
                    assert sign2 is sign
                    assert coeff == 1
                    assert dim_vector((sign2, rows2), ctx) == tuple(
                        a + b for a, b in zip(v, unit_vector(k, ctx))
                    )


def test_kappa_is_the_family_swap():
    ctx = RankContext(4)
    v = state(Sign.PLUS, 3, 1) - 2 * state(Sign.MINUS, 2)
    assert kappa(kappa(v, ctx), ctx) == v
    assert kappa(v, ctx) == state(Sign.MINUS, 3, 1) - 2 * state(Sign.PLUS, 2)


def test_kappa_conjugation_swaps_tip_operators():
    # conjugating by the family swap exchanges the two tip vertices
    for n in (2, 3, 4):
        ctx = RankContext(n)
        for op in (apply_E, apply_F, apply_H):
            for sign, rows in all_states(n):
                x = state(sign, *rows)
                assert kappa(op(n - 1, kappa(x, ctx), ctx), ctx) == op(n, x, ctx)
                for k in range(1, n - 1):
                    assert kappa(op(k, kappa(x, ctx), ctx), ctx) == op(k, x, ctx)


def test_ladder_examples_n4():
    ctx = RankContext(4)
    assert geometric_b(3, state(Sign.PLUS), ctx) == state(Sign.MINUS, 1)
    assert geometric_a(1, state(Sign.PLUS, 3, 1), ctx) == state(Sign.MINUS, 1)
    assert geometric_a(3, state(Sign.PLUS, 3, 1), ctx) == -state(Sign.MINUS, 3)
    assert not geometric_a(4, state(Sign.PLUS), ctx)
    assert geometric_b(4, state(Sign.PLUS), ctx) == state(Sign.MINUS)
    assert geometric_a(4, state(Sign.MINUS), ctx) == state(Sign.PLUS)
    assert not geometric_b(4, state(Sign.MINUS), ctx)
    # one-row states: mode 4 acts on plus iff the row count is odd
    assert geometric_a(4, state(Sign.PLUS, 2), ctx) == -state(Sign.MINUS, 2)
    with pytest.raises(ValueError):
        geometric_a(5, state(Sign.PLUS), ctx)


@pytest.mark.parametrize("n", range(2, 9))
def test_ladder_kernel_is_the_row_edit_with_its_phase(n):
    # the one-pass kernel against the row edit written out on every state
    # and k: below the fork a_k deletes the row of length n-k if there is
    # one and b_k inserts it if there is none, with phase
    # (-1)**(number of rows longer than n-k); at k = n the shape is kept,
    # a_n acts when w_n + (number of rows) is even and b_n when it is odd,
    # with phase (-1)**(number of rows), as the docstrings of geometric_a
    # and geometric_b say
    ctx = RankContext(n)
    for sign, rows in all_states(n):
        w_n = 1 if sign is Sign.PLUS else 0
        for parity in (0, 1):
            for k in range(1, n + 1):
                if k < n:
                    length = n - k
                    moved = None
                    if (length in rows) == (parity == 0):
                        moved = tuple(sorted(set(rows) ^ {length}, reverse=True))
                    phase = (-1) ** len([l for l in rows if l > length])
                else:
                    moved = rows if (w_n + len(rows)) % 2 == parity else None
                    phase = (-1) ** len(rows)
                want = None if moved is None else ((sign.flip(), moved), phase)
                got = _ladder((sign, rows), k, ctx, parity)
                assert got == want, (sign, rows, k, parity)
                assert got is None or type(got[1]) is int


def test_ladder_anticommutators_exhaustive_n3():
    ctx = RankContext(3)
    states = [state(sign, *rows) for sign, rows in all_states(3)]
    for i in range(1, 4):
        for j in range(1, 4):
            for x in states:
                aa = geometric_a(i, geometric_a(j, x, ctx), ctx) + geometric_a(
                    j, geometric_a(i, x, ctx), ctx
                )
                bb = geometric_b(i, geometric_b(j, x, ctx), ctx) + geometric_b(
                    j, geometric_b(i, x, ctx), ctx
                )
                ab = geometric_a(i, geometric_b(j, x, ctx), ctx) + geometric_b(
                    j, geometric_a(i, x, ctx), ctx
                )
                assert not aa
                assert not bb
                assert ab == (x if i == j else SpinVector())


def test_fundamental_weights_and_roots_n4():
    assert fundamental_weight(1, 4) == (1, 0, 0, 0)
    assert fundamental_weight(2, 4) == (1, 1, 0, 0)
    assert fundamental_weight(3, 4) == (HALF, HALF, HALF, -HALF)
    assert fundamental_weight(4, 4) == (HALF, HALF, HALF, HALF)
    assert simple_root(1, 4) == (1, -1, 0, 0)
    assert simple_root(3, 4) == (0, 0, 1, -1)
    assert simple_root(4, 4) == (0, 0, 1, 1)


def test_cartan_pairing_of_roots_and_weights():
    # <alpha_j, Lambda_i-dual> realized as u: weight routes must mirror the
    # Cartan matrix when a single root is subtracted
    for n in (3, 4, 5):
        for i in range(1, n + 1):
            lam = fundamental_weight(i, n)
            for j in range(1, n + 1):
                root = simple_root(j, n)
                # epsilon coordinates are orthonormal for the ambient form
                pairing = sum(a * b for a, b in zip(lam, root))
                assert pairing == (1 if i == j else 0)


def test_weight_examples_n4():
    ctx = RankContext(4)
    assert weight_eps((Sign.PLUS, ()), ctx) == (HALF, HALF, HALF, HALF)
    assert weight_eps((Sign.MINUS, ()), ctx) == (HALF, HALF, HALF, -HALF)
    assert weight_eps((Sign.PLUS, (3, 1)), ctx) == (-HALF, HALF, -HALF, HALF)
    assert weight_eps((Sign.PLUS, (2,)), ctx) == (HALF, -HALF, HALF, -HALF)
    assert weight_eps((Sign.PLUS, (3, 2, 1)), ctx) == (-HALF, -HALF, -HALF, -HALF)


def test_weight_routes_agree():
    for n in (2, 3, 4, 5):
        ctx = RankContext(n)
        for st_ in all_states(n):
            ref = weight_eps(st_, ctx)
            assert weight_eps_alpha(st_, ctx) == ref
            assert weight_eps_closed(st_, ctx) == ref
            assert all(abs(c) == HALF for c in ref)


def weight_by_full_runs(state, ctx):
    """The sum of u_i times the fundamental weight i, adding every coordinate of each
    run of _twice_fundamental_weight for each nonzero u_i: O(n * nnz(u))."""
    n = ctx.n
    twice = [0] * n
    for i, ui in enumerate(state_u(state, ctx), start=1):
        if ui:
            for coords, value in _twice_fundamental_weight(i, n):
                for j in coords:
                    twice[j] += ui * value
    return tuple(Fraction(t, 2) for t in twice)


@st.composite
def ranked_states(draw, max_rank=300):
    """(n, state): a random strict partition with parts at most n-1, and a sign."""
    n = draw(st.integers(2, max_rank))
    rows = sorted(draw(st.sets(st.integers(1, n - 1), max_size=60)), reverse=True)
    return n, (draw(st.sampled_from(SIGNS)), tuple(rows))


def _assert_weight_routes_agree(n, state):
    ctx = RankContext(n)
    ref = weight_by_full_runs(state, ctx)
    assert weight_eps(state, ctx) == ref
    assert weight_eps_alpha(state, ctx) == ref
    assert weight_eps_closed(state, ctx) == ref


@given(ranked_states())
@example((300, (Sign.PLUS, (299, 298, 150, 2, 1))))
@example((300, (Sign.MINUS, tuple(range(299, 0, -2)))))
@settings(deadline=None, max_examples=50)
def test_large_rank_weights_match_the_full_run_sum(ranked):
    _assert_weight_routes_agree(*ranked)


def test_max_rank_weights_match_the_full_run_sum():
    n, rng = 10000, random.Random(10000)
    for rows in ((), (n - 1, n - 2, 2, 1), tuple(sorted(rng.sample(range(1, n), 40), reverse=True))):
        for sign in SIGNS:
            _assert_weight_routes_agree(n, (sign, rows))


def test_halved_variant_is_wrong_everywhere_but_empty():
    # the near-miss variant agrees only on the empty shape
    ctx = RankContext(4)
    for st_ in all_states(4):
        correct = weight_eps(st_, ctx)
        variant = weight_eps_halved_variant(st_, ctx)
        if st_[1]:
            assert variant != correct
        else:
            assert variant == correct
    assert weight_eps_halved_variant((Sign.PLUS, (2,)), ctx) == (HALF, 0, HALF, -HALF)


def test_weights_shift_by_simple_roots():
    for n in (3, 4):
        ctx = RankContext(n)
        for st_ in all_states(n):
            x = SpinVector({st_: 1})
            w = weight_eps(st_, ctx)
            for k in range(1, n + 1):
                root = simple_root(k, n)
                down = apply_F(k, x, ctx)
                for target in down.terms:
                    assert weight_eps(target, ctx) == tuple(
                        a - b for a, b in zip(w, root)
                    )
                up = apply_E(k, x, ctx)
                for target in up.terms:
                    assert weight_eps(target, ctx) == tuple(
                        a + b for a, b in zip(w, root)
                    )


def test_ladders_shift_weights_by_epsilon():
    # a_k adds +eps_k to the weight, b_k subtracts it
    n = 4
    ctx = RankContext(n)
    for st_ in all_states(n):
        x = SpinVector({st_: 1})
        w = weight_eps(st_, ctx)
        for k in range(1, n + 1):
            eps_k = tuple(Fraction(1 if i == k else 0) for i in range(1, n + 1))
            for target in geometric_a(k, x, ctx).terms:
                assert weight_eps(target, ctx) == tuple(a + e for a, e in zip(w, eps_k))
            for target in geometric_b(k, x, ctx).terms:
                assert weight_eps(target, ctx) == tuple(a - e for a, e in zip(w, eps_k))


def test_state_text_forms():
    assert format_basis_state((Sign.PLUS, (3, 1))) == "(plus,3,1)"
    assert format_basis_state((Sign.MINUS, ())) == "(minus,-)"
    ctx = RankContext(4)
    assert parse_basis_state("(plus,3,1)", ctx) == (Sign.PLUS, (3, 1))
    assert parse_basis_state("( minus , - )") == (Sign.MINUS, ())
    with pytest.raises(ValueError):
        parse_basis_state("plus,3,1")
    with pytest.raises(ValueError, match="cannot parse basis state"):
        parse_basis_state("(plus)")
    with pytest.raises(ValueError):
        parse_basis_state("(plus,4,1)", ctx)


def test_vector_text_forms():
    v = state(Sign.PLUS, 3, 1) - 2 * state(Sign.MINUS, 2)
    assert format_spin_vector(v) == "(plus,3,1) - 2 * (minus,2)"
    assert format_spin_vector(SpinVector()) == "0"
    assert format_spin_vector(-state(Sign.PLUS)) == "-(plus,-)"
    assert format_spin_vector(HALF * state(Sign.PLUS, 1)) == "1/2 * (plus,1)"
    assert not parse_spin_vector("0")
    assert parse_spin_vector("(plus,1) + (plus,1)") == 2 * state(Sign.PLUS, 1)
    assert parse_spin_vector("- 3/2 * (minus,2,1)") == Fraction(-3, 2) * state(
        Sign.MINUS, 2, 1
    )
    with pytest.raises(ValueError):
        parse_spin_vector("(plus,1) (plus,2)")
    with pytest.raises(ValueError):
        parse_spin_vector("2 +")
    for blank in ("", " ", "\t\n"):
        with pytest.raises(ValueError, match="blank"):
            parse_spin_vector(blank)
    with pytest.raises(ValueError, match="zero denominator"):
        parse_spin_vector("1/0 * (plus,-)")


@st.composite
def spin_vectors(draw):
    n = 4
    shapes = enumerate_diagrams(n)
    entries = draw(
        st.lists(
            st.tuples(
                st.sampled_from(SIGNS),
                st.sampled_from(shapes),
                st.fractions(min_value=-8, max_value=8, max_denominator=12),
            ),
            max_size=5,
        )
    )
    return SpinVector([((sign, rows), c) for sign, rows, c in entries])


@given(spin_vectors())
@settings(deadline=None)
def test_vector_text_round_trip(v):
    assert parse_spin_vector(format_spin_vector(v), RankContext(4)) == v


@given(spin_vectors(), spin_vectors())
@settings(deadline=None)
def test_operators_are_linear(v, w):
    ctx = RankContext(4)
    for op in (
        lambda x: apply_F(2, x, ctx),
        lambda x: apply_E(4, x, ctx),
        lambda x: apply_H(1, x, ctx),
        lambda x: geometric_a(3, x, ctx),
        lambda x: geometric_b(4, x, ctx),
        lambda x: kappa(x, ctx),
    ):
        assert op(v + w) == op(v) + op(w)
        assert op(v.scale(HALF)) == op(v).scale(HALF)


# ---------------------------------------------------------------------------
# the shared objects of the operator hot path


def test_a_zero_image_is_the_shared_zero_of_its_type():
    ctx = RankContext(4)
    zero = SpinVector.ZERO
    assert zero.terms == {} and type(zero) is SpinVector
    killed = {}
    for s in all_states(4):
        v = SpinVector({s: 1})
        for op in (apply_E, apply_F, apply_H, geometric_a, geometric_b):
            for k in range(1, 5):
                image = op(k, v, ctx)
                if not image:
                    assert image is zero, (op.__name__, k, s)
                    killed[op.__name__] = killed.get(op.__name__, 0) + 1
    # each of the five operators has zero images at rank 4
    assert set(killed) == {"apply_E", "apply_F", "apply_H", "geometric_a", "geometric_b"}
    # a zero vector, and a sum of states that all die, also map to the shared zero
    both_tops = top(Sign.PLUS) + top(Sign.MINUS)
    for op in (apply_E, apply_F, apply_H, geometric_a, geometric_b):
        assert op(1, zero, ctx) is zero
    assert apply_E(2, both_tops, ctx) is zero
    assert kappa(zero, ctx) is zero


ONE_OF_EACH_TYPE = [
    SpinVector({(Sign.PLUS, (2,)): 2, (Sign.MINUS, ()): HALF}),
    FockVector({frozenset({1, 3}): -1, frozenset(): 3}),
    CliffordElement({((1,), (2,)): 1, ((), ()): Fraction(-3, 2)}),
]


@pytest.mark.parametrize("v", ONE_OF_EACH_TYPE, ids=lambda v: type(v).__name__)
def test_arithmetic_on_the_shared_zero(v):
    zero = type(v).ZERO
    assert zero == type(v)() and not zero
    assert zero + v == v and v + zero == v
    assert zero - v == -v and v - zero == v
    assert zero + zero == zero and -zero == zero
    assert zero.scale(3) == zero and 5 * zero == zero
    assert v - v == zero and v.scale(0) == zero
    assert (zero + v).scale(2) == v + v
    assert zero.terms == {}


def test_the_shared_zeros_stay_empty_through_a_full_verify():
    assert cli.main(["verify", "--n", "2..5", "--all"], io.StringIO()) == 0
    for cls in (SpinVector, FockVector, CliffordElement):
        assert cls.ZERO.terms == {} and type(cls.ZERO) is cls


def test_every_weight_coordinate_is_a_shared_half():
    plus, minus = HALVES[1], HALVES[-1]
    assert (plus, minus) == (HALF, -HALF)
    for n in range(2, 9):
        ctx = RankContext(n)
        for s in all_states(n):
            for name, route in weight_routes():
                assert all(c is plus or c is minus for c in route(s, ctx)), (name, n, s)
        for r in range(n + 1):
            for idx in itertools.combinations(range(1, n + 1), r):
                assert all(c is plus or c is minus for c in fock_weight(idx, ctx)), (n, idx)
