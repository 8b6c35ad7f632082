"""Shape bookkeeping: enumeration, endpoints, subset dictionary."""

import pytest
from hypothesis import given, settings, strategies as st

from halfspin.diagram import (
    Sign,
    parse_sign,
    validate_diagram,
    diagram_sort_key,
    enumerate_diagrams,
    enumerate_diagrams_by_boxes,
    conjugate,
    endpoints,
    fock_index,
    format_diagram,
    parse_diagram,
    format_fock_index,
    parse_fock_index,
    parse_decimal,
)
from halfspin.cli import MAX_BOXES
from halfspin.quiver import RankContext, dim_vector
from halfspin.spinrep import weight_eps


SIGNS = (Sign.PLUS, Sign.MINUS)


@st.composite
def rank_and_diagram(draw):
    # strict partitions with parts <= n-1 are exactly subsets of {1..n-1}
    n = draw(st.integers(2, 8))
    lengths = draw(st.sets(st.integers(1, n - 1)))
    return n, tuple(sorted(lengths, reverse=True))


def test_sign_basics():
    assert Sign.PLUS.flip() is Sign.MINUS
    assert Sign.MINUS.flip() is Sign.PLUS
    assert str(Sign.PLUS) == "plus"
    assert parse_sign("minus") is Sign.MINUS
    assert parse_sign(" PLUS ") is Sign.PLUS
    with pytest.raises(ValueError):
        parse_sign("up")


def test_validate_diagram():
    assert validate_diagram([3, 1], 4) == (3, 1)
    assert validate_diagram(()) == ()
    with pytest.raises(ValueError):
        validate_diagram((1, 1))  # not strictly decreasing
    with pytest.raises(ValueError):
        validate_diagram((1, 2))
    with pytest.raises(ValueError):
        validate_diagram((0,))
    with pytest.raises(ValueError):
        validate_diagram((3,), 3)  # part exceeds n-1
    with pytest.raises(ValueError):
        validate_diagram((), 1)
    assert validate_diagram([2, 1], 3) == (2, 1)
    with pytest.raises(ValueError):
        validate_diagram((2, 2), 5)
    # rows must be ints: a float row is refused, not truncated, by every reader
    for rows in ((2.7, 1), (2.0,), ("2",), (True,)):
        with pytest.raises(ValueError, match="row lengths must be integers"):
            validate_diagram(rows)
    ctx = RankContext(4)
    for read in (
        lambda: fock_index((Sign.PLUS, (2.5,)), 4),
        lambda: endpoints((2.5,), 4),
        lambda: dim_vector((Sign.PLUS, (2.5,)), ctx),
        lambda: weight_eps((Sign.PLUS, (2.5,)), ctx),
    ):
        with pytest.raises(ValueError, match="row lengths must be integers"):
            read()


LONG = tuple(range(300, 1, -1))


@pytest.mark.parametrize(
    "rows, n, message",
    [
        ((3, True), None, "row lengths must be integers, got (3, True)"),
        ((3, 2.0), 5, "row lengths must be integers, got (3, 2.0)"),
        ((3, 0), None, "row lengths must be positive, got (3, 0)"),
        ((3, -1), 5, "row lengths must be positive, got (3, -1)"),
        (LONG + (2,), None, "row lengths must strictly decrease, got %r" % (LONG + (2,),)),
        ((5, 1), 5, "row length 5 exceeds bound 4 for rank 5"),
    ],
)
def test_validate_diagram_refusals_keep_their_messages(rows, n, message):
    # one case per refusal, each failing only its own check: the type, the
    # sign, the order (a repeat at the very end) and the rank bound
    with pytest.raises(ValueError) as exc:
        validate_diagram(list(rows), n)
    assert str(exc.value) == message


def test_enumerate_small_ranks():
    assert enumerate_diagrams(2) == [(), (1,)]
    assert enumerate_diagrams(3) == [(), (1,), (2,), (2, 1)]
    assert enumerate_diagrams(4) == [
        (),
        (1,),
        (2,),
        (3,),
        (2, 1),
        (3, 1),
        (3, 2),
        (3, 2, 1),
    ]
    with pytest.raises(ValueError):
        enumerate_diagrams(1)


def test_enumerate_counts_and_order():
    for n in range(2, 11):
        shapes = enumerate_diagrams(n)
        assert len(shapes) == 2 ** (n - 1)
        assert len(set(shapes)) == len(shapes)
        keys = [diagram_sort_key(s) for s in shapes]
        assert keys == sorted(keys)
        for s in shapes:
            validate_diagram(s, n)


def test_enumerate_by_boxes():
    assert enumerate_diagrams_by_boxes(0) == [()]
    assert enumerate_diagrams_by_boxes(3) == [(), (1,), (2,), (3,), (2, 1)]
    shapes6 = enumerate_diagrams_by_boxes(6)
    assert len(shapes6) == 14
    assert (3, 2, 1) in shapes6
    assert all(sum(s) <= 6 for s in shapes6)
    with pytest.raises(ValueError):
        enumerate_diagrams_by_boxes(-1)


def test_enumerate_by_boxes_matches_bounded_enumeration():
    # with cap B, the capped list is the size-<=B slice of any large rank, in its order
    for cap in range(13):
        capped = enumerate_diagrams_by_boxes(cap)
        bounded = [s for s in enumerate_diagrams(cap + 2) if sum(s) <= cap]
        assert capped == bounded
    assert len(enumerate_diagrams_by_boxes(MAX_BOXES)) == 207


def test_conjugate_examples():
    assert conjugate(()) == ()
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((2,)) == (1, 1)
    assert conjugate((3, 2, 1)) == (3, 2, 1)  # staircase is self-conjugate


@given(rank_and_diagram())
@settings(deadline=None)
def test_conjugate_involution(nd):
    _, rows = nd
    assert conjugate(conjugate(rows)) == rows
    assert sum(conjugate(rows)) == sum(rows)


def test_endpoints_examples():
    assert endpoints((3, 1), 4) == frozenset({1, 3})
    assert endpoints((3, 2, 1), 4) == frozenset({1, 2, 3})
    assert endpoints((), 4) == frozenset()


@given(rank_and_diagram())
@settings(deadline=None)
def test_endpoints_are_distinct(nd):
    n, rows = nd
    eps = endpoints(rows, n)
    assert len(eps) == len(rows)
    assert all(1 <= e <= n - 1 for e in eps)


def test_fock_index_examples():
    assert fock_index((Sign.PLUS, ()), 4) == frozenset()
    assert fock_index((Sign.MINUS, ()), 4) == frozenset({4})
    assert fock_index((Sign.PLUS, (3, 1)), 4) == frozenset({1, 3})
    assert fock_index((Sign.PLUS, (1,)), 4) == frozenset({3, 4})
    assert fock_index((Sign.MINUS, (1,)), 4) == frozenset({3})


def test_fock_index_is_a_parity_split_bijection():
    for n in range(2, 11):
        images = {}
        for sign in SIGNS:
            for rows in enumerate_diagrams(n):
                idx = fock_index((sign, rows), n)
                assert idx not in images
                images[idx] = (sign, rows)
                # plus states land on even subsets, minus on odd
                assert len(idx) % 2 == (0 if sign is Sign.PLUS else 1)
        assert len(images) == 2**n


def test_diagram_text_forms():
    assert format_diagram(()) == "-"
    assert format_diagram((3, 1)) == "3,1"
    assert parse_diagram("-") == ()
    assert parse_diagram("3,1", 4) == (3, 1)
    assert parse_diagram(" 2 ") == (2,)
    with pytest.raises(ValueError):
        parse_diagram("3,3", 5)
    for bad in ("x", "3,1_0", "+2", "-2"):
        with pytest.raises(ValueError, match="cannot parse diagram"):
            parse_diagram(bad)


def test_fock_index_text_forms():
    assert format_fock_index(frozenset()) == "{}"
    assert format_fock_index({3, 1}) == "{1,3}"
    assert parse_fock_index("{1,3}", 4) == frozenset({1, 3})
    assert parse_fock_index("{}") == frozenset()
    with pytest.raises(ValueError):
        parse_fock_index("{1,1}")
    with pytest.raises(ValueError):
        parse_fock_index("{5}", 4)
    with pytest.raises(ValueError):
        parse_fock_index("1,3")
    with pytest.raises(ValueError, match="cannot parse index set"):
        parse_fock_index("{1,+2}")


def test_numbers_in_text_are_ascii_decimal_digits():
    assert parse_decimal(" 12 ") == 12
    assert parse_decimal("007") == 7
    for bad in ("", " ", "1_0", "+3", "-3", "\u0663", "1\u00b2", "1.0", "1 2", "0x1"):
        with pytest.raises(ValueError):
            parse_decimal(bad)


@given(rank_and_diagram(), st.sampled_from(SIGNS))
@settings(deadline=None)
def test_text_round_trips(nd, sign):
    n, rows = nd
    assert parse_diagram(format_diagram(rows), n) == rows
    idx = fock_index((sign, rows), n)
    assert parse_fock_index(format_fock_index(idx), n) == idx
