"""Wedge model, normal-ordered algebra, and the dictionary between models."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from halfspin.diagram import Sign, enumerate_diagrams
from halfspin.quiver import RankContext
from halfspin.spinrep import SpinVector, weight_eps
from halfspin.clifford import (
    FockVector,
    create,
    annihilate,
    CliffordElement,
    act,
    embed_generator,
    fock_weight,
    phi_state,
    phi,
    format_fock_vector,
    parse_fock_vector,
    format_clifford_element,
    parse_clifford_expression,
    product_bound,
    MAX_CLIFFORD_GENERATORS,
    MAX_CLIFFORD_TERMS,
)


HALF = Fraction(1, 2)


def b(*idx):
    return FockVector([(idx, 1)])


def test_fock_vector_algebra():
    v = b(1, 3) + b(1, 3)
    assert v.terms == {frozenset({1, 3}): Fraction(2)}
    assert not (v - v)
    assert (HALF * v) == b(1, 3)
    assert -b() == b().scale(-1)
    assert b(2, 1) == b(1, 2)


def test_create_annihilate_examples():
    ctx = RankContext(4)
    assert create(1, b(2), ctx) == b(1, 2)
    assert not create(2, b(1, 2), ctx)
    assert create(2, b(1), ctx) == -b(1, 2)
    assert annihilate(2, b(1, 2), ctx) == -b(1)
    assert annihilate(1, b(1, 2), ctx) == b(2)
    assert not annihilate(3, b(1, 2), ctx)
    with pytest.raises(ValueError):
        create(5, b(), ctx)
    with pytest.raises(ValueError):
        annihilate(0, b(), ctx)


def test_car_on_vectors_exhaustive_n3():
    import itertools

    ctx = RankContext(3)
    vectors = [
        FockVector([(s, 1)])
        for r in range(4)
        for s in itertools.combinations((1, 2, 3), r)
    ]
    for i in range(1, 4):
        for j in range(1, 4):
            for v in vectors:
                assert not (create(i, create(j, v, ctx), ctx) + create(j, create(i, v, ctx), ctx))
                assert not (annihilate(i, annihilate(j, v, ctx), ctx) + annihilate(j, annihilate(i, v, ctx), ctx))
                mixed = annihilate(i, create(j, v, ctx), ctx) + create(j, annihilate(i, v, ctx), ctx)
                assert mixed == (v if i == j else FockVector())


def test_element_construction():
    x = CliffordElement.monomial((2, 1), (3,), 2)
    assert x.terms == {((1, 2), (3,)): Fraction(2)}
    assert CliffordElement.identity().terms == {((), ()): Fraction(1)}
    assert not CliffordElement()
    assert CliffordElement.creator(2).terms == {((2,), ()): Fraction(1)}
    assert CliffordElement.annihilator(1).terms == {((), (1,)): Fraction(1)}
    with pytest.raises(ValueError):
        CliffordElement({((1, 1), ()): 1})
    with pytest.raises(ValueError):
        CliffordElement({((2, 1), ()): 1})
    with pytest.raises(ValueError):
        CliffordElement({((0,), ()): 1})


def test_product_examples():
    b1 = CliffordElement.creator(1)
    b2 = CliffordElement.creator(2)
    a1 = CliffordElement.annihilator(1)
    a2 = CliffordElement.annihilator(2)
    one = CliffordElement.identity()
    assert a1 * a1 == CliffordElement()
    assert b2 * b2 == CliffordElement()
    assert a1 * b1 + b1 * a1 == one
    assert a1 * b2 == -(b2 * a1)
    # a full normal ordering with a cross term
    assert (b2 * a1) * (b1 * a2) == CliffordElement.monomial((2,), (2,)) + CliffordElement.monomial((1, 2), (1, 2))
    # creators anticommute inside a monomial
    assert b2 * b1 == CliffordElement.monomial((1, 2), (), -1)
    assert (2 * b1) * a2 == CliffordElement.monomial((1,), (2,), 2)
    assert b1 * 3 == CliffordElement.monomial((1,), (), 3)


def test_act_examples():
    ctx = RankContext(4)
    x = parse_clifford_expression("b2*a1", ctx)
    assert act(x, b(1, 3), ctx) == b(2, 3)
    assert act(CliffordElement.identity(), b(1, 3), ctx) == b(1, 3)
    assert not act(CliffordElement(), b(1, 3), ctx)
    # annihilators act first, in descending order inside the monomial
    y = CliffordElement.monomial((), (1, 2))
    assert act(y, b(1, 2), ctx) == -b()
    assert act(CliffordElement.monomial((1, 2), ()), b(), ctx) == b(1, 2)


def test_act_on_the_zero_vector_calls_no_operator(monkeypatch):
    from halfspin import clifford

    def refuse(k, vec, ctx):
        raise AssertionError("operator called on %r" % (vec,))

    monkeypatch.setattr(clifford, "annihilate", refuse)
    monkeypatch.setattr(clifford, "create", refuse)
    x = parse_clifford_expression("b2*a1 + a1 a2 + 3", RankContext(2))
    assert act(x, FockVector(), RankContext(2)) == FockVector()


COEFFS = st.sampled_from((-2, -1, 1, 2, HALF, Fraction(-3, 4)))


@st.composite
def clifford_elements(draw, n=3):
    """A scalar, or a sum of up to three monomials in the generators of rank n,
    the empty monomial among them; coefficients integral or not."""
    if draw(st.integers(0, 4)) == 0:
        return CliffordElement.identity().scale(draw(COEFFS))
    blocks = st.tuples(st.sets(st.integers(1, n)), st.sets(st.integers(1, n)))
    monomials = st.one_of(st.just((set(), set())), blocks)
    terms = draw(st.lists(st.tuples(monomials, COEFFS), min_size=1, max_size=3))
    total = CliffordElement()
    for (creators, annihilators), coeff in terms:
        total = total + CliffordElement.monomial(sorted(creators), sorted(annihilators), coeff)
    return total


def _first_disorder(word):
    for i in range(len(word) - 1):
        (t1, i1), (t2, i2) = word[i], word[i + 1]
        if t1 == "a" and t2 == "b":
            return i
        if t1 == t2 and i1 >= i2:
            return i
    return None


def _normal_order_word(word):
    """Reference: rewrite a letter list to normal order one adjacent swap at a
    time by the defining relations; returns {(S, T): coeff}."""
    out = {}
    stack = [(1, list(word))]
    while stack:
        coeff, w = stack.pop()
        i = _first_disorder(w)
        if i is None:
            key = (
                tuple(idx for t, idx in w if t == "b"),
                tuple(idx for t, idx in w if t == "a"),
            )
            out[key] = out.get(key, 0) + coeff
            continue
        (t1, i1), (t2, i2) = w[i], w[i + 1]
        if t1 == "a" and t2 == "b":
            if i1 == i2:
                stack.append((coeff, w[:i] + w[i + 2:]))
            stack.append((-coeff, w[:i] + [w[i + 1], w[i]] + w[i + 2:]))
        elif i1 == i2:
            continue  # isotropic generator squares to zero
        else:
            stack.append((-coeff, w[:i] + [w[i + 1], w[i]] + w[i + 2:]))
    return {k: v for k, v in out.items() if v != 0}


def reference_product(x, y):
    """x * y by normal-ordering each concatenated pair of monomial words."""
    total = CliffordElement()
    for (s1, t1), c1 in x.terms.items():
        for (s2, t2), c2 in y.terms.items():
            word = [("b", i) for i in s1] + [("a", i) for i in t1] + [("b", i) for i in s2] + [("a", i) for i in t2]
            total = total + CliffordElement(_normal_order_word(word)).scale(c1 * c2)
    return total


def typed(x):
    """x's terms with each coefficient's type, so that 2 and Fraction(2) differ."""
    return {key: (c, type(c)) for key, c in x.terms.items()}


@given(clifford_elements(6), clifford_elements(6))
@settings(deadline=None, max_examples=300)
def test_product_matches_the_swap_by_swap_reference(x, y):
    assert typed(x * y) == typed(reference_product(x, y))


def test_reversed_creator_word_parses_to_one_monomial_within_a_second():
    # b800 ... b1 has product bound 1 at every step; sorting the word one
    # adjacent swap at a time took about 11 s
    started = time.perf_counter()
    x = parse_clifford_expression(" ".join("b%d" % i for i in range(800, 0, -1)))
    assert time.perf_counter() - started < 1.0
    # reversing 800 creators takes 800 * 799 / 2 transpositions, an even number
    assert x.terms == {(tuple(range(1, 801)), ()): (-1) ** (800 * 799 // 2)}


def test_a_sum_at_the_generator_cap_parses_within_a_second():
    # the sum is collected in one dict, in about 0.003 s; copying the sum so
    # far at each + took about 0.07 s, and grows with the square of the terms
    cap = MAX_CLIFFORD_GENERATORS
    started = time.perf_counter()
    x = parse_clifford_expression(" + ".join("b%d" % i for i in range(1, cap + 1)))
    assert time.perf_counter() - started < 1.0
    assert x.terms == {((i,), ()): 1 for i in range(1, cap + 1)}


# expression trees: ("gen", letter, k), ("scalar", p, q), ("paren", tree),
# ("prod", x, y, joiner) and ("sum", sign, first, [(op, tree), ...]); a sum
# of one term with sign "-" is a negation
EXPRESSION_TREES = st.recursive(
    st.one_of(
        st.tuples(st.just("gen"), st.sampled_from("ab"), st.integers(1, 4)),
        st.tuples(st.just("scalar"), st.integers(0, 5), st.sampled_from((1, 2, 4, 6))),
    ),
    lambda trees: st.one_of(
        st.tuples(st.just("paren"), trees),
        st.tuples(st.just("prod"), trees, trees, st.sampled_from(("*", " ", " * "))),
        st.tuples(
            st.just("sum"),
            st.sampled_from(("", "+", "-")),
            trees,
            st.lists(st.tuples(st.sampled_from("+-"), trees), max_size=2),
        ),
    ),
    max_leaves=8,
)


def render(tree):
    """The text of an expression tree; a sum inside a product or after a sign is parenthesised."""
    kind = tree[0]
    if kind == "gen":
        return "%s%d" % tree[1:]
    if kind == "scalar":
        return "%d/%d" % tree[1:] if tree[2] != 1 else str(tree[1])
    if kind == "paren":
        return "(%s)" % render(tree[1])
    if kind == "prod":
        return _operand(tree[1]) + tree[3] + _operand(tree[2])
    _, sign, first, rest = tree
    return sign + _operand(first) + "".join(" %s %s" % (op, _operand(t)) for op, t in rest)


def _operand(tree):
    return "(%s)" % render(tree) if tree[0] == "sum" else render(tree)


def tree_value(tree):
    """The element of an expression tree, built with reference_product and +."""
    kind = tree[0]
    if kind == "gen":
        return CliffordElement.creator(tree[2]) if tree[1] == "b" else CliffordElement.annihilator(tree[2])
    if kind == "scalar":
        return CliffordElement.identity().scale(Fraction(tree[1], tree[2]))
    if kind == "paren":
        return tree_value(tree[1])
    if kind == "prod":
        return reference_product(tree_value(tree[1]), tree_value(tree[2]))
    _, sign, first, rest = tree
    total = -tree_value(first) if sign == "-" else tree_value(first)
    for op, t in rest:
        total = total + (tree_value(t) if op == "+" else -tree_value(t))
    return total


def test_rendered_trees_read_as_intended():
    x = ("sum", "", ("gen", "b", 1), [("-", ("gen", "a", 2))])
    tree = ("prod", ("scalar", 3, 2), ("sum", "-", x, []), " ")
    assert render(tree) == "3/2 (-(b1 - a2))"
    assert typed(tree_value(tree)) == {((1,), ()): (Fraction(-3, 2), Fraction), ((), (2,)): (Fraction(3, 2), Fraction)}
    assert typed(tree_value(("scalar", 4, 2))) == {((), ()): (2, int)}


@given(EXPRESSION_TREES)
@settings(deadline=None, max_examples=300)
def test_parsed_expressions_match_the_reference_product(tree):
    assert typed(parse_clifford_expression(render(tree))) == typed(tree_value(tree))


@given(clifford_elements(), clifford_elements(), st.lists(st.tuples(st.sets(st.integers(1, 3)), COEFFS), min_size=1, max_size=3))
@settings(deadline=None)
def test_act_respects_products(x, y, terms):
    # on vectors of up to three terms with rational coefficients, compared
    # coefficient type and all, so that an integral Fraction shows
    ctx = RankContext(3)
    v = FockVector(terms)
    assert typed(act(x * y, v, ctx)) == typed(act(x, act(y, v, ctx), ctx))
    assert typed(act(x + y, v, ctx)) == typed(act(x, v, ctx) + act(y, v, ctx))


@given(clifford_elements(), clifford_elements())
@settings(deadline=None)
def test_product_bound_bounds_the_terms_of_a_product(x, y):
    assert len((x * y).terms) <= product_bound(x, y)


def test_product_bound_is_reached_by_full_contraction():
    # every subset of the three pairs a_i b_i contracts: 2^3 terms
    x, y = parse_clifford_expression("a1 a2 a3"), parse_clifford_expression("b1 b2 b3")
    assert product_bound(x, y) == len((x * y).terms) == 8
    assert product_bound(y, x) == 1 and len((y * x).terms) == 1
    assert product_bound(x + y + CliffordElement.identity(), y) == 3 * 1 * 8


def test_parser_refuses_a_product_beyond_the_cap():
    # (a1 ... ak)(b1 ... bk) generates 2^k terms; one generator more than
    # the largest admitted k is refused before it is multiplied
    k = MAX_CLIFFORD_TERMS.bit_length()
    a_k, b_k = (" ".join("%s%d" % (g, i) for i in range(1, k + 1)) for g in "ab")
    with pytest.raises(ValueError, match="product bound %d exceeds MAX_CLIFFORD_TERMS" % 2**k):
        parse_clifford_expression("(%s)(%s)" % (a_k, b_k))


def test_parser_refuses_more_generators_than_the_cap():
    # counted over the whole text before it is parsed, so a sum, whose terms
    # never multiply, is refused as a word is; scalars are not generators
    cap = MAX_CLIFFORD_GENERATORS
    for join in (" ", " + ", "*"):
        text = join.join("b%d" % i for i in range(1, cap + 1))
        assert parse_clifford_expression("2 * (%s) + 1" % text)
        with pytest.raises(ValueError, match="generator count %d exceeds MAX_CLIFFORD_GENERATORS = %d" % (cap + 1, cap)):
            parse_clifford_expression(text + join + "a1")


@given(clifford_elements(), clifford_elements(), clifford_elements())
@settings(deadline=None)
def test_algebra_is_associative(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


def test_embed_generator_examples():
    ctx2 = RankContext(2)
    assert format_clifford_element(embed_generator("H", 1, ctx2)) == "-b1 a1 + b2 a2"
    assert embed_generator("H", 1, ctx2) == CliffordElement.monomial(
        (2,), (2,)
    ) - CliffordElement.monomial((1,), (1,))
    assert embed_generator("E", 1, ctx2) == CliffordElement.monomial((2,), (1,))
    assert embed_generator("F", 1, ctx2) == CliffordElement.monomial((1,), (2,))
    assert embed_generator("E", 2, ctx2) == CliffordElement.monomial((), (1, 2), -1)
    assert embed_generator("F", 2, ctx2) == CliffordElement.monomial((1, 2), ())
    ctx4 = RankContext(4)
    assert embed_generator("E", 4, ctx4) == CliffordElement.monomial((), (3, 4), -1)
    assert embed_generator("F", 4, ctx4) == CliffordElement.monomial((3, 4), ())
    # the fork Cartan element: 1 - b_{n-1}a_{n-1} - b_n a_n
    assert format_clifford_element(embed_generator("H", 4, ctx4)) == "1 - b3 a3 - b4 a4"
    with pytest.raises(ValueError):
        embed_generator("X", 1, ctx2)
    with pytest.raises(ValueError):
        embed_generator("E", 5, ctx4)


def test_embedded_generators_satisfy_chevalley_on_vectors():
    import itertools

    n = 3
    ctx = RankContext(n)
    vectors = [
        FockVector([(s, 1)])
        for r in range(n + 1)
        for s in itertools.combinations(range(1, n + 1), r)
    ]
    E = {k: embed_generator("E", k, ctx) for k in range(1, n + 1)}
    F = {k: embed_generator("F", k, ctx) for k in range(1, n + 1)}
    H = {k: embed_generator("H", k, ctx) for k in range(1, n + 1)}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            bracket = E[i] * F[j] - F[j] * E[i]
            want = H[i] if i == j else CliffordElement()
            for v in vectors:
                assert act(bracket, v, ctx) == act(want, v, ctx)


def test_fock_weight():
    ctx = RankContext(4)
    assert fock_weight(frozenset(), ctx) == (HALF, HALF, HALF, HALF)
    assert fock_weight({1, 3}, ctx) == (-HALF, HALF, -HALF, HALF)
    assert fock_weight({1, 2, 3, 4}, ctx) == (-HALF, -HALF, -HALF, -HALF)
    with pytest.raises(ValueError):
        fock_weight({5}, ctx)


def test_phi_is_weight_preserving_bijection():
    for n in (2, 3, 4, 5):
        ctx = RankContext(n)
        images = set()
        for sign in (Sign.PLUS, Sign.MINUS):
            for rows in enumerate_diagrams(n):
                state = (sign, rows)
                idx = phi_state(state, ctx)
                images.add(idx)
                assert fock_weight(idx, ctx) == weight_eps(state, ctx)
        assert len(images) == 2**n


def test_phi_round_trip():
    ctx = RankContext(4)
    v = SpinVector({(Sign.PLUS, (3, 1)): 1, (Sign.MINUS, (2,)): -2})
    assert phi(v, ctx) == FockVector({frozenset({1, 3}): 1, frozenset({2}): -2})


def test_fock_text_forms():
    assert format_fock_vector(b(1, 3) - 2 * b(2)) == "-2 * {2} + {1,3}"
    assert format_fock_vector(FockVector()) == "0"
    assert format_fock_vector(b()) == "{}"
    ctx = RankContext(4)
    assert parse_fock_vector("{1,3}", ctx) == b(1, 3)
    assert not parse_fock_vector("0")
    assert parse_fock_vector("{2} + {2}") == 2 * b(2)
    assert parse_fock_vector("-1/2 * {}") == -HALF * b()
    with pytest.raises(ValueError):
        parse_fock_vector("{1,5}", ctx)
    with pytest.raises(ValueError):
        parse_fock_vector("{1} {2}")
    for blank in ("", "  "):
        with pytest.raises(ValueError, match="blank"):
            parse_fock_vector(blank)
    with pytest.raises(ValueError, match="zero denominator"):
        parse_fock_vector("1/0 * {1}")
    with pytest.raises(ValueError, match="zero denominator"):
        parse_clifford_expression("b1 + 2/0")


def test_element_text_forms():
    x = CliffordElement.monomial((1, 3), (2,)) - 2 * CliffordElement.identity()
    assert format_clifford_element(x) == "-2 + b1 b3 a2"
    assert format_clifford_element(CliffordElement()) == "0"
    assert format_clifford_element(CliffordElement.identity()) == "1"
    y = parse_clifford_expression("b1 b3 a2 - 2")
    assert y == x
    assert parse_clifford_expression("a1*b1 + b1*a1") == CliffordElement.identity()
    assert not parse_clifford_expression("a1*a1")
    assert parse_clifford_expression("2*(b1 + a1)") == 2 * CliffordElement.creator(
        1
    ) + 2 * CliffordElement.annihilator(1)
    assert parse_clifford_expression("-b2 a1") == CliffordElement.monomial((2,), (1,), -1)
    assert parse_clifford_expression("1/2 b1") == HALF * CliffordElement.creator(1)
    with pytest.raises(ValueError):
        parse_clifford_expression("b0")
    with pytest.raises(ValueError):
        parse_clifford_expression("b3", RankContext(2))
    with pytest.raises(ValueError):
        parse_clifford_expression("(b1")
    with pytest.raises(ValueError):
        parse_clifford_expression("b1 +")


@given(clifford_elements())
@settings(deadline=None)
def test_element_text_round_trip(x):
    assert parse_clifford_expression(format_clifford_element(x)) == x


@given(
    st.lists(
        st.tuples(
            st.sets(st.integers(1, 4)),
            st.fractions(min_value=-8, max_value=8, max_denominator=12),
        ),
        max_size=4,
    )
)
@settings(deadline=None)
def test_fock_text_round_trip(entries):
    v = FockVector([(frozenset(i), c) for i, c in entries])
    assert parse_fock_vector(format_fock_vector(v), RankContext(4)) == v


def test_a_zero_wedge_image_is_the_shared_zero():
    import itertools

    ctx = RankContext(3)
    zero = FockVector.ZERO
    killed = 0
    for r in range(4):
        for idx in itertools.combinations(range(1, 4), r):
            for k in range(1, 4):
                for op in (create, annihilate):
                    image = op(k, b(*idx), ctx)
                    if not image:
                        assert image is zero, (op.__name__, k, idx)
                        killed += 1
    # each of the 8 states is killed by create_k for k in it, by annihilate_k otherwise
    assert killed == 8 * 3
    assert create(1, zero, ctx) is zero and annihilate(2, zero, ctx) is zero
    assert annihilate(3, b(1) - b(2), ctx) is zero
    assert act(CliffordElement.annihilator(1), b(2, 3), ctx) is zero
    assert act(CliffordElement.identity(), zero, ctx) is zero
    # b1 a1 - 1 cancels on {1}: the summed image is the shared zero too
    assert act(CliffordElement({((1,), (1,)): 1, ((), ()): -1}), b(1), ctx) is zero


def test_act_makes_the_same_wedge_calls_in_the_same_order(monkeypatch):
    # per monomial, in the element's order: annihilators right to left, then
    # creators right to left, and no call after the image turns zero
    from halfspin import clifford

    ctx = RankContext(4)
    calls = []
    for op in (create, annihilate):
        def counted(k, vec, ctx, op=op):
            calls.append((op.__name__, k))
            return op(k, vec, ctx)

        monkeypatch.setattr(clifford, op.__name__, counted)
    v = FockVector({frozenset({1}): 1, frozenset({1, 3}): 2, frozenset({2, 4}): -1})
    x = CliffordElement({
        ((2, 3), (1,)): 1,  # nonzero throughout: {1} + 2 {1,3} -> {} + 2 {3} -> {3} -> {2,3}
        ((4,), (1, 2, 3)): 2,  # a3 leaves -2 {1}, a2 kills it, a1 and b4 are not called
        ((), ()): 3,  # no call
        ((1, 2, 3), (4,)): HALF,  # a4 leaves {2}, b3 makes -{2,3}, b2 kills it, b1 is not called
    })
    assert act(x, v, ctx) == FockVector({frozenset({2, 3}): 1}) + 3 * v
    assert calls == [
        ("annihilate", 1), ("create", 3), ("create", 2),
        ("annihilate", 3), ("annihilate", 2),
        ("annihilate", 4), ("create", 3), ("create", 2),
    ]


def test_act_on_the_shared_zero():
    ctx = RankContext(3)
    v = FockVector({frozenset({1}): 2, frozenset({2, 3}): -1})
    x = CliffordElement({((2,), (1,)): 1, ((), ()): 3})
    assert act(x, FockVector.ZERO, ctx) == FockVector.ZERO
    assert act(CliffordElement.ZERO, v, ctx) == FockVector.ZERO
    assert act(x, v, ctx) == FockVector({frozenset({2}): 2, frozenset({1}): 6, frozenset({2, 3}): -3})
    assert FockVector.ZERO.terms == {} and CliffordElement.ZERO.terms == {}


# ---------------------------------------------------------------------------
# the Clifford embedding of the geometric action, differentially


@st.composite
def embedding_cases(draw):
    """A rank n in 2..6, a shape vector of up to four terms and a word of at most
    four letters (kind, k) in E, F, H, a and b, applied left to right."""
    n = draw(st.integers(2, 6))
    states = [(sign, rows) for sign in Sign for rows in enumerate_diagrams(n)]
    coeffs = st.sampled_from((-2, -1, 1, 3, HALF))
    vec = draw(st.dictionaries(st.sampled_from(states), coeffs, min_size=1, max_size=4))
    letter = st.tuples(st.sampled_from("EFHab"), st.integers(1, n))
    return RankContext(n), SpinVector(vec), draw(st.lists(letter, max_size=4))


def _wedge_twin(kind, k, ctx):
    """The algebra element of one letter: the embedded generator, or the ladder's twin."""
    if kind == "a":
        return CliffordElement.annihilator(k)
    if kind == "b":
        return CliffordElement.creator(k)
    return embed_generator(kind, k, ctx)


@given(embedding_cases())
@settings(deadline=None, max_examples=300)
def test_the_clifford_embedding_carries_the_geometric_action(case):
    # the shape side applies each letter by its own operator (E_k and F_k
    # from the dimension-vector sweep, never as b_{k+1} a_k); the wedge
    # side acts by the algebra element on the image under phi
    from halfspin.oracle import apply_operator

    ctx, v, word = case
    shape, wedge = v, phi(v, ctx)
    for kind, k in word:
        shape = apply_operator(kind, k, shape, ctx)
        wedge = act(_wedge_twin(kind, k, ctx), wedge, ctx)
    assert wedge == phi(shape, ctx)
