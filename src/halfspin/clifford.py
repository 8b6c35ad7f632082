"""Wedge-basis model and the Clifford algebra acting on it.

The underlying space has basis b_I over subsets I of {1..n}.  create(k)
wedges b_k on the left, annihilate(k) contracts against it; both carry the
usual alternating phase (-1)**(number of smaller indices present), and
both are one per-state kernel extended by `spinrep.linear`.  FockVector
and CliffordElement take their arithmetic from `spinrep.Combination`.

CliffordElement is the full 4**n-dimensional algebra in normal-ordered
form: words with all creators left of all annihilators, each block in
ascending index order.  The product is Wick's theorem for the relations
a_i b_j = delta_ij - b_j a_i, a_i a_j = -a_j a_i, b_i b_j = -b_j b_i,
a_i a_i = b_i b_i = 0: of (b_S1 a_T1)(b_S2 a_T2) one contraction pass
rewrites a_T1 b_S2, and two signed merges join the blocks to its terms.
Each pair of monomials costs one coefficient product, each sign is a
parity test and a negation, an empty a_T1 or b_S2 needs no contraction
pass, and a merge bisects each index of its right block into the left;
the terms are summed once at the end, and a scalar times y is y scaled.

phi translates the shape model of `spinrep` into this model by the
subset bookkeeping of `diagram.fock_index`.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from fractions import Fraction

from .diagram import (
    fock_index,
    format_fock_index,
    parse_fock_index,
)
from .quiver import RankContext
from .spinrep import (
    HALVES,
    Combination,
    SpinVector,
    format_terms,
    exact,
    linear,
    parse_scalar,
    parse_terms,
    sum_terms,
    tokenize,
)


class FockVector(Combination):
    """Finite rational combination of wedge basis vectors b_I, keyed by frozenset I."""

    __slots__ = ()

    _key = frozenset
    _token = re.compile(r"\s*(\{[^{}]*\}|[0-9]+(?:/[0-9]+)?|[+\-*])")

    def __repr__(self):
        return "FockVector(%s)" % format_fock_vector(self)


def _wedge(idx, k, inside):
    # kernel of annihilate_k (inside: k must be in idx, and leaves it) and
    # create_k (k must be absent, and joins it), with the alternating phase
    if (k in idx) != inside:
        return None
    phase = 1
    for i in idx:
        if i < k:
            phase = -phase
    return (idx - {k} if inside else idx | {k}), phase


def create(k: int, vec: FockVector, ctx: RankContext) -> FockVector:
    """Left wedge by b_k: zero on terms already containing k."""
    ctx.check_index(k, "mode")
    return linear(_wedge, vec, k, False)


def annihilate(k: int, vec: FockVector, ctx: RankContext) -> FockVector:
    """Contraction against b_k: zero on terms not containing k."""
    ctx.check_index(k, "mode")
    return linear(_wedge, vec, k, True)


# ---------------------------------------------------------------------------
# the algebra


def _merge(left, right):
    """(sign, sorted left + right) for two ascending blocks, the sign that of
    the sort; None when they share an index, as b_i b_i = a_i a_i = 0.  Each
    index of right goes in by one bisection and a slice insert."""
    if not left:
        return 1, right
    sign = 1
    for i in right:
        p = bisect_left(left, i)
        if p < len(left) and left[p] == i:
            return None
        sign = -sign if (len(left) - p) & 1 else sign
        left = left[:p] + (i,) + left[p:]
    return sign, left


def _contract(annihilators, creators):
    """a_T b_S in normal order, as terms (sign, creators left, annihilators passed):
    each a_t, rightmost first, passes all creators left, sign (-1)**their number,
    and when b_t is the r-th of them (from 0) also contracts with it, sign (-1)**r."""
    terms = [(1, creators, ())]
    for t in reversed(annihilators):
        out = []
        for sign, s, passed in terms:
            out.append((-sign if len(s) & 1 else sign, s, (t,) + passed))
            if t in s:
                r = s.index(t)
                out.append((-sign if r & 1 else sign, s[:r] + s[r + 1:], passed))
        terms = out
    return terms


class CliffordElement(Combination):
    """Exact rational combination of normal-ordered monomials (S, T)."""

    __slots__ = ()

    @staticmethod
    def _key(key):
        creators, annihilators = key
        key = (tuple(creators), tuple(annihilators))
        for block in key:
            if list(block) != sorted(set(block)):
                raise ValueError("monomial blocks must be strictly increasing, got %r" % (key,))
            for i in block:
                if i < 1:
                    raise ValueError("generator index must be positive, got %r" % (i,))
        return key

    @classmethod
    def identity(cls):
        return cls({((), ()): 1})

    @classmethod
    def monomial(cls, creators, annihilators, coeff=1):
        return cls({(tuple(sorted(creators)), tuple(sorted(annihilators))): coeff})

    @classmethod
    def creator(cls, k):
        return cls.monomial((k,), ())

    @classmethod
    def annihilator(cls, k):
        return cls.monomial((), (k,))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if len(self.terms) == 1 and ((), ()) in self.terms:
            return other.scale(self.terms[(), ()])
        out = {}
        for (s1, t1), c1 in self.terms.items():
            for (s2, t2), c2 in other.terms.items():
                c = c2 if c1 == 1 else c1 if c2 == 1 else c1 * c2
                for sign, s, t in _contract(t1, s2) if t1 and s2 else ((1, s2, t1),):
                    left, right = _merge(s1, s), _merge(t, t2)
                    if left and right:
                        key, v = (left[1], right[1]), c if sign * left[0] * right[0] > 0 else -c
                        out[key] = v if (old := out.get(key)) is None else old + v
        return self._make({key: c if type(c) is int else exact(c) for key, c in out.items() if c})

    def __repr__(self):
        return "CliffordElement(%s)" % format_clifford_element(self)


# The product bound beyond which parse_clifford_expression refuses a product:
# (a1 ... a12)(b1 ... b12) at the cap takes about 0.008 s, and each doubling
# of the bound a little more than doubles the time.
MAX_CLIFFORD_TERMS = 4096
# The generators an expression may hold: a word copies its monomial at each
# generator (b1024 ... b1: about 0.014 s); a sum is collected in one pass.
MAX_CLIFFORD_GENERATORS = 1024


def product_bound(x: CliffordElement, y: CliffordElement) -> int:
    """A bound on the terms that normal-ordering x * y generates, in O(|x| + |y|).

    Each pair of monomials gives at most 2**m terms, m the number of
    annihilators of the left one that can contract with creators of the
    right one; m is at most the widest annihilator block of x and the
    widest creator block of y.
    """
    annihilators = max((len(t) for _, t in x.terms), default=0)
    creators = max((len(s) for s, _ in y.terms), default=0)
    return len(x.terms) * len(y.terms) * 2 ** min(annihilators, creators)


def act(x: CliffordElement, vec: FockVector, ctx: RankContext) -> FockVector:
    """Apply x to vec: per monomial, annihilators first, right to left."""
    if not vec.terms:
        return FockVector.ZERO
    out = {}
    for (creators, annihilators), coeff in x.terms.items():
        w = vec
        for t in reversed(annihilators):
            w = annihilate(t, w, ctx)
            if not w.terms:
                break
        for s in reversed(creators):
            if not w.terms:
                break
            w = create(s, w, ctx)
        for key, c in w.terms.items():
            c = c if coeff == 1 else coeff * c
            out[key] = c if (old := out.get(key)) is None else old + c
    out = {key: c if type(c) is int else exact(c) for key, c in out.items() if c}
    return FockVector._make(out) if out else FockVector.ZERO


def embed_generator(kind: str, k: int, ctx: RankContext) -> CliffordElement:
    """Chevalley generators as quadratic algebra elements.

    E_k -> b_{k+1} a_k and F_k -> b_k a_{k+1} for k <= n-1; at the fork,
    E_n -> a_n a_{n-1} and F_n -> b_{n-1} b_n.  H_k is the commutator of
    the corresponding E and F, computed in the algebra.
    """
    n = ctx.n
    ctx.check_index(k, "index")
    if kind == "E":
        if k <= n - 1:
            return CliffordElement.monomial((k + 1,), (k,))
        return CliffordElement.annihilator(n) * CliffordElement.annihilator(n - 1)
    if kind == "F":
        if k <= n - 1:
            return CliffordElement.monomial((k,), (k + 1,))
        return CliffordElement.creator(n - 1) * CliffordElement.creator(n)
    if kind == "H":
        e = embed_generator("E", k, ctx)
        f = embed_generator("F", k, ctx)
        return e * f - f * e
    raise ValueError("unknown generator kind %r" % kind)


def fock_weight(idx, ctx: RankContext) -> tuple:
    """Weight of b_I: +1/2 at coordinates outside I, -1/2 inside.

    The entries are the two shared halves of `spinrep.HALVES`, as in every
    shape-side weight route, so equal weights hold the same two objects.
    """
    n = ctx.n
    idx = frozenset(idx)
    for i in idx:
        ctx.check_index(i, "index")
    plus, minus = HALVES[1], HALVES[-1]
    return tuple([minus if i in idx else plus for i in range(1, n + 1)])


# ---------------------------------------------------------------------------
# the dictionary between the two models


def phi_state(state, ctx: RankContext) -> frozenset:
    return fock_index(state, ctx.n)


def phi(vec: SpinVector, ctx: RankContext) -> FockVector:
    """Basis-to-basis identification of the shape model with the wedge model."""
    return FockVector(
        {phi_state(state, ctx): coeff for state, coeff in vec.terms.items()}
    )


# ---------------------------------------------------------------------------
# text forms


def _fock_sort_key(idx):
    return (len(idx), sorted(idx))


def format_fock_vector(vec: FockVector) -> str:
    return format_terms(vec.terms, _fock_sort_key, format_fock_index)


def parse_fock_vector(text: str, ctx=None) -> FockVector:
    n = ctx.n if ctx is not None else None
    terms = parse_terms(text, FockVector._token, lambda tok: parse_fock_index(tok, n), "index set")
    return FockVector(terms)


def _monomial_word(key):
    creators, annihilators = key
    letters = ["b%d" % i for i in creators] + ["a%d" % i for i in annihilators]
    return " ".join(letters)


def _monomial_sort_key(key):
    creators, annihilators = key
    return (len(creators) + len(annihilators), creators, annihilators)


def format_clifford_element(x: CliffordElement) -> str:
    return format_terms(x.terms, _monomial_sort_key, _monomial_word)


_CLIFF_TOKEN = re.compile(r"\s*([ab][0-9]+|[0-9]+(?:/[0-9]+)?|[+\-*()])")


def parse_clifford_expression(text: str, ctx=None) -> CliffordElement:
    """Parse sums and products of generator words, e.g. "a1*b1 + b1*a1".

    Juxtaposition multiplies ("b1 b3 a2"), so canonical output re-parses to
    an equal element.  Numbers are rational scalars; parentheses group.
    Text of more than MAX_CLIFFORD_GENERATORS generators, or a product x * y whose product_bound
    exceeds MAX_CLIFFORD_TERMS, raises ValueError before it is parsed or multiplied.
    """
    tokens = tokenize(text.strip(), _CLIFF_TOKEN)
    count = sum(tok[0] in "ab" for tok in tokens)
    if count > MAX_CLIFFORD_GENERATORS:
        raise ValueError("generator count %d exceeds MAX_CLIFFORD_GENERATORS = %d" % (count, MAX_CLIFFORD_GENERATORS))
    tokens.reverse()

    def peek():
        return tokens[-1] if tokens else None

    def take():
        return tokens.pop() if tokens else None

    def is_atom_start(tok):
        return tok is not None and (tok == "(" or tok not in ("+", "-", "*", ")"))

    def parse_atom():
        tok = take()
        if tok == "(":
            inner = parse_expr()
            if take() != ")":
                raise ValueError("unbalanced parentheses in %r" % text)
            return inner
        if tok is None:
            raise ValueError("unexpected end of expression in %r" % text)
        if tok[0] in ("a", "b") and len(tok) > 1 and tok[1:].isdigit():
            k = int(tok[1:])
            if k < 1:
                raise ValueError("generator index must be positive in %r" % text)
            if ctx is not None and k > ctx.n:
                raise ValueError("generator index %d exceeds rank %d" % (k, ctx.n))
            return CliffordElement._make({((k,), ()) if tok[0] == "b" else ((), (k,)): 1})
        if not tok[0].isdigit():
            raise ValueError("unexpected token %r in %r" % (tok, text))
        c = parse_scalar(tok, text)
        return CliffordElement._make({((), ()): c} if c else {})

    def parse_product():
        result = parse_atom()
        while True:
            tok = peek()
            if tok == "*":
                take()
            elif not is_atom_start(tok):
                return result
            factor = parse_atom()
            bound = product_bound(result, factor)
            if bound > MAX_CLIFFORD_TERMS:
                raise ValueError("product bound %d exceeds MAX_CLIFFORD_TERMS = %d" % (bound, MAX_CLIFFORD_TERMS))
            result = result * factor

    def parse_expr():
        pairs = []
        op = take() if peek() in ("+", "-") else "+"
        while True:
            terms = parse_product().terms.items()
            pairs.extend(terms if op == "+" else [(key, -c) for key, c in terms])
            if peek() not in ("+", "-"):
                return CliffordElement._make(sum_terms(pairs))
            op = take()

    try:
        result = parse_expr()
    except RecursionError:
        raise ValueError("parentheses nested too deeply (%d opened)" % text.count("(")) from None
    if peek() is not None:
        raise ValueError("trailing input %r in %r" % (peek(), text))
    return result
