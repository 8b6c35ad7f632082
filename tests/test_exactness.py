"""Exactness: no floating point in the package, and integral coefficients stored as ints."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from halfspin import clifford as cliff
from halfspin.clifford import CliffordElement, FockVector
from halfspin.diagram import Sign, enumerate_diagrams
from halfspin.oracle import (
    ExactMatrix,
    apply_fock_operator,
    apply_spin_operator,
    operator_matrix,
    spin_basis,
)
from halfspin.quiver import RankContext
from halfspin.spinrep import SpinVector, exact

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "halfspin").glob("*.py"))


def float_uses(tree):
    """(line, what) for each float literal, float( call, math import and true division."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, "float literal %r" % node.value))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append((node.lineno, "float( call"))
        elif isinstance(node, ast.Import) and any(a.name.split(".")[0] == "math" for a in node.names):
            found.append((node.lineno, "import math"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.append((node.lineno, "from math import"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "true division /"))
    return sorted(found)


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"oracle.py", "spinrep.py", "clifford.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floating_point_in_the_package(path):
    found = float_uses(ast.parse(path.read_text(), str(path)))
    assert not found, "%s: %s" % (path.name, found)


def test_the_lint_sees_each_float_use():
    code = "import math\nx = 1.5\ny = float(2)\nz = 3 / 4\nz /= 2\nfrom math import gcd\nw = 3 // 4\n"
    assert [what for _, what in float_uses(ast.parse(code))] == [
        "import math",
        "float literal 1.5",
        "float( call",
        "true division /",
        "true division /",
        "from math import",
    ]


# ---------------------------------------------------------------------------
# the normaliser


def test_exact_keeps_ints_and_reduces_integral_fractions():
    assert type(exact(3)) is int and exact(3) == 3
    assert type(exact(Fraction(4, 2))) is int and exact(Fraction(4, 2)) == 2
    assert type(exact(Fraction(-6, 3))) is int and exact(Fraction(-6, 3)) == -2
    half = exact(Fraction(1, 2))
    assert type(half) is Fraction and half == Fraction(1, 2)
    assert exact("3/4") == Fraction(3, 4)
    assert type(exact("6/3")) is int
    assert type(exact(True)) is int and exact(True) == 1
    assert exact(0.5) == Fraction(1, 2) and type(exact(0.5)) is Fraction


@pytest.mark.parametrize("junk", ["junk", "1/0x", "", "nan"])
def test_exact_rejects_junk(junk):
    with pytest.raises(ValueError):
        exact(junk)


def test_containers_normalise_their_input():
    v = SpinVector({(Sign.PLUS, ()): Fraction(4, 2), (Sign.MINUS, ()): Fraction(1, 2)})
    assert type(v.terms[(Sign.PLUS, ())]) is int
    assert type((v + v).terms[(Sign.MINUS, ())]) is int
    assert type(FockVector.from_index({1}, Fraction(2, 1)).terms[frozenset({1})]) is int
    assert type(CliffordElement.monomial((1,), (), Fraction(2, 2)).terms[((1,), ())]) is int
    assert type(ExactMatrix(1, 1, {(0, 0): Fraction(3, 1)}).entries[(0, 0)]) is int


# ---------------------------------------------------------------------------
# stored coefficients under random operator words


def assert_exact(values):
    """Every value an int or a non-integral Fraction: no float, no bool."""
    for c in values:
        assert type(c) in (int, Fraction), repr(c)
        if type(c) is Fraction:
            assert c.denominator != 1, repr(c)


COEFFS = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
SCALARS = st.sampled_from([2, -1, 3, Fraction(1, 2), Fraction(2, 3), Fraction(4, 2)])


@st.composite
def rank_vector_word(draw, keys, letters):
    """(ctx, starting terms, word) at a rank n = 2..6.

    keys(n) lists the basis keys, letters(n) the word letters; a letter
    ("scale", c) scales by c.
    """
    n = draw(st.integers(2, 6))
    terms = draw(st.lists(st.tuples(st.sampled_from(keys(n)), COEFFS), min_size=1, max_size=5))
    word = draw(st.lists(st.one_of(st.sampled_from(letters(n)), SCALARS.map(lambda c: ("scale", c))), max_size=8))
    return RankContext(n), terms, word


def spin_keys(n):
    return [(sign, rows) for sign in (Sign.PLUS, Sign.MINUS) for rows in enumerate_diagrams(n)]


def spin_letters(n):
    letters = [(name, k) for name in "EFHab" for k in range(1, n + 1)]
    return letters + [("kappa", None), ("identity", None)]


def fock_keys(n):
    return [frozenset(i for i in range(1, n + 1) if mask >> (i - 1) & 1) for mask in range(2**n)]


def fock_letters(n):
    return [(name, k) for name in ("create", "annihilate") for k in range(1, n + 1)] + [("identity", None)]


def run_word(vec, word, apply):
    """Apply the word letter by letter, adding each image to a running sum."""
    total = vec
    assert_exact(vec.terms.values())
    for name, arg in word:
        vec = vec.scale(arg) if name == "scale" else apply(name, arg, vec)
        total = total + vec - vec.scale(Fraction(1, 2))
        assert_exact(vec.terms.values())
        assert_exact(total.terms.values())


@given(rank_vector_word(spin_keys, spin_letters))
@settings(deadline=None, max_examples=60)
def test_spin_operators_store_exact_coefficients(case):
    ctx, terms, word = case
    run_word(SpinVector(terms), word, lambda name, k, v: apply_spin_operator(name, k, v, ctx))


@given(rank_vector_word(fock_keys, fock_letters))
@settings(deadline=None, max_examples=60)
def test_fock_operators_store_exact_coefficients(case):
    ctx, terms, word = case
    run_word(FockVector(terms), word, lambda name, k, v: apply_fock_operator(name, k, v, ctx))


@st.composite
def clifford_cases(draw):
    n = draw(st.integers(2, 6))
    generators = st.tuples(st.sampled_from("ab"), st.integers(1, n))
    factors = draw(
        st.lists(st.tuples(st.lists(generators, max_size=3), st.one_of(COEFFS, SCALARS)), min_size=1, max_size=4)
    )
    terms = draw(st.lists(st.tuples(st.sampled_from(fock_keys(n)), COEFFS), min_size=1, max_size=4))
    return RankContext(n), factors, terms


@given(clifford_cases())
@settings(deadline=None, max_examples=60)
def test_clifford_products_and_action_store_exact_coefficients(case):
    ctx, factors, terms = case
    product = CliffordElement.identity()
    vec = FockVector(terms)
    for letters, scalar in factors:
        x = CliffordElement.identity().scale(scalar)
        for kind, k in letters:
            g = CliffordElement.creator(k) if kind == "b" else CliffordElement.annihilator(k)
            x = x * g
            assert_exact(x.terms.values())
        product = product * x + x
        assert_exact(product.terms.values())
        image = cliff.act(product, vec, ctx)
        assert_exact(image.terms.values())


@given(st.integers(2, 6), st.data())
@settings(deadline=None, max_examples=25)
def test_matrix_products_store_exact_entries(n, data):
    ctx = RankContext(n)
    basis = spin_basis(ctx)
    tokens = ["%s_%d" % (name, k) for name in "EFHab" for k in range(1, n + 1)] + ["kappa"]
    word = data.draw(st.lists(st.tuples(st.sampled_from(tokens), SCALARS), min_size=1, max_size=4))
    total = ExactMatrix.identity(len(basis))
    for token, scalar in word:
        m = operator_matrix(token, basis, ctx)
        assert_exact(m.entries.values())
        total = total * m.scale(scalar) - m * Fraction(1, 3)
        assert_exact(total.entries.values())
        assert_exact((total + total.scale(Fraction(1, 2))).entries.values())
