"""Exactness: no floating point in the package, and integral coefficients stored as ints.

Also the package's unused-import, one-JSON-writer, unused-private-definition,
unread-public-definition, written-once and one-argument-state lints, the two
storage forms of ExactMatrix checked against a plain dict of entries, and the
one combination base of the three vector types checked the same way.
"""

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
    _one_state,
    apply_operator,
    operator_matrix,
    parse_operator_token,
    spin_basis,
)
from halfspin.quiver import RankContext
from halfspin.spinrep import SpinVector, exact, linear

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "halfspin").glob("*.py"))


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


def unused_imports(tree, package_init=False):
    """(line, name) for each name the module imports and never reads.

    In the package's __init__ (package_init), a public name imported from
    one of the package's modules counts as read: that import is the export.
    """
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name
                imported[name] = node.lineno
                if package_init and node.level and node.module and not name.startswith("_"):
                    exported.add(name)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | exported
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports_in_the_package(path):
    found = unused_imports(ast.parse(path.read_text(), str(path)), path.name == "__init__.py")
    assert not found, "%s: %s" % (path.name, found)


def test_the_lint_sees_each_unused_import():
    code = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import re as regex\n"
        "import xml.dom\n"
        "from json import dumps, loads\n"
        "from . import sibling\n"
        "from .m import exported, _private\n"
        "loads(xml.dom)\n"
    )
    assert unused_imports(ast.parse(code)) == [
        (2, "os"),
        (3, "osp"),
        (4, "regex"),
        (6, "dumps"),
        (7, "sibling"),
        (8, "_private"),
        (8, "exported"),
    ]
    # in __init__ only the public name from a package module is an export
    assert unused_imports(ast.parse(code), package_init=True) == [
        (2, "os"),
        (3, "osp"),
        (4, "regex"),
        (6, "dumps"),
        (7, "sibling"),
        (8, "_private"),
    ]


def indented_json_dumps(tree):
    """Line of each json.dumps(..., indent=...) call.

    indent sends json to its pure-Python encoder; cli's writer, `_json_text`,
    writes every indented document without it.
    """
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "dumps"
        and any(k.arg == "indent" for k in node.keywords)
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_json_documents_are_written_by_one_writer(path):
    found = indented_json_dumps(ast.parse(path.read_text(), str(path)))
    assert not found, "%s: lines %s" % (path.name, found)


def test_the_lint_sees_each_indented_json_dumps():
    code = (
        "import json\n"
        "from json import dumps\n"
        "def _json_text(doc):\n"
        "    return json.dumps(doc, indent=2)\n"
        "def report(doc):\n"
        "    return json.dumps(doc, indent=2)\n"
        "compact = json.dumps({}, sort_keys=True)\n"
        "other = dumps([], indent=4)\n"
    )
    assert indented_json_dumps(ast.parse(code)) == [4, 6, 8]


def unread_definitions(trees):
    """(module, line, name) for each module-level name that no tree reads.

    trees maps a module name to its parsed source.  A name is defined by a
    def, class or assignment at module level.  It is read by a loaded name,
    an attribute of that name (`oracle._tree`) or a from-import of it, in
    any of the trees; so a name that __init__ re-exports counts as read.
    """
    defined = []
    read = set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.lineno, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [
                    (module, node.lineno, name.id)
                    for target in targets
                    for name in ast.walk(target)
                    if isinstance(name, ast.Name)
                ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted((module, line, name) for module, line, name in defined if name not in read)


def unused_private_definitions(trees):
    """The unread private names: one underscore first, and not a dunder."""
    return [
        (module, line, name)
        for module, line, name in unread_definitions(trees)
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
    ]


def unread_public_definitions(trees, readme):
    """The unread public names that the README does not name as `module.name`.

    A public name no code reads is API only if it is documented; otherwise
    it is a helper that only the tests call.
    """
    return [
        (module, line, name)
        for module, line, name in unread_definitions(trees)
        if not name.startswith("_") and "%s.%s" % (module.removesuffix(".py"), name) not in readme
    ]


def test_no_unused_private_definitions_in_the_package():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    assert unused_private_definitions(trees) == []


def test_the_lint_sees_each_unused_private_definition():
    trees = {
        "a.py": ast.parse(
            "from .b import _imported\n"
            "__version__ = '1'\n"
            "_READ = 1\n"
            "_WRITTEN = 2\n"
            "_WRITTEN = 3\n"
            "_first, _second = 4, 5\n"
            "def _read_here():\n"
            "    def _nested():\n"
            "        pass\n"
            "    return _READ + _first\n"
            "def _by_attribute():\n"
            "    return _read_here()\n"
            "class _Unused:\n"
            "    pass\n"
        ),
        "b.py": ast.parse(
            "from . import a\n"
            "def _imported():\n"
            "    return a._by_attribute()\n"
            "def _unused():\n"
            "    pass\n"
        ),
    }
    assert unused_private_definitions(trees) == [
        ("a.py", 4, "_WRITTEN"),
        ("a.py", 5, "_WRITTEN"),
        ("a.py", 6, "_second"),
        ("a.py", 13, "_Unused"),
        ("b.py", 4, "_unused"),
    ]


def test_no_unread_public_definitions_in_the_package():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    assert unread_public_definitions(trees, (ROOT / "README.md").read_text()) == []


def test_the_lint_sees_each_unread_public_definition():
    trees = {
        "__init__.py": ast.parse("from .a import exported\n"),
        "a.py": ast.parse(
            "_PRIVATE = 1\n"
            "def exported():\n"
            "    return helper()\n"
            "def helper():\n"
            "    pass\n"
            "def only_tests_call_me():\n"
            "    pass\n"
            "SCHEMAS = {}\n"
            "TABLE = {}\n"
        ),
    }
    readme = "The shapes are published as `halfspin.a.SCHEMAS`; a TABLE is a dict.\n"
    assert unread_public_definitions(trees, readme) == [
        ("a.py", 6, "only_tests_call_me"),
        ("a.py", 9, "TABLE"),
    ]


# the arithmetic that only the combination base and the matrix class define
ARITHMETIC = ("__add__", "__sub__", "__neg__", "scale", "__eq__", "__hash__")
ARITHMETIC_OWNERS = ("Combination", "ExactMatrix")


def arithmetic_copies(tree):
    """(line, "Class.method") for each arithmetic method written outside its two owners.

    Only a def writes the arithmetic again; an assignment such as
    diagram.Sign's `__hash__ = object.__hash__` reuses a method.
    """
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name not in ARITHMETIC_OWNERS:
            found += [
                (item.lineno, "%s.%s" % (node.name, item.name))
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and item.name in ARITHMETIC
            ]
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_arithmetic_is_written_once(path):
    found = arithmetic_copies(ast.parse(path.read_text(), str(path)))
    assert not found, "%s: %s" % (path.name, found)


def test_the_lint_sees_each_arithmetic_copy():
    code = (
        "class Combination:\n"
        "    def __add__(self, other): pass\n"
        "    def __eq__(self, other): pass\n"
        "class Vector(Combination):\n"
        "    def __add__(self, other): pass\n"
        "    def __sub__(self, other): pass\n"
        "    def __neg__(self): pass\n"
        "    def scale(self, c): pass\n"
        "    def __eq__(self, other): pass\n"
        "    def __hash__(self): pass\n"
        "    def __mul__(self, other): pass\n"
        "class Element(Combination):\n"
        "    __hash__ = object.__hash__\n"
        "    class Inner:\n"
        "        async def scale(self, c): pass\n"
        "class ExactMatrix:\n"
        "    def __add__(self, other): pass\n"
    )
    assert arithmetic_copies(ast.parse(code)) == [
        (5, "Vector.__add__"),
        (6, "Vector.__sub__"),
        (7, "Vector.__neg__"),
        (8, "Vector.scale"),
        (9, "Vector.__eq__"),
        (10, "Vector.__hash__"),
        (15, "Inner.scale"),
    ]


# a basis state is one argument, (sign, rows); a bare shape is rows alone
STATE_PARTS = ("sign", "rows", "shape")


def split_states(tree):
    """(line, name) for each function that takes a sign beside a rows or shape argument."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            names = {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs}
            if "sign" in names and names & {"rows", "shape"}:
                found.append((node.lineno, getattr(node, "name", "<lambda>")))
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_a_basis_state_is_one_argument(path):
    found = split_states(ast.parse(path.read_text(), str(path)))
    assert not found, "%s: %s" % (path.name, found)


def test_the_lint_sees_each_split_state():
    code = (
        "def a_sets(rows, sign, ctx): pass\n"
        "def closed(sign, rows, ctx): pass\n"
        "def keyed(shape, *, sign=None): pass\n"
        "class C:\n"
        "    async def move(self, sign, /, rows): pass\n"
        "f = lambda sign, shape: 0\n"
        "def state_u(state, ctx): pass\n"
        "def framing_vector(sign, ctx): pass\n"
        "def endpoints(rows, n): pass\n"
    )
    assert split_states(ast.parse(code)) == [
        (1, "a_sets"),
        (2, "closed"),
        (3, "keyed"),
        (5, "move"),
        (6, "<lambda>"),
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


def test_exact_returns_a_fraction_as_it_is():
    # a Fraction is not rebuilt: kept as the same object, or its numerator when integral
    half, big = Fraction(1, 2), Fraction(10**30 + 1, 10**30)
    assert exact(half) is half and exact(big) is big
    assert type(exact(Fraction(10**30, 1))) is int and exact(Fraction(10**30, 1)) == 10**30
    # every other input reads as before: an int when integral, else a reduced Fraction
    for value, expected in ((7, 7), (-3, -3), (False, 0), (True, 1), (2.0, 2), (-0.25, Fraction(-1, 4)),
                            ("5", 5), (" -6/4 ", Fraction(-3, 2)), ("8/4", 2), ("0.5", Fraction(1, 2))):
        got = exact(value)
        assert got == expected and type(got) is type(expected), value


@pytest.mark.parametrize("junk", ["junk", "1/0x", "", "nan"])
def test_exact_rejects_junk(junk):
    with pytest.raises(ValueError):
        exact(junk)


def test_containers_normalise_their_input():
    v = SpinVector({(Sign.PLUS, ()): Fraction(4, 2), (Sign.MINUS, ()): Fraction(1, 2)})
    assert type(v.terms[(Sign.PLUS, ())]) is int
    assert type((v + v).terms[(Sign.MINUS, ())]) is int
    assert type(FockVector([({1}, Fraction(2, 1))]).terms[frozenset({1})]) is int
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
    run_word(SpinVector(terms), word, lambda name, k, v: apply_operator(name, k, v, ctx))


@given(rank_vector_word(fock_keys, fock_letters))
@settings(deadline=None, max_examples=60)
def test_fock_operators_store_exact_coefficients(case):
    ctx, terms, word = case
    run_word(FockVector(terms), word, lambda name, k, v: apply_operator(name, k, v, ctx))


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


# ---------------------------------------------------------------------------
# the two storage forms of ExactMatrix against a plain dict of entries


def is_map(m):
    """Whether m holds the signed index map form {column: (row, value)}."""
    return m._map is not None


def ref_clean(entries):
    return {k: Fraction(v) for k, v in entries.items() if v}


def ref_sum(a, b, sign=1):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + sign * v
    return ref_clean(out)


def ref_product(a, b):
    out = {}
    for (i, j), x in a.items():
        for (j2, k), y in b.items():
            if j == j2:
                out[(i, k)] = out.get((i, k), 0) + x * y
    return ref_clean(out)


def ref_rank(entries, nrows, ncols):
    rows = [[Fraction(entries.get((i, j), 0)) for j in range(ncols)] for i in range(nrows)]
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(nrows):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def monomial(entries):
    cols = [j for (_, j) in entries]
    return len(cols) == len(set(cols))


NONZERO = COEFFS.filter(bool)


@st.composite
def matrix_entries(draw, nrows, ncols):
    """Entries of an nrows x ncols matrix (nrows >= 2), zeros among them.

    At most one entry per column gives the map form; general adds a few
    entries and two rows in one column.
    """
    entries = {}
    for j in range(ncols):
        if draw(st.booleans()):
            entries[(draw(st.integers(0, nrows - 1)), j)] = draw(COEFFS)
    if draw(st.booleans()):
        cell = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1))
        entries.update(draw(st.dictionaries(cell, COEFFS, max_size=4)))
        j = draw(st.integers(0, ncols - 1))
        entries[(0, j)] = draw(NONZERO)
        entries[(1, j)] = draw(NONZERO)
    return entries


def assert_matches(m, ref, nrows, ncols):
    """m holds exactly the reference entries, in the form they call for."""
    assert (m.nrows, m.ncols) == (nrows, ncols)
    assert m.entries == ref
    assert m.nnz == len(ref)
    assert (m.nnz == 0) == (not ref)
    assert is_map(m) == monomial(ref)
    assert_exact(m.entries.values())
    for i in range(nrows):
        for j in range(ncols):
            assert m.entry(i, j) == ref.get((i, j), 0)


@given(st.data())
@settings(deadline=None, max_examples=200)
def test_both_storage_forms_agree_with_a_dict_reference(data):
    r, k, c = (data.draw(st.integers(2, 4)) for _ in range(3))
    a_in, b_in, d_in = (data.draw(matrix_entries(*shape)) for shape in ((r, k), (k, c), (r, k)))
    a, b, d = ExactMatrix(r, k, a_in), ExactMatrix(k, c, b_in), ExactMatrix(r, k, d_in)
    a_ref, b_ref, d_ref = ref_clean(a_in), ref_clean(b_in), ref_clean(d_in)
    assert_matches(a, a_ref, r, k)
    assert_matches(a * b, ref_product(a_ref, b_ref), r, c)
    assert_matches(a + d, ref_sum(a_ref, d_ref), r, k)
    assert_matches(a - d, ref_sum(a_ref, d_ref, -1), r, k)
    assert_matches(-a, ref_sum({}, a_ref, -1), r, k)
    for scalar in (0, -1, Fraction(2, 3)):
        scaled = {key: scalar * v for key, v in a_ref.items()}
        assert_matches(a.scale(scalar), ref_clean(scaled), r, k)
        assert_matches(a * scalar, ref_clean(scaled), r, k)
    assert a - a == ExactMatrix.zero(r, k)
    assert (a == d) == (a_ref == d_ref)
    assert a == ExactMatrix(r, k, a_ref)
    assert (a + d) - d == a  # the sum may change form and the difference change it back
    assert a.rank() == ref_rank(a_ref, r, k)
    assert (a * b).rank() == ref_rank(ref_product(a_ref, b_ref), r, c)


def test_two_maps_meeting_in_a_column_sum_to_the_general_form():
    top = ExactMatrix(2, 2, {(0, 0): 1, (1, 1): Fraction(1, 2)})
    bottom = ExactMatrix(2, 2, {(1, 0): -1, (1, 1): Fraction(1, 2)})
    assert is_map(top) and is_map(bottom)
    total = top + bottom
    assert not is_map(total)
    assert total.entries == {(0, 0): 1, (1, 0): -1, (1, 1): 1}
    assert type(total.entry(1, 1)) is int
    assert total - bottom == top and is_map(total - bottom)
    assert total != ExactMatrix(2, 2, {(0, 0): 1, (1, 1): 1})
    assert total.rank() == 2


# ---------------------------------------------------------------------------
# the one combination base of the three vector types against a plain dict


def clifford_keys(n):
    blocks = [tuple(sorted(idx)) for idx in fock_keys(n)]
    return [(creators, annihilators) for creators in blocks for annihilators in blocks]


COMBINATIONS = {
    "SpinVector": (SpinVector, spin_keys),
    "FockVector": (FockVector, fock_keys),
    "CliffordElement": (CliffordElement, clifford_keys),
}


def ref_terms(pairs):
    out = {}
    for key, c in pairs:
        out[key] = out.get(key, 0) + Fraction(c)
    return ref_clean(out)


@given(st.sampled_from(sorted(COMBINATIONS)), st.data())
@settings(deadline=None, max_examples=150)
def test_the_combination_base_agrees_with_a_dict_reference(kind, data):
    cls, keys = COMBINATIONS[kind]
    # few keys, so that terms meet and cancel
    pairs = st.lists(st.tuples(st.sampled_from(keys(2)), COEFFS), max_size=6)
    x_in, y_in = data.draw(pairs), data.draw(pairs)
    x, y = cls(x_in), cls(y_in)
    x_ref, y_ref = ref_terms(x_in), ref_terms(y_in)

    def check(comb, ref):
        assert type(comb) is cls
        assert comb.terms == ref
        assert_exact(comb.terms.values())
        assert (not comb) == (not ref)

    check(x, x_ref)
    check(x + y, ref_sum(x_ref, y_ref))
    check(x - y, ref_sum(x_ref, y_ref, -1))
    check(-x, ref_sum({}, x_ref, -1))
    for scalar in (0, -1, Fraction(2, 3)):
        scaled = ref_clean({key: scalar * v for key, v in x_ref.items()})
        check(x.scale(scalar), scaled)
        check(scalar * x, scaled)
    assert (x == y) == (x_ref == y_ref)
    assert x == cls(x_ref) and x - x == cls() and (x + y) - y == x
    for other, _ in COMBINATIONS.values():
        if other is not cls:
            # the same terms under another type are another vector
            assert x != other._make(x.terms) and other._make(x.terms) != x
    with pytest.raises(TypeError):
        hash(x)


def spin_tokens(n):
    return ["%s_%d" % (name, k) for name in "EFHab" for k in range(1, n + 1)] + ["kappa", "identity"]


def fock_tokens(n):
    return ["%s_%d" % (name, k) for name in ("create", "annihilate") for k in range(1, n + 1)] + ["identity"]


@pytest.mark.parametrize("c", [1, -1, 3, Fraction(1, 2), Fraction(-3, 2)])
def test_linear_scales_a_one_state_image_exactly(c):
    # the one-state path skips the product for a coefficient 1, and any
    # product or kernel coefficient that is integral comes out as an int
    for v in (1, -2, Fraction(2, 3), Fraction(4, 2), Fraction(3, 2)):
        [(target, got)] = linear(lambda state: ("t", v), SpinVector._make({"s": c})).terms.items()
        assert target == "t" and got == c * v and type(got) is type(exact(c * v)), v
    assert linear(lambda state: None, SpinVector._make({"s": c})) is SpinVector.ZERO


@given(st.dictionaries(st.integers(0, 5), COEFFS.filter(bool).map(exact), min_size=2, max_size=6))
@settings(deadline=None)
def test_linear_merges_the_images_of_several_states_exactly(terms):
    # a synthetic kernel: states 0 and 1 go to one target, state 2 is killed,
    # the others keep a rational image coefficient; the result is the dict
    # reference summed in Fractions, and an integral sum comes out as an int
    images = {0: ("t", Fraction(1, 2)), 1: ("t", Fraction(-3, 2)), 2: None, 3: ("u", 2), 4: ("v", Fraction(2, 3)), 5: ("w", -1)}
    ref = {}
    for state, c in terms.items():
        if images[state] is not None:
            target, v = images[state]
            ref[target] = ref.get(target, Fraction(0)) + Fraction(c) * v
    got = linear(images.get, SpinVector._make(terms))
    assert {key: (c, type(c)) for key, c in got.terms.items()} == {
        key: (exact(c), type(exact(c))) for key, c in ref.items() if c
    }
    if not got.terms:
        assert got is SpinVector.ZERO


def test_linear_returns_an_int_or_the_shared_zero_when_a_sum_cancels():
    kernel = {"s": ("t", Fraction(1, 2)), "r": ("t", Fraction(-1, 2)), "k": None, "j": None}.get
    # 3 * 1/2 - 1 * 1/2 is 1: an int, not Fraction(1)
    [(key, c)] = linear(kernel, SpinVector._make({"s": 3, "r": 1, "k": 2})).terms.items()
    assert key == "t" and c == 1 and type(c) is int
    for cls in (SpinVector, FockVector):
        # a full cancellation, and a vector whose states are all killed
        assert linear(kernel, cls._make({"s": Fraction(3, 2), "r": Fraction(3, 2)})) is cls.ZERO
        assert linear(kernel, cls._make({"k": Fraction(1, 2), "j": -2})) is cls.ZERO


@given(st.integers(2, 5), st.data())
@settings(deadline=None, max_examples=40)
def test_every_operator_is_the_sum_of_its_one_state_images(n, data):
    ctx = RankContext(n)
    for cls, keys, tokens in ((SpinVector, spin_keys, spin_tokens), (FockVector, fock_keys, fock_tokens)):
        vec = cls(data.draw(st.lists(st.tuples(st.sampled_from(keys(n)), NONZERO), min_size=2, max_size=6)))
        for token in tokens(n):
            name, k = parse_operator_token(token)
            want = {}
            for key, c in vec.terms.items():
                for target, v in apply_operator(name, k, _one_state(key), ctx).terms.items():
                    want[target] = want.get(target, 0) + c * v
            got = apply_operator(name, k, vec, ctx)
            assert type(got) is cls
            assert got.terms == ref_clean(want), token
