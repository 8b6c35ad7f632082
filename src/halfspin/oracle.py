"""Exact verification engine for the two models.

Everything here reduces claims about the operators to finite linear
algebra over the rationals, reporting pass/fail per identity with a
concrete witness on failure.

The operator identities (Chevalley and degree-bound relations, ladder
anticommutators, the dictionary's intertwining, the quadratic
factorization) are declared once, in the registry `IDENTITY_TABLES`:
each table's row builder, whose rows are expressions over operator names,
the basis that labels its rows and its rank-free label.  Two evaluators
read it.  The bounded suites tabulate each operator as a sparse exact
matrix over the whole rank-n basis and compare matrices.  The rank-free
`check_dinfty` grows the words of every side of every table, each token
parsed once, straight into one prefix tree keyed by operator once per
call, and walks it once per box-capped basis state, with one plain dict
of images for that column only; since every operator sends a basis state
to at most one signed basis state, a walk stops below the first zero
image, and a prefix that many words share is applied once.
The module, weight and faithfulness suites are written out on their own.

Every operator token but `phi`, the dictionary between the models, is
read from one table of functions by name, `_OPERATORS`, when it is
applied: by the command line through its dispatch, `apply_operator`, by
the rank-free evaluator for each image it computes, and by the tabulator
once per matrix, whose function then runs on the prebuilt one-state
vectors of its basis.

The suites of one `run_suites` call share one `RankTables` per rank: one
rank context, one shape and one wedge basis with their one-state vectors,
the Cartan-route weights and one table of matrices, `phi` among them,
each built on first use and dropped before the next rank starts.  A
suite maps one `RankTables` to its entries, and `run_suites` alone
builds the tables, times each suite and files its report.

Reports are plain dicts, deterministic for a given (suite, rank) in all
but their `duration`, with entry statuses pass / fail / xfail / xpass /
skip.  An xfail entry is a pinned, documented deviation (a regression
guard): it does not fail the suite, but its unexpected success (xpass)
does.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

from .diagram import (
    MINUS,
    PLUS,
    enumerate_diagrams,
    enumerate_diagrams_by_boxes,
    format_fock_index,
    parse_decimal,
)
from .quiver import RankContext, format_dim_vector
from . import spinrep
from . import clifford as cliff
from .spinrep import SpinVector, exact, format_basis_state
from .clifford import CliffordElement, FockVector


class ExactMatrix:
    """Sparse rational matrix; no stored zeros, exact arithmetic only.

    An entry is an int when integral and a Fraction otherwise.  The data
    picks one of two forms.  A matrix with at most one nonzero in each
    column, as every tabulated operator is, is a signed index map
    {column: (row, value)}, and the product of two maps is one pass over
    the right factor's columns.  Any other matrix, such as a sum in which
    two rows meet in one column, keeps the general form {(row, column):
    value}.  A matrix holds one form only, so equal matrices hold equal
    dicts of the same form.  A product by a map whose entry is 1 keeps the
    left factor's (row, value) pair, and a sum keeps each pair that meets
    none, so matrices may share these immutable pairs; no operation changes
    a matrix's dicts in place.
    """

    __slots__ = ("nrows", "ncols", "_map", "_general")

    def __init__(self, nrows, ncols, entries=None):
        entries = entries or {}
        for i, j in entries:
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise ValueError("entry (%d,%d) out of bounds %dx%d" % (i, j, nrows, ncols))
        self.nrows = nrows
        self.ncols = ncols
        self._map, self._general = _forms((ij, exact(v)) for ij, v in entries.items())

    @classmethod
    def _make(cls, nrows, ncols, cols, general=None):
        """A matrix from trusted parts: the map cols, or None and the general entries."""
        m = cls.__new__(cls)
        m.nrows, m.ncols, m._map, m._general = nrows, ncols, cols, general
        return m

    @classmethod
    def identity(cls, size):
        return cls._make(size, size, {i: (i, 1) for i in range(size)})

    @classmethod
    def zero(cls, nrows, ncols):
        return cls._make(nrows, ncols, {})

    def _pairs(self):
        """The entries as {(row, column): value}; built anew from a map."""
        if self._map is None:
            return self._general
        return {(i, j): v for j, (i, v) in self._map.items()}

    @property
    def entries(self):
        """A read-only view {(row, column): value} of the nonzero entries."""
        return MappingProxyType(self._pairs())

    def entry(self, i, j):
        if self._map is None:
            return self._general.get((i, j), 0)
        row, v = self._map.get(j, (None, 0))
        return v if row == i else 0

    @property
    def nnz(self):
        return len(self._general if self._map is None else self._map)

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self._map == other._map
            and self._general == other._general
        )

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign):
        """self + sign * other, for sign 1 or -1."""
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        if self._map is not None and other._map is not None:
            out = dict(self._map)
            for j, pair in other._map.items():
                i, v = pair
                mine = out.get(j)
                if mine is None:
                    out[j] = pair if sign == 1 else (i, -v)
                elif mine[0] != i:
                    break  # two rows meet in column j: the sum is general
                else:
                    total = mine[1] + sign * v
                    if total:
                        out[j] = (i, exact(total))
                    else:
                        del out[j]
            else:
                return ExactMatrix._make(self.nrows, self.ncols, out)
        out = spinrep.add_terms(self._pairs(), other._pairs(), sign)
        return ExactMatrix._make(self.nrows, self.ncols, *_forms(out.items()))

    def __neg__(self):
        return self.scale(-1)

    def scale(self, scalar):
        scalar = exact(scalar)
        if not scalar:
            return ExactMatrix.zero(self.nrows, self.ncols)
        if self._map is None:
            return ExactMatrix._make(self.nrows, self.ncols, None, spinrep.scale_terms(self._general, scalar))
        cols = {j: (i, exact(scalar * v)) for j, (i, v) in self._map.items()}
        return ExactMatrix._make(self.nrows, self.ncols, cols)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch for product")
        left = self._map
        if left is not None and other._map is not None:
            out = {}
            get = left.get
            for k, (j, b) in other._map.items():
                hit = get(j)
                if hit is not None:
                    if b == 1:
                        out[k] = hit
                    else:
                        v = hit[1] * b
                        out[k] = (hit[0], v if type(v) is int else exact(v))
            return ExactMatrix._make(self.nrows, other.ncols, out)
        by_row = {}
        for (j, k), v in other._pairs().items():
            by_row.setdefault(j, []).append((k, v))
        products = (((i, k), a * b) for (i, j), a in self._pairs().items() for k, b in by_row.get(j, ()))
        return ExactMatrix._make(self.nrows, other.ncols, *_forms(products))

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def rank(self):
        """Exact rank by fraction-free-enough Gaussian elimination."""
        rows = {}
        for (i, j), v in self._pairs().items():
            rows.setdefault(i, {})[j] = v
        pivots = {}
        rnk = 0
        for row in rows.values():
            row = dict(row)
            while row:
                col = min(row)
                if col not in pivots:
                    pivots[col] = row
                    rnk += 1
                    break
                pivot_row = pivots[col]
                factor = Fraction(row[col], pivot_row[col])
                for c, v in pivot_row.items():
                    nv = row.get(c, 0) - factor * v
                    if nv:
                        row[c] = nv
                    elif c in row:
                        del row[c]
        return rnk

    def __repr__(self):
        return "ExactMatrix(%dx%d, %d nonzero)" % (self.nrows, self.ncols, self.nnz)


def _forms(items):
    """The (key, value) pairs summed in exact form, zeros dropped, as (map, None) or (None, general)."""
    general = spinrep.sum_terms(items)
    cols = {}
    for (i, j), v in general.items():
        if j in cols:
            return None, general
        cols[j] = (i, v)
    return cols, None


class IndexedBasis:
    """Ordered basis with a position map; label turns states into text.

    `vectors` holds the one-state vector of each state, built on first use
    and read by every table over the basis and by the faithfulness suite;
    no operator changes them.
    """

    def __init__(self, states, label):
        self.states = list(states)
        self.index = {s: i for i, s in enumerate(self.states)}
        if len(self.index) != len(self.states):
            raise ValueError("repeated basis state")
        self.label = label

    def __len__(self):
        return len(self.states)

    @cached_property
    def vectors(self) -> list:
        return [_one_state(state) for state in self.states]


def spin_basis(ctx: RankContext) -> IndexedBasis:
    """All 2^n basis states: the plus block first, then the minus block."""
    shapes = enumerate_diagrams(ctx.n)
    states = [(sign, rows) for sign in (PLUS, MINUS) for rows in shapes]
    return IndexedBasis(states, label=format_basis_state)


def truncated_spin_basis(ctx: RankContext, max_boxes: int) -> IndexedBasis:
    # a cap of n boxes or more admits the one-row shape (n,), which needs rank > n
    if max_boxes > ctx.n - 1:
        raise ValueError("box cap %d needs rank > %d, got %d" % (max_boxes, max_boxes, ctx.n))
    shapes = enumerate_diagrams_by_boxes(max_boxes)
    states = [(sign, rows) for sign in (PLUS, MINUS) for rows in shapes]
    return IndexedBasis(states, label=format_basis_state)


def fock_basis(ctx: RankContext) -> IndexedBasis:
    subsets = []
    for size in range(ctx.n + 1):
        subsets.extend(itertools.combinations(range(1, ctx.n + 1), size))
    return IndexedBasis([frozenset(s) for s in subsets], label=format_fock_index)


# every token's function by name: shape side, wedge side, the two with no index;
# kappa reads spinrep.kappa per call, so a patched spinrep.kappa reaches both evaluators
_OPERATORS = {
    "E": spinrep.apply_E,
    "F": spinrep.apply_F,
    "H": spinrep.apply_H,
    "a": spinrep.geometric_a,
    "b": spinrep.geometric_b,
    "create": cliff.create,
    "annihilate": cliff.annihilate,
    "kappa": lambda k, vec, ctx: spinrep.kappa(vec, ctx),
    "identity": lambda k, vec, ctx: vec,
}

# the operators that act on the wedge side
WEDGE_OPS = ("create", "annihilate")


def parse_operator_token(token: str):
    """Split an operator token like "F_4", "a_1", "kappa" into (name, index)."""
    token = token.strip()
    if token in ("kappa", "identity", "id"):
        return ("identity" if token == "id" else token, None)
    name, sep, idx = token.partition("_")
    if sep and name in _OPERATORS and name not in ("kappa", "identity"):
        try:
            return (name, parse_decimal(idx))
        except ValueError:
            pass
    raise ValueError("unknown operator token %r" % token)


def apply_operator(name, k, vec, ctx: RankContext):
    """The operator (name, k) of parse_operator_token applied to a shape or wedge vector."""
    if name not in _OPERATORS:
        raise ValueError("unknown operator %r" % name)
    return _OPERATORS[name](k, vec, ctx)


def operator_matrix(op: str, basis: IndexedBasis, ctx: RankContext) -> ExactMatrix:
    """Tabulate a named operator over the basis; column j is the image of state j.

    The operator's function is read from `_OPERATORS` once per table, when
    the table is built, and applied to the basis's prebuilt one-state
    vectors.  One-term images go straight into the map form.  An image of
    two or more terms, which no operator of the two models makes, turns the
    table to the general form, and a zero image leaves its column empty.
    """
    name, k = parse_operator_token(op)
    apply = _OPERATORS[name]
    size = len(basis)
    position = basis.index
    cols = {}
    spread = {}
    for j, vec in enumerate(basis.vectors):
        terms = apply(k, vec, ctx).terms
        if not terms:
            continue
        if len(terms) == 1:
            [(target, coeff)] = terms.items()
            cols[j] = (position[target], coeff)
        else:
            for target, coeff in terms.items():
                spread[(position[target], j)] = coeff
    if spread:
        spread.update(((i, j), v) for j, (i, v) in cols.items())
        return ExactMatrix(size, size, spread)
    return ExactMatrix._make(size, size, cols)


class RankTables:
    """What the bounded suites of one rank read, each part built on first use.

    `run_suites` builds one per rank for all its suites.  `matrix`
    builds the matrix of a token once and hands the same matrix to every
    later caller; "0", "1" and "phi" name the zero and identity maps of
    the shape space and the dictionary's matrix.
    """

    def __init__(self, n: int):
        self.ctx = RankContext(n)
        self._matrices = {}

    @cached_property
    def sbasis(self) -> IndexedBasis:
        return spin_basis(self.ctx)

    @cached_property
    def fbasis(self) -> IndexedBasis:
        return fock_basis(self.ctx)

    @cached_property
    def weights(self) -> list:
        """The reference (Cartan) route's weight of each shape basis state, in basis order."""
        reference = weight_routes()[0][1]
        return [reference(state, self.ctx) for state in self.sbasis.states]

    def matrix(self, token: str) -> ExactMatrix:
        m = self._matrices.get(token)
        if m is None:
            if token == "phi":
                position = self.fbasis.index
                cols = {j: (position[cliff.phi_state(state, self.ctx)], 1) for j, state in enumerate(self.sbasis.states)}
                m = ExactMatrix._make(len(self.fbasis), len(self.sbasis), cols)
            elif token in ("0", "1"):
                size = len(self.sbasis)
                m = ExactMatrix.identity(size) if token == "1" else ExactMatrix.zero(size, size)
            else:
                name, _ = parse_operator_token(token)
                basis = self.fbasis if name in WEDGE_OPS else self.sbasis
                m = operator_matrix(token, basis, self.ctx)
            self._matrices[token] = m
        return m


# ---------------------------------------------------------------------------
# report plumbing


def _entry(identity, ok, witness=None, expected_fail=False):
    if expected_fail:
        status = "xpass" if ok else "xfail"
    else:
        status = "pass" if ok else "fail"
    return {
        "identity": identity,
        "status": status,
        "witness": None if ok else witness,
    }


def _skip_entry(identity, reason):
    return {"identity": identity, "status": "skip", "witness": reason}


def _finalize(suite, n, entries, t0, **extra):
    counts = {"pass": 0, "fail": 0, "xfail": 0, "xpass": 0, "skip": 0}
    for e in entries:
        counts[e["status"]] += 1
    status = "pass" if counts["fail"] == 0 and counts["xpass"] == 0 else "fail"
    report = {
        "suite": suite,
        "n": n,
        "status": status,
        "counts": counts,
        "checks": entries,
        "duration": round(time.perf_counter() - t0, 6),
    }
    report.update(extra)
    return report


def _matrix_witness(got: ExactMatrix, want: ExactMatrix, rows: IndexedBasis, cols: IndexedBasis):
    """The first differing entry, its row labelled from rows and its column from cols."""
    keys = sorted(set(got.entries) | set(want.entries))
    for i, j in keys:
        a = got.entry(i, j)
        b = want.entry(i, j)
        if a != b:
            return "entry (%s <- %s): got %s, expected %s" % (
                rows.label(rows.states[i]),
                cols.label(cols.states[j]),
                a,
                b,
            )
    return None


def _pointwise_witness(identity, state, got, want):
    return "%s at state %s: got %s, expected %s" % (identity, format_basis_state(state), got, want)


# ---------------------------------------------------------------------------
# the identity table
#
# A side of an identity is a token or a tuple.  A token names an operator
# ("E_3", "a_2", "annihilate_2", "phi") or is "0" (zero) or "1" (the
# identity); zero and the identity act on the shape space.  A tuple is
# ("product", x, y) for x after y, ("commutator", x, y),
# ("anticommutator", x, y) or ("scale", c, x) for an integer c.  Tokens are
# names, never functions: each evaluator dispatches them when it runs, so
# the operators it calls are the ones bound at that time.  Each side is
# computed from its own tokens: "E_k" is always the dimension-vector
# operator, never its ladder factorization.


def _op(name, k):
    return "%s_%d" % (name, k)


def _chevalley_rows(ctx):
    """[E_i,F_j] = delta_ij H_i and the H brackets."""
    vertices = range(1, ctx.n + 1)
    for i, j in itertools.product(vertices, repeat=2):
        want = _op("H", i) if i == j else "0"
        yield "[E_%d,F_%d] = %s" % (i, j, want), ("commutator", _op("E", i), _op("F", j)), want
    for i, j in itertools.product(vertices, repeat=2):
        c = ctx.cartan_entry(i, j)
        for x, scale in (("E", c), ("F", -c)):
            xj = _op(x, j)
            yield "[H_%d,%s] = %d %s" % (i, xj, scale, xj), ("commutator", _op("H", i), xj), ("scale", scale, xj)
    for i, j in itertools.combinations(vertices, 2):
        yield "[H_%d,H_%d] = 0" % (i, j), ("commutator", _op("H", i), _op("H", j)), "0"


def _serre_rows(ctx):
    """Degree bounds on the raising/lowering operators between vertices."""
    for i, j in itertools.permutations(range(1, ctx.n + 1), 2):
        for x in "EF":
            xi, xj = _op(x, i), _op(x, j)
            if ctx.adjacent(i, j):
                yield "ad(%s)^2 %s = 0" % (xi, xj), ("commutator", xi, ("commutator", xi, xj)), "0"
            else:
                yield "[%s,%s] = 0" % (xi, xj), ("commutator", xi, xj), "0"


def _clifford_rows(ctx):
    """Anticommutation of the row ladder operators on the shape basis."""
    vertices = range(1, ctx.n + 1)
    for i, j in itertools.combinations_with_replacement(vertices, 2):
        for x in "ab":
            xi, xj = _op(x, i), _op(x, j)
            yield "{%s,%s} = 0" % (xi, xj), ("anticommutator", xi, xj), "0"
    for i, j in itertools.product(vertices, repeat=2):
        want = "1" if i == j else "0"
        yield "{a_%d,b_%d} = %s" % (i, j, want), ("anticommutator", _op("a", i), _op("b", j)), want


def _intertwiner_rows(ctx):
    """The basis dictionary carries each ladder operator to its wedge twin."""
    for k in range(1, ctx.n + 1):
        for ladder, twin in (("a", "annihilate"), ("b", "create")):
            x, y = _op(ladder, k), _op(twin, k)
            yield "phi %s = %s phi" % (x, y), ("product", "phi", x), ("product", y, "phi")


def _factorization_rows(ctx):
    """Chevalley operators factor through quadratic ladder words."""
    n = ctx.n
    words = []
    for k in range(1, n):
        words.append((_op("E", k), _op("b", k + 1), _op("a", k)))
        words.append((_op("F", k), _op("b", k), _op("a", k + 1)))
    words.append((_op("E", n), _op("a", n), _op("a", n - 1)))
    words.append((_op("F", n), _op("b", n - 1), _op("b", n)))
    for x, p, q in words:
        yield "%s = %s %s" % (x, p, q), x, ("product", p, q)


# every identity table, in the order of the rank-free report: its row builder,
# the RankTables basis that labels its rows, and its entry label in check_dinfty
IDENTITY_TABLES = {
    "chevalley": (_chevalley_rows, "sbasis", "Chevalley brackets on all pairs"),
    "serre": (_serre_rows, "sbasis", "degree bounds between vertices"),
    "clifford": (_clifford_rows, "sbasis", "ladder anticommutators"),
    "intertwiner": (_intertwiner_rows, "fbasis", "dictionary intertwines the ladder operators"),
    "factorization": (_factorization_rows, "sbasis", "quadratic factorization of E/F"),
}


def identities(suite: str, ctx: RankContext) -> list:
    """The operator identities of one suite at rank ctx.n, as (label, lhs, rhs)."""
    if suite not in IDENTITY_TABLES:
        raise ValueError("no identity table for suite %r" % suite)
    return list(IDENTITY_TABLES[suite][0](ctx))


def _matrix(expr, leaf):
    """Bounded evaluator of one side: an exact matrix, tokens tabulated by leaf."""
    if isinstance(expr, str):
        return leaf(expr)
    op, x, y = expr
    if op == "scale":
        return _matrix(y, leaf).scale(x)
    x, y = _matrix(x, leaf), _matrix(y, leaf)
    if op == "product":
        return x * y
    return x * y - y * x if op == "commutator" else x * y + y * x


def _table_entries(suite, tables):
    """The bounded evaluator: every row of the suite's table, as exact matrices.

    Tokens are tabulated by tables, once per rank.  The sides map the shape
    basis to the basis that the suite's registry entry names, the shape or
    the wedge basis, which labels the witnesses' rows.
    """
    rows = getattr(tables, IDENTITY_TABLES[suite][1])
    entries = []
    for label, lhs, rhs in identities(suite, tables.ctx):
        got, want = _matrix(lhs, tables.matrix), _matrix(rhs, tables.matrix)
        ok = got == want
        entries.append(
            _entry(label, ok, None if ok else _matrix_witness(got, want, rows, tables.sbasis))
        )
    return entries


def _one_state(state):
    """The vector of one basis state: a wedge subset or a (sign, shape) pair."""
    return (FockVector if isinstance(state, frozenset) else SpinVector)._make({state: 1})


def _ends(node, expr, c, ops):
    """The words of one side, times c, grown below node: the (node, coeff) pairs where they end.

    A node is (children, ends), children keyed by the operator acting next,
    each token parsed once per tree into ops as (name, k), ("phi", None) for
    phi.  A product grows its right factor, which acts first, then its left
    factor from each end; a bracket adds the reversed product, signed.  A
    word that two terms of a side share ends twice.
    """
    if isinstance(expr, str):
        if expr in ("0", "1"):
            return [(node, c)] if expr == "1" else []
        if expr not in ops:
            ops[expr] = ("phi", None) if expr == "phi" else parse_operator_token(expr)
        return [(node[0].setdefault(ops[expr], ({}, [])), c)]
    op, x, y = expr
    if op == "scale":
        return _ends(node, y, c * x, ops) if x else []
    ends = [end for mid, b in _ends(node, y, c, ops) for end in _ends(mid, x, b, ops)]
    if op != "product":
        ends += _ends(node, ("product", y, x), -c if op == "commutator" else c, ops)
    return ends


def _tree(rows):
    """Rows (label, lhs, rhs) as one prefix tree of operator words, grown by `_ends`.

    A node's ends hold (row, coeff) for every word that stops there, the
    words of a row's rhs with their coefficients negated.  The root is the
    empty word.  Each token is parsed once per tree.
    """
    ops = {}
    root = ({}, [])
    for pos, (_, lhs, rhs) in enumerate(rows):
        for side, sign in ((lhs, 1), (rhs, -1)):
            for node, c in _ends(root, side, sign, ops):
                node[1].append((pos, c))
    return root


def _sums(tree, state, images, ctx):
    """Each row's lhs minus rhs on one basis state, {(row, target): coeff}, zeros kept.

    A depth-first walk from the root carries (state, coeff).  images is the
    column's memo: for each state the walk reaches, its one-state vector and
    its images {(name, k): ((target, coeff), ...)}.  A missing image is
    computed through `cliff.phi` for phi and `_OPERATORS[name]` for every
    other operator, and stored.  The walk enters a child only through the
    terms of a nonzero image, so each prefix that survives is applied once,
    however many words share it, and a word stops at its first zero step.
    """
    sums = {}
    stack = [(tree, state, 1)]
    while stack:
        (children, ends), state, coeff = stack.pop()
        for pos, c in ends:
            key = pos, state
            sums[key] = sums.get(key, 0) + coeff * c
        if children:
            memo = images.get(state)
            if memo is None:
                memo = images[state] = _one_state(state), {}
            vec, table = memo
            for op, child in children.items():
                image = table.get(op)
                if image is None:
                    name, k = op
                    image = cliff.phi(vec, ctx) if name == "phi" else _OPERATORS[name](k, vec, ctx)
                    image = table[op] = tuple(image.terms.items())
                for target, v in image:
                    stack.append((child, target, coeff * v))
    return sums


def _image(side, state, images, ctx):
    """One side's image of one basis state, {target: coeff}, from a one-row tree."""
    sums = _sums(_tree([(None, side, "0")]), state, images, ctx)
    return {t: v for (_, t), v in sums.items() if v}


# ---------------------------------------------------------------------------
# suites


def _table_suite(suite):
    """The bounded suite of one identity table: a function of one RankTables."""
    def check(tables: RankTables) -> list:
        return _table_entries(suite, tables)
    return check


# module-level names: the benchmark's tracer wraps each suite function by its name here
check_chevalley = _table_suite("chevalley")
check_serre = _table_suite("serre")
check_clifford = _table_suite("clifford")
check_factorization = _table_suite("factorization")


def check_intertwiner(tables: RankTables) -> list:
    """The dictionary is a basis bijection, then the intertwiner table's rows."""
    P = tables.matrix("phi")
    size = len(tables.sbasis)
    cells = P.entries
    ok_bijection = (
        P.nnz == size
        and all(v == 1 for v in cells.values())
        and len({i for (i, _) in cells}) == size
        and len({j for (_, j) in cells}) == size
    )
    label = "phi is a basis bijection (all coefficients 1)"
    entries = [_entry(label, ok_bijection, "phi matrix nnz=%d" % P.nnz)]
    return entries + _table_entries("intertwiner", tables)


def _f_closure(start, down):
    """The basis positions reachable from start along down, {column: [rows]}."""
    seen = {start}
    frontier = [start]
    while frontier:
        for i in down.get(frontier.pop(), ()):
            if i not in seen:
                seen.add(i)
                frontier.append(i)
    return seen


def check_module_structure(tables: RankTables) -> list:
    """Generation, block decomposition, multiplicities and wedge parity.

    The lowering closure follows the rank's F_k tables; the blocks and
    their parities are read from its shape basis, and the weights are the
    Cartan-route weights that the weights suite compares with.
    """
    ctx, basis = tables.ctx, tables.sbasis
    n = ctx.n
    signs = (PLUS, MINUS)
    entries = []
    half_dim = 2 ** (n - 1)
    down = {}
    for k in range(1, n + 1):
        for i, j in tables.matrix(_op("F", k)).entries:
            down.setdefault(j, []).append(i)
    expected = {sign: {s for s in basis.states if s[0] is sign} for sign in signs}
    blocks = {}
    for sign in signs:
        reachable = _f_closure(basis.index[sign, ()], down)
        blocks[sign] = {basis.states[i] for i in reachable}
        label = "lowering closure from (%s,-) spans %d states" % (sign, half_dim)
        entries.append(_entry(label, len(reachable) == half_dim, "got %d states" % len(reachable)))
    for sign in signs:
        diff = sorted(format_basis_state(s) for s in blocks[sign] ^ expected[sign])
        label = "closure from (%s,-) is exactly the %s block" % (sign, sign)
        entries.append(_entry(label, not diff, "difference: %s" % diff))
    for sign in signs:
        # exact integer keys: a Fraction keeps (numerator, denominator) in
        # lowest terms, and hashing it would recompute a modular inverse
        weights = [w for s, w in zip(basis.states, tables.weights) if s[0] is sign]
        keys = [tuple((c.numerator, c.denominator) for c in w) for w in weights]
        label = "weights in the %s block are pairwise distinct" % sign
        entries.append(_entry(label, len(set(keys)) == len(keys), "a weight repeats"))
    # wedge parity: image sizes under the basis dictionary
    parities = {sign: {len(cliff.phi_state(s, ctx)) % 2 for s in expected[sign]} for sign in signs}
    label = "plus block fills the even wedge part, minus the odd (every rank)"
    witness = "parities: plus=%s minus=%s" % (sorted(parities[PLUS]), sorted(parities[MINUS]))
    entries.append(_entry(label, parities[PLUS] == {0} and parities[MINUS] == {1}, witness))
    # A rank-parity variant of the matching rule is pinned here as a
    # regression: it happens to agree for even n and is wrong for odd n.
    even_block_sign = PLUS if parities[PLUS] == {0} else MINUS
    variant_expected = PLUS if n % 2 == 0 else MINUS
    label = "rank-parity variant: even wedge part is the %s block" % variant_expected
    witness = "even wedge part is the %s block for every rank" % even_block_sign
    entries.append(_entry(label, even_block_sign == variant_expected, witness, expected_fail=n % 2 == 1))
    return entries


def _wedge_weight(state, ctx: RankContext) -> tuple:
    return cliff.fock_weight(cliff.phi_state(state, ctx), ctx)


def weight_routes() -> list:
    """The four independent weight routes as (name, route), the reference first.

    Built on each call rather than held in a module-level tuple, so that
    each route is looked up on its module when it is used.
    """
    return [
        ("cartan eigenvalue route", spinrep.weight_eps),
        ("simple-root route", spinrep.weight_eps_alpha),
        ("closed form", spinrep.weight_eps_closed),
        ("wedge-side weight", _wedge_weight),
    ]


def _weight_witness(routes, states, wants, ctx: RankContext):
    """The witness of the first (state, route), states outermost, whose weight differs from wants."""
    for state, want in zip(states, wants):
        for name, route in routes:
            got = route(state, ctx)
            if got != want:
                return _pointwise_witness(name, state, format_dim_vector(got), format_dim_vector(want))
    return None


def check_weight_consistency(tables: RankTables) -> list:
    """All weight routes agree on every basis state; the near-miss variant is pinned."""
    ctx, basis = tables.ctx, tables.sbasis
    entries = []
    routes = weight_routes()
    reference_name = routes[0][0]
    wants = tables.weights
    for name, route in routes[1:]:
        bad = _weight_witness([(name, route)], basis.states, wants, ctx)
        label = "%s agrees with %s on all %d states" % (name, reference_name, len(basis))
        entries.append(_entry(label, bad is None, bad))
    variant = spinrep.weight_eps_halved_variant
    deviates = all(variant(state, ctx) != want for state, want in zip(basis.states, wants) if state[1])
    label = "halved-row-sum variant deviates on every non-empty shape"
    entries.append(_entry(label, deviates, "variant coincides somewhere"))
    if ctx.n == 4:
        pinned = (PLUS, (2,))
        got = variant(pinned, ctx)
        want = wants[basis.index[pinned]]
        entries.append(
            _entry(
                "halved-row-sum variant matches at (plus,2)",
                got == want,
                "variant gives %s, consistent routes give %s"
                % (format_dim_vector(got), format_dim_vector(want)),
                expected_fail=True,
            )
        )
    return entries


def check_faithfulness(tables: RankTables) -> list:
    """The 4^n normal-ordered monomials act independently on the wedge space."""
    n = tables.ctx.n
    if n > 4:
        return [_skip_entry("monomial actions have rank 4^%d" % n, "desk-scale check runs for rank at most 4")]
    ctx, fbasis = tables.ctx, tables.fbasis
    size = len(fbasis)
    flat = {}
    count = 0
    for creators in fbasis.states:
        for annihilators in fbasis.states:
            x = CliffordElement.monomial(creators, annihilators)
            for j, vec in enumerate(fbasis.vectors):
                image = cliff.act(x, vec, ctx)
                for target, coeff in image.terms.items():
                    flat[(count, fbasis.index[target] * size + j)] = coeff
            count += 1
    matrix = ExactMatrix(count, size * size, flat)
    rank = matrix.rank()
    label = "the %d monomial action matrices are linearly independent" % count
    return [_entry(label, rank == 4**n, "rank %d, expected %d" % (rank, 4**n))]


# ---------------------------------------------------------------------------
# rank-free mode: the same tables, pointwise on a box-capped state family


def _format_side(comb):
    """The text of a combination {state: coeff}: a wedge vector when its states are wedge subsets."""
    if any(isinstance(state, frozenset) for state in comb):
        return cliff.format_fock_vector(FockVector(comb))
    return spinrep.format_spin_vector(SpinVector(comb))


def check_dinfty(max_boxes: int, n: int):
    """Re-run the operator identities on all shapes with at most max_boxes boxes.

    The operators never need the full rank-n state space, so the identities
    can be evaluated exactly on the capped family inside a large ambient
    rank; agreement here is what makes the rank-free limit well defined.
    The rows of every table of `IDENTITY_TABLES`, each tagged with its
    table, become one prefix tree of parsed operators once per call (`_tree`).
    For one basis state (one column) at a time, one walk of the tree sums
    every row's lhs minus rhs (`_sums`); a row fails when its sum is not
    zero.  A family's witness is taken at the first state where one of its
    rows fails, from its first failing row in table order, its two sides
    walked again as one-row trees (`_image`) and printed as wedge or shape
    vectors by their states; a family that has failed is still walked.  A
    column's images are held in one plain dict, {state: (one-state vector,
    images)}, each image computed once and dropped with the column, since a
    memo kept for the whole run costs memory for little more reuse.  The
    weight family reads no images: its routes are compared after the
    columns, over all states at once (`_weight_witness`).  A capped shape's rows end at vertices
    k >= n - max_boxes, so a fault far below that lies outside this mode.
    """
    t0 = time.perf_counter()
    ctx = RankContext(n)
    states = truncated_spin_basis(ctx, max_boxes).states
    tagged = [(suite, row) for suite in IDENTITY_TABLES for row in identities(suite, ctx)]
    tree = _tree([row for _, row in tagged])
    bad = {}  # suite -> witness of the table's first failure
    for state in states:
        images = {}
        for pos in sorted(pos for (pos, _), v in _sums(tree, state, images, ctx).items() if v):
            suite, (label, lhs, rhs) = tagged[pos]
            if suite not in bad:
                got, want = (_format_side(_image(side, state, images, ctx)) for side in (lhs, rhs))
                bad[suite] = _pointwise_witness(label, state, got, want)
    routes = weight_routes()
    wants = (routes[0][1](state, ctx) for state in states)
    families = [(family, bad.get(suite)) for suite, (_, _, family) in IDENTITY_TABLES.items()]
    families.append(("weight routes agree", _weight_witness(routes[1:], states, wants, ctx)))
    entries = [_entry("%s (pointwise on %d states)" % (family, len(states)), witness is None, witness)
               for family, witness in families]
    return _finalize("dinfty", n, entries, t0, max_boxes=max_boxes, mode="truncated")


SUITES = {
    "chevalley": check_chevalley,
    "serre": check_serre,
    "clifford": check_clifford,
    "intertwiner": check_intertwiner,
    "factorization": check_factorization,
    "module": check_module_structure,
    "weights": check_weight_consistency,
    "faithfulness": check_faithfulness,
}

SUITE_NAMES = tuple(sorted(SUITES))


def run_suites(names, ranks):
    """Run the named suites over the ranks; reports sorted by suite then rank.

    The ranks run one at a time, and the suites of a rank share its
    `RankTables`, which is dropped before the next rank is built.  Each
    suite is timed here and its entries filed as its report.
    """
    for name in names:
        if name not in SUITES:
            raise ValueError("unknown suite %r (choose from %s)" % (name, ", ".join(SUITE_NAMES)))
    reports = []
    for n in ranks:
        tables = RankTables(n)
        for name in sorted(set(names)):
            t0 = time.perf_counter()
            reports.append(_finalize(name, n, SUITES[name](tables), t0))
    reports.sort(key=lambda r: (r["suite"], r["n"]))
    return reports


def all_pass(reports) -> bool:
    return all(r["status"] == "pass" for r in reports)
