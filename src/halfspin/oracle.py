"""Exact verification engine for the two models.

Everything here reduces claims about the operators to finite linear
algebra over the rationals, reporting pass/fail per identity with a
concrete witness on failure.

The operator identities (Chevalley and degree-bound relations, ladder
anticommutators, the dictionary's intertwining, the quadratic
factorization) are declared once, in the table of `identities`, as
expressions over operator names.  Two evaluators read it.  The bounded
suites tabulate each operator as a sparse exact matrix over the whole
rank-n basis and compare matrices.  The rank-free `check_dinfty` applies
both sides to one box-capped basis state at a time.  The module, weight
and faithfulness suites are written out on their own.

The suites of one `run_suites` call share one `RankTables` per rank: one
rank context, one shape and one wedge basis, one `phi` matrix and one
table of operator matrices, each built on first use and dropped before
the next rank starts.  A suite called on its own builds its own.

Reports are plain dicts, deterministic for a given (suite, rank), with
entry statuses pass / fail / xfail / xpass / skip.  An xfail entry is a
pinned, documented deviation (a regression guard): it does not fail the
suite, but its unexpected success (xpass) does.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction
from functools import cached_property

from .diagram import (
    Sign,
    enumerate_diagrams,
    enumerate_diagrams_by_boxes,
    format_fock_index,
)
from .quiver import RankContext
from . import spinrep
from . import clifford as cliff
from .spinrep import SpinVector, exact, format_basis_state
from .clifford import CliffordElement, FockVector


class ExactMatrix:
    """Sparse rational matrix; no stored zeros, exact arithmetic only.

    An entry is an int when integral and a Fraction otherwise.
    """

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows, ncols, entries=None):
        self.nrows = nrows
        self.ncols = ncols
        data = {}
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < nrows and 0 <= j < ncols):
                    raise ValueError("entry (%d,%d) out of bounds %dx%d" % (i, j, nrows, ncols))
                v = exact(v)
                if v != 0:
                    data[(i, j)] = v
        self.entries = data

    @classmethod
    def identity(cls, size):
        return cls(size, size, {(i, i): 1 for i in range(size)})

    @classmethod
    def zero(cls, nrows, ncols):
        return cls(nrows, ncols)

    def entry(self, i, j):
        return self.entries.get((i, j), 0)

    def is_zero(self):
        return not self.entries

    @property
    def nnz(self):
        return len(self.entries)

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def __add__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = out.get(k, 0) + v
        return ExactMatrix(self.nrows, self.ncols, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ExactMatrix(self.nrows, self.ncols, {k: -v for k, v in self.entries.items()})

    def scale(self, scalar):
        scalar = exact(scalar)
        return ExactMatrix(
            self.nrows, self.ncols, {k: scalar * v for k, v in self.entries.items()}
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch for product")
        by_row = {}
        for (j, k), v in other.entries.items():
            by_row.setdefault(j, []).append((k, v))
        out = {}
        for (i, j), a in self.entries.items():
            for k, b in by_row.get(j, ()):
                key = (i, k)
                out[key] = out.get(key, 0) + a * b
        return ExactMatrix(self.nrows, other.ncols, out)

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def rank(self):
        """Exact rank by fraction-free-enough Gaussian elimination."""
        rows = {}
        for (i, j), v in self.entries.items():
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


def commutator(x, y):
    return x * y - y * x


def anticommutator(x, y):
    return x * y + y * x


class IndexedBasis:
    """Ordered basis with a position map; label turns states into text."""

    def __init__(self, states, label=str):
        self.states = list(states)
        self.index = {s: i for i, s in enumerate(self.states)}
        if len(self.index) != len(self.states):
            raise ValueError("repeated basis state")
        self.label = label

    def __len__(self):
        return len(self.states)

    def position(self, state):
        return self.index[state]


def spin_basis(ctx: RankContext) -> IndexedBasis:
    """All 2^n basis states: the plus block first, then the minus block."""
    states = [(Sign.PLUS, rows) for rows in enumerate_diagrams(ctx.n)]
    states += [(Sign.MINUS, rows) for rows in enumerate_diagrams(ctx.n)]
    return IndexedBasis(states, label=format_basis_state)


def truncated_spin_basis(ctx: RankContext, max_boxes: int) -> IndexedBasis:
    shapes = enumerate_diagrams_by_boxes(max_boxes)
    for rows in shapes:
        if rows and rows[0] > ctx.n - 1:
            raise ValueError(
                "box cap %d needs rank > %d, got %d" % (max_boxes, rows[0], ctx.n)
            )
    states = [(Sign.PLUS, rows) for rows in shapes]
    states += [(Sign.MINUS, rows) for rows in shapes]
    return IndexedBasis(states, label=format_basis_state)


def fock_basis(ctx: RankContext) -> IndexedBasis:
    subsets = []
    for size in range(ctx.n + 1):
        subsets.extend(itertools.combinations(range(1, ctx.n + 1), size))
    subsets.sort(key=lambda s: (len(s), s))
    return IndexedBasis([frozenset(s) for s in subsets], label=format_fock_index)


# the operators that act on the wedge side
WEDGE_OPS = ("create", "annihilate")

_SPIN_OPS = {
    "E": spinrep.apply_E,
    "F": spinrep.apply_F,
    "H": spinrep.apply_H,
    "a": spinrep.geometric_a,
    "b": spinrep.geometric_b,
}


def parse_operator_token(token: str):
    """Split an operator token like "F_4", "a_1", "kappa" into (name, index)."""
    token = token.strip()
    if token in ("kappa", "identity", "id"):
        return ("identity" if token == "id" else token, None)
    name, sep, idx = token.partition("_")
    if sep and name in ("E", "F", "H", "a", "b") + WEDGE_OPS:
        try:
            return (name, int(idx))
        except ValueError:
            pass
    raise ValueError("unknown operator token %r" % token)


def apply_spin_operator(name, k, vec: SpinVector, ctx: RankContext) -> SpinVector:
    if name == "kappa":
        return spinrep.kappa(vec, ctx)
    if name == "identity":
        return vec
    if name in _SPIN_OPS:
        return _SPIN_OPS[name](k, vec, ctx)
    raise ValueError("unknown spin operator %r" % name)


def apply_fock_operator(name, k, vec: FockVector, ctx: RankContext) -> FockVector:
    if name == "identity":
        return vec
    if name == "create":
        return cliff.create(k, vec, ctx)
    if name == "annihilate":
        return cliff.annihilate(k, vec, ctx)
    raise ValueError("unknown wedge-side operator %r" % name)


def operator_matrix(op: str, basis: IndexedBasis, ctx: RankContext) -> ExactMatrix:
    """Tabulate a named operator over the basis; column j is the image of state j."""
    name, k = parse_operator_token(op)
    size = len(basis)
    entries = {}
    for j, state in enumerate(basis.states):
        if name in WEDGE_OPS:
            vec = apply_fock_operator(name, k, FockVector.from_index(state), ctx)
        else:
            vec = apply_spin_operator(name, k, SpinVector.from_state(*state), ctx)
        for target, coeff in vec.terms.items():
            entries[(basis.position(target), j)] = coeff
    return ExactMatrix(size, size, entries)


def phi_matrix(ctx: RankContext, sbasis: IndexedBasis, fbasis: IndexedBasis) -> ExactMatrix:
    entries = {}
    for j, state in enumerate(sbasis.states):
        entries[(fbasis.position(cliff.phi_state(state, ctx)), j)] = 1
    return ExactMatrix(len(fbasis), len(sbasis), entries)


class RankTables:
    """What the bounded suites of one rank read, each part built on first use.

    `matrix` tabulates an operator token once and hands the same matrix to
    every later caller; "0", "1" and "phi" name the zero and identity maps
    of the shape space and the dictionary's matrix.
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
    def phi(self) -> ExactMatrix:
        return phi_matrix(self.ctx, self.sbasis, self.fbasis)

    def matrix(self, token: str) -> ExactMatrix:
        m = self._matrices.get(token)
        if m is None:
            if token == "phi":
                m = self.phi
            elif token in ("0", "1"):
                size = len(self.sbasis)
                m = ExactMatrix.identity(size) if token == "1" else ExactMatrix.zero(size, size)
            else:
                name, _ = parse_operator_token(token)
                basis = self.fbasis if name in WEDGE_OPS else self.sbasis
                m = operator_matrix(token, basis, self.ctx)
            self._matrices[token] = m
        return m


def _rank_tables(n, tables):
    """The shared tables of rank n, or fresh ones when the suite runs alone."""
    if tables is None:
        return RankTables(n)
    if tables.ctx.n != n:
        raise ValueError("tables of rank %d handed to a rank-%d suite" % (tables.ctx.n, n))
    return tables


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


def identities(suite: str, ctx: RankContext) -> list:
    """The operator identities of one suite at rank ctx.n, as (label, lhs, rhs)."""
    n = ctx.n
    vertices = range(1, n + 1)
    rows = []
    if suite == "chevalley":
        for i in vertices:
            for j in vertices:
                want = _op("H", i) if i == j else "0"
                label = "[E_%d,F_%d] = %s" % (i, j, want)
                rows.append((label, ("commutator", _op("E", i), _op("F", j)), want))
        for i in vertices:
            for j in vertices:
                c = ctx.cartan_entry(i, j)
                for x, scale in (("E", c), ("F", -c)):
                    xj = _op(x, j)
                    label = "[H_%d,%s] = %d %s" % (i, xj, scale, xj)
                    rows.append((label, ("commutator", _op("H", i), xj), ("scale", scale, xj)))
        for i in vertices:
            for j in range(i + 1, n + 1):
                label = "[H_%d,H_%d] = 0" % (i, j)
                rows.append((label, ("commutator", _op("H", i), _op("H", j)), "0"))
    elif suite == "serre":
        for i in vertices:
            for j in vertices:
                if i == j:
                    continue
                for x in "EF":
                    xi, xj = _op(x, i), _op(x, j)
                    if ctx.adjacent(i, j):
                        label = "ad(%s)^2 %s = 0" % (xi, xj)
                        rows.append((label, ("commutator", xi, ("commutator", xi, xj)), "0"))
                    else:
                        rows.append(("[%s,%s] = 0" % (xi, xj), ("commutator", xi, xj), "0"))
    elif suite == "clifford":
        for i in vertices:
            for j in range(i, n + 1):
                for x in "ab":
                    xi, xj = _op(x, i), _op(x, j)
                    rows.append(("{%s,%s} = 0" % (xi, xj), ("anticommutator", xi, xj), "0"))
        for i in vertices:
            for j in vertices:
                want = "1" if i == j else "0"
                label = "{a_%d,b_%d} = %s" % (i, j, want)
                rows.append((label, ("anticommutator", _op("a", i), _op("b", j)), want))
    elif suite == "intertwiner":
        for k in vertices:
            for ladder, twin in (("a", "annihilate"), ("b", "create")):
                x, y = _op(ladder, k), _op(twin, k)
                label = "phi %s = %s phi" % (x, y)
                rows.append((label, ("product", "phi", x), ("product", y, "phi")))
    elif suite == "factorization":
        words = []
        for k in range(1, n):
            words.append((_op("E", k), _op("b", k + 1), _op("a", k)))
            words.append((_op("F", k), _op("b", k), _op("a", k + 1)))
        words.append((_op("E", n), _op("a", n), _op("a", n - 1)))
        words.append((_op("F", n), _op("b", n - 1), _op("b", n)))
        rows = [("%s = %s %s" % (x, p, q), x, ("product", p, q)) for x, p, q in words]
    else:
        raise ValueError("no identity table for suite %r" % suite)
    return rows


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
    return commutator(x, y) if op == "commutator" else anticommutator(x, y)


def _table_entries(suite, tables, rows):
    """The bounded evaluator: every row of the suite's table, as exact matrices.

    Tokens are tabulated by tables, once per rank.  The sides map the shape
    basis to rows, the shape or the wedge basis, which labels the witnesses.
    """
    entries = []
    for label, lhs, rhs in identities(suite, tables.ctx):
        got, want = _matrix(lhs, tables.matrix), _matrix(rhs, tables.matrix)
        ok = got == want
        entries.append(
            _entry(label, ok, None if ok else _matrix_witness(got, want, rows, tables.sbasis))
        )
    return entries


def _apply_token(token: str, vec, ctx: RankContext):
    """One table token applied to a shape or wedge vector."""
    if token == "0":
        return vec.scale(0)
    if token == "1":
        return vec
    if token == "phi":
        return cliff.phi(vec, ctx)
    name, k = parse_operator_token(token)
    if name in WEDGE_OPS:
        return apply_fock_operator(name, k, vec, ctx)
    return apply_spin_operator(name, k, vec, ctx)


def _image(expr, vec, images, ctx):
    """Rank-free evaluator of one side: its image of vec.

    images caches each token's image of each vector it has met; the caller
    keeps it for one column only.
    """
    if isinstance(expr, str):
        key = (expr, vec)
        if key not in images:
            images[key] = _apply_token(expr, vec, ctx)
        return images[key]
    op, x, y = expr
    if op == "scale":
        return _image(y, vec, images, ctx).scale(x)
    xy = _image(x, _image(y, vec, images, ctx), images, ctx)
    if op == "product":
        return xy
    yx = _image(y, _image(x, vec, images, ctx), images, ctx)
    return xy - yx if op == "commutator" else xy + yx


# ---------------------------------------------------------------------------
# suites


def _bounded_suite(suite, n, tables):
    t0 = time.perf_counter()
    tables = _rank_tables(n, tables)
    return _finalize(suite, n, _table_entries(suite, tables, tables.sbasis), t0)


def check_chevalley(n: int, tables=None):
    """[E_i,F_j] = delta_ij H_i and the H brackets, as exact matrices."""
    return _bounded_suite("chevalley", n, tables)


def check_serre(n: int, tables=None):
    """Degree bounds on the raising/lowering operators between vertices."""
    return _bounded_suite("serre", n, tables)


def check_clifford(n: int, tables=None):
    """Anticommutation of the row ladder operators on the shape basis."""
    return _bounded_suite("clifford", n, tables)


def check_intertwiner(n: int, tables=None):
    """The basis dictionary carries each ladder operator to its wedge twin."""
    t0 = time.perf_counter()
    tables = _rank_tables(n, tables)
    P = tables.phi
    size = len(tables.sbasis)
    ok_bijection = (
        P.nnz == size
        and all(v == 1 for v in P.entries.values())
        and len({i for (i, _) in P.entries}) == size
        and len({j for (_, j) in P.entries}) == size
    )
    entries = [
        _entry(
            "phi is a basis bijection (all coefficients 1)",
            ok_bijection,
            None if ok_bijection else "phi matrix nnz=%d" % P.nnz,
        )
    ]
    entries += _table_entries("intertwiner", tables, tables.fbasis)
    return _finalize("intertwiner", n, entries, t0)


def check_factorization(n: int, tables=None):
    """Chevalley operators factor through quadratic ladder words."""
    return _bounded_suite("factorization", n, tables)


def _f_closure(sign: Sign, ctx: RankContext):
    seen = {(sign, ())}
    frontier = [(sign, ())]
    while frontier:
        state = frontier.pop()
        vec = SpinVector.from_state(*state)
        for k in range(1, ctx.n + 1):
            image = spinrep.apply_F(k, vec, ctx)
            for target in image.terms:
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
    return seen


def check_module_structure(n: int, tables=None):
    """Generation, block decomposition, multiplicities and wedge parity."""
    t0 = time.perf_counter()
    ctx = _rank_tables(n, tables).ctx
    entries = []
    half_dim = 2 ** (n - 1)
    blocks = {}
    for sign in (Sign.PLUS, Sign.MINUS):
        reachable = _f_closure(sign, ctx)
        blocks[sign] = reachable
        entries.append(
            _entry(
                "lowering closure from (%s,-) spans %d states" % (sign, half_dim),
                len(reachable) == half_dim,
                "got %d states" % len(reachable),
            )
        )
    for sign in (Sign.PLUS, Sign.MINUS):
        expected = {(sign, rows) for rows in enumerate_diagrams(n)}
        entries.append(
            _entry(
                "closure from (%s,-) is exactly the %s block" % (sign, sign),
                blocks[sign] == expected,
                "difference: %s"
                % sorted(
                    format_basis_state(s) for s in blocks[sign] ^ expected
                ),
            )
        )
    for sign in (Sign.PLUS, Sign.MINUS):
        weights = [
            spinrep.weight_eps((sign, rows), ctx) for rows in enumerate_diagrams(n)
        ]
        ok = len(set(weights)) == len(weights)
        entries.append(
            _entry(
                "weights in the %s block are pairwise distinct" % sign,
                ok,
                None if ok else "a weight repeats",
            )
        )
    # wedge parity: image sizes under the basis dictionary
    parities = {
        sign: {
            len(cliff.phi_state((sign, rows), ctx)) % 2
            for rows in enumerate_diagrams(n)
        }
        for sign in (Sign.PLUS, Sign.MINUS)
    }
    derived_ok = parities[Sign.PLUS] == {0} and parities[Sign.MINUS] == {1}
    entries.append(
        _entry(
            "plus block fills the even wedge part, minus the odd (every rank)",
            derived_ok,
            "parities: plus=%s minus=%s"
            % (sorted(parities[Sign.PLUS]), sorted(parities[Sign.MINUS])),
        )
    )
    # A rank-parity variant of the matching rule is pinned here as a
    # regression: it happens to agree for even n and is wrong for odd n.
    even_block_sign = Sign.PLUS if parities[Sign.PLUS] == {0} else Sign.MINUS
    variant_expected = Sign.PLUS if n % 2 == 0 else Sign.MINUS
    variant_ok = even_block_sign == variant_expected
    entries.append(
        _entry(
            "rank-parity variant: even wedge part is the %s block" % variant_expected,
            variant_ok,
            "even wedge part is the %s block for every rank" % even_block_sign,
            expected_fail=(n % 2 == 1),
        )
    )
    return _finalize("module", n, entries, t0)


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


def check_weight_consistency(n: int, tables=None):
    """All weight routes agree on every basis state; the near-miss variant is pinned."""
    t0 = time.perf_counter()
    tables = _rank_tables(n, tables)
    ctx, basis = tables.ctx, tables.sbasis
    entries = []
    routes = weight_routes()
    reference_name, reference = routes[0]
    for name, route in routes[1:]:
        bad = None
        for state in basis.states:
            got = route(state, ctx)
            want = reference(state, ctx)
            if got != want:
                bad = "state %s: %s gives %s, %s gives %s" % (
                    format_basis_state(state),
                    name,
                    _format_eps(got),
                    reference_name,
                    _format_eps(want),
                )
                break
        entries.append(
            _entry(
                "%s agrees with %s on all %d states" % (name, reference_name, len(basis)),
                bad is None,
                bad,
            )
        )
    deviates_everywhere = all(
        spinrep.weight_eps_halved_variant(state, ctx) != reference(state, ctx)
        for state in basis.states
        if state[1]
    )
    entries.append(
        _entry(
            "halved-row-sum variant deviates on every non-empty shape",
            deviates_everywhere,
            "variant coincides somewhere",
        )
    )
    if n == 4:
        pinned = (Sign.PLUS, (2,))
        got = spinrep.weight_eps_halved_variant(pinned, ctx)
        want = reference(pinned, ctx)
        entries.append(
            _entry(
                "halved-row-sum variant matches at (plus,2)",
                got == want,
                "variant gives %s, consistent routes give %s"
                % (_format_eps(got), _format_eps(want)),
                expected_fail=True,
            )
        )
    return _finalize("weights", n, entries, t0)


def _format_eps(eps):
    return "(%s)" % ",".join(str(c) for c in eps)


def check_faithfulness(n: int, tables=None):
    """The 4^n normal-ordered monomials act independently on the wedge space."""
    t0 = time.perf_counter()
    entries = []
    if n > 4:
        entries.append(
            _skip_entry(
                "monomial actions have rank 4^%d" % n,
                "desk-scale check runs for rank at most 4",
            )
        )
        return _finalize("faithfulness", n, entries, t0)
    tables = _rank_tables(n, tables)
    ctx, fbasis = tables.ctx, tables.fbasis
    size = len(fbasis)
    subsets = []
    for r in range(n + 1):
        subsets.extend(itertools.combinations(range(1, n + 1), r))
    flat = {}
    count = 0
    for creators in subsets:
        for annihilators in subsets:
            x = CliffordElement.monomial(creators, annihilators)
            for j, idx in enumerate(fbasis.states):
                image = cliff.act(x, FockVector.from_index(idx), ctx)
                for target, coeff in image.terms.items():
                    flat[(count, fbasis.position(target) * size + j)] = coeff
            count += 1
    matrix = ExactMatrix(count, size * size, flat)
    rank = matrix.rank()
    entries.append(
        _entry(
            "the %d monomial action matrices are linearly independent" % count,
            rank == 4**n,
            "rank %d, expected %d" % (rank, 4**n),
        )
    )
    return _finalize("faithfulness", n, entries, t0)


# ---------------------------------------------------------------------------
# rank-free mode: the same table, pointwise on a box-capped state family

# one entry per family: the rows of a suite's identity table, or the weight routes
_DINFTY_FAMILIES = (
    ("chevalley", "Chevalley brackets on all pairs"),
    ("serre", "degree bounds between vertices"),
    ("clifford", "ladder anticommutators"),
    ("intertwiner", "dictionary intertwines the ladder operators"),
    ("factorization", "quadratic factorization of E/F"),
    ("weights", "weight routes agree"),
)


def _format_vector(vec):
    if isinstance(vec, FockVector):
        return cliff.format_fock_vector(vec)
    return spinrep.format_spin_vector(vec)


def _pointwise_witness(identity, state, got, want):
    return "%s at state %s: got %s, expected %s" % (identity, format_basis_state(state), got, want)


def check_dinfty(max_boxes: int = 6, n: int = 12):
    """Re-run the operator identities on all shapes with at most max_boxes boxes.

    The operators never need the full rank-n state space, so the identities
    can be evaluated exactly on the capped family inside a large ambient
    rank; agreement here is what makes the rank-free limit well defined.
    Both sides of every row are applied to one basis state (one column) at
    a time; the operator images are cached for that column only, since a
    cache kept for the whole run costs memory for little more reuse.
    """
    t0 = time.perf_counter()
    ctx = RankContext(n)
    states = truncated_spin_basis(ctx, max_boxes).states
    tables = [(s, identities(s, ctx)) for s, _ in _DINFTY_FAMILIES if s != "weights"]
    routes = weight_routes()
    bad = {}  # suite -> witness of the family's first failure
    for state in states:
        x = SpinVector.from_state(*state)
        images = {}
        for suite, rows in tables:
            if suite in bad:
                continue
            for label, lhs, rhs in rows:
                got, want = _image(lhs, x, images, ctx), _image(rhs, x, images, ctx)
                if got != want:
                    bad[suite] = _pointwise_witness(
                        label, state, _format_vector(got), _format_vector(want)
                    )
                    break
        if "weights" not in bad:
            want = routes[0][1](state, ctx)
            for name, route in routes[1:]:
                got = route(state, ctx)
                if got != want:
                    bad["weights"] = _pointwise_witness(
                        name, state, _format_eps(got), _format_eps(want)
                    )
                    break
    entries = []
    for suite, family in _DINFTY_FAMILIES:
        label = "%s (pointwise on %d states)" % (family, len(states))
        entries.append(_entry(label, suite not in bad, bad.get(suite)))
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
    `RankTables`, which is dropped before the next rank is built.
    """
    for name in names:
        if name not in SUITES:
            raise ValueError("unknown suite %r (choose from %s)" % (name, ", ".join(SUITE_NAMES)))
    reports = []
    for n in ranks:
        tables = RankTables(n)
        for name in sorted(set(names)):
            reports.append(SUITES[name](n, tables))
    reports.sort(key=lambda r: (r["suite"], r["n"]))
    return reports


def all_pass(reports) -> bool:
    return all(r["status"] == "pass" for r in reports)
