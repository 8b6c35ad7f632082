"""The exact linear-algebra engine and the verification suites."""

import io
import json
import re
from collections import Counter
from fractions import Fraction

import pytest

from halfspin.diagram import Sign
from halfspin.quiver import RankContext
from halfspin import cli, oracle
from halfspin.oracle import (
    ExactMatrix,
    IndexedBasis,
    spin_basis,
    truncated_spin_basis,
    fock_basis,
    parse_operator_token,
    operator_matrix,
    run_suites,
    all_pass,
    SUITE_NAMES,
)


def transpose(m):
    return ExactMatrix(m.ncols, m.nrows, {(j, i): v for (i, j), v in m.entries.items()})


def test_matrix_construction():
    m = ExactMatrix(2, 3, {(0, 0): 1, (1, 2): Fraction(1, 2), (0, 1): 0})
    assert m.nnz == 2  # stored zeros are dropped
    assert m.entry(0, 0) == 1
    assert m.entry(0, 1) == 0
    assert m.nnz != 0
    assert ExactMatrix.zero(2, 2).nnz == 0
    with pytest.raises(ValueError):
        ExactMatrix(2, 2, {(2, 0): 1})


def test_matrix_arithmetic():
    a = ExactMatrix(2, 2, {(0, 0): 1, (0, 1): 2})
    b = ExactMatrix(2, 2, {(0, 1): 1, (1, 0): 3})
    assert (a + b).entries == {(0, 0): 1, (0, 1): 3, (1, 0): 3}
    assert (a - a).nnz == 0
    assert (-b).entry(1, 0) == -3
    assert a.scale(Fraction(1, 2)).entry(0, 1) == 1
    assert (2 * a).entry(0, 0) == 2
    assert (a * 2).entry(0, 1) == 4
    prod = a * b
    assert prod.entries == {(0, 0): 6, (0, 1): 1}
    ident = ExactMatrix.identity(2)
    assert ident * a == a
    assert a * ident == a
    assert transpose(a).entries == {(0, 0): 1, (1, 0): 2}
    with pytest.raises(ValueError):
        a + ExactMatrix(3, 2)
    with pytest.raises(ValueError):
        a * ExactMatrix(3, 3)


def test_matrix_rank():
    assert ExactMatrix.identity(5).rank() == 5
    assert ExactMatrix.zero(4, 4).rank() == 0
    assert ExactMatrix(2, 2, {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 4}).rank() == 1
    m = ExactMatrix(
        3,
        3,
        {
            (0, 0): 1,
            (0, 1): 2,
            (0, 2): 3,
            (1, 0): 4,
            (1, 1): 5,
            (1, 2): 6,
            (2, 0): 7,
            (2, 1): 8,
            (2, 2): 9,
        },
    )
    assert m.rank() == 2
    # exactness matters: fractions with large denominators stay exact
    tri = ExactMatrix(
        2, 2, {(0, 0): Fraction(1, 3), (0, 1): Fraction(1, 7), (1, 0): Fraction(7, 3), (1, 1): 1}
    )
    assert tri.rank() == 1


def test_rank_of_large_integer_entries_stays_exact():
    # with int entries a true division would round n / (n + 1) to the float
    # 1.0 and cancel the second row: rank 1 instead of 2
    n = 10**17
    m = ExactMatrix(2, 2, {(0, 0): n + 1, (0, 1): n, (1, 0): n, (1, 1): n - 1})
    assert m.rank() == 2
    assert all(type(v) is int for v in m.entries.values())


def test_commutators():
    a = ExactMatrix(2, 2, {(0, 1): 1})
    b = ExactMatrix(2, 2, {(1, 0): 1})
    leaf = {"a": a, "b": b}.get
    assert oracle._matrix(("commutator", "a", "b"), leaf).entries == {(0, 0): 1, (1, 1): -1}
    assert oracle._matrix(("anticommutator", "a", "b"), leaf) == ExactMatrix.identity(2)


def test_indexed_basis():
    basis = IndexedBasis(["x", "y"], str)
    assert len(basis) == 2
    assert basis.index["y"] == 1
    assert basis.states == ["x", "y"]
    with pytest.raises(ValueError):
        IndexedBasis(["x", "x"], str)


def test_spin_basis_order():
    ctx = RankContext(3)
    basis = spin_basis(ctx)
    assert basis.states == [
        (Sign.PLUS, ()),
        (Sign.PLUS, (1,)),
        (Sign.PLUS, (2,)),
        (Sign.PLUS, (2, 1)),
        (Sign.MINUS, ()),
        (Sign.MINUS, (1,)),
        (Sign.MINUS, (2,)),
        (Sign.MINUS, (2, 1)),
    ]
    assert basis.label(basis.states[3]) == "(plus,2,1)"


def test_truncated_spin_basis():
    ctx = RankContext(6)
    basis = truncated_spin_basis(ctx, 3)
    assert len(basis) == 10  # 5 shapes, both families
    assert (Sign.MINUS, (2, 1)) in basis.states
    with pytest.raises(ValueError):
        truncated_spin_basis(RankContext(3), 3)  # shape (3,) needs rank > 3
    with pytest.raises(ValueError, match=r"^box cap 10 needs rank > 10, got 5$"):
        truncated_spin_basis(RankContext(5), 10)


def test_fock_basis_order():
    ctx = RankContext(2)
    basis = fock_basis(ctx)
    assert basis.states == [
        frozenset(),
        frozenset({1}),
        frozenset({2}),
        frozenset({1, 2}),
    ]
    assert basis.label(basis.states[3]) == "{1,2}"


def test_parse_operator_token():
    assert parse_operator_token("F_4") == ("F", 4)
    assert parse_operator_token(" a_1 ") == ("a", 1)
    assert parse_operator_token("kappa") == ("kappa", None)
    assert parse_operator_token("identity") == ("identity", None)
    assert parse_operator_token("id") == ("identity", None)
    assert parse_operator_token("create_2") == ("create", 2)
    # an index is ASCII decimal digits: no "_" separators, sign or other digits
    for bad in ("G_1", "F_", "F_x", "E4", "", "F_1_0", "b_0_1", "F_+2", "F_-1", "a_\u0663"):
        with pytest.raises(ValueError):
            parse_operator_token(bad)
    # kappa and identity take no index, and phi is no operator token
    for bad in ("kappa_1", "identity_1", "id_1", "phi", "phi_1"):
        with pytest.raises(ValueError, match="unknown operator token"):
            parse_operator_token(bad)


@pytest.mark.parametrize("name", ["phi", "G"])
def test_apply_operator_refuses_a_name_outside_the_table(name):
    ctx = RankContext(4)
    with pytest.raises(ValueError, match="unknown operator '%s'" % name):
        oracle.apply_operator(name, 1, oracle._one_state((Sign.PLUS, ())), ctx)


def test_operator_matrix_f4():
    ctx = RankContext(4)
    basis = spin_basis(ctx)
    m = operator_matrix("F_4", basis, ctx)
    expected_moves = {
        ((Sign.PLUS, ()), (Sign.PLUS, (1,))),
        ((Sign.PLUS, (3, 2)), (Sign.PLUS, (3, 2, 1))),
        ((Sign.MINUS, (2,)), (Sign.MINUS, (2, 1))),
        ((Sign.MINUS, (3,)), (Sign.MINUS, (3, 1))),
    }
    got = {
        (basis.states[j], basis.states[i]): v for (i, j), v in m.entries.items()
    }
    assert set(got) == expected_moves
    assert all(v == 1 for v in got.values())


def test_operator_matrix_identity_and_kappa():
    ctx = RankContext(3)
    basis = spin_basis(ctx)
    assert operator_matrix("identity", basis, ctx) == ExactMatrix.identity(8)
    k = operator_matrix("kappa", basis, ctx)
    assert k * k == ExactMatrix.identity(8)
    assert k.nnz == 8
    assert all(v == 1 for v in k.entries.values())
    for token in ("kappa_1", "identity_2"):
        with pytest.raises(ValueError):
            operator_matrix(token, basis, ctx)


def test_operator_matrix_takes_the_general_form_for_a_two_term_image(monkeypatch):
    # no operator of the two models has one; H_k plus the family swap does
    ctx = RankContext(3)
    basis = spin_basis(ctx)
    h = operator_matrix("H_2", basis, ctx)

    def with_swap(k, vec, ctx):
        return oracle.spinrep.apply_H(k, vec, ctx) + oracle.spinrep.kappa(vec)

    monkeypatch.setitem(oracle._OPERATORS, "H", with_swap)
    m = operator_matrix("H_2", basis, ctx)
    assert m._map is None
    assert m == h + operator_matrix("kappa", basis, ctx)
    assert m.nnz == h.nnz + 8


def test_ladder_matrices_are_transposes():
    # b_k is the matrix transpose of a_k, hence E_k^T = F_k as well
    for n in (2, 3, 4):
        ctx = RankContext(n)
        basis = spin_basis(ctx)
        for k in range(1, n + 1):
            a = operator_matrix("a_%d" % k, basis, ctx)
            assert operator_matrix("b_%d" % k, basis, ctx) == transpose(a)
            e = operator_matrix("E_%d" % k, basis, ctx)
            assert operator_matrix("F_%d" % k, basis, ctx) == transpose(e)


def test_phi_matrix_is_permutation():
    for n in (2, 3, 4):
        p = oracle.RankTables(n).phi
        assert p.nnz == 2**n
        assert all(v == 1 for v in p.entries.values())
        assert p * transpose(p) == ExactMatrix.identity(2**n)


def test_entry_status_semantics():
    assert oracle._entry("x", True)["status"] == "pass"
    assert oracle._entry("x", False, "w")["status"] == "fail"
    assert oracle._entry("x", False, "w", expected_fail=True)["status"] == "xfail"
    assert oracle._entry("x", True, expected_fail=True)["status"] == "xpass"
    assert oracle._entry("x", True)["witness"] is None
    assert oracle._entry("x", False, "w")["witness"] == "w"
    assert oracle._skip_entry("x", "r") == {"identity": "x", "status": "skip", "witness": "r"}


def test_finalize_status():
    import time

    t0 = time.perf_counter()
    ok = oracle._entry("a", True)
    xf = oracle._entry("b", False, "w", expected_fail=True)
    xp = oracle._entry("c", True, expected_fail=True)
    bad = oracle._entry("d", False, "w")
    # an expected failure does not fail the suite
    r = oracle._finalize("s", 2, [ok, xf], t0)
    assert r["status"] == "pass"
    assert r["counts"] == {"pass": 1, "fail": 0, "xfail": 1, "xpass": 0, "skip": 0}
    # an unexpected pass does
    assert oracle._finalize("s", 2, [ok, xp], t0)["status"] == "fail"
    assert oracle._finalize("s", 2, [ok, bad], t0)["status"] == "fail"
    assert oracle._finalize("s", 2, [], t0, mode="truncated")["mode"] == "truncated"


def test_matrix_witness_names_states():
    ctx = RankContext(2)
    basis = spin_basis(ctx)
    got = operator_matrix("F_2", basis, ctx)
    want = ExactMatrix.zero(4, 4)
    w = oracle._matrix_witness(got, want, basis, basis)
    assert w == "entry ((plus,1) <- (plus,-)): got 1, expected 0"
    assert oracle._matrix_witness(got, got, basis, basis) is None


REPORT_KEYS = {"suite", "n", "status", "counts", "checks", "duration"}


def test_all_suites_pass_at_small_ranks():
    for n in (2, 3, 4):
        for name in SUITE_NAMES:
            report = run_suites([name], [n])[0]
            assert set(report) >= REPORT_KEYS
            assert report["suite"] == name
            assert report["n"] == n
            assert report["status"] == "pass", (name, n, report["checks"])
            assert report["counts"]["fail"] == 0
            assert report["counts"]["xpass"] == 0
            assert len(report["checks"]) == sum(report["counts"].values())
            for entry in report["checks"]:
                assert entry["status"] in ("pass", "fail", "xfail", "xpass", "skip")
                if entry["status"] == "pass":
                    assert entry["witness"] is None


def test_suite_entry_counts_n4():
    assert len(run_suites(["chevalley"], [4])[0]["checks"]) == 54
    assert len(run_suites(["serre"], [4])[0]["checks"]) == 24
    assert len(run_suites(["clifford"], [4])[0]["checks"]) == 36
    assert len(run_suites(["intertwiner"], [4])[0]["checks"]) == 9
    assert len(run_suites(["factorization"], [4])[0]["checks"]) == 8
    assert len(run_suites(["module"], [4])[0]["checks"]) == 8
    assert len(run_suites(["weights"], [4])[0]["checks"]) == 5


def test_pinned_regressions_sit_exactly_where_designed():
    # the rank-parity reading of the block/parity match fails at odd ranks
    for n, want in ((2, 0), (3, 1), (4, 0), (5, 1)):
        assert run_suites(["module"], [n])[0]["counts"]["xfail"] == want
    # the halved-row-sum weight variant is pinned at rank 4 only
    for n, want in ((2, 0), (3, 0), (4, 1), (5, 0)):
        assert run_suites(["weights"], [n])[0]["counts"]["xfail"] == want
    report = run_suites(["weights"], [4])[0]
    pinned = [e for e in report["checks"] if e["status"] == "xfail"]
    assert len(pinned) == 1
    assert "(plus,2)" in pinned[0]["identity"]
    assert "1/2" in pinned[0]["witness"]


def test_faithfulness_skips_above_rank_4():
    report = run_suites(["faithfulness"], [5])[0]
    assert report["status"] == "pass"
    assert report["counts"] == {"pass": 0, "fail": 0, "xfail": 0, "xpass": 0, "skip": 1}
    assert run_suites(["faithfulness"], [3])[0]["counts"]["pass"] == 1


def test_dinfty_report():
    report = oracle.check_dinfty(3, 6)
    assert report["status"] == "pass"
    assert report["mode"] == "truncated"
    assert report["max_boxes"] == 3
    assert report["n"] == 6
    assert len(report["checks"]) == 6
    assert all("10 states" in e["identity"] for e in report["checks"])


def test_run_suites():
    reports = run_suites(["weights", "module"], [3, 2])
    assert [(r["suite"], r["n"]) for r in reports] == [
        ("module", 2),
        ("module", 3),
        ("weights", 2),
        ("weights", 3),
    ]
    assert all_pass(reports)
    with pytest.raises(ValueError):
        run_suites(["bogus"], [2])
    assert not all_pass([{"status": "fail"}])
    assert all_pass([])


def test_run_suites_tabulates_each_operator_once_per_rank(monkeypatch):
    # E, F, H, a, b on the shape basis and create, annihilate on the wedge
    # basis: 7n tables per rank, shared by every suite of that rank
    tabulated = []
    real = oracle.operator_matrix

    def counting(op, basis, ctx):
        tabulated.append((ctx.n, op))
        return real(op, basis, ctx)

    monkeypatch.setattr(oracle, "operator_matrix", counting)
    ranks = range(2, 10)
    assert all_pass(run_suites(SUITE_NAMES, ranks))
    assert len(tabulated) == len(set(tabulated)) == 308
    for n in ranks:
        assert sum(1 for m, _ in tabulated if m == n) == 7 * n


def test_run_suites_repeats_its_reports():
    def without_duration(reports):
        return [{k: v for k, v in r.items() if k != "duration"} for r in reports]

    first = run_suites(SUITE_NAMES, range(2, 7))
    assert without_duration(run_suites(SUITE_NAMES, range(2, 7))) == without_duration(first)


def test_identity_table_covers_the_bounded_suites():
    ctx = RankContext(4)
    for suite, count in (
        ("chevalley", 54),
        ("serre", 24),
        ("clifford", 36),
        ("intertwiner", 8),
        ("factorization", 8),
    ):
        rows = oracle.identities(suite, ctx)
        assert len(rows) == count
        assert len({label for label, _, _ in rows}) == count
    # the registry holds the five tables in the order of the rank-free entries, each a bounded suite
    assert list(oracle.IDENTITY_TABLES) == ["chevalley", "serre", "clifford", "intertwiner", "factorization"]
    assert set(oracle.IDENTITY_TABLES) <= set(oracle.SUITES)
    rows = dict((label, (lhs, rhs)) for label, lhs, rhs in oracle.identities("chevalley", ctx))
    assert rows["[E_2,F_2] = H_2"] == (("commutator", "E_2", "F_2"), "H_2")
    assert rows["[H_2,F_4] = 1 F_4"] == (("commutator", "H_2", "F_4"), ("scale", 1, "F_4"))
    assert rows["[H_1,H_3] = 0"] == (("commutator", "H_1", "H_3"), "0")
    with pytest.raises(ValueError):
        oracle.identities("module", ctx)


def _flip_ladder(monkeypatch, k):
    """Inject a fault: a_k acts with the opposite sign."""
    from halfspin import spinrep

    def flipped(j, vec, ctx):
        image = spinrep.geometric_a(j, vec, ctx)
        return image.scale(-1) if j == k else image

    monkeypatch.setitem(oracle._OPERATORS, "a", flipped)


def test_intertwiner_witness_labels_rows_and_columns(monkeypatch):
    _flip_ladder(monkeypatch, 1)
    report = run_suites(["intertwiner"], [3])[0]
    assert report["status"] == "fail"
    (bad,) = [e for e in report["checks"] if e["status"] == "fail"]
    assert bad["identity"] == "phi a_1 = annihilate_1 phi"
    # rows live in the wedge basis, columns in the shape basis
    assert re.fullmatch(
        r"entry \(\{[\d,]*\} <- \((plus|minus),[-\d,]+\)\): got -?1, expected -?1", bad["witness"]
    ), bad["witness"]


def test_a_ladder_fault_fails_both_modes(monkeypatch):
    n = 3
    _flip_ladder(monkeypatch, n - 1)
    for report in run_suites(["clifford", "intertwiner", "factorization"], [n]):
        assert report["status"] == "fail", report["suite"]
        for entry in report["checks"]:
            if entry["status"] == "fail":
                assert entry["witness"].startswith("entry (")
    # at ambient rank 6, a_5 removes the length-1 row of capped shapes,
    # while a_1 would kill them all and hide the fault; the first failing
    # row of each family and its witness are pinned
    _flip_ladder(monkeypatch, 5)
    report = oracle.check_dinfty(3, 6)
    assert report["status"] == "fail"
    failed = {e["identity"].split(" (")[0]: e["witness"] for e in report["checks"] if e["status"] == "fail"}
    assert failed == {
        "ladder anticommutators": "{a_5,b_5} = 1 at state (plus,-): got -(plus,-), expected (plus,-)",
        "dictionary intertwines the ladder operators": "phi a_5 = annihilate_5 phi at state (plus,1): got -{6}, expected {6}",
        "quadratic factorization of E/F": "F_4 = b_4 a_5 at state (plus,1): got (plus,2), expected -(plus,2)",
    }


def test_a_ladder_fault_at_the_fork_fails_both_modes(monkeypatch):
    # b_n acts with the opposite sign: a fault in the k = n branch of the
    # ladder kernel, which the _flip_ladder faults never reach.  geometric_b
    # reads the kernel from spinrep on every call, so the bounded tables and
    # the rank-free images both see it; the first failing row of each suite
    # and family and its witness are pinned
    from halfspin import spinrep

    real = spinrep._ladder

    def faulty(state, k, ctx, parity):
        hit = real(state, k, ctx, parity)
        return (hit[0], -hit[1]) if hit is not None and k == ctx.n and parity else hit

    monkeypatch.setattr(spinrep, "_ladder", faulty)
    failed = {
        r["suite"]: next(e["identity"] + ": " + e["witness"] for e in r["checks"] if e["status"] == "fail")
        for r in run_suites(SUITE_NAMES, [3])
        if r["status"] == "fail"
    }
    assert failed == {
        "clifford": "{a_3,b_3} = 1: entry ((plus,-) <- (plus,-)): got -1, expected 1",
        "factorization": "E_2 = b_3 a_2: entry ((plus,2) <- (plus,2,1)): got 1, expected -1",
        "intertwiner": "phi b_3 = create_3 phi: entry ({3} <- (plus,-)): got -1, expected 1",
    }
    report = oracle.check_dinfty(3, 6)
    failed = {e["identity"].split(" (")[0]: e["witness"] for e in report["checks"] if e["status"] == "fail"}
    assert failed == {
        "ladder anticommutators": "{a_6,b_6} = 1 at state (plus,-): got -(plus,-), expected (plus,-)",
        "dictionary intertwines the ladder operators": "phi b_6 = create_6 phi at state (plus,-): got -{6}, expected {6}",
        "quadratic factorization of E/F": "F_6 = b_5 b_6 at state (plus,-): got (plus,1), expected -(plus,1)",
    }


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="no suite checks kappa yet; ROADMAP item 3's automorphism suite will catch this fault",
)
def test_a_kappa_fault_fails_some_suite(monkeypatch):
    # kappa replaced by the identity: a known gap, pinned so that the suite
    # which closes it turns this into an XPASS
    from halfspin import spinrep

    monkeypatch.setattr(spinrep, "kappa", lambda vec, ctx=None: vec)
    reports = run_suites(SUITE_NAMES, range(2, 6)) + [oracle.check_dinfty(4, 8)]
    assert len(reports) == 33
    assert any(r["status"] == "fail" for r in reports)


def test_a_weight_route_fault_fails_both_modes(monkeypatch):
    # the closed form with its first and last coordinates swapped; (plus,-)
    # has equal ends, so the first state it gets wrong is (plus,1), and
    # both modes print that state's witness in the same form
    from halfspin import spinrep

    real = spinrep.weight_eps_closed

    def swapped(state, ctx):
        eps = list(real(state, ctx))
        eps[0], eps[-1] = eps[-1], eps[0]
        return tuple(eps)

    monkeypatch.setattr(spinrep, "weight_eps_closed", swapped)
    (report,) = run_suites(["weights"], [4])
    failed = {e["identity"]: e["witness"] for e in report["checks"] if e["status"] == "fail"}
    assert failed == {
        "closed form agrees with cartan eigenvalue route on all 16 states":
            "closed form at state (plus,1): got (-1/2,1/2,-1/2,1/2), expected (1/2,1/2,-1/2,-1/2)",
    }
    report = oracle.check_dinfty(3, 6)
    failed = {e["identity"]: e["witness"] for e in report["checks"] if e["status"] == "fail"}
    assert failed == {
        "weight routes agree (pointwise on 10 states)":
            "closed form at state (plus,1): got (-1/2,1/2,1/2,1/2,-1/2,1/2), expected (1/2,1/2,1/2,1/2,-1/2,-1/2)",
    }


def test_dinfty_witness_text_follows_the_states_of_the_image(monkeypatch):
    # the intertwiner rows served under the Chevalley family's name still
    # print their witness as wedge vectors: the text is read off the image's
    # states, not off the family's name
    real = oracle.identities

    def identities(suite, ctx):
        return real("intertwiner" if suite == "chevalley" else suite, ctx)

    monkeypatch.setattr(oracle, "identities", identities)
    _flip_ladder(monkeypatch, 5)
    report = oracle.check_dinfty(3, 6)
    (entry,) = [e for e in report["checks"] if e["identity"].startswith("Chevalley brackets")]
    assert entry["witness"] == "phi a_5 = annihilate_5 phi at state (plus,1): got -{6}, expected {6}"


def test_a_ladder_fault_fails_verify_all(monkeypatch):
    # the suites of one rank share their tables; each suite that reads a_2
    # still sees the fault
    _flip_ladder(monkeypatch, 2)
    out = io.StringIO()
    assert cli.main(["verify", "--n", "3", "--all", "--json"], out) == 1
    failed = {r["suite"] for r in json.loads(out.getvalue())["reports"] if r["status"] == "fail"}
    assert failed == {"clifford", "intertwiner", "factorization"}


TABLE_SUITES = tuple(oracle.IDENTITY_TABLES)


def _images_against_matrix_columns(n):
    """The rank-free walk of every side of the five tables, entry by entry.

    One tree holds each side as a row of its own, so one walk per capped
    state gives every side's image, which must be the state's column of the
    side's matrix.  Each side's one-row image must be that column too.
    Returns whether some image had two or more terms.
    """
    tables = oracle.RankTables(n)
    ctx = tables.ctx
    sides = []
    for suite in TABLE_SUITES:
        rows = getattr(tables, oracle.IDENTITY_TABLES[suite][1])
        for label, *exprs in oracle.identities(suite, ctx):
            for expr in exprs:
                columns = {}
                for (i, j), v in oracle._matrix(expr, tables.matrix).entries.items():
                    columns.setdefault(j, {})[rows.states[i]] = v
                sides.append((label, expr, columns))
    tree = oracle._tree([(label, expr, "0") for label, expr, _ in sides])
    multi_term = False
    for state in truncated_spin_basis(ctx, n - 1).states:
        j = tables.sbasis.index[state]
        images = oracle._ColumnImages(ctx)
        walked = {}
        for (pos, target), v in oracle._sums(tree, state, images).items():
            if v:
                walked.setdefault(pos, {})[target] = v
        for pos, (label, expr, columns) in enumerate(sides):
            assert walked.get(pos, {}) == columns.get(j, {}), (label, state)
            assert oracle._image(expr, state, images) == columns.get(j, {}), (label, state)
        multi_term |= any(len(image) > 1 for table in images.values() for image in table.values())
    return multi_term


@pytest.mark.parametrize("n", range(3, 7))
def test_rank_free_images_are_the_matrix_columns(n):
    assert not _images_against_matrix_columns(n)


def test_rank_free_walk_sums_two_term_images(monkeypatch):
    # H_k plus the family swap has two-term images: the walk enters the
    # subtree below H once per term and sums what the branches reach
    def h_with_swap(k, vec, ctx):
        return oracle.spinrep.apply_H(k, vec, ctx) + oracle.spinrep.kappa(vec)

    monkeypatch.setitem(oracle._OPERATORS, "H", h_with_swap)
    assert _images_against_matrix_columns(4)


def _parsed(word):
    """A word's tokens as the tree keys them: (name, k), and ("phi", None) for phi."""
    return tuple(("phi", None) if token == "phi" else parse_operator_token(token) for token in word)


def _tree_words(node, prefix=()):
    """(row, word, coeff) for every word end of a tree; prefix holds the operators in action order."""
    children, ends = node
    out = [(pos, prefix[::-1], c) for pos, c in ends]
    for op, child in children.items():
        out += _tree_words(child, prefix + (op,))
    return out


def _side_tree(side):
    """The one-row tree of one side, as `_image` builds it."""
    return oracle._tree([(None, side, "0")])


def _side_words(side):
    """One side's words {parsed word: coeff}: its one-row tree's ends summed per word, zeros dropped."""
    sums = Counter()
    for _, word, c in _tree_words(_side_tree(side)):
        sums[word] += c
    return {word: c for word, c in sums.items() if c}


def test_words_expand_a_side_from_its_own_tokens():
    def words(expansion):
        return {_parsed(word): c for word, c in expansion.items()}

    assert _side_words("0") == {}
    assert _side_words("1") == words({(): 1})
    assert _side_words(("scale", 0, "E_1")) == {}
    assert _side_words(("scale", -2, "E_1")) == words({("E_1",): -2})
    assert _side_words(("product", "b_2", "a_1")) == words({("b_2", "a_1"): 1})
    assert _side_words(("anticommutator", "a_1", "a_1")) == words({("a_1", "a_1"): 2})
    # ad(E_1)^2 E_2: the middle word ends twice, -1 each, and sums to -2
    serre = ("commutator", "E_1", ("commutator", "E_1", "E_2"))
    assert _side_words(serre) == words({
        ("E_1", "E_1", "E_2"): 1,
        ("E_1", "E_2", "E_1"): -2,
        ("E_2", "E_1", "E_1"): 1,
    })
    middle = _parsed(("E_1", "E_2", "E_1"))
    assert [c for _, word, c in _tree_words(_side_tree(serre)) if word == middle] == [-1, -1]


@pytest.mark.parametrize("n", range(3, 6))
def test_words_sum_to_the_matrix_of_their_side(n):
    # sum of coeff * (product of the tokens' matrices) over the words of a
    # side, read off its one-row tree, is the bounded evaluator's matrix of
    # that side
    tables = oracle.RankTables(n)
    for suite in TABLE_SUITES:
        for label, lhs, rhs in oracle.identities(suite, tables.ctx):
            for side in (lhs, rhs):
                want = oracle._matrix(side, tables.matrix)
                total = ExactMatrix.zero(want.nrows, want.ncols)
                for word, c in _side_words(side).items():
                    assert type(c) is int and c, (label, word)
                    tokens = ["phi" if name == "phi" else "%s_%d" % (name, k) for name, k in word]
                    m = tables.matrix(tokens[0] if tokens else "1")
                    for token in tokens[1:]:
                        m = m * tables.matrix(token)
                    total = total + m.scale(c)
                assert total == want, (label, side)


@pytest.mark.parametrize("n", range(3, 6))
def test_tree_word_ends_are_the_words_of_each_side(n):
    # a table's tree holds the word ends of each side's one-row tree, as
    # its parsed operators: lhs ends keep their coefficient and rhs ends
    # are negated; no end is merged across sides or rows, lost or repeated
    ctx = RankContext(n)
    for suite in TABLE_SUITES:
        rows = oracle.identities(suite, ctx)
        got = _tree_words(oracle._tree(rows))
        want = []
        for pos, (_, lhs, rhs) in enumerate(rows):
            want += [(pos, word, c) for _, word, c in _tree_words(_side_tree(lhs))]
            want += [(pos, word, -c) for _, word, c in _tree_words(_side_tree(rhs))]
        assert Counter(got) == Counter(want), suite


def _prefix_image(prefix, state, ctx):
    """A word's image of one basis state, its operators applied in action order on vectors."""
    from halfspin import clifford

    vec = oracle._one_state(state)
    for name, k in prefix:
        vec = clifford.phi(vec, ctx) if name == "phi" else oracle.apply_operator(name, k, vec, ctx)
    return vec.terms


def _tree_edges(node, prefix=()):
    """Every edge (prefix, next operator) of a tree; prefix holds the operators in action order."""
    out = []
    for op, child in node[0].items():
        out += [(prefix, op)] + _tree_edges(child, prefix + (op,))
    return out


def _table_state(table):
    """The basis state of one column's image table."""
    [state] = table.vec.terms
    return state


def test_dinfty_enters_no_subtree_below_a_zero_image(monkeypatch):
    # per column, each edge (prefix, next operator) of the one tree over the
    # five tables is looked up once for each state in the prefix's image: a
    # prefix that many words share is walked once, and one whose image is
    # zero looks nothing up.  A state's table is looked up once per node
    # with children that the walk reaches with it, not once per child.
    ctx = RankContext(5)
    lookups, tables = [], []

    def image(table, op):
        lookups.append((op, _table_state(table)))
        return dict.__getitem__(table, op)

    def table(images, state):
        tables.append(state)
        return dict.__getitem__(images, state)

    monkeypatch.setattr(oracle._StateImages, "__getitem__", image)
    monkeypatch.setattr(oracle._ColumnImages, "__getitem__", table)
    tree = oracle._tree([row for suite in TABLE_SUITES for row in oracle.identities(suite, ctx)])
    edges = _tree_edges(tree)
    shared = sum(len(word) for _, word, _ in _tree_words(tree)) - len(edges)
    dead = 0
    for state in truncated_spin_basis(ctx, 4).states:
        want, want_tables = [], []
        for prefix, op in edges:
            image = _prefix_image(prefix, state, ctx)
            dead += not image
            want += [(op, target) for target in image]
        for prefix in {prefix for prefix, _ in edges}:
            want_tables += _prefix_image(prefix, state, ctx)
        lookups.clear()
        tables.clear()
        oracle._sums(tree, state, oracle._ColumnImages(ctx))
        assert Counter(lookups) == Counter(want), state
        assert Counter(tables) == Counter(want_tables), state
    assert dead > 0 and shared > 0


def test_dinfty_applies_each_token_once_per_state_and_column(monkeypatch):
    # a column starts with fresh image tables; within it every (operator,
    # state) image the walk looks up is computed exactly once, so none is
    # computed twice and none is read from another column.  One tree holds
    # the rows of all five tables, built once per call, and a passing run
    # builds no witness tree.
    columns = []  # per column: the (operator, state) pairs looked up, and those computed
    real_init, real_missing = oracle._ColumnImages.__init__, oracle._StateImages.__missing__

    def init(images, ctx):
        columns.append((set(), []))
        real_init(images, ctx)

    def image(table, op):
        columns[-1][0].add((op, _table_state(table)))
        return dict.__getitem__(table, op)

    def missing(table, op):
        columns[-1][1].append((op, _table_state(table)))
        return real_missing(table, op)

    real_tree = oracle._tree
    trees = []

    def tree(rows):
        trees.append(len(rows))
        return real_tree(rows)

    monkeypatch.setattr(oracle._ColumnImages, "__init__", init)
    monkeypatch.setattr(oracle._StateImages, "__getitem__", image)
    monkeypatch.setattr(oracle._StateImages, "__missing__", missing)
    monkeypatch.setattr(oracle, "_tree", tree)
    report = oracle.check_dinfty(3, 6)
    assert report["status"] == "pass"
    # one column per capped state, each computing what it looks up, once
    assert len(columns) == 10
    for looked_up, computed in columns:
        assert looked_up and Counter(computed) == Counter(looked_up)
    ctx = RankContext(6)
    assert trees == [sum(len(oracle.identities(s, ctx)) for s in TABLE_SUITES)]


# ---------------------------------------------------------------------------
# tabulation through the operator table


def _tokens(n):
    """Every operator token of both bases at rank n, as (token, wedge side)."""
    shape = [("%s_%d" % (name, k), False) for name in "EFHab" for k in range(1, n + 1)]
    wedge = [("%s_%d" % (name, k), True) for name in oracle.WEDGE_OPS for k in range(1, n + 1)]
    return shape + [("kappa", False), ("identity", False), ("identity", True)] + wedge


@pytest.mark.parametrize("n", range(2, 7))
def test_operator_matrix_is_the_table_of_apply_operator(n):
    ctx = RankContext(n)
    bases = {False: spin_basis(ctx), True: fock_basis(ctx)}
    for token, wedge in _tokens(n):
        basis = bases[wedge]
        name, k = parse_operator_token(token)
        entries = {}
        for j, state in enumerate(basis.states):
            image = oracle.apply_operator(name, k, oracle._one_state(state), ctx)
            for target, v in image.terms.items():
                entries[(basis.index[target], j)] = v
        want = ExactMatrix(len(basis), len(basis), entries)
        assert operator_matrix(token, basis, ctx) == want, token


def test_tabulating_leaves_the_one_state_vectors_unchanged():
    ctx = RankContext(5)
    bases = {False: spin_basis(ctx), True: fock_basis(ctx)}
    vectors = {wedge: basis.vectors for wedge, basis in bases.items()}
    for token, wedge in _tokens(ctx.n):
        operator_matrix(token, bases[wedge], ctx)
    for wedge, basis in bases.items():
        # built once per basis and shared by all of its tables
        assert basis.vectors is vectors[wedge]
        assert [v.terms for v in basis.vectors] == [{s: 1} for s in basis.states]


def test_operator_matrix_reads_the_operator_table_when_it_runs(monkeypatch):
    # the tracer wraps the functions of _OPERATORS in place, so a table
    # must look its function up when it is built, not when the vectors are
    ctx = RankContext(4)
    basis = spin_basis(ctx)
    real = operator_matrix("a_2", basis, ctx)  # builds basis.vectors
    _flip_ladder(monkeypatch, 2)
    assert operator_matrix("a_2", basis, ctx) == -real


@pytest.mark.parametrize("n", range(2, 8))
def test_module_suite_alone_matches_its_run_suites_report(n):
    # every suite, not only module: sharing one rank's tables among all
    # eight suites changes no report but its duration
    def without_duration(report):
        return {k: v for k, v in report.items() if k != "duration"}

    shared = run_suites(SUITE_NAMES, [n])
    assert [r["suite"] for r in shared] == list(SUITE_NAMES)
    for name, report in zip(SUITE_NAMES, shared):
        assert without_duration(run_suites([name], [n])[0]) == without_duration(report), name


def test_a_dropped_F_image_fails_the_module_closure(monkeypatch):
    # the lowering closure follows the F_k tables: an F that loses the image
    # of the plus highest-weight state leaves the plus closure one state
    from halfspin import spinrep

    top = (Sign.PLUS, ())

    def dropping(k, vec, ctx):
        image = spinrep.apply_F(k, vec, ctx)
        return spinrep.SpinVector() if top in vec.terms else image

    monkeypatch.setitem(oracle._OPERATORS, "F", dropping)
    report = run_suites(["module"], [4])[0]
    failed = {e["identity"]: e["witness"] for e in report["checks"] if e["status"] == "fail"}
    closure = "lowering closure from (plus,-) spans 8 states"
    block = "closure from (plus,-) is exactly the plus block"
    assert set(failed) == {closure, block}
    assert failed[closure] == "got 1 states"
    assert failed[block].startswith("difference: [")


def test_a_repeated_weight_fails_the_module_distinctness():
    # one plus state given a second plus state's weight, rebuilt from new
    # Fractions, fails the plus block's distinctness check and no other
    tables = oracle.RankTables(4)
    weights = list(tables.weights)
    first, second = [i for i, s in enumerate(tables.sbasis.states) if s[0] is Sign.PLUS][:2]
    weights[second] = tuple(Fraction(c.numerator * 3, c.denominator * 3) for c in weights[first])
    tables.weights = weights
    failed = {e["identity"]: e["witness"] for e in oracle.check_module_structure(tables) if e["status"] == "fail"}
    assert failed == {"weights in the plus block are pairwise distinct": "a weight repeats"}


def test_suites_of_a_rank_share_its_weights_and_wedge_vectors(monkeypatch):
    # the module and weights suites read one Cartan-route weight per state,
    # and faithfulness acts on the wedge basis's prebuilt vectors
    from halfspin import spinrep

    calls = {"weight_eps": 0, "wedge vectors": 0}
    weight_eps, one_state = spinrep.weight_eps, oracle._one_state

    def counting_weight(state, ctx):
        calls["weight_eps"] += 1
        return weight_eps(state, ctx)

    def counting_one_state(state):
        calls["wedge vectors"] += isinstance(state, frozenset)
        return one_state(state)

    monkeypatch.setattr(spinrep, "weight_eps", counting_weight)
    monkeypatch.setattr(oracle, "_one_state", counting_one_state)
    assert all_pass(run_suites(["faithfulness", "module", "weights"], range(2, 5)))
    # one vector per wedge basis state, however many monomials act on it
    assert calls == {"weight_eps": 4 + 8 + 16, "wedge vectors": 4 + 8 + 16}


def _product_reference(x, y):
    """x * y summed entry by entry from the two entry dicts, for any two matrices."""
    out = {}
    for (i, j), a in x.entries.items():
        for (j2, k), b in y.entries.items():
            if j == j2:
                out[(i, k)] = out.get((i, k), 0) + a * b
    return ExactMatrix(x.nrows, y.ncols, out)


def test_products_that_share_pairs_leave_their_factors_unchanged():
    # a product by a map entry 1 keeps the left factor's (row, value) pair
    # itself; later sums, differences and scales of the product must leave
    # both factors as they were
    tables = oracle.RankTables(4)
    tokens = ["E_1", "F_2", "H_3", "a_4", "b_1", "1"]
    mats = {t: tables.matrix(t) for t in tokens}
    before = {t: dict(m.entries) for t, m in mats.items()}
    shared = 0

    def later(p, x, y):
        q = (p + x - p.scale(3)).scale(Fraction(-1, 2)) + p * p - y
        return 2 * q + p

    for x in tokens:
        for y in tokens:
            p, want = mats[x] * mats[y], _product_reference(mats[x], mats[y])
            assert p == want, (x, y)
            left = set(map(id, mats[x]._map.values()))
            shared += sum(id(pair) in left for pair in p._map.values())
            assert later(p, mats[x], mats[y]) == later(want, mats[x], mats[y]), (x, y)
    assert shared > 0
    assert {t: dict(m.entries) for t, m in mats.items()} == before
