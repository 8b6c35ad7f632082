"""Acceptance gate: one test per shipped criterion, exact checks, stated budgets.

Every check is exact rational arithmetic; the only tolerances are the wall
clock budgets, asserted as hard bounds.  Each test ends with a single
printed PASS line so a captured run reads as a checklist.
"""

import time
from fractions import Fraction

from halfspin.diagram import Sign, enumerate_diagrams
from halfspin.quiver import RankContext
from halfspin import oracle, spinrep


def _report_passes(report):
    assert report["status"] == "pass", (
        report["suite"],
        report["n"],
        [e for e in report["checks"] if e["status"] in ("fail", "xpass")],
    )
    assert report["counts"]["fail"] == 0
    assert report["counts"]["xpass"] == 0


def test_criterion_1_component_count():
    t0 = time.perf_counter()
    for n in range(2, 11):
        shapes = enumerate_diagrams(n)
        assert len(shapes) == 2 ** (n - 1)
        assert len(set(shapes)) == len(shapes)
        signed = {(sign, rows) for sign in (Sign.PLUS, Sign.MINUS) for rows in shapes}
        assert len(signed) == 2**n
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print("ACCEPTANCE 1 (component count, n=2..10): PASS [%.3fs]" % elapsed)


def test_criterion_2_lie_algebra_structure():
    t0 = time.perf_counter()
    for n in range(2, 7):
        for suite in ("chevalley", "serre"):
            report = oracle.run_suites([suite], [n])[0]
            _report_passes(report)
            assert all(e["status"] == "pass" for e in report["checks"])
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print("ACCEPTANCE 2 (Chevalley + degree bounds, n=2..6): PASS [%.3fs]" % elapsed)


def test_criterion_3_clifford_structure():
    t0 = time.perf_counter()
    for n in range(2, 7):
        report = oracle.run_suites(["clifford"], [n])[0]
        _report_passes(report)
        assert all(e["status"] == "pass" for e in report["checks"])
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print("ACCEPTANCE 3 (ladder anticommutation, n=2..6): PASS [%.3fs]" % elapsed)


def test_criterion_4_model_equivalence():
    t0 = time.perf_counter()
    for n in range(2, 7):
        for suite in ("intertwiner", "factorization"):
            report = oracle.run_suites([suite], [n])[0]
            _report_passes(report)
            assert all(e["status"] == "pass" for e in report["checks"])
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print("ACCEPTANCE 4 (dictionary + quadratic factorization, n=2..6): PASS [%.3fs]" % elapsed)


def test_criterion_5_weight_consistency():
    t0 = time.perf_counter()
    for n in range(2, 9):
        report = oracle.run_suites(["weights"], [n])[0]
        _report_passes(report)
        route_entries = [e for e in report["checks"] if "agrees with" in e["identity"]]
        assert len(route_entries) == 3
        assert all(e["status"] == "pass" for e in route_entries)
    # the pinned regression: at rank 4 the halved-row-sum variant deviates
    # on the one-row shape (2) while the corrected closed form matches
    ctx = RankContext(4)
    state = (Sign.PLUS, (2,))
    reference = spinrep.weight_eps(state, ctx)
    assert spinrep.weight_eps_closed(state, ctx) == reference
    assert spinrep.weight_eps_halved_variant(state, ctx) != reference
    assert spinrep.weight_eps_halved_variant(state, ctx) == (
        Fraction(1, 2),
        Fraction(0),
        Fraction(1, 2),
        Fraction(-1, 2),
    )
    report4 = oracle.run_suites(["weights"], [4])[0]
    pinned = [e for e in report4["checks"] if e["status"] == "xfail"]
    assert len(pinned) == 1 and "(plus,2)" in pinned[0]["identity"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print("ACCEPTANCE 5 (weight routes + pinned variant, n=2..8): PASS [%.3fs]" % elapsed)


def test_criterion_6_module_structure():
    t0 = time.perf_counter()
    for n in range(2, 7):
        report = oracle.run_suites(["module"], [n])[0]
        _report_passes(report)
        by_id = {e["identity"]: e for e in report["checks"]}
        for sign in ("plus", "minus"):
            assert (
                by_id["lowering closure from (%s,-) spans %d states" % (sign, 2 ** (n - 1))][
                    "status"
                ]
                == "pass"
            )
            assert (
                by_id["closure from (%s,-) is exactly the %s block" % (sign, sign)]["status"]
                == "pass"
            )
            assert (
                by_id["weights in the %s block are pairwise distinct" % sign]["status"]
                == "pass"
            )
        # the parity match that actually holds, at every rank
        assert (
            by_id["plus block fills the even wedge part, minus the odd (every rank)"]["status"]
            == "pass"
        )
        # the rank-parity reading is pinned: accidental pass at even ranks,
        # expected failure at odd ranks
        variant = [e for e in report["checks"] if e["identity"].startswith("rank-parity")]
        assert len(variant) == 1
        assert variant[0]["status"] == ("pass" if n % 2 == 0 else "xfail")
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print("ACCEPTANCE 6 (generation, blocks, multiplicity one, n=2..6): PASS [%.3fs]" % elapsed)


def test_criterion_7_algebra_faithfulness():
    t0 = time.perf_counter()
    for n in range(2, 5):
        report = oracle.run_suites(["faithfulness"], [n])[0]
        _report_passes(report)
        assert report["counts"]["skip"] == 0
        entry = report["checks"][0]
        assert entry["status"] == "pass"
        assert str(4**n) in entry["identity"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print("ACCEPTANCE 7 (monomial independence, rank 4^n, n=2..4): PASS [%.3fs]" % elapsed)


def test_criterion_8_rank_free_mode():
    t0 = time.perf_counter()
    report = oracle.check_dinfty(max_boxes=6, n=12)
    _report_passes(report)
    assert report["mode"] == "truncated"
    assert report["max_boxes"] == 6
    assert len(report["checks"]) == 6
    assert all(e["status"] == "pass" for e in report["checks"])
    # 14 shapes with at most 6 boxes, both families
    assert all("28 states" in e["identity"] for e in report["checks"])
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print("ACCEPTANCE 8 (box-capped identities, B=6 in n=12): PASS [%.3fs]" % elapsed)
