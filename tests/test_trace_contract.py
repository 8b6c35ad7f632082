"""The benchmark's tracer still reads the layers each verify mode must drive.

The tracer (``bench/tracer.py``) wraps the program's functions by name and
refuses to run when an original is held where it cannot be replaced.  This
test only imports it; a sweep moved out of ``spinrep._shift_state``, a
traced function captured by a cache or a rank-free evaluator that skips
the operator functions shows up here before it breaks a traced benchmark
run.  So does an `ExactMatrix` whose `nnz` or whose
`__add__`/`__sub__` the tracer no longer sees, and an operator that a
kernel reaches without its traced vector function: the bounded run must
drive every layer of the `verify_bounded` workload's `busy` list.
"""

import io
import types
from pathlib import Path

from halfspin import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _traced(monkeypatch, argv):
    """The per-layer metrics of one traced `cli.main` call, which must exit 0."""
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    t = tracer.Tracer()
    t.install()
    try:
        rc = cli.main(argv, io.StringIO())
    finally:
        t.uninstall()
    t.end_pass()
    assert rc == 0
    return t.layer_metrics()


def test_every_bounded_suite_is_the_function_the_tracer_binds(monkeypatch):
    # the tracer wraps each suite it traces as oracle.<name in _SUITE_FUNCS>;
    # a SUITES entry holding another function would read zero in its
    # oracle.suite.* layer, which only a traced run of that suite would show.
    # A suite the tracer does not trace needs only to be a plain function,
    # so a new bounded suite passes here as it is.
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer
    from halfspin import oracle

    for name in tracer.SUITES:
        bound = getattr(oracle, tracer._SUITE_FUNCS[name])
        assert bound is (oracle.check_dinfty if name == "dinfty" else oracle.SUITES[name]), name
    for name, suite in oracle.SUITES.items():
        assert type(suite) is types.FunctionType, name
    assert type(oracle.check_dinfty) is types.FunctionType


TRACED_SUITES = "chevalley,factorization,intertwiner,weights,faithfulness"
BOUNDED_ARGV = ["verify", "--n", "2..4", "--suite", TRACED_SUITES, "--json"]


def test_tracer_reads_the_bounded_layers(monkeypatch):
    metrics = _traced(monkeypatch, BOUNDED_ARGV)
    import workloads

    # every layer the bounded benchmark workload must drive, its suites
    # narrowed to the ones run here: ladder, apply_H, weight, rank, act, ...
    skipped = {"oracle.suite.%s.s" % s for s in workloads.BOUNDED_SUITES.split(",")}
    skipped -= {"oracle.suite.%s.s" % s for s in TRACED_SUITES.split(",")}
    busy = [name for name in workloads.VerifyBounded.busy if name not in skipped]
    for name in (
        "spinrep.ladder.calls",
        "spinrep.apply_H.self_s",
        "spinrep.weight.self_s",
        "oracle.rank.calls",
        "clifford.act.calls",
    ):
        assert name in busy
    for name in busy + [
        "spinrep.shift.calls",
        "spinrep.dim_vector_per_shift",
        "oracle.tabulate.calls",
        "clifford.create_annihilate.calls",
        "oracle.matmul.calls",
        "oracle.mateq.self_s",
        "oracle.matadd.self_s",
        "quiver.state_u.calls",
    ]:
        assert metrics[name] > 0, name
    assert metrics["oracle.tabulate.reuse_ratio"] == 1.0
    # the nonzero count of the 248 products, as the general-form matrices gave it
    assert metrics["oracle.matmul.nnz_out"] == 536


def test_tracer_reads_the_rank_free_layers(monkeypatch):
    # the rank-free evaluator computes every image through the traced
    # operator functions; one that bypassed them would read zero here
    metrics = _traced(monkeypatch, ["verify", "--dinfty", "--max-boxes", "3", "--n", "6", "--json"])
    for name in (
        "spinrep.shift.calls",
        "spinrep.ladder.calls",
        "spinrep.apply_H.self_s",
        "spinrep.weight.self_s",
        "clifford.create_annihilate.calls",
        "quiver.state_u.calls",
        "oracle.suite.dinfty.s",
    ):
        assert metrics[name] > 0, name
    assert metrics["oracle.tabulate.calls"] == 0


# per-layer calls of one traced `verify --dinfty --max-boxes 7 --n 12`; the
# E/F sweep takes one dimension vector per swept state, none per edit
PINNED_RANK_FREE_CALLS = {
    "spinrep.shift": 4072,
    "spinrep.ladder": 11856,
    "spinrep.apply_H": 1920,
    "clifford.create_annihilate": 912,
    "quiver.state_u": 1958,
    "quiver.dim_vector": 114,
    "oracle.tabulate": 0,
}


def test_rank_free_pass_applies_each_operator_as_often_as_pinned(monkeypatch):
    # the benchmark's rank-free pass: an evaluator that applied an operator
    # twice in one column, or skipped one a surviving prefix needs, moves
    # these counts
    argv = ["verify", "--dinfty", "--max-boxes", "7", "--n", "12", "--json"]
    metrics = _traced(monkeypatch, argv)
    assert {name: metrics[name + ".calls"] for name in PINNED_RANK_FREE_CALLS} == PINNED_RANK_FREE_CALLS


# per-layer calls of one traced `verify --n 2..4` over the suites of BOUNDED_ARGV;
# dim_vector counts the calls of state_u's misses and one per state the E/F
# sweep starts from, none per edit
PINNED_BOUNDED_CALLS = {
    "quiver.dim_vector": 56,
    "quiver.state_u": 124,
    "spinrep.shift": 192,
    "spinrep.apply_H": 96,
    "spinrep.ladder": 192,
    "spinrep.weight": 107,
    "clifford.create_annihilate": 8759,
    "clifford.act": 4672,
    "oracle.tabulate": 63,
    "oracle.matmul": 248,
    "oracle.mateq": 133,
    "oracle.matadd": 97,
    "oracle.rank": 3,
}


def test_bounded_pass_does_the_pinned_work(monkeypatch):
    # a bounded pass that got faster by applying fewer operators, multiplying
    # fewer matrices or tabulating less, rather than by building fewer
    # objects per call, moves these counts
    metrics = _traced(monkeypatch, BOUNDED_ARGV)
    assert {name: metrics[name + ".calls"] for name in PINNED_BOUNDED_CALLS} == PINNED_BOUNDED_CALLS


# per-layer calls of two of the slowest `point_queries` act queries, traced
PINNED_POINT_CALLS = {
    ("act", "--n", "121", "--json", "b_120 F_64 E_64 F_120 b_63 b_40",
     "2 * (plus,119,86,57) + 1/2 * (minus,113,88,33) - (minus,111,28)"): {
        "spinrep.shift": 6,
        "quiver.dim_vector": 6,
        "quiver.state_u": 0,
        "spinrep.ladder": 3,
        "spinrep.apply_H": 0,
    },
    ("act", "--n", "256", "--json", "F_254 b_44 F_255", "(plus,-) - (plus,221,176,34) - 3 * (plus,141)"): {
        "spinrep.shift": 5,
        "quiver.dim_vector": 5,
        "quiver.state_u": 0,
        "spinrep.ladder": 1,
        "spinrep.apply_H": 0,
    },
}


def test_point_queries_sweep_every_candidate_as_pinned(monkeypatch):
    # each E/F sweep takes one dimension vector, through the traced call, for
    # the state it starts from and none for its edits: a sweep that skipped
    # that call, or went back to one vector per edit, moves the dim_vector
    # counts, here equal to the shift counts
    for argv, pinned in PINNED_POINT_CALLS.items():
        metrics = _traced(monkeypatch, list(argv))
        assert {name: metrics[name + ".calls"] for name in pinned} == pinned, argv
