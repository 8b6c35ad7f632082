"""The benchmark's workloads still give the answers it recorded.

The commands and the scoring are the benchmark's own (``bench/workloads.py``,
imported here and never changed), scored against ``bench/reference/``: the
two verify commands, and one seed-0 pass of each query workload.  A changed
answer therefore fails this test before it reaches a benchmark run.
"""

import io
from pathlib import Path

import pytest

from halfspin import cli, oracle

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _run(monkeypatch, name):
    """The workload's seed-0 pass, each call through `cli.main`: (failed operations, highest exit code)."""
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    failed = highest = 0
    for op in workloads.WORKLOADS[name](seed=0).pass_ops():
        out = io.StringIO()
        rc = cli.main(op.argv, out)
        failed += workloads.count_failed(op, rc, out.getvalue())
        highest = max(highest, rc)
    return failed, highest


@pytest.mark.parametrize("name", ["verify_dinfty", "verify_bounded"])
def test_bench_verify_commands_match_their_references(monkeypatch, name):
    assert _run(monkeypatch, name) == (0, 0)


@pytest.mark.parametrize("name", ["point_queries", "wedge_algebra"])
def test_bench_query_workloads_match_their_references(monkeypatch, name):
    assert _run(monkeypatch, name) == (0, 0)


def test_a_changed_answer_fails_the_reference(monkeypatch):
    # a_1 with the opposite sign: the rank-free report fails, and its digest
    # no longer matches the recorded one
    def flipped(k, vec, ctx):
        image = oracle.spinrep.geometric_a(k, vec, ctx)
        return image.scale(-1) if k == 1 else image

    monkeypatch.setitem(oracle._OPERATORS, "a", flipped)
    assert _run(monkeypatch, "verify_dinfty") == (1, 1)
