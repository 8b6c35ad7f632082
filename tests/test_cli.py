"""Command line behavior: text output, JSON schemas, exit codes."""

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from operator import sub
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st
from jsonschema import validate

from halfspin import cli, oracle, spinrep
from halfspin.diagram import Sign
from halfspin.quiver import RankContext, dim_vector
from halfspin.spinrep import SpinVector, parse_basis_state, parse_spin_vector

DATA = Path(__file__).resolve().parent / "data"


def run(*argv):
    out = io.StringIO()
    rc = cli.main(list(argv), out)
    return rc, out.getvalue()


def refusal(capsys, *argv):
    """The stderr of a command that must exit 2 with empty stdout."""
    capsys.readouterr()
    assert run(*argv) == (2, "")
    return capsys.readouterr().err


def run_json(*argv):
    rc, text = run(*argv)
    doc = json.loads(text)
    validate(instance=doc, schema=cli.SCHEMAS[doc["command"]])
    return rc, doc


def test_no_command_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([], io.StringIO())
    assert exc.value.code == 2


def test_enumerate_text():
    rc, text = run("enumerate", "--n", "2")
    assert rc == 0
    lines = text.splitlines()
    assert lines[0] == "sign\tdiagram\tv\tu\tweight\tfock_index"
    assert lines[1] == "plus\t-\t(0,0)\t(0,1)\t(1/2,1/2)\t{}"
    assert len(lines) == 5


def test_enumerate_csv():
    rc, text = run("enumerate", "--n", "2", "--csv")
    assert rc == 0
    lines = text.splitlines()
    assert lines[0] == "sign,diagram,v,u,weight,fock_index"
    assert '"(0,0)"' in lines[1]
    assert len(lines) == 5


def test_enumerate_json():
    rc, doc = run_json("enumerate", "--n", "4", "--json")
    assert rc == 0
    assert doc["n"] == 4
    assert doc["mode"] == "bounded"
    assert len(doc["rows"]) == 16
    row = next(r for r in doc["rows"] if r["sign"] == "plus" and r["diagram"] == "3,1")
    assert row["v"] == [1, 1, 1, 1]
    assert row["u"] == [-1, 1, -1, 0]
    assert row["weight"] == ["-1/2", "1/2", "-1/2", "1/2"]
    assert row["fock_index"] == "{1,3}"


def test_enumerate_dinfty():
    rc, doc = run_json("enumerate", "--dinfty", "--max-boxes", "3", "--json")
    assert rc == 0
    assert doc["mode"] == "truncated"
    assert doc["max_boxes"] == 3
    assert doc["n"] == 4  # smallest ambient rank fitting the cap
    plus_shapes = [r["diagram"] for r in doc["rows"] if r["sign"] == "plus"]
    assert plus_shapes == ["-", "1", "2", "3", "2,1"]
    assert len(doc["rows"]) == 10


def test_enumerate_usage_errors():
    assert run("enumerate")[0] == 2
    assert run("enumerate", "--n", "1")[0] == 2
    assert run("enumerate", "--dinfty")[0] == 2
    assert run("enumerate", "--dinfty", "--max-boxes", "-1")[0] == 2
    assert run("enumerate", "--dinfty", "--max-boxes", "3", "--n", "3")[0] == 2


def test_act_examples():
    assert run("act", "--n", "4", "F_2 F_4", "(plus,-)") == (0, "(plus,2)\n")
    assert run("act", "--n", "4", "E_1", "(plus,-)") == (0, "0\n")
    # the same letters in the other order die at the second step
    assert run("act", "--n", "4", "F_3 F_4", "(plus,-)") == (0, "0\n")
    assert run("act", "--n", "4", "kappa", "(plus,3,1)") == (0, "(minus,3,1)\n")
    assert run("act", "--n", "4", "kappa kappa", "(plus,3,1)") == (0, "(plus,3,1)\n")
    assert run("act", "--n", "4", "a_3", "(plus,3,1)") == (0, "-(minus,3)\n")
    assert run("act", "--n", "4", "H_2", "(plus,1) - (minus,2)") == (
        0,
        "(plus,1) + (minus,2)\n",
    )


def test_act_json():
    rc, doc = run_json("act", "--n", "4", "--json", "F_2 F_4", "(plus,-)")
    assert rc == 0
    assert doc["word"] == "F_2 F_4"
    assert doc["input"] == "(plus,-)"
    assert doc["result"] == "(plus,2)"


def test_act_usage_errors(capsys):
    assert run("act", "--n", "4", "create_1", "(plus,-)")[0] == 2
    assert run("act", "--n", "4", "Q_1", "(plus,-)")[0] == 2
    assert run("act", "--n", "4", "", "(plus,-)")[0] == 2
    assert run("act", "--n", "4", "F_1", "(plus,9)")[0] == 2
    assert run("act", "--n", "4", "F_9", "(plus,-)")[0] == 2
    assert run("act", "F_1", "(plus,-)")[0] == 2  # missing rank
    assert run("act", "--n", "4", "F_1", "1/0 * (plus,-)")[0] == 2
    assert run("act", "--n", "4", "F_1", "")[0] == 2  # only "0" is the zero vector
    assert run("act", "--n", "4", "F_1", "  ")[0] == 2
    # integers in user text are ASCII decimal digits only
    for word, vector, message in (
        ("F_1_0", "(plus,-)", "unknown operator token 'F_1_0'"),
        ("F_+2", "(plus,-)", "unknown operator token 'F_+2'"),
        ("a_\u0663", "(plus,-)", "unknown operator token 'a_\u0663'"),
        ("F_1", "(plus,1_0)", "cannot parse diagram '1_0'"),
        ("F_1", "\u0663 * (plus,-)", "cannot tokenize '\u0663 * (plus,-)' at position 0"),
    ):
        assert refusal(capsys, "act", "--n", "12", word, vector) == "error: %s\n" % message
    # mid-text, a token is refused where the whitespace before it starts
    assert refusal(capsys, "act", "--n", "4", "F_1", "(plus,-) + ?") == "error: cannot tokenize '(plus,-) + ?' at position 10\n"


def test_weight_text():
    rc, text = run("weight", "--n", "4", "(plus,3,1)")
    assert rc == 0
    assert text == "weight=(-1/2,1/2,-1/2,1/2)\tu=(-1,1,-1,0)\tfock_index={1,3}\n"


def test_weight_json():
    rc, doc = run_json("weight", "--n", "4", "--json", "(minus,-)")
    assert rc == 0
    assert doc["state"] == "(minus,-)"
    assert doc["eps"] == ["1/2", "1/2", "1/2", "-1/2"]
    assert doc["u"] == [0, 0, 1, 0]
    assert doc["fock_index"] == "{4}"


def test_weight_usage_errors(capsys):
    assert run("weight", "--n", "4", "(plus,5)")[0] == 2
    assert run("weight", "--n", "4", "nonsense")[0] == 2
    for state in ("(plus,+3)", "(plus,\u0663)", "(plus, 3_0)"):
        assert refusal(capsys, "weight", "--n", "12", state) == "error: cannot parse diagram %r\n" % state[6:-1].strip()


def test_clifford_normal_ordering():
    assert run("clifford", "--n", "2", "a1*b1 + b1*a1") == (0, "1\n")
    assert run("clifford", "--n", "2", "a1*a1") == (0, "0\n")
    assert run("clifford", "--n", "2", "b2*b1") == (0, "-b1 b2\n")


def test_clifford_apply():
    rc, text = run("clifford", "--n", "4", "--apply", "{1,3}", "b2*a1")
    assert (rc, text) == (0, "{2,3}\n")
    rc, doc = run_json("clifford", "--n", "4", "--json", "--apply", "{1,3}", "b2*a1")
    assert rc == 0
    assert doc["element"] == "b2 a1"
    assert doc["applied_to"] == "{1,3}"
    assert doc["result"] == "{2,3}"


def test_clifford_json_without_apply():
    rc, doc = run_json("clifford", "--n", "2", "--json", "b1*a2")
    assert rc == 0
    assert doc["element"] == "b1 a2"
    assert "applied_to" not in doc
    assert "result" not in doc


def test_clifford_usage_errors(capsys):
    assert run("clifford", "--n", "2", "b3")[0] == 2  # index above rank
    assert run("clifford", "--n", "2", "b1 +")[0] == 2
    assert run("clifford", "--n", "2", "--apply", "{3}", "b1")[0] == 2
    assert run("clifford", "--n", "2", "--apply", "oops", "b1")[0] == 2
    assert run("clifford", "--n", "2", "1/0*a1")[0] == 2
    assert run("clifford", "--n", "2", "--apply", "1/0 * {1}", "a1")[0] == 2
    assert run("clifford", "--n", "2", "--apply", "", "a1")[0] == 2
    assert run("clifford", "--n", "2", "--apply", " \t", "a1")[0] == 2
    assert refusal(capsys, "clifford", "--n", "4", "--apply", "{1_0}", "a1") == "error: cannot parse index set '{1_0}'\n"
    assert refusal(capsys, "clifford", "--n", "4", "--apply", "{+1}", "a1") == "error: cannot parse index set '{+1}'\n"
    assert refusal(capsys, "clifford", "--n", "12", "b\u0663") == "error: cannot tokenize 'b\u0663' at position 0\n"
    # mid-text, a token is refused where the whitespace before it starts
    assert refusal(capsys, "clifford", "--n", "4", "a1 + b1 ?") == "error: cannot tokenize 'a1 + b1 ?' at position 7\n"
    assert refusal(capsys, "clifford", "--n", "4", "--apply", "{1} + {2} x", "a1") == (
        "error: cannot tokenize '{1} + {2} x' at position 9\n"
    )
    assert refusal(capsys, "clifford", "--n", "2", "*") == "error: unexpected token '*' in '*'\n"
    assert refusal(capsys, "clifford", "--n", "2", "a1 )") == "error: trailing input ')' in 'a1 )'\n"
    assert refusal(capsys, "clifford", "--n", "2", ")") == "error: unexpected token ')' in ')'\n"


def test_verify_text():
    rc, text = run("verify", "--n", "4", "--suite", "weights")
    assert rc == 0
    lines = text.splitlines()
    assert lines[0].startswith("weights n=4: pass (4 identities, 1 xfail)")
    assert lines[-1] == "overall: pass"


def test_verify_multiple_suites_and_ranks():
    rc, text = run("verify", "--n", "2..3", "--suite", "chevalley,serre", "--suite", "module")
    assert rc == 0
    lines = text.splitlines()
    assert len(lines) == 7  # 3 suites x 2 ranks + the overall line
    assert lines[0].startswith("chevalley n=2: pass")
    assert lines[-1] == "overall: pass"


def test_verify_json():
    rc, doc = run_json("verify", "--n", "4", "--json", "--suite", "weights,module")
    assert rc == 0
    assert doc["ok"] is True
    assert [(r["suite"], r["n"]) for r in doc["reports"]] == [
        ("module", 4),
        ("weights", 4),
    ]
    counts = doc["reports"][1]["counts"]
    assert counts["xfail"] == 1
    assert counts["fail"] == 0


def test_verify_all_small():
    rc, text = run("verify", "--n", "2", "--all")
    assert rc == 0
    assert len(text.splitlines()) == len(cli.oracle.SUITE_NAMES) + 1


def test_verify_dinfty():
    rc, text = run("verify", "--dinfty", "--max-boxes", "3", "--n", "8")
    assert rc == 0
    lines = text.splitlines()
    assert lines[0].startswith("dinfty max_boxes=3, ambient n=8: pass (6 identities)")
    assert lines[-1] == "overall: pass"
    rc, doc = run_json("verify", "--dinfty", "--max-boxes", "3", "--n", "8", "--json")
    assert rc == 0
    assert doc["reports"][0]["mode"] == "truncated"
    assert doc["reports"][0]["max_boxes"] == 3


def test_verify_usage_errors():
    assert run("verify", "--n", "1")[0] == 2
    assert run("verify", "--n", "x..y")[0] == 2
    assert run("verify", "--n", "4", "--suite", "bogus")[0] == 2
    assert run("verify")[0] == 2
    assert run("verify", "--dinfty", "--n", "2..4")[0] == 2
    assert run("verify", "--dinfty", "--n", "3", "--max-boxes", "6")[0] == 2


@pytest.mark.parametrize("suites", [",", " , ,", ""])
def test_verify_refuses_a_suite_list_that_names_no_suite(suites, capsys):
    rc, text = run("verify", "--n", "3", "--suite", suites)
    assert rc == 2
    assert text == ""
    assert "--suite names no suite" in capsys.readouterr().err
    assert run("verify", "--n", "3", "--suite", ",", "--json")[0] == 2


def test_export_matrix_text():
    rc, text = run("export-matrix", "--n", "4", "F_4")
    assert rc == 0
    lines = text.splitlines()
    assert lines[0] == "# operator: F_4"
    assert lines[1] == "# rank: n=4  basis: spin  size: 16x16"
    assert lines[2].startswith("# basis order: (plus,-), (plus,1),")
    assert lines[3] == "# row col value"
    assert lines[4:] == ["1 0 1", "7 6 1", "12 10 1", "13 11 1"]


# export-matrix documents recorded while every matrix was stored as
# {(row, column): value}, one token of each family, a word and the wedge basis
EXPORTS = json.loads((DATA / "export_matrix.json").read_text())


def test_published_schemas_are_the_recorded_ones():
    # recorded while each command's schema was written out in full; the
    # text pins the key order as well as the dict
    recorded = (DATA / "schemas.json").read_text()
    assert json.dumps(cli.SCHEMAS, indent=2) + "\n" == recorded


@pytest.mark.parametrize("case", list(EXPORTS))
def test_export_matrix_json(case):
    rc, doc = run_json(*EXPORTS[case]["argv"])
    assert rc == 0
    assert doc == EXPORTS[case]["doc"]


def test_export_matrix_word_composes():
    # "b_2 a_1" tabulates the product, rightmost factor acting first
    rc, doc = run_json("export-matrix", "--n", "2", "--json", "b_2 a_1")
    assert rc == 0
    assert doc["entries"] == [[2, 3, "1"]]  # (minus,-) <- (minus,1)


def test_export_matrix_fock_basis():
    rc, text = run("export-matrix", "--n", "2", "--basis", "fock", "create_1")
    assert rc == 0
    lines = text.splitlines()
    assert "# basis order: {}, {1}, {2}, {1,2}" in lines
    assert lines[-2:] == ["1 0 1", "3 2 1"]


def test_export_matrix_fock_identity():
    # identity acts on either side; on the wedge basis it once reached the
    # shape-side dispatcher with a subset and crashed
    rc, doc = run_json("export-matrix", "--n", "3", "--basis", "fock", "--json", "identity")
    assert rc == 0
    assert doc["entries"] == [[i, i, "1"] for i in range(8)]
    rc, word = run_json("export-matrix", "--n", "3", "--basis", "fock", "--json", "create_1 identity")
    assert rc == 0
    rc, create = run_json("export-matrix", "--n", "3", "--basis", "fock", "--json", "create_1")
    assert rc == 0
    assert word["entries"] == create["entries"] and create["entries"]


def test_export_matrix_fock_refusal_names_identity(capsys):
    assert run("export-matrix", "--n", "3", "--basis", "fock", "kappa")[0] == 2
    assert "create_k / annihilate_k / identity, got 'kappa'" in capsys.readouterr().err


def test_export_matrix_to_file(tmp_path):
    path = tmp_path / "f4.txt"
    rc, text = run("export-matrix", "--n", "4", "F_4", "--out", str(path))
    assert rc == 0
    assert text == "wrote 4 entries to %s\n" % path
    content = path.read_text().splitlines()
    assert content[0] == "# operator: F_4"
    assert content[-1] == "13 11 1"


def test_export_matrix_usage_errors(capsys):
    assert run("export-matrix", "--n", "2", "create_1")[0] == 2
    assert run("export-matrix", "--n", "2", "--basis", "fock", "F_1")[0] == 2
    assert run("export-matrix", "--n", "2", "")[0] == 2
    assert run("export-matrix", "--n", "2", "Q_1")[0] == 2
    assert refusal(capsys, "export-matrix", "--n", "3", "b_0_1") == "error: unknown operator token 'b_0_1'\n"


def test_verify_failure_exit_code_via_stub(monkeypatch):
    # exit code 1 is reserved for a failing verification; force one through
    # a stub suite so the real suites stay honest
    def failing_suite(tables):
        return [{"identity": "stub identity", "status": "fail", "witness": "stub witness"}]

    monkeypatch.setitem(cli.oracle.SUITES, "stub", failing_suite)
    rc, text = run("verify", "--n", "2", "--suite", "stub")
    assert rc == 1
    assert "stub n=2: fail" in text
    assert "stub witness" in text
    assert text.splitlines()[-1] == "overall: fail"


def test_export_matrix_io_error(tmp_path, capsys):
    rc, text = run("export-matrix", "--n", "2", "F_1", "--out", str(tmp_path / "missing" / "f1.txt"))
    assert rc == 2
    assert text == ""
    assert capsys.readouterr().err.startswith("error: cannot write ")


def test_point_queries_are_linear_in_rank():
    # a dense n x n Cartan matrix made each of these take seconds at n = 2000
    def timed(*argv):
        started = time.perf_counter()
        rc, text = run(*argv)
        assert time.perf_counter() - started < 0.5
        assert rc == 0
        return json.loads(text)

    doc = timed("weight", "--n", "2000", "--json", "(plus,3,2)")
    assert {i + 1: x for i, x in enumerate(doc["u"]) if x} == {1996: 1, 1998: -1, 2000: 1}
    assert doc["fock_index"] == "{1997,1998}"
    doc = timed("act", "--n", "2000", "--json", "F_1999 E_1998 H_5", "(plus,1)")
    assert doc["result"] == "0"


# 100 rows at rank 10000 that E_7000, then F_9000, then E_5000 can each move by one box
SHAPE_100 = "(plus,%s)" % ",".join(map(str, [*range(9900, 1000, -100), 999, *range(900, 0, -100), 1]))


def test_point_queries_at_max_rank_stay_linear_in_n():
    # each E/F step sweeps a state in O(n + rows): one dimension vector, then
    # O(1) per single-box edit; when each edit took its own dimension vector,
    # one n-tuple per row at first, this act took 10-30 s
    def timed(*argv):
        started = time.perf_counter()
        rc, text = run(*argv)
        assert time.perf_counter() - started < 3.0, argv[0]
        assert rc == 0
        return json.loads(text)

    n = 10000
    ctx = RankContext(n)
    before = parse_basis_state(SHAPE_100, ctx)
    assert len(before[1]) == 100
    doc = timed("act", "--n", str(n), "--json", "E_5000 F_9000 E_7000", SHAPE_100)
    [(after, coeff)] = parse_spin_vector(doc["result"], ctx).terms.items()
    assert coeff == 1 and after[0] is before[0]
    delta = map(sub, dim_vector(after, ctx), dim_vector(before, ctx))
    assert {k: d for k, d in enumerate(delta, start=1) if d} == {5000: -1, 9000: 1, 7000: -1}
    doc = timed("weight", "--n", str(n), "--json", SHAPE_100)
    for route in (spinrep.weight_eps_alpha, spinrep.weight_eps_closed):
        assert doc["eps"] == [str(c) for c in route(before, ctx)]


# the largest requests a command admits, run in a child whose address space
# is capped; it prints its exit codes, outputs, the seconds all calls took
# and its own peak RSS in kB
WORST_CASE_CHILD = """
import io, json, resource, sys, time
limit = int(sys.argv[1]) * 2**20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from halfspin import cli
calls = json.loads(sys.stdin.read())
started, done = time.perf_counter(), []
for argv in calls:
    out = io.StringIO()
    done.append((cli.main(argv, out), out.getvalue()))
took = time.perf_counter() - started
try:  # this process's own peak: ru_maxrss also keeps the peak of the process that spawned it
    with open("/proc/self/status") as fh:
        peak = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
except OSError:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps([done, took, peak]))
"""


def worst_case(calls, limit_mb=256):
    """[(exit code, output)] of the argv calls, their seconds and the peak RSS in kB, from one capped child."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    child = subprocess.run(
        [sys.executable, "-c", WORST_CASE_CHILD, str(limit_mb)], input=json.dumps(calls),
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr[-2000:]
    return json.loads(child.stdout)


def test_act_and_weight_at_their_caps_run_in_bounded_time_and_memory():
    # MAX_ACT_TOKENS E/F steps on MAX_ACT_TERMS states of about 3000 rows,
    # each step moving every state by one box, then the weight of the
    # 9999-row shape; one n-tuple per swept state would need gigabytes here
    n = cli.MAX_RANK
    rows = tuple(range(9000, 0, -3))
    states = [(sign, r) for sign in (Sign.PLUS, Sign.MINUS) for r in (rows, rows + (1,))]
    assert len(states) == cli.MAX_ACT_TERMS
    # row 9000 - 300 * i grows (F) for even i and shrinks (E) for odd i
    steps = [(9000 - 300 * i, 1 if i % 2 == 0 else -1) for i in range(cli.MAX_ACT_TOKENS)]
    word = " ".join("F_%d" % (n - l - 1) if d > 0 else "E_%d" % (n - l) for l, d in reversed(steps))
    moved = {l: l + d for l, d in steps}
    want = SpinVector({(sign, tuple(moved.get(l, l) for l in r)): 1 for sign, r in states})
    vector = " + ".join(map(spinrep.format_basis_state, states))
    tall = (Sign.MINUS, tuple(range(n - 1, 0, -1)))
    calls = [["act", "--n", str(n), word, vector], ["weight", "--n", str(n), "--json", spinrep.format_basis_state(tall)]]
    [(act_rc, act_out), (weight_rc, weight_out)], took, peak_kb = worst_case(calls)
    assert act_rc == weight_rc == 0
    assert parse_spin_vector(act_out, RankContext(n)) == want
    assert json.loads(weight_out)["eps"] == [str(c) for c in spinrep.weight_eps_closed(tall, RankContext(n))]
    # measured 0.17-0.26 s and 57 MB peak RSS on a shared 2-core Intel Xeon host
    assert took < 5.0
    assert peak_kb < 128 * 1024


def test_clifford_at_its_caps_runs_in_bounded_time_and_memory():
    # the widest product MAX_CLIFFORD_TERMS admits, (a1 ... a12)(b1 ... b12)
    # with its 2^12 terms; the longest word, b1024 ... b1, an even
    # permutation of its letters; and --apply's terms times states at the cap
    k = cli.MAX_CLIFFORD_TERMS.bit_length() - 1
    a_k, b_k = (" ".join("%s%d" % (g, i) for i in range(1, k + 1)) for g in "ab")
    m = cli.MAX_CLIFFORD_GENERATORS
    assert m % 4 == 0
    word = " ".join("b%d" % i for i in range(m, 0, -1))
    wedge = " + ".join(WEDGE_65[:64])
    calls = [
        ["clifford", "--n", str(k), "(%s)(%s)" % (a_k, b_k)],
        ["clifford", "--n", str(m), word],
        ["clifford", "--n", "40", "--apply", wedge, "(1+b1)(1+b2)(1+b3)(1+b4)(1+b5)(1+b6)"],
    ]
    [(wide_rc, wide), (word_rc, sorted_word), (apply_rc, _)], took, peak_kb = worst_case(calls)
    assert wide_rc == word_rc == apply_rc == 0
    assert wide.count(" + ") + wide.count(" - ") + 1 == 2**k
    assert sorted_word == " ".join("b%d" % i for i in range(1, m + 1)) + "\n"
    # measured 0.06-0.08 s and 19 MB peak RSS on a shared 2-core Intel Xeon host
    assert took < 3.0
    assert peak_kb < 64 * 1024


def test_export_matrix_at_its_caps_runs_in_bounded_time_and_memory():
    # MAX_EXPORT_TOKENS tokens at MAX_BASIS_RANK, each tabulated over the
    # whole basis: F_7^8 = 0, kappa^8 = 1 with every entry printed, and the
    # product of four wedge number operators create_k annihilate_k
    n, w = cli.MAX_BASIS_RANK, cli.MAX_EXPORT_TOKENS
    assert w % 2 == 0
    numbers = " ".join("create_%d annihilate_%d" % (k, k) for k in range(1, w // 2 + 1))
    calls = [
        ["export-matrix", "--n", str(n), "--json", " ".join(["F_7"] * w)],
        ["export-matrix", "--n", str(n), "--json", " ".join(["kappa"] * w)],
        ["export-matrix", "--n", str(n), "--basis", "fock", "--json", numbers],
    ]
    done, took, peak_kb = worst_case(calls)
    assert [rc for rc, _ in done] == [0, 0, 0]
    zero, identity, projection = (json.loads(out)["entries"] for _, out in done)
    assert zero == []
    assert identity == [[i, i, "1"] for i in range(2**n)]
    # the subsets holding 1 .. w/2, each fixed
    assert len(projection) == 2 ** (n - w // 2) and all(i == j and v == "1" for i, j, v in projection)
    # measured 1.1-1.3 s and 45-46 MB peak RSS on a shared 2-core Intel Xeon host
    assert took < 10.0
    assert peak_kb < 96 * 1024


def test_enumerate_at_its_caps_runs_in_bounded_time_and_memory():
    # the whole basis at MAX_BASIS_RANK, and the capped family at MAX_BOXES in
    # MAX_AMBIENT_RANK, both as JSON
    n = cli.MAX_BASIS_RANK
    calls = [
        ["enumerate", "--n", str(n), "--json"],
        ["enumerate", "--dinfty", "--max-boxes", str(cli.MAX_BOXES), "--n", str(cli.MAX_AMBIENT_RANK), "--json"],
    ]
    [(bounded_rc, bounded), (capped_rc, capped)], took, peak_kb = worst_case(calls)
    assert bounded_rc == capped_rc == 0
    assert len(json.loads(bounded)["rows"]) == 2**n
    assert json.loads(capped)["max_boxes"] == cli.MAX_BOXES
    # measured 0.87-0.96 s and 96 MB peak RSS on a shared 2-core Intel Xeon host
    assert took < 10.0
    assert peak_kb < 192 * 1024


ONE_PLUS_B_14 = "".join("(1+b%d)" % i for i in range(1, 15))
A_14_B_14 = "(%s)(%s)" % (" ".join("a%d" % i for i in range(1, 15)), " ".join("b%d" % i for i in range(1, 15)))
F_6 = "".join("(1+b%d+a%d)" % (i, i) for i in range(1, 7))
# 65 wedge basis vectors, against the 64 terms of (1+b1)...(1+b6)
WEDGE_65 = ["{%d}" % i for i in range(1, 41)] + ["{1,%d}" % i for i in range(2, 27)]
# a word and a sum of one generator over the cap, and the word b10000 ... b1
# and the sum b1 + ... + b10000 at MAX_RANK, which took about 2 s and 6 s
# before the cap
B_DOWN = " ".join("b%d" % i for i in range(cli.MAX_CLIFFORD_GENERATORS + 1, 0, -1))
B_SUM = " + ".join("b%d" % i for i in range(1, cli.MAX_CLIFFORD_GENERATORS + 2))
B_DOWN_MAX = " ".join("b%d" % i for i in range(cli.MAX_RANK, 0, -1))
B_SUM_MAX = " + ".join("b%d" % i for i in range(1, cli.MAX_RANK + 1))
# one E/F token and one 100-row state over the act caps at MAX_RANK
F_OVER = " ".join(["F_99"] * (cli.MAX_ACT_TOKENS + 1))
SHAPES_OVER = " + ".join([SHAPE_100] * (cli.MAX_ACT_TERMS + 1))


@pytest.mark.parametrize(
    "argv, cap",
    [
        (("verify", "--n", "2..40"), cli.MAX_VERIFY_RANK),
        (("verify", "--n", "2..1000000000000", "--all"), cli.MAX_VERIFY_RANK),
        (("enumerate", "--n", "40"), cli.MAX_BASIS_RANK),
        (("export-matrix", "--n", "40", "F_1"), cli.MAX_BASIS_RANK),
        (("verify", "--dinfty", "--max-boxes", "200"), cli.MAX_BOXES),
        (("enumerate", "--dinfty", "--max-boxes", "200"), cli.MAX_BOXES),
        (("verify", "--dinfty", "--max-boxes", "3", "--n", "40"), cli.MAX_AMBIENT_RANK),
        (("enumerate", "--dinfty", "--max-boxes", "3", "--n", "40"), cli.MAX_AMBIENT_RANK),
        (("weight", "--n", "10000001", "(plus,-)"), cli.MAX_RANK),
        (("act", "--n", "10000001", "F_1", "(plus,-)"), cli.MAX_RANK),
        (("clifford", "--n", "10000001", "b1"), cli.MAX_RANK),
        (("verify", "--n", str(cli.MAX_VERIFY_RANK + 1), "--all"), cli.MAX_VERIFY_RANK),
        # uncapped, the first two make 2^14 terms each and the third takes
        # about 4 s
        (("clifford", "--n", "40", ONE_PLUS_B_14), cli.MAX_CLIFFORD_TERMS),
        (("clifford", "--n", "40", A_14_B_14), cli.MAX_CLIFFORD_TERMS),
        (("clifford", "--n", "40", "(%s)*(%s)" % (F_6, F_6)), cli.MAX_CLIFFORD_TERMS),
        (("clifford", "--n", "40", "--apply", " + ".join(WEDGE_65), "(1+b1)(1+b2)(1+b3)(1+b4)(1+b5)(1+b6)"),
         cli.MAX_CLIFFORD_TERMS),
        (("clifford", "--n", str(cli.MAX_RANK), B_DOWN), cli.MAX_CLIFFORD_GENERATORS),
        (("clifford", "--n", str(cli.MAX_RANK), B_SUM), cli.MAX_CLIFFORD_GENERATORS),
        (("clifford", "--n", str(cli.MAX_RANK), B_DOWN_MAX), cli.MAX_CLIFFORD_GENERATORS),
        (("clifford", "--n", str(cli.MAX_RANK), B_SUM_MAX), cli.MAX_CLIFFORD_GENERATORS),
        (("act", "--n", str(cli.MAX_RANK), F_OVER, SHAPE_100), cli.MAX_ACT_TOKENS),
        (("act", "--n", str(cli.MAX_RANK), "F_99", SHAPES_OVER), cli.MAX_ACT_TERMS),
        # uncapped, about 25 ms a token at n = 14, so about 12 minutes here;
        # the tokens are counted before any is parsed
        (("export-matrix", "--n", str(cli.MAX_BASIS_RANK), " ".join(["H_3"] * 30000)), cli.MAX_EXPORT_TOKENS),
        (("export-matrix", "--n", "2", " ".join(["kappa"] * cli.MAX_EXPORT_TOKENS + ["Q_1"])), cli.MAX_EXPORT_TOKENS),
    ],
)
def test_size_caps_refuse_with_exit_2(argv, cap, capsys):
    # refused before the work is done: each of these would allocate 2^n or
    # p(B) states, O(n) data at an absurd rank, or exponentially many
    # normal-ordering terms
    started = time.perf_counter()
    rc, text = run(*argv)
    assert time.perf_counter() - started < 0.5
    assert rc == 2
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "= %d" % cap in err and "MAX_" in err


def test_act_caps_admit_the_largest_word_and_vector_and_count_before_parsing(capsys):
    # an even number of family swaps is the identity
    word = " ".join(["kappa"] * cli.MAX_ACT_TOKENS)
    vector = " + ".join("(plus,%d)" % l for l in range(1, cli.MAX_ACT_TERMS + 1))
    assert cli.MAX_ACT_TOKENS % 2 == 0
    assert run("act", "--n", "8", word, vector) == (0, vector + "\n")
    # the caps are counted on the text, so an unparsable vector or token over a cap names the cap
    assert refusal(capsys, "act", "--n", "8", word + " Q_1", "(plus,9)") == (
        "error: word length %d exceeds MAX_ACT_TOKENS = %d\n" % (cli.MAX_ACT_TOKENS + 1, cli.MAX_ACT_TOKENS))
    assert refusal(capsys, "act", "--n", "8", "F_1", vector + " + (minus,9)") == (
        "error: vector terms %d exceeds MAX_ACT_TERMS = %d\n" % (cli.MAX_ACT_TERMS + 1, cli.MAX_ACT_TERMS))


@pytest.mark.parametrize(
    "argv, err",
    [
        (("verify", "--n", "1_5", "--all"), "cannot parse rank range '1_5'"),
        (("verify", "--n", "2..1_5"), "cannot parse rank range '2..1_5'"),
        (("verify", "--dinfty", "--n", "\u0664"), "cannot parse rank range '\u0664'"),
        (("weight", "--n", "\u0664", "(plus,-)"), "--n takes a decimal integer, got '\u0664'"),
        (("weight", "--n", "+1_2", "(plus,-)"), "--n takes a decimal integer, got '+1_2'"),
        (("act", "--n", "+4", "F_1", "(plus,-)"), "--n takes a decimal integer, got '+4'"),
        (("clifford", "--n", "1e2", "b1"), "--n takes a decimal integer, got '1e2'"),
        (("enumerate", "--n", "3.0"), "--n takes a decimal integer, got '3.0'"),
        (("export-matrix", "--n", "0x3", "F_1"), "--n takes a decimal integer, got '0x3'"),
        (("enumerate", "--dinfty", "--max-boxes", "\u0663"), "--max-boxes takes a decimal integer, got '\u0663'"),
        (("verify", "--dinfty", "--max-boxes", "1_0"), "--max-boxes takes a decimal integer, got '1_0'"),
        (("act", "--n", "-3", "F_1", "(plus,-)"), "rank must be at least 2, got -3"),
        (("verify", "--n", "-1"), "ranks must be at least 2, got '-1'"),
    ],
)
def test_integer_options_take_ascii_decimal_digits_only(argv, err, capsys):
    # int() would read these as 15, 4, 12, ...; every integer of an argv is
    # read by diagram.parse_decimal, a leading "-" left to the range checks
    assert refusal(capsys, *argv) == "error: %s\n" % err


def test_size_caps_admit_their_limits():
    assert cli.MAX_VERIFY_RANK >= 14 and cli.MAX_AMBIENT_RANK >= 12 and cli.MAX_BOXES >= 7
    assert cli.MAX_RANK >= 256 and cli.MAX_BASIS_RANK >= cli.MAX_VERIFY_RANK
    rc, doc = run_json("enumerate", "--dinfty", "--max-boxes", str(cli.MAX_BOXES), "--n", str(cli.MAX_AMBIENT_RANK), "--json")
    assert rc == 0 and doc["max_boxes"] == cli.MAX_BOXES
    assert run("export-matrix", "--n", str(cli.MAX_BASIS_RANK), "F_1")[0] == 0
    # (a1 ... ak)(b1 ... bk) has 2^k terms, and its product bound is 2^k
    k = cli.MAX_CLIFFORD_TERMS.bit_length() - 1
    a_k, b_k = (" ".join("%s%d" % (g, i) for i in range(1, k + 1)) for g in "ab")
    rc, text = run("clifford", "--n", str(k), "(%s)(%s)" % (a_k, b_k))
    assert rc == 0 and text.count(" + ") + text.count(" - ") + 1 == 2**k
    # b_m ... b_1 at m = MAX_CLIFFORD_GENERATORS reverses m letters, an even
    # permutation when m is a multiple of 4
    m = cli.MAX_CLIFFORD_GENERATORS
    assert m % 4 == 0
    rc, text = run("clifford", "--n", str(m), " ".join("b%d" % i for i in range(m, 0, -1)))
    assert (rc, text) == (0, " ".join("b%d" % i for i in range(1, m + 1)) + "\n")


def test_size_caps_are_in_the_help(capsys):
    for command, caps in (
        ("verify", ("MAX_VERIFY_RANK", "MAX_AMBIENT_RANK", "MAX_BOXES")),
        ("enumerate", ("MAX_BASIS_RANK", "MAX_AMBIENT_RANK", "MAX_BOXES")),
        ("export-matrix", ("MAX_BASIS_RANK", "MAX_EXPORT_TOKENS")),
        ("act", ("MAX_RANK",)),
        ("clifford", ("MAX_RANK", "MAX_CLIFFORD_GENERATORS", "MAX_CLIFFORD_TERMS")),
    ):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"], io.StringIO())
        text = " ".join(capsys.readouterr().out.split())
        for name in caps:
            assert "%d (%s)" % (getattr(cli, name), name) in text


def test_readme_caps_table_matches_the_constants():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = {name: int(value) for name, value in re.findall(r"^\| `(MAX_[A-Z_]+)` \| (\d+) \|", readme, re.M)}
    assert table == {name: getattr(cli, name) for name in dir(cli) if name.startswith("MAX_")}


def test_readme_suite_table_matches_the_suites():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    # the rank-free column gives each suite's entry label in verify --dinfty, or "none"
    table = readme.split("| suite | checks | rank-free |\n|---|---|---|\n", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `([a-z_]+)` \| [^|]+ \| ([^|(]+?)( \([^|]+\))? \|$", table, re.M)
    assert len(rows) == len(table.splitlines())
    assert sorted(name for name, _, _ in rows) == list(oracle.SUITE_NAMES)
    families = {name: label for name, (_, _, label) in oracle.IDENTITY_TABLES.items()}
    families["weights"] = "weight routes agree"
    assert {name: label for name, label, _ in rows} == {name: families.get(name, "none") for name in oracle.SUITE_NAMES}
    assert {name: note for name, _, note in rows if note} == {"intertwiner": " (the bijection entry is bounded only)"}


def test_readme_operator_tokens_match_the_operator_table():
    # the README's "Operator tokens" paragraph lists every name of the
    # operator table on its side, and each listed token parses
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    found = re.search(r"Operator tokens: (.*?) on the shape side; (.*?) on the wedge side .*?; (.*?) on either side\.", readme)
    shape, wedge, either = (re.findall(r"`([^`]+)`", part) for part in found.groups())
    assert {t.removesuffix("_k") for t in shape} == set(oracle._OPERATORS) - set(oracle.WEDGE_OPS) - {"identity"}
    assert [t.removesuffix("_k") for t in wedge] == list(oracle.WEDGE_OPS)
    assert either == ["identity"]
    for token in shape + wedge + either:
        name, k = oracle.parse_operator_token(token.replace("_k", "_1"))
        assert name == token.removesuffix("_k") and k == (1 if token.endswith("_k") else None)


def test_deeply_nested_clifford_expression_is_a_usage_error():
    # the expression parser recurses once per parenthesis level; past the
    # interpreter's recursion limit the command refuses the expression as
    # usage.  A fresh interpreter runs it, as the installed command does,
    # and 300 levels still parse.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    for depth, code, stdout in ((300, 0, "a1\n"), (400, 2, "")):
        argv = [sys.executable, "-m", "halfspin.cli", "clifford", "--n", "2", "(" * depth + "a1" + ")" * depth]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (code, stdout), proc.stderr[-300:]
    assert proc.stderr == "error: parentheses nested too deeply (400 opened)\n"


@pytest.mark.parametrize(
    "argv, options",
    [
        (("verify", "--dinfty", "--max-boxes", "2", "--n", "4", "--suite", "nope"), ("--suite", "--dinfty")),
        (("verify", "--n", "3", "--suite", "weights", "--all"), ("--suite", "--all")),
        (("verify", "--dinfty", "--all"), ("--all", "--dinfty")),
        (("verify", "--n", "3", "--max-boxes", "5"), ("--max-boxes", "--dinfty")),
        (("enumerate", "--n", "3", "--max-boxes", "2"), ("--max-boxes", "--dinfty")),
        (("enumerate", "--n", "3", "--max-boxes", "0"), ("--max-boxes", "--dinfty")),
        (("enumerate", "--n", "3", "--json", "--csv"), ("--json", "--csv")),
    ],
)
def test_options_the_command_would_ignore_are_refused(argv, options, capsys):
    rc, text = run(*argv)
    err = capsys.readouterr().err
    assert (rc, text) == (2, "")
    assert err.startswith("error: ") and all(option in err for option in options)


# stdout, stderr and exit code of each command in text, --csv and --json and
# of each usage-error branch, recorded before the command line's usage checks
# were gathered into one set of helpers, with timings masked.  Two entries
# have changed since: verify's "too small" refusal now names the rank it
# needs, as enumerate's always did, and a reversed verify range is refused as
# empty, no longer as too low.
RECORDED = json.loads((DATA / "cli_outputs.json").read_text())


def _masked(text):
    text = re.sub(r'"duration": [0-9.e-]+', '"duration": "*"', text)
    return re.sub(r"\[[0-9.]+s\]", "[*s]", text)


@pytest.mark.parametrize("case", RECORDED, ids=lambda case: " ".join(case["argv"]))
def test_outputs_are_the_recorded_ones(case, capsys):
    rc, text = run(*case["argv"])
    assert (rc, _masked(text), capsys.readouterr().err) == (case["exit"], case["stdout"], case["stderr"])


# stdout, stderr and exit code of argparse's own outputs at 80 columns: every
# --help, no command, an unknown command or option, a missing positional or
# value, a bad choice and -h after other options.  argparse prints help to
# sys.stdout, not to main's out, and exits through SystemExit.
ARGPARSE_RECORDED = json.loads((DATA / "argparse_outputs.json").read_text())


def _call(argv, capsys):
    """Exit code, main's out (masked), sys.stdout and sys.stderr of one main call."""
    out = io.StringIO()
    try:
        rc = cli.main(list(argv), out)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, _masked(out.getvalue()), captured.out, captured.err


@pytest.mark.parametrize("case", ARGPARSE_RECORDED, ids=lambda case: " ".join(case["argv"]) or "(no command)")
def test_argparse_outputs_are_the_recorded_ones(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert _call(case["argv"], capsys) == (case["exit"], "", case["stdout"], case["stderr"])


def test_repeated_calls_in_one_process_match_the_records(capsys, monkeypatch):
    # every recorded argv twice in one process, the second pass in reverse
    # order: no call carries parser state into the next, usage errors included
    monkeypatch.setenv("COLUMNS", "80")
    cases = [(c["argv"], (c["exit"], c["stdout"], "", c["stderr"])) for c in RECORDED]
    cases += [(c["argv"], (c["exit"], "", c["stdout"], c["stderr"])) for c in ARGPARSE_RECORDED]
    calls = cases + cases[::-1]
    assert any(expected[0] == 2 for _, expected in calls[:-1])
    for argv, expected in calls:
        assert _call(argv, capsys) == expected, argv


def _commands(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


# one short call of each command, in the order build_parser lists them
MINIMAL = {
    "enumerate": ["--n", "2"],
    "act": ["--n", "2", "F_1", "(plus,-)"],
    "weight": ["--n", "2", "(plus,-)"],
    "clifford": ["--n", "2", "a1"],
    "verify": ["--n", "2", "--suite", "weights"],
    "export-matrix": ["--n", "2", "F_1"],
}


def test_the_top_level_parser_is_built_once_and_a_call_builds_its_command_alone(monkeypatch, capsys):
    # every argparse parser built is recorded by its prog: the top-level parser
    # is built once per process, and a command's parser, with its options, only
    # when that command is parsed
    built = []
    init = argparse.ArgumentParser.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording_init)
    cli.build_parser.cache_clear()
    assert cli.build_parser() is cli.build_parser()
    assert list(_commands(cli.build_parser())) == list(MINIMAL)
    assert built == ["halfspin"]
    for name, rest in MINIMAL.items():
        built.clear()
        args = cli.build_parser().parse_args([name] + rest)
        assert args.func is getattr(cli, "cmd_" + name.replace("-", "_"))
        assert built == ["halfspin " + name]
        built.clear()
        assert run(name, *rest)[0] == 0
        assert built == ["halfspin " + name]
    for argv in (["--help"], [], ["bogus"]):
        built.clear()
        with pytest.raises(SystemExit):
            cli.main(argv, io.StringIO())
        assert built == [], argv
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["act", "--help"],
    ["--help"],
    ["act", "--n", "4", "F_1"],
    ["export-matrix", "--n", "2", "--basis", "x", "F_1"],
])
def test_help_is_formatted_at_the_width_of_each_call(argv, capsys, monkeypatch):
    # the parser outlives the call that built it, so a width or formatter
    # frozen when it was built would show in the next call's help; a
    # command's parser reads the width once per call, for its usage errors too
    recorded = next(c for c in ARGPARSE_RECORDED if c["argv"] == argv)
    expected = (recorded["exit"], "", recorded["stdout"], recorded["stderr"])
    cli.build_parser.cache_clear()
    for columns in ("80", "50", "80"):
        monkeypatch.setenv("COLUMNS", columns)
        rc, out, text, err = _call(argv, capsys)
        if columns == "80":
            assert (rc, out, text, err) == expected
        elif recorded["exit"] == 0:  # help: on stdout alone
            assert (rc, out, err) == (0, "", "") and text != recorded["stdout"]
        else:  # a usage error: on stderr alone
            assert (rc, out, text) == (recorded["exit"], "", "") and err != recorded["stderr"]


# JSON trees of every type json writes, NaN and the infinities included, with
# lists of str alone and of int alone drawn on purpose: _json_text writes those by one join
_JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=4), children, max_size=5),
        st.lists(st.text(max_size=4), max_size=5),
        st.lists(st.integers(), max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=300)
@given(_JSON_TREES)
def test_the_json_writer_is_json_dumps_with_indent_2(doc):
    assert cli._json_text(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("doc", [
    [], {}, [[]], {"a": {}}, [1, True], ["a", 1], "\x00 \ud800", -0.0, 10**40, {"u": [0, -1], "eps": ["1/2"]},
    {"a": [1], "pair": (1, "x")},  # a tuple: _json_value refuses it, so json writes the document
], ids=repr)
def test_the_json_writer_on_edge_cases(doc):
    assert cli._json_text(doc) == json.dumps(doc, indent=2)


def test_the_json_writer_hands_a_dict_with_an_int_key_to_json():
    doc = {"a": [1], 2: None}
    with pytest.raises(TypeError):
        cli._json_value(doc, "\n")
    assert cli._json_text(doc) == json.dumps(doc, indent=2)


# the argv grammar, drawn without regard to which command an option belongs
# to: valid tokens (verify ranks at most 5, so a valid call stays short)
# mixed with hostile text.  --out is drawn only with OUT, which the test
# replaces by a file of its own.
OUT = "<out>"
_FLAGS = ["--dinfty", "--json", "--csv", "--all", "-h", "--help", "--"]
_VALUED = ["--n", "--max-boxes", "--suite", "--basis", "--apply"]
_OPERAND = st.one_of(
    st.sampled_from([
        "2", "3", "4", "5", "2..5", "3..4", "0", "1", "10000", "F_1", "E_2 F_1", "kappa a_1", "H_1",
        "create_1", "(plus,-)", "(minus,1)", "(plus,2,1) - 2 * (minus,1)", "a1*b1 + b1*a1", "b2 b1",
        "{1,3}", "{}", "weights", "module,serre", "spin", "fock",
    ]),
    st.sampled_from([
        "", " ", ",", ",,", "1_5", "+4", "\u0664", "\u0661\u0662", "\u00b2", "-3", "2..", "5..2",
        "(plus,,1)", "{1,,3}", "a1,", "(plus,3,1", "F_0", "F_+1", "1/0 * (plus,-)", "weights,",
    ]),
    st.integers(10**5, 10**60).map(str),
    st.tuples(st.integers(1, 3000), st.sampled_from(["a1", "plus,-", "{1}"])).map(
        lambda t: "(" * t[0] + t[1] + ")" * t[0]
    ),
    st.text(alphabet="()[]{},_+-*/. 0123456789\u0664\u00b2abFEHplusminkaeyt", max_size=24),
)
_UNIT = st.one_of(
    st.sampled_from(_FLAGS).map(lambda f: [f]),
    st.tuples(st.sampled_from(_VALUED), _OPERAND).map(list),
    _OPERAND.map(lambda o: [o]),
    st.just(["--out", OUT]),
)
# a command alone, none, an unknown one, or a valid call to build on
_HEAD = st.one_of(
    st.just([]),
    st.sampled_from([[name] for name in MINIMAL] + [["bogus"], [""], ["Act"], ["export_matrix"], ["-x"]]),
    st.sampled_from([[name] + rest for name, rest in MINIMAL.items()]),
)
# the other branch: a command followed by its own options, each with a value
# it takes, and as many operands as it takes, so that most of these draws
# reach its func; it is listed first, as hypothesis favours a first branch
_VALUES = {
    "--n": ["2", "3", "4", "5"], "--max-boxes": ["0", "3", "5"], "--suite": ["weights", "module,serre"],
    "--basis": ["spin", "fock"], "--apply": ["{1,3}", "{}"], "--out": [OUT],
}
_OWN = {
    "enumerate": (["--n", "--dinfty", "--max-boxes", "--json", "--csv"], 0),
    "act": (["--n", "--json"], 2),
    "weight": (["--n", "--json"], 1),
    "clifford": (["--n", "--apply", "--json"], 1),
    "verify": (["--n", "--suite", "--all", "--dinfty", "--max-boxes", "--json"], 0),
    "export-matrix": (["--n", "--basis", "--out", "--json"], 1),
}


def _own_call(name):
    options, operands = _OWN[name]
    unit = st.sampled_from(options).flatmap(
        lambda o: st.sampled_from(_VALUES[o]).map(lambda v: [o, v]) if o in _VALUES else st.just([o])
    )
    return st.tuples(st.lists(unit, max_size=4), st.lists(_OPERAND, min_size=operands, max_size=operands)).map(
        lambda t: [name] + [tok for unit in t[0] for tok in unit] + t[1]
    )


_ARGV = st.one_of(
    st.sampled_from(list(_OWN)).flatmap(_own_call),
    st.tuples(_HEAD, st.lists(_UNIT, max_size=8)).map(lambda t: t[0] + [tok for unit in t[1] for tok in unit]),
)


@settings(max_examples=300, deadline=None)
@given(argv=_ARGV)
def test_any_argv_exits_0_1_or_2_promptly(tmp_path_factory, argv):
    argv = [str(tmp_path_factory.getbasetemp() / "fuzz.out") if tok == OUT else tok for tok in argv]
    out, stdout, stderr = io.StringIO(), io.StringIO(), io.StringIO()
    start = time.perf_counter()
    reached = []  # each cmd_* records here that the call got to it
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), pytest.MonkeyPatch.context() as mp:
        for name in MINIMAL:
            func = getattr(cli, "cmd_" + name.replace("-", "_"))
            mp.setattr(cli, func.__name__, lambda *a, func=func: reached.append(func) or func(*a))
        try:
            rc = cli.main(argv, out)
        except SystemExit as exc:
            rc = exc.code
    event("reaches a command's func" if reached else "stops before a command's func")
    assert time.perf_counter() - start < 5, argv
    assert rc in (0, 1, 2), argv
    if rc == 2:
        assert out.getvalue() == "", argv
        assert any(line.startswith("error: ") or ": error: " in line for line in stderr.getvalue().splitlines()), argv
