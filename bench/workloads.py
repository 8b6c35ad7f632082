"""The four benchmark workloads: their inputs, their passes, their correctness checks.

A workload is one pass, a fixed list of operations drawn by the seed, that a
run repeats until its time is up; an operation is one call of
``halfspin.cli.main`` with a generated argv.  Repeating the same pass times
each operation several times, and the run reports medians (see ``run.py``).  The
program sees only those argv lists.  Every operation's output is checked
against the reference that ``record.py`` recorded when the benchmark was
defined, so a run needs no second implementation to know whether the program
answered right.

Why these four:

- ``verify_bounded``: whole-basis suites at ranks 2..9 -- operator tabulation
  and exact matrix products, the bulk of a full ``verify``.
- ``verify_dinfty``: the rank-free re-run.  No matrix and no tabulation; the
  time is single-operator application and the dimension-vector search, so a
  change to the matrix layer should leave it unchanged.
- ``point_queries``: one ``act``/``weight`` query touches one state at a large
  rank; the counter-workload for per-rank tables and caches.
- ``wedge_algebra``: the Clifford normal-ordered product, ``act`` and exact
  rank on 256 rows, which no other workload reaches.

The suites, the box cap and the ambient rank are spelled out, never left to
``--all`` or a default, so a later change to a default or a new suite does not
change the measured work.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import namedtuple
from pathlib import Path

from tracer import METRICS

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

BOUNDED_SUITES = "chevalley,clifford,factorization,faithfulness,intertwiner,module,serre,weights"
VERIFY_BOUNDED_ARGV = ["verify", "--n", "2..9", "--suite", BOUNDED_SUITES, "--json"]
VERIFY_DINFTY_ARGV = ["verify", "--dinfty", "--max-boxes", "7", "--n", "12", "--json"]
FAITHFULNESS_ARGV = ["verify", "--n", "4", "--suite", "faithfulness", "--json"]

# point_queries: distinct queries drawn from each log-uniform rank stratum
# into the pass; 32 strata of 32 make the 1000 queries a p99 with ten beyond
# it needs
QUERY_RANKS = (8, 256)
PASS_PER_STRATUM = 32
# wedge_algebra: distinct expressions in the pass, plus one faithfulness
# verify; 1024 of them give a true p99 too
EXPRESSIONS_PER_PASS = 1024

Op = namedtuple("Op", "argv expected kind")
"""One CLI call.  kind "verify": expected maps report keys to digests;
kind "query": expected is the digest of the whole JSON document."""


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def report_key(report) -> str:
    return "%s/%s" % (report["suite"], report["n"])


def report_digest(report) -> str:
    """Digest of a verify report without its timing (and any later stats block)."""
    keep = ("suite", "n", "status", "counts", "checks", "max_boxes", "mode")
    return digest({k: report[k] for k in keep if k in report})


def verify_digests(text) -> dict:
    doc = json.loads(text)
    return {report_key(r): report_digest(r) for r in doc["reports"]}


def output_digest(text):
    try:
        return digest(json.loads(text))
    except ValueError:
        return None


def count_failed(op: Op, rc, text) -> int:
    """Failed operations among the op_count(op) that one call attempts."""
    if op.kind == "query":
        return 0 if rc == 0 and output_digest(text) == op.expected else 1
    try:
        reports = {report_key(r): r for r in json.loads(text)["reports"]}
    except (ValueError, KeyError, TypeError):
        return len(op.expected)
    failed = 0
    for key, want in op.expected.items():
        r = reports.get(key)
        if r is None or r.get("status") != "pass" or report_digest(r) != want:
            failed += 1
    if rc != 0 and failed == 0:
        failed = len(op.expected)
    return failed


def op_count(op: Op) -> int:
    """Operations one call counts for: its reports for verify, else 1."""
    return len(op.expected) if op.kind == "verify" else 1


def _busy(*layers):
    """Metric names of layers that must read nonzero in a traced run."""
    known = {name for name, _ in METRICS}
    names = []
    for layer in layers:
        if layer in known:
            names.append(layer)
        elif layer.startswith("oracle.suite."):
            names.append(layer + ".s")
        else:
            names += [layer + ".calls", layer + ".self_s"]
    missing = [name for name in names if name not in known]
    if missing:
        raise ValueError("not per-layer metrics: %s" % missing)
    return tuple(names)


_SHAPE_LAYERS = (
    "quiver.rank_context",
    "quiver.dim_vector",
    "quiver.state_u",
    "spinrep.shift",
    "spinrep.shift.hit_ratio",
    "spinrep.dim_vector_per_shift",
    "spinrep.apply_H.self_s",
    "spinrep.ladder",
    "spinrep.weight.self_s",
    "cli.main.self_s",
)


def load_reference(name):
    with open(REFERENCE_DIR / ("%s.json" % name)) as fh:
        return json.load(fh)


class Workload:
    """Base: ``pass_ops()`` is the pass; the same seed gives the same one."""

    name = None
    why = None
    busy = ()
    """Per-layer metrics this workload must drive; a traced run that reads
    zero on any of them has lost a binding and fails."""

    def __init__(self, seed):
        self.seed = seed

    def inputs(self) -> dict:
        raise NotImplementedError

    def pass_ops(self):
        raise NotImplementedError


class _FixedVerify(Workload):
    argv = None
    states = None

    def __init__(self, seed):
        super().__init__(seed)
        ref = load_reference(self.name)
        if ref["argv"] != self.argv:
            raise RuntimeError("reference for %s was recorded for other inputs" % self.name)
        self.op = Op(self.argv, ref["reports"], "verify")
        self.entries = ref["entries"]

    def inputs(self):
        # the seed does not vary a fixed command
        return {
            "argv": self.argv,
            "states": self.states,
            "reports": len(self.op.expected),
            "entries": self.entries,
        }

    def pass_ops(self):
        return [self.op]


class VerifyBounded(_FixedVerify):
    name = "verify_bounded"
    why = "whole-basis suites at ranks 2..9: operator tabulation and exact matrix products"
    argv = VERIFY_BOUNDED_ARGV
    states = sum(2**n for n in range(2, 10))
    busy = _busy(
        *_SHAPE_LAYERS,
        "diagram.enumerate",
        "clifford.create_annihilate",
        "clifford.act",
        "oracle.tabulate",
        "oracle.tabulate.reuse_ratio",
        "oracle.matmul",
        "oracle.matmul.nnz_out",
        "oracle.mateq.self_s",
        "oracle.matadd.self_s",
        "oracle.rank",
        *("oracle.suite." + s for s in BOUNDED_SUITES.split(",")),
    )


class VerifyDinfty(_FixedVerify):
    name = "verify_dinfty"
    why = "rank-free re-run: single-operator application and dimension vectors, no matrices"
    argv = VERIFY_DINFTY_ARGV
    states = 38  # both signs of the 19 strict partitions with at most 7 boxes
    busy = _busy(*_SHAPE_LAYERS, "diagram.enumerate", "clifford.create_annihilate", "oracle.suite.dinfty")


class PointQueries(Workload):
    """The pass holds distinct queries from each log-uniform rank stratum, in an order drawn by the seed."""

    name = "point_queries"
    why = "1024 single act/weight queries at log-uniform ranks 8..256: the counter-workload for per-rank tables"
    busy = _busy(*_SHAPE_LAYERS)

    def __init__(self, seed):
        super().__init__(seed)
        self.strata = [
            [Op(argv, want, "query") for argv, want in stratum]
            for stratum in load_reference(self.name)["strata"]
        ]

    def inputs(self):
        return {
            "pool": "reference/point_queries.json",
            "strata": len(self.strata),
            "pool_size": sum(len(s) for s in self.strata),
            "ranks": list(QUERY_RANKS),
            "per_pass": "%d distinct queries from each stratum, drawn and shuffled by the seed"
            % PASS_PER_STRATUM,
        }

    def pass_ops(self):
        rng = random.Random(self.seed)
        ops = [op for stratum in self.strata for op in rng.sample(stratum, PASS_PER_STRATUM)]
        rng.shuffle(ops)
        return ops


class WedgeAlgebra(Workload):
    name = "wedge_algebra"
    why = "1024 Clifford products with act, and exact rank on 256 rows, which no other workload reaches"
    busy = _busy(
        "quiver.rank_context",
        "clifford.create_annihilate",
        "clifford.act",
        "clifford.product",
        "clifford.parse.self_s",
        "oracle.rank",
        "oracle.suite.faithfulness",
        "cli.main.self_s",
    )

    def __init__(self, seed):
        super().__init__(seed)
        ref = load_reference(self.name)
        if ref["verify_argv"] != FAITHFULNESS_ARGV:
            raise RuntimeError("reference for %s was recorded for other inputs" % self.name)
        self.expressions = [Op(argv, want, "query") for argv, want in ref["expressions"]]
        self.faithfulness = Op(FAITHFULNESS_ARGV, ref["reports"], "verify")

    def inputs(self):
        return {
            "pool": "reference/wedge_algebra.json",
            "pool_size": len(self.expressions),
            "per_pass": "%d distinct expressions drawn and shuffled by the seed, then %s"
            % (EXPRESSIONS_PER_PASS, " ".join(FAITHFULNESS_ARGV)),
        }

    def pass_ops(self):
        rng = random.Random(self.seed)
        return rng.sample(self.expressions, EXPRESSIONS_PER_PASS) + [self.faithfulness]


WORKLOADS = {w.name: w for w in (VerifyBounded, VerifyDinfty, PointQueries, WedgeAlgebra)}

