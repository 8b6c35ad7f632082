"""Record the reference outputs that every benchmark run is checked against.

Run once, from the repository root, at the commit whose outputs are the
reference:

    python3 bench/record.py

It draws the query pools of ``point_queries`` and ``wedge_algebra`` from a
fixed seed, runs every pooled query and the verify commands through
``halfspin.cli.main``, requires each to exit 0 with every report ``pass``, and
writes the inputs with the digests of their outputs to ``bench/reference/``.
Re-recording is a change to the benchmark, not to the program.
"""

from __future__ import annotations

import io
import json
import random
import sys
from pathlib import Path

import workloads as wl

POOL_SEED = 20030718
QUERY_STRATA = 32
QUERIES_PER_STRATUM = 40
EXPRESSION_POOL = 1280
# most random words or expressions annihilate their input; redraw until the
# result is nonzero, keeping a zero result only this often
KEEP_ZERO = 0.15
REDRAWS = 40


def _shape(rng, n):
    size = min(rng.choice((0, 1, 1, 2, 2, 3, 3, 4, 5)), n - 1)
    return sorted(rng.sample(range(1, n), size), reverse=True)


def _state_text(sign, rows):
    return "(%s,%s)" % (sign, ",".join(str(r) for r in rows) or "-")


def _coeff(rng):
    return rng.choice(("", "", "", "2 * ", "1/2 * ", "3 * "))


def _spin_vector(rng, n):
    chunks = []
    first_rows = None
    for i in range(rng.choice((1, 1, 1, 2, 3))):
        rows = _shape(rng, n)
        first_rows = rows if first_rows is None else first_rows
        joint = "" if i == 0 else rng.choice((" + ", " - "))
        chunks.append(joint + _coeff(rng) + _state_text(rng.choice(("plus", "minus")), rows))
    return "".join(chunks), first_rows


def _word(rng, n, rows):
    # vertices near the row endpoints, where E/F/a/b act nontrivially
    hot = sorted({n - l for l in rows} | {n - 1, n})
    tokens = []
    for _ in range(rng.randint(1, 8)):
        kind = rng.choice(("E", "F", "F", "H", "a", "b", "kappa"))
        if kind == "kappa":
            tokens.append(kind)
            continue
        if rng.random() < 0.6:
            k = min(max(rng.choice(hot) + rng.choice((-1, 0, 0, 1)), 1), n)
        else:
            k = rng.randint(1, n)
        tokens.append("%s_%d" % (kind, k))
    return " ".join(tokens)


def point_query(rng, stratum):
    lo, hi = wl.QUERY_RANKS
    u = (stratum + rng.random()) / QUERY_STRATA
    n = min(max(round(lo * (hi / lo) ** u), lo), hi)
    if rng.random() < 0.25:
        rows = _shape(rng, n)
        return ["weight", "--n", str(n), "--json", _state_text(rng.choice(("plus", "minus")), rows)]
    vector, rows = _spin_vector(rng, n)
    return ["act", "--n", str(n), "--json", _word(rng, n, rows), vector]


def wedge_expression(rng):
    n = rng.randint(4, 8)
    factors = []
    for _ in range(rng.randint(1, 4)):
        terms = []
        for i in range(rng.randint(1, 3)):
            joint = "" if i == 0 else rng.choice((" + ", " - ", " + 2*", " - 1/2*"))
            terms.append("%s%s%d" % (joint, rng.choice("ab"), rng.randint(1, n)))
        factors.append("(%s)" % "".join(terms) if len(terms) > 1 else terms[0])
    chunks = []
    for i in range(rng.randint(1, 3)):
        subset = sorted(rng.sample(range(1, n + 1), rng.randint(0, n)))
        joint = "" if i == 0 else rng.choice((" + ", " - "))
        chunks.append("%s%s{%s}" % (joint, _coeff(rng), ",".join(str(k) for k in subset)))
    return ["clifford", "--n", str(n), "--apply", "".join(chunks), "--json", "*".join(factors)]


def _call(cli, argv):
    out = io.StringIO()
    rc = cli.main(list(argv), out)
    text = out.getvalue()
    if rc != 0:
        raise SystemExit("reference command failed (exit %s): %s" % (rc, " ".join(argv)))
    return text


def _draw(cli, rng, make):
    """Draw from make(rng) until the output's result is nonzero (see KEEP_ZERO)."""
    for attempt in range(REDRAWS):
        argv = make(rng)
        doc = json.loads(_call(cli, argv))
        if doc.get("result", "") != "0" or rng.random() < KEEP_ZERO or attempt == REDRAWS - 1:
            return [argv, wl.digest(doc)]


def _verify_reference(cli, argv):
    text = _call(cli, argv)
    doc = json.loads(text)
    bad = [wl.report_key(r) for r in doc["reports"] if r["status"] != "pass"]
    if bad or not doc["ok"]:
        raise SystemExit("reference verify has failing reports: %s" % bad)
    return wl.verify_digests(text), sum(len(r["checks"]) for r in doc["reports"])


def _write(name, doc):
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    path = wl.REFERENCE_DIR / ("%s.json" % name)
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")
    print("wrote %s" % path)


def main():
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    from halfspin import cli

    for argv, name in ((wl.VERIFY_BOUNDED_ARGV, "verify_bounded"), (wl.VERIFY_DINFTY_ARGV, "verify_dinfty")):
        reports, entries = _verify_reference(cli, argv)
        _write(name, {"argv": argv, "reports": reports, "entries": entries})

    rng = random.Random(POOL_SEED)
    strata = []
    for s in range(QUERY_STRATA):
        make = lambda r, s=s: point_query(r, s)
        strata.append([_draw(cli, rng, make) for _ in range(QUERIES_PER_STRATUM)])
    _write("point_queries", {"pool_seed": POOL_SEED, "strata": strata})

    expressions = [_draw(cli, rng, wedge_expression) for _ in range(EXPRESSION_POOL)]
    _write(
        "wedge_algebra",
        {
            "pool_seed": POOL_SEED,
            "expressions": expressions,
            "verify_argv": wl.FAITHFULNESS_ARGV,
            "reports": _verify_reference(cli, wl.FAITHFULNESS_ARGV)[0],
        },
    )


if __name__ == "__main__":
    main()
