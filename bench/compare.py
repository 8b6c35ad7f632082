"""Compare two result sets of the benchmark, metric by metric and workload by workload.

    python3 bench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds run records, one JSON object per line, as ``run.py --out``
appends them.  For every end-to-end metric of ``BENCHMARK.json`` and every
workload, it prints one row with the medians, each side's spread (quartile
distance over median) and a verdict, using the metric's own bound:

- ``unresolved``: either side spreads wider than the bound, unless every run
  of the change is better than every run of the base (then ``improved``);
- ``worse``: the change's median is worse than the base's by more than the bound;
- ``improved``: the change wins at least nine tenths of the pairs (runs with
  the same seed, or all pairs when no seed is shared) and the medians differ
  by more than the base's quartile distance;
- ``unchanged``: otherwise.

Per-layer metrics from traced runs are listed with their medians and no
verdict, since they carry no bound.  There is no combined score.  The exit
status is 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    """{(workload, metric): [(seed, value), ...]} from a file of run records."""
    out = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            record = record.get("record", record)
            for name, metric in record["metrics"].items():
                out[record["workload"], name].append((record["seed"], metric["value"]))
    return out


def spread(values):
    """Quartile distance and the same as a share of the median."""
    med = statistics.median(values)
    if len(values) < 2:
        return 0.0, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1, ((q3 - q1) / abs(med) if med else 0.0)


def verdict(base, change, better, bound):
    a, b = [v for _, v in base], [v for _, v in change]
    sign = 1 if better == "lower" else -1
    gain = lambda x, y: sign * (x - y)  # > 0 when y is better than x
    med_a, med_b = statistics.median(a), statistics.median(b)
    iqr_a, spread_a = spread(a)
    _, spread_b = spread(b)
    all_better = all(gain(x, y) > 0 for x in a for y in b)
    if max(spread_a, spread_b) > bound:
        return "improved" if all_better else "unresolved"
    if med_a and -gain(med_a, med_b) / abs(med_a) > bound:
        return "worse"
    by_seed_a, by_seed_b = dict(reversed(base)), dict(reversed(change))  # first run per seed
    shared = sorted(set(by_seed_a) & set(by_seed_b))
    pairs = [(by_seed_a[s], by_seed_b[s]) for s in shared] or [(x, y) for x in a for y in b]
    wins = sum(1 for x, y in pairs if gain(x, y) > 0)
    if wins >= 0.9 * len(pairs) and gain(med_a, med_b) > iqr_a:
        return "improved"
    return "unchanged"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    base, change = load(argv[0]), load(argv[1])
    workloads = sorted({w for w, _ in base} | {w for w, _ in change})
    header = "%-15s %-34s %12s %12s %8s %7s %7s %6s  %s"
    print(header % ("workload", "metric", "base", "change", "change%", "sprd_b", "sprd_c", "bound", "verdict"))
    worse = False
    rows = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    rows += [(m["name"], m["better"], None) for m in spec["per_layer"]]
    for workload in workloads:
        for name, better, bound in rows:
            a, b = base.get((workload, name)), change.get((workload, name))
            if not a and not b:
                continue
            if not a or not b:
                print("%-15s %-34s missing in %s" % (workload, name, "change" if a else "base"))
                continue
            values_a, values_b = [v for _, v in a], [v for _, v in b]
            med_a, med_b = statistics.median(values_a), statistics.median(values_b)
            pct = "%+.1f" % (100 * (med_b - med_a) / abs(med_a)) if med_a else "-"
            word = verdict(a, b, better, bound) if bound is not None else "-"
            worse = worse or word == "worse"
            print(
                header
                % (
                    workload, name, "%.6g" % med_a, "%.6g" % med_b, pct,
                    "%.3f" % spread(values_a)[1], "%.3f" % spread(values_b)[1],
                    "-" if bound is None else "%.2f" % bound, word,
                )
            )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
