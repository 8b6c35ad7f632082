"""halfspin benchmark: one workload, one process, closed loop, one client.

Run from the repository root:

    python3 bench/run.py --workload verify_bounded --seed 1 --seconds 28 --trace 0

Workloads and their reasons are in ``workloads.py``.  The program is imported
from ``src/`` of the same checkout and driven through ``halfspin.cli.main``;
nothing in ``src/`` is changed.

Every time reported by ``--trace 0`` is scaled by the speed gauge (see
``Gauge``) to the speed at which the gauge loop takes ``GAUGE_REF_S``: it
reads as seconds on a CPU of that speed, not on whatever share of a CPU the
host gave the run.  The record line keeps the raw times beside them.

``--trace 0`` measures the end-to-end metrics:

- ``setup_s``: a fresh interpreter until ``halfspin`` is imported and the CLI
  parser is built; the median of several spawns spread over the run, after
  one unmeasured spawn, each scaled by gauge loops run just before and after.
- ``wall_s``: the median time of one pass (see ``workloads.py``), set-up
  excluded.  The run repeats the same pass; the record line adds a high
  percentile and the number of passes.
- ``query_p50_ms``, ``query_p99_ms``: the median and a high percentile, over
  the calls of the pass, of each call's median latency in the run.  A high
  percentile is reported only where at least ten calls lie beyond it: p99
  from 1000 calls on, below that the highest level with ten calls beyond
  it, and the median when there are fewer than twenty calls.  So p99 is a
  true p99 on ``point_queries`` and ``wedge_algebra``, while on the verify
  workloads, where the pass is one call, it equals the median.  The record
  line gives the level used and the count beyond it.
- ``peak_rss_mb``: peak resident memory of this process.
- ``pass_share``: 1 - failed/attempted.  An operation is a verify report or a
  query; it fails if the call exits nonzero, a report is not ``pass``, or the
  output differs from the reference in ``reference/``.  The record
  line also gives ``failed_share`` itself, which is 0 when all is well and so
  cannot carry a relative bound.

``--trace 1`` measures the per-layer metrics of ``tracer.py``: it runs each
pass untraced and then again with every layer wrapped, and reports per-pass
counts and self times, the traced pass time ``trace.wall_s`` and
``trace.overhead_s``, the median over passes of traced minus untraced time,
after one untimed warm-up pass.
These times are raw: the gauge is off, so that no gauge loop lands in a
layer's self time.
Spans are written to ``.bench_out/`` at the end.  If a traced function has
an unwrapped binding, or a layer the workload must drive reads zero, the run
stops with exit status 3 and prints no result.

Every run checks correctness and prints, before the final JSON line, one
``{"record": ...}`` line with the run's metadata (Python, CPU count, git SHA,
seed, inputs, work counts); ``--out FILE`` appends that record to FILE for
``compare.py``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SPAWNS = 9
SETUP_FIRST = 3
# a pass may start only if it is expected to end within half a pass of the deadline
LATE_START = 0.5
# the gauge loop: fixed work of 0.2 to 0.4 ms, run twice every GAUGE_EVERY
# seconds while a pass runs (about 2% of the time); times are scaled to the
# speed at which it takes GAUGE_REF_S
GAUGE_LOOPS = 40
GAUGE_EVERY = 0.025
GAUGE_REF_S = 0.00025
# a call is judged by the gauge loops run while it ran, and by no fewer than
# this many of the latest; a set-up spawn by this many just before and after
GAUGE_WINDOW = 16
GAUGE_AROUND = 4
# seconds between two choices of the CPU to run on, and loops to choose by
PICK_EVERY = 0.25
PICK_LOOPS = 4

sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402
import tracer as tr  # noqa: E402

SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); import halfspin.cli; "
    "halfspin.cli.build_parser(); print(halfspin.cli.__file__, flush=True)"
)


class BenchError(Exception):
    pass


def _fraction_loop():
    acc = Fraction(0)
    for i in range(1, GAUGE_LOOPS):
        acc += Fraction(i, i + 3) * Fraction(2, i + 1)


def spin_time():
    """The time of one gauge loop: fixed exact arithmetic, like the program's own.

    It runs once untimed first, so that the timed loop finds its code and
    data in the caches whatever the program did before, and with the cyclic
    garbage collector off, so that it never collects the program's objects.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        _fraction_loop()
        start = perf_counter()
        _fraction_loop()
        return perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class Gauge:
    """How fast the CPU runs this process, sampled while the program runs.

    The host shares its CPUs: for spells of seconds to minutes the CPU this
    process runs on gives it a part of its time or runs slower, and fixed
    work takes up to twice as long.  Least or median times over a 30-second
    run cannot escape a spell that lasts minutes.  So while a pass runs, a
    timer signal runs the gauge loop every GAUGE_EVERY seconds, and a call's
    time, less the gauge loops run inside it, is scaled by GAUGE_REF_S over
    the mean loop time near the call.  The loop does not change with the
    program, so a faster program still reads faster.

    Why this loop: on a shared virtual machine with two CPUs, over five
    minutes in which fixed ``verify``, ``verify --dinfty`` and ``weight``
    calls slowed and sped up 1.6-fold, the time of this Fraction loop moved
    with theirs (slope 1.0 to 1.1 between the logarithms), and the scaled
    times of 10-second stretches spread by 2-4% (quartile distance over
    median) against 11-18% raw.  A plain integer loop followed only part of
    the change (slope 1.3 to 2).  Run warm, the loop read within 1% alike
    during ``verify`` calls of either kind, and up to 6% slower during short
    ``act``/``weight`` calls; so a change to what the program does can move
    the gauge by a few percent.
    """

    def __init__(self):
        self.samples = []
        self.inside = 0.0  # total time of the loops the timer ran
        self.measure(GAUGE_WINDOW)

    def _tick(self, signum, frame):
        start = perf_counter()
        self.samples.append(spin_time())
        self.inside += perf_counter() - start

    def measure(self, count):
        """Run the loop `count` times now; return those times."""
        times = [spin_time() for _ in range(count)]
        self.samples += times
        return times

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_EVERY, GAUGE_EVERY)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def mark(self):
        return len(self.samples), self.inside

    def scaled(self, took, mark):
        """`took`, timed from `mark` on, less the loops inside it, at the reference speed."""
        first, inside = mark
        took -= self.inside - inside
        near = self.samples[min(first, len(self.samples) - GAUGE_WINDOW):]
        return took * GAUGE_REF_S / statistics.fmean(near)

    def summary(self):
        return {
            "ref_s": GAUGE_REF_S,
            "loops": len(self.samples),
            "mean_s": statistics.fmean(self.samples),
            "median_s": statistics.median(self.samples),
            "min_s": min(self.samples),
        }


class CpuPicker:
    """Pins this process to whichever of its CPUs runs the gauge loop fastest.

    Each CPU's slow spells come and go independently of the other's, so
    choosing between calls keeps more of the run out of them.  The choice is
    made outside every timed call, set-up spawns inherit it, and the chosen
    CPU's loop times join the gauge's samples.  With one CPU, or where
    affinity cannot be set, it does nothing.
    """

    def __init__(self):
        try:
            self.cpus = sorted(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            self.cpus = []
        self.last = None
        self.picks = 0

    def pick(self, gauge):
        self.last = perf_counter()
        if len(self.cpus) < 2:
            return
        try:
            tried = []
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                tried.append((statistics.fmean(spin_time() for _ in range(PICK_LOOPS)), cpu))
            best = min(tried)[1]
            os.sched_setaffinity(0, {best})
        except OSError:
            self.cpus = []
            return
        gauge.measure(PICK_LOOPS)
        self.picks += 1

    def pick_if_due(self, gauge):
        if self.last is None or perf_counter() - self.last >= PICK_EVERY:
            self.pick(gauge)


class SetupSampler:
    """Times fresh interpreters until ``halfspin`` is imported and the CLI parser is built.

    The machine's speed drifts over seconds, so the spawns are spread over the
    run: a few before the first pass, the others between passes as the run's
    time goes by, and any still missing at the end.  Each spawn is scaled by
    gauge loops run just before and after it, not during it, since the
    spawned interpreter runs on the same CPU.
    """

    def __init__(self, seconds, gauge, cpu):
        self.gauge = gauge
        self.cpu = cpu
        self.raw = []
        self.samples = []
        self.every = seconds / (SETUP_SPAWNS - SETUP_FIRST + 1)
        self.due = self.every
        self._spawn()  # unmeasured: writes the byte-code caches
        for _ in range(SETUP_FIRST):
            self._sample()

    def between_passes(self, elapsed):
        if elapsed >= self.due and len(self.samples) < SETUP_SPAWNS:
            self._sample()
            self.due += self.every

    def finish(self):
        while len(self.samples) < SETUP_SPAWNS:
            self._sample()
        return self.samples

    def _sample(self):
        self.cpu.pick(self.gauge)
        around = self.gauge.measure(GAUGE_AROUND)
        took = self._spawn()
        around += self.gauge.measure(GAUGE_AROUND)
        self.raw.append(took)
        self.samples.append(took * GAUGE_REF_S / statistics.fmean(around))

    @staticmethod
    def _spawn():
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC)],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            took = perf_counter() - start
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        if proc.returncode != 0 or line.strip() != str(SRC / "halfspin" / "cli.py"):
            raise BenchError("set-up spawn did not import halfspin from %s" % SRC)
        return took


def import_program():
    if not (SRC / "halfspin" / "cli.py").is_file():
        raise BenchError("no program at %s" % SRC)
    sys.path.insert(0, str(SRC))
    from halfspin import cli

    if Path(cli.__file__).resolve() != (SRC / "halfspin" / "cli.py").resolve():
        raise BenchError("halfspin was imported from %s, not %s" % (cli.__file__, SRC))
    return cli


class Counter:
    def __init__(self):
        self.attempted = 0
        self.failed = 0


def run_pass(cli, ops, counter, cpu, gauge, scale):
    """Run one pass; return each call's raw time and, if `scale`, its time scaled by `gauge`.

    Checking the output is not timed.
    """
    raw, scaled = [], []
    if scale:
        gauge.start()
    try:
        for op in ops:
            cpu.pick_if_due(gauge)
            out = io.StringIO()
            mark = gauge.mark()
            start = perf_counter()
            try:
                rc = cli.main(list(op.argv), out)
            except SystemExit as exc:  # argparse rejected the arguments
                rc = exc.code
            except Exception:
                rc = None
                traceback.print_exc()
            took = perf_counter() - start
            raw.append(took)
            scaled.append(gauge.scaled(took, mark) if scale else took)
            counter.attempted += wl.op_count(op)
            failed = wl.count_failed(op, rc, out.getvalue())
            if failed:
                print("failed: %d of %s" % (failed, " ".join(op.argv)), file=sys.stderr)
            counter.failed += failed
    finally:
        if scale:
            gauge.stop()
    return raw, scaled


def run_for(ops, seconds, step, setup):
    """Closed loop: step(ops) again and again for about `seconds`; returns the step results."""
    results = []
    start = perf_counter()
    while True:
        began = perf_counter()
        results.append(step(ops))
        elapsed = perf_counter() - start
        if elapsed + LATE_START * (perf_counter() - began) >= seconds:
            return results
        setup.between_passes(elapsed)


def quantile(values, q):
    """Linear interpolation between order statistics (inclusive method)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def tail_level(count, wanted=0.99):
    """The highest level up to `wanted` with at least ten samples beyond it, or 0.5."""
    return min(wanted, max(0.5, 1 - 10 / count))


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="append the run record to this JSONL file")
    args = parser.parse_args(argv)

    try:
        cli = import_program()
        workload = wl.WORKLOADS[args.workload](args.seed)
        cpu = CpuPicker()
        gauge = Gauge()
        setup = SetupSampler(args.seconds, gauge, cpu)
    except (BenchError, OSError, ValueError, RuntimeError) as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2

    counter = Counter()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "inputs": workload.inputs(),
    }
    measure = measure_layers if args.trace else measure_end_to_end
    try:
        metrics = measure(cli, workload, args, counter, setup, record, cpu, gauge)
    except tr.TraceError as exc:
        print("bench: tracing failed: %s" % exc, file=sys.stderr)
        return 3
    record["setup_samples_s"] = setup.finish()
    record["setup_raw_s"] = setup.raw
    record["cpu"] = {"cpus": cpu.cpus, "picks": cpu.picks}
    record["gauge"] = gauge.summary()
    record["attempted"] = counter.attempted
    record["failed"] = counter.failed
    record["failed_share"] = counter.failed / counter.attempted
    record["metrics"] = metrics
    line = json.dumps({"record": record})
    print(line)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(line + "\n")
    print(
        json.dumps(
            {
                "correct": counter.failed == 0,
                "attempted": counter.attempted,
                "failed": counter.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def measure_end_to_end(cli, workload, args, counter, setup, record, cpu, gauge):
    ops = workload.pass_ops()
    passes = run_for(
        ops, args.seconds, lambda ops: run_pass(cli, ops, counter, cpu, gauge, True), setup
    )
    totals = [sum(scaled) for _, scaled in passes]
    raw_totals = [sum(raw) for raw, _ in passes]
    latencies = [statistics.median(scaled[i] for _, scaled in passes) for i in range(len(ops))]
    tail = tail_level(len(latencies))
    p99 = quantile(latencies, tail)
    wall_tail = tail_level(len(totals), 0.9)
    record["wall"] = {
        "median_s": statistics.median(totals),
        "tail_level": wall_tail,
        "tail_s": quantile(totals, wall_tail),
        "raw_median_s": statistics.median(raw_totals),
        "raw_max_s": max(raw_totals),
        "passes": len(passes),
    }
    record["query"] = {
        "calls_per_pass": len(latencies),
        "p99_level": tail,
        "beyond_p99": sum(1 for t in latencies if t > p99),
    }
    record["work"] = {"passes": len(passes), "calls": len(passes) * len(ops)}
    return {
        "setup_s": {"value": statistics.median(setup.finish()), "unit": "s"},
        "wall_s": {"value": statistics.median(totals), "unit": "s"},
        "query_p50_ms": {"value": 1000 * statistics.median(latencies), "unit": "ms"},
        "query_p99_ms": {"value": 1000 * p99, "unit": "ms"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
        "pass_share": {"value": 1 - counter.failed / counter.attempted, "unit": "share"},
    }


def measure_layers(cli, workload, args, counter, setup, record, cpu, gauge):
    """Each pass runs untraced and then traced, so the overhead is paired in time.

    One untimed pass runs first, so that first-call costs land in neither.
    """
    tracer = tr.Tracer()
    ops = workload.pass_ops()
    run_pass(cli, ops, counter, cpu, gauge, False)

    def step(ops):
        untraced, _ = run_pass(cli, ops, counter, cpu, gauge, False)
        tracer.install()
        try:
            traced, _ = run_pass(cli, ops, counter, cpu, gauge, False)
        finally:
            tracer.uninstall()
        tracer.end_pass()
        return sum(untraced), sum(traced)

    pairs = run_for(ops, args.seconds, step, setup)
    layer = tracer.layer_metrics()
    layer["trace.wall_s"] = statistics.median(t for _, t in pairs)
    layer["trace.overhead_s"] = statistics.median(t - u for u, t in pairs)
    zero = [name for name in workload.busy if not layer[name]]
    if zero:
        raise tr.TraceError("layers read zero on %s: %s" % (workload.name, ", ".join(zero)))
    record["work"] = {"passes": len(pairs), "oracle.tabulate.calls": layer["oracle.tabulate.calls"]}
    record["untraced_wall_s"] = statistics.median(u for u, _ in pairs)
    record["spans_file"] = write_spans(args, tracer)
    return {name: {"value": layer[name], "unit": unit} for name, unit in tr.METRICS}


def write_spans(args, tracer):
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / ("spans-%s-seed%d.json" % (args.workload, args.seed))
    with open(path, "w") as fh:
        json.dump(tracer.dump(), fh)
    return str(path.relative_to(ROOT))


if __name__ == "__main__":
    sys.exit(main())
