"""Benchmark of the toricbundles engine: one closed-loop client, one op in flight.

    python3 bench/run.py --workload class_census --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src.  The loop
sends the next generated op only after the previous one returned, and stops
once the ops have been busy for --seconds (and at least MIN_OPS ran, so that
p90 has ten samples beyond it).  Every answer is checked by bench/oracle.py
outside the timed region; a wrong answer, an unexpected exception or a wrong
exit code counts as failed.  The loop leaves garbage collection to the
interpreter, as a program calling the engine would.

--trace 0 reports the end-to-end metrics.  It runs the loop in WORKERS fresh
processes one after the other, each over the next stretch of the same op
stream for about an equal share of --seconds; peak_rss_mb is the median of their
peak RSS.  The engine leaves reference cycles whose memory the cyclic
collector frees late and at irregular times, so one process's peak depends on
where those collections fall; a median over several processes is steady and
still counts the garbage.  --trace 1 installs bench/tracer.py,
runs the same loop traced, runs every fourth op a second time untraced (next
to its traced run, in alternating order) to get the tracing overhead and to
confirm identical results, and reports the per-layer metrics.
Human-readable lines come first, then a `report` line (environment, op mix,
ratio bases), and the last line is the result as one JSON object.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
MIN_OPS = 100
PAIR_EVERY = 4  # in a traced run every fourth op also runs untraced
WORKERS = 9
SETUP_PER_WORKER = 2  # fresh-interpreter starts timed before each worker
WARMUP_OPS = 1
# A fresh interpreter times its own import of the package and build of the CLI
# parser, so that the interpreter's start-up, which the package does not
# control, stays out of setup_s.
SETUP_CODE = (
    "import sys, time; start = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import toricbundles, toricbundles.cli as cli; cli._build_parser(); "
    "print(time.perf_counter() - start)"
)


def load_package():
    """Import toricbundles from ./src of this checkout, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "toricbundles", "__init__.py")):
        sys.exit(f"error: no package at {SRC}/toricbundles; run from a full checkout")
    sys.path.insert(0, SRC)
    import toricbundles
    import toricbundles.cli  # noqa: F401  (the CLI module is traced too)

    if os.path.dirname(os.path.dirname(os.path.abspath(toricbundles.__file__))) != SRC:
        sys.exit(f"error: toricbundles was imported from {toricbundles.__file__}")
    return toricbundles


def setup_seconds():
    """Import and parser time of one fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC], check=True,
                          cwd=ROOT, capture_output=True, text=True)
    return float(proc.stdout)


def environment(args):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown"
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        commit = head
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "commit": commit, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


class Tally:
    """What the loop keeps per op: small values only, so that memory does not
    grow with anything but the op count, and slowly."""

    def __init__(self):
        self.times = []  # seconds per op
        self.digests = []  # hash of each answer, to compare traced and untraced
        self.pairs = []  # (traced, untraced) seconds of the ops run both ways
        self.failures = []  # (op id, op kind, reason)
        self.codes = Counter()  # CLI exit codes
        self.mix = {"kind": Counter()}
        self.keys = set()  # digest of each input
        self.busy = 0.0

    def share(self):
        """The parts of a worker's tally that the parent merges, as JSON."""
        return {"times": self.times, "busy": self.busy, "failures": self.failures,
                "codes": list(self.codes.items()), "mix": self.mix,
                "keys": sorted(self.keys)}

    def merge(self, share):
        self.times += share["times"]
        self.busy += share["busy"]
        self.failures += [tuple(f) for f in share["failures"]]
        self.codes.update(dict(share["codes"]))
        for label, counts in share["mix"].items():
            self.mix.setdefault(label, Counter()).update(counts)
        self.keys.update(share["keys"])

    def op_mix(self):
        return {label: dict(sorted(c.items())) for label, c in self.mix.items()}

    def repeat_share(self):
        return 1 - len(self.keys) / len(self.times)


def timed_call(run, tb, op, work):
    """(answer, error, seconds) of one op; an unexpected exception is an error."""
    start = time.perf_counter()
    try:
        raw, error = run(tb, op, work), None
    except Exception as exc:
        raw, error = None, f"unexpected {type(exc).__name__}: {exc}"
    return raw, error, time.perf_counter() - start


def run_loop(workload, tb, ops, work, seconds=0.0, count=None, tracer=None,
             min_ops=MIN_OPS):
    """Closed loop until `seconds` of op time and min_ops ops, or over exactly
    `count` ops; every answer is checked.

    With a tracer, every PAIR_EVERY-th op runs traced and untraced, the
    untraced run first on every other pair; the pair's times go to
    tally.pairs and its answers must agree.
    """
    _, run, _, digest = workloads.WORKLOADS[workload]
    tally = Tally()
    while (len(tally.times) < count if count is not None
           else tally.busy < seconds or len(tally.times) < min_ops):
        op = next(ops)
        n = len(tally.times)
        pair = tracer is not None and n % PAIR_EVERY == 0
        plain = None
        if tracer is not None:
            tracer.begin_op(op.id, op.kind)
            if pair and (n // PAIR_EVERY) % 2:
                plain = untraced_call(tracer, run, tb, op, work)
        raw, error, elapsed = timed_call(run, tb, op, work)
        if pair and plain is None:
            plain = untraced_call(tracer, run, tb, op, work)
        tally.busy += elapsed
        tally.times.append(elapsed)
        if error is None:
            error = workloads.check(workload, op, raw)
        answer = hash(digest(raw)) if raw is not None else None
        if pair:
            tally.pairs.append((elapsed, plain[2]))
            if error is None and answer != (hash(digest(plain[0])) if plain[0] is not None else None):
                error = "traced and untraced runs gave different results"
        if error is not None:
            tally.failures.append((op.id, op.kind, error))
        tally.digests.append(answer)
        if workload == "cli_mixed" and raw is not None:
            tally.codes[raw[0]] += 1
        tally.mix["kind"][op.kind] += 1
        for label, value in op.mix.items():
            tally.mix.setdefault(label, Counter())[str(value)] += 1
        tally.keys.add(hashlib.blake2b(repr(op.key).encode(), digest_size=8).hexdigest())
    return tally


def untraced_call(tracer, run, tb, op, work):
    tracer.uninstall()
    try:
        return timed_call(run, tb, op, work)
    finally:
        tracer.install()


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list; with MIN_OPS values the
    p90 has at least ten values beyond it."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run one worker's share, skipping the ops earlier workers ran.
    parser.add_argument("--worker", nargs=2, metavar=("SKIP", "WORKDIR"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    tb = load_package()
    if args.worker:
        print(json.dumps(worker_share(args, tb, int(args.worker[0]), args.worker[1])))
        return 0
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        result = measure(args, tb, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def warm_up(workload, seed, tb, work):
    run = workloads.WORKLOADS[workload][1]
    warm = workloads.make_ops(workload, f"warmup-{seed}", work)
    for _ in range(WARMUP_OPS):
        run(tb, next(warm), work)


def worker_share(args, tb, skip, work):
    warm_up(args.workload, args.seed, tb, work)
    ops = workloads.make_ops(args.workload, args.seed, work)
    for _ in range(skip):
        next(ops)
    tally = run_loop(args.workload, tb, ops, work, args.seconds,
                     min_ops=-(-MIN_OPS // WORKERS))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {**tally.share(), "peak_rss_mb": peak}


def run_workers(args, work):
    """The untraced loop over WORKERS fresh processes, with SETUP_PER_WORKER
    set-up timings before each: (tally, each worker's peak RSS, set-up times)."""
    setup_seconds()  # unmeasured: writes the bytecode cache
    tally, peaks, setup = Tally(), [], []
    for k in range(1, WORKERS + 1):
        setup += [setup_seconds() for _ in range(SETUP_PER_WORKER)]
        # Each worker runs until the run's busy time reaches its k-th share, so
        # that the last op of one worker running over does not add up.
        budget = max(0.0, args.seconds * k / WORKERS - tally.busy)
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(budget),
               "--worker", str(len(tally.times)), work]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode:
            sys.stderr.write(proc.stderr)
            sys.exit(f"error: a worker exited with code {proc.returncode}")
        share = json.loads(proc.stdout.splitlines()[-1])
        tally.merge(share)
        peaks.append(share["peak_rss_mb"])
    return tally, peaks, setup


def measure(args, tb, work):
    report = {"env": environment(args)}
    if args.trace:
        warm_up(args.workload, args.seed, tb, work)
        ops = workloads.make_ops(args.workload, args.seed, work)
        tracer = tracing.Tracer(tb)
        tracer.install()
        try:
            tally = run_loop(args.workload, tb, ops, work, args.seconds, tracer=tracer)
        finally:
            tracer.uninstall()
        traced, plain = map(sum, zip(*tally.pairs))
        overhead = plain / traced
    else:
        tally, peaks, setup = run_workers(args, work)
        report.update({"setup_runs_s": setup, "worker_peak_rss_mb": peaks})

    attempted = len(tally.times)
    failed = len(tally.failures)
    times_ms = sorted(t * 1000 for t in tally.times)
    mix = tally.op_mix()
    report.update({
        "attempted": attempted, "failed": failed, "error_rate": failed / attempted,
        "busy_s": tally.busy, "repeat_share": tally.repeat_share(),
        "op_mix": mix, "exit_codes": {str(k): v for k, v in sorted(tally.codes.items())},
        "failures": tally.failures[:20],
    })
    if args.trace:
        metrics, bases = tracer.layer_metrics(mix["kind"], tally.codes, overhead)
        report.update({"ratio_bases": bases, "absent": tracer.absent, "paired_ops": len(tally.pairs),
                       "spans_kept": len(tracer.spans), "spans_dropped": tracer.dropped_spans})
        tracer.write_spans(os.path.join(OUT, f"spans-{args.workload}.jsonl"))
    else:
        metrics = {
            "ops_per_s": ((attempted - failed) / tally.busy, "1/s"),
            "op_p50_ms": (percentile(times_ms, 0.5), "ms"),
            "op_p90_ms": (percentile(times_ms, 0.9), "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (statistics.median(peaks), "MB"),
        }
    print(f"{args.workload} error_rate = {failed / attempted:.6g} ({failed} of {attempted} ops)")
    for name, (value, unit) in metrics.items():
        extra = f"  (n={attempted})" if name.startswith("op_") else ""
        print(f"{args.workload} {name} = {value:.6g} {unit}{extra}")
    print("report " + json.dumps(report, default=str))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


if __name__ == "__main__":
    sys.exit(main())
