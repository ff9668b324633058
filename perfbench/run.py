"""Benchmark of equimap: certify, invariants, verify and jordan-paths.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 10 --trace 0

Runs from the root of a checkout and imports the package from ./src. One
process, one thread: set-up (import plus building the inputs) is repeated
SETUP_REPEATS times and its median reported; then whole rounds of the
workload's fixed job list run until --seconds have passed. Every operation
is checked; the last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics` (the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1). With --trace 1 the untraced rounds
are followed by one traced round, and the spans are written to
perfbench/results/.

Times are reported in seconds at a reference machine speed: a fixed
reference loop that belongs to the benchmark is timed before and after
every job, and each job's time is scaled by REF_SECONDS over the local
median of those samples. The raw times are kept in the results file. See
README.md for why, for the metrics and for the reference figures.
"""

import argparse
import gc
import importlib
import json
import os
import random
import resource
import statistics
import sys
import time
import types
from math import gcd

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, HERE)

import layertrace  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
# Median duration of reference_loop() on the machine of the reference
# figures in README.md; a reported second is a second at that speed.
REF_SECONDS = 0.05
SPEED_WINDOW = 3  # samples on each side of a job that set its local speed
PACKAGE_MODULES = ("_kernel", "scalars", "groups", "forms", "compress", "jordan",
                   "connect", "cli", "errors")


def import_program():
    """A fresh import of every package module, as a namespace."""
    for name in [n for n in sys.modules if n == "equimap" or n.startswith("equimap.")]:
        del sys.modules[name]
    return types.SimpleNamespace(
        **{n: importlib.import_module("equimap." + n) for n in PACKAGE_MODULES})


_REF_ROWS = tuple(tuple((k * 7 + j * 3) % 3 - 1 for j in range(8)) for k in range(7))
_REF_VALUES = tuple(tuple((i * 31 + j * 17) % 19 - 9 for j in range(8)) + (1 + i % 12,)
                    for i in range(64))


def reference_loop():
    """Fixed work shaped like the program's: small integer convolutions
    reduced by a fixed table, gcd normalisation, tuples and dicts."""
    acc = 0
    for i in range(2400):
        a, b = _REF_VALUES[i % 64], _REF_VALUES[(i * 7 + 3) % 64]
        conv = [0] * 15
        for x in range(8):
            ax = a[x]
            if ax:
                for y in range(8):
                    conv[x + y] += ax * b[y]
        out = conv[:8]
        for k in range(8, 15):
            ck = conv[k]
            if ck:
                row = _REF_ROWS[k - 8]
                for j in range(8):
                    out[j] += ck * row[j]
        g = a[8] * b[8]
        for v in out:
            if v:
                g = gcd(g, v)
        acc += len({v // g: x for x, v in enumerate(out)})
    return acc


def speed_sample():
    """Seconds for one reference_loop(); the loop makes no cycles, so the
    collector is kept out of it."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_loop()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def scaled(times, samples):
    """Job i ran between samples i and i+1; scale it by the median of the
    samples within SPEED_WINDOW of it."""
    out = []
    for i, t in enumerate(times):
        window = samples[max(0, i + 1 - SPEED_WINDOW):i + 1 + SPEED_WINDOW]
        out.append(t * REF_SECONDS / statistics.median(window))
    return out


def reset_module_caches(m):
    """Results memoised across jobs by module-level caches; emptied before
    each round so that every round does the same work."""
    cache = getattr(m.compress, "_BD_CERT_CACHE", None)
    if isinstance(cache, dict):
        cache.clear()


def run_round(jobs, m, seed, known, tally, tracer=None):
    """Run every job once; returns (raw job times, speed samples)."""
    reset_module_caches(m)
    times = []
    samples = [speed_sample()]
    for idx, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = idx
            tracer.install()
        t0 = time.perf_counter()
        try:
            result, error = job.run(), None
        except Exception as exc:  # a job that raises fails all its operations
            result, error = None, exc
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.uninstall()
            tracer.job = None
        samples.append(speed_sample())
        if error is None:
            try:
                verdicts = job.check(result, random.Random("%d:%s" % (seed, job.name)))
            except Exception as exc:  # a malformed output fails like a raising job
                error = exc
        if error is not None:
            verdicts = [(job.name, False, "raised %r" % error)] * job.ops
        tally["attempted"] += len(verdicts)
        for name, ok, detail in verdicts:
            if not ok:
                tally["failed"] += 1
                if name not in known:
                    tally["correct"] = False
                    tally["errors"].append("%s: %s: %s" % (job.name, name, detail))
    return times, samples


def tail(values):
    """The highest percentile with at least ten values beyond it."""
    ordered = sorted(values)
    return ordered[max(0, len(ordered) - 11)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    setup_times, setup_samples = [], []
    try:
        for _ in range(SETUP_REPEATS):
            setup_samples.append(speed_sample())
            t0 = time.perf_counter()
            m = import_program()
            jobs = workloads.WORKLOADS[args.workload](m, args.seed)
            setup_times.append(time.perf_counter() - t0)
        setup_samples.append(speed_sample())
    except (ImportError, OSError) as exc:
        sys.stderr.write("benchmark set-up failed: %r\n" % (exc,))
        return 2
    known = workloads.known_faults() if args.workload == "verify" else set()

    tally = {"attempted": 0, "failed": 0, "correct": True, "errors": []}
    raw_rounds, rounds = [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        times, samples = run_round(jobs, m, args.seed, known, tally)
        raw_rounds.append((times, samples))
        rounds.append(scaled(times, samples))
    walls = [sum(r) for r in rounds]
    job_times = [t for r in rounds for t in r]

    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    record = {"workload": args.workload, "seed": args.seed, "rounds": len(rounds),
              "jobs": [[j.name, [r[0][i] for r in raw_rounds]] for i, j in enumerate(jobs)],
              "speed_samples": [r[1] for r in raw_rounds],
              "setup_s": setup_times, "setup_speed_samples": setup_samples}
    if args.trace:
        tracer = layertrace.Tracer()
        traced = scaled(*run_round(jobs, m, args.seed, known, tally, tracer))
        metrics = tracer.metrics(sum(traced) - statistics.median(walls))
        tracer.write_spans(stem + ".spans.tsv")
        record["absent"] = tracer.absent
        if tracer.absent:
            sys.stderr.write("absent from the program: %s\n" % ", ".join(tracer.absent))
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times) * REF_SECONDS
                        / statistics.median(setup_samples)),
            "wall_s": statistics.median(walls),
            "job_p50_s": statistics.median(job_times),
            "job_tail_s": tail(job_times),
            "job_max_s": max(job_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": "MB" if k == "peak_rss_mb" else "s"}
                   for k, v in metrics.items()}
    record["errors"] = tally["errors"]
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    for line in tally["errors"][:20]:
        sys.stderr.write("wrong output: %s\n" % line)
    print(json.dumps({"correct": tally["correct"], "attempted": tally["attempted"],
                      "failed": tally["failed"], "metrics": metrics}))
    return 0 if tally["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
