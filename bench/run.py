"""Benchmark for cocycle-forge: one closed-loop client on one thread.

Run from the repository root:

    python3 bench/run.py --workload sweep|census|query --seed N --seconds S --trace 0|1

The client issues the next call only after the previous one returns.  With
``--trace 0`` the run times units until the timed calls add up to S seconds
(see ``measured_run``) and reports the end-to-end metrics; ``setup_s`` is
the median of 11 set-ups, each a fresh import plus the groups, seeded inputs
and input files.  Times are scaled to the machine at rest by a reference
clock (``stats.ReferenceClock``).  With ``--trace 1`` it replays a fixed
prefix of the workload once untraced and once under cProfile, each after a
fresh import, and reports the per-layer metrics.  Every output is checked;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The package is imported from
``src/`` of the checkout and nowhere else, and the benchmark exits with
code 2 if it is not there.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import json
import os
import platform
import pstats
import resource
import shutil
import statistics
import sys
import time
from typing import List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = "cocycle_forge"
SETUP_REPEATS = 11

import layers  # noqa: E402  (the benchmark's own modules sit beside this file)
from stats import (  # noqa: E402
    REFERENCE_S, Outcome, ReferenceClock, Tally, percentile, reference_seconds,
)
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_EXTRA = {"census.checks_run": "count", "trace.overhead_ratio": "ratio"}


def per_layer_units() -> dict:
    units = {}
    for name in layers.metric_names():
        if name.endswith(".calls"):
            units[name] = "count"
        elif name.endswith(".us_per_call"):
            units[name] = "us"
        else:
            units[name] = "ratio"
    units.update(PER_LAYER_EXTRA)
    return units


def import_package():
    """Import the package afresh, so module-level state starts cold."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    cf = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    if not os.path.abspath(cf.__file__).startswith(SRC + os.sep):
        raise ImportError(f"{PACKAGE} was imported from {cf.__file__}, not from {SRC}")
    return cf


def set_up(workload_cls, seed: int, workdir: str):
    """A fresh import and a workload; the seconds, less the benchmark's own
    untimed work, are scaled like the calls'."""
    before = reference_seconds()
    start = time.perf_counter()
    workload = workload_cls(import_package(), seed, workdir)
    seconds = time.perf_counter() - start - workload.untimed_s
    return workload, seconds * REFERENCE_S / ((before + reference_seconds()) / 2)


def run_units(workload, units, tally: Tally, seconds=None, profiler=None) -> Tuple[List[Outcome], float]:
    """Run units in order, cycling, until the raw time of the timed calls
    reaches ``seconds``, or else each unit once.  Returns the outcomes, with
    scaled times, and the raw seconds."""
    clock = ReferenceClock()
    outcomes: List[Outcome] = []
    timed = 0.0
    while timed < seconds if seconds is not None else len(outcomes) < len(units):
        outcome = workload.run(units[len(outcomes) % len(units)], profiler)
        timed += outcome.seconds
        clock.add(outcome)
        tally.add(outcome)
        outcomes.append(outcome)
    clock.flush()
    return outcomes, timed


def measured_run(workload_cls, args, workdir):
    """A workload with ``whole_passes`` runs all its units once per pass,
    each pass after a fresh import and set-up, until the raw time reaches
    the run length; each unit counts at its fastest pass.  Any other
    workload runs one pass, cycling through its units for the run length."""
    setups, passes = [], []
    tally = Tally()
    raw = 0.0
    while raw < args.seconds:
        workload, seconds = set_up(workload_cls, args.seed, workdir)
        setups.append(seconds)
        whole = getattr(workload, "whole_passes", False)
        outcomes, pass_raw = run_units(workload, workload.units, tally, None if whole else args.seconds)
        passes.append(outcomes)
        raw += pass_raw
    while len(setups) < SETUP_REPEATS:
        setups.append(set_up(workload_cls, args.seed, workdir)[1])
    best = [min(unit, key=lambda outcome: outcome.seconds) for unit in zip(*passes)]
    timed = sum(outcome.seconds for outcome in best)
    samples_ms = [outcome.seconds / outcome.ops * 1e3 for outcome in best if outcome.ops]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": sum(outcome.ops for outcome in best) / timed,
        "op_p50_ms": percentile(samples_ms, 50),
        "op_p90_ms": percentile(samples_ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    record = {"passes": len(passes), "samples": len(samples_ms), "raw_s": raw, "scaled_s": timed,
              "setup_s_all": setups}
    return workload, tally, metrics, END_TO_END, record, []


def traced_run(workload_cls, args, workdir):
    tally = Tally()
    workload, _ = set_up(workload_cls, args.seed, workdir)
    outcomes, _ = run_units(workload, workload.trace_units, tally)
    untraced_s = sum(o.seconds for o in outcomes)
    untraced_checks, untraced_ops = tally.checks_run, tally.attempted
    workload, _ = set_up(workload_cls, args.seed, workdir)
    profiler = cProfile.Profile()
    outcomes, _ = run_units(workload, workload.trace_units, tally, profiler=profiler)
    traced_s = sum(o.seconds for o in outcomes)
    traced_checks = tally.checks_run - untraced_checks
    if traced_checks != untraced_checks:
        tally.fail(f"identity checks differ between two passes over the same inputs: "
                   f"{untraced_checks} untraced, {traced_checks} traced")
    stats = pstats.Stats(profiler).stats
    metrics, missing = layers.layer_metrics(stats, PACKAGE)
    for name in missing:
        tally.fail(f"{PACKAGE}.{name} is not found, so its per-layer metrics are left out")
    metrics["census.checks_run"] = traced_checks
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    record = {"untraced_s": untraced_s, "traced_s": traced_s, "trace_ops": untraced_ops}
    return workload, tally, metrics, per_layer_units(), record, layers.top_cumulative(stats, ROOT)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        print(f"error: no {PACKAGE} sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # The single-thread path is the one measured.
    os.environ.pop("COCYCLE_FORGE_THREADS", None)
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    run = traced_run if args.trace else measured_run
    try:
        workload, tally, metrics, units, record, top = run(WORKLOADS[args.workload], args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(os.path.dirname(workdir)) and not os.listdir(os.path.dirname(workdir)):
            os.rmdir(os.path.dirname(workdir))
    record.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": workload.fingerprint(),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed_frac,
        "checks_run": tally.checks_run,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "COCYCLE_FORGE_THREADS": "unset",
    })
    for message in tally.messages:
        print(f"FAILED {message}", file=sys.stderr)
    print(json.dumps({"record": record}, sort_keys=True))
    if top:
        print(f"top {len(top)} functions by cumulative time, traced {args.workload}:")
        for line in top:
            print("  " + line)
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(f"failed_frac {tally.failed_frac} ({tally.failed} of {tally.attempted} ops)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
