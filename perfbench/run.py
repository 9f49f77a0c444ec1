"""Benchmark runner for pursuitwidth.

    python3 perfbench/run.py --workload width-named|suite-corpus|multiplier-adversary|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout: the library is imported from
`src/`.  With `--trace 0` the run reports the end-to-end metrics, with
`--trace 1` the per-layer metrics of a traced run.  The last line of standard
output is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`; the lines before it name every metric with its unit and sample
count, and a `record` line holds the run's provenance.  See README.md for the
workloads, the metrics and which layer metric should move which end-to-end
metric.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedSampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Traced counts of earlier runs, keyed by workload, seed and source digest.
COUNTS_DIR = ROOT / ".perfbench_counts"

DEFAULT_SEED = 271828  # the suites' DEFAULT_SEED
DEFAULT_SECONDS = 30
WORKLOAD_NAMES = ("width-named", "suite-corpus", "multiplier-adversary")
# Fresh interpreters started per run to measure set-up; setup_s is their median.
SETUP_PROBES = 7
SETUP_SAMPLE_INTERVAL_S = 0.01


def _import_library():
    """Import the library and the workloads from this checkout's `src/`."""
    if not (SRC / "pursuitwidth" / "__init__.py").is_file():
        sys.exit(f"perfbench: no pursuitwidth sources under {SRC}; "
                 "run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    import pursuitwidth
    if Path(pursuitwidth.__file__).resolve().parent != SRC / "pursuitwidth":
        sys.exit(f"perfbench: imported pursuitwidth from {pursuitwidth.__file__}, "
                 f"not from {SRC}")
    import workloads
    from pursuitwidth import errors
    library_errors = (errors.InputError, errors.ConfigError, errors.ResourceError,
                      errors.PreconditionError, errors.StrategyHoleError,
                      errors.AdversaryContractError, errors.InvariantViolation)
    return workloads, library_errors


def _run_item(run, library_errors, sampler=None):
    """Run one item; return (seconds, problems).  A library error is a failed
    verdict, not a crash.  Time the sampler spent inside is not counted."""
    spent = sampler.spent if sampler else 0.0
    t0 = time.perf_counter()
    try:
        problems = run()
    except library_errors as exc:
        problems = [("error", type(exc).__name__, str(exc))]
    elapsed = time.perf_counter() - t0
    return elapsed - ((sampler.spent - spent) if sampler else 0.0), problems


def cycle(items, seconds: float, execute) -> None:
    """Execute every item once, then keep executing items, in order, while
    each one's previous duration still fits before `seconds` have passed.

    `execute(iid, run, first)` runs one item and returns its duration.
    Repeats give every item of a short pass several samples; no repeat
    starts that would overrun the deadline, so a run lasts the longer of
    one pass and `seconds`.
    """
    deadline = time.perf_counter() + seconds
    last = {iid: execute(iid, run, True) for iid, run in items}
    repeated = True
    while repeated:
        repeated = False
        for iid, run in items:
            if time.perf_counter() + last[iid] <= deadline:
                last[iid] = execute(iid, run, False)
                repeated = True


def _item_medians(samples: dict) -> list:
    return [statistics.median(secs) for secs in samples.values()]


def harrell_davis(sorted_values, q: float, grid: int = 4000) -> float:
    """Harrell-Davis estimate of the q-quantile: an average of all order
    statistics weighted by a Beta(q(n+1), (1-q)(n+1)) distribution.

    Unlike a single order statistic it moves smoothly when items near the
    quantile swap places, which on a few dozen items with gaps between
    their costs made the nearest-rank median jump by a sixth between runs
    of identical inputs.
    """
    n = len(sorted_values)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    xs = [(i + 0.5) / grid for i in range(grid)]
    logs = [(a - 1) * math.log(x) + (b - 1) * math.log1p(-x) for x in xs]
    top = max(logs)
    density = [math.exp(v - top) for v in logs]
    weights = [0.0] * n
    for x, d in zip(xs, density):
        weights[min(int(x * n), n - 1)] += d
    return sum(w * v for w, v in zip(weights, sorted_values)) / sum(weights)


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics

def _setup_seconds(workload: str, seed: int) -> list:
    """Time from starting a fresh interpreter to its items being built, each
    probe rescaled by the speed the probe itself sampled."""
    times = []
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        word, *numbers = line.split()
        if proc.returncode != 0 or word != "ready":
            sys.exit(f"perfbench: set-up probe failed (exit {proc.returncode})")
        scale, sampler_spent = map(float, numbers)
        times.append((elapsed - sampler_spent) * scale)
    return times


def end_to_end(workload: str, seed: int, seconds: float):
    workloads, library_errors = _import_library()
    setup = _setup_seconds(workload, seed)
    items = workloads.WORKLOADS[workload](seed)
    samples = {iid: [] for iid, _ in items}
    failures = []

    with SpeedSampler() as sampler:
        def execute(iid, run, _first):
            secs, problems = _run_item(run, library_errors, sampler)
            samples[iid].append(secs)
            if problems:
                failures.append((iid, problems))
            return secs

        cycle(items, seconds, execute)
    scale = sampler.scale()
    medians = sorted(_item_medians(samples))
    repeats = min(len(s) for s in samples.values())
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "wall_s": (scale * sum(medians), "s", repeats),
        "item_p50_ms": (scale * 1000 * harrell_davis(medians, 0.5), "ms", len(medians)),
        "item_p90_ms": (scale * 1000 * harrell_davis(medians, 0.9), "ms", len(medians)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }
    notes = {"wall_s.unscaled": (sum(medians), "s", repeats),
             "speed_scale": (scale, "ratio", len(sampler.samples))}
    executions = sum(len(s) for s in samples.values())
    return metrics, notes, executions, failures, {"items": len(items),
                                                  "executions": executions}


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics

def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "pursuitwidth").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _counts(totals: dict) -> dict:
    """The machine-independent part of traced totals: everything but self time."""
    return {name: {k: v for k, v in tot.items() if k != "self_s"}
            for name, tot in totals.items()}


def _same_as_previous_run(workload: str, seed: int, totals: dict) -> bool:
    """Compare this run's pass counts with those of an earlier traced run of
    the same workload, seed and sources, or record them if there is none."""
    counts = json.loads(json.dumps(_counts(totals)))
    path = COUNTS_DIR / f"{workload}-{seed}-{_src_digest()[:16]}.json"
    if path.is_file():
        return json.loads(path.read_text()) == counts
    COUNTS_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(counts, sort_keys=True))
    return True


def traced(workload: str, seed: int, seconds: float):
    """Each execution runs the item untraced, then traced.  The verdicts of
    the two must agree, a repeated traced execution must reproduce the first
    one's counts exactly, and so must the whole pass in a later traced run
    of the same workload, seed and sources."""
    workloads, library_errors = _import_library()
    from tracer import Tracer, add_totals, per_layer_metrics
    items = workloads.WORKLOADS[workload](seed)
    tracer = Tracer(extra_modules=[workloads])
    plain = {iid: [] for iid, _ in items}
    wrapped = {iid: [] for iid, _ in items}
    first_counts = {}
    totals = {}
    failures = []

    def execute(iid, run, first):
        secs, problems = _run_item(run, library_errors)
        plain[iid].append(secs)
        item_totals = tracer.begin_item()
        with tracer:
            tsecs, tproblems = _run_item(run, library_errors)
        wrapped[iid].append(tsecs)
        if problems:
            failures.append((iid, problems))
        if problems != tproblems:
            tproblems = tproblems + [("traced-verdict-differs-from-untraced",)]
        counts = _counts(item_totals)
        if first:
            first_counts[iid] = counts
            add_totals(totals, item_totals)
        elif counts != first_counts[iid]:
            tproblems = tproblems + [("traced-counts-differ-between-executions",)]
        if tproblems:
            failures.append((iid, tproblems))
        return secs + tsecs

    cycle(items, seconds, execute)
    if not _same_as_previous_run(workload, seed, totals):
        failures.append(("pass", [("traced-counts-differ-from-previous-run",)]))
    result, printed_only = per_layer_metrics(totals)
    metrics = {name: (value, unit, 1) for name, (value, unit) in result.items()}
    untraced = sum(_item_medians(plain))
    traced_s = sum(_item_medians(wrapped))
    metrics["trace.overhead_ratio"] = (traced_s / untraced - 1, "ratio",
                                       min(len(s) for s in wrapped.values()))
    notes = {f"{name} (0 on some workloads)": (value, unit, 1)
             for name, (value, unit) in printed_only.items()}
    executions = 2 * sum(len(s) for s in wrapped.values())
    return metrics, notes, executions, failures, {"items": len(items),
                                                  "executions": executions}


# ---------------------------------------------------------------------------
# Reporting

def _record(workload, args, counts):
    sha = None
    try:
        top, _, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                      capture_output=True, text=True,
                                      timeout=10).stdout.partition("\n")
        if top and Path(top).resolve() == ROOT:
            sha = head.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    import workloads
    return {"workload": workload, "seed": args.seed, "held_out_seed": workloads.HELD_OUT_SEED,
            "seconds": args.seconds, "trace": args.trace, "git_sha": sha,
            "src_sha256": _src_digest(), "python": platform.python_version(),
            "nproc": os.cpu_count(), **counts}


def _line(name, value, unit, n):
    shown = value if isinstance(value, int) else f"{value:.6g}"
    return f"{name} = {shown} {unit} (n={n})"


def report_one(args) -> int:
    run = traced if args.trace else end_to_end
    metrics, notes, attempted, failures, counts = run(args.workload, args.seed,
                                                      args.seconds)
    for iid, problems in failures[:20]:
        print(f"FAILED {iid}: {problems}")
    print(f"# {args.workload}: {attempted} item executions, {len(failures)} failed "
          f"(failed_ratio {len(failures) / attempted:.4f})")
    for name, (value, unit, n) in metrics.items():
        print(_line(name, value, unit, n))
    for name, (value, unit, n) in notes.items():
        print("  not in the result: " + _line(name, value, unit, n))
    print("record " + json.dumps(_record(args.workload, args, counts), sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _n) in metrics.items()},
    }))
    return 0


def report_all(args) -> int:
    """Each workload in a fresh process, so peak_rss_mb is its own."""
    results = {}
    for workload in WORKLOAD_NAMES:
        print(f"## {workload}", flush=True)
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {workload} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def setup_only(args) -> int:
    """Build the workload's items in this fresh interpreter and report the
    speed scale sampled meanwhile and the time the sampling took."""
    with SpeedSampler(SETUP_SAMPLE_INTERVAL_S) as sampler:
        workloads, _ = _import_library()
        workloads.WORKLOADS[args.workload](args.seed)
    print(f"ready {sampler.scale()!r} {sampler.spent!r}", flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measure for this long; the first pass always completes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return report_all(args)
    if args.setup_only:
        return setup_only(args)
    return report_one(args)


if __name__ == "__main__":
    sys.exit(main())
