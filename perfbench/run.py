"""torquot benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload grid-n3b1 --seed 1 --seconds 10 --trace 0

With --trace 0 the workload runs whole rounds of calls into torquot until
--seconds of calls are measured (and at least its configured call count),
checks every output against its reference, and prints the end-to-end
metrics of BENCHMARK.json.  With --trace 1 it runs a fixed number of rounds
traced and prints the per-layer metrics.  The
last line of standard output is the result object; the line before it is a
report with the run's provenance and the metrics under their workload
names.  The exit code is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import clock
import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 7  # this process plus six fresh ones
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
TAIL_BEYOND = 10


class BenchError(Exception):
    """The benchmark cannot run here: no program to import, or a set-up probe failed."""


def load_program(root: Path):
    """Import torquot from the checkout's src/, never from an installed copy."""
    src = root / "src"
    if not (src / "torquot" / "__init__.py").is_file():
        raise BenchError(f"no torquot package under {src}")
    sys.path.insert(0, str(src))
    tq = importlib.import_module("torquot")
    if Path(tq.__file__).resolve().parent != (src / "torquot").resolve():
        raise BenchError(f"imported torquot from {tq.__file__}, not from {src}")
    return tq


def tail_percentile(min_calls: int):
    """Highest of PERCENTILES keeping >= TAIL_BEYOND calls beyond it, or None."""
    fit = [p for p in PERCENTILES if min_calls * (100 - p) / 100 >= TAIL_BEYOND]
    return max(fit) if fit else None


def percentile(values, p):
    """The p-th percentile (p a multiple of 0.1), interpolated between order statistics."""
    return statistics.quantiles(values, n=1000, method="inclusive")[round(10 * p) - 1]


def run_rounds(workload, seconds=None, rounds=None):
    """Whole rounds: a fixed number, or until `seconds` of calls and min_calls are done.

    Every call's `seconds` is its calibrated CPU time (see clock.py).
    """
    done, measured, calls = [], 0.0, 0
    with clock.Calibrator() as calibrator:
        while (
            len(done) < rounds if rounds is not None
            else measured < seconds or calls < workload.min_calls
        ):
            batch = workload.round(len(done))
            done.append(batch)
            measured += sum(c.cpu for c in batch)
            calls += len(batch)
    for batch in done:
        for call in batch:
            call.seconds = calibrator.calibrated(call.start, call.end)
    return done


def setup_probe(workload: str, seed: int) -> float:
    """Calibrated set-up time of a fresh interpreter: torquot import plus the workload's set-up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def provenance(root: Path) -> dict:
    return {
        "git_rev": git_rev(root),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }


def git_rev(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
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


def call_metrics(workload, rounds, timing="seconds") -> dict:
    """Throughput (median over rounds) and call latency, on one of a Call's clocks."""
    latencies = [getattr(c, timing) for r in rounds for c in r]
    p = tail_percentile(workload.min_calls)
    return {
        "items_per_s": statistics.median(
            sum(c.items for c in r) / sum(getattr(c, timing) for c in r) for r in rounds
        ),
        "call_p50_ms": 1000 * statistics.median(latencies),
        "call_tail_ms": 1000 * (percentile(latencies, p) if p else max(latencies)),
    }


def end_to_end(workload, rounds, setup_samples) -> dict:
    return {
        "setup_s": statistics.median(setup_samples),
        **call_metrics(workload, rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(names, tracer, items: int, overhead: float) -> dict:
    totals = tracer.totals()
    filter_calls = sum(totals.get((n, None), (0,))[0] for n in spans.FILTER_SPANS)
    filter_s = sum(totals.get((n, None), (0, 0.0))[1] for n in spans.FILTER_SPANS)
    special = {
        "actions.filter.calls": filter_calls,
        "actions.filter.s": filter_s,
        "actions.filter.tests_per_item": filter_calls / items,
        "trace.overhead_ratio": overhead,
        "trace.items": items,
        "trace.spans": len(tracer.span_start),
    }
    special.update({f"classify.branch.{b}": v for b, v in tracer.branches.items()})
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
            continue
        span, _, stat = name.rpartition(".")
        span, _, caller = span.partition(".by_")
        calls, incl, self_s = totals.get((span, caller or None), (0, 0.0, 0.0))
        out[name] = {"calls": calls, "s": incl, "self_s": self_s}[stat]
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None,
                        help="with --trace 1, also write every span to this CSV file")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must be in [0, 2^64)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    speed_before = clock.calibrate()
    start = clock.cpu_seconds()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        tq = load_program(ROOT)
        workload = WORKLOADS[args.workload](tq, args.seed, workdir)
        setup_s = (clock.cpu_seconds() - start) * clock.NOMINAL_S / (
            (speed_before + clock.calibrate()) / 2
        )
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        if args.trace:
            metric_specs = spec["per_layer"]
            rounds, metrics, extra = run_traced(workload, args.spans, metric_specs)
        else:
            metric_specs = spec["end_to_end"]
            samples = [setup_s] + [
                setup_probe(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)
            ]
            rounds = run_rounds(workload, seconds=args.seconds)
            metrics = end_to_end(workload, rounds, samples)
            extra = {
                "setup_samples_s": samples,
                "cpu_clock": call_metrics(workload, rounds, timing="cpu"),
                "wall_clock": call_metrics(workload, rounds, timing="wall"),
            }
    except (BenchError, OSError, ValueError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # absent, or in use by a parallel run
            workdir.parent.rmdir()

    calls = [c for r in rounds for c in r]
    attempted = sum(c.items for c in calls)
    failed = sum(c.failed for c in calls)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        **provenance(ROOT),
        "rounds": len(rounds),
        "calls": len(calls),
        "measured_s": sum(c.seconds for c in calls),
        "fail_ratio": failed / attempted,
        **extra,
    }
    if not args.trace:
        tail = metrics["call_tail_ms"] / 1000
        report["tail_percentile"] = tail_percentile(workload.min_calls) or "max"
        report["tail_calls_beyond"] = sum(c.seconds > tail for c in calls)
        report.update({alias: metrics[name] for name, alias in workload.aliases.items()})
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in metric_specs
        },
    }))
    return 0 if failed == 0 else 1


def run_traced(workload, spans_path, metric_specs):
    """The workload's fixed trace rounds, traced; per-layer metrics.

    trace.overhead_ratio is the traced call time over the same time less
    what the spans cost, each span at the measured cost of one traced call of
    a trivial function; an untraced pass of the same rounds would double the
    run.
    """
    cost = spans.span_cost()
    tracer = spans.Tracer()
    tracer.install()
    try:
        rounds = run_rounds(workload, rounds=workload.trace_rounds)
    finally:
        tracer.uninstall()
    measured = sum(c.seconds for r in rounds for c in r)
    overhead = measured / (measured - len(tracer.span_start) * cost)
    items = sum(c.items for r in rounds for c in r)
    metrics = per_layer([m["name"] for m in metric_specs], tracer, items, overhead)
    if spans_path is not None:
        tracer.write_spans(spans_path)
    extra = {"missing_trace_targets": tracer.missing, "span_cost_s": cost}
    return rounds, metrics, extra


if __name__ == "__main__":
    sys.exit(main())
