"""fuzzseed benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workload's inputs come from --seed;
fuzzseed gets only those inputs, from this checkout's src/. One closed-loop
client runs operations one after another (n_jobs=1) until S seconds have
passed, and checks every output.

--trace 0 measures the end-to-end metrics: op_s (median operation time),
peak_rss_mb and setup_s (median set-up time). --trace 1 alternates
untraced and traced operations and reports the per-layer metrics, the
tracing overhead and the function-level metrics of layers.NAMED, each
with the end-to-end metrics it should move.

Human-readable lines come first; the last line of stdout is one JSON
object {correct, attempted, failed, metrics}. A report with medians,
tails, sample counts, failures and run metadata (and, traced, the spans)
is written under perfbench/out/. Without fuzzseed sources in the
checkout it exits 2 and prints no result.
"""

import argparse
import importlib.metadata
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
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up runs at least SETUP_REPEATS times and for at least
# SETUP_SECONDS, so that a set-up of a few milliseconds still gets a
# median of many samples.
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def summarize(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it
    (None when there are too few samples), and the sample count."""
    xs = sorted(values)
    n = len(xs)
    tail = next(((p, xs[math.ceil(p / 100 * n) - 1]) for p in TAIL_PERCENTILES
                 if n - math.ceil(p / 100 * n) >= 10), (None, None))
    return {"median": statistics.median(xs), "tail_percentile": tail[0], "tail": tail[1],
            "count": n}


class Tally:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def attempt(self, fn) -> float:
        """Run one operation; return its wall time. A raised exception is a
        failed operation, recorded and not re-raised, so the run goes on."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            fn()
        except Exception:  # noqa: BLE001 - boundary: record and keep measuring
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(traceback.format_exc(limit=3))
        return time.perf_counter() - t0


def engine_iteration_cost(n: int, k: int, p: int) -> dict:
    """Flops and bytes of one FCM iteration of the current numpy engine,
    computed from n, k, p (not measured). Two distance passes, each writing
    and reading an (n, k, p) float64 difference tensor (3nkp flops); the
    centroid product (2nkp); about ten elementwise n x k array passes."""
    nkp, nk = n * k * p, n * k
    return {
        "label": "computed",
        "n": n, "k": k, "p": p,
        "flops": 8 * nkp + 10 * nk,
        "bytes": 8 * (4 * nkp + 15 * nk + 3 * n * p),
        "formula": "flops = 8nkp + 10nk; bytes = 8(4nkp + 15nk + 3np)",
    }


def metadata(seed: int) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    sha = None  # the checkout need not be a git repository
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except OSError:
            pass
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": sha, "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(), "cpu_model": cpu,
            "workload_seed": seed}


def repeat_setup(setup) -> tuple[list[float], dict]:
    """Time `setup` SETUP_REPEATS times or for SETUP_SECONDS, whichever is
    longer; return the times and the last state."""
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        t0 = time.perf_counter()
        state = setup()
        times.append(time.perf_counter() - t0)
    return times, state


def timed_loop(seconds: float, step) -> None:
    """Call step(i) for i = 0, 1, ... while the next call, taking as long as
    the calls so far did on average, still ends within `seconds`; at least
    two calls are made."""
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if i >= 2 and elapsed + elapsed / i > seconds:
            return
        step(i)
        i += 1


def plain_run(wl, args, workdir: Path, tally: Tally) -> tuple[dict, dict]:
    setup_times, state = repeat_setup(lambda: wl.setup(args.seed, workdir))
    for _ in range(wl.warmup_ops):
        tally.attempt(lambda: wl.op(state))
    op_times = []
    timed_loop(args.seconds, lambda i: op_times.append(tally.attempt(lambda: wl.op(state))))
    stats = {"op_s": summarize(op_times), "setup_s": summarize(setup_times)}
    metrics = {
        "op_s": (stats["op_s"]["median"], "s"),
        "peak_rss_mb": (resource.getrusage(wl.rusage).ru_maxrss / 1024.0, "MB"),
        "setup_s": (stats["setup_s"]["median"], "s"),
    }
    return metrics, {"timings": stats}


def traced_run(wl, args, workdir: Path, tally: Tally) -> tuple[dict, dict]:
    import layers
    import tracing

    tracer = tracing.Tracer()

    def traced_setup():
        undo = tracer.install()
        try:
            return wl.setup(args.seed, workdir)
        finally:
            tracer.uninstall(undo)

    setup_times, state = repeat_setup(traced_setup)
    for _ in range(wl.warmup_ops):
        tally.attempt(lambda: wl.op(state))
    times = {"traced": [], "untraced": []}

    def step(i):
        if i % 2 == 0:
            times["untraced"].append(tally.attempt(lambda: wl.op(state)))
            return
        tracer.op = len(times["traced"])
        undo = tracer.install()
        try:
            with tracer.step("op"):
                times["traced"].append(tally.attempt(lambda: wl.op(state, tracer)))
        finally:
            tracer.uninstall(undo)
            tracer.op = None

    timed_loop(args.seconds, step)
    probes = wl.probe(state) if hasattr(wl, "probe") else {}
    run = layers.TracedRun(tracer.spans, probes, len(setup_times), times["traced"],
                           times["untraced"])
    metrics = layers.layer_metrics(run)
    named, missing = layers.named_metrics(run, wl.name)
    self_s = layers.layer_self_seconds(run)
    spans_path = OUT / f"{wl.name}-seed{args.seed}-spans.json"
    tracer.dump(spans_path)
    extra = {
        "timings": {key: summarize(values) for key, values in times.items()},
        "tracing_overhead_s": statistics.median(times["traced"]) - statistics.median(times["untraced"]),
        "layer_self_s": self_s,
        "named_metrics": named,
        "missing": missing,
        "spans": str(spans_path.relative_to(ROOT)),
        "span_count": len(tracer.spans),
    }
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fuzzseed" / "__init__.py").is_file():
        print(f"perfbench: no fuzzseed sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fuzzseed

    if Path(fuzzseed.__file__).resolve().parent != (SRC / "fuzzseed").resolve():
        print(f"perfbench: imported fuzzseed from {fuzzseed.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{wl.name}-{os.getpid()}"
    workdir.mkdir()
    tally = Tally()
    try:
        metrics, extra = (traced_run if args.trace else plain_run)(wl, args, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {
        "workload": wl.name, "why": wl.why, "sizes": wl.sizes, "trace": args.trace,
        "seconds": args.seconds, "meta": metadata(args.seed),
        "attempted": tally.attempted, "failed": tally.failed,
        "fail_ratio": tally.failed / tally.attempted, "failures": tally.failures,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        **extra,
    }
    if hasattr(wl, "engine_shape"):
        report["engine_iteration"] = engine_iteration_cost(*wl.engine_shape)
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n")

    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: "
          f"{tally.attempted} operations, {tally.failed} failed")
    for failure in tally.failures:
        print(failure.rstrip())
    for name, stats in extra["timings"].items():
        tail = (f"p{stats['tail_percentile']:g} {stats['tail']:.4f} s" if stats["tail"] is not None
                else "tail n/a")
        print(f"  {name:<16} median {stats['median']:.4f} s  {tail}  n={stats['count']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:.6g} {unit}")
    for name, entry in extra.get("named_metrics", {}).items():
        print(f"  {name:<28} {entry['value']:.6g} {entry['unit']}")
    for name in extra.get("missing", ()):
        print(f"  {name:<28} MISSING (no call recorded)")
    if "tracing_overhead_s" in extra:
        print(f"  tracing overhead             {extra['tracing_overhead_s']:.4f} s per operation")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
