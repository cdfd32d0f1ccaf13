"""Per-layer figures computed from the spans of a traced run.

Two sets:

- `layer_metrics`: the per_layer metrics of BENCHMARK.json. They are
  defined on every workload and do not depend on function names: self
  time share and wrapped calls per layer, synth time per set-up, seeding
  distance evaluations (read from the returned SeedSets) and the tracing
  overhead. A layer the workload does not drive reads 0 there.
- `named_metrics`: the function-level metrics of NAMED, for the
  workloads NAMED lists. A metric whose function recorded no call is
  returned as None and reported as missing.
"""

import statistics
from typing import NamedTuple

from tracing import LAYERS, NAME, OP, PARENT, SpanIndex


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


class TracedRun:
    """Spans of a traced run plus the values measured outside spans
    (`probes`: fresh-interpreter import times, final-state timings)."""

    def __init__(self, spans, probes: dict, setups: int, traced: list, untraced: list):
        self.ix = SpanIndex(spans)
        self.ops = self.ix.ops()
        self.probes = probes
        self.setups = setups
        self.traced = traced  # operation times with tracing on
        self.untraced = untraced  # and off, from the same run

    def per_op(self, fn):
        return _median(fn(op) for op in self.ops)

    def total(self, name):
        """Median over operations of the time spent in `name` per operation."""
        if not self.ix.named(name):
            return None
        return self.per_op(lambda op: sum(self.ix.dur(i) for i in self.ix.named(name, op)))

    def count(self, name):
        if not self.ix.named(name):
            return None
        return self.per_op(lambda op: len(self.ix.named(name, op)))

    def per_call(self, name):
        """Median duration of one call of `name`, set-up included."""
        return _median(self.ix.dur(i) for i in self.ix.named(name)) if self.ix.named(name) else None

    def info(self, name, key):
        if not self.ix.named(name):
            return None
        return self.per_op(lambda op: self.ix.info_sum(self.ix.named(name, op), key))

    def under(self, name, ancestor, op):
        return [
            i for i in self.ix.named(name, op)
            if any(self.ix.spans[a][NAME] == ancestor for a in self.ix.ancestors(i))
        ]

    def ratio(self, num, den):
        def per_op(op):
            d = den(op)
            return num(op) / d if d else None

        return self.per_op(per_op)

    def op_dur(self, op):
        return self.ix.dur(self.ix.op_root(op))


def _fcm_total(run, op):
    return sum(run.ix.dur(i) for i in run.ix.named("engine.run_fcm", op))


def _fcm_iters(run, op):
    return run.ix.info_sum(run.ix.named("engine.run_fcm", op), "iterations")


def _needs(run, *names):
    return all(run.ix.named(n) for n in names)


def _relaunch_share(run):
    if not _needs(run, "seeding.seed_repeated"):
        return None
    return run.ratio(
        lambda op: 100.0 * sum(run.ix.dur(i) for i in run.ix.named("seeding.seed_repeated", op)),
        run.op_dur,
    )


def _rows_per_s(run):
    calls = run.ix.named("data.load_csv")
    if not calls:
        return None
    return run.ix.info_sum(calls, "rows") / sum(run.ix.dur(i) for i in calls)


def _fcm_ratio(run, den):
    if not _needs(run, "engine.run_fcm"):
        return None
    return run.ratio(lambda op: _fcm_total(run, op), den)


def _relaunch_runs(run):
    if not _needs(run, "seeding.seed_repeated", "engine.run_fcm"):
        return None
    return run.per_op(lambda op: len(run.under("engine.run_fcm", "seeding.seed_repeated", op)))


def _dist_evals_per_iter(run):
    if not _needs(run, "engine.run_fcm", "engine.sq_dists"):
        return None
    return run.ratio(
        lambda op: run.ix.info_sum(run.under("engine.sq_dists", "engine.run_fcm", op), "evals"),
        lambda op: _fcm_iters(run, op),
    )


class Named(NamedTuple):
    """A function-level metric and its prediction: the end-to-end metrics
    (`moves`) a change to it should move, on the workloads it is
    measured on. op_s is the workload's own operation: a CLI session
    (cli_session), a ranked comparison grid (grid_relaunch), a large fit
    (fit_large)."""

    fn: object  # TracedRun -> value, or None when no call was recorded
    unit: str
    moves: tuple
    workloads: tuple


OP_S = ("op_s",)
CLI = ("cli_session",)
GRID = ("grid_relaunch",)
FIT = ("fit_large",)
GRID_FIT = GRID + FIT
COLD_IMPORT = ("cold_import_s", "op_s")

NAMED = {
    **{f"cli.{step}_s": Named((lambda step: lambda r: r.per_call(f"cli.{step}"))(step),
                              "s", OP_S, CLI)
       for step in ("generate", "seed", "fit", "validate", "bench")},
    "cli.import_fuzzseed_s": Named(lambda r: r.probes.get("import_fuzzseed_s"), "s",
                                   COLD_IMPORT, CLI),
    "cli.import_scipy_stats_s": Named(lambda r: r.probes.get("import_scipy_stats_s"), "s",
                                      COLD_IMPORT, CLI),
    "data.load_csv_s": Named(lambda r: r.per_call("data.load_csv"), "s", OP_S, CLI),
    "data.load_csv_rows_per_s": Named(_rows_per_s, "1/s", OP_S, CLI),
    "data.write_csv_s": Named(lambda r: r.per_call("data.write_csv"), "s",
                              ("op_s", "setup_s"), CLI),
    "synth.gen_s": Named(lambda r: r.per_call("synth.gen_gaussian_clusters"), "s",
                         ("setup_s",), GRID_FIT),
    "seeding.relaunch_s": Named(lambda r: r.total("seeding.seed_repeated"), "s", OP_S, GRID),
    "seeding.relaunch_runs": Named(_relaunch_runs, "count", OP_S, GRID),
    "seeding.relaunch_share": Named(_relaunch_share, "%", OP_S, GRID),
    "engine.run_fcm_s": Named(lambda r: r.total("engine.run_fcm"), "s", OP_S, GRID_FIT),
    "engine.run_fcm_calls": Named(lambda r: r.count("engine.run_fcm"), "count", OP_S, GRID_FIT),
    "engine.iterations": Named(lambda r: r.info("engine.run_fcm", "iterations"), "count",
                               OP_S, GRID_FIT),
    "engine.s_per_iter": Named(lambda r: _fcm_ratio(r, lambda op: _fcm_iters(r, op)), "s",
                               OP_S, GRID_FIT),
    "engine.s_per_call": Named(
        lambda r: _fcm_ratio(r, lambda op: len(r.ix.named("engine.run_fcm", op))), "s",
        OP_S, GRID_FIT),
    "engine.update_membership_s": Named(lambda r: r.probes.get("update_membership_s"), "s",
                                        OP_S, FIT),
    "engine.update_centroids_s": Named(lambda r: r.probes.get("update_centroids_s"), "s",
                                       OP_S, FIT),
    "engine.fuzzy_within_s": Named(lambda r: r.probes.get("fuzzy_within_s"), "s", OP_S, FIT),
    "engine.dist_evals_per_iter": Named(_dist_evals_per_iter, "count", OP_S, FIT),
    "validity.score_result_s": Named(lambda r: r.total("validity.score_result"), "s",
                                     OP_S, GRID_FIT),
    "validity.v_xb_s": Named(lambda r: r.total("validity.v_xb"), "s", OP_S, GRID_FIT),
    "validity.v_cl_s": Named(lambda r: r.total("validity.v_cl"), "s", OP_S, GRID_FIT),
    "bench.run_comparison_s": Named(lambda r: r.total("bench.run_comparison"), "s", OP_S,
                                    GRID + CLI),
    "bench.cell_s": Named(lambda r: r.per_call("bench._run_cell"), "s", OP_S, GRID),
    "bench.errored_cells": Named(lambda r: r.info("bench.run_comparison", "errored"), "count",
                                 OP_S, GRID),
    "bench.rank_methods_s": Named(lambda r: r.total("bench.rank_methods"), "s", OP_S, GRID),
    "bench.to_json_s": Named(lambda r: r.total("bench.ComparisonReport.to_json"), "s",
                             OP_S, GRID),
    "bench.write_report_s": Named(lambda r: r.per_call("bench.write_report"), "s", OP_S, CLI),
    "bench.load_manifest_s": Named(lambda r: r.per_call("bench.load_manifest"), "s", OP_S, CLI),
}


def named_metrics(run: TracedRun, workload: str) -> tuple[dict, list[str]]:
    """Values of the predicted metrics for `workload`, and the missing ones."""
    values, missing = {}, []
    for name, metric in NAMED.items():
        if workload not in metric.workloads:
            continue
        value = metric.fn(run)
        if value is None:
            missing.append(name)
        else:
            values[name] = {"value": value, "unit": metric.unit, "moves": list(metric.moves)}
    return values, missing


def layer_self_seconds(run: TracedRun) -> dict:
    """Median self time per layer (and the harness) per operation, in s."""
    per_op = [run.ix.layer_self(op) for op in run.ops]
    return {layer: statistics.median(s[layer] for s in per_op) for layer in per_op[0]}


def layer_metrics(run: TracedRun) -> dict:
    """The per_layer metrics of BENCHMARK.json, as {name: (value, unit)}."""
    out = {}
    shares = [
        {layer: 100.0 * t / run.op_dur(op) for layer, t in run.ix.layer_self(op).items()}
        for op in run.ops
    ]
    calls = [run.ix.layer_calls(op) for op in run.ops]
    for layer in LAYERS:
        out[f"{layer}.self_share"] = (statistics.median(s[layer] for s in shares), "%")
        out[f"{layer}.calls"] = (statistics.median(c[layer] for c in calls), "count")
    setup_synth = [
        run.ix.dur(i) for i, s in enumerate(run.ix.spans)
        if s[OP] is None and s[PARENT] is None and s[NAME].startswith("synth.")
    ]
    out["synth.setup_s"] = (sum(setup_synth) / run.setups, "s")
    out["seeding.dist_evals"] = (statistics.median(run.ix.leaf_dist_evals(op) for op in run.ops), "count")
    traced = statistics.median(run.traced)
    untraced = statistics.median(run.untraced)
    out["trace.overhead_share"] = (100.0 * (traced - untraced) / untraced, "%")
    return out
