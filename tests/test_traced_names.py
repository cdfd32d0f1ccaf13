"""The benchmark under perfbench/ reads function-level metrics from spans
named after fuzzseed functions; a renamed boundary shows up there as a
MISSING metric. This runs a small grid_relaunch-shaped operation under
the benchmark's own tracer and checks that every such metric is found."""

import json
from pathlib import Path

from fuzzseed import gen_gaussian_clusters, run_comparison
from fuzzseed.seeding import DEFAULT_BENCH_METHODS

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_grid_relaunch_named_metrics_are_all_traced(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracing

    tracer = tracing.Tracer()
    undo = tracer.install()
    try:
        # look the entry points up after install, as the benchmark does
        import fuzzseed as fz

        jobs = [
            (fz.gen_gaussian_clusters(fz.GaussianSpec(k=3, size=12, sigma=0.3, dims=2,
                                                      rng_seed=i, name=f"d{i}")), 3)
            for i in range(2)
        ]
        tracer.op = 0
        with tracer.step("op"):
            report = fz.run_comparison(jobs, DEFAULT_BENCH_METHODS, master_seed=1)
            fz.rank_methods(report).to_json()
    finally:
        tracer.uninstall(undo)
    assert fz.run_comparison is run_comparison and fz.gen_gaussian_clusters is gen_gaussian_clusters

    run = layers.TracedRun(tracer.spans, probes={}, setups=1, traced=[1.0], untraced=[1.0])
    values, missing = layers.named_metrics(run, "grid_relaunch")
    assert missing == []
    assert values["bench.errored_cells"]["value"] == 0
    assert values["seeding.relaunch_runs"]["value"] == 2 * 2 * 10


def test_cli_session_csv_metrics_are_all_traced(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracing

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "gaussian_clusters", "k": 3, "size": 20, "sigma": 0.3,
                                "dims": 2, "rng_seed": 1}))
    data, fit, u = (str(tmp_path / name) for name in ("data.csv", "fit.json", "u.csv"))
    labelled = ["--data", data, "--label-column", "label"]
    tracer = tracing.Tracer()
    undo = tracer.install()
    try:
        # as perfbench/cli_child.py does: the CLI entry point after install
        import fuzzseed.cli as cli

        tracer.op = 0
        with tracer.step("op"):
            codes = [
                cli.main(["generate", "--spec", str(spec), "--out", data]),
                cli.main(["fit", *labelled, "--k", "3", "--method", "maxmin_linear",
                          "--out", fit, "--membership-out", u]),
                cli.main(["validate", "--result", fit, *labelled, "--membership", u]),
            ]
    finally:
        tracer.uninstall(undo)
    capsys.readouterr()
    assert codes == [0, 0, 0]

    run = layers.TracedRun(tracer.spans, probes={}, setups=1, traced=[1.0], untraced=[1.0])
    for name in ("data.load_csv_s", "data.load_csv_rows_per_s", "data.write_csv_s"):
        assert layers.NAMED[name].fn(run) is not None, name
    # fit and validate load the data CSV, validate the membership CSV too
    assert len(run.ix.named("data.load_csv")) == 3
