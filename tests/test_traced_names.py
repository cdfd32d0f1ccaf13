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
    # relaunches run stacked: one engine.run_fcm_stacked span per stack,
    # no engine.run_fcm span; all 10 relaunches of a k=3, n=36 job fit in
    # one stack of seeding._STACK_CELLS cells
    assert values["seeding.relaunch_runs"]["value"] == 0
    assert len(run.under("engine.run_fcm_stacked", "seeding.seed_repeated", 0)) == 2 * 2


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


def test_fit_large_named_metrics_are_all_traced(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracing

    n, k, t = 60, 3, 5
    tracer = tracing.Tracer()
    undo = tracer.install()
    try:
        # as the fit_large workload does: seed, a fixed number of FCM
        # iterations, then score the fit
        import fuzzseed as fz

        ds = fz.gen_gaussian_clusters(fz.GaussianSpec(k=k, size=n // k, sigma=0.4, dims=3,
                                                      rng_seed=5, name="fit"))
        cfg = fz.FcmConfig(epsilon=1e-15, max_iterations=t)
        tracer.op = 0
        with tracer.step("op"):
            result = fz.run_fcm(ds, fz.seed_maxmin_linear(ds, k), cfg)
            fz.score_result(ds, result)
    finally:
        tracer.uninstall(undo)
    assert result.iterations == t

    run = layers.TracedRun(tracer.spans, probes={}, setups=1, traced=[1.0], untraced=[1.0])
    values, missing = layers.named_metrics(run, "fit_large")
    probed = {"engine.update_membership_s", "engine.update_centroids_s", "engine.fuzzy_within_s"}
    assert set(missing) == probed
    assert values["engine.dist_evals_per_iter"]["value"] == n * k * (t + 1) / t
