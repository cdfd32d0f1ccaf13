"""Golden outputs: the pinned report of the demo benchmark, and parity of
every strategy's fits with the point-major reference engine of
helpers.reference_run_fcm."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from fuzzseed import EngineError, FcmConfig, GaussianSpec, fit_method, gen_gaussian_clusters
from fuzzseed import seeding
from fuzzseed.bench import load_manifest
from fuzzseed.cli import main as cli_main
from fuzzseed.seeding import STRATEGIES

from .conftest import make_ruspini_like
from .helpers import reference_run_fcm

DEMO_MANIFEST = Path(__file__).resolve().parents[1] / "demo" / "manifest.json"

# sha256 of report.json from `fuzzseed bench --manifest demo/manifest.json --seed 42`
DEMO_REPORT_SHA256 = "9086661924647ba6d6546fc02bda5217efb26cecba4360740b5636155a28b0f0"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_demo_report_is_pinned(tmp_path, capsys, jobs):
    out = tmp_path / "report"
    code = cli_main(["bench", "--manifest", str(DEMO_MANIFEST), "--out", str(out),
                     "--seed", "42", "--jobs", jobs])
    capsys.readouterr()
    assert code == 0
    assert hashlib.sha256((out / "report.json").read_bytes()).hexdigest() == DEMO_REPORT_SHA256


def parity_corpus():
    """(dataset, k): the demo manifest, the 75-point analogue and a
    Gaussian grid shaped like the benchmark's relaunch grid."""
    corpus = [(job.dataset, job.expected_k) for job in load_manifest(DEMO_MANIFEST)]
    corpus.append((make_ruspini_like(), 4))
    for i, (k, sigma) in enumerate((k, s) for k in (3, 4, 6) for s in (0.3, 0.5)):
        spec = GaussianSpec(k=k, size=40, sigma=sigma, dims=4, rng_seed=300 + i,
                            name=f"grid_k{k}_sd{sigma}")
        corpus.append((gen_gaussian_clusters(spec), k))
    return corpus


def _fits(monkeypatch, engine, d, k, method, seed):
    """fit_method on `engine`, with every FCM run it makes recorded."""
    runs = []

    def recording(d, seeds, cfg=None):
        result = engine(d, seeds, cfg)
        runs.append((result.iterations, result.fw))
        return result

    monkeypatch.setattr(seeding, "run_fcm", recording)
    try:
        seeds, result = fit_method(d, k, method, cfg=FcmConfig(), seed=seed)
    except EngineError as exc:
        return type(exc), runs
    return (seeds.source_indices, result.iterations, result.fw), runs


def test_every_fit_matches_the_reference_engine(monkeypatch):
    engine = seeding.run_fcm
    fits = 0
    for i, (d, k) in enumerate(parity_corpus()):
        for method in STRATEGIES:
            got, got_runs = _fits(monkeypatch, engine, d, k, method, seed=1000 + i)
            want, want_runs = _fits(monkeypatch, reference_run_fcm, d, k, method, seed=1000 + i)
            where = f"{d.name}/{method}"
            assert [it for it, _ in got_runs] == [it for it, _ in want_runs], where
            for (_, fw), (_, ref) in zip(got_runs, want_runs):
                assert abs(fw - ref) <= 1e-12 * ref, where
            if isinstance(want, tuple):
                assert got[:2] == want[:2], where
                assert abs(got[2] - want[2]) <= 1e-12 * want[2], where
            else:
                assert got == want, where
            fits += len(want_runs)
    assert fits == 12 * (5 + 2 * 10)  # datasets x (single fits + relaunches)
