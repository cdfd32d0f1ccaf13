"""Golden outputs: the pinned report of the demo benchmark, and parity of
every strategy's fits with the point-major reference engine of
helpers.reference_run_fcm."""

import hashlib
import json
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

# sha256 of the fits of test_wide_fits_are_pinned: seed and result JSON, membership bytes
WIDE_FITS_SHA256 = "65478a8df45798b82e2edb76f1bede9eefa1a33f0f9a2c16bd4ae918abea8b15"

# sha256 of the CSVs of test_csv_outputs_are_pinned: `generate` (CRLF) and
# `fit --membership-out` (LF), as the csv module's writer wrote them
GENERATE_CSV_SHA256 = "ea8522b7ceef7e0ddfb24ea65a1a2dbf20b74fc7aabecfeb0ee3d642919e655c"
MEMBERSHIP_CSV_SHA256 = "ec7b1871a7b14250463cb9d3914639f3e4ab875e2a143dd6e919319af839dba9"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_demo_report_is_pinned(tmp_path, capsys, jobs):
    out = tmp_path / "report"
    code = cli_main(["bench", "--manifest", str(DEMO_MANIFEST), "--out", str(out),
                     "--seed", "42", "--jobs", jobs])
    capsys.readouterr()
    assert code == 0
    assert hashlib.sha256((out / "report.json").read_bytes()).hexdigest() == DEMO_REPORT_SHA256


def test_wide_fits_are_pinned():
    # 8 and 16 features: numpy sums an axis of 8 or more terms pairwise
    # unless it runs along the outer loop, which would move low bits of the
    # distances and FB; the demo data have at most 3 features
    digest = hashlib.sha256()
    for p in (8, 16):
        d = gen_gaussian_clusters(GaussianSpec(k=4, size=50, sigma=0.5, dims=p,
                                               rng_seed=500 + p))
        for method in ("maxmin_linear", "kmeanspp", "faber"):
            seeds, result = fit_method(d, 4, method, cfg=FcmConfig(), seed=42)
            digest.update(json.dumps([seeds.to_dict(), result.to_dict()]).encode())
            digest.update(result.membership.tobytes())
    assert digest.hexdigest() == WIDE_FITS_SHA256


def test_csv_outputs_are_pinned(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "gaussian_clusters", "k": 4, "size": 100,
                                "sigma": 0.5, "dims": 8, "rng_seed": 2024, "name": "golden"}))
    data, membership = tmp_path / "golden.csv", tmp_path / "u.csv"
    assert cli_main(["generate", "--spec", str(spec), "--out", str(data)]) == 0
    assert cli_main(["fit", "--data", str(data), "--label-column", "label", "--k", "4",
                     "--method", "maxmin_linear", "--out", str(tmp_path / "fit.json"),
                     "--membership-out", str(membership)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(data.read_bytes()).hexdigest() == GENERATE_CSV_SHA256
    assert hashlib.sha256(membership.read_bytes()).hexdigest() == MEMBERSHIP_CSV_SHA256


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
