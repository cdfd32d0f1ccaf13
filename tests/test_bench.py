import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzseed import (
    BenchJob,
    CRITERIA,
    ComparisonReport,
    DataError,
    Dataset,
    FcmConfig,
    GaussianSpec,
    gen_gaussian_clusters,
    load_manifest,
    rank_methods,
    run_comparison,
    write_csv,
    write_report,
)
from fuzzseed.bench import _badness
from fuzzseed.seeding import DEFAULT_BENCH_METHODS


def small_synthetic(seed=100):
    return gen_gaussian_clusters(
        GaussianSpec(k=3, size=20, sigma=0.3, dims=2, rng_seed=seed, name=f"blob{seed}")
    )


def toy_report(values_by_method, direction_criterion="fratio"):
    """Single-dataset report with one hand-set criterion column."""
    methods = list(values_by_method)
    cells = {
        "d0": {
            m: {
                "values": {c: values_by_method[m] for c in CRITERIA},
                "rng_seed": None,
                "flags": [],
                "error": None,
            }
            for m in methods
        }
    }
    return ComparisonReport(
        datasets=["d0"], methods=methods, criteria=list(CRITERIA), cells=cells
    )


def test_criteria_directions():
    assert list(CRITERIA) == [
        "iterations", "pc", "cl", "fb", "fw", "fi", "fratio", "tsfd", "fs", "xb",
    ]
    assert CRITERIA["iterations"] == "minimize"
    assert CRITERIA["fw"] == "minimize"
    assert CRITERIA["fs"] == "minimize"
    assert CRITERIA["xb"] == "minimize"
    assert all(
        CRITERIA[c] == "maximize" for c in ("pc", "cl", "fb", "fi", "fratio", "tsfd")
    )


def test_minimal_protocol():
    ds = small_synthetic()
    report = run_comparison([(ds, 3)], methods=["maxmin_linear"], master_seed=1)
    cell = report.cells[ds.name]["maxmin_linear"]
    assert list(cell["values"]) == list(CRITERIA)
    assert cell["error"] is None
    assert cell["rng_seed"] is None  # deterministic method ignores the master seed


def test_two_pairs_all_methods_reach_same_optimum(two_pairs):
    report = run_comparison(
        [(two_pairs, 2)], methods=list(DEFAULT_BENCH_METHODS), master_seed=7
    )
    fws = [report.cells["two_pairs"][m]["values"]["fw"] for m in DEFAULT_BENCH_METHODS]
    assert max(fws) - min(fws) <= 1e-6 * max(fws)


def test_rank_tie_averaging():
    report = toy_report({"a": 3.12, "b": 2.94, "c": 2.94, "d": 2.94, "e": 2.94})
    ranked = rank_methods(report)
    fratio_ranks = ranked.ranks["d0"]["fratio"]
    assert fratio_ranks == {"a": 1.0, "b": 3.5, "c": 3.5, "d": 3.5, "e": 3.5}
    # every rank vector sums to M(M+1)/2
    for criterion in ranked.criteria:
        assert sum(ranked.ranks["d0"][criterion].values()) == pytest.approx(15.0)


def test_rank_directions():
    report = toy_report({"a": 1.0, "b": 2.0, "c": 3.0})
    ranked = rank_methods(report)
    assert ranked.ranks["d0"]["fw"] == {"a": 1.0, "b": 2.0, "c": 3.0}  # minimize
    assert ranked.ranks["d0"]["fb"] == {"a": 3.0, "b": 2.0, "c": 1.0}  # maximize


# Criterion values that tie often: signed zeros, infinities and missing
# cells (None) next to a few finite values.
TIE_PRONE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e300, math.inf, -math.inf, None]),
    st.floats(allow_nan=False),
)


@st.composite
def tie_prone_reports(draw):
    methods = [f"m{i}" for i in range(draw(st.integers(1, 7)))]
    datasets = [f"d{i}" for i in range(draw(st.integers(1, 3)))]
    cells = {
        ds: {
            m: {
                # an errored cell has no values at all
                "values": None if draw(st.integers(0, 9)) == 0
                else {c: draw(TIE_PRONE) for c in CRITERIA},
                "rng_seed": None,
                "flags": [],
                "error": None,
            }
            for m in methods
        }
        for ds in datasets
    }
    return ComparisonReport(datasets=datasets, methods=methods, criteria=list(CRITERIA),
                            cells=cells)


def brute_force_ranks(values, direction):
    """rank_i = 1 + #{x_j < x_i} + (#{x_j == x_i} - 1) / 2 over sort keys in
    which a missing or infinite value is worst."""
    keys = [
        math.inf if v is None or math.isinf(v) else (-v if direction == "maximize" else v)
        for v in values
    ]
    return [
        1 + sum(y < x for y in keys) + (sum(y == x for y in keys) - 1) / 2 for x in keys
    ]


@settings(deadline=None)
@given(tie_prone_reports())
def test_rank_methods_matches_brute_force(report):
    ranked = rank_methods(report)
    size = len(report.methods)
    for ds in report.datasets:
        for criterion, direction in CRITERIA.items():
            values = [
                None if report.cells[ds][m]["values"] is None
                else report.cells[ds][m]["values"][criterion]
                for m in report.methods
            ]
            vector = ranked.ranks[ds][criterion]
            assert [vector[m] for m in report.methods] == brute_force_ranks(values, direction)
            assert sum(vector.values()) == size * (size + 1) / 2
    for criterion in CRITERIA:
        for m in report.methods:
            per_ds = [ranked.ranks[ds][criterion][m] for ds in report.datasets]
            assert ranked.average_ranks[criterion][m] == pytest.approx(np.mean(per_ds))


def test_average_rank_mean():
    ds_names = ["d0", "d1", "d2"]
    cells = {}
    for i, name in enumerate(ds_names):
        # method a ranks 1st, 2nd, 3rd on fratio across the three datasets
        vals = {"a": 3.0 - i, "b": 2.0 if i != 1 else 3.0, "c": 1.0 if i != 2 else 4.0}
        cells[name] = {
            m: {"values": {c: v for c in CRITERIA}, "rng_seed": None, "flags": [], "error": None}
            for m, v in vals.items()
        }
    report = ComparisonReport(
        datasets=ds_names, methods=["a", "b", "c"], criteria=list(CRITERIA), cells=cells
    )
    ranked = rank_methods(report)
    per_ds = [ranked.ranks[name]["fratio"]["a"] for name in ds_names]
    assert per_ds == [1.0, 2.0, 3.0]
    assert ranked.average_ranks["fratio"]["a"] == pytest.approx(2.0)


def test_inf_sentinel_ranks_last_both_directions():
    assert _badness(float("inf"), "maximize") == np.inf
    assert _badness(float("inf"), "minimize") == np.inf
    assert _badness(None, "maximize") == np.inf
    report = toy_report({"a": float("inf"), "b": 1.0, "c": 2.0})
    ranked = rank_methods(report)
    assert ranked.ranks["d0"]["fratio"]["a"] == 3.0  # maximize: sentinel is worst
    assert ranked.ranks["d0"]["xb"]["a"] == 3.0  # minimize: inf is worst anyway


def test_monotone_aggregation():
    base = toy_report({"a": 1.0, "b": 2.0, "c": 3.0})
    before = rank_methods(base).ranks["d0"]["fb"]["a"]
    improved = toy_report({"a": 2.5, "b": 2.0, "c": 3.0})
    after = rank_methods(improved).ranks["d0"]["fb"]["a"]
    assert after <= before


def test_end_to_end_determinism():
    jobs = [(small_synthetic(1), 3), (small_synthetic(2), 3)]
    kwargs = dict(methods=list(DEFAULT_BENCH_METHODS), cfg=FcmConfig(), master_seed=42)
    serial = rank_methods(run_comparison(jobs, **kwargs))
    again = rank_methods(run_comparison(jobs, **kwargs))
    assert serial.to_json() == again.to_json()


def test_maxmin_linear_cells_ignore_master_seed():
    ds = small_synthetic(3)
    a = run_comparison([(ds, 3)], methods=["maxmin_linear"], master_seed=1)
    b = run_comparison([(ds, 3)], methods=["maxmin_linear"], master_seed=999)
    assert a.cells[ds.name] == b.cells[ds.name]


def test_errored_dataset_recorded_not_fatal():
    ds = small_synthetic(4)
    jobs = [
        BenchJob(name="broken", expected_k=3, error="cannot read broken.csv"),
        BenchJob(name=ds.name, expected_k=3, dataset=ds),
    ]
    report = rank_methods(run_comparison(jobs, methods=["maxmin_linear", "macqueen2"], master_seed=5))
    assert report.cells["broken"]["maxmin_linear"]["error"] == "cannot read broken.csv"
    assert report.cells[ds.name]["maxmin_linear"]["error"] is None
    # errored cells tie for last place
    assert report.ranks["broken"]["fratio"] == {"maxmin_linear": 1.5, "macqueen2": 1.5}


def test_engine_error_recorded_per_cell():
    tiny = gen_gaussian_clusters(GaussianSpec(k=1, size=2, sigma=0.3, dims=1, rng_seed=6))
    report = run_comparison([(tiny, 5)], methods=["maxmin_linear"], master_seed=5)
    assert "exceeds" in report.cells[tiny.name]["maxmin_linear"]["error"]


def test_report_json_round_trip():
    jobs = [(small_synthetic(7), 3)]
    report = rank_methods(run_comparison(jobs, methods=["maxmin_linear", "kmeanspp"], master_seed=9))
    back = ComparisonReport.from_dict(json.loads(report.to_json()))
    assert back == report


def test_report_round_trip_preserves_inf():
    report = toy_report({"a": float("inf"), "b": 1.0})
    back = ComparisonReport.from_dict(json.loads(report.to_json()))
    assert back == report
    assert np.isinf(back.cells["d0"]["a"]["values"]["fratio"])


def test_write_report_files(tmp_path):
    jobs = [(small_synthetic(8), 3)]
    report = rank_methods(run_comparison(jobs, methods=["maxmin_linear", "macqueen2"], master_seed=11))
    written = write_report(report, tmp_path)
    names = {p.name for p in written}
    ds = jobs[0][0].name
    assert "report.json" in names
    assert f"{ds}_values.csv" in names and f"{ds}_values.md" in names
    assert f"{ds}_ranks.csv" in names and "average_ranks.md" in names

    avg_md = (tmp_path / "tables" / "average_ranks.md").read_text().splitlines()
    assert len(avg_md) == 2 + 2  # header + separator + one row per method
    assert avg_md[0].count("|") == len(CRITERIA) + 2  # method column + edges

    values_csv = (tmp_path / "tables" / f"{ds}_values.csv").read_text().splitlines()
    assert len(values_csv) == 1 + 2
    assert all(len(line.split(",")) == len(CRITERIA) + 1 for line in values_csv)

    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["schema"] == "fuzzseed/1"
    assert payload["meta"]["master_seed"] == 11


def test_load_manifest(tmp_path, ruspini_like):
    write_csv(ruspini_like, tmp_path / "rl.csv")
    manifest = [
        {"name": "rl", "expected_k": 4, "path": "rl.csv", "label_column": "label"},
        {
            "name": "blob",
            "expected_k": 3,
            "generator": {"kind": "gaussian_clusters", "k": 3, "size": 10, "sigma": 0.3, "dims": 2, "rng_seed": 1},
        },
        {"name": "broken", "expected_k": 2, "path": "missing.csv"},
        [1],
        {"name": 5, "expected_k": 2, "path": "rl.csv"},
    ]
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    jobs = load_manifest(tmp_path / "manifest.json")
    assert [j.name for j in jobs] == ["rl", "blob", "broken", "dataset_3", "dataset_4"]
    assert jobs[0].dataset.n == 75
    assert jobs[0].dataset.name == "rl"
    assert jobs[1].dataset.n == 30
    assert jobs[1].error is None
    assert jobs[2].error is not None and jobs[2].dataset is None
    assert "must be an object" in jobs[3].error and jobs[3].dataset is None
    assert "name must be a string" in jobs[4].error and jobs[4].dataset is None


def test_load_manifest_builds_each_table_once(monkeypatch):
    # naming a generated dataset adopts its arrays; Dataset's constructor,
    # which copies them, runs for no dataset of the demo manifest
    calls = []
    init = Dataset.__post_init__
    monkeypatch.setattr(Dataset, "__post_init__", lambda d: calls.append(d.name) or init(d))
    jobs = load_manifest(Path(__file__).resolve().parents[1] / "demo" / "manifest.json")
    assert len(jobs) == 5 and all(j.error is None for j in jobs)
    assert [j.dataset.name for j in jobs] == [j.name for j in jobs]
    assert calls == []


def test_load_manifest_non_string_path_is_errored_job(tmp_path):
    manifest = [
        {"name": "int_path", "expected_k": 2, "path": 5},
        {"name": "noised", "expected_k": 2,
         "generator": {"kind": "skewed_noise", "base": {"path": ["a.csv"]}}},
    ]
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    jobs = load_manifest(tmp_path / "manifest.json")
    assert [j.name for j in jobs] == ["int_path", "noised"]
    assert all("path must be a string" in j.error and j.dataset is None for j in jobs)


def test_load_manifest_non_string_label_column_is_errored_job(tmp_path):
    (tmp_path / "ok.csv").write_text("x,label\n0.0,1\n1.0,2\n")
    manifest = [
        {"name": "int_label", "expected_k": 2, "path": "ok.csv", "label_column": 5},
        {"name": "noised", "expected_k": 2,
         "generator": {"kind": "skewed_noise", "base": {"path": "ok.csv", "label_column": [1]}}},
    ]
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    jobs = load_manifest(tmp_path / "manifest.json")
    assert [j.name for j in jobs] == ["int_label", "noised"]
    assert all("label_column must be a string" in j.error and j.dataset is None for j in jobs)


def test_load_manifest_unreadable_csv_is_errored_job(tmp_path):
    (tmp_path / "ok.csv").write_text("a,b\n1,2\n3,4\n")
    (tmp_path / "long.csv").write_text("a,b\n1," + "1" * 200000 + "\n")
    (tmp_path / "bytes.csv").write_bytes(b"a,b\n1,2\n\xff\xfe,3\n")
    manifest = [
        {"name": "two_chars", "expected_k": 2, "path": "ok.csv", "delimiter": "ab"},
        {"name": "int_delimiter", "expected_k": 2, "path": "ok.csv", "delimiter": 5},
        {"name": "long_field", "expected_k": 2, "path": "long.csv"},
        {"name": "undecodable", "expected_k": 2, "path": "bytes.csv"},
        {"name": "ok", "expected_k": 2, "path": "ok.csv"},
    ]
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    jobs = load_manifest(tmp_path / "manifest.json")
    assert [j.error for j in jobs] == [
        "delimiter must be one character, got 'ab'",
        "delimiter must be one character, got 5",
        f"cannot read {tmp_path / 'long.csv'}: field larger than field limit (131072)",
        f"cannot read {tmp_path / 'bytes.csv'}: " + jobs[3].error.split(": ", 1)[1],
        None,
    ]
    assert "can't decode" in jobs[3].error


def test_full_grid_cell_count():
    # the full protocol scale: 22 datasets x 5 methods -> 110 cells
    jobs = [
        (gen_gaussian_clusters(
            GaussianSpec(k=2, size=3, sigma=0.3, dims=1, rng_seed=i, name=f"d{i}")
        ), 2)
        for i in range(22)
    ]
    report = run_comparison(jobs, methods=list(DEFAULT_BENCH_METHODS), master_seed=13)
    cells = sum(len(per_ds) for per_ds in report.cells.values())
    assert cells == 22 * 5 == 110


def test_run_comparison_input_validation(two_pairs):
    with pytest.raises(ValueError, match="unknown"):
        run_comparison([(two_pairs, 2)], methods=["pca_part"])
    with pytest.raises(ValueError, match="empty"):
        run_comparison([(two_pairs, 2)], methods=[])
    with pytest.raises(ValueError, match="empty: 0 datasets"):
        run_comparison([], methods=["maxmin_linear"])
    with pytest.raises(ValueError, match="unique"):
        run_comparison([(two_pairs, 2), (two_pairs, 2)], methods=["maxmin_linear"])
    # its ranks table would be average_ranks, which write_report writes next
    with pytest.raises(ValueError, match="'average' is taken"):
        run_comparison([BenchJob("average", 2, dataset=two_pairs)], methods=["maxmin_linear"])


def test_nan_criterion_value_makes_every_rank_nan():
    ranked = rank_methods(toy_report({"a": float("nan"), "b": 1.0, "c": 2.0}))
    for vector in ranked.ranks["d0"].values():
        assert all(math.isnan(r) for r in vector.values())


def test_write_report_json_only(tmp_path):
    report = rank_methods(run_comparison([(small_synthetic(8), 3)], methods=["maxmin_linear"],
                                         master_seed=11))
    assert write_report(report, tmp_path, formats=["json"]) == [tmp_path / "report.json"]
    assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["report.json"]


def test_write_report_json_only_makes_no_tables_dir(tmp_path):
    report = rank_methods(run_comparison([(small_synthetic(8), 3)], methods=["maxmin_linear"],
                                         master_seed=11))
    out = tmp_path / "new" / "out"
    write_report(report, out, formats=["json"])
    assert [p.name for p in out.iterdir()] == ["report.json"]


@pytest.mark.parametrize("text, message", [
    (None, "cannot read manifest"),
    ("[{", "cannot read manifest"),
    ('{"name": "a", "expected_k": 2}', "must be a JSON list"),
    pytest.param(b"\xff\xfe\x00bad", "cannot read manifest .*codec", id="undecodable"),
    pytest.param(b"[" * 200000, "cannot read manifest .*recursion", id="deep"),
])
def test_load_manifest_unreadable_or_not_a_list_is_data_error(tmp_path, text, message):
    path = tmp_path / "manifest.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    elif text is not None:
        path.write_text(text)
    with pytest.raises(DataError, match=message):
        load_manifest(path)


def test_load_manifest_entry_without_source_is_errored_job(tmp_path):
    (tmp_path / "manifest.json").write_text(json.dumps([{"name": "bare", "expected_k": 2}]))
    [job] = load_manifest(tmp_path / "manifest.json")
    assert job.dataset is None
    assert job.error == "manifest entry 'bare' has neither path nor generator"
