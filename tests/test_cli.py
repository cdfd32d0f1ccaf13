import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from fuzzseed import write_csv
from fuzzseed.cli import main
from fuzzseed.engine import sq_dists
from fuzzseed.seeding import STRATEGIES

from .conftest import make_ruspini_like


@pytest.fixture
def line5(tmp_path):
    path = tmp_path / "line5.csv"
    path.write_text("0\n1\n2\n3\n10\n")
    return path


@pytest.fixture
def ruspini_csv(tmp_path):
    path = tmp_path / "rl.csv"
    write_csv(make_ruspini_like(), path)
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_seed_maxmin_linear_deterministic(capsys, line5):
    args = ("seed", "--data", str(line5), "--k", "2", "--method", "maxmin_linear")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["method"] == "maxmin_linear"
    assert payload["rng_seed"] is None


def test_seed_macqueen2_echoes_drawn_seed(capsys, line5):
    code, out, err = run_cli(capsys, "seed", "--data", str(line5), "--k", "2",
                             "--method", "macqueen2")
    assert code == 0
    payload = json.loads(out)
    assert payload["rng_seed"] is not None
    assert f"seed={payload['rng_seed']}" in err


def test_seed_env_var_fallback(capsys, line5, monkeypatch):
    monkeypatch.setenv("FUZZSEED_SEED", "777")
    code, out, _ = run_cli(capsys, "seed", "--data", str(line5), "--k", "2",
                           "--method", "macqueen2")
    assert code == 0
    assert json.loads(out)["rng_seed"] == 777


def test_seed_k_exceeds_n(capsys, line5):
    code, _, err = run_cli(capsys, "seed", "--data", str(line5), "--k", "10",
                           "--method", "maxmin_linear")
    assert code == 2
    assert "exceeds" in err


def test_unknown_flag_is_usage_error(capsys, line5):
    code, _, _ = run_cli(capsys, "seed", "--data", str(line5), "--k", "2",
                         "--method", "maxmin_linear", "--verbose")
    assert code == 1


def test_unknown_method_is_usage_error(capsys, line5):
    code, _, _ = run_cli(capsys, "seed", "--data", str(line5), "--k", "2",
                         "--method", "pca_part")
    assert code == 1


def test_fit_two_pairs(capsys, tmp_path):
    data = tmp_path / "pairs.csv"
    data.write_text("0,0\n0,1\n10,0\n10,1\n")
    code, out, err = run_cli(capsys, "fit", "--data", str(data), "--k", "2",
                             "--method", "maxmin_linear")
    assert code == 0
    payload = json.loads(out)
    centroids = np.array(payload["centroids"])
    centroids = centroids[np.argsort(centroids[:, 0])]
    assert np.allclose(centroids, [[0.0, 0.5], [10.0, 0.5]], atol=1e-3)
    assert "iterations=" in err and "fw=" in err


def test_fit_rejects_bad_m_and_epsilon(capsys, line5):
    base = ("fit", "--data", str(line5), "--k", "2", "--method", "maxmin_linear")
    assert run_cli(capsys, *base, "--m", "1.0")[0] == 1
    assert run_cli(capsys, *base, "--epsilon", "0")[0] == 1


@pytest.fixture
def huge_csv(tmp_path):
    """Finite coordinates whose squared distances overflow float64."""
    path = tmp_path / "huge.csv"
    points = np.random.default_rng(0).normal(size=(30, 2)) * 1e200
    path.write_text("".join(f"{x!r},{y!r}\n" for x, y in points.tolist()))
    return path


def test_fit_overflowing_data_is_engine_error(capsys, huge_csv):
    for method in ("maxmin_linear", "kmeanspp"):
        code, out, err = run_cli(capsys, "fit", "--data", str(huge_csv), "--k", "3",
                                 "--method", method, "--seed", "1")
        assert code == 2, method
        assert out == ""
        assert "non-finite" in err and "overflow float64" in err


def test_overflowing_data_prints_no_numpy_warning(capsys, tmp_path, huge_csv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for method in STRATEGIES:
            code, out, err = run_cli(capsys, "fit", "--data", str(huge_csv), "--k", "3",
                                     "--method", method, "--seed", "1")
            assert (code, out) == (2, ""), method
            assert "non-finite" in err and "Warning" not in err
        manifest = json.loads(write_bench_manifest(tmp_path).read_text())
        manifest.append({"name": "huge", "expected_k": 3, "path": str(huge_csv)})
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        for jobs in ("1", "2"):
            code, out, err = run_cli(capsys, "bench", "--manifest", str(path), "--out",
                                     str(tmp_path / f"rep{jobs}"), "--seed", "3",
                                     "--jobs", jobs, "--methods", ",".join(STRATEGIES))
            assert code == 0 and json.loads(out)["warnings"] == len(STRATEGIES)
            assert "Warning" not in err
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("rows", ["1,1\n1,1\n1,1\n1,1\n", "0.1,0.7\n0.1,0.7\n0.1,0.7\n"])
def test_fit_identical_points_is_engine_error(capsys, tmp_path, rows):
    data = tmp_path / "same.csv"
    data.write_text(rows)
    for method in ("maxmin_linear", "faber"):
        code, out, err = run_cli(capsys, "fit", "--data", str(data), "--k", "2",
                                 "--method", method, "--seed", "1")
        assert (code, out) == (2, ""), method
        assert "points are identical" in err


def test_bench_identical_points_is_errored_cell(capsys, tmp_path):
    (tmp_path / "same.csv").write_text("1,1\n1,1\n1,1\n1,1\n")
    manifest = json.loads(write_bench_manifest(tmp_path).read_text())
    manifest.append({"name": "same", "expected_k": 2, "path": "same.csv"})
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    code, out, _ = run_cli(capsys, "bench", "--manifest", str(path), "--out",
                           str(tmp_path / "rep"), "--seed", "3",
                           "--methods", "maxmin_linear,kmeanspp_x10")
    assert code == 0 and json.loads(out)["warnings"] == 2
    report = json.loads((tmp_path / "rep" / "report.json").read_text())
    for cell in report["cells"]["same"].values():
        assert cell["values"] is None and "points are identical" in cell["error"]


def test_fit_label_outside_int64_range_is_data_error(capsys, tmp_path):
    data = tmp_path / "big.csv"
    data.write_text("x,label\n1.0,1e300\n2.0,1\n3,2\n")
    code, out, err = run_cli(capsys, "fit", "--data", str(data), "--label-column", "label",
                             "--k", "2", "--method", "maxmin_linear")
    assert (code, out) == (2, "")
    assert "out-of-range label '1e300' at line 2" in err


def test_fit_writes_result_and_membership(capsys, tmp_path, ruspini_csv):
    out_json = tmp_path / "fit.json"
    out_u = tmp_path / "u.csv"
    code, out, _ = run_cli(
        capsys, "fit", "--data", str(ruspini_csv), "--label-column", "label",
        "--k", "4", "--method", "maxmin_linear",
        "--out", str(out_json), "--membership-out", str(out_u),
    )
    assert code == 0
    assert out.startswith("iterations=")
    payload = json.loads(out_json.read_text())
    assert payload["k"] == 4 and payload["n"] == 75
    u_lines = out_u.read_text().splitlines()
    assert len(u_lines) == 76 and u_lines[0] == "u1,u2,u3,u4"


def test_validate_round_trip(capsys, tmp_path, ruspini_csv):
    out_json = tmp_path / "fit.json"
    out_u = tmp_path / "u.csv"
    run_cli(capsys, "fit", "--data", str(ruspini_csv), "--label-column", "label",
            "--k", "4", "--method", "maxmin_linear",
            "--out", str(out_json), "--membership-out", str(out_u))
    code, out, _ = run_cli(
        capsys, "validate", "--result", str(out_json), "--data", str(ruspini_csv),
        "--label-column", "label", "--membership", str(out_u),
    )
    assert code == 0
    scores = json.loads(out)
    fit = json.loads(out_json.read_text())
    assert scores["fratio"] == pytest.approx(fit["fb"] / fit["fw"], rel=1e-12)
    assert scores["tsfd"] == pytest.approx(fit["fb"] / fit["fi"], rel=1e-12)
    # enough precision to read 5+ significant digits
    assert len(f"{scores['tsfd']}".replace("0.", "")) >= 5


def test_validate_recomputes_membership_when_absent(capsys, tmp_path, ruspini_csv):
    out_json = tmp_path / "fit.json"
    run_cli(capsys, "fit", "--data", str(ruspini_csv), "--label-column", "label",
            "--k", "4", "--method", "maxmin_linear", "--out", str(out_json))
    code, out, err = run_cli(capsys, "validate", "--result", str(out_json),
                             "--data", str(ruspini_csv), "--label-column", "label")
    assert code == 0
    assert "recomputing" in err
    assert 0.0 <= json.loads(out)["tsfd"] <= 1.0


def test_validate_without_membership_scores_xb_on_result_fw(capsys, tmp_path, ruspini_csv):
    # XB, like FRatio, FCH, FS and TSFD, scores the FW the result file
    # reports, not one recomputed from the memberships.
    out_json = tmp_path / "fit.json"
    run_cli(capsys, "fit", "--data", str(ruspini_csv), "--label-column", "label",
            "--k", "4", "--method", "maxmin_linear", "--out", str(out_json))
    code, out, _ = run_cli(capsys, "validate", "--result", str(out_json),
                           "--data", str(ruspini_csv), "--label-column", "label")
    assert code == 0
    fit = json.loads(out_json.read_text())
    cd2 = sq_dists(np.array(fit["centroids"]), np.array(fit["centroids"]))
    np.fill_diagonal(cd2, np.inf)
    assert json.loads(out)["xb"] == fit["fw"] / (fit["n"] * float(cd2.min()))


def test_validate_mismatched_data(capsys, tmp_path, ruspini_csv, line5):
    out_json = tmp_path / "fit.json"
    run_cli(capsys, "fit", "--data", str(ruspini_csv), "--label-column", "label",
            "--k", "4", "--method", "maxmin_linear", "--out", str(out_json))
    code, _, err = run_cli(capsys, "validate", "--result", str(out_json),
                           "--data", str(line5))
    assert code == 2
    assert "does not match" in err


@pytest.mark.parametrize("bad", [{"centroids": [[0.0, 1.0], [2.0]]}, {"m": "abc"}])
def test_validate_malformed_result_is_data_error(capsys, tmp_path, ruspini_csv, bad):
    out_json = tmp_path / "fit.json"
    run_cli(capsys, "fit", "--data", str(ruspini_csv), "--label-column", "label",
            "--k", "4", "--method", "maxmin_linear", "--out", str(out_json))
    out_json.write_text(json.dumps({**json.loads(out_json.read_text()), **bad}))
    code, out, err = run_cli(capsys, "validate", "--result", str(out_json),
                             "--data", str(ruspini_csv), "--label-column", "label")
    assert (code, out) == (2, "")
    assert err.startswith(f"fuzzseed: cannot read result {out_json}: ")


def test_validate_non_numeric_membership_is_data_error(capsys, tmp_path, ruspini_csv):
    out_json = tmp_path / "fit.json"
    out_u = tmp_path / "u.csv"
    run_cli(capsys, "fit", "--data", str(ruspini_csv), "--label-column", "label",
            "--k", "4", "--method", "maxmin_linear",
            "--out", str(out_json), "--membership-out", str(out_u))
    lines = out_u.read_text().splitlines()
    lines[3] = "abc," + lines[3].split(",", 1)[1]
    out_u.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(
        capsys, "validate", "--result", str(out_json), "--data", str(ruspini_csv),
        "--label-column", "label", "--membership", str(out_u),
    )
    assert code == 2
    assert "'abc' at line 4, column 1" in err


def test_generate_shapes_and_determinism(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"kind": "gaussian_clusters", "k": 5, "size": 50, "sigma": 0.4, "dims": 3,
         "rng_seed": 3, "name": "e5o"}
    ))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    code, out, _ = run_cli(capsys, "generate", "--spec", str(spec), "--out", str(out1))
    assert code == 0
    summary = json.loads(out)
    assert summary["n"] == 250 and summary["p"] == 3 and summary["labels"] == 5
    assert len(out1.read_text().splitlines()) == 251
    run_cli(capsys, "generate", "--spec", str(spec), "--out", str(out2))
    assert out1.read_text() == out2.read_text()


def test_generate_rejects_bad_sigma(capsys, tmp_path):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps(
        {"kind": "gaussian_clusters", "k": 3, "size": 5, "sigma": -0.1, "dims": 2}
    ))
    code, _, err = run_cli(capsys, "generate", "--spec", str(spec), "--out",
                           str(tmp_path / "x.csv"))
    assert code == 1
    assert "sigma" in err


@pytest.mark.parametrize("field, value, message", [
    ("k", "3", "k must be an integer, got str"),
    ("dims", 2.5, "dims must be an integer, got float"),
])
def test_generate_rejects_wrong_field_type(capsys, tmp_path, field, value, message):
    spec = {"kind": "gaussian_clusters", "k": 3, "size": 5, "sigma": 0.3, "dims": 2}
    spec[field] = value
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "generate", "--spec", str(path), "--out",
                             str(tmp_path / "x.csv"))
    assert (code, out) == (1, "")
    assert err == f"fuzzseed: error: {message}\n"



def test_generate_rejects_a_non_string_name(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "gaussian_clusters", "k": 3, "size": 5, "sigma": 0.3,
                                "dims": 2, "name": [1]}))
    code, out, err = run_cli(capsys, "generate", "--spec", str(path), "--out",
                             str(tmp_path / "x.csv"))
    assert (code, out) == (1, "")
    assert err == "fuzzseed: error: name must be a string, got list\n"
    assert not (tmp_path / "x.csv").exists()

def write_bench_manifest(tmp_path, include_broken=False):
    entries = [
        {"name": f"blob{i}", "expected_k": 3,
         "generator": {"kind": "gaussian_clusters", "k": 3, "size": 15, "sigma": 0.3,
                       "dims": 2, "rng_seed": i}}
        for i in range(3)
    ]
    if include_broken:
        entries.append({"name": "broken", "expected_k": 2, "path": "missing.csv"})
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(entries))
    return path


def test_bench_end_to_end(capsys, tmp_path):
    manifest = write_bench_manifest(tmp_path)
    out_dir = tmp_path / "report"
    code, out, err = run_cli(capsys, "bench", "--manifest", str(manifest),
                             "--out", str(out_dir), "--seed", "11")
    assert code == 0
    summary = json.loads(out)
    assert summary["warnings"] == 0
    assert "master_seed=11" in err
    report = json.loads((out_dir / "report.json").read_text())
    assert len(report["datasets"]) == 3
    assert len(report["methods"]) == 5
    assert (out_dir / "tables" / "average_ranks.md").exists()


def test_bench_rerun_is_byte_identical(capsys, tmp_path):
    manifest = write_bench_manifest(tmp_path)
    outs = []
    for sub in ("r1", "r2"):
        run_cli(capsys, "bench", "--manifest", str(manifest),
                "--out", str(tmp_path / sub), "--seed", "5")
        outs.append((tmp_path / sub / "report.json").read_bytes())
    assert outs[0] == outs[1]


def test_bench_with_broken_dataset_warns_but_succeeds(capsys, tmp_path):
    manifest = write_bench_manifest(tmp_path, include_broken=True)
    code, out, err = run_cli(capsys, "bench", "--manifest", str(manifest),
                             "--out", str(tmp_path / "rep"), "--seed", "2",
                             "--methods", "maxmin_linear,macqueen2")
    assert code == 0
    assert json.loads(out)["warnings"] == 2  # one per method on the broken dataset
    assert "broken" in err


def test_bench_overflowing_dataset_is_errored_cell(capsys, tmp_path, huge_csv):
    manifest = json.loads(write_bench_manifest(tmp_path).read_text())
    manifest.append({"name": "huge", "expected_k": 3, "path": str(huge_csv)})
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    methods = ["maxmin_linear", "macqueen2", "kmeanspp", "kmeanspp_x10"]
    code, out, _ = run_cli(capsys, "bench", "--manifest", str(path), "--out",
                           str(tmp_path / "rep"), "--seed", "3",
                           "--methods", ",".join(methods))
    assert code == 0
    assert json.loads(out)["warnings"] == 4

    def reject(constant):
        raise ValueError(f"bare {constant} in report.json")

    report = json.loads((tmp_path / "rep" / "report.json").read_text(),
                        parse_constant=reject)
    for cell in report["cells"]["huge"].values():
        assert cell["values"] is None and "non-finite" in cell["error"]
    assert report["ranks"]["huge"]["fw"] == {m: 2.5 for m in methods}


@pytest.mark.parametrize("entry, message", [
    ({"generator": {"k": "3"}}, "k must be an integer, got str"),
    ({"generator": {"dims": 2.5}}, "dims must be an integer, got float"),
    ({"generator": {"rng_seed": "z"}}, "rng_seed must be an integer, got str"),
    ({"expected_k": [2]}, "expected_k must be an integer, got list"),
])
def test_bench_wrong_field_type_is_errored_job(capsys, tmp_path, entry, message):
    generator = {"kind": "gaussian_clusters", "k": 2, "size": 6, "sigma": 0.3, "dims": 2,
                 "rng_seed": 9, **entry.get("generator", {})}
    bad = {"name": "bad", "expected_k": entry.get("expected_k", 2), "generator": generator}
    manifest = json.loads(write_bench_manifest(tmp_path).read_text()) + [bad]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    code, out, err = run_cli(capsys, "bench", "--manifest", str(path), "--out",
                             str(tmp_path / "rep"), "--seed", "3",
                             "--methods", "maxmin_linear,macqueen2")
    assert code == 0 and json.loads(out)["warnings"] == 2
    assert f"warning: bad/maxmin_linear: {message}" in err
    report = json.loads((tmp_path / "rep" / "report.json").read_text())
    assert all(cell["error"] is None for cell in report["cells"]["blob0"].values())



def test_bench_non_string_generator_name_is_errored_job(capsys, tmp_path):
    bad = {"name": "bad", "expected_k": 2,
           "generator": {"kind": "gaussian_clusters", "k": 2, "size": 6, "sigma": 0.3,
                         "dims": 2, "rng_seed": 9, "name": [1]}}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(json.loads(write_bench_manifest(tmp_path).read_text()) + [bad]))
    code, out, err = run_cli(capsys, "bench", "--manifest", str(path), "--out",
                             str(tmp_path / "rep"), "--seed", "3", "--methods", "maxmin_linear")
    assert code == 0 and json.loads(out)["warnings"] == 1
    assert "warning: bad/maxmin_linear: name must be a string, got list" in err

def test_bench_rejects_unknown_method(capsys, tmp_path):
    manifest = write_bench_manifest(tmp_path)
    code, _, _ = run_cli(capsys, "bench", "--manifest", str(manifest),
                         "--out", str(tmp_path / "rep"), "--seed", "2",
                         "--methods", "maxmin_linear,pca_part")
    assert code == 1


def test_bench_formats(capsys, tmp_path):
    manifest = write_bench_manifest(tmp_path)
    base = ("bench", "--manifest", str(manifest), "--seed", "2", "--methods", "maxmin_linear")

    code, out, err = run_cli(capsys, *base, "--out", str(tmp_path / "xml"), "--formats", "xml")
    assert code == 1
    assert "xml" in err and out == ""
    assert not (tmp_path / "xml").exists()  # rejected before the grid runs

    code, out, _ = run_cli(capsys, *base, "--out", str(tmp_path / "csv"), "--formats", "csv")
    assert code == 0
    summary = json.loads(out)
    assert summary["report"] is None
    assert not (tmp_path / "csv" / "report.json").exists()
    assert summary["files"] and all(name.endswith(".csv") for name in summary["files"])

    code, out, _ = run_cli(capsys, *base, "--out", str(tmp_path / "md"),
                           "--formats", "json,markdown")
    assert code == 0
    summary = json.loads(out)
    assert summary["report"] == str(tmp_path / "md" / "report.json")
    assert {Path(name).suffix for name in summary["files"]} == {".json", ".md"}
