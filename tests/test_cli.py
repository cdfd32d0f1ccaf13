import contextlib
import io
import json
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuzzseed import FcmResult, cli, write_csv
from fuzzseed.cli import main
from fuzzseed.engine import sq_dists
from fuzzseed.seeding import STRATEGIES
from fuzzseed.synth import dataset_from_spec

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
    assert run_cli(capsys, *base, "--m", "inf")[0] == 1
    assert run_cli(capsys, *base, "--epsilon", "inf")[0] == 1


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


@pytest.mark.parametrize("method", STRATEGIES)
def test_k_below_two_is_usage_error_for_fit(capsys, line5, method):
    base = ("--data", str(line5), "--k", "1", "--method", method, "--seed", "1")
    code, out, err = run_cli(capsys, "fit", *base)
    assert (code, out) == (1, "")
    assert "k must be >= 2, got 1" in err
    # seeding alone draws one seed, except where the strategy runs FCM or needs a pair
    code, out, err = run_cli(capsys, "seed", *base)
    if method in ("macqueen1", "macqueen2", "kmeanspp"):
        assert code == 0 and json.loads(out)["k"] == 1
    else:
        assert (code, out) == (1, "")
        assert "k must be >= 2, got 1" in err


@pytest.mark.parametrize("rows", ["1,1\n1,1\n1,1\n1,1\n", "0.1,0.7\n0.1,0.7\n0.1,0.7\n"])
def test_fit_identical_points_is_engine_error(capsys, tmp_path, rows):
    data = tmp_path / "same.csv"
    data.write_text(rows)
    for method in ("maxmin_linear", "faber"):
        code, out, err = run_cli(capsys, "fit", "--data", str(data), "--k", "2",
                                 "--method", method, "--seed", "1")
        assert (code, out) == (2, ""), method
        assert "points are identical" in err


def test_fit_underflowing_membership_is_engine_error(capsys, line5):
    # u**m of every non-crisp membership is 0 at m=1e6: FW would leave those points out
    code, out, err = run_cli(capsys, "fit", "--data", str(line5), "--k", "2",
                             "--method", "maxmin_linear", "--m", "1e6")
    assert (code, out) == (2, "")
    assert "u**m underflows to 0" in err


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


def test_bench_underflowing_membership_is_errored_cell(capsys, tmp_path):
    path = write_bench_manifest(tmp_path)
    code, out, _ = run_cli(capsys, "bench", "--manifest", str(path), "--out",
                           str(tmp_path / "rep"), "--seed", "3", "--m", "1e6",
                           "--methods", "maxmin_linear")
    assert code == 0 and json.loads(out)["warnings"] == 3
    report = json.loads((tmp_path / "rep" / "report.json").read_text())
    for cells in report["cells"].values():
        cell = cells["maxmin_linear"]
        assert cell["values"] is None and "u**m underflows to 0" in cell["error"]


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


@pytest.mark.parametrize("case", ["out", "stdout", "unwritable_out"])
def test_fit_unwritable_membership_prints_no_result(capsys, tmp_path, ruspini_csv, case):
    # either output path unwritable: exit 2 with nothing on stdout and no
    # output file left behind
    out_json = tmp_path / ("missing" if case == "unwritable_out" else "") / "fit.json"
    out_u = tmp_path / ("" if case == "unwritable_out" else "missing") / "u.csv"
    dest = () if case == "stdout" else ("--out", str(out_json))
    code, out, err = run_cli(
        capsys, "fit", "--data", str(ruspini_csv), "--label-column", "label",
        "--k", "4", "--method", "maxmin_linear", *dest, "--membership-out", str(out_u),
    )
    assert (code, out) == (2, "")
    unwritable = out_json if case == "unwritable_out" else out_u
    assert err.startswith(f"fuzzseed: cannot write {unwritable}: ")
    assert not out_json.exists() and not out_u.exists()


def test_fit_membership_out_peak_memory_does_not_grow_with_n(tmp_path, monkeypatch, line5):
    # traced from the end of the fit on, so the peak is the writing of an
    # (n, 4) membership CSV, which converts one chunk of rows at a time;
    # 64-row chunks and 64, 1250, 5000 rows keep the ratios of 1024-row
    # chunks and 1024, 20000, 80000 rows
    monkeypatch.setattr("fuzzseed.data._CHUNK_ROWS", 64)
    rng = np.random.default_rng(5)
    peaks = {}
    for n in (64, 1250, 5000):
        result = FcmResult(centroids=np.zeros((4, 1)), membership=rng.dirichlet(np.ones(4), n),
                           iterations=1, objective_trace=[2.0], fw=2.0, fb=1.0, fi=3.0)

        def fit_method(*args, **kwargs):
            tracemalloc.start()
            return SimpleNamespace(rng_seed=None), result

        monkeypatch.setattr(cli, "fit_method", fit_method)
        try:
            code = main(["fit", "--data", str(line5), "--k", "4", "--method", "maxmin_linear",
                         "--out", str(tmp_path / "fit.json"),
                         "--membership-out", str(tmp_path / "u.csv")])
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert (tmp_path / "u.csv").read_text().count("\n") == n + 1
    assert abs(peaks[5000] - peaks[1250]) <= peaks[64]


def test_unreadable_csv_exits_2_and_bad_delimiter_exits_1(capsys, tmp_path, line5):
    seed = ("seed", "--k", "2", "--method", "maxmin_linear", "--data")
    long_field = tmp_path / "long.csv"
    long_field.write_text("a,b\n1," + "1" * 200000 + "\n")
    undecodable = tmp_path / "bytes.csv"
    undecodable.write_bytes(b"a,b\n1,2\n\xff\xfe,3\n")
    for path in (long_field, undecodable):
        code, out, err = run_cli(capsys, *seed, str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"fuzzseed: cannot read {path}: ")
    code, out, err = run_cli(capsys, *seed, str(line5), "--delimiter", "ab")
    assert (code, out) == (1, "")
    assert err == "fuzzseed: error: delimiter must be one character, got 'ab'\n"


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


@pytest.mark.parametrize("bad", [{"centroids": [[0.0, 1.0], [2.0]]}, {"m": "abc"}, {"m": 0.5},
                                 {"m": float("nan")}, {"m": float("inf")},
                                 {"fw": float("nan")}, {"centroids": [[float("nan"), 1.0], [0.0, 1.0]]},
                                 {"n": None}, {"n": "abc"}, {"n": 75.5}, {"n": True},
                                 {"fi": -1}, {"fb": -5}, {"fb": float("inf")},
                                 {"centroids": [[0.0, 1.0]]}, {"fw": -5.0}, {"fb": 0.0},
                                 {"fw": 0.0, "fb": 0.0, "fi": 0.0}, {"m": "2"},
                                 {"centroids": [["0", "1"], ["2", "3"]]},
                                 {"centroids": [[True, 1.0], [0.0, 1.0]]}])
def test_validate_malformed_result_is_data_error(capsys, tmp_path, ruspini_csv, bad):
    out_json = tmp_path / "fit.json"
    run_cli(capsys, "fit", "--data", str(ruspini_csv), "--label-column", "label",
            "--k", "4", "--method", "maxmin_linear", "--out", str(out_json))
    out_json.write_text(json.dumps({**json.loads(out_json.read_text()), **bad}))
    code, out, err = run_cli(capsys, "validate", "--result", str(out_json),
                             "--data", str(ruspini_csv), "--label-column", "label")
    assert (code, out) == (2, "")
    assert err.startswith(f"fuzzseed: cannot read result {out_json}: ")


@pytest.mark.parametrize("text", [b"\xff\xfe\x00bad", b"[" * 200000], ids=["undecodable", "deep"])
def test_validate_unreadable_result_is_data_error(capsys, tmp_path, ruspini_csv, text):
    result = tmp_path / "fit.json"
    result.write_bytes(text)
    code, out, err = run_cli(capsys, "validate", "--result", str(result),
                             "--data", str(ruspini_csv), "--label-column", "label")
    assert (code, out) == (2, "")
    assert err.startswith(f"fuzzseed: cannot read result {result}: ")


def test_validate_overflowing_centroid_is_engine_error(capsys, tmp_path, ruspini_csv):
    out_json = tmp_path / "fit.json"
    out_u = tmp_path / "u.csv"
    run_cli(capsys, "fit", "--data", str(ruspini_csv), "--label-column", "label",
            "--k", "4", "--method", "maxmin_linear",
            "--out", str(out_json), "--membership-out", str(out_u))
    payload = json.loads(out_json.read_text())
    payload["centroids"][0] = [1e200, 0.0]
    out_json.write_text(json.dumps(payload))
    base = ("validate", "--result", str(out_json), "--data", str(ruspini_csv),
            "--label-column", "label")
    for membership in ((), ("--membership", str(out_u))):
        code, out, err = run_cli(capsys, *base, *membership)
        assert (code, out) == (2, ""), membership
        assert "non-finite" in err and "overflow float64" in err and "Warning" not in err


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


@pytest.mark.parametrize("header", [True, False], ids=["header", "no_header"])
@pytest.mark.parametrize("patch, problem", [
    pytest.param(lambda v: "-5", "a value outside [0, 1]", id="negative"),
    pytest.param(lambda v: "1e200", "a value outside [0, 1]", id="huge"),
    pytest.param(lambda v: repr(v / 2), "a sum of 0.", id="halved"),
])
def test_validate_invalid_membership_is_data_error(capsys, tmp_path, fitted_ruspini, header,
                                                   patch, problem):
    # one cell of a `fit --membership-out` CSV patched: the largest of row 5
    data, result, membership = fitted_ruspini
    lines = membership.read_text().splitlines()[0 if header else 1:]
    row = [float(v) for v in lines[4 + header].split(",")]
    top = int(np.argmax(row))
    lines[4 + header] = ",".join(patch(v) if j == top else repr(v) for j, v in enumerate(row))
    patched = tmp_path / "u.csv"
    patched.write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, "validate", "--result", str(result), "--data",
                                 str(data), "--label-column", "label", "--membership",
                                 str(patched))
    assert (code, out) == (2, "")
    assert err.startswith(
        f"fuzzseed: {patched}: membership row at line {5 + header} has {problem}"
    )


@pytest.fixture(scope="module")
def fitted_ruspini(tmp_path_factory):
    """A ruspini_like CSV with its maxmin_linear fit and membership files."""
    root = tmp_path_factory.mktemp("fitted")
    data, result, membership = root / "rl.csv", root / "fit.json", root / "u.csv"
    write_csv(make_ruspini_like(), data)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["fit", "--data", str(data), "--label-column", "label", "--k", "4",
                     "--method", "maxmin_linear", "--out", str(result),
                     "--membership-out", str(membership)]) == 0
    return data, result, membership


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


_JSON_VALUES = st.one_of(st.none(), st.booleans(), st.text(max_size=8), st.integers(),
                         st.floats())


@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from(("centroids", "m", "fw", "fb", "fi", "n")),
       value=_JSON_VALUES,
       centroid_edit=st.one_of(st.none(), st.just("ragged"), st.floats(allow_nan=False)))
def test_validate_any_result_value_exits_0_or_2(fitted_ruspini, field, value, centroid_edit):
    data, result, membership = fitted_ruspini
    payload = json.loads(result.read_text())
    if field == "centroids" and centroid_edit == "ragged":
        value = [row[:1] if i == 0 else row for i, row in enumerate(payload["centroids"])]
    elif field == "centroids" and centroid_edit is not None:
        value = [[v * centroid_edit for v in row] for row in payload["centroids"]]
    payload[field] = value
    patched = result.with_name("patched.json")
    patched.write_text(json.dumps(payload))
    for extra in ((), ("--membership", str(membership))):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["validate", "--result", str(patched), "--data", str(data),
                         "--label-column", "label", *extra])
        assert code in (0, 2), err.getvalue()
        if code == 0:
            json.loads(out.getvalue(), parse_constant=_reject_constant)
        else:
            assert out.getvalue() == ""


# Any document for the three commands that read JSON: raw bytes, "[" nested
# deeper or shallower than the parser allows, or JSON whose strings (keys
# too) have at most 6 characters, too few to name a generator kind or a
# manifest's "expected_k", so no entry can ask for a large dataset.
_JSON_DOCUMENTS = st.one_of(
    st.binary(max_size=40),
    st.integers(1, 5000).map(lambda depth: b"[" * depth),
    st.integers(1, 5000).map(lambda depth: b"[" * depth + b"]" * depth),
    st.recursive(st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                           st.text(max_size=6)),
                 lambda inner: st.one_of(st.lists(inner, max_size=4),
                                         st.dictionaries(st.text(max_size=6), inner, max_size=4)),
                 max_leaves=12).map(lambda value: json.dumps(value).encode()),
)


@settings(max_examples=150, deadline=None)
@given(document=_JSON_DOCUMENTS)
@example(document=b"[]")
@example(document=b"[" * 200000)
@example(document=b'{"kind": "gaussian_clusters", "k": 2, "size": 3, "sigma": 1%s, "dims": 1}'
         % (b"0" * 400))
def test_any_json_document_exits_0_1_or_2(fitted_ruspini, document):
    data = fitted_ruspini[0]
    doc, report = data.with_name("doc.json"), data.with_name("rep")
    csv_out = data.with_name("gen.csv")
    doc.write_bytes(document)
    for argv in (["generate", "--spec", str(doc), "--out", str(csv_out)],
                 ["bench", "--manifest", str(doc), "--out", str(report), "--seed", "1"],
                 ["validate", "--result", str(doc), "--data", str(data)]):
        report.joinpath("report.json").unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv)
        assert code in (0, 1, 2), err.getvalue()
        if code == 0:
            json.loads(out.getvalue(), parse_constant=_reject_constant)
            if argv[0] == "bench":
                json.loads(report.joinpath("report.json").read_text(),
                           parse_constant=_reject_constant)
        else:
            assert out.getvalue() == ""


def test_bench_empty_manifest_is_usage_error(capsys, tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text("[]")
    code, out, err = run_cli(capsys, "bench", "--manifest", str(manifest), "--out",
                             str(tmp_path / "rep"), "--seed", "2")
    assert (code, out) == (1, "")
    assert "the grid is empty: 0 datasets x 5 methods" in err
    assert not (tmp_path / "rep").exists()


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


# a 401-digit integer: a valid JSON number, but beyond float64's range
@pytest.mark.parametrize("spec, name", [
    ({"kind": "gaussian_clusters", "k": 3, "size": 5, "sigma": 10**400, "dims": 2}, "sigma"),
    ({"kind": "skewed_noise", "spread_multiplier": 10**400,
      "base": {"kind": "gaussian_clusters", "k": 3, "size": 5, "sigma": 0.3, "dims": 2}},
     "spread_multiplier"),
])
def test_generate_rejects_a_number_beyond_float64(capsys, tmp_path, spec, name):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "generate", "--spec", str(path), "--out",
                             str(tmp_path / "x.csv"))
    assert (code, out) == (1, "")
    assert err == f"fuzzseed: error: {name} must be finite, got an integer too large for float64\n"
    assert not (tmp_path / "x.csv").exists()


def test_generate_rejects_a_non_string_name(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "gaussian_clusters", "k": 3, "size": 5, "sigma": 0.3,
                                "dims": 2, "name": [1]}))
    code, out, err = run_cli(capsys, "generate", "--spec", str(path), "--out",
                             str(tmp_path / "x.csv"))
    assert (code, out) == (1, "")
    assert err == "fuzzseed: error: name must be a string, got list\n"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("base, message", [
    ({"path": 5}, "path must be a string, got int"),
    ({"path": "base.csv", "label_column": 5}, "label_column must be a string, got int"),
])
def test_generate_rejects_a_wrong_typed_base_source(capsys, tmp_path, base, message):
    (tmp_path / "base.csv").write_text("x,label\n0.0,1\n1.0,2\n")
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "skewed_noise", "base": base}))
    code, out, err = run_cli(capsys, "generate", "--spec", str(path), "--out",
                             str(tmp_path / "x.csv"))
    assert (code, out) == (1, "")
    assert err == f"fuzzseed: error: {message}\n"
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
    ({"generator": {"sigma": 10**400}},
     "sigma must be finite, got an integer too large for float64"),
    ({"path": "bad.csv", "delimiter": "\n"},
     "delimiter must be one character other than a line end, got '\\n'"),
])
def test_bench_wrong_field_type_is_errored_job(capsys, tmp_path, entry, message):
    generator = {"kind": "gaussian_clusters", "k": 2, "size": 6, "sigma": 0.3, "dims": 2,
                 "rng_seed": 9, **entry.get("generator", {})}
    bad = {"name": "bad", "expected_k": 2, **entry, "generator": generator}  # a path goes first
    (tmp_path / "bad.csv").write_text("x,y\n1,2\n3,4\n")
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
    assert all(cell["error"] == message for cell in report["cells"]["bad"].values())



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
    for jobs in ("0", "-3"):
        code, out, err = run_cli(capsys, "bench", "--manifest", str(manifest),
                                 "--out", str(tmp_path / "rep"), "--seed", "2",
                                 "--methods", "maxmin_linear", "--jobs", jobs)
        assert code == 1 and out == ""
        assert f"--jobs must be >= 1, got {jobs}" in err
    assert not (tmp_path / "rep").exists()


def test_bench_dataset_names_sharing_a_table_name_exit_1(capsys, tmp_path):
    # "a b" and "a_b" would both write tables/a_b_values.csv
    spec = {"kind": "gaussian_clusters", "k": 2, "size": 6, "sigma": 0.3, "dims": 2, "rng_seed": 9}
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([{"name": name, "expected_k": 2, "generator": spec}
                                    for name in ("a b", "a_b")]))
    code, out, err = run_cli(capsys, "bench", "--manifest", str(manifest), "--out",
                             str(tmp_path / "rep"), "--seed", "2", "--methods", "maxmin_linear")
    assert (code, out) == (1, "")
    assert "dataset names must be unique as table names, got ['a_b', 'a_b']" in err
    assert not (tmp_path / "rep").exists()


def test_bench_unwritable_out_is_data_error(capsys, tmp_path):
    manifest = write_bench_manifest(tmp_path)
    out_dir = manifest / "report"  # under a file
    code, out, err = run_cli(capsys, "bench", "--manifest", str(manifest), "--out", str(out_dir),
                             "--seed", "2", "--methods", "maxmin_linear")
    assert (code, out) == (2, "")
    assert f"fuzzseed: cannot write {out_dir}: " in err


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


def test_fit_echoes_drawn_seed(capsys, line5):
    code, out, err = run_cli(capsys, "fit", "--data", str(line5), "--k", "2",
                             "--method", "kmeanspp")
    assert code == 0
    seed = json.loads(out)["rng_seed"]
    assert seed is not None and f"seed={seed}\n" in err


@pytest.mark.parametrize("text", [None, b"{not json", b"\xff\xfe\x00bad", b"[" * 200000],
                         ids=["missing", "not_json", "undecodable", "deep"])
def test_generate_unreadable_spec_is_data_error(capsys, tmp_path, text):
    spec = tmp_path / "spec.json"
    if text is not None:
        spec.write_bytes(text)
    code, out, err = run_cli(capsys, "generate", "--spec", str(spec), "--out",
                             str(tmp_path / "x.csv"))
    assert (code, out) == (2, "")
    assert err.startswith(f"fuzzseed: cannot read spec {spec}: ")


def test_validate_membership_of_wrong_shape_is_data_error(capsys, tmp_path, fitted_ruspini):
    data, result, membership = fitted_ruspini
    narrow = tmp_path / "u.csv"
    narrow.write_text("".join(line.rsplit(",", 1)[0] + "\n"
                              for line in membership.read_text().splitlines()))
    code, out, err = run_cli(capsys, "validate", "--result", str(result), "--data", str(data),
                             "--label-column", "label", "--membership", str(narrow))
    assert (code, out) == (2, "")
    assert err == (f"fuzzseed: {narrow}: membership shape (75, 3) does not match "
                   "(n=75, k=4)\n")


# The 150x2 three-cluster data whose squared distances overflow float64 at
# scales near 1e153 and underflow it near 1e-160.
_THREE_CLUSTERS = {"kind": "gaussian_clusters", "k": 3, "size": 50, "sigma": 0.3, "dims": 2,
                   "rng_seed": 7}


@pytest.fixture(scope="module")
def scaled_clusters(tmp_path_factory):
    """A function of s that writes the three-cluster data times 1e{s} as a
    CSV and returns its path."""
    root = tmp_path_factory.mktemp("scaled")
    points = dataset_from_spec(_THREE_CLUSTERS).points

    def write(s: int) -> Path:
        path = root / f"s{s}.csv"
        rows = (points * float(f"1e{s}")).tolist()
        path.write_text("".join(f"{x!r},{y!r}\n" for x, y in rows))
        return path

    return write


def test_fit_overflowing_inertia_is_engine_error(capsys, scaled_clusters):
    # FW and the centroids stay finite at 1e153; FI = FW + FB does not
    code, out, err = run_cli(capsys, "fit", "--data", str(scaled_clusters(153)), "--k", "3",
                             "--method", "maxmin_linear")
    assert (code, out) == (2, "")
    assert "non-finite FB or FI" in err and "overflow float64" in err


@pytest.mark.parametrize("s, expected", [(-150, 0), (-155, 0), (-160, 2), (-165, 2)])
def test_fit_underflowing_inertia_split_is_engine_error(capsys, scaled_clusters, s, expected):
    # at 1e-160 FI = FW + FB holds only to 7.6e-5, at 1e-165 FW = FB = FI = 0
    code, out, err = run_cli(capsys, "fit", "--data", str(scaled_clusters(s)), "--k", "3",
                             "--method", "maxmin_linear")
    assert code == expected, err
    if expected == 2:
        assert out == ""
        assert "FI = FW + FB fails" in err and "rescale the data" in err


def test_bench_overflowing_inertia_is_errored_cell(capsys, tmp_path, scaled_clusters):
    # two tight clusters at +-1e153: FB and FI both overflow, so TSFD would be NaN
    rng = np.random.default_rng(0)
    tight = np.vstack([rng.normal(size=(200, 2)) * 1e150 + 1e153,
                       rng.normal(size=(200, 2)) * 1e150 - 1e153])
    (tmp_path / "tight.csv").write_text("".join(f"{x!r},{y!r}\n" for x, y in tight.tolist()))
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps([
        {"name": "scaled", "expected_k": 3, "path": str(scaled_clusters(153))},
        {"name": "tight", "expected_k": 2, "path": "tight.csv"},
    ]))
    code, out, _ = run_cli(capsys, "bench", "--manifest", str(path), "--out",
                           str(tmp_path / "rep"), "--seed", "3",
                           "--methods", "maxmin_linear,kmeanspp")
    assert code == 0 and json.loads(out)["warnings"] == 4
    report = json.loads((tmp_path / "rep" / "report.json").read_text(),
                        parse_constant=_reject_constant)
    for cells in report["cells"].values():
        for cell in cells.values():
            assert cell["values"] is None and "non-finite" in cell["error"]


def _quiet_main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(s=st.integers(-170, 170), method=st.sampled_from(("maxmin_linear", "kmeanspp")))
@example(s=-165, method="maxmin_linear")
@example(s=-160, method="maxmin_linear")
@example(s=153, method="maxmin_linear")
def test_fit_then_validate_at_any_scale(scaled_clusters, s, method):
    # a fit either fails (exit 2, nothing on stdout) or writes strict JSON
    # that its own validate accepts
    data = scaled_clusters(s)
    code, out, err = _quiet_main("fit", "--data", str(data), "--k", "3", "--method", method,
                                 "--seed", "1")
    assert code in (0, 2), err
    if code == 2:
        assert out == ""
        return
    json.loads(out, parse_constant=_reject_constant)
    result = data.with_name(f"{data.stem}_{method}.json")
    result.write_text(out)
    code, _, err = _quiet_main("validate", "--result", str(result), "--data", str(data))
    assert code == 0, err
