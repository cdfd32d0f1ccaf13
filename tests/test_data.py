import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzseed import DataError, Dataset, grand_mean, load_csv, standardize, write_csv

from .helpers import reference_load_csv


def test_load_csv_basic(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("0,0\n1,0\n0,1\n")
    ds = load_csv(f)
    assert (ds.n, ds.p) == (3, 2)
    assert ds.labels is None
    assert np.array_equal(ds.points, [[0, 0], [1, 0], [0, 1]])
    assert ds.name == "t"


def test_load_csv_header_and_labels(tmp_path):
    f = tmp_path / "labeled.csv"
    f.write_text("a,b,label\n1.5,2,1\n3,4,2\n")
    ds = load_csv(f, label_column="label")
    assert (ds.n, ds.p) == (2, 2)
    assert list(ds.labels) == [1, 2]
    assert ds.points[0, 0] == 1.5


def test_load_csv_row_order_preserved(tmp_path):
    f = tmp_path / "o.csv"
    f.write_text("5\n1\n9\n")
    assert list(load_csv(f).points[:, 0]) == [5, 1, 9]


def test_load_csv_non_numeric_cell_names_location(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("0,0\nabc,1\n2,2\n")
    with pytest.raises(DataError, match=r"line 2.*column 1"):
        load_csv(f)


def test_load_csv_ragged_row(tmp_path):
    f = tmp_path / "ragged.csv"
    f.write_text("1,2\n3\n")
    with pytest.raises(DataError, match="line 2"):
        load_csv(f)


def test_load_csv_missing_label_column(tmp_path):
    f = tmp_path / "nolabel.csv"
    f.write_text("a,b\n1,2\n")
    with pytest.raises(DataError, match="cls"):
        load_csv(f, label_column="cls")


def test_load_csv_label_column_without_header(tmp_path):
    f = tmp_path / "raw.csv"
    f.write_text("1,2\n3,4\n")
    with pytest.raises(DataError, match="label"):
        load_csv(f, label_column="label")


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        load_csv(tmp_path / "absent.csv")


def test_load_csv_rejects_missing_values(tmp_path):
    f = tmp_path / "gap.csv"
    f.write_text("1,2\n,3\n")
    with pytest.raises(DataError, match="line 2"):
        load_csv(f)


def test_load_csv_rejects_inf(tmp_path):
    f = tmp_path / "inf.csv"
    f.write_text("1,2\ninf,3\n")
    with pytest.raises(DataError, match="line 2"):
        load_csv(f)


def test_load_csv_label_outside_int64_range(tmp_path):
    f = tmp_path / "big.csv"
    f.write_text("x,label\n1.0,1e300\n2.0,1\n3,2\n")
    with pytest.raises(DataError, match=r"out-of-range label '1e300' at line 2"):
        load_csv(f, label_column="label")
    f.write_text("x,label\n1.0,1\n2.0,-9223372036854775808\n")
    with pytest.raises(DataError, match="line 3"):
        load_csv(f, label_column="label")
    f.write_text("x,label\n1.0,9223372036854774784\n2.0,-3\n")
    assert list(load_csv(f, label_column="label").labels) == [2**63 - 1024, -3]



def test_dataset_label_outside_int64_range_is_data_error():
    with pytest.raises(DataError, match=r"out-of-range label 1180591620717411303424 at row 1"):
        Dataset(points=[[1.0], [2.0]], labels=[2**70, 1])
    with pytest.raises(DataError, match=r"out-of-range label -9223372036854775809 at row 2"):
        Dataset(points=[[1.0], [2.0]], labels=[0, -(2**63) - 1])
    assert list(Dataset(points=[[1.0], [2.0]], labels=[2**63 - 1, -(2**63)]).labels) == [
        2**63 - 1, -(2**63)]

def test_load_csv_names_the_first_defect_of_a_row(tmp_path):
    f = tmp_path / "two.csv"
    f.write_text("a,label,b\n1,2,3\nabc,0.5,1\n")
    with pytest.raises(DataError, match=r"non-numeric cell 'abc' at line 3, column 1"):
        load_csv(f, label_column="label")
    f.write_text("a,label,b\n1,2,3\n1,0.5,abc\n")
    with pytest.raises(DataError, match=r"non-integer label '0.5' at line 3"):
        load_csv(f, label_column="label")
    f.write_text("a,label,b\n1,0.5,3\n1,2,abc\n")
    with pytest.raises(DataError, match=r"non-integer label '0.5' at line 2"):
        load_csv(f, label_column="label")


def test_load_csv_accepts_the_spellings_float_accepts(tmp_path):
    f = tmp_path / "spell.csv"
    f.write_text("1_0, 3 ,\u0661\u0662\n\xa05\xa0,\x1c6,-0\n")
    ds = load_csv(f)
    assert ds.points.tolist() == [[10.0, 3.0, 12.0], [5.0, 6.0, 0.0]]
    assert np.signbit(ds.points[1, 2])


# Cells a CSV may hold: numbers in several spellings, and the near misses.
ODD_CELLS = ["", " ", "abc", "inf", "-Infinity", "nan", "1e400", "1_0", "1__0", "_1",
             "\u0661\u0662", " 3 ", "\xa05\xa0", "\x1c3", "0x10", "-0", "+.5"]
LABEL_CELLS = ["0.5", "1e300", "-1e300", "1e19", str(2**63), str(-(2**63)), "4.0", " 7 ",
               "9223372036854774784"]


@st.composite
def csv_text(draw):
    width = draw(st.integers(1, 4))
    label_col = draw(st.integers(0, width))  # width: no label column
    number = st.one_of(
        st.integers(-10, 10).map(str),
        st.builds(lambda x, fmt: fmt % x, st.floats(allow_nan=False, allow_infinity=False),
                  st.sampled_from(["%r", "%.17g", "%.5e", "%.25f"])),
    )
    cell = st.one_of(number, number, number, st.sampled_from(ODD_CELLS))
    label = st.one_of(st.integers(-3, 3).map(str), st.sampled_from(LABEL_CELLS))
    lines = []
    if draw(st.booleans()):
        names = [f"x{j}" for j in range(width)]
        if label_col < width:
            names[label_col] = draw(st.sampled_from(["label", " label"]))
        lines.append(",".join(names))
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 15)) == 0:
            lines.append("")
            continue
        w = width if draw(st.integers(0, 15)) else draw(st.integers(1, 5))
        row = [draw(cell) for _ in range(w)]
        if label_col < w and draw(st.integers(0, 3)):
            row[label_col] = draw(label)
        lines.append(",".join(row))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


def _outcome(load, path, label_column):
    try:
        ds = load(path, label_column=label_column)
    except DataError as exc:
        return "DataError", str(exc)
    labels = None if ds.labels is None else (ds.labels.dtype.str, ds.labels.tobytes())
    return ds.name, ds.points.shape, ds.points.dtype.str, ds.points.tobytes(), labels


@settings(max_examples=300, deadline=None)
@given(text=csv_text())
def test_load_csv_matches_cell_by_cell_reference(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "parity.csv"
    path.write_text(text, encoding="utf-8", newline="")
    for label_column in (None, "label"):
        assert _outcome(load_csv, path, label_column) == _outcome(
            reference_load_csv, path, label_column
        )


def test_dataset_validation():
    with pytest.raises(DataError):
        Dataset(points=np.empty((0, 2)))
    with pytest.raises(DataError):
        Dataset(points=[[np.nan, 1.0]])
    with pytest.raises(DataError):
        Dataset(points=[[1.0, 2.0]], labels=[1, 2])


def test_dataset_points_read_only():
    ds = Dataset(points=[[1.0, 2.0]])
    with pytest.raises(ValueError):
        ds.points[0, 0] = 5.0


def test_grand_mean():
    assert np.allclose(grand_mean(Dataset(points=[[0, 0], [2, 0], [1, 3]])), [1, 1])
    assert np.allclose(grand_mean(Dataset(points=[[5, 7]])), [5, 7])
    # hand sum / n
    assert grand_mean(Dataset(points=[[0], [1], [10]]))[0] == pytest.approx(11 / 3, abs=1e-15)


def test_standardize_none_is_identity():
    ds = Dataset(points=[[1, 2], [3, 4]])
    assert standardize(ds, "none") is ds


def test_standardize_minmax_endpoints():
    ds = standardize(Dataset(points=[[0.0], [10.0]]), "min-max")
    assert list(ds.points[:, 0]) == [0.0, 1.0]


def test_standardize_zscore_population_sd():
    ds = standardize(Dataset(points=[[1.0], [3.0]]), "z-score")
    assert np.allclose(ds.points[:, 0], [-1.0, 1.0])


def test_standardize_zscore_centers_grand_mean():
    rng = np.random.default_rng(7)
    ds = standardize(Dataset(points=rng.normal(5.0, 3.0, size=(40, 3))), "z-score")
    assert np.all(np.abs(grand_mean(ds)) <= 1e-9)
    assert np.allclose(ds.points.std(axis=0), 1.0)


def test_standardize_errors():
    flat = Dataset(points=[[1.0, 2.0], [1.0, 3.0]])
    with pytest.raises(DataError, match="zero-variance"):
        standardize(flat, "z-score")
    with pytest.raises(DataError, match="constant"):
        standardize(flat, "min-max")
    with pytest.raises(DataError, match="mode"):
        standardize(flat, "robust")


def test_csv_round_trip(tmp_path, ruspini_like):
    path = tmp_path / "rt.csv"
    write_csv(ruspini_like, path)
    back = load_csv(path, label_column="label")
    assert np.array_equal(back.points, ruspini_like.points)
    assert np.array_equal(back.labels, ruspini_like.labels)


def test_write_csv_without_labels(tmp_path):
    ds = Dataset(points=[[1.25, -3.5]])
    path = tmp_path / "nl.csv"
    write_csv(ds, path)
    assert path.read_text().splitlines()[0] == "x1,x2"
    back = load_csv(path)
    assert back.labels is None
    assert np.array_equal(back.points, ds.points)
