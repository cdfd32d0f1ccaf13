import csv
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuzzseed import (
    DataError,
    Dataset,
    GaussianSpec,
    NoiseSpec,
    add_skewed_noise,
    data,
    gen_gaussian_clusters,
    grand_mean,
    load_csv,
    standardize,
    write_csv,
)

from .conftest import traced_peak
from .helpers import reference_load_csv, reference_write_csv


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
    f.write_text("x,label\n1.0,9223372036854775807\n2.0,-3\n")
    assert list(load_csv(f, label_column="label").labels) == [2**63 - 1, -3]
    # a float spelling in the same chunk leaves the integer spellings exact
    f.write_text("x,label\n1.0,9223372036854775807\n2.0,4.0\n3.0,-9007199254740993\n")
    assert list(load_csv(f, label_column="label").labels) == [2**63 - 1, 4, -(2**53) - 1]



def test_dataset_label_outside_int64_range_is_data_error():
    with pytest.raises(DataError, match=r"out-of-range label 1180591620717411303424 at row 1"):
        Dataset(points=[[1.0], [2.0]], labels=[2**70, 1])
    with pytest.raises(DataError, match=r"out-of-range label -9223372036854775809 at row 2"):
        Dataset(points=[[1.0], [2.0]], labels=[0, -(2**63) - 1])
    # one rule for every input: an integer of magnitude below 2**63
    assert list(Dataset(points=[[1.0], [2.0]], labels=[2**63 - 1, 1 - 2**63]).labels) == [
        2**63 - 1, 1 - 2**63]
    # int lists and uint64 arrays beyond int64 are named exactly, never wrapped
    for labels, message in (([2**63, 1], "out-of-range label 9223372036854775808 at row 1"),
                            ([0, -(2**63)], "out-of-range label -9223372036854775808 at row 2"),
                            (np.array([0, -(2**63)]),
                             "out-of-range label -9223372036854775808 at row 2"),
                            ([1.5, 2.7], "non-integer label 1.5 at row 1"),
                            ([3, 2.5], "non-integer label 2.5 at row 2"),
                            ([2.0, float("nan")], "non-integer label nan at row 2"),
                            ([1e30, 1], "out-of-range label 1e+30 at row 1"),
                            ([np.float64(3.5), 1], "non-integer label 3.5 at row 1"),
                            (["1", "2"], "labels must be integer ids"),
                            ([2**63 - 1, 2**63], "out-of-range label 9223372036854775808 at row 2"),
                            ([0, 2**64 - 1], "out-of-range label 18446744073709551615 at row 2"),
                            (np.array([5, 2**63], dtype=np.uint64),
                             "out-of-range label 9223372036854775808 at row 2")):
        with pytest.raises(DataError, match=re.escape(message)):
            Dataset(points=[[1.0], [2.0]], labels=labels)
    for labels in ([np.int64(1), True], np.array([True, False])):
        assert list(Dataset(points=[[1.0], [2.0]], labels=labels).labels) == [1, int(labels[1])]
    assert list(Dataset(points=[[1.0], [2.0]], labels=np.array([7, 2**63 - 1],
                                                              dtype=np.uint64)).labels) == [
        7, 2**63 - 1]
    # float arrays take the rule of a CSV label cell int() rejects: no wrapped
    # cast, no truncation
    for labels, message in (([1e30, 1.0], "out-of-range label 1e+30 at row 1"),
                            ([1.0, -(2.0**63)], "out-of-range label -9.223372036854776e+18"),
                            ([1.0, -np.inf], "out-of-range label -inf at row 2"),
                            ([np.nan, 1.0], "non-integer label nan at row 1"),
                            ([1.5, 2.7], "non-integer label 1.5 at row 1")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=re.escape(message)):
                Dataset(points=[[1.0], [2.0]], labels=np.array(labels))
    labs = Dataset(points=[[1.0], [2.0]], labels=np.array([3.0, -(2.0**62)])).labels
    assert labs.dtype == np.int64 and list(labs) == [3, -(2**62)]


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


def _valid_rows():  # 500 rows of (x, y, label)
    rng = np.random.default_rng(5)
    return [[x, y, label] for (x, y), label in
            zip(rng.normal(size=(500, 2)).tolist(), rng.integers(-3, 4, size=500).tolist())]


def _assert_read_in_one_call(f):
    # numpy's C reader takes a valid chunk whole: the walk never runs,
    # _floats reads only the first row, to tell a header, and the csv
    # module reads nothing past that header
    with (mock.patch.object(data, "_floats", wraps=data._floats) as floats,
          mock.patch.object(data, "_convert_chunk", wraps=data._convert_chunk) as convert,
          mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt,
          mock.patch.object(csv, "reader", wraps=csv.reader) as reader):
        ds = load_csv(f, label_column="label")
    assert ds.n == 500
    assert [len(call.args[0]) for call in floats.call_args_list] == [3]
    assert (loadtxt.call_count, convert.call_count, reader.call_count) == (1, 0, 1)


def test_load_csv_converts_a_valid_table_in_one_call(tmp_path):
    f = tmp_path / "valid.csv"
    rows = [f"{x!r},{y!r},{label}\n" for x, y, label in _valid_rows()]
    f.write_text("x,y,label\n" + "".join(rows))
    _assert_read_in_one_call(f)


def test_load_csv_converts_a_quoted_table_in_one_call(tmp_path):
    # numpy's reader parses the quoted cells as the csv module would
    f = tmp_path / "quoted.csv"
    with open(f, "w", newline="") as fh:
        csv.writer(fh, quoting=csv.QUOTE_ALL).writerows([["x", "y", "label"], *_valid_rows()])
    _assert_read_in_one_call(f)


def test_load_csv_drops_a_byte_order_mark(tmp_path):
    # Excel's "CSV UTF-8" starts the file with U+FEFF; read as a cell, it
    # made a headerless first row a header and hid a first header name
    f = tmp_path / "bom.csv"
    f.write_text("\ufeff1.0,2\n3,4\n5,6\n", encoding="utf-8")
    assert load_csv(f).points.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
    f.write_text("\ufefflabel,x\n1,2.5\n0,3.5\n", encoding="utf-8")
    ds = load_csv(f, label_column="label")
    assert ds.labels.tolist() == [1, 0] and ds.points.tolist() == [[2.5], [3.5]]


def test_load_csv_names_the_first_defect_in_file_order(tmp_path):
    f = tmp_path / "order.csv"
    chunk = data._CHUNK_ROWS
    good = [f"{i},{i % 3}" for i in range(chunk)]
    for lines, message in (
        (["a,label", "1,2", "abc,3", "4,5", "6", "7,8"], "non-numeric cell 'abc' at line 3"),
        (["a,label", "1,2", "3", "4,5", "abc,6", "7,8"], "row at line 3 has 1 cells"),
        # the walk checks the labels it has read together, before a later defect
        (["a,label", "1_0,1", "3,2.5", "abc,1"], "non-integer label '2.5' at line 3"),
        (["a,label", "1_0,1", "abc,1", "3,2.5"], "non-numeric cell 'abc' at line 3"),
        (["a,label", "1_0,1", "3,1e300", "4"], "out-of-range label '1e300' at line 3"),
        (["a,label", "1_0,1", "4", "3,1e300"], "row at line 3 has 1 cells"),
        # a quoted cell holding the delimiter in a short row
        (["a,label", "1,2", '"3,4"', "5,6"], "row at line 3 has 1 cells"),
        (["a,label"] + [f"{i},{i % 3}" for i in range(1999)] + ["0,0.5"],
         "non-integer label '0.5' at line 2001"),
        # a ragged row in the first chunk, a bad cell in the second
        (["a,label", "1,2", "3"] + good + ["abc,4"], "row at line 3 has 1 cells"),
        # a bad cell in the first chunk, a ragged row in the second
        (["a,label", "1,2", "abc,3"] + good + ["4"], "non-numeric cell 'abc' at line 3"),
        # blank lines on both sides of the first chunk's last row
        (["a,label"] + good[:-1] + ["", ""] + good[-1:] + ["", "", "5,0.5"],
         f"non-integer label '0.5' at line {chunk + 6}"),
        (["", "a,label"] + good[:-1] + ["", "7", "", "8,1"], f"row at line {chunk + 3} has 1 cells"),
    ):
        f.write_text("\n".join(lines) + "\n")
        outcome = _outcome(load_csv, f, "label")
        assert outcome == _outcome(reference_load_csv, f, "label")
        assert outcome[0] == "DataError" and message in outcome[1]


def test_load_csv_numbers_records_after_a_multi_line_cell(tmp_path):
    # a record whose quoted cell holds line ends counts once, as the csv
    # module counts it, in a later chunk too
    f = tmp_path / "span.csv"
    good = [f"{i},{i % 3}" for i in range(5)]
    for lines, message in (
        (["x,label", '1,"', '2"', "3,abc"], "non-numeric cell 'abc' at line 3"),
        (["x,label", '"1', '', '",7', *good, "4"], "row at line 8 has 1 cells"),
        (["x,label", *good, '"5","\r', '1"', *good, '"6\n",0.5'],
         "non-integer label '0.5' at line 13"),
    ):
        f.write_text("\n".join(lines) + "\n")
        for chunk_rows in (1, 2, 3, data._CHUNK_ROWS):
            with mock.patch.object(data, "_CHUNK_ROWS", chunk_rows):
                outcome = _outcome(load_csv, f, "label")
            assert outcome == _outcome(reference_load_csv, f, "label")
            assert outcome[0] == "DataError" and message in outcome[1]


def test_load_csv_unreadable_content_is_data_error(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("a,b\n1," + "1" * 200000 + "\n")  # beyond the csv module's field limit
    with pytest.raises(DataError, match=r"cannot read .*bad\.csv: field larger than field limit"):
        load_csv(f)
    f.write_text("a,b\n1," + "0" * 200000 + "1\n")  # a number numpy's reader would take
    with pytest.raises(DataError, match=r"cannot read .*bad\.csv: field larger than field limit"):
        load_csv(f)
    f.write_bytes(b"a,b\n1,2\n\xff\xfe,3\n")
    with pytest.raises(DataError, match=r"cannot read .*bad\.csv: .*can't decode"):
        load_csv(f)
    f.write_text("a;b\n1;2\n")
    assert load_csv(f, delimiter=";").points.tolist() == [[1.0, 2.0]]
    for delimiter in ("ab", "", 5, None, "\n", "\r"):
        with pytest.raises(ValueError, match="delimiter must be one character"):
            load_csv(f, delimiter=delimiter)


def test_load_csv_peak_memory_is_a_small_multiple_of_its_array(tmp_path):
    # rows are read and converted one chunk at a time; a whole-file read
    # held every row as Python strings, about 16 times the points array
    rng = np.random.default_rng(5)
    d = Dataset(points=rng.normal(size=(20000, 8)), labels=rng.integers(0, 4, size=20000))
    write_csv(d, tmp_path / "big.csv")
    back, peak = traced_peak(load_csv, tmp_path / "big.csv", label_column="label")
    assert back.points.tobytes() == d.points.tobytes()
    assert np.array_equal(back.labels, d.labels)
    assert peak < 4 * d.points.nbytes


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
               "9223372036854774784", str(2**63 - 1), str(1 - 2**63), str(2**53 + 1), "1_0"]
# Quoted cells, some holding a line end (a record over two lines) or a delimiter.
QUOTED_CELLS = ['"1.5"', '" -2 "', '"\n3"', '"4\r\n"', '"5\r"', '"6,7"', '"8;9"', '""',
                '"1"0', '"2"""', '"1\n2"']


@st.composite
def csv_text(draw):
    """(CSV text, its delimiter)."""
    width = draw(st.integers(1, 4))
    label_col = draw(st.integers(0, width))  # width: no label column
    delimiter = draw(st.sampled_from([",", ",", ",", ";", "\t", " "]))
    number = st.one_of(
        st.integers(-10, 10).map(str),
        st.builds(lambda x, fmt: fmt % x, st.floats(allow_nan=False, allow_infinity=False),
                  st.sampled_from(["%r", "%.17g", "%.5e", "%.25f"])),
    )
    quoted = draw(st.booleans())  # a cell over lines sends its chunk to the walk
    odd = [st.sampled_from(ODD_CELLS)] + ([st.sampled_from(QUOTED_CELLS)] if quoted else [])
    # one table in four holds numbers only, so numpy's reader takes it whole
    cell = st.one_of(number, number, number, *odd) if draw(st.integers(0, 3)) else number
    label = st.one_of(st.integers(-3, 3).map(str), st.sampled_from(
        LABEL_CELLS + (['"2"', '"\n-1"'] if quoted else ["-0", "+2", "-0.0"])))
    lines = []
    if draw(st.booleans()):
        names = [f"x{j}" for j in range(width)]
        if label_col < width:
            names[label_col] = draw(st.sampled_from(["label", " label"]))
        lines.append(delimiter.join(names))
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 15)) == 0:
            lines.append(draw(st.sampled_from(["", "", " ", "\t"])))  # blank or whitespace
            continue
        w = width if draw(st.integers(0, 15)) else draw(st.integers(1, 5))
        row = [draw(cell) for _ in range(w)]
        if label_col < w and draw(st.integers(0, 3)):
            row[label_col] = draw(label)
        lines.append(delimiter.join(row))
    text = draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines)
    bom = "\ufeff" if draw(st.integers(0, 7)) == 0 else ""  # Excel's "CSV UTF-8"
    return bom + text + draw(st.sampled_from(["", "\n"])), delimiter


def _outcome(load, path, label_column, delimiter=","):
    try:
        ds = load(path, label_column=label_column, delimiter=delimiter)
    except DataError as exc:
        return "DataError", str(exc)
    labels = None if ds.labels is None else (ds.labels.dtype.str, ds.labels.tobytes())
    return ds.name, ds.points.shape, ds.points.dtype.str, ds.points.tobytes(), labels


@settings(max_examples=300, deadline=None)
@given(table=csv_text())
@example(table=("x0,label\n\n\r\n\r", ","))  # a header, then blank lines only
@example(table=('x\n""\n" "\n', ","))  # cells that strip to nothing
@example(table=("\ufeff1;2\r3;4\r", ";"))
# bad labels in tables of numbers only, which numpy's reader would take
@example(table=("x,label\n1.5,0\n2.5,0.5\n", ","))
@example(table=("x,label\n1.5,1e19\n", ","))
@example(table=("label\tx\n-9223372036854775808\t1\n", "\t"))
@example(table=("x label\n1 9007199254740993\n2 4.0\n", " "))  # exact beyond 2**53
@example(table=("x,label\n1," + "1" * 200000 + "\n", ","))  # past the csv field limit
def test_load_csv_matches_cell_by_cell_reference(tmp_path_factory, table):
    text, delimiter = table
    path = tmp_path_factory.getbasetemp() / "parity.csv"
    path.write_text(text, encoding="utf-8", newline="")
    for label_column in (None, "label"):
        assert _outcome(load_csv, path, label_column, delimiter) == _outcome(
            reference_load_csv, path, label_column, delimiter
        )


@settings(max_examples=200, deadline=None)
@given(table=csv_text(), chunk_rows=st.integers(1, 3))
# a quoted label over two lines, which a chunk of one line would cut
@example(table=('x,label\n1,"\n2"\n3,4\n', ","), chunk_rows=1)
def test_load_csv_matches_the_reference_across_chunk_boundaries(tmp_path_factory, table,
                                                               chunk_rows):
    text, delimiter = table
    path = tmp_path_factory.getbasetemp() / "chunks.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with mock.patch.object(data, "_CHUNK_ROWS", chunk_rows):
        for label_column in (None, "label"):
            assert _outcome(load_csv, path, label_column, delimiter) == _outcome(
                reference_load_csv, path, label_column, delimiter
            )


def test_dataset_validation():
    with pytest.raises(DataError):
        Dataset(points=np.empty((0, 2)))
    with pytest.raises(DataError):
        Dataset(points=[[np.nan, 1.0]])
    with pytest.raises(DataError):
        Dataset(points=[[1.0, 2.0]], labels=[1, 2])


def test_dataset_names_the_first_non_finite_value():
    # each kind of non-finite value, alone or behind another one, and
    # next to the table's finite extremes
    for bad in (np.nan, np.inf, -np.inf):
        pts = np.full((40, 3), 0.5)
        pts[0, 0], pts[-1, -1] = np.finfo(float).max, -np.finfo(float).max
        pts[17, 2] = bad
        with pytest.raises(DataError, match=r"non-finite value at row 18, column 3$"):
            Dataset(points=pts)
        pts[30, 0] = -bad
        with pytest.raises(DataError, match=r"non-finite value at row 18, column 3$"):
            Dataset(points=pts)


def test_dataset_points_read_only():
    ds = Dataset(points=[[1.0, 2.0]])
    with pytest.raises(ValueError):
        ds.points[0, 0] = 5.0


def test_dataset_construction_copies_its_inputs():
    points, labels = np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1, 2])
    ds = Dataset(points=points, labels=labels)
    points[0, 0], labels[0] = 9.0, 7
    assert ds.points.tolist() == [[1.0, 2.0], [3.0, 4.0]] and ds.labels.tolist() == [1, 2]
    assert points.flags.writeable and labels.flags.writeable


def test_library_built_datasets_own_read_only_arrays(tmp_path):
    base = gen_gaussian_clusters(GaussianSpec(k=3, size=40, sigma=0.3, dims=2, rng_seed=1))
    write_csv(base, tmp_path / "base.csv")
    built = [base, add_skewed_noise(base, NoiseSpec(rng_seed=2)),
             standardize(base, "z-score"), standardize(base, "min-max"),
             load_csv(tmp_path / "base.csv", label_column="label"),
             load_csv(tmp_path / "base.csv")]
    for ds in built:
        for arr in (ds.points, *(() if ds.labels is None else (ds.labels,))):
            assert arr.flags.owndata and not arr.flags.writeable, ds.name
    assert [ds.labels.dtype for ds in built[:5]] == [np.int64] * 5


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


# Floats whose repr is a special case: negative zero, the smallest
# subnormal and normal, the powers of ten where repr switches to an
# exponent (1e16 is '1e+16', 1e-5 is '1e-05'), and the extremes; labels
# at the int64 bounds.
EDGE_FLOATS = [-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-5,
               1.7976931348623157e308, -1.7976931348623157e308]
EDGE_LABELS = [2**63 - 1, -(2**63 - 1)]


@st.composite
def float_tables(draw):
    """(rows of finite floats, a label per row or None)."""
    n, p = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    cell = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
    rows = draw(st.lists(st.lists(cell, min_size=p, max_size=p), min_size=n, max_size=n))
    label = st.sampled_from(EDGE_LABELS) | st.integers(-(2**63 - 1), 2**63 - 1)
    labels = draw(st.none() | st.lists(label, min_size=n, max_size=n))
    return rows, labels


@settings(max_examples=200, deadline=None)
@given(table=float_tables(), newline=st.sampled_from(["\r\n", "\n"]))
@example(table=([EDGE_FLOATS, EDGE_FLOATS[::-1]], EDGE_LABELS), newline="\r\n")
@example(table=([EDGE_FLOATS], None), newline="\n")
@example(table=([[0.0], [1.0], [2.0]], [2**53 + 1, 2**63 - 1, 1 - 2**63]), newline="\r\n")
@example(table=([[0.0], [1.0]], [-(2**53) - 1, 2**62 + 1]), newline="\n")
def test_write_rows_matches_the_csv_module(tmp_path_factory, table, newline):
    rows, labels = table
    d = Dataset(points=rows, labels=labels)
    header = [f"x{j + 1}" for j in range(d.p)]
    if labels is not None:
        header.append("label")
        rows = [row + [label] for row, label in zip(rows, labels)]
    base = tmp_path_factory.getbasetemp()
    data._write_rows(base / "rows.csv", header, rows, newline)
    reference_write_csv(d, base / "reference.csv", lineterminator=newline)
    got = (base / "rows.csv").read_bytes()
    assert got == (base / "reference.csv").read_bytes()
    if newline == "\r\n":
        write_csv(d, base / "write_csv.csv")
        assert (base / "write_csv.csv").read_bytes() == got
    back = load_csv(base / "rows.csv", label_column=None if labels is None else "label")
    assert back.points.tobytes() == d.points.tobytes()  # every bit, -0.0 included
    assert (None if back.labels is None else back.labels.tolist()) == labels


def test_write_csv_peak_memory_is_the_csv_modules(tmp_path):
    # the rows are streamed: a writer that joins the whole file into one
    # string peaks at about 2.3 times the csv module's writer
    rng = np.random.default_rng(5)
    d = Dataset(points=rng.normal(size=(20000, 8)), labels=rng.integers(0, 4, size=20000))
    peaks = []
    for write in (write_csv, reference_write_csv):
        tracemalloc.start()
        try:
            write(d, tmp_path / f"{write.__name__}.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 1.05 * peaks[1]
    assert (tmp_path / "write_csv.csv").read_bytes() == (
        tmp_path / "reference_write_csv.csv").read_bytes()


def test_write_csv_peak_memory_does_not_grow_with_n(tmp_path):
    # rows are converted one chunk at a time: a whole-table tolist() made
    # the peak grow 4 times from 1250 to 5000 rows (at 64-row chunks, the
    # ratios of 1024-row chunks to 20000 and 80000 rows)
    rng = np.random.default_rng(5)
    peaks = {}
    with mock.patch.object(data, "_CHUNK_ROWS", 64):
        for n in (64, 1250, 5000):
            d = Dataset(points=rng.normal(size=(n, 8)), labels=rng.integers(0, 4, size=n))
            peaks[n] = traced_peak(write_csv, d, tmp_path / "d.csv")[1]
    assert abs(peaks[5000] - peaks[1250]) <= peaks[64]
