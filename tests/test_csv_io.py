"""Sample and edge-list CSV files: pinned bytes, round trips, rejections."""

import hashlib
import io

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import felogit as fl
from felogit.cli import (DataError, read_edge_csv, read_sample_csv,
                         write_edge_csv, write_sample_csv)
from felogit.estimation import Sample
from oracles import write_long_csv

# Edge values for the {:.12g} formatting: signed zero, the smallest
# subnormal, a magnitude beyond 12 digits and one that rounds.
SPECIAL_X = [-0.0, 5e-324, 1e15, -123456789.0123456789]


def _fixed_sample(spec, n, seed):
    rng = np.random.default_rng(seed)
    X = None
    if spec.d_x:
        X = rng.normal(scale=3.0, size=(n, spec.d_x, spec.T))
        X.flat[: len(SPECIAL_X)] = SPECIAL_X
    return Sample(spec=spec, Y=rng.integers(0, 2, (n, spec.T)),
                  Y0=rng.integers(0, 2, (n, spec.y0_len)), X=X)


def _sha256(writer, sample):
    buf = io.StringIO(newline="")
    writer(sample, buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def test_writer_bytes_are_pinned():
    # The bytes are part of the file format.  These digests were taken
    # from the csv.writer-based writers, "\r\n" terminators included.
    sample = _fixed_sample(fl.panel_ar(2, 4, d_x=2), n=6, seed=11)
    edges = _fixed_sample(fl.network_design(3, 3, d_x=1), n=4, seed=12)
    assert _sha256(write_sample_csv, sample) == (
        "9dac16df1900712fa449fc8d0dc3daae0ab43adb7bd1e3e6726e4ec465bfb198")
    assert _sha256(write_edge_csv, edges) == (
        "4a0b39a6bbc22c0b5a315c367c036fded52f38ec77ce6976cfee0387924ca39e")


# -- round trips --------------------------------------------------------------

FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e15, -1e15, *SPECIAL_X]),
    st.floats(-1e15, 1e15, allow_subnormal=True),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def samples(draw, network):
    d_x = draw(st.integers(0, 2))
    if network:
        spec = fl.network_design(draw(st.integers(2, 4)), draw(st.integers(1, 3)),
                                 d_x=d_x)
    else:
        p, T = draw(st.integers(0, 3)), draw(st.integers(2, 5))
        spec = (fl.build_design("panel_fe", T=T, d_x=d_x) if p == 0
                else fl.panel_ar(p, T, d_x=d_x))
    n = draw(st.integers(1, 5))
    bits = st.integers(0, 1)
    Y = draw(hnp.arrays(np.int8, (n, spec.T), elements=bits))
    Y0 = draw(hnp.arrays(np.int8, (n, spec.y0_len), elements=bits))
    X = draw(hnp.arrays(float, (n, d_x, spec.T), elements=FLOATS)) if d_x else None
    return Sample(spec=spec, Y=Y, Y0=Y0, X=X)


@pytest.mark.parametrize("writer, reader, network", [
    (write_sample_csv, read_sample_csv, False),
    (write_edge_csv, read_edge_csv, True),
])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_round_trip_in_any_row_order(writer, reader, network, data):
    s = data.draw(samples(network))
    buf = io.StringIO()
    writer(s, buf)
    lines = buf.getvalue().splitlines(keepends=True)
    shuffled = lines[:2] + data.draw(st.permutations(lines[2:]))
    for text in (buf.getvalue(), "".join(shuffled)):
        back = reader(io.StringIO(text), s.spec)
        assert np.array_equal(back.Y, s.Y) and np.array_equal(back.Y0, s.Y0)
        if s.X is None:
            assert back.X is None
        else:
            want = np.array([float(f"{x:.12g}") for x in s.X.ravel()])
            assert back.X.tobytes() == want.reshape(s.X.shape).tobytes()


@pytest.mark.parametrize("writer, kind", [(write_sample_csv, "sample"),
                                          (write_edge_csv, "edges")])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_writer_bytes_match_the_row_by_row_oracle(writer, kind, data):
    s = data.draw(samples(kind == "edges"))
    got, want = io.StringIO(newline=""), io.StringIO(newline="")
    writer(s, got)
    write_long_csv(s, want, kind)
    assert got.getvalue() == want.getvalue()


# Lines that are not data rows: blank (also when only whitespace,
# ASCII or not) or starting with "#".
SKIPPED = ["", "   ", "\t", "\u3000", "#", "# note, 1,2,3", "#é"]


@pytest.mark.parametrize("end", ["\r\n", "\n"])
@pytest.mark.parametrize("final_newline", [True, False])
def test_blank_and_comment_lines_are_skipped_anywhere(end, final_newline):
    s = _fixed_sample(fl.panel_ar(2, 4, d_x=2), 3, 1)
    buf = io.StringIO()
    write_sample_csv(s, buf)
    lines = buf.getvalue().splitlines()
    mixed = []
    for k, line in enumerate(lines):
        mixed += [line, SKIPPED[k % len(SKIPPED)]]
    text = end.join(mixed[:-1]) + (end if final_newline else "")
    back = read_sample_csv(io.StringIO(text), s.spec)
    assert np.array_equal(back.Y, s.Y) and np.array_equal(back.Y0, s.Y0)
    want = np.array([float(f"{x:.12g}") for x in s.X.ravel()])
    assert back.X.tobytes() == want.reshape(s.X.shape).tobytes()
    # data rows are counted without the skipped lines: data row 7 is
    # lines[8] (after the schema and the header), which is mixed[16]
    fields = mixed[16].split(",")
    fields[2] = "7"
    mixed[16] = ",".join(fields)
    with pytest.raises(DataError, match=r"data row 7: y must be 0 or 1, found '7'$"):
        read_sample_csv(io.StringIO(end.join(mixed)), s.spec)


# -- rejections ---------------------------------------------------------------


def _set(row, col, text):
    def edit(rows):
        rows[row - 1][col] = text
    return edit


def _drop(row):
    return lambda rows: rows.pop(row - 1)


def _repeat(row):
    return lambda rows: rows.append(list(rows[row - 1]))


def _cut(row, n_fields):
    def edit(rows):
        del rows[row - 1][n_fields:]
    return edit


# Sample files hold AR(2) T=4 units with two covariates, six rows each
# (t = -1..4); edge lists hold three-agent networks over tau = 0..3,
# twelve rows each.
REJECTIONS = {
    "missing period": (
        "sample", _drop(10), r"sample CSV: unit 2 has no rows for t = 2$"),
    "duplicated row": (
        "sample", _repeat(13), r"sample CSV: unit 3 has 2 rows for t = -1$"),
    "t above T": (
        "sample", _set(6, 1, "5"),
        r"data row 6: t must be an integer in -1\.\.4, found '5'$"),
    "t below 1-L0": (
        "sample", _set(7, 1, "-2"),
        r"data row 7: t must be an integer in -1\.\.4, found '-2'$"),
    "non-integer unit": (
        "sample", _set(8, 0, "2.5"),
        r"data row 8: unit must be an integer, found '2\.5'$"),
    "non-integer t": (
        "sample", _set(8, 1, "x"),
        r"data row 8: t must be an integer in -1\.\.4, found 'x'$"),
    "short of covariates": (
        "sample", _cut(9, 4), r"data row 9: x2 must be a finite number, found ''$"),
    "non-finite covariate": (
        "sample", _set(9, 3, "nan"),
        r"data row 9: x1 must be a finite number, found 'nan'$"),
    "sample y=0.5": (
        "sample", _set(4, 2, "0.5"),
        r"sample CSV data row 4: y must be 0 or 1, found '0\.5'$"),
    "edge y=7": (
        "edges", _set(5, 4, "7"),
        r"edge CSV data row 5: y must be 0 or 1, found '7'$"),
    "i == j": ("edges", _set(4, 2, "2"), r"data row 4: i and j must differ$"),
    "j > n": (
        "edges", _set(4, 3, "4"),
        r"data row 4: j must be an integer in 1\.\.3, found '4'$"),
    "tau above tau": (
        "edges", _set(16, 1, "4"),
        r"data row 16: tau must be an integer in 0\.\.3, found '4'$"),
    "missing dyad row": (
        "edges", _drop(17), r"edge CSV: unit 2 has no rows for tau,i,j = 1,1,3$"),
    "extra field": (
        "sample", _set(5, 4, "0.5,9"),
        r"sample CSV data row 5: expected 5 fields, found 6$"),
    "initial row short of fields": (
        "sample", _cut(1, 3), r"sample CSV data row 1: expected 5 fields, found 3$"),
    "edge extra field": (
        "edges", _set(4, 5, "0.5,"),
        r"edge CSV data row 4: expected 6 fields, found 7$"),
}


@pytest.mark.parametrize("case", REJECTIONS)
def test_malformed_rows_are_named(case):
    kind, edit, message = REJECTIONS[case]
    if kind == "sample":
        s, write, read = (_fixed_sample(fl.panel_ar(2, 4, d_x=2), 3, 1),
                          write_sample_csv, read_sample_csv)
    else:
        s, write, read = (_fixed_sample(fl.network_design(3, 3, d_x=1), 2, 2),
                          write_edge_csv, read_edge_csv)
    buf = io.StringIO()
    write(s, buf)
    lines = buf.getvalue().splitlines()
    rows = [line.split(",") for line in lines[2:]]
    edit(rows)
    text = "\n".join(lines[:2] + [",".join(r) for r in rows])
    with pytest.raises(DataError, match=message):
        read(io.StringIO(text), s.spec)


@pytest.mark.parametrize("text", ["", "# schema: felogit.sample.v1\n",
                                  "unit,t,y\n", "id,t,y\n1,1,0\n"])
def test_files_without_header_or_rows_are_rejected(text):
    with pytest.raises(DataError, match="must start with columns unit,t,y"):
        read_sample_csv(io.StringIO(text), fl.panel_ar(1, 2))


@pytest.mark.parametrize("spec, header, columns", [
    (fl.panel_ar(2, 4, d_x=2), "unit,t,y,x2,x1", "unit,t,y,x1,x2"),
    (fl.panel_ar(2, 4, d_x=2), "unit,t,y,age,income", "unit,t,y,x1,x2"),
    (fl.panel_ar(2, 4, d_x=2), "unit,t,y,x1", "unit,t,y,x1,x2"),
    (fl.panel_ar(2, 4), "unit,t,y,x1,x2", "unit,t,y"),
    (fl.network_design(3, 3, d_x=1), "tau,i,j,y", "tau,i,j,y,x1"),
    (fl.network_design(3, 3, d_x=1), "unit,tau,i,j,y,x1,x2", "unit,tau,i,j,y,x1"),
])
def test_header_must_name_the_covariates_in_order(spec, header, columns):
    network = spec.family == "network"
    s = _fixed_sample(fl.panel_ar(2, 4, d_x=2) if not network else
                      fl.network_design(3, 3, d_x=1), 2, 3)
    buf = io.StringIO()
    (write_edge_csv if network else write_sample_csv)(s, buf)
    lines = buf.getvalue().splitlines()
    text = "\n".join([lines[0], header] + lines[2:])
    what = "edge CSV" if network else "sample CSV"
    with pytest.raises(DataError, match=f"^{what} must start with columns "
                                        f"{columns} and hold data rows$"):
        (read_edge_csv if network else read_sample_csv)(io.StringIO(text), spec)
