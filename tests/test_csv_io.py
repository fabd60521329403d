"""Sample and edge-list CSV files: pinned bytes, round trips, rejections."""

import hashlib
import io
import tracemalloc
from unittest import mock

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import felogit as fl
from felogit import cli, simulate
from felogit.cli import DataError, read_sample_csv, write_sample_csv
from felogit.estimation import Sample
from oracles import loadtxt_read_sample_csv, write_long_csv

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
    assert _sha256(write_sample_csv, edges) == (
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
    (write_sample_csv, read_sample_csv, True),
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
                                          (write_sample_csv, "edges")])
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
                          write_sample_csv, read_sample_csv)
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
    write_sample_csv(s, buf)
    lines = buf.getvalue().splitlines()
    text = "\n".join([lines[0], header] + lines[2:])
    what = "edge CSV" if network else "sample CSV"
    with pytest.raises(DataError, match=f"^{what} must start with columns "
                                        f"{columns} and hold data rows$"):
        read_sample_csv(io.StringIO(text), spec)


# -- the byte-scan reader against the loadtxt reader it replaced --------------

EDITS = [
    lambda f: "-" + f, lambda f: "+" + f, lambda f: "--" + f, lambda f: "-",
    lambda f: " " + f, lambda f: f + " ", lambda f: "\t" + f, lambda f: "",
    lambda f: "1" * 18, lambda f: "-" + "9" * 18, lambda f: "1" * 19,
    lambda f: "9" * 19, lambda f: "9" * 25, lambda f: "\r",
    lambda f: f + ",", lambda f: f + ",0", lambda f: "," + f,
    lambda f: "１", lambda f: "٣", lambda f: "é" + f, lambda f: f + "　",
    lambda f: f + "\r", lambda f: "0" + f, lambda f: f + ".", lambda f: f + "e0",
    lambda f: f + "e+400", lambda f: "nan", lambda f: "-inf", lambda f: "0x1",
    lambda f: "1_0", lambda f: f.upper(), lambda f: f + f,
]


def _outcome(reader, text, spec):
    try:
        s = reader(io.StringIO(text), spec)
    except Exception as exc:  # noqa: BLE001 - both readers must fail alike
        return type(exc).__name__, str(exc)
    return (s.Y.tobytes(), s.Y0.tobytes(), s.Y.shape, s.Y0.shape,
            None if s.X is None else (s.X.shape, s.X.tobytes()))


@pytest.mark.parametrize("network", [False, True])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_reader_matches_loadtxt_oracle_on_edited_fields(network, data):
    s = data.draw(samples(network))
    buf = io.StringIO()
    write_sample_csv(s, buf)
    end = data.draw(st.sampled_from(["\r\n", "\n"]))
    lines = buf.getvalue().splitlines()
    k = data.draw(st.integers(2, len(lines) - 1))
    fields = lines[k].split(",")
    c = data.draw(st.integers(0, len(fields) - 1))
    edit = data.draw(st.sampled_from(EDITS) | st.builds(
        lambda t: lambda f: t, st.text("0123456789-+.e ,\r\t１", max_size=22)))
    fields[c] = edit(fields[c])
    lines[k] = ",".join(fields)
    text = end.join(lines) + end
    assert (_outcome(read_sample_csv, text, s.spec)
            == _outcome(loadtxt_read_sample_csv, text, s.spec))


ORACLE_TEXTS = {
    # a "\r" inside a line fails np.loadtxt on the key columns
    "embedded CR": (fl.build_design("panel_fe", T=2, d_x=1),
                    "unit,t,y,x1\r\n1,1,0,\r\r\n1,2,0,0\r\n"),
    # 19 digits overflow int64
    "19-digit unit": (fl.build_design("panel_fe", T=2, d_x=0),
                      "unit,t,y\n9999999999999999999,1,0\n9999999999999999999,2,1\n"),
    "sign alone": (fl.build_design("panel_fe", T=2, d_x=0), "unit,t,y\n-,1,0\n-,2,1\n"),
    "signs and spaces": (fl.panel_ar(1, 2, d_x=2),
                         "unit,t,y,x1,x2\n-5,0,1,,\n-5,1,0, 1.5,-2e3\n-5,2,1,+7,\t.5\n"),
    "nan covariate": (fl.panel_ar(1, 2, d_x=1), "unit,t,y,x1\n1,0,1,\n1,1,0,nan\n1,2,1,0\n"),
    # np.fromstring reads a blank field as -1
    **{f"blank covariate {k}": (fl.panel_ar(1, 2, d_x=2), text) for k, text in enumerate([
        "unit,t,y,x1,x2\n1,0,1,,\n1,1,0, ,1\n1,2,1,0,1\n",
        "unit,t,y,x1,x2\r\n1,0,1,,\r\n1,1,0,1,2\r\n1,2,1,0,\t\r\n",
        "unit,t,y,x1,x2\n1,0,1,,\n1,1,0,-1,1\n1,2,1,0,1\n"])},
}


@pytest.mark.parametrize("case", ORACLE_TEXTS)
def test_reader_matches_loadtxt_oracle_on_fixed_texts(case):
    spec, text = ORACLE_TEXTS[case]
    assert (_outcome(read_sample_csv, text, spec)
            == _outcome(loadtxt_read_sample_csv, text, spec))


# -- the block reader ---------------------------------------------------------


@pytest.mark.parametrize("spec, theta", [
    (fl.panel_ar(2, 3), [0.5, -0.3]),
    (fl.quarterly_ar(1, 6, d_x=1), [0.5, 1.0]),
])
def test_reader_allocates_at_most_three_times_the_text(spec, theta):
    # numpy reports its buffers to tracemalloc, so the peak is deterministic;
    # it counts the text that read() returns.  The buffer is filled by write()
    # as the benchmark fills it.  One scan of the whole text took 13x and 7x.
    s = simulate.generate(simulate.DGPConfig(spec=spec, theta=np.array(theta),
                                             n=25_000, seed=3))
    buf = io.StringIO()
    write_sample_csv(s, buf)
    size = buf.tell()
    buf.seek(0)
    tracemalloc.start()
    try:
        back = read_sample_csv(buf, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size > 4 * cli.BLOCK and np.array_equal(back.Y, s.Y)
    assert peak <= 3 * size, f"{peak / size:.2f} times the {size} characters"


def _unitless(text):
    """A one-network edge list without its unit column."""
    return "".join(line.partition(",")[2] if line[:1].isdigit() or line.startswith("unit")
                   else line for line in text.splitlines(keepends=True))


@pytest.mark.parametrize("layout", ["sample", "edges", "edges without unit"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_block_reader_matches_loadtxt_oracle(layout, data):
    # blocks of a few lines, so that blank, "#" and "\r\n" lines and the
    # edited row fall anywhere around the block boundaries
    s = data.draw(samples(layout != "sample"))
    if layout == "edges without unit":
        s = Sample(spec=s.spec, Y=s.Y[:1], Y0=s.Y0[:1], X=None if s.X is None else s.X[:1])
    buf = io.StringIO()
    write_sample_csv(s, buf)
    text = _unitless(buf.getvalue()) if layout == "edges without unit" else buf.getvalue()
    lines = text.splitlines()
    for _ in range(data.draw(st.integers(0, 6))):
        lines.insert(data.draw(st.integers(0, len(lines))), data.draw(st.sampled_from(SKIPPED)))
    if data.draw(st.booleans()):
        k = data.draw(st.integers(0, len(lines) - 1))
        fields = lines[k].split(",")
        c = data.draw(st.integers(0, len(fields) - 1))
        fields[c] = data.draw(st.sampled_from(EDITS))(fields[c])
        lines[k] = ",".join(fields)
    end = data.draw(st.sampled_from(["\r\n", "\n"]))
    text = end.join(lines) + data.draw(st.sampled_from(["", end]))
    block = data.draw(st.integers(1, 60))
    with mock.patch.object(cli, "BLOCK", block):
        got = _outcome(read_sample_csv, text, s.spec)
    assert got == _outcome(loadtxt_read_sample_csv, text, s.spec)
    if not isinstance(got[0], str):  # read, and so read in blocks
        assert got == _outcome(lambda fh, spec: cli._read_blocks(fh.read(), spec, block),
                               text, s.spec)


@pytest.mark.parametrize("layout, row, column, text, message", [
    ("sample", 290, 2, "7", r"sample CSV data row 290: y must be 0 or 1, found '7'$"),
    ("sample", 302, 3, "nan", r"data row 302: x1 must be a finite number, found 'nan'$"),
    ("sample", 333, 3, "0,1", r"sample CSV data row 333: expected 4 fields, found 5$"),
    ("edges", 250, 3, "9", r"data row 250: j must be an integer in 1\.\.3, found '9'$"),
    ("edges", 260, 2, "3", r"edge CSV data row 260: i and j must differ$"),  # dyad 1,3
])
def test_bad_row_in_a_later_block_is_named_by_its_file_row(layout, row, column, text,
                                                           message):
    spec = fl.panel_ar(1, 3, d_x=1) if layout == "sample" else fl.network_design(3, 3)
    buf = io.StringIO()
    write_sample_csv(_fixed_sample(spec, 100, 4), buf)
    lines = buf.getvalue().splitlines()
    fields = lines[row + 1].split(",")  # after the schema and the header
    fields[column] = text
    lines[row + 1] = ",".join(fields)
    lines.insert(40, "# a comment among the rows")
    text = "\n".join(lines) + "\n"
    assert len(text) > 20 * 256
    # the block scan names the row itself, and so does the scan of a refused file
    for read in (lambda fh, spec: cli._read_blocks(fh.read(), spec, 256), read_sample_csv):
        with mock.patch.object(cli, "BLOCK", 256), pytest.raises(DataError, match=message):
            read(io.StringIO(text), spec)
