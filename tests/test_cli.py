import csv
import io
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import felogit as fl
from felogit import cli, simulate
from felogit.cli import main, read_edge_csv, read_sample_csv, write_edge_csv, write_sample_csv


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_wperp_empty_design_exits_3(capsys):
    code, out, err = run(capsys, "wperp", "--design", "poly", "--p", "1", "--T", "3")
    assert code == 3
    assert json.loads(out) == []
    assert "# config:" in err


def test_wperp_twoway(capsys):
    code, out, _ = run(capsys, "wperp", "--design", "twoway", "--n", "2", "--tau", "2")
    assert code == 0
    assert [1, -1, -1, 1] in json.loads(out)


def test_table1_csv(capsys):
    code, out, _ = run(capsys, "table1", "--max-p", "2")
    assert code == 0
    rows = list(csv.reader(out.splitlines()[1:]))
    assert rows[0] == ["p", "T", "w_perp"]
    assert rows[1] == ["0", "2", "1 -1"]
    assert rows[3] == ["2", "7", "1 -1 -1 0 1 1 -1"]


def test_moments_report_bound(capsys):
    code, out, _ = run(
        capsys, "moments", "--design", "ar", "--p", "1", "--T", "3",
        "--theta", "0.5", "--y0", "0", "--draws", "20",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["bound"] == 2
    assert doc["nullspace_dimension"] == 2
    assert doc["max_residual"] < 1e-8


def test_dset_quarterly(capsys):
    code, out, _ = run(
        capsys, "dset", "--design", "quarterly", "--p", "1", "--T", "6",
        "--theta", "0.9", "--y0", "0",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["cardinality"] == 180
    assert doc["Q"] == [1, 2, 2, 2, 2, 2]


def test_pairs_standard_and_degenerate(capsys):
    code, out, _ = run(
        capsys, "pairs", "--design", "ar", "--p", "1", "--T", "3",
        "--y0", "0", "--require-gap",
    )
    assert code == 0
    doc = json.loads(out)
    pairs = {(tuple(d["y"]), tuple(d["y_tilde"])) for d in doc}
    pairs |= {(b, a) for a, b in pairs}
    assert ((1, 0, 1), (0, 1, 1)) in pairs
    assert all(d["transition_gap"] != 0 for d in doc)
    code, out, _ = run(
        capsys, "pairs", "--design", "trend-ar", "--T", "4", "--y0", "0",
    )
    assert code == 3 and json.loads(out) == []


def test_netcond_singleton(capsys):
    code, out, _ = run(
        capsys, "netcond", "--n", "3", "--y0", "000",
        "--path", "101101000", "--theta", "0.5,0.2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] == 1 and doc["likelihood"] == 1.0


@pytest.mark.parametrize("argv", [
    ("pairs", "--design", "ar", "--p", "1", "--T", "3", "--y0", "7"),
    ("pairs", "--design", "ar", "--p", "1", "--T", "3", "--y0", "0,1"),
    ("moments", "--design", "ar", "--p", "1", "--T", "3", "--y0", "5"),
    ("dset", "--design", "ar", "--p", "1", "--T", "3", "--y0", "2"),
    ("netcond", "--n", "3", "--y0", "0x0", "--path", "101101000"),
    ("netcond", "--n", "3", "--y0", "000", "--path", "101101002"),
])
def test_bit_vector_outside_0_1_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "must be a 0/1 vector of length" in err


AR1 = ("--design", "ar", "--p", "1", "--T", "3", "--y0", "0")
NETCOND = ("netcond", "--n", "3", "--y0", "000", "--path", "101101000")


@pytest.mark.parametrize("argv, message", [
    (("pairs", *AR1, "--theta", "abc"), "--theta must be a list of numbers, found 'abc'"),
    (("pairs", *AR1, "--theta", "0.5,0.2"), "--theta must have length 1, found 2"),
    ((*NETCOND, "--theta", "0.5,x"), "--theta must be a list of numbers, found '0.5,x'"),
    ((*NETCOND, "--theta", "0.5"), "--theta must have length 2, found 1"),
    (("dset", *AR1, "--theta", "abc"), "--theta must be a list of numbers, found 'abc'"),
    (("dset", *AR1, "--theta", "0.5,0.2"), "--theta must have length 1, found 2"),
    (("moments", *AR1, "--theta", "abc"), "--theta must be a list of numbers, found 'abc'"),
    (("moments", *AR1, "--theta", ""), "--theta must have length 1, found 0"),
])
def test_bad_theta_exits_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"error: {message}\n" in err


def test_bad_init_exits_2(tmp_path, capsys):
    s = simulate.generate(simulate.DGPConfig(
        spec=fl.panel_ar(1, 3), theta=np.array([0.5]), n=4, seed=2))
    data = tmp_path / "data.csv"
    with open(data, "w") as fh:
        write_sample_csv(s, fh)
    argv = ("estimate", "--design", "ar", "--p", "1", "--T", "3",
            "--data", str(data), "--method", "cmle", "--init")
    code, out, err = run(capsys, *argv, "0.5,0.1")
    assert code == 2 and out == ""
    assert "error: --init must have length 1, found 2\n" in err
    code, _, err = run(capsys, *argv, "half")
    assert code == 2 and "error: --init must be a list of numbers" in err


@pytest.mark.parametrize("estimator, found", [
    ({"method": "gmm", "init": [0.0]}, 1),
    ({"method": "cmle", "init": [0.5, -0.3, 0.1]}, 3),
])
def test_bad_config_init_exits_2(tmp_path, capsys, estimator, found):
    # a config-file init is held to the spec's theta length, as --init is
    cfg = {"dgp": {"design": {"design": "ar", "p": 2, "T": 3},
                   "theta": [0.5, -0.3], "n": 50, "seed": 3},
           "estimator": estimator, "replications": 2}
    cfg_path = tmp_path / "mc.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "mc", "--config", str(cfg_path))
    assert code == 2 and out == ""
    assert f"error: init must have length 2, found {found}\n" in err


@pytest.mark.parametrize("argv", [
    ("estimate", "--design", "ar", "--p", "1", "--T", "3", "--method", "cmle",
     "--data"),
    ("estimate", "--design", "network", "--n", "3", "--tau", "2",
     "--method", "cmle", "--data"),
    ("dset", *AR1, "--d-x", "1", "--theta", "0.5,1", "--x"),
    ("moments", *AR1, "--d-x", "1", "--theta", "0.5,1", "--x"),
    ("wperp", "--model"),
    ("simulate", "--config"),
    ("mc", "--config"),
])
def test_missing_input_file_exits_2(tmp_path, capsys, argv):
    missing = tmp_path / "absent.csv"
    code, out, err = run(capsys, *argv, str(missing))
    assert code == 2 and out == ""
    assert err.splitlines()[-1].startswith("error: ") and str(missing) in err


@pytest.mark.parametrize("command", ["dset", "moments"])
@pytest.mark.parametrize("text, message", [
    ("1,2\n", r"must be d_x x T = \(1, 3\), found \(1, 2\)"),
    ("1,2,3\n4,5,6\n", r"found \(2, 3\)"),
    ("1,a,3\n", "covariate CSV: "),
    ("1,2,3\n4,5\n", "covariate CSV: "),
    ("1,nan,3\n", "must be finite"),
])
def test_bad_covariate_file_exits_2(tmp_path, capsys, command, text, message):
    x = tmp_path / "x.csv"
    x.write_text(text)
    code, _, err = run(capsys, command, "--design", "ar", "--p", "1", "--T", "3",
                       "--d-x", "1", "--theta", "0.5,1", "--x", str(x))
    assert code == 2
    assert re.search(message, err)


def test_covariate_file_is_read(tmp_path, capsys):
    x = tmp_path / "x.csv"
    x.write_text("0.5,-1,2\n")
    code, out, _ = run(capsys, "dset", "--design", "ar", "--p", "1", "--T", "3",
                       "--d-x", "1", "--theta", "0.5,1", "--x", str(x))
    assert code == 0 and json.loads(out)["Q"] == [1, 2, 2]


def test_verify_csv(capsys):
    code, out, _ = run(capsys, "verify", "--moment", "ar2_t3", "--draws", "3")
    assert code == 0
    rows = list(csv.reader(out.splitlines()[1:]))
    assert rows[0] == ["draw", "moment", "residual"]
    assert all(float(r[2]) < 1e-8 for r in rows[1:])


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["wperp", "--bogus-flag"])
    assert exc.value.code == 2


DGP = {"design": {"design": "ar", "p": 1, "T": 3}, "theta": [0.5], "n": 5}


def _dgp(**change):
    return {**DGP, **change}


@pytest.mark.parametrize("argv, doc, message", [
    pytest.param(("wperp", "--design", "ar", "--T", "3"), None,
                 "--design: ar design parameter p is missing", id="ar without --p"),
    pytest.param(("wperp", "--design", "poly", "--T", "3"), None,
                 "poly design parameter p is missing", id="poly without --p"),
    pytest.param(("wperp", "--design", "triadic", "--n1", "1", "--n2", "1"), None,
                 "triadic design parameter n3 is missing", id="triadic without --n3"),
    pytest.param(("wperp", "--design", "network", "--n", "3"), None,
                 "network design parameter tau is missing", id="network without --tau"),
    pytest.param(("wperp", "--design", "nonsense", "--T", "3"), None,
                 "unknown design 'nonsense'", id="unknown design"),
    pytest.param(("wperp", "--design", "dyadic", "--n", "1"), None,
                 "dyadic design parameter n must be an integer >= 2, found 1",
                 id="dyadic n=1"),
    pytest.param(("wperp", "--design", "panel", "--T", "0"), None,
                 "panel design parameter T must be an integer >= 1, found 0",
                 id="panel T=0"),
    pytest.param(("wperp",), None, "provide --model FILE or --design NAME",
                 id="no design"),
    pytest.param(("simulate", "--config"), {"theta": [0.5], "n": 5},
                 "DGP config lacks key 'design'", id="config without design"),
    pytest.param(("simulate", "--config"), "{'design': 'ar'}", "is not JSON",
                 id="config not JSON"),
    pytest.param(("simulate", "--config"), _dgp(n=-5),
                 "DGP config: n must be an integer >= 1, found -5", id="n negative"),
    pytest.param(("simulate", "--config"), _dgp(a_law={"kind": "cauchy"}),
                 "DGP config: a_law must have kind normal or correlated or "
                 "two_point, found {'kind': 'cauchy'}", id="unknown a_law"),
    pytest.param(("simulate", "--config"), _dgp(x_law={"kind": "t"}),
                 "DGP config: x_law must have kind", id="unknown x_law"),
    pytest.param(("simulate", "--config"), _dgp(y0_law={"burn_in": 5}),
                 "DGP config: y0_law must have kind", id="y0_law without kind"),
    pytest.param(("simulate", "--config"), _dgp(a_law={"kind": "correlated"}),
                 "DGP config: correlated a_law needs at least one covariate",
                 id="correlated a_law without covariates"),
    pytest.param(("simulate", "--config"), _dgp(theta=[0.5, 0.1]),
                 "DGP config: theta must have length 1, found 2", id="theta length"),
    pytest.param(("simulate", "--config"),
                 _dgp(design={"design": "ar", "p": 1, "T": 3, "q": 4}),
                 "DGP config: ar design takes no parameter 'q'", id="design extra key"),
    pytest.param(("simulate", "--seed", "-1", "--config"), DGP,
                 "--seed: seed must be an integer >= 0, found -1", id="negative --seed"),
    pytest.param(("mc", "--config"), {"dgp": DGP, "estimator": {"method": "cmle"}},
                 "mc config: replications is missing", id="mc without replications"),
    pytest.param(("mc", "--config"), {"dgp": DGP, "replications": 2},
                 "mc config lacks key 'estimator'", id="mc without estimator"),
    pytest.param(("mc", "--config"),
                 {"dgp": DGP, "estimator": {"method": "ols"}, "replications": 2},
                 "error: unknown method 'ols'", id="mc unknown method"),
    pytest.param(("wperp", "--model"), {"family": "ar", "T": 3, "p": 1},
                 "lacks key 'W'", id="model without W"),
    pytest.param(("wperp", "--model"), {"family": "ar", "T": 3, "p": 1, "W": [[1, 1]]},
                 "W must be d_w x T, got (1, 2) with T=3", id="model W shape"),
    pytest.param(("wperp", "--model"),
                 {"family": "ar", "T": 3, "p": 1, "W": [["a"] * 3]},
                 "model JSON", id="model W not numeric"),
    pytest.param(("wperp", "--model"),
                 {"family": "ar", "T": 3, "p": 1, "d_x": 1.5, "W": [[1, 1, 1]]},
                 "d_x must be an integer >= 0, found 1.5", id="model d_x not integer"),
    pytest.param(("simulate", "--config"),
                 _dgp(y0_law={"kind": "fixed", "value": [0, 1, 1]}),
                 "DGP config: fixed y0_law value must be 0, 1 or a 0/1 list of length 1, "
                 "found [0, 1, 1]", id="fixed y0_law value of the wrong length"),
    pytest.param(("simulate", "--config"), _dgp(y0_law={"kind": "fixed", "value": 7}),
                 "DGP config: fixed y0_law value must be 0, 1 or a 0/1 list of length 1, "
                 "found 7", id="fixed y0_law value not binary"),
])
def test_bad_design_or_document_exits_2(tmp_path, capsys, argv, doc, message):
    # a design, a config or a model file that is wrong is a usage error
    if doc is not None:
        path = tmp_path / "doc.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        argv = (*argv, str(path))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.splitlines()[-1].startswith("error: ") and message in err


@pytest.mark.parametrize("argv, message", [
    pytest.param(("moments", "--T", "15"), "error: an explicit null-space basis over "
                 "2^15 paths would need up to 8,589,934,592 bytes", id="moments T=15"),
    pytest.param(("pairs", "--T", "30", "--y0", "0"),
                 "error: pairs would enumerate 1,073,741,824 paths", id="pairs T=30"),
])
def test_size_refusal_exits_2_with_its_size(capsys, argv, message):
    code, out, err = run(capsys, *argv, "--design", "ar", "--p", "1")
    assert code == 2 and out == ""
    assert message in err


def test_csv_row_with_extra_fields_exits_2(tmp_path, capsys):
    data = tmp_path / "extra.csv"
    data.write_text("unit,t,y\n1,0,1,99\n1,1,0,abc\n1,2,1\n")
    code, out, err = run(capsys, "estimate", "--design", "ar", "--p", "1", "--T", "2",
                         "--method", "cmle", "--data", str(data))
    assert code == 2 and out == ""
    assert "error: sample CSV data row 1: expected 3 fields, found 4\n" in err


def test_internal_error_exits_1(capsys, monkeypatch):
    # a plain ValueError from inside a command is an internal error
    def fail(args):
        raise ValueError("an internal fault")

    monkeypatch.setattr(cli, "cmd_wperp", fail)
    code, _, err = run(capsys, "wperp", "--design", "panel", "--T", "3")
    assert code == 1 and "error: an internal fault\n" in err


def test_simulate_golden_bytes(tmp_path, capsys):
    cfg = {
        "design": {"design": "panel", "T": 2, "d_x": 1},
        "theta": [1.0],
        "n": 50,
        "seed": 3,
    }
    cfg_path = tmp_path / "dgp.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--config", str(cfg_path), "--output", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--output", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().startswith("# schema: felogit.sample.v1")
    # the file, and stdout without --output, hold write_sample_csv's bytes
    buf = io.StringIO(newline="")
    write_sample_csv(simulate.generate(cli._dgp_from_doc(cfg)), buf)
    assert out1.read_bytes() == buf.getvalue().encode()
    code, out, _ = run(capsys, "simulate", "--config", str(cfg_path))
    assert code == 0 and out == buf.getvalue()


def test_simulate_then_estimate_round_trip(tmp_path, capsys):
    spec = fl.build_design("panel_fe", T=2, d_x=1)
    model_path = tmp_path / "model.json"
    model_path.write_text(spec.to_json())
    cfg = {
        "model": json.loads(spec.to_json()),
        "theta": [1.0],
        "n": 4000,
        "seed": 5,
    }
    cfg_path = tmp_path / "dgp.json"
    cfg_path.write_text(json.dumps(cfg))
    data = tmp_path / "sample.csv"
    assert main(["simulate", "--config", str(cfg_path), "--output", str(data)]) == 0
    out = tmp_path / "report.json"
    code = main([
        "estimate", "--model", str(model_path), "--data", str(data),
        "--method", "pairwise", "--wperp", "1,-1", "--output", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(out.read_text())
    assert abs(doc["theta"]["beta1"] - 1.0) < 0.15
    assert doc["converged"] is True


def test_estimate_degenerate_exits_3(tmp_path, capsys):
    spec = fl.trend_ar(4)
    cfg = {
        "model": json.loads(spec.to_json()),
        "theta": [0.5],
        "n": 100,
        "seed": 6,
    }
    cfg_path = tmp_path / "dgp.json"
    cfg_path.write_text(json.dumps(cfg))
    data = tmp_path / "sample.csv"
    model_path = tmp_path / "model.json"
    model_path.write_text(spec.to_json())
    main(["simulate", "--config", str(cfg_path), "--output", str(data)])
    code = main([
        "estimate", "--model", str(model_path), "--data", str(data),
        "--method", "cmle",
    ])
    capsys.readouterr()
    assert code == 3


def test_sample_csv_round_trip():
    spec = fl.panel_ar(2, 4, d_x=2)
    cfg = simulate.DGPConfig(
        spec=spec, theta=np.array([0.5, -0.2, 1.0, 0.3]), n=40, seed=7,
        y0_law={"kind": "stationary", "burn_in": 20},
    )
    s = simulate.generate(cfg)
    buf = io.StringIO()
    write_sample_csv(s, buf)
    buf.seek(0)
    back = read_sample_csv(buf, spec)
    assert np.array_equal(back.Y, s.Y)
    assert np.array_equal(back.Y0, s.Y0)
    assert np.allclose(back.X, s.X)


def test_edge_csv_round_trip():
    spec = fl.network_design(3, 3, d_x=1)
    cfg = simulate.DGPConfig(
        spec=spec, theta=np.array([0.4, 0.2, 0.5]), n=15, seed=8,
        y0_law={"kind": "fixed", "value": [1, 0, 1]},
    )
    s = simulate.generate(cfg)
    buf = io.StringIO()
    write_edge_csv(s, buf)
    buf.seek(0)
    back = read_edge_csv(buf, spec)
    assert np.array_equal(back.Y, s.Y)
    assert np.array_equal(back.Y0, s.Y0)
    assert np.allclose(back.X, s.X)


def test_edge_csv_accepts_unitless_single_network():
    spec = fl.network_design(3, 1)
    text = "tau,i,j,y\n0,1,2,1\n0,1,3,0\n0,2,3,1\n1,1,2,0\n1,1,3,1\n1,2,3,1\n"
    back = read_edge_csv(io.StringIO(text), spec)
    assert back.n == 1
    assert back.Y0.tolist() == [[1, 0, 1]]
    assert back.Y.tolist() == [[0, 1, 1]]


def test_mc_command(tmp_path, capsys):
    cfg = {
        "dgp": {
            "design": {"design": "panel", "T": 2, "d_x": 1},
            "theta": [1.0],
            "n": 800,
            "seed": 9,
        },
        "estimator": {"method": "pairwise", "wperp": [[1, -1]]},
        "replications": 4,
    }
    cfg_path = tmp_path / "mc.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "mc.csv"
    assert main(["mc", "--config", str(cfg_path), "--output", str(out)]) == 0
    capsys.readouterr()
    rows = list(csv.reader(out.read_text().splitlines()[1:]))
    kinds = [r[0] for r in rows[1:]]
    assert kinds.count("rep") == 4 and kinds.count("summary") == 1
    summary = rows[-1]
    assert abs(float(summary[8])) < 0.2  # bias column


def test_round_trip_reads_every_emitted_json(tmp_path, capsys):
    # model JSON from the library is accepted back by the CLI loaders
    spec = fl.quarterly_ar(1, 6, d_x=1)
    path = tmp_path / "m.json"
    path.write_text(spec.to_json())
    ns_args = type("A", (), {"model": str(path), "design": None})
    loaded = cli._load_spec(ns_args)
    assert loaded.T == 6 and loaded.family == "ar"
    assert np.array_equal(loaded.W, spec.W)


@pytest.mark.parametrize("bad", ["0.5", "7", "300"])
def test_sample_csv_rejects_non_binary_outcome(bad):
    spec = fl.panel_ar(1, 3)
    s = simulate.generate(simulate.DGPConfig(spec=spec, theta=np.array([0.5]),
                                             n=3, seed=1))
    buf = io.StringIO()
    write_sample_csv(s, buf)
    lines = buf.getvalue().splitlines()
    row = next(k for k, line in enumerate(lines) if line.startswith("2,2,"))
    lines[row] = f"2,2,{bad}"
    with pytest.raises(ValueError, match=re.escape(f"found '{bad}'")):
        read_sample_csv(io.StringIO("\n".join(lines)), spec)



def _replace_row(text, prefix, row):
    lines = text.splitlines()
    k = next(k for k, line in enumerate(lines) if line.startswith(prefix))
    lines[k: k + 1] = [row] if row else []
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("design, prefix, row, message", [
    ("ar", "2,2,", "2,2,7", "sample CSV data row 7: y must be 0 or 1, found '7'"),
    ("ar", "3,2,", None, "sample CSV: unit 3 has no rows for t = 2"),
    ("network", "2,1,1,3,", None,
     "edge CSV: unit 2 has no rows for tau,i,j = 1,1,3"),
])
def test_estimate_malformed_data_exits_2(tmp_path, capsys, design, prefix, row,
                                         message):
    spec = fl.panel_ar(1, 3) if design == "ar" else fl.network_design(3, 2)
    s = simulate.generate(simulate.DGPConfig(
        spec=spec, theta=np.full(spec.theta_dim, 0.5), n=4, seed=2))
    buf = io.StringIO()
    (write_sample_csv if design == "ar" else write_edge_csv)(s, buf)
    data = tmp_path / "data.csv"
    data.write_text(_replace_row(buf.getvalue(), prefix, row))
    code, _, err = run(capsys, "estimate", "--design", design, "--p", "1",
                       "--T", "3", "--n", "3", "--tau", "2", "--data", str(data),
                       "--method", "cmle")
    assert code == 2
    assert f"error: {message}\n" in err


def test_module_entry_point_exit_codes(tmp_path):
    # Through `python -m felogit`, so the exit code must survive sys.exit.
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))

    def felogit(*argv):
        return subprocess.run([sys.executable, "-m", "felogit", *argv], env=env,
                              capture_output=True, text=True, timeout=300)

    cfg = tmp_path / "dgp.json"
    cfg.write_text(json.dumps({"design": {"design": "ar", "p": 2, "T": 3},
                               "theta": [0.5, -0.3], "n": 2000, "seed": 4}))
    data = tmp_path / "sample.csv"
    done = felogit("simulate", "--config", str(cfg), "--output", str(data))
    assert done.returncode == 0, done.stderr
    estimate = ["estimate", "--design", "ar", "--p", "2", "--T", "3",
                "--data", str(data), "--method", "gmm"]
    done = felogit(*estimate)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["converged"] is True
    data.write_text(_replace_row(data.read_text(), "5,1,", "5,1,x"))
    done = felogit(*estimate)
    assert done.returncode == 2
    assert "y must be 0 or 1, found 'x'" in done.stderr
