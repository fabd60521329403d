import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import felogit as fl
from felogit import cli, estimation, simulate
from felogit.cli import main, read_sample_csv, write_sample_csv


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


def test_dset_constant_column_design_is_counted_at_T30(tmp_path, capsys):
    # W = 2 ones: d = 2k for k = 0..sum(Q), counted in closed form where
    # the walk over (Q_t + 1) choices per period would be refused
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"schema_version": 1, "family": "ar", "T": 30,
                                "d_x": 0, "W": [[2.0] * 30], "p": 1}))
    code, out, _ = run(capsys, "dset", "--model", str(path), "--theta", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["Q"] == [1] + [2] * 29 and doc["cardinality"] == 60


@pytest.mark.parametrize("scale", ["0.1", "1"])
def test_decimal_trend_design_counts_as_its_integer_multiple(tmp_path, capsys, scale):
    # W = 0.1 (1..5) is W = (1..5) with A rescaled: 0.1 + 0.2 and 0.3 are
    # one exponent, so |D| = 30, the bound is 2 and so is the dimension
    W = [0.1, 0.2, 0.3, 0.4, 0.5] if scale == "0.1" else [1, 2, 3, 4, 5]
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"family": "ar", "T": 5, "p": 1, "W": [W]}))
    flags = ["--model", str(path), "--theta", "0.5", "--y0", "0"]
    code, out, _ = run(capsys, "dset", *flags)
    assert code == 0
    assert json.loads(out) == {"Q": [1, 2, 2, 2, 2], "cardinality": 30, "bound": 2}
    code, out, _ = run(capsys, "moments", *flags)
    doc = json.loads(out)
    assert code == 0 and 0.0 <= doc.pop("max_residual") < 1e-8
    assert doc == {"Q": [1, 2, 2, 2, 2], "dset_cardinality": 30, "bound": 2,
                   "nullspace_dimension": 2, "weak_separation": False}


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


def test_chained_design_columns_exit_2(tmp_path, capsys):
    path = tmp_path / "chained.json"
    path.write_text(json.dumps({"schema_version": 1, "family": "static", "T": 3,
                                "d_x": 1, "W": [[0.1, 0.1 + 6e-10, 0.1 + 1.2e-9]]}))
    code, out, err = run(capsys, "wperp", "--model", str(path))
    assert code == 2 and out == ""
    assert f"error: model JSON {path}: values 0.1 to" in err
    assert "chained by gaps of at most 1e-9" in err


def test_chained_loadings_exit_2(tmp_path, capsys):
    # the columns key apart, but the loadings W y of the paths chain:
    # 0.3 (y4), 0.3000000006 (y1 + y2) and 0.3000000012 (y3)
    W = [[0.1, 0.2000000006, 0.3000000012, 0.3]]
    spec = fl.ModelSpec("static", 4, W, d_x=1)
    path, data = tmp_path / "chained.json", tmp_path / "chained.csv"
    path.write_text(spec.to_json())
    with open(data, "w") as fh:
        write_sample_csv(simulate.generate(simulate.DGPConfig(
            spec=spec, theta=[1.0], n=50, seed=1)), fh)
    code, out, err = run(capsys, "estimate", "--model", str(path), "--data", str(data),
                         "--method", "cmle")
    assert code == 2 and out == ""
    assert "error: values 0.3 to 0.3000000012 are chained by gaps of at most 1e-9" in err


def test_mc_model_mismatch_is_refused_before_any_replication(tmp_path, capsys,
                                                             monkeypatch):
    def no_replication(*args, **kwargs):
        pytest.fail("a replication ran")

    monkeypatch.setattr(simulate, "generate", no_replication)
    monkeypatch.setattr(simulate, "monte_carlo", no_replication)
    cfg = tmp_path / "mc.json"
    for design, theta, estimator, message in [
        ({"design": "trend-ar", "T": 6, "d_x": 1}, [0.5, 1.0],
         {"method": "gmm", "moments": "quarterly_t6"},
         "error: moment library quarterly_t6 holds under"),
        ({"design": "ar", "p": 2, "T": 3}, [0.5, -0.3],
         {"method": "gmm", "weighting": "bogus"},
         "error: weighting must be identity or two-step, found 'bogus'\n"),
        ({"design": "panel_fe", "T": 3, "d_x": 1}, [1.0],
         {"method": "pairwise", "wperp": [[1, -1]]}, _not_differencing("1,-1")),
    ]:
        cfg.write_text(json.dumps({
            "dgp": {"design": design, "theta": theta, "n": 500, "seed": 1},
            "estimator": estimator, "replications": 3}))
        code, out, err = run(capsys, "mc", "--config", str(cfg))
        assert code == 2 and out == ""
        assert message in err


def _mc_threads(tmp_path, capsys, monkeypatch, argv, env, config):
    """Exit code, stderr and the thread count passed to monte_carlo (None
    when it was not called) of ``felogit mc`` on a small config."""
    called = []

    def record(cfg, estimator, reps, threads):
        called.append(threads)
        return [], {"n_failed": 0}

    monkeypatch.setattr(simulate, "monte_carlo", record)
    if env is None:
        monkeypatch.delenv("FELOGIT_THREADS", raising=False)
    else:
        monkeypatch.setenv("FELOGIT_THREADS", env)
    cfg = tmp_path / "mc.json"
    cfg.write_text(json.dumps({"dgp": {**DGP, "seed": 1}, "estimator": {"method": "cmle"},
                               "replications": 2, **config}))
    code, _, err = run(capsys, "mc", "--config", str(cfg), *argv)
    return code, err, called[0] if called else None


@pytest.mark.parametrize("argv, env, config, message", [
    (["--threads", "-1"], None, {}, "--threads: threads must be an integer >= 1, found -1"),
    (["--threads", "0"], "2", {}, "--threads: threads must be an integer >= 1, found 0"),
    ([], "abc", {}, "FELOGIT_THREADS: threads must be an integer >= 1, found 'abc'"),
    ([], "-3", {"threads": 2}, "FELOGIT_THREADS: threads must be an integer >= 1, found -3"),
    ([], "1.5", {}, "FELOGIT_THREADS: threads must be an integer >= 1, found '1.5'"),
    ([], None, {"threads": 0}, "mc config: threads must be an integer >= 1, found 0"),
], ids=["negative flag", "zero flag", "text variable", "negative variable",
        "fraction variable", "zero config"])
def test_bad_thread_count_exits_2_naming_its_source(tmp_path, capsys, monkeypatch,
                                                    argv, env, config, message):
    code, err, threads = _mc_threads(tmp_path, capsys, monkeypatch, argv, env, config)
    assert (code, threads) == (2, None)
    assert f"error: {message}\n" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, env, config, want", [
    (["--threads", "3"], "abc", {"threads": 4}, 3),
    ([], "2", {"threads": 4}, 2),
    ([], "", {"threads": 4}, 4),
    ([], None, {}, 1),
], ids=["flag", "variable", "empty variable", "default"])
def test_thread_count_precedence(tmp_path, capsys, monkeypatch, argv, env, config, want):
    # the flag, then FELOGIT_THREADS, then the config's threads, then 1;
    # only the source that sets the count is read
    code, err, threads = _mc_threads(tmp_path, capsys, monkeypatch, argv, env, config)
    assert (code, threads) == (0, want), err


@pytest.mark.parametrize("argv, env, config, echo", [
    (["--threads", "3"], "2", {"threads": 4}, {"threads": 3, "source": "--threads"}),
    ([], "2", {"threads": 4}, {"threads": 2, "source": "FELOGIT_THREADS"}),
    ([], None, {"threads": 4}, {"threads": 4, "source": "mc config"}),
    ([], None, {}, {"threads": 1, "source": "default"}),
], ids=["flag", "variable", "config", "default"])
def test_mc_echoes_the_thread_count_and_its_source(tmp_path, capsys, monkeypatch,
                                                   argv, env, config, echo):
    # the "# config:" line echoes the flag as parsed; the count the run
    # used, and where it came from, follow on a line of their own
    code, err, threads = _mc_threads(tmp_path, capsys, monkeypatch, argv, env, config)
    assert (code, threads) == (0, echo["threads"]), err
    assert f"# threads: {json.dumps(echo)}\n" in err


def test_thread_variable_is_read_by_mc_only(capsys, monkeypatch):
    monkeypatch.setenv("FELOGIT_THREADS", "abc")
    code, out, err = run(capsys, "table1", "--max-p", "1")
    assert code == 0 and "error" not in err
    assert out.splitlines()[2] == "0,2,1 -1"


def test_gmm_quarterly_moments_take_the_nested_panel_ar1(tmp_path, capsys):
    # W = 1' lies in the row space of the quarterly design, so the
    # quarterly T=6 moments hold for panel AR(1) T=6
    argv = ("estimate", *AR, "1", "--T", "6", "--d-x", "1", "--method", "gmm",
            "--moments", "quarterly_t6")
    code, out, err = run(capsys, *argv, "--data", _sample_file(tmp_path, argv))
    assert code == 0, err
    doc = json.loads(out)
    assert list(doc["theta"]) == ["gamma1", "beta1"] and doc["diagnostics"]["n_moments"] == 6


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


def _check_verify_csv(capsys, moment, names):
    code, out, _ = run(capsys, "verify", "--moment", moment, "--draws", "3")
    assert code == 0
    rows = list(csv.reader(out.splitlines()[1:]))
    assert rows[0] == ["draw", "moment", "residual"]
    assert len(rows) == 1 + 3 * len(names) and {r[1] for r in rows[1:]} == names
    assert all(float(r[2]) < 1e-8 for r in rows[1:])


def test_verify_csv(capsys):
    _check_verify_csv(capsys, "ar2_t3", {"ar2_t3"})


@pytest.mark.parametrize("moment, names", [
    ("quarterly_t6", {"quarterly_m1", "quarterly_m2"}),
    ("network_t3", {"network_t3"}),
])
def test_verify_csv_other_moment_libraries(capsys, moment, names):
    _check_verify_csv(capsys, moment, names)


@pytest.mark.parametrize("name", sorted(cli.LIBRARIES))
def test_library_moments_lie_in_the_null_space_of_their_model(name):
    # drawn as ``verify`` draws them, every moment of a catalogue library is
    # annihilated by its reference model's row-max-normalized coefficient
    # matrix, so each holds at every fixed effect, not only on a grid
    lib, rng = cli.LIBRARIES[name], np.random.default_rng(0)
    spec = lib.reference(1)
    for _ in range(20):
        theta = rng.uniform(-lib.h, lib.h, spec.theta_dim)
        X = rng.normal(size=(spec.d_x, spec.T)) if spec.d_x else None
        y0 = rng.integers(0, 2, spec.y0_len)
        C = fl.moments.coefficient_matrix(spec, y0, X, theta)[0]
        C = C / np.abs(C).max(axis=1, keepdims=True)
        for moment, m in lib.named(spec, rng, theta, y0, X):
            assert np.abs(C @ m.values).max() <= 1e-10 * np.abs(m.values).max(), moment


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["wperp", "--bogus-flag"])
    assert exc.value.code == 2


DGP = {"design": {"design": "ar", "p": 1, "T": 3}, "theta": [0.5], "n": 5}
TREND_AR = {"design": "trend-ar", "T": 6, "d_x": 1}


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
    pytest.param(("mc", "--config"),
                 {"dgp": _dgp(design=TREND_AR, theta=[0.5, 1.0]), "replications": 2,
                  "estimator": {"method": "gmm", "moments": "quarterly_t6"}},
                 "error: moment library quarterly_t6 holds under ModelSpec(ar, T=6, "
                 "d_w=4, d_x=1, p=1) and the designs whose W rows lie in its row space, "
                 "found ModelSpec(ar, T=6, d_w=2, d_x=1, p=1)",
                 id="mc trend-ar quarterly_t6"),
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
    # a law parameter that is misspelt or out of range
    pytest.param(("simulate", "--config"), _dgp(a_law={"kind": "normal", "sd": 5}),
                 "DGP config: a_law normal takes loc, scale, found sd\n",
                 id="a_law normal sd"),
    pytest.param(("simulate", "--config"),
                 _dgp(y0_law={"kind": "stationary", "burnin": 500}),
                 "DGP config: y0_law stationary takes burn_in, found burnin\n",
                 id="y0_law stationary burnin"),
    pytest.param(("simulate", "--config"),
                 _dgp(design={"design": "ar", "p": 1, "T": 3, "d_x": 1}, theta=[0.5, 1.0],
                      x_law={"kind": "ar", "phi": 1.5}),
                 "DGP config: x_law phi must be a finite number in (-1, 1), found 1.5\n",
                 id="x_law ar phi=1.5"),
    pytest.param(("simulate", "--config"), _dgp(a_law={"kind": "normal", "scale": -1}),
                 "DGP config: a_law scale must be a finite number >= 0, found -1\n",
                 id="a_law scale negative"),
    pytest.param(("simulate", "--config"), _dgp(a_law={"kind": "two_point", "p": 1.5}),
                 "DGP config: a_law p must be a finite number in [0, 1], found 1.5\n",
                 id="a_law two_point p=1.5"),
    pytest.param(("simulate", "--config"), _dgp(a_law={"kind": "normal", "loc": "0"}),
                 "DGP config: a_law loc must be a finite number, found '0'\n",
                 id="a_law loc a string"),
    pytest.param(("simulate", "--config"), _dgp(a_law={"kind": "normal", "scale": True}),
                 "DGP config: a_law scale must be a finite number >= 0, found True\n",
                 id="a_law scale a bool"),
    pytest.param(("simulate", "--config"), _dgp(a_law={"kind": "normal", "loc": 10**400}),
                 f"DGP config: a_law loc must be a finite number, found {10**400}\n",
                 id="a_law loc past the float range"),
    pytest.param(("simulate", "--config"),
                 _dgp(y0_law={"kind": "stationary", "burn_in": 2.5}),
                 "DGP config: y0_law burn_in must be an integer >= 0, found 2.5\n",
                 id="y0_law burn_in not integer"),
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


@pytest.mark.parametrize("argv, message", [
    pytest.param(("netcond", "--n", "5", "--y0", "0" * 10, "--path", "0" * 30,
                  "--set", "full"),
                 "error: network conditioning classes need a scan of 1,048,576 "
                 "candidates", id="netcond full n=5"),
    pytest.param(("moments", "--design", "network", "--n", "4", "--tau", "2",
                  "--theta", "0.5,0.2", "--y0", "000000"),
                 "error: the coefficient matrix would be |D| x 2^T = 262,144 x 4,096, "
                 "8,589,934,592 bytes", id="moments network n=4 tau=2"),
    pytest.param(("wperp", "--design", "poly", "--p", "1", "--T", "41"),
                 "error: exhaustive search over 3^41 = 3.65e+19 sign vectors",
                 id="wperp poly T=41"),
    pytest.param(("wperp", "--design", "dyadic", "--n", "12"),
                 "error: exhaustive search over 3^66 = 3.09e+31 sign vectors",
                 id="wperp dyadic n=12"),
])
def test_search_size_refusal_exits_2_with_its_size(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err


def test_estimate_path_enumeration_refusal_exits_2(tmp_path, capsys):
    spec = fl.build_design("panel", T=25, d_x=1)
    sample = simulate.generate(simulate.DGPConfig(spec=spec, theta=[0.5], n=20, seed=1))
    data = tmp_path / "panel25.csv"
    with open(data, "w") as fh:
        write_sample_csv(sample, fh)
    code, out, err = run(capsys, "estimate", "--design", "panel", "--T", "25",
                         "--d-x", "1", "--method", "cmle", "--data", str(data))
    assert code == 2 and out == ""
    assert "error: path enumeration over 2^25 = 33,554,432 paths" in err


AR = ("--design", "ar", "--p")
NETWORK = ("--design", "network", "--n", "3", "--tau", "3")
CMLE_TAKES = "cmle takes static designs with d_x >= 1 or ar designs or network designs"


def _held_under(library, reference, found):
    return (f"error: moment library {library} holds under ModelSpec({reference}) and the "
            f"designs whose W rows lie in its row space, found ModelSpec({found})\n")


PANEL_FE3 = ("estimate", "--design", "panel_fe", "--T", "3", "--d-x", "1",
             "--method", "pairwise")


def _not_differencing(w):
    return (f"error: differencing vector [{w.replace(',', ', ')}] must have length 3, "
            "entries in -1, 0, 1, a nonzero entry and W w = 0 under ModelSpec(static, "
            "T=3, d_w=1, d_x=1)\n")


def _sample_file(tmp_path, argv):
    """A 20-unit sample of the model of ``estimate`` flags ``argv``, as a CSV file."""
    spec = cli._load_spec(cli.build_parser().parse_args([*argv, "--data", ""]))
    sample = simulate.generate(simulate.DGPConfig(
        spec=spec, theta=np.full(spec.theta_dim, 0.5), n=20, seed=1))
    path = tmp_path / "sample.csv"
    with open(path, "w") as fh:
        write_sample_csv(sample, fh)
    return str(path)


@pytest.mark.parametrize("argv, message", [
    pytest.param(("pairs", "--design", "quarterly", "--p", "2", "--T", "5", "--y0", "00"),
                 "error: pairs needs an AR(1) design (--p 1)", id="pairs AR(2)"),
    pytest.param(("pairs", "--design", "quarterly", "--p", "1", "--T", "6", "--d-x", "1",
                  "--y0", "0", "--theta", "0.3,0.2"),
                 "error: pairs is covariate-free (--d-x 0), found d_x = 1",
                 id="pairs with covariates"),
    pytest.param(("pairs", *AR, "1", "--T", "16", "--y0", "0"),
                 "error: pairs would certify 155,084,752 pairs, a table of 7,754,237,600 "
                 "bytes (limit 2^22 pairs)", id="pairs AR(1) T=16"),
    pytest.param(("dset", "--design", "two_way", "--n", "3", "--tau", "3", "--d-x", "1",
                  "--theta", "0.5"),
                 "error: --x is required: a covariate CSV of d_x x T = (1, 9)",
                 id="dset with covariates and no --x"),
    pytest.param(("table1", "--max-p", "7"),
                 "error: --max-p must be at most 6, found 7", id="table1 p=7"),
    pytest.param(("table1", "--max-p", "-1"),
                 "error: --max-p must be at least 0, found -1", id="table1 p=-1"),
    *[pytest.param(("wperp", "--design", "poly", "--p", "1", "--T", "4",
                    "--max-solutions", k),
                   f"error: --max-solutions must be at least 1, found {k}",
                   id=f"wperp max-solutions {k}") for k in ("0", "-3")],
    # a method or moment library applied outside the model it holds for
    pytest.param(("estimate", "--design", "trend-ar", "--T", "6", "--d-x", "1",
                  "--method", "gmm", "--moments", "quarterly_t6"),
                 _held_under("quarterly_t6", "ar, T=6, d_w=4, d_x=1, p=1",
                             "ar, T=6, d_w=2, d_x=1, p=1"), id="gmm quarterly_t6 trend-AR"),
    pytest.param(("estimate", *AR, "2", "--T", "4", "--method", "gmm"),
                 _held_under("ar2_t3", "ar, T=3, d_w=1, d_x=0, p=2",
                             "ar, T=4, d_w=1, d_x=0, p=2"), id="gmm ar2_t3 AR(2) T=4"),
    pytest.param(("estimate", *AR, "2", "--T", "3", "--d-x", "1", "--method", "gmm"),
                 _held_under("ar2_t3", "ar, T=3, d_w=1, d_x=0, p=2",
                             "ar, T=3, d_w=1, d_x=1, p=2"), id="gmm ar2_t3 AR(2) d_x=1"),
    pytest.param(("estimate", *NETWORK, "--method", "gmm"),
                 _held_under("ar2_t3", "ar, T=3, d_w=1, d_x=0, p=2",
                             "network, T=9, d_w=3, d_x=0, n=3, tau=3"), id="gmm network"),
    pytest.param(("estimate", "--design", "panel", "--T", "3", "--method", "cmle"),
                 f"error: {CMLE_TAKES}, found ModelSpec(static, T=3, d_w=1, d_x=0)\n",
                 id="cmle static d_x=0"),
    pytest.param(("estimate", *AR, "1", "--T", "6", "--d-x", "1", "--method", "pairwise"),
                 "error: pairwise takes static designs with d_x >= 1, found "
                 "ModelSpec(ar, T=6, d_w=1, d_x=1, p=1)\n", id="pairwise AR(1) d_x=1"),
    # a differencing vector that does not difference out the design
    *[pytest.param((*PANEL_FE3, "--wperp", w), _not_differencing(w), id=f"wperp {w}")
      for w in ("1,0,0", "1,-1", "0,0,0", "2,-2,0", "1,-1,1,-1")],
])
def test_flag_outside_its_range_exits_2(tmp_path, capsys, argv, message):
    if argv[0] == "estimate":  # a small sample of the model that the flags give
        argv = (*argv, "--data", _sample_file(tmp_path, argv))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err


def test_estimate_cmle_takes_ar_with_covariates(tmp_path, capsys):
    # the AR classes condition on (y0, X), so a binary covariate leaves
    # classes with several members
    from oracles import binary_x_sample

    sample = binary_x_sample(fl.panel_ar(1, 4, d_x=1), [0.5, 1.0], n=2000, seed=3)
    data = tmp_path / "ar_x.csv"
    with open(data, "w") as fh:
        write_sample_csv(sample, fh)
    code, out, _ = run(capsys, "estimate", *AR, "1", "--T", "4", "--d-x", "1",
                       "--method", "cmle", "--data", str(data))
    assert code == 0
    doc = json.loads(out)
    with open(data) as fh:
        want = estimation.cmle_dynamic_ar(read_sample_csv(fh, sample.spec))
    assert doc["theta"] == pytest.approx(dict(zip(want.names, want.theta)), rel=1e-10)
    assert all(np.isfinite(list(doc["std_errors"].values())))


def test_estimate_cmle_fits_a_network_edge_list(tmp_path, capsys):
    # the classes of a tau = 3 network are its network_cond_full sets
    spec = fl.network_design(3, 3)
    sample = simulate.generate(simulate.DGPConfig(spec=spec, theta=np.array([0.8, -0.5]),
                                                  n=2000, seed=5))
    data = tmp_path / "edges.csv"
    with open(data, "w") as fh:
        write_sample_csv(sample, fh)
    code, out, _ = run(capsys, "estimate", *NETWORK, "--method", "cmle", "--data", str(data))
    assert code == 0
    doc = json.loads(out)
    want = estimation.cmle(sample)
    assert doc["theta"] == pytest.approx(dict(zip(want.names, want.theta)), rel=1e-10)
    assert doc["std_errors"] == pytest.approx(dict(zip(want.names, want.std_errors)), rel=1e-10)
    assert doc["diagnostics"]["not_identified"] == []


def test_estimate_prints_a_coordinate_without_standard_error_as_null(tmp_path, capsys):
    # gamma1 of an AR(2) at T = 4 is not identified: its SE is NaN, which
    # JSON has no literal for
    argv = ("estimate", *AR, "2", "--T", "4", "--method", "cmle")
    code, out, _ = run(capsys, *argv, "--data", _sample_file(tmp_path, argv))

    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    doc = json.loads(out, parse_constant=refuse)
    assert code == 0 and doc["diagnostics"]["not_identified"] == ["gamma1"]
    assert doc["std_errors"]["gamma1"] is None and doc["theta"]["gamma1"] == 0.0


def test_pairwise_report_names_its_vectors_and_the_periods_they_touch(tmp_path, capsys):
    # the default search's first 16 vectors at T=9 leave periods 1-4 out
    argv = ("estimate", "--design", "panel_fe", "--T", "9", "--d-x", "1",
            "--method", "pairwise")
    data = _sample_file(tmp_path, argv)
    for extra, vectors, periods in (((), 16, [5, 6, 7, 8, 9]),
                                    (("--wperp", "0,1,0,0,0,0,0,-1,0"), 1, [2, 8])):
        code, out, _ = run(capsys, *argv, "--data", data, *extra)
        diagnostics = json.loads(out)["diagnostics"]
        assert code == 0
        assert (diagnostics["n_vectors"], diagnostics["periods_used"]) == (vectors, periods)


def test_csv_row_with_extra_fields_exits_2(tmp_path, capsys):
    data = tmp_path / "extra.csv"
    data.write_text("unit,t,y\n1,0,1,99\n1,1,0,abc\n1,2,1\n")
    code, out, err = run(capsys, "estimate", "--design", "ar", "--p", "1", "--T", "2",
                         "--method", "cmle", "--data", str(data))
    assert code == 2 and out == ""
    assert "error: sample CSV data row 1: expected 3 fields, found 4\n" in err


def test_sample_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    data = tmp_path / "bad.csv"
    data.write_bytes(b"unit,t,y\n1,0,1\n1,1,\xff\n1,2,0\n")
    code, out, err = run(capsys, "estimate", "--design", "ar", "--p", "1", "--T", "2",
                         "--method", "cmle", "--data", str(data))
    assert code == 2 and out == ""
    assert f"error: {data}: byte 19 is not UTF-8 (invalid start byte)\n" in err


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


# felogit simulate -> estimate through files at seed 41, n = 2,000, with
# stationary initial outcomes: the sha256 of each simulated file, and the
# estimates and standard errors printed, equal at relative 1e-8.  CI runs
# this test at the default BLAS thread count and at one thread.
GOLDEN_ESTIMATES = {
    "ar2_t3 gmm": (
        {"design": "ar", "p": 2, "T": 3}, [0.5, -0.3], ["--method", "gmm"],
        "f5f07d3500d964bab57ddfeaabe8c4648e0595fb4d0f42e056d39ff6c38674a5",
        {"gamma1": (-0.00533731307009, 0.211348404855),
         "gamma2": (-0.520910670952, 0.183260154326)}),
    "quarterly_t6 gmm": (
        {"design": "quarterly", "p": 1, "T": 6, "d_x": 1}, [0.5, 1.0],
        ["--method", "gmm", "--moments", "quarterly_t6"],
        "8250d421aeb99d01980652d9cdab377c56fa7fd348e7a2049af6dd18a26eea93",
        {"gamma1": (0.345635119982, 0.527938457436),
         "beta1": (0.892149341498, 0.0695610944124)}),
    "ar1 cmle": (
        {"design": "ar", "p": 1, "T": 4}, [0.5], ["--method", "cmle"],
        "7a5d5aa1a34505531e9859be01537cba51a03eb75029d2dc77c5808d156936cb",
        {"gamma1": (0.483841204994, 0.0798788812397)}),
    "panel pairwise": (
        {"design": "panel", "T": 3, "d_x": 1}, [1.0], ["--method", "pairwise"],
        "70822cade21abf0c26bf6849af52a434a4ff7f14949bfd5d39c95a9e681eaf6a",
        {"beta1": (1.02860779838, 0.0500769004381)}),
    "network cmle": (
        {"design": "network", "n": 3, "tau": 3}, [0.8, -0.5], ["--method", "cmle"],
        "15083a481b02cfc7a055812890c1094954d1c61ace62f30080b5d12ff628f805",
        {"gamma": (0.827427104599, 0.0791180098815),
         "delta": (-0.439693175023, 0.0806742202326)}),
}


@pytest.mark.parametrize("case", GOLDEN_ESTIMATES)
def test_simulate_then_estimate_golden_transcripts(tmp_path, capsys, monkeypatch, case):
    design, theta, method, digest, want = GOLDEN_ESTIMATES[case]
    cfg, data = tmp_path / "dgp.json", tmp_path / "sample.csv"
    cfg.write_text(json.dumps({"design": design, "theta": theta, "n": 2000, "seed": 41,
                               "y0_law": {"kind": "stationary", "burn_in": 50}}))
    assert main(["simulate", "--config", str(cfg), "--output", str(data)]) == 0
    assert hashlib.sha256(data.read_bytes()).hexdigest() == digest
    flags = [arg for key, value in design.items()
             for arg in (f"--{key.replace('_', '-')}", str(value))]
    code, out, _ = run(capsys, "estimate", *flags, "--data", str(data), *method)
    doc = json.loads(out)
    assert code == 0 and doc["converged"] is True
    for name, (estimate, se) in want.items():
        assert doc["theta"][name] == pytest.approx(estimate, rel=1e-8)
        assert doc["std_errors"][name] == pytest.approx(se, rel=1e-8)
        assert abs(estimate - theta[list(want).index(name)]) < 4 * se
    # read in blocks of a few dozen rows, the file gives the same report
    monkeypatch.setattr(cli, "BLOCK", 4096)
    assert run(capsys, "estimate", *flags, "--data", str(data), *method)[1] == out


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
    write_sample_csv(s, buf)
    buf.seek(0)
    back = read_sample_csv(buf, spec)
    assert np.array_equal(back.Y, s.Y)
    assert np.array_equal(back.Y0, s.Y0)
    assert np.allclose(back.X, s.X)


def test_edge_csv_accepts_unitless_single_network():
    spec = fl.network_design(3, 1)
    text = "tau,i,j,y\n0,1,2,1\n0,1,3,0\n0,2,3,1\n1,1,2,0\n1,1,3,1\n1,2,3,1\n"
    back = read_sample_csv(io.StringIO(text), spec)
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


def test_mc_rows_carry_elapsed_s(tmp_path, capsys):
    # every replication row, failed ones included, carries its wall time
    cfg = {"dgp": {"design": {"design": "ar", "p": 1, "T": 3}, "theta": [0.5],
                   "n": 3, "seed": 4},
           "estimator": {"method": "cmle"}, "replications": 6}
    cfg_path = tmp_path / "mc.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "mc", "--config", str(cfg_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# schema: felogit.mc.v2"
    rows = list(csv.DictReader(lines[1:]))
    assert list(rows[0]) == ["kind", "rep", "seed", "name", "estimate", "se",
                             "converged", "error", "bias", "rmse", "coverage",
                             "n_ok", "elapsed_s"]
    reps = [r for r in rows if r["kind"] == "rep"]
    assert {r["rep"] for r in reps} == {str(k) for k in range(6)}
    assert any(r["error"] for r in reps)
    assert all(float(r["elapsed_s"]) >= 0 for r in reps)
    assert all(r["elapsed_s"] == "" for r in rows if r["kind"] == "summary")


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
    write_sample_csv(s, buf)
    data = tmp_path / "data.csv"
    data.write_text(_replace_row(buf.getvalue(), prefix, row))
    code, _, err = run(capsys, "estimate", "--design", design, "--p", "1",
                       "--T", "3", "--n", "3", "--tau", "2", "--data", str(data),
                       "--method", "cmle")
    assert code == 2
    assert f"error: {message}\n" in err


# The README's file-free examples (table1 at a smaller --max-p) with
# their documented exit codes.
IDENTIFICATION_COMMANDS = [
    (["table1", "--max-p", "2"], 0),
    (["wperp", "--design", "dyadic", "--n", "4"], 0),
    (["wperp", "--design", "poly", "--p", "1", "--T", "3"], 3),
    (["pairs", "--design", "ar", "--p", "1", "--T", "3", "--y0", "0", "--require-gap"], 0),
    (["netcond", "--n", "3", "--y0", "000", "--path", "101101000",
      "--theta", "0.5,0.2", "--set", "full"], 0),
    (["dset", "--design", "quarterly", "--p", "1", "--T", "6", "--theta", "0.9",
      "--y0", "0"], 0),
    (["moments", "--design", "ar", "--p", "1", "--T", "3", "--theta", "0.5", "--y0", "0"], 0),
]


def _src_env():
    """The environment of a new interpreter that imports felogit from src."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    return dict(os.environ, PYTHONPATH=os.path.abspath(src))


def _fresh_python(script, *args):
    """Run ``script`` in a new interpreter and return the JSON document
    it prints last."""
    done = subprocess.run([sys.executable, "-c", script, *args], env=_src_env(),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


# sha256 of the stdout of the identification commands: the w_perp
# commands pin Table 1 up to p = 6 and the search's output order, and
# pairs and netcond pin the certified pairs and one network
# conditioning set; they use no BLAS, so the bytes are exact
GOLDEN_TRANSCRIPTS = {
    "table1 --max-p 6":
        "a68f1289cc0f8413da1af3095e31463571ce7d427b2ff276614734eab6cf8130",
    "wperp --design dyadic --n 4":
        "7d95b272b97dc8e9de486e639207ff1fe7e7b3b9f6da68e0fe3fc6a1c2369a16",
    "wperp --design poly --p 3 --T 12":
        "34d8267804861656efed98393b3092c3d8cd5fe3e9d0a654c9a0b6580ad23169",
    # every pair with transition gap 0 prints log_ratio 0.0
    "pairs --design ar --p 1 --T 9 --y0 0 --theta 0.7":
        "7955ba905342328dab555e242b69c4f9748c875a1bd841b58fcc8e62f23940f6",
    "pairs --design quarterly --p 1 --T 7 --y0 1 --require-gap":
        "55fb4d17d43149e652281bb9922ecdba64c64a47233ee9638f6450514546dc83",
    "netcond --n 3 --y0 000 --path 101101000 --theta 0.5,0.2 --set full":
        "2cc423fbc2704c31ab487342fb382dfea392513bfbca754fa1706cefcc8b6e3f",
    # the exponent sets of the benchmark's two moment flows and a trend-AR one
    "dset --design ar --p 1 --T 9 --theta 0.9 --y0 0":
        "46079bd5be1b4f158100b3fcef33b524e08a134e02171c95d891d99caa001b7a",
    "dset --design quarterly --p 1 --T 9 --theta 0.9 --y0 0":
        "2c6040e7f096fd4e0fe1cf32f3f94ef6051aa4acc4ffa6833985b5ac674fd97d",
    "dset --design trend-ar --T 9 --theta 0.9 --y0 0":
        "f4879daa60b3a9e1cf786fa08656c25ebd7f457ead9f0d6f964ed5e9447b3fa8",
}


@pytest.mark.parametrize("command", GOLDEN_TRANSCRIPTS)
def test_identification_commands_print_golden_bytes(capsys, command):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_TRANSCRIPTS[command]


GOLDEN_MOMENTS = {
    # command: (Q after period 1, dset_cardinality, bound, nullspace_dimension)
    "moments --design ar --p 1 --T 9 --theta 0.9 --y0 0": (2, 18, 494, 494),
    "moments --design quarterly --p 1 --T 9 --theta 0.9 --y0 0": (2, 750, -238, 350),
    "moments --design quarterly --p 1 --T 11 --theta 0.9 --y0 0": (2, 1470, 578, 1760),
    "moments --design trend-ar --T 9 --theta 0.9 --y0 0": (2, 426, 86, 132),
}


@pytest.mark.parametrize("command", GOLDEN_MOMENTS)
def test_moments_commands_print_golden_counts(capsys, command):
    # the counts are exact; the residual depends on the BLAS, so it is
    # held to a bound instead
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    doc = json.loads(out)
    Q, cardinality, bound, dimension = GOLDEN_MOMENTS[command]
    T = int(command.split("--T ")[1].split()[0])
    assert {k: v for k, v in doc.items() if k != "max_residual"} == {
        "Q": [1] + [Q] * (T - 1), "dset_cardinality": cardinality, "bound": bound,
        "nullspace_dimension": dimension, "weak_separation": False}
    assert 0.0 <= doc["max_residual"] < 1e-8


# `verify` at its defaults, 50 draws at seed 0: the schema line, the header
# and each row's draw and moment depend on no BLAS and are pinned by
# sha256; each residual is zero in exact arithmetic and is held below
# 1e-14 (at most 3.1e-16 seen at one BLAS thread and at two).  CI runs
# this test at both thread counts.
GOLDEN_VERIFY = {
    "verify --moment ar2_t3":
        "c16e43fd386fe011bac3e125135d93acd3cc52815babd0ab1171b0911a99edda",
    "verify --moment quarterly_t6":
        "209d526fafa2691959a14bd4469f1a086dd575100f2c46f5b1259cf8e5ec4897",
    "verify --moment network_t3":
        "ba742831c30b7bd44b2bd9920613a098c5ca44dcc4a51b50a9c6d0ee939234db",
}


@pytest.mark.parametrize("command", GOLDEN_VERIFY)
def test_verify_commands_print_golden_transcripts(capsys, command):
    code, out, _ = run(capsys, *command.split())
    lines = out.splitlines()
    rows = [line.rsplit(",", 1) for line in lines[2:]]
    assert code == 0 and lines[1] == "draw,moment,residual"
    text = "\n".join(lines[:2] + [label for label, _ in rows])
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_VERIFY[command]
    assert all(0.0 <= float(residual) < 1e-14 for _, residual in rows)


def test_identification_commands_never_import_scipy():
    # no felogit command loads scipy, a test extra only; a fresh
    # `felogit table1` (or wperp, moments, ...) must not pay for it either
    script = f"""
import contextlib, io, json, sys
import felogit, felogit.cli
at_import = {SCIPY_MODULES}
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(felogit.cli.main(argv))
print(json.dumps({{"at_import": at_import, "codes": codes, "after": {SCIPY_MODULES}}}))
"""
    argvs, codes = zip(*IDENTIFICATION_COMMANDS)
    doc = _fresh_python(script, json.dumps(argvs))
    assert doc == {"at_import": [], "codes": list(codes), "after": []}


def test_import_loads_no_scipy_and_fresh_process_gives_same_bits():
    # import felogit loads no scipy module, and generate and gmm in a
    # fresh process give the bits of this one, which has scipy loaded
    script = """
import json, sys
import numpy as np
import felogit as fl
from felogit import estimation, moments, simulate
at_import = %s
s = simulate.generate(simulate.DGPConfig(spec=fl.panel_ar(2, 3),
                      theta=np.array([0.5, -0.3]), n=2000, seed=4))
rep = estimation.gmm(s, moments.Ar2T3Moments(), np.zeros(2))
print(json.dumps({"at_import": at_import, "Y": s.Y.tolist(), "Y0": s.Y0.tolist(),
                  "theta": rep.theta.tolist()}))
""" % SCIPY_MODULES
    doc = _fresh_python(script)
    s = simulate.generate(simulate.DGPConfig(spec=fl.panel_ar(2, 3),
                                             theta=np.array([0.5, -0.3]), n=2000, seed=4))
    rep = fl.estimation.gmm(s, fl.moments.Ar2T3Moments(), np.zeros(2))
    assert doc == {"at_import": [], "Y": s.Y.tolist(), "Y0": s.Y0.tolist(),
                   "theta": rep.theta.tolist()}


# with scipy blocked, the estimation commands run under -W error, exit 0
# and load no scipy module; CI runs the same as "Estimation without scipy"
WITHOUT_SCIPY = """
import contextlib, io, json, sys
sys.modules["scipy"] = None  # import scipy now raises ImportError
import felogit.cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(felogit.cli.main(argv))
loaded = sorted(m for m, mod in sys.modules.items()
                if m.split(".")[0] == "scipy" and mod is not None)
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def test_estimation_commands_run_without_scipy(tmp_path):
    argvs = []
    for T, method, n in ((3, "gmm", 30_000), (4, "cmle", 2000)):  # 30,000: many blocks
        dgp = {"design": {"design": "ar", "p": 2, "T": T}, "theta": [0.5, -0.3],
               "n": n, "seed": 4, "y0_law": {"kind": "stationary", "burn_in": 50}}
        cfg, data = tmp_path / f"dgp{T}.json", str(tmp_path / f"sample{T}.csv")
        cfg.write_text(json.dumps(dgp))
        mc = tmp_path / f"mc{T}.json"
        mc.write_text(json.dumps({"dgp": dgp, "estimator": {"method": method},
                                  "replications": 2}))
        argvs += [["simulate", "--config", str(cfg), "--output", data],
                  ["estimate", *AR, "2", "--T", str(T), "--data", data, "--method", method],
                  ["mc", "--config", str(mc)]]
    done = subprocess.run([sys.executable, "-W", "error", "-c", WITHOUT_SCIPY,
                           json.dumps(argvs)], env=_src_env(),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {"codes": [0] * 6, "scipy": []}


def test_module_entry_point_exit_codes(tmp_path):
    # Through `python -m felogit`, so the exit code must survive sys.exit.
    def felogit(*argv):
        return subprocess.run([sys.executable, "-m", "felogit", *argv], env=_src_env(),
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
