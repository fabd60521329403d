import hashlib

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import chisquare

import felogit as fl
from felogit import estimation, model, simulate
from felogit.simulate import DGPConfig, generate, monte_carlo
from oracles import step_probability


def test_identical_configs_identical_bytes():
    spec = fl.panel_ar(1, 4, d_x=1)
    cfg = DGPConfig(spec=spec, theta=np.array([0.5, 1.0]), n=500, seed=42)
    a = generate(cfg)
    b = generate(cfg)
    assert a.Y.tobytes() == b.Y.tobytes()
    assert a.Y0.tobytes() == b.Y0.tobytes()
    assert a.X.tobytes() == b.X.tobytes()
    c = generate(DGPConfig(spec=spec, theta=np.array([0.5, 1.0]), n=500, seed=43))
    assert c.Y.tobytes() != a.Y.tobytes()


_CORRELATED = {"kind": "correlated", "rho": 0.5, "scale": 1.0}
_STATIONARY = {"kind": "stationary", "burn_in": 30}
# sha256 of Y, Y0 and X bytes, taken from the family-branched simulator;
# simulated samples are part of the reproducibility contract.
GOLDEN_SAMPLES = {
    "static_x": ("e2bc7c92f4509208d633f5bed52de0e2e553d88d338406bd1a0a530303e2b994",
                 dict(spec=fl.build_design("two_way", n=3, tau=3, d_x=2),
                      theta=[1.0, -0.5], seed=21, a_law=_CORRELATED)),
    "ar2_x_fixed": ("692d9df77798dc4ee6a2ed70f60cfaca307a7f1d5abe88a097930037c2728507",
                    dict(spec=fl.panel_ar(2, 5, d_x=2), theta=[0.5, -0.3, 1.0, -0.5],
                         seed=22, a_law=_CORRELATED,
                         y0_law={"kind": "fixed", "value": [0, 1]})),
    "ar2_x_stationary": ("ae331c6e6fcc0fc7abf4fccbd8554e2a1d059bd6d2b1da016743e382483d6aae",
                         dict(spec=fl.panel_ar(2, 5, d_x=2),
                              theta=[0.5, -0.3, 1.0, -0.5], seed=23,
                              a_law=_CORRELATED, y0_law=_STATIONARY)),
    "quarterly_ar1": ("d4b58b72ba690fba013d6716152ef5f11712180234fc4d95f37fe748303f3d45",
                      dict(spec=fl.quarterly_ar(1, 6, d_x=1), theta=[0.5, 1.0],
                           seed=24,
                           a_law={"kind": "correlated", "rho": 0.5, "scale": 0.7})),
    "network_fixed": ("c71720712732e24624028ca6fef4b13e97a37ad1f2e2fb0370b0ffba5be8ac0d",
                      dict(spec=fl.network_design(3, 3), theta=[0.8, 0.4], seed=25,
                           y0_law={"kind": "fixed", "value": [1, 0, 1]})),
    "network_stationary": ("01d632db86fb7e7b396ba8712124551e763f33b4d3ad11dcc1b47a851af34c61",
                           dict(spec=fl.network_design(4, 3), theta=[0.8, -0.4],
                                seed=26, y0_law=_STATIONARY)),
    "network_x_fixed": ("a0737b54eecfacf38e1dc72b8c50879aed77e0a8955a2adeb9b47e12a41dcb9f",
                        dict(spec=fl.network_design(4, 3, d_x=1),
                             theta=[0.8, -0.4, 1.0], seed=27,
                             x_law={"kind": "ar", "phi": 0.5, "scale": 1.0})),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_SAMPLES))
def test_generate_bytes_are_pinned(case):
    digest, kw = GOLDEN_SAMPLES[case]
    s = generate(DGPConfig(n=300, **{**kw, "theta": np.array(kw["theta"])}))
    parts = [s.Y, s.Y0] + ([] if s.X is None else [s.X])
    assert hashlib.sha256(b"".join(a.tobytes() for a in parts)).hexdigest() == digest


def test_fair_coin_mean():
    spec = fl.build_design("panel_fe", T=1, d_x=0)
    cfg = DGPConfig(
        spec=spec, theta=np.zeros(0), n=100_000, seed=1,
        a_law={"kind": "normal", "scale": 0.0},
    )
    s = generate(cfg)
    assert abs(s.Y.mean() - 0.5) < 0.01


def test_strong_state_dependence_transition_rate():
    spec = fl.panel_ar(1, 8)
    cfg = DGPConfig(
        spec=spec, theta=np.array([5.0]), n=30_000, seed=2,
        a_law={"kind": "normal", "scale": 0.0},
        y0_law={"kind": "fixed", "value": 1},
    )
    s = generate(cfg)
    lag = np.concatenate([s.Y0, s.Y[:, :-1]], axis=1)
    hits = s.Y[lag == 1]
    assert abs(hits.mean() - expit(5.0)) < 0.01


def test_path_frequencies_match_exact_probabilities():
    spec = fl.panel_ar(1, 3)
    A = np.array([0.4])
    cfg = DGPConfig(
        spec=spec, theta=np.array([0.7]), n=100_000, seed=3,
        a_law={"kind": "two_point", "lo": 0.4, "hi": 0.4},
        y0_law={"kind": "fixed", "value": 0},
    )
    s = generate(cfg)
    probs = fl.path_distribution(spec, np.array([0]), None, [0.7], A)
    counts = np.bincount(model.path_index(s.Y), minlength=8)
    for k in range(8):
        sd = np.sqrt(probs[k] * (1 - probs[k]) / cfg.n)
        assert abs(counts[k] / cfg.n - probs[k]) <= 3 * sd + 1e-12


@pytest.mark.parametrize(
    "maker",
    [
        lambda: (fl.build_design("panel_fe", T=4, d_x=0), np.zeros(0)),
        lambda: (fl.panel_ar(1, 6), np.array([0.6])),
        lambda: (fl.network_design(3, 3), np.array([0.5, 0.3])),
    ],
)
def test_transition_frequencies_match_kernels(maker):
    spec, theta = maker()
    A_val = 0.3
    cfg = DGPConfig(
        spec=spec, theta=theta, n=100_000, seed=4,
        a_law={"kind": "two_point", "lo": A_val, "hi": A_val},
        y0_law={"kind": "fixed", "value": 0},
    )
    s = generate(cfg)
    A = np.full(spec.d_w, A_val)
    full = np.concatenate([s.Y0, s.Y], axis=1)
    L0 = spec.y0_len
    passed = total = 0
    for t in range(1, spec.T + 1):
        # group units by the exact history pattern the index reads
        if spec.family == "ar":
            key = full[:, L0 + t - 2] if t >= 1 else None
            keys = full[:, L0 + t - 2: L0 + t - 1]
        elif spec.family == "network":
            D = spec.n_dyads
            per = (t - 1) // D + 1
            keys = full[:, (per - 1) * D: per * D]
        else:
            keys = np.zeros((cfg.n, 1), dtype=np.int8)
        uniq, inv = np.unique(keys, axis=0, return_inverse=True)
        for u in range(len(uniq)):
            sel = inv == u
            if sel.sum() < 200:
                continue
            hist = np.concatenate(
                [s.Y0[np.flatnonzero(sel)[0]], s.Y[np.flatnonzero(sel)[0], : t - 1]]
            )
            p1 = step_probability(spec, t, hist, None, theta, A)
            obs1 = int(s.Y[sel, t - 1].sum())
            obs = np.array([sel.sum() - obs1, obs1])
            exp = np.array([(1 - p1) * sel.sum(), p1 * sel.sum()])
            total += 1
            if chisquare(obs, exp).pvalue >= 0.001:
                passed += 1
    assert total > 0 and passed / total >= 0.95


def test_stationary_burn_in_reaches_invariant_start():
    spec = fl.panel_ar(2, 4)
    cfg = DGPConfig(
        spec=spec, theta=np.array([0.0, 0.0]), n=50_000, seed=5,
        a_law={"kind": "normal", "scale": 0.0},
        y0_law={"kind": "stationary", "burn_in": 50},
    )
    s = generate(cfg)
    assert s.Y0.shape == (50_000, 2)
    assert abs(s.Y0.mean() - 0.5) < 0.01


def test_network_stationary_burn_in_uses_covariates():
    # with beta = 4 the last burn-in step (period 2 of tau = 2, as 50 is
    # even) draws each link mostly from its own covariate
    spec = fl.network_design(3, 2, d_x=1)
    cfg = DGPConfig(
        spec=spec, theta=np.array([0.5, 0.3, 4.0]), n=5_000, seed=8,
        y0_law={"kind": "stationary", "burn_in": 50},
    )
    s = generate(cfg)
    for d in range(spec.n_dyads):
        x_last = s.X[:, 0, spec.n_dyads + d]
        assert np.corrcoef(s.Y0[:, d], x_last)[0, 1] > 0.5


def test_correlated_effects_track_covariates():
    spec = fl.build_design("panel_fe", T=4, d_x=1)
    cfg = DGPConfig(
        spec=spec, theta=np.array([1.0]), n=20_000, seed=6,
        a_law={"kind": "correlated", "rho": 0.5, "scale": 0.3},
    )
    s = generate(cfg)
    # reconstruct the effects from the same stream to check the law
    rng = np.random.default_rng(6)
    X = simulate._draw_X(cfg, rng)
    A = simulate._draw_A(cfg, X, rng)
    corr = np.corrcoef(A[:, 0], X[:, 0, :].mean(axis=1))[0, 1]
    assert corr > 0.5


def test_covariate_laws_shapes():
    spec = fl.build_design("panel_fe", T=5, d_x=2)
    for law in (
        {"kind": "iid_normal", "scale": 1.0},
        {"kind": "ar", "phi": 0.6, "scale": 1.0},
        {"kind": "constant", "scale": 1.0},
    ):
        cfg = DGPConfig(spec=spec, theta=np.array([0.1, 0.2]), n=50, seed=7,
                        x_law=law)
        s = generate(cfg)
        assert s.X.shape == (50, 2, 5)
    assert np.allclose(s.X[:, :, 0], s.X[:, :, 4])  # constant law repeats


def test_monte_carlo_oracle_estimator():
    spec = fl.panel_ar(1, 3)
    cfg = DGPConfig(spec=spec, theta=np.array([0.8]), n=100, seed=8)

    def oracle(sample):
        return estimation.EstimateReport(
            theta=np.array([0.8]), names=["gamma1"],
            std_errors=np.array([0.1]), objective=0.0, converged=True,
            iterations=0,
        )

    rows, summary = monte_carlo(cfg, oracle, replications=5)
    assert summary["gamma1"]["bias"] == 0.0
    assert summary["gamma1"]["rmse"] == 0.0
    assert summary["gamma1"]["coverage"] == 1.0


def test_monte_carlo_records_failures():
    spec = fl.panel_ar(1, 3)
    cfg = DGPConfig(spec=spec, theta=np.array([0.5]), n=50, seed=9)
    calls = {"k": 0}

    def flaky(sample):
        calls["k"] += 1
        if calls["k"] % 2 == 0:
            raise estimation.NoInformationError("synthetic failure")
        return estimation.EstimateReport(
            theta=np.array([0.5]), names=["gamma1"],
            std_errors=np.array([0.1]), objective=0.0, converged=True,
            iterations=1,
        )

    rows, summary = monte_carlo(cfg, flaky, replications=6)
    assert summary["n_failed"] == 3
    assert summary["gamma1"]["n_ok"] == 3
    failed = [r for r in rows if "error" in r]
    assert [r["error_type"] for r in failed] == ["NoInformationError"] * 3
    assert failed[0]["error"] == "NoInformationError: synthetic failure"


@pytest.mark.parametrize("threads", [1, 2])
def test_monte_carlo_propagates_programming_errors(threads):
    spec = fl.panel_ar(1, 3)
    cfg = DGPConfig(spec=spec, theta=np.array([0.5]), n=50, seed=9)

    def broken(sample):
        return sample.Y + "not a number"

    with pytest.raises(TypeError):
        monte_carlo(cfg, broken, replications=3, threads=threads)


def test_monte_carlo_pairwise_bias_and_coverage():
    spec = fl.build_design("panel_fe", T=2, d_x=1)
    cfg = DGPConfig(spec=spec, theta=np.array([1.0]), n=5000, seed=10)
    est = lambda s: estimation.cmle_pairwise(s, np.array([1, -1]))
    rows, summary = monte_carlo(cfg, est, replications=200)
    assert abs(summary["beta1"]["bias"]) < 0.05
    assert 0.90 <= summary["beta1"]["coverage"] <= 0.99
    assert summary["n_failed"] == 0


def test_monte_carlo_thread_pool_is_order_independent():
    spec = fl.panel_ar(1, 3)
    cfg = DGPConfig(spec=spec, theta=np.array([0.6]), n=2000, seed=11)
    est = lambda s: estimation.cmle_dynamic_ar(s)
    rows1, sum1 = monte_carlo(cfg, est, replications=6, threads=1)
    rows2, sum2 = monte_carlo(cfg, est, replications=6, threads=3)
    for r1, r2 in zip(rows1, rows2):
        assert r1 == r2
    assert sum1 == sum2


def test_monte_carlo_bias_shrinks_with_n():
    # sanity scaling at the default seeds, not an asymptotic proof; run
    # at sample sizes small enough that the finite-sample bias of the
    # pairwise logit (~ +0.17 at n=150, beta=2) stays measurable above
    # Monte Carlo noise, keeping the 16x ratio between the two sizes
    spec = fl.build_design("panel_fe", T=2, d_x=1)
    est = lambda s: estimation.cmle_pairwise(s, np.array([1, -1]))
    biases = {}
    for n, reps in ((150, 600), (2400, 300)):
        cfg = DGPConfig(spec=spec, theta=np.array([2.0]), n=n, seed=12)
        _, summary = monte_carlo(cfg, est, replications=reps)
        biases[n] = abs(summary["beta1"]["bias"])
    assert biases[2400] < biases[150] / 2


def test_network_simulator_loads_effects_through_W():
    # W = 3 x dyad indicator with A = 1 and no dynamics: every link has
    # probability expit(3), in the initial network as in later periods
    base = model.network_design(3, 2)
    spec = model.ModelSpec("network", base.T, 3.0 * base.W, n=3, tau=2)
    cfg = DGPConfig(
        spec=spec, theta=np.zeros(2), n=20_000, seed=3,
        a_law={"kind": "normal", "loc": 1.0, "scale": 0.0},
        y0_law={"kind": "stationary", "burn_in": 5},
    )
    s = generate(cfg)
    assert s.Y.mean() == pytest.approx(expit(3.0), abs=0.005)
    assert s.Y0.mean() == pytest.approx(expit(3.0), abs=0.005)
