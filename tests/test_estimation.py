import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import minimize

import felogit as fl
from felogit import estimation, moments, simulate
from felogit.estimation import (
    NoInformationError,
    Sample,
    _class_core,
    _pairwise_objective,
    cmle,
    cmle_dynamic_ar,
    cmle_pairwise,
    cmle_static,
    gmm,
)
from oracles import (CallableMoments, ar2_t3_moments, arp_statistic_key, binary_x_sample,
                     network_moment_value, quarterly_t6_moments, scipy_bfgs)


def _static_sample(n=2000, T=3, beta=(0.0,), seed=0, rho=0.0):
    spec = fl.build_design("panel_fe", T=T, d_x=len(beta))
    a_law = (
        {"kind": "correlated", "rho": rho, "scale": 1.0}
        if rho
        else {"kind": "normal", "scale": 1.0}
    )
    cfg = simulate.DGPConfig(
        spec=spec, theta=np.array(beta, dtype=float), n=n, seed=seed, a_law=a_law
    )
    return simulate.generate(cfg)


def test_cmle_static_recovers_null_effect():
    s = _static_sample(n=2000, beta=(0.0,), seed=5)
    rep = cmle_static(s)
    assert rep.converged
    assert abs(rep.theta[0]) < 4 * rep.std_errors[0]


def test_cmle_static_no_information_on_constant_covariates():
    spec = fl.build_design("panel_fe", T=3, d_x=1)
    rng = np.random.default_rng(1)
    n = 50
    X = np.repeat(rng.normal(size=(n, 1, 1)), 3, axis=2)
    Y = rng.integers(0, 2, (n, 3))
    s = Sample(spec=spec, Y=Y, Y0=np.zeros((n, 0)), X=X)
    # within-unit constant covariates difference out entirely
    with pytest.raises(NoInformationError):
        cmle_static(s)


def test_cmle_static_raises_when_every_class_degenerate():
    spec = fl.build_design("panel_fe", T=2, d_x=1)
    n = 20
    s = Sample(
        spec=spec,
        Y=np.ones((n, 2), dtype=int),
        Y0=np.zeros((n, 0)),
        X=np.random.default_rng(2).normal(size=(n, 1, 2)),
    )
    with pytest.raises(NoInformationError):
        cmle_static(s)


def test_twoway_cmle_equals_pairwise_regression():
    spec = fl.build_design("two_way", n=2, tau=2, d_x=1)
    cfg = simulate.DGPConfig(
        spec=spec, theta=np.array([0.8]), n=3000, seed=9,
        a_law={"kind": "normal", "scale": 0.8},
    )
    s = simulate.generate(cfg)
    full = cmle_static(s)
    pair = cmle_pairwise(s, np.array([1, -1, -1, 1]))
    assert full.theta[0] == pytest.approx(pair.theta[0], abs=1e-6)


def test_static_objective_concave():
    s = _static_sample(n=300, T=3, beta=(0.5, -0.5), seed=3)
    objective, _ = _class_core(s)
    rng = np.random.default_rng(4)
    for _ in range(5):
        _, _, H = objective(rng.normal(size=2))
        assert np.all(np.linalg.eigvalsh(H) <= 1e-10)


def test_analytic_gradients_match_finite_differences():
    s = _static_sample(n=200, T=3, beta=(0.4, -0.2), seed=6)
    objective, _ = _class_core(s)
    pobjective, _, _, _ = _pairwise_objective(s, np.array([[1], [-1], [0]]))
    rng = np.random.default_rng(7)
    h = 1e-6
    for fn in (objective, pobjective):
        for _ in range(10):
            beta = rng.normal(size=2) * 0.8
            _, g, _ = fn(beta)
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                fd = (fn(beta + e)[0] - fn(beta - e)[0]) / (2 * h)
                assert fd == pytest.approx(g[j], rel=1e-6, abs=1e-8)


def test_pairwise_recovers_two_dimensional_beta():
    spec = fl.build_design("panel_fe", T=2, d_x=2)
    cfg = simulate.DGPConfig(
        spec=spec, theta=np.array([1.0, -1.0]), n=5000, seed=7
    )
    s = simulate.generate(cfg)
    rep = cmle_pairwise(s, np.array([1, -1]))
    assert np.all(np.abs(rep.theta - np.array([1.0, -1.0])) < 0.1)


def test_pairwise_matches_plain_logistic_fit_on_tetrads():
    # the dyadic tetrad estimator is a logistic regression of the
    # configuration sign on the differenced covariates
    spec = fl.build_design("dyadic", n=4, d_x=1)
    cfg = simulate.DGPConfig(spec=spec, theta=np.array([0.7]), n=4000, seed=13)
    s = simulate.generate(cfg)
    wperp = np.array([0, 1, -1, -1, 1, 0])
    rep = cmle_pairwise(s, wperp)

    v = s.X[:, 0, :] @ wperp
    up = np.all(s.Y[:, wperp == 1] == 1, axis=1) & np.all(
        s.Y[:, wperp == -1] == 0, axis=1
    )
    dn = np.all(s.Y[:, wperp == 1] == 0, axis=1) & np.all(
        s.Y[:, wperp == -1] == 1, axis=1
    )
    keep = up | dn
    vv, zz = v[keep], up[keep].astype(float)

    def nll(b):
        eta = vv * b[0]
        return -np.sum(zz * eta - np.logaddexp(0.0, eta))

    ref = minimize(nll, np.zeros(1), method="BFGS").x[0]
    assert rep.theta[0] == pytest.approx(ref, abs=1e-5)
    assert rep.diagnostics["n_rows"] == int(keep.sum())


def test_pairwise_no_hits_raises():
    spec = fl.build_design("panel_fe", T=2, d_x=1)
    n = 30
    s = Sample(
        spec=spec,
        Y=np.ones((n, 2), dtype=int),
        Y0=np.zeros((n, 0)),
        X=np.random.default_rng(3).normal(size=(n, 1, 2)),
    )
    with pytest.raises(NoInformationError):
        cmle_pairwise(s, np.array([1, -1]))


def _ar_sample(p, T, gamma, n, seed, stationary=False):
    spec = fl.panel_ar(p, T)
    y0_law = (
        {"kind": "stationary", "burn_in": 50}
        if stationary
        else {"kind": "fixed", "value": 0}
    )
    cfg = simulate.DGPConfig(
        spec=spec, theta=np.array(gamma, dtype=float), n=n, seed=seed,
        y0_law=y0_law,
    )
    return simulate.generate(cfg)


def test_dynamic_cmle_recovers_ar1():
    s = _ar_sample(1, 3, [0.8], n=8000, seed=11)
    rep = cmle_dynamic_ar(s)
    assert rep.converged
    assert abs(rep.theta[0] - 0.8) < 4 * rep.std_errors[0]
    # first-order condition holds on the exposed log likelihood
    core, _ = _class_core(s)
    h = 1e-6
    fd = (core(rep.theta + h)[0] - core(rep.theta - h)[0]) / (2 * h)
    assert abs(fd) < 1e-4


def test_dynamic_cmle_zero_gamma():
    s = _ar_sample(1, 3, [0.0], n=8000, seed=12)
    rep = cmle_dynamic_ar(s)
    assert abs(rep.theta[0]) < 4 * rep.std_errors[0]


def test_dynamic_cmle_trend_design_has_no_information():
    spec = fl.trend_ar(4)
    cfg = simulate.DGPConfig(spec=spec, theta=np.array([0.5]), n=200, seed=14)
    s = simulate.generate(cfg)
    with pytest.raises(NoInformationError):
        cmle_dynamic_ar(s)


def test_ar2_conditional_likelihood_flat_in_gamma1():
    s = _ar_sample(2, 4, [0.5, -0.3], n=3000, seed=15, stationary=True)
    core, n_info = _class_core(s)
    assert n_info > 0
    base = core(np.array([0.0, -0.3]))[0]
    vals = [core(np.array([g1, -0.3]))[0] for g1 in np.linspace(-2, 2, 11)]
    assert max(vals) - min(vals) < 1e-10
    # the GMM objective over gamma1 is not flat
    ev = moments.Ar2T3Moments()
    s3 = _ar_sample(2, 3, [0.5, -0.3], n=3000, seed=15, stationary=True)

    def obj(g1):
        g = ev.stacked(s3.Y, s3.Y0, s3.X, np.array([g1, -0.3])).mean(axis=0)
        return float(g @ g)

    gm_vals = [obj(g1) for g1 in np.linspace(-2, 2, 11)]
    assert max(gm_vals) - min(gm_vals) > 1e-4
    # and the dynamic report flags the unidentified lag
    rep = cmle_dynamic_ar(s)
    assert rep.diagnostics["not_identified"] == ["gamma1"]
    assert np.isnan(rep.std_errors[0]) and np.isfinite(rep.std_errors[1])


def test_dynamic_cmle_estimate_invariant_to_gamma1_init():
    s = _ar_sample(2, 4, [0.4, 0.3], n=4000, seed=16, stationary=True)
    r1 = cmle_dynamic_ar(s, init=np.array([0.0, 0.0]))
    r2 = cmle_dynamic_ar(s, init=np.array([1.5, 0.0]))
    assert r1.theta[1] == pytest.approx(r2.theta[1], abs=1e-9)


def test_dynamic_cmle_with_binary_covariate_bias_and_coverage():
    # 300 replications of AR(1), T=4, one 0/1 covariate and effects
    # correlated with it, at a fixed seed.  Each of the four checks
    # fails by chance with probability at most 0.001 (the bias within
    # 3.29 Monte Carlo standard errors, the count of 95% intervals that
    # cover within the central 0.999 of Binomial(300, 0.95)), so a
    # correct estimator trips the test with probability at most 0.004
    from scipy.stats import binom

    spec, theta, reps = fl.panel_ar(1, 4, d_x=1), np.array([0.5, 1.0]), 300
    fits = [cmle_dynamic_ar(binary_x_sample(spec, theta, n=2000, seed=700 + r))
            for r in range(reps)]
    assert all(f.converged and f.diagnostics["not_identified"] == [] for f in fits)
    est = np.array([f.theta for f in fits])
    se = np.array([f.std_errors for f in fits])
    mc_se = est.std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(est.mean(axis=0) - theta) <= 3.29 * mc_se)
    covered = np.sum(np.abs(est - theta) <= 1.96 * se, axis=0)
    lo, hi = binom.ppf([0.0005, 0.9995], reps, 0.95)
    assert np.all((lo <= covered) & (covered <= hi)), (covered, lo, hi)


def test_one_cmle_under_every_name():
    assert cmle_static is cmle and cmle_dynamic_ar is cmle


def _network_sample(n, seed, theta=(0.8, -0.5)):
    return simulate.generate(simulate.DGPConfig(
        spec=fl.network_design(3, 3), theta=np.array(theta), n=n, seed=seed))


def test_network_cmle_loglik_is_the_sum_of_conditional_likelihoods():
    # a unit's row is its path's network_cond_full set; a singleton adds log 1
    s = _network_sample(500, seed=41)
    fit = cmle(s)
    want = sum(np.log(fl.network_cond_likelihood(
        s.spec, fit.theta, y, y0, fl.network_cond_full(s.spec, y))) for y, y0 in zip(s.Y, s.Y0))
    assert fit.objective == pytest.approx(want, rel=1e-12)


def test_network_cmle_bias_and_coverage():
    # 300 replications of 1,000 three-agent networks over tau = 3 periods;
    # as in the AR test above, each of the four checks fails by chance
    # with probability at most 0.001
    from scipy.stats import binom

    theta, reps = np.array([0.8, -0.5]), 300
    fits = [cmle(_network_sample(1000, seed=900 + r)) for r in range(reps)]
    assert all(f.converged and f.diagnostics["not_identified"] == [] for f in fits)
    est = np.array([f.theta for f in fits])
    se = np.array([f.std_errors for f in fits])
    mc_se = est.std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(est.mean(axis=0) - theta) <= 3.29 * mc_se)
    covered = np.sum(np.abs(est - theta) <= 1.96 * se, axis=0)
    lo, hi = binom.ppf([0.0005, 0.9995], reps, 0.95)
    assert np.all((lo <= covered) & (covered <= hi)), (covered, lo, hi)


def test_dynamic_cmle_with_covariates_drops_only_the_earlier_lags():
    # AR(2) with a 0/1 covariate: within every class the gamma1 column
    # of the profiles is constant, so gamma1 is held and reported; the
    # gamma2 and beta columns vary
    s = binary_x_sample(fl.panel_ar(2, 5, d_x=1), [0.5, -0.3, 1.0], n=1500, seed=5)
    core, n_info = _class_core(s)
    assert n_info > 0
    spread = [np.ptp(core.G[core.seg == c], axis=0) for c in range(core.C)]
    assert np.max(spread, axis=0)[0] == 0 and np.all(np.max(spread, axis=0)[1:] > 0)
    rep = cmle_dynamic_ar(s, init=[0.7, 0.0, 0.0])
    assert rep.diagnostics["not_identified"] == ["gamma1"] and rep.theta[0] == 0.7
    assert np.isnan(rep.std_errors[0]) and np.all(np.isfinite(rep.std_errors[1:]))


def test_class_core_refuses_too_many_path_rows_with_the_count():
    # 0/1 covariates over 15 periods: nearly every unit has its own y0
    # and pattern of repeated x_t, so its own partition of the paths
    rng, n, T = np.random.default_rng(1), 600, 15
    s = Sample(spec=fl.panel_ar(1, T, d_x=1), Y=rng.integers(0, 2, (n, T)),
               Y0=rng.integers(0, 2, (n, 1)), X=rng.integers(0, 2, (n, 1, T)))
    with pytest.raises(fl.model.TooLarge, match=re.escape(
            "paths x 592 conditioning cells = 19,398,656 path rows (limit 2^24)")):
        cmle_dynamic_ar(s)


def test_dynamic_cmle_on_continuous_covariates_keys_one_partition_per_y0():
    # x_t never repeats within a unit, so every unit shares the pattern
    # of its y0 and every class is a singleton: the refusal comes after
    # keying 2 x 2^12 paths, not one 2^12 block per unit
    import tracemalloc

    rng, n, T = np.random.default_rng(2), 4000, 12
    s = Sample(spec=fl.panel_ar(1, T, d_x=1), Y=rng.integers(0, 2, (n, T)),
               Y0=rng.integers(0, 2, (n, 1)), X=rng.normal(size=(n, 1, T)))
    tracemalloc.start()
    try:
        with pytest.raises(NoInformationError):
            cmle_dynamic_ar(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6, peak


@pytest.mark.parametrize("name", ["cmle_static", "cmle_pairwise", "cmle_dynamic_ar"])
def test_cmles_report_a_covariate_constant_over_time(name):
    # x fixed within each unit moves every profile in a class alike
    # (W y fixes sum_t y_t), so beta is not identified; the static CMLEs
    # have nothing left, the dynamic one fits gamma as without x
    if name != "cmle_dynamic_ar":
        s = _static_sample(n=500, T=3, beta=(0.5,), seed=3)
        s.X = np.repeat(s.X[:, :, :1], 3, axis=2)
        with pytest.raises(NoInformationError, match="varies in any profile column"):
            cmle_static(s) if name == "cmle_static" else cmle_pairwise(s, np.array([1, -1, 0]))
        return
    bare = _ar_sample(1, 4, [0.5], n=3000, seed=6, stationary=True)
    x = np.repeat(np.random.default_rng(6).normal(size=(bare.n, 1, 1)), 4, axis=2)
    rep = cmle_dynamic_ar(Sample(spec=fl.panel_ar(1, 4, d_x=1), Y=bare.Y, Y0=bare.Y0, X=x),
                          init=[0.0, 0.3])
    want = cmle_dynamic_ar(bare)
    assert rep.diagnostics["not_identified"] == ["beta1"] and rep.theta[1] == 0.3
    assert np.isnan(rep.std_errors[1])
    assert rep.theta[0] == pytest.approx(want.theta[0], abs=1e-9)
    assert rep.std_errors[0] == pytest.approx(want.std_errors[0], rel=1e-8)


@pytest.mark.parametrize("name", ["cmle_static", "cmle_pairwise", "cmle_dynamic_ar"])
def test_cmles_refuse_init_of_the_wrong_length(name):
    static = _static_sample(n=200, T=3, beta=(0.5,), seed=3)
    fit = {"cmle_static": lambda **kw: cmle_static(static, **kw),
           "cmle_pairwise": lambda **kw: cmle_pairwise(static, np.array([1, -1, 0]), **kw),
           "cmle_dynamic_ar": lambda **kw: cmle_dynamic_ar(
               _ar_sample(2, 4, [0.5, -0.3], n=300, seed=4), **kw)}[name]
    want = 2 if name == "cmle_dynamic_ar" else 1
    for init in ([0.1] * (want - 1), [0.1] * (want + 1), [[0.1] * want]):
        with pytest.raises(ValueError, match=f"theta must have length {want}, got"):
            fit(init=init)
    assert fit(init=[0.1] * want).converged


def test_gmm_recovers_ar2_closed_form():
    s = _ar_sample(2, 3, [0.5, -0.3], n=20000, seed=21, stationary=True)
    rep = gmm(s, moments.Ar2T3Moments(), np.zeros(2), weighting="two-step")
    assert rep.converged
    assert rep.diagnostics["jacobian_rank"] == 2
    assert np.all(np.abs(rep.theta - np.array([0.5, -0.3])) < 4 * rep.std_errors)


def test_gmm_zero_moments_flag_underidentification():
    s = _ar_sample(1, 3, [0.5], n=200, seed=22)
    zero = CallableMoments(
        lambda Y, Y0, X, theta: np.zeros((len(Y), 2)), k=2
    )
    rep = gmm(s, zero, np.zeros(1), weighting="identity")
    assert rep.diagnostics["jacobian_rank"] == 0
    assert not rep.diagnostics["identified"]


def test_gmm_identity_weighting_runs():
    s = _ar_sample(2, 3, [0.2, 0.4], n=8000, seed=23, stationary=True)
    rep = gmm(s, moments.Ar2T3Moments(), np.zeros(2), weighting="identity")
    assert rep.diagnostics["weighting"] == "identity"
    assert np.all(np.abs(rep.theta - np.array([0.2, 0.4])) < 4 * rep.std_errors)


def test_gmm_rejects_unknown_weighting():
    s = _ar_sample(1, 3, [0.5], n=50, seed=24)
    with pytest.raises(ValueError):
        gmm(s, moments.Ar2T3Moments(), np.zeros(2), weighting="optimal")


def _quarterly_sample(n, seed):
    cfg = simulate.DGPConfig(
        spec=fl.quarterly_ar(1, 6, d_x=1), theta=np.array([0.5, 1.0]), n=n,
        seed=seed, a_law={"kind": "correlated", "rho": 0.5, "scale": 0.7},
        y0_law={"kind": "fixed", "value": 0},
    )
    return simulate.generate(cfg)


GMM_CASES = {
    "ar2_t3": (lambda: _ar_sample(2, 3, [0.5, -0.3], n=8000, seed=25,
                                  stationary=True), moments.Ar2T3Moments()),
    "quarterly_t6": (lambda: _quarterly_sample(4000, seed=26),
                     moments.QuarterlyT6Moments(d_x=1)),
}


@pytest.mark.parametrize("init, found", [([0.0, 0.0, 0.0], 3), ([0.0], 1)])
def test_gmm_rejects_init_of_wrong_length(init, found):
    # a short init would drop beta, a long one add a phantom parameter
    s = _ar_sample(2, 3, [0.5, -0.3], n=50, seed=24)
    q = _quarterly_sample(50, seed=24)
    for sample, ev in ((s, moments.Ar2T3Moments()),
                       (q, moments.QuarterlyT6Moments(d_x=1))):
        with pytest.raises(ValueError, match=f"init has length {found}, "
                           "theta has 2"):
            gmm(sample, ev, np.array(init))


@pytest.mark.parametrize("name", sorted(GMM_CASES))
def test_gmm_closed_forms_take_exact_jacobians(name, monkeypatch):
    make, ev = GMM_CASES[name]

    def forbidden(fn, theta):
        raise AssertionError("central differences on a term-table evaluator")

    monkeypatch.setattr(estimation, "_central_diff", forbidden)
    for weighting, stages in (("two-step", 2), ("identity", 1)):
        rep = gmm(make(), ev, np.zeros(2), weighting=weighting)
        d = rep.diagnostics
        assert rep.converged and d["jacobian"] == "exact"
        assert [len(r) for r in d["restart_objectives"]] == [3] * stages
        assert rep.objective == min(d["restart_objectives"][-1])
        assert d["n_evaluations"] >= 3 * stages
        assert isinstance(d["message"], str) and d["message"]


def test_gmm_restarts_find_a_lower_stage_2_minimum():
    # on this sample the second stage started from the first stage's
    # estimate stops at a local minimum that both restarts leave
    rep = gmm(_quarterly_sample(1000, seed=33), moments.QuarterlyT6Moments(d_x=1),
              np.zeros(2))
    first, *restarts = rep.diagnostics["restart_objectives"][-1]
    assert first > rep.objective + 1
    assert rep.objective == min(restarts)


@pytest.mark.parametrize("name", sorted(GMM_CASES))
def test_gmm_fallback_matches_exact_path(name):
    # an evaluator with only ``stacked`` takes central differences and
    # lands on the same estimate
    make, ev = GMM_CASES[name]
    s = make()
    exact = gmm(s, ev, np.zeros(2))
    fallback = gmm(s, CallableMoments(ev.stacked, ev.k), np.zeros(2))
    assert fallback.diagnostics["jacobian"] == "central_difference"
    np.testing.assert_allclose(fallback.theta, exact.theta, rtol=0, atol=1e-6)
    np.testing.assert_allclose(fallback.std_errors, exact.std_errors, rtol=1e-5)


def test_gmm_minimizer_matches_scipy_bfgs(monkeypatch):
    # scipy's BFGS runs beside the numpy minimizer on every stage's
    # objective (same weight matrix, same starts); the lowest of the
    # three runs agrees in value and in place, on the GMM_CASES samples
    # and on two samples where restarts leave a local minimum
    ours, runs = estimation._minimize, []

    def both(moment_jac, Wmat, n, x0, curvature):
        runs.append((ours(moment_jac, Wmat, n, x0, curvature),
                     scipy_bfgs(moment_jac, Wmat, n, x0)))
        return runs[-1][0]

    monkeypatch.setattr(estimation, "_minimize", both)
    quarterly = moments.QuarterlyT6Moments(d_x=1)
    cases = [(make(), ev) for make, ev in GMM_CASES.values()] + [
        (_quarterly_sample(n, seed), quarterly) for n, seed in ((1000, 33), (4000, 14))]
    for sample, ev in cases:
        runs.clear()
        gmm(sample, ev, np.zeros(2))
        assert len(runs) == 6
        for stage in (runs[:3], runs[3:]):
            new, ref = (min(r, key=lambda run: run.fun) for r in zip(*stage))
            assert new.fun == pytest.approx(ref.fun, rel=1e-9, abs=0)
            np.testing.assert_allclose(new.x, ref.x, rtol=0, atol=1e-6)


def test_gmm_converges_on_every_identity_weighted_quarterly_rep():
    # scipy's BFGS stopped on "precision loss" (converged: false) in 4
    # of these 30 reps; the Newton polish stops on its step size
    cfg = simulate.DGPConfig(
        spec=fl.quarterly_ar(1, 6, d_x=1), theta=np.array([0.5, 1.0]), n=5000,
        seed=7, a_law={"kind": "correlated", "rho": 0.5, "scale": 0.7})
    ev = moments.QuarterlyT6Moments(d_x=1)
    rows, _ = simulate.monte_carlo(
        cfg, lambda s: gmm(s, ev, np.zeros(2), weighting="identity"), 30)
    assert [r["converged"] for r in rows] == [True] * 30


def test_gmm_certifies_a_large_residual_minimum():
    # rep 299 of the study above ends at an objective of 132.7, where
    # Gauss-Newton steps shrink too slowly to pass the step rule; the
    # term table's second derivatives make them Newton steps, which
    # settle at the theta that the Gauss-Newton steps approach
    cfg = simulate.DGPConfig(
        spec=fl.quarterly_ar(1, 6, d_x=1), theta=np.array([0.5, 1.0]), n=5000,
        seed=simulate._rep_seed(7, 299),
        a_law={"kind": "correlated", "rho": 0.5, "scale": 0.7})
    rep = gmm(simulate.generate(cfg), moments.QuarterlyT6Moments(d_x=1), np.zeros(2),
              weighting="identity")
    assert rep.converged and rep.diagnostics["message"].endswith("Newton step below 1e-10")
    assert rep.objective == pytest.approx(132.7403100528, rel=1e-12)
    np.testing.assert_allclose(rep.theta, [0.92455454867, 0.91518475447], rtol=0, atol=1e-8)


def test_gmm_refuses_overflowing_trials_without_warnings():
    # a stage-1 restart's line search on this sample tries a point where
    # n gbar' W gbar overflows; numpy's warning there was an error under
    # -W error (and in the tests)
    cfg = simulate.DGPConfig(
        spec=fl.quarterly_ar(1, 6, d_x=1), theta=np.array([0.5, 1.0]), n=20000,
        seed=3248817707, a_law={"kind": "correlated", "rho": 0.5, "scale": 0.7})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = gmm(simulate.generate(cfg), moments.QuarterlyT6Moments(d_x=1), np.zeros(2))
    assert rep.converged


def _term_library(data):
    """A closed-form library, units (Y, Y0, X) for it, theta, and the
    units' moments from the reference formula in the oracles."""
    n = data.draw(st.integers(1, 25))
    bits = st.integers(0, 1)
    kind = data.draw(st.sampled_from(["ar2_t3", "quarterly_t6", "network_t3"]))
    if kind == "ar2_t3":
        ev, T, L0, d_x, dim = moments.Ar2T3Moments(), 3, 2, 0, 2
    elif kind == "quarterly_t6":
        d_x = data.draw(st.integers(0, 2))
        ev = moments.QuarterlyT6Moments(d_x=d_x, instruments=data.draw(st.booleans()))
        T, L0, dim = 6, 1, 1 + d_x
    else:
        spec = fl.network_design(3, 3, d_x=data.draw(st.integers(0, 2)))
        ref = data.draw(hnp.arrays(np.int64, 3, elements=bits))
        ev, T, L0, d_x, dim = moments.NetworkT3Moments(spec, ref), 9, 3, spec.d_x, 2 + spec.d_x
    Y = data.draw(hnp.arrays(np.int64, (n, T), elements=bits))
    Y0 = data.draw(hnp.arrays(np.int64, (n, L0), elements=bits))
    X = data.draw(hnp.arrays(float, (n, d_x, T), elements=st.floats(-2, 2))) \
        if d_x else None
    theta = data.draw(hnp.arrays(float, dim, elements=st.floats(-1.5, 1.5)))
    if kind == "ar2_t3":
        want = ar2_t3_moments(Y, Y0, theta)
    elif kind == "quarterly_t6":
        want = quarterly_t6_moments(Y, Y0, X, theta, ev.instruments)
    else:
        want = network_moment_value(spec, ref, Y, Y0, X, theta)[:, None]
    return ev, Y, Y0, X, theta, want


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_term_tables_match_the_reference_formulas_with_exact_jacobian(data):
    ev, Y, Y0, X, theta, want = _term_library(data)
    tab = ev.terms(Y, Y0, X)
    assert np.all(np.any(tab.coef != 0, axis=1))  # zero terms are dropped
    out = moments.term_moments(tab, len(Y), theta)
    np.testing.assert_allclose(out, want, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(ev.stacked(Y, Y0, X, theta), out)

    w = data.draw(hnp.arrays(float, len(Y), elements=st.floats(0.1, 1.0)))
    coef = tab.coef.copy()
    moment_jac, curvature = estimation._exact_moments(tab, w / w.sum())
    np.testing.assert_array_equal(tab.coef, coef)  # the table is left as it was
    gbar, G = moment_jac(theta)
    np.testing.assert_allclose(gbar, w @ out / w.sum(), rtol=1e-12, atol=1e-12)
    fd = estimation._central_diff(lambda t: moment_jac(t)[0], theta)
    # central differences round to about 2e-10 |gbar|, so an entry far
    # below that (a covariate of 1e-59, say) is read as 0
    atol = 1e-6 * np.abs(G).max() + 1e-8 * np.abs(gbar).max()
    np.testing.assert_allclose(G, fd, rtol=1e-6, atol=atol)
    # the curvature sum_k v_k Hessian(gbar_k) is the derivative of G'v
    v = data.draw(hnp.arrays(float, ev.k, elements=st.sampled_from([-1.0, -0.3, 0.0, 0.5, 2.0])))
    C = curvature(theta, v)
    fd = estimation._central_diff(lambda t: moment_jac(t)[1].T @ v, theta)
    # G'v sums terms of size up to |G| |v| that may cancel, and its
    # central differences round relative to them
    atol = 1e-6 * np.abs(C).max() + 1e-8 * np.abs(G).max() * np.abs(v).max()
    np.testing.assert_allclose(C, C.T, rtol=1e-12, atol=1e-15 * np.abs(C).max())
    np.testing.assert_allclose(C, fd, rtol=1e-6, atol=atol)


@pytest.mark.parametrize("ev, T, L0, d_x, dim", [
    (moments.Ar2T3Moments(), 3, 2, 0, 2),
    (moments.QuarterlyT6Moments(d_x=1), 6, 1, 1, 2),
    (moments.NetworkT3Moments(fl.network_design(3, 3, d_x=1), [1, 0, 1]), 9, 3, 1, 3),
])
def test_term_moments_reject_theta_of_the_wrong_length(ev, T, L0, d_x, dim):
    # a short theta would drop a coefficient, a long one ignore it
    rng = np.random.default_rng(5)
    Y, Y0 = rng.integers(0, 2, (4, T)), rng.integers(0, 2, (4, L0))
    X = rng.normal(size=(4, d_x, T)) if d_x else None
    assert ev.stacked(Y, Y0, X, np.zeros(dim)).shape == (4, ev.k)
    for wrong in (dim - 1, dim + 1):
        with pytest.raises(ValueError, match=f"theta has length {wrong}, "
                           f"the moment terms take {dim}"):
            ev.stacked(Y, Y0, X, np.zeros(wrong))


def test_sample_shape_validation():
    spec = fl.panel_ar(1, 3)
    with pytest.raises(ValueError):
        Sample(spec=spec, Y=np.zeros((5, 4), dtype=int), Y0=np.zeros((5, 1)))


@pytest.mark.parametrize("bad", [0.5, 7])
def test_sample_rejects_non_binary_outcomes(bad):
    spec = fl.panel_ar(1, 3)
    Y, Y0 = np.zeros((4, 3)), np.zeros((4, 1))
    Y[2, 1] = bad
    with pytest.raises(ValueError, match=re.escape(f"Y must be binary (0/1), found {bad}")):
        Sample(spec=spec, Y=Y, Y0=Y0)
    Y[2, 1], Y0[3, 0] = 1, bad
    with pytest.raises(ValueError, match=re.escape(f"Y0 must be binary (0/1), found {bad}")):
        Sample(spec=spec, Y=Y, Y0=Y0)


def test_binary_check_refuses_and_accepts_by_dtype():
    # 0/1 int8 is checked through a uint8 view and kept as it is; other
    # dtypes are compared with 0 and 1 and copied to int8
    spec = fl.panel_ar(1, 3)
    Y0 = np.zeros((2, 1), dtype=np.int8)
    for bad, dtype in ((-1, np.int8), (2, np.int8), (7, np.int64)):
        Y = np.zeros((2, 3), dtype=dtype)
        Y[1, 2] = bad
        with pytest.raises(ValueError, match=re.escape(f"Y must be binary (0/1), found {bad}")):
            Sample(spec=spec, Y=Y, Y0=Y0)
        with pytest.raises(ValueError, match=re.escape(f"Y0 must be binary (0/1), found {bad}")):
            Sample(spec=spec, Y=np.zeros((2, 3), dtype=np.int8), Y0=Y[:, 2:])
    Y = np.array([[0, 1, 1], [1, 0, 0]], dtype=np.int8)
    assert Sample(spec=spec, Y=Y, Y0=Y0).Y is Y
    s = Sample(spec=spec, Y=Y.astype(bool), Y0=Y0.astype(bool))
    assert s.Y.dtype == s.Y0.dtype == np.int8 and np.array_equal(s.Y, Y)


def test_newton_reports_why_it_stopped():
    s = _static_sample(n=500, T=3, beta=(0.5,), seed=3)
    ar = _ar_sample(1, 3, [0.5], n=2000, seed=4)
    fits = [
        lambda **kw: cmle_static(s, **kw),
        lambda **kw: cmle_pairwise(s, np.array([1, -1, 0]), **kw),
        lambda **kw: cmle_dynamic_ar(ar, **kw),
    ]
    for fit in fits:
        rep = fit()
        assert rep.converged and rep.diagnostics["stop_reason"] == "converged"
        rep = fit(max_iter=1)
        assert rep.iterations == 1
        assert not rep.converged and rep.diagnostics["stop_reason"] == "max_iter"

    def nowhere_better(x):  # the value is finite only at the start
        return (0.0 if not np.any(x) else np.nan), np.ones(1), -np.eye(1)

    *_, it, stop = estimation._newton(nowhere_better, np.zeros(1))
    assert (it, stop) == (1, "line_search_failed")


def _stack(sample, *others):
    parts = (sample,) + others
    X = None if sample.X is None else np.concatenate([p.X for p in parts])
    return Sample(spec=sample.spec, Y=np.concatenate([p.Y for p in parts]),
                  Y0=np.concatenate([p.Y0 for p in parts]), X=X)


def _permute(sample, seed):
    perm = np.random.default_rng(seed).permutation(sample.n)
    return Sample(spec=sample.spec, Y=sample.Y[perm], Y0=sample.Y0[perm],
                  X=None if sample.X is None else sample.X[perm])


INVARIANCE_CASES = {
    "cmle_static": (lambda: _static_sample(n=800, T=3, beta=(0.5, -0.5), seed=31),
                    cmle_static, 1e-8),
    "cmle_pairwise": (lambda: _static_sample(n=1500, T=2, beta=(0.8,), seed=32),
                      lambda s: cmle_pairwise(s, np.array([1, -1])), 1e-8),
    "cmle_dynamic_ar": (lambda: _ar_sample(2, 4, [0.5, -0.3], n=3000, seed=33,
                                           stationary=True),
                        cmle_dynamic_ar, 1e-8),
    "cmle_dynamic_ar_x": (lambda: binary_x_sample(fl.panel_ar(1, 4, d_x=1), [0.5, 1.0],
                                                  n=2000, seed=38),
                          cmle_dynamic_ar, 1e-8),
    "cmle_network": (lambda: _network_sample(1500, seed=39), cmle, 1e-8),
    "gmm": (lambda: _ar_sample(2, 3, [0.5, -0.3], n=4000, seed=34, stationary=True),
            lambda s: gmm(s, moments.Ar2T3Moments(), np.zeros(2)), 1e-6),
}


@pytest.mark.parametrize("name", sorted(INVARIANCE_CASES))
def test_estimates_invariant_to_stacking_and_permuting_units(name):
    make, fit, tol = INVARIANCE_CASES[name]
    s = make()
    base = fit(s)
    twice = fit(_stack(s, s))
    np.testing.assert_allclose(twice.theta, base.theta, rtol=0, atol=tol)
    finite = np.isfinite(base.std_errors)
    assert finite.any()
    np.testing.assert_allclose(twice.std_errors[finite],
                               base.std_errors[finite] / np.sqrt(2), rtol=1e-6)
    assert np.array_equal(np.isfinite(twice.std_errors), finite)
    shuffled = fit(_permute(s, seed=35))
    np.testing.assert_allclose(shuffled.theta, base.theta, rtol=0, atol=tol)


def test_count_table_reconstructs_sample_and_skips_distinct_records():
    s = _ar_sample(2, 3, [0.5, -0.3], n=500, seed=36)
    cells, counts, inverse = estimation._count_table(s)
    assert cells.n <= 32 and counts.sum() == s.n
    assert np.array_equal(cells.Y[inverse], s.Y)
    assert np.array_equal(cells.Y0[inverse], s.Y0)
    xs = _static_sample(n=50, T=3, beta=(0.5,), seed=37)
    cells, counts, inverse = estimation._count_table(xs)
    assert cells is xs and np.all(counts == 1)


@settings(max_examples=60, deadline=None)
@given(
    records=hnp.arrays(np.int8, st.tuples(st.integers(1, 80), st.just(5)),
                       elements=st.integers(0, 1)),
    theta=st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
)
def test_count_weighted_moment_mean_equals_unit_mean(records, theta):
    s = Sample(spec=fl.panel_ar(2, 3), Y=records[:, 2:], Y0=records[:, :2])
    cells, counts, inverse = estimation._count_table(s)
    assert np.array_equal(cells.Y[inverse], s.Y)
    ev, theta = moments.Ar2T3Moments(), np.array(theta)
    per_unit = ev.stacked(s.Y, s.Y0, None, theta).mean(axis=0)
    weighted = np.average(ev.stacked(cells.Y, cells.Y0, None, theta), axis=0,
                          weights=counts)
    np.testing.assert_allclose(weighted, per_unit, rtol=1e-12, atol=1e-12)


def test_cmle_objectives_match_unit_by_unit_reference():
    # reference: one conditioning class and one logsumexp per unit
    from scipy.special import logsumexp

    from felogit import model

    s = _static_sample(n=150, T=3, beta=(0.4, -0.2), seed=41)
    paths = model.all_paths(3).astype(float)
    stats = paths @ s.spec.W.T
    objective, _ = _class_core(s)
    beta = np.array([0.3, -0.6])
    want = 0.0
    for y, x in zip(s.Y, s.X):
        members = np.all(np.isclose(stats, s.spec.W @ y), axis=1)
        if members.sum() > 1:
            index = x.T @ beta
            want += y @ index - logsumexp(paths[members] @ index)
    assert objective(beta)[0] == pytest.approx(want, rel=1e-12)

    ar = _ar_sample(2, 4, [0.5, -0.3], n=150, seed=42, stationary=True)
    core, _ = _class_core(ar)
    gam = np.array([0.2, 0.7])
    all_y = model.all_paths(4)
    want = 0.0
    for y, y0 in zip(ar.Y, ar.Y0):
        key = arp_statistic_key(ar.spec, y, y0)
        members = [q for q in all_y if np.array_equal(
            arp_statistic_key(ar.spec, q, y0), key)]
        if len(members) > 1:
            prof = model.path_profile(
                ar.spec, np.array(members), np.tile(y0, (len(members), 1)), None)
            own = model.path_profile(ar.spec, y[None], y0[None], None)
            want += float(own[0] @ gam) - logsumexp(prof @ gam)
    assert core(gam)[0] == pytest.approx(want, rel=1e-12)


def test_analytic_hessians_match_finite_differences():
    s = _static_sample(n=200, T=3, beta=(0.4, -0.2), seed=43)
    static, _ = _class_core(s)
    pairwise, _, _, _ = _pairwise_objective(s, np.array([[1], [-1], [0]]))
    beta, h = np.array([0.5, -0.7]), 1e-6
    for fn in (static, pairwise):
        H = fn(beta)[2]
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (fn(beta + e)[1] - fn(beta - e)[1]) / (2 * h)
            np.testing.assert_allclose(fd, H[:, j], rtol=1e-6, atol=1e-6)


# -- the segmented core against the block core it replaced -------------------


def _as_blocks(core):
    """The rows of a segmented core as the block oracle's blocks, one
    per class size."""
    from oracles import BlockCondLogit

    blocks = BlockCondLogit(core.d)
    size = np.bincount(core.seg, minlength=core.C)
    start = np.cumsum(size) - size
    for m in np.unique(size):
        at = np.flatnonzero(size == m)
        blocks.add(core.G[start[at, None] + np.arange(m)], core.own[at] - start[at],
                   core.w[at], None if core.unit is None else core.unit[at])
    return blocks


def _assert_cores_agree(core, theta):
    blocks = _as_blocks(core)
    for got, want in zip((*core(theta), core.meat(theta)),
                         (*blocks(theta), blocks.meat(theta))):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_segmented_core_matches_block_oracle(data):
    d = data.draw(st.integers(1, 3))
    sizes = np.array(data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=30)))
    C, R = len(sizes), int(sizes.sum())
    values = st.floats(-3, 3, allow_subnormal=False)
    G = data.draw(hnp.arrays(float, (R, d), elements=values))
    start = np.cumsum(sizes) - sizes
    own = start + np.array([data.draw(st.integers(0, m - 1)) for m in sizes])
    w = data.draw(st.none() | hnp.arrays(float, C, elements=st.floats(0.5, 40)))
    unit = data.draw(st.none() | hnp.arrays(np.int64, C, elements=st.integers(0, 7)))
    theta = np.array(data.draw(st.lists(values, min_size=d, max_size=d)))
    _assert_cores_agree(estimation._CondLogit(G, start, own, w, unit), theta)


def test_cmle_cores_match_block_oracle():
    s = _static_sample(n=300, T=4, beta=(0.4, -0.2), seed=44)
    ar = _ar_sample(2, 4, [0.5, -0.3], n=400, seed=45, stationary=True)
    cores = [_class_core(s)[0],
             _pairwise_objective(s, np.array([[1, 0], [-1, 1], [0, -1], [0, 0]]))[0],
             _class_core(ar)[0]]
    assert cores[1].unit is not None and np.any(np.bincount(cores[1].unit) > 1)
    assert len(set(np.bincount(cores[0].seg))) > 1
    for core in cores:
        for theta in ([0.3, -0.6], [-1.2, 0.8]):
            _assert_cores_agree(core, np.array(theta))


def test_newton_counts_evaluations_and_halvings(monkeypatch):
    def nowhere_better(x):  # the value is finite only at the start
        return (0.0 if not np.any(x) else np.nan), np.ones(1), -np.eye(1)

    counts = {}
    *_, stop = estimation._newton(nowhere_better, np.zeros(1), counts=counts)
    assert stop == "line_search_failed"
    assert counts == {"n_evaluations": 51, "halvings": 50}

    calls = []
    core_call = estimation._CondLogit.__call__
    monkeypatch.setattr(estimation._CondLogit, "__call__",
                        lambda self, theta: calls.append(1) or core_call(self, theta))
    s = _static_sample(n=500, T=3, beta=(0.5,), seed=3)
    ar = _ar_sample(1, 3, [0.5], n=2000, seed=4)
    # the information check reads the profiles, so Newton makes every call
    for fit in (lambda: cmle_static(s, init=[3.0]),
                lambda: cmle_pairwise(s, np.array([1, -1, 0]), init=[3.0]),
                lambda: cmle_dynamic_ar(ar, init=[4.0])):
        calls.clear()
        diag = fit().diagnostics
        assert diag["n_evaluations"] == len(calls)
        assert diag["n_evaluations"] >= diag["halvings"] + 1
        assert isinstance(diag["halvings"], int)


@settings(max_examples=60, deadline=None)
@given(records=hnp.arrays(np.int8, st.tuples(st.integers(1, 60), st.integers(2, 7)),
                          elements=st.integers(0, 1)))
def test_count_table_integer_keys_match_byte_order(records):
    spec = fl.panel_ar(1, records.shape[1] - 1)
    s = Sample(spec=spec, Y=records[:, 1:], Y0=records[:, :1])
    cells, counts, inverse = estimation._count_table(s)
    want, first, cls, sizes = np.unique(records, axis=0, return_index=True,
                                        return_inverse=True, return_counts=True)
    if len(want) == s.n:
        assert cells is s and np.all(counts == 1)
    else:
        assert np.array_equal(np.hstack([cells.Y0, cells.Y]), want)
        assert np.array_equal(counts, sizes) and np.array_equal(inverse, cls.ravel())


def test_count_table_with_covariates_compares_whole_records():
    s = _static_sample(n=40, T=3, beta=(0.5, -0.5), seed=46)
    assert estimation._count_table(s)[0] is s  # first covariate tells units apart
    s.X[:, 0, 0] = 1.0  # no longer, but the other covariates still do
    assert estimation._count_table(s)[0] is s
    twice = _stack(s, s)
    cells, counts, inverse = estimation._count_table(twice)
    assert cells.n == s.n and np.all(counts == 2)
    assert cells.X[inverse].tobytes() == twice.X.tobytes()
