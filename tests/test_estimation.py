import re
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
    _dynamic_core,
    _pairwise_objective,
    _static_objective,
    cmle_dynamic_ar,
    cmle_pairwise,
    cmle_static,
    gmm,
)


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
    objective, _ = _static_objective(s)
    rng = np.random.default_rng(4)
    for _ in range(5):
        _, _, H = objective(rng.normal(size=2))
        assert np.all(np.linalg.eigvalsh(H) <= 1e-10)


def test_analytic_gradients_match_finite_differences():
    s = _static_sample(n=200, T=3, beta=(0.4, -0.2), seed=6)
    objective, _ = _static_objective(s)
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
    core, _ = _dynamic_core(s)
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
    core, n_info = _dynamic_core(s)
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


def test_gmm_recovers_ar2_closed_form():
    s = _ar_sample(2, 3, [0.5, -0.3], n=20000, seed=21, stationary=True)
    rep = gmm(s, moments.Ar2T3Moments(), np.zeros(2), weighting="two-step")
    assert rep.converged
    assert rep.diagnostics["jacobian_rank"] == 2
    assert np.all(np.abs(rep.theta - np.array([0.5, -0.3])) < 4 * rep.std_errors)


def test_gmm_zero_moments_flag_underidentification():
    s = _ar_sample(1, 3, [0.5], n=200, seed=22)
    zero = moments.CallableMoments(
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


@pytest.mark.parametrize("name", sorted(GMM_CASES))
def test_gmm_fallback_matches_exact_path(name):
    # an evaluator with only ``stacked`` takes central differences and
    # lands on the same estimate
    make, ev = GMM_CASES[name]
    s = make()
    exact = gmm(s, ev, np.zeros(2))
    fallback = gmm(s, moments.CallableMoments(ev.stacked, ev.k), np.zeros(2))
    assert fallback.diagnostics["jacobian"] == "central_difference"
    np.testing.assert_allclose(fallback.theta, exact.theta, rtol=0, atol=1e-6)
    np.testing.assert_allclose(fallback.std_errors, exact.std_errors, rtol=1e-5)


def _term_library(data):
    """A closed-form evaluator and units (Y, Y0, X) for it."""
    n = data.draw(st.integers(1, 25))
    bits = st.integers(0, 1)
    if data.draw(st.booleans()):
        ev, T, L0, d_x = moments.Ar2T3Moments(), 3, 2, 0
    else:
        d_x = data.draw(st.integers(0, 2))
        ev = moments.QuarterlyT6Moments(d_x=d_x, instruments=data.draw(st.booleans()))
        T, L0 = 6, 1
    Y = data.draw(hnp.arrays(np.int64, (n, T), elements=bits))
    Y0 = data.draw(hnp.arrays(np.int64, (n, L0), elements=bits))
    X = data.draw(hnp.arrays(float, (n, d_x, T), elements=st.floats(-2, 2))) \
        if d_x else None
    dim = 2 if T == 3 else 1 + d_x
    theta = data.draw(hnp.arrays(float, dim, elements=st.floats(-1.5, 1.5)))
    return ev, Y, Y0, X, theta


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_term_table_reproduces_stacked_with_exact_jacobian(data):
    ev, Y, Y0, X, theta = _term_library(data)
    tab = ev.terms(Y, Y0, X)
    assert np.all(np.any(tab.coef != 0, axis=1))  # zero terms are dropped
    out = np.zeros((len(Y), ev.k))
    np.add.at(out, tab.cell, tab.coef * np.exp(tab.A @ theta)[:, None])
    np.testing.assert_allclose(out, ev.stacked(Y, Y0, X, theta),
                               rtol=1e-12, atol=1e-12)

    w = data.draw(hnp.arrays(float, len(Y), elements=st.floats(0.1, 1.0)))
    cells = SimpleNamespace(Y=Y, Y0=Y0, X=X)
    moment_jac = estimation._exact_moments(ev, cells, w / w.sum())
    gbar, G = moment_jac(theta)
    np.testing.assert_allclose(gbar, w @ out / w.sum(), rtol=1e-12, atol=1e-12)
    fd = estimation._central_diff(lambda t: moment_jac(t)[0], theta)
    np.testing.assert_allclose(G, fd, rtol=1e-6, atol=1e-6 * np.abs(G).max())


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

    from felogit import model, sufficiency

    s = _static_sample(n=150, T=3, beta=(0.4, -0.2), seed=41)
    paths = model.all_paths(3).astype(float)
    stats = paths @ s.spec.W.T
    objective, _ = _static_objective(s)
    beta = np.array([0.3, -0.6])
    want = 0.0
    for y, x in zip(s.Y, s.X):
        members = np.all(np.isclose(stats, s.spec.W @ y), axis=1)
        if members.sum() > 1:
            index = x.T @ beta
            want += y @ index - logsumexp(paths[members] @ index)
    assert objective(beta)[0] == pytest.approx(want, rel=1e-12)

    ar = _ar_sample(2, 4, [0.5, -0.3], n=150, seed=42, stationary=True)
    core, _ = _dynamic_core(ar)
    gam = np.array([0.2, 0.7])
    all_y = model.all_paths(4)
    want = 0.0
    for y, y0 in zip(ar.Y, ar.Y0):
        key = sufficiency.arp_statistic_key(ar.spec, y, y0)
        members = [q for q in all_y if np.array_equal(
            sufficiency.arp_statistic_key(ar.spec, q, y0), key)]
        if len(members) > 1:
            prof = sufficiency.transition_stats(
                ar.spec, np.array(members), np.tile(y0, (len(members), 1)))
            own = sufficiency.transition_stats(ar.spec, y[None], y0[None])
            want += float(own[0] @ gam) - logsumexp(prof @ gam)
    assert core(gam)[0] == pytest.approx(want, rel=1e-12)


def test_analytic_hessians_match_finite_differences():
    s = _static_sample(n=200, T=3, beta=(0.4, -0.2), seed=43)
    static, _ = _static_objective(s)
    pairwise, _, _, _ = _pairwise_objective(s, np.array([[1], [-1], [0]]))
    beta, h = np.array([0.5, -0.7]), 1e-6
    for fn in (static, pairwise):
        H = fn(beta)[2]
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (fn(beta + e)[1] - fn(beta - e)[1]) / (2 * h)
            np.testing.assert_allclose(fd, H[:, j], rtol=1e-6, atol=1e-6)
