import json

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import felogit as fl
from felogit import model, moments
from oracles import index_pi, naive_path_prob, path_probability, step_probability


def test_index_ar1_single_lag():
    spec = fl.panel_ar(1, 3)
    assert index_pi(spec, 2, np.array([0, 1]), None, [0.5]) == pytest.approx(0.5)


def test_index_ar2_sums_lags():
    spec = fl.panel_ar(2, 4)
    g1, g2 = 0.7, -0.4
    # history (y_{-1}, y_0, y_1, y_2) with both recent lags equal to one
    val = index_pi(spec, 3, np.array([0, 0, 1, 1]), None, [g1, g2])
    assert val == pytest.approx(g1 + g2)


def test_index_network_counts_shared_neighbours():
    spec = fl.network_design(3, 3)
    theta = [0.3, 0.9]
    # complete triangle in the previous period: dyad (1,2) has one
    # shared neighbour, so the index is gamma + delta
    history = np.array([1, 1, 1])
    assert index_pi(spec, 1, history, None, theta) == pytest.approx(0.3 + 0.9)


def test_index_requires_full_history():
    spec = fl.panel_ar(1, 3)
    with pytest.raises(ValueError):
        index_pi(spec, 3, np.array([0]), None, [0.5])


def test_fair_coin_paths():
    spec = fl.build_design("panel_fe", T=3, d_x=0)
    for y in model.all_paths(3):
        p = path_probability(spec, y, None, None, np.zeros(0), np.zeros(1))
        assert p == pytest.approx(1 / 8)


@pytest.mark.parametrize(
    "maker",
    [
        lambda: (fl.build_design("panel_fe", T=14, d_x=1), None),
        lambda: (fl.panel_ar(2, 10, d_x=1), np.array([1, 0])),
        lambda: (fl.network_design(3, 3, d_x=1), np.array([1, 1, 0])),
    ],
)
def test_normalization(maker):
    spec, y0 = maker()
    rng = np.random.default_rng(3)
    theta = rng.normal(size=spec.theta_dim)
    X = rng.normal(size=(spec.d_x, spec.T))
    A = rng.normal(size=spec.d_w) * 2
    total = fl.path_distribution(spec, y0, X, theta, A).sum()
    assert total == pytest.approx(1.0, abs=1e-12)


def test_probabilities_match_naive_oracle():
    rng = np.random.default_rng(11)
    cases = [
        (fl.build_design("two_way", n=2, tau=2, d_x=2), None),
        (fl.panel_ar(2, 5, d_x=1), np.array([1, 1])),
        (fl.network_design(3, 2, d_x=1), np.array([0, 1, 1])),
    ]
    for spec, y0 in cases:
        theta = rng.normal(size=spec.theta_dim)
        X = rng.normal(size=(spec.d_x, spec.T))
        A = rng.normal(size=spec.d_w)
        dist = fl.path_distribution(spec, y0, X, theta, A)
        for idx in rng.integers(0, 2**spec.T, 12):
            y = model.all_paths(spec.T)[idx]
            assert dist[idx] == pytest.approx(
                naive_path_prob(spec, y, y0, X, theta, A), rel=1e-12
            )


def test_no_overflow_at_large_effects():
    spec = fl.build_design("panel_fe", T=14, d_x=0)
    p = path_probability(
        spec, np.ones(14, dtype=int), None, None, np.zeros(0), np.array([700.0])
    )
    assert 0.0 < p <= 1.0
    q = path_probability(
        spec, np.zeros(14, dtype=int), None, None, np.zeros(0), np.array([700.0])
    )
    assert q >= 0.0  # underflows to zero but never overflows


def test_static_pair_ratio_is_covariate_logit():
    # W y1 = W y2 makes the ratio exp(beta' X (y1 - y2)), free of A
    rng = np.random.default_rng(5)
    spec = fl.build_design("panel_fe", T=2, d_x=3)
    beta = rng.normal(size=3)
    X = rng.normal(size=(3, 2))
    y1, y2 = np.array([1, 0]), np.array([0, 1])
    for A in rng.normal(size=(20, 1)) * 3:
        ratio = fl.likelihood_ratio(spec, y1, y2, None, X, beta, A)
        assert ratio == pytest.approx(
            np.exp(beta @ X @ (y1 - y2)), rel=1e-12
        )


def test_ratio_of_identical_paths_is_one():
    spec = fl.panel_ar(1, 4)
    y = np.array([1, 0, 1, 1])
    r = fl.likelihood_ratio(spec, y, y, np.array([0]), None, [0.4], np.array([0.7]))
    assert r == pytest.approx(1.0)


def test_trend_pair_ratio_free_of_A():
    spec = fl.build_design("poly_trend", p=1, T=4, d_x=1)
    rng = np.random.default_rng(7)
    X = rng.normal(size=(1, 4))
    beta = np.array([0.8])
    y1, y2 = np.array([1, 0, 0, 1]), np.array([0, 1, 1, 0])
    vals = [
        fl.likelihood_ratio(spec, y1, y2, None, X, beta, A)
        for A in rng.normal(size=(100, 2)) * 2
    ]
    assert (max(vals) - min(vals)) / min(vals) < 1e-10


def test_ar1_pair_ratio_equals_transition_logit():
    spec = fl.panel_ar(1, 3)
    gamma = 0.9
    y0 = np.array([0])
    y1, y2 = np.array([1, 0, 1]), np.array([0, 1, 1])
    rng = np.random.default_rng(13)
    for A in rng.normal(size=(30, 1)) * 2:
        ratio = fl.likelihood_ratio(spec, y1, y2, y0, None, [gamma], A)
        # transition counts differ by -1
        assert ratio == pytest.approx(np.exp(-gamma), rel=1e-12)


def test_markov_factorization():
    rng = np.random.default_rng(17)
    for spec, y0 in [
        (fl.panel_ar(2, 6, d_x=1), np.array([0, 1])),
        (fl.network_design(3, 3), np.array([1, 0, 1])),
    ]:
        theta = rng.normal(size=spec.theta_dim)
        X = rng.normal(size=(spec.d_x, spec.T)) if spec.d_x else None
        A = rng.normal(size=spec.d_w)
        y = rng.integers(0, 2, spec.T)
        prod = 1.0
        hist = list(y0)
        for t in range(1, spec.T + 1):
            x_t = X[:, t - 1] if spec.d_x else None
            pr1 = step_probability(spec, t, np.array(hist), x_t, theta, A)
            prod *= pr1 if y[t - 1] else 1 - pr1
            hist.append(y[t - 1])
        assert prod == pytest.approx(
            path_probability(spec, y, y0, X, theta, A), rel=1e-12
        )


def test_static_sufficiency_classes_have_constant_ratio():
    rng = np.random.default_rng(23)
    spec = fl.build_design("overlapping", d_x=1)
    X = rng.normal(size=(1, 3))
    beta = np.array([0.6])
    paths = model.all_paths(3)
    stats = [tuple(spec.W @ y) for y in paths]
    A_grid = rng.normal(size=(100, 2)) * 2
    for i in range(len(paths)):
        for j in range(i + 1, len(paths)):
            if stats[i] != stats[j]:
                continue
            vals = [
                fl.likelihood_ratio(spec, paths[i], paths[j], None, X, beta, A)
                for A in A_grid
            ]
            assert (max(vals) - min(vals)) / abs(min(vals)) < 1e-10


def test_network_relabeling_invariance():
    # consistently permuting agents leaves path probabilities unchanged
    spec = fl.network_design(4, 2, d_x=0)
    rng = np.random.default_rng(31)
    theta = np.array([0.4, -0.2])
    A = rng.normal(size=6)
    y0 = rng.integers(0, 2, 6)
    y = rng.integers(0, 2, 12)
    perm = np.array([2, 0, 3, 1])
    ds = model.dyads(4)
    index = {d: k for k, d in enumerate(ds)}
    dmap = np.array(
        [index[tuple(sorted((perm[i], perm[j])))] for (i, j) in ds]
    )
    remap = np.empty(6, dtype=int)
    remap[dmap] = np.arange(6)
    y_rel = np.concatenate([y[:6][remap], y[6:][remap]])
    p1 = path_probability(spec, y, y0, None, theta, A)
    p2 = path_probability(spec, y_rel, y0[remap], None, theta, A[remap])
    assert p2 == pytest.approx(p1, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_path_profile_times_theta_is_the_index_sum(data):
    # pi is linear in theta, so sum_t y_t pi_t = path_profile @ theta;
    # the lag columns are integers with or without covariates, and so is
    # an AR pair's transition gap
    spec = data.draw(st.sampled_from([
        fl.build_design("two_way", n=2, tau=3, d_x=1), fl.panel_ar(1, 5),
        fl.panel_ar(2, 5, d_x=1), fl.quarterly_ar(1, 6, d_x=2),
        fl.network_design(3, 2), fl.network_design(3, 2, d_x=1),
    ]))

    def floats(*shape):
        size = int(np.prod(shape))
        return np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=size,
                                           max_size=size))).reshape(shape)

    theta, X = floats(spec.theta_dim), floats(spec.d_x, spec.T) if spec.d_x else None
    y0 = np.array(data.draw(st.lists(st.integers(0, 1), min_size=spec.y0_len,
                                     max_size=spec.y0_len)), dtype=np.int64)
    paths = model.all_paths(spec.T)
    P = model.path_profile(spec, paths, y0, X)
    want = np.sum(paths * model.index_matrix(spec, paths, y0, X, theta), axis=1)
    np.testing.assert_allclose(P @ theta, want, rtol=1e-12, atol=1e-12)
    lags = P[:, : spec.theta_dim - spec.d_x]
    assert np.array_equal(lags, np.rint(lags)) and (X is not None or P.dtype.kind == "i")
    per_path = np.tile(y0, (len(paths), 1))
    assert np.array_equal(model.path_profile(spec, paths, per_path, X), P)
    if X is not None:  # X, too, may be given once per path
        per_X = np.broadcast_to(X, (len(paths), *X.shape))
        np.testing.assert_allclose(model.path_profile(spec, paths, per_path, per_X), P,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(model.index_matrix(spec, paths, per_path, per_X, theta),
                                   model.index_matrix(spec, paths, y0, X, theta),
                                   rtol=0, atol=1e-12)
    if spec.family == model.AR:
        a, b = data.draw(st.lists(st.integers(0, len(paths) - 1), min_size=2, max_size=2))
        cert = fl.permutation_check(spec, paths[a], paths[b], y0, theta, X=X)
        assert type(cert.transition_gap) is int
        assert cert.transition_gap == P[a, 0] - P[b, 0]


def test_spec_json_round_trip(tmp_path):
    spec = fl.network_design(3, 3, d_x=2)
    doc = spec.to_json()
    back = model.ModelSpec.from_json(doc)
    assert back.family == spec.family
    assert back.T == spec.T and back.n == spec.n and back.tau == spec.tau
    assert np.array_equal(back.W, spec.W)
    assert json.loads(doc)["schema_version"] == 1


def test_spec_validation():
    with pytest.raises(ValueError):
        fl.ModelSpec("static", 3, np.ones((1, 2)))
    with pytest.raises(ValueError):
        fl.ModelSpec("ar", 3, np.ones((1, 3)))  # missing lag depth
    with pytest.raises(ValueError):
        fl.ModelSpec("network", 7, np.ones((3, 7)), n=3, tau=2)
    with pytest.raises(ValueError):
        fl.ModelSpec("static", 2, np.array([[1.0, np.inf]]))
    with pytest.raises(ValueError):
        path_probability(
            fl.panel_ar(1, 2), np.array([0, 1]), np.array([0]), None,
            [0.1], np.array([np.inf])
        )


def test_exact_key_refuses_chained_clusters():
    # two values 1.2e-9 apart keep two keys; a third between them would
    # chain all three into one key, so their clusters are ambiguous
    keys = model.exact_key([[0.1, 0.1 + 1.2e-9]])
    assert keys[0, 0] != keys[0, 1]
    with pytest.raises(ValueError, match="chained by gaps of at most 1e-9"):
        model.exact_key([[0.1, 0.1 + 6e-10, 0.1 + 1.2e-9]])
    # float noise far below the tolerance still keys alike
    keys = model.exact_key([[0.1 + 0.2, 0.3]])
    assert keys[0, 0] == keys[0, 1]
    with pytest.raises(ValueError, match="chained"):
        fl.ModelSpec("static", 3, [[0.1, 0.1 + 6e-10, 0.1 + 1.2e-9]], d_x=1)


Y0_ENTRY_POINTS = {
    "path_distribution": lambda spec, y0: model.path_distribution(spec, y0, None, [0.5], [0.1]),
    "permutation_check": lambda spec, y0: fl.permutation_check(spec, [1, 0, 1], [0, 1, 1],
                                                               y0, [0.5]),
    "enumerate_pairs_ar1": lambda spec, y0: fl.enumerate_pairs_ar1(spec, y0),
    "nullspace_moments": lambda spec, y0: moments.nullspace_moments(spec, y0, None, [0.5]),
    "qt_values": lambda spec, y0: moments.qt_values(spec, y0, None, [0.5]),
}


@pytest.mark.parametrize("value", [2, 255])
@pytest.mark.parametrize("call", Y0_ENTRY_POINTS.values(), ids=list(Y0_ENTRY_POINTS))
def test_non_binary_initial_outcome_is_refused(call, value):
    # checked before the int8 cast, in which 255 would read -1
    with pytest.raises(ValueError, match=rf"y0 must be binary \(0/1\), found {value}$"):
        call(fl.panel_ar(1, 3), [value])
