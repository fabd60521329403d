import itertools

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import felogit as fl
from felogit import estimation, model, moments, sufficiency
from felogit.simulate import DGPConfig, generate
from oracles import counter_pair_multiset, mask_network_cond_full, naive_path_prob


def test_permutation_identical_paths():
    spec = fl.panel_ar(1, 4)
    y = np.array([1, 0, 1, 0])
    cert = fl.permutation_check(spec, y, y, np.array([1]), [0.5])
    assert cert.passed and cert.transition_gap == 0
    assert cert.log_ratio == pytest.approx(0.0)


def test_permutation_ar1_standard_example():
    spec = fl.panel_ar(1, 3)
    cert = fl.permutation_check(
        spec, np.array([1, 0, 1]), np.array([0, 1, 1]), np.array([0]), [0.5]
    )
    assert cert.passed
    assert cert.transition_gap == -1
    assert cert.log_ratio == pytest.approx(-0.5)


def test_permutation_quarterly_example():
    spec = fl.quarterly_ar(1, 6)
    cert = fl.permutation_check(
        spec,
        np.array([0, 0, 0, 0, 1, 1]),
        np.array([1, 0, 0, 0, 0, 1]),
        np.array([0]),
        [0.5],
    )
    assert cert.passed
    assert cert.transition_gap == 1


def test_permutation_ratio_matches_model_core():
    rng = np.random.default_rng(2)
    spec = fl.quarterly_ar(1, 6)
    theta = [0.8]
    y, yt = np.array([0, 0, 0, 0, 1, 1]), np.array([1, 0, 0, 0, 0, 1])
    y0 = np.array([0])
    cert = fl.permutation_check(spec, y, yt, y0, theta)
    for A in rng.normal(size=(50, 4)) * 2:
        ratio = fl.likelihood_ratio(spec, y, yt, y0, None, theta, A)
        assert ratio == pytest.approx(np.exp(cert.log_ratio), rel=1e-12)


def test_permutation_rejects_static():
    spec = fl.build_design("panel_fe", T=3, d_x=1)
    with pytest.raises(ValueError):
        fl.permutation_check(spec, np.zeros(3, int), np.zeros(3, int),
                        np.zeros(0, int), np.zeros(1))


def test_permutation_network_detects_swap_members():
    spec = fl.network_design(3, 3)
    rng = np.random.default_rng(8)
    theta = rng.uniform(-1, 1, 2)
    for _ in range(20):
        y = rng.integers(0, 2, 9)
        y0 = rng.integers(0, 2, 3)
        swap = np.concatenate([y[3:6], y[:3], y[6:]])
        cert = fl.permutation_check(spec, y, swap, y0, theta)
        assert cert.passed
        for A in rng.normal(size=(5, 3)):
            ratio = fl.likelihood_ratio(spec, y, swap, y0, None, theta, A)
            assert ratio == pytest.approx(np.exp(cert.log_ratio), rel=1e-10)


def test_ar1_sufficient_stat_counts():
    spec = fl.panel_ar(1, 3)
    stat = fl.ar1_sufficient_stat(spec, np.array([1, 0, 1]), np.array([0]))
    # the key row is (W y, W y_lag)
    assert stat[:1].tolist() == [2]
    assert stat[1:].tolist() == [1]


def test_ar1_sufficient_stat_quarterly_counts():
    spec = fl.quarterly_ar(1, 6)
    y, y0 = np.array([1, 0, 1, 1, 1, 0]), np.array([1])
    stat = fl.ar1_sufficient_stat(spec, y, y0)
    # quarters of t=1..6 are (1,2,3,4,1,2); y_lag = (1,1,0,1,1,1)
    assert stat[:4].tolist() == [2, 0, 1, 1]
    assert stat[4:].tolist() == [2, 2, 0, 1]


def test_ar1_sufficient_stat_refuses_general_design():
    spec = fl.trend_ar(4)
    with pytest.raises(ValueError):
        fl.ar1_sufficient_stat(spec, np.zeros(4, int), np.array([0]))


def test_ar1_conditional_distribution_free_of_A():
    # conditional law given (W y, W y_lag, y0) computed by brute force
    spec = fl.quarterly_ar(1, 5)
    y0 = np.array([1])
    theta = [0.6]
    rng = np.random.default_rng(4)
    groups = {}
    for y in model.all_paths(5):
        key = tuple(fl.ar1_sufficient_stat(spec, y, y0).tolist())
        groups.setdefault(key, []).append(y)
    reference = {}
    for A in rng.normal(size=(10, 4)) * 2:
        dist = {
            tuple(y): naive_path_prob(spec, y, y0, None, theta, A)
            for y in model.all_paths(5)
        }
        for key, members in groups.items():
            if len(members) < 2:
                continue
            tot = sum(dist[tuple(m)] for m in members)
            conds = np.array([dist[tuple(m)] / tot for m in members])
            base = reference.setdefault(key, conds)
            assert np.allclose(conds, base, atol=1e-12)


def test_canonicalize_trend_design_to_identity():
    W_star, Omega = fl.canonicalize_design(np.array([[1, 1, 1], [1, 2, 3.0]]))
    assert np.array_equal(W_star, np.eye(3))
    assert Omega.shape == (2, 3)


def test_canonicalize_constant_design():
    W_star, Omega = fl.canonicalize_design(np.ones((1, 5)))
    assert np.array_equal(W_star, np.ones((1, 5)))
    assert Omega.shape == (1, 1)


def test_canonicalize_indicator_design_idempotent():
    spec = fl.quarterly_ar(1, 6)
    W_star, Omega = fl.canonicalize_design(spec.W)
    # already an indicator design: same grouping of periods
    regroup, _ = fl.canonicalize_design(W_star)
    assert np.array_equal(W_star, regroup)
    assert np.array_equal(Omega @ W_star, spec.W)


def test_canonicalize_joins_values_straddling_a_rounding_boundary():
    # the two values are one float apart, on either side of a 9-digit
    # rounding boundary
    W = [[0.3000000015, 0.30000000149999995, 0.3000000015,
          0.30000000149999995, 0.3000000015]]
    W_star, Omega = fl.canonicalize_design(W)
    assert np.array_equal(W_star, np.ones((1, 5)))
    assert Omega.shape == (1, 1)


def test_relabeled_basis_groups_paths_identically():
    # permuting the labels of the indicator basis is immaterial: the
    # statistic partitions the outcome space the same way
    W_star, _ = fl.canonicalize_design(np.array([[1.0, 1, 1, 1], [1, 2, 2, 1]]))
    perm = np.array([1, 0])
    specs = [
        fl.ModelSpec("ar", 4, W_star, p=1),
        fl.ModelSpec("ar", 4, W_star[perm], p=1),
    ]
    y0 = np.array([1])
    partitions = []
    for spec in specs:
        groups = {}
        for y in model.all_paths(4):
            key = tuple(fl.ar1_sufficient_stat(spec, y, y0).tolist())
            groups.setdefault(key, set()).add(tuple(y))
        partitions.append(sorted(map(sorted, groups.values())))
    assert partitions[0] == partitions[1]


def test_enumerate_pairs_T2_has_no_identifying_pair():
    spec = fl.panel_ar(1, 2)
    certs = fl.enumerate_pairs_ar1(spec, np.array([0]), require_gap=True)
    assert certs == []


def test_enumerate_pairs_T3_contains_standard_pair():
    spec = fl.panel_ar(1, 3)
    certs = fl.enumerate_pairs_ar1(spec, np.array([0]), require_gap=True)
    pairs = {
        (tuple(c.y), tuple(c.y_tilde)) for c in certs
    } | {(tuple(c.y_tilde), tuple(c.y)) for c in certs}
    assert ((1, 0, 1), (0, 1, 1)) in pairs
    assert all(c.passed for c in certs)


def test_enumerate_pairs_quarterly_threshold():
    short = fl.enumerate_pairs_ar1(
        fl.quarterly_ar(1, 5), np.array([0]), require_gap=True
    )
    assert short == []
    certs = fl.enumerate_pairs_ar1(
        fl.quarterly_ar(1, 6), np.array([0]), require_gap=True
    )
    assert certs
    target = np.array([1, 0, 0, 0, -1, 0])
    for c in certs:
        diff = c.y - c.y_tilde
        assert np.array_equal(diff, target) or np.array_equal(diff, -target)


def pairs_oracle(spec, y0, theta):
    """Every pair of paths sharing (W y, W y_lag), each certified on its
    own by ``permutation_check``: groups in key order, pairs in path
    order."""
    W_star, _ = sufficiency.canonicalize_design(spec.W)
    spec = fl.ModelSpec("ar", spec.T, W_star, p=1)
    paths = model.all_paths(spec.T)
    groups = {}
    for i, y in enumerate(paths):
        groups.setdefault(tuple(fl.ar1_sufficient_stat(spec, y, y0).tolist()), []).append(i)
    return [
        fl.permutation_check(spec, paths[a], paths[b], y0, theta)
        for key in sorted(groups)
        for a, b in itertools.combinations(groups[key], 2)
    ]


@pytest.mark.parametrize("T", [3, 6, 8])
@pytest.mark.parametrize("design", [
    fl.panel_ar,
    fl.quarterly_ar,
    lambda p, T: fl.trend_ar(T),
    # not basis vectors, so canonicalized to the quarterly design
    lambda p, T: fl.ModelSpec("ar", T, 2.0 * fl.quarterly_ar(p, T).W, p=p),
], ids=["panel", "quarterly", "trend", "quarterly_x2"])
def test_enumerate_pairs_matches_per_pair_oracle(design, T):
    rng = np.random.default_rng(T)
    spec = design(1, T)
    for y0 in (np.array([0]), np.array([1])):
        theta = rng.normal(size=1)
        want = pairs_oracle(spec, y0, theta)
        for require_gap in (False, True):
            got = fl.enumerate_pairs_ar1(spec, y0, require_gap=require_gap,
                                         theta=theta)
            kept = [c for c in want if c.transition_gap or not require_gap]
            assert len(got) == len(kept)
            for g, w in zip(got, kept):
                assert np.array_equal(g.y, w.y) and np.array_equal(g.y_tilde, w.y_tilde)
                assert (g.cond_linear, g.cond_permutation, g.transition_gap) == (
                    w.cond_linear, w.cond_permutation, w.transition_gap)
                assert abs(g.log_ratio - w.log_ratio) <= 1e-12


def test_enumerate_pairs_trend_design_negative_result():
    for T in range(2, 7):
        spec = fl.trend_ar(T)
        assert fl.enumerate_pairs_ar1(spec, np.array([0])) == []


def test_arp_example_pairs():
    spec = fl.panel_ar(2, 4)
    # initial block (y_{-1}, y_0) = (1, 0)
    cert = fl.arp_condition_check(
        spec, np.array([1, 0, 0, 0]), np.array([0, 1, 0, 0]), np.array([1, 0])
    )
    assert cert.passed
    spec = fl.quarterly_ar(2, 7)
    cert = fl.arp_condition_check(
        spec,
        np.array([0, 0, 0, 0, 1, 0, 1]),
        np.array([1, 0, 0, 0, 0, 0, 1]),
        np.array([0, 0]),
    )
    assert cert.passed
    y = np.array([1, 1, 0, 0])
    assert fl.arp_condition_check(
        fl.panel_ar(2, 4), y, y, np.array([0, 0])
    ).passed


def test_arp_passing_pairs_have_A_free_ratio():
    spec = fl.panel_ar(2, 5)
    rng = np.random.default_rng(6)
    theta = rng.uniform(-1, 1, 2)
    y0 = np.array([0, 1])
    paths = model.all_paths(5)
    found = 0
    for i in range(len(paths)):
        for j in range(i + 1, len(paths)):
            cert = fl.arp_condition_check(spec, paths[i], paths[j], y0, theta)
            if not cert.passed or np.array_equal(paths[i], paths[j]):
                continue
            found += 1
            vals = [
                fl.likelihood_ratio(spec, paths[i], paths[j], y0, None, theta, A)
                for A in rng.normal(size=(100, 1)) * 2.5
            ]
            spread = (max(vals) - min(vals)) / min(vals)
            assert spread < 1e-10
            assert vals[0] == pytest.approx(np.exp(cert.log_ratio), rel=1e-10)
    assert found > 0


def test_network_star_set_shapes():
    spec = fl.network_design(3, 3)
    same = np.array([1, 0, 1, 1, 0, 1, 0, 0, 0])
    cond = fl.network_cond_star(spec, same)
    assert cond.kind == "network_star" and len(cond) == 1
    y = np.array([1, 0, 1, 0, 1, 1, 0, 0, 0])
    cond = fl.network_cond_star(spec, y)
    assert len(cond) == 2 and y in cond


def test_network_star_is_involution_and_closed():
    spec = fl.network_design(3, 3)
    rng = np.random.default_rng(12)
    for _ in range(20):
        y = rng.integers(0, 2, 9)
        cond = fl.network_cond_star(spec, y)
        for m in cond.members:
            again = fl.network_cond_star(spec, m)
            assert len(again) == len(cond)
            assert all(
                np.array_equal(a, b)
                for a, b in zip(again.members, cond.members)
            )


def test_network_full_contains_self_and_matches_star_n3():
    spec = fl.network_design(3, 3)
    rng = np.random.default_rng(14)
    for _ in range(40):
        y = rng.integers(0, 2, 9)
        full = fl.network_cond_full(spec, y)
        assert y in full
        assert sufficiency.network_star_equals_full(spec, y)


def test_network_full_refuses_large_networks():
    spec = fl.network_design(5, 3)
    with pytest.raises(ValueError, match="candidates"):
        fl.network_cond_full(spec, np.zeros(30, dtype=int))


def test_network_conditional_likelihood_values():
    spec = fl.network_design(3, 3)
    same = np.array([1, 0, 1, 1, 0, 1, 0, 0, 0])
    y0 = np.array([0, 0, 0])
    cond = fl.network_cond_star(spec, same)
    assert fl.network_cond_likelihood(spec, [0.5, 0.2], same, y0, cond) == 1.0
    y = np.array([1, 0, 1, 0, 1, 1, 0, 0, 0])
    cond = fl.network_cond_star(spec, y)
    val = fl.network_cond_likelihood(spec, [0.0, 0.0], y, y0, cond)
    assert val == pytest.approx(1 / len(cond))


def test_network_conditional_likelihood_matches_enumeration():
    spec = fl.network_design(3, 3)
    rng = np.random.default_rng(16)
    for _ in range(10):
        theta = rng.uniform(-1, 1, 2)
        y = rng.integers(0, 2, 9)
        y0 = rng.integers(0, 2, 3)
        A = rng.normal(size=3)
        cond = fl.network_cond_full(spec, y)
        val = fl.network_cond_likelihood(spec, theta, y, y0, cond)
        num = naive_path_prob(spec, y, y0, None, theta, A)
        den = sum(
            naive_path_prob(spec, m, y0, None, theta, A) for m in cond.members
        )
        assert val == pytest.approx(num / den, abs=1e-10)


def test_network_conditional_likelihood_requires_membership():
    spec = fl.network_design(3, 3)
    y = np.array([1, 0, 1, 0, 1, 1, 0, 0, 0])
    cond = fl.network_cond_star(spec, y)
    outsider = np.array([1, 1, 1, 0, 1, 1, 0, 0, 0])
    with pytest.raises(ValueError):
        fl.network_cond_likelihood(spec, [0.1, 0.1], outsider,
                                   np.zeros(3, int), cond)


@pytest.mark.parametrize("odd", [0, 2])
def test_float_noise_in_W_gives_one_set_of_classes(odd):
    # 0.1 + 0.2 exceeds 0.3 by 5.6e-17; every module must key both alike
    noisy = np.full((1, 5), 0.3)
    noisy[0, odd] = 0.1 + 0.2
    specs = [fl.ModelSpec("ar", 5, W, p=1) for W in (np.full((1, 5), 0.3), noisy)]
    y0, theta = np.array([0]), [0.4]
    sample = generate(DGPConfig(spec=specs[0], theta=np.array([0.5]), n=3000,
                                seed=1))
    paths = model.all_paths(5)
    seen = []
    for spec in specs:
        pairs = fl.enumerate_pairs_ar1(spec, y0, require_gap=True, theta=theta)
        checks = [fl.permutation_check(spec, paths[a], paths[b], y0, theta)
                  for a, b in itertools.combinations(range(32), 2)]
        fit = estimation.cmle_dynamic_ar(
            estimation.Sample(spec=spec, Y=sample.Y, Y0=sample.Y0))
        W_star, Omega = fl.canonicalize_design(spec.W)
        Q = moments.qt_values(spec, y0, None, theta)
        dset = fl.build_dset(spec, Q)
        seen.append((
            [(c.y.tolist(), c.y_tilde.tolist(), c.passed, c.log_ratio) for c in pairs],
            [(c.cond_linear, c.cond_permutation) for c in checks],
            fit.theta.tolist(), fit.diagnostics["n_informative"],
            W_star.tolist(), dset.cardinality, dset.elements,
        ))
        assert np.allclose(Omega @ W_star, spec.W, rtol=0, atol=1e-15)
    assert seen[0] == seen[1]
    assert len(seen[0][0]) == 28


def _class_log_ratios(lp, cls):
    """log Pr(y) - log Pr(first member of y's class), per path."""
    first = {}
    base = np.array([lp[first.setdefault(c, i)] for i, c in enumerate(cls)])
    return lp - base


def _draw_A_rows(data, spec, k=3):
    vals = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=k * spec.d_w,
                              max_size=k * spec.d_w))
    return np.array(vals).reshape(k, spec.d_w)


def _draw_floats(data, n, bound=2.0):
    return np.array(data.draw(st.lists(st.floats(-bound, bound), min_size=n,
                                       max_size=n)))


def _assert_free_of_A(spec, y0, X, theta, A_rows, paths, cls):
    ratios = [
        _class_log_ratios(
            model.log_path_distribution(spec, y0, X, theta, A, paths), cls)
        for A in A_rows
    ]
    for r in ratios[1:]:
        # equal log ratios: the ratios agree to 1e-10 relative
        np.testing.assert_allclose(r, ratios[0], rtol=0, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_static_class_ratios_are_free_of_A(data):
    spec = data.draw(st.sampled_from([
        fl.build_design("two_way", n=2, tau=3, d_x=1),
        fl.build_design("dyadic", n=4, d_x=2),
        fl.build_design("poly_trend", p=1, T=6, d_x=1),
    ]))
    theta = _draw_floats(data, spec.theta_dim)
    X = _draw_floats(data, spec.d_x * spec.T).reshape(spec.d_x, spec.T)
    paths = model.all_paths(spec.T)
    _, cls = np.unique(model.exact_key(paths @ spec.W.T), axis=0,
                       return_inverse=True)
    _assert_free_of_A(spec, None, X, theta, _draw_A_rows(data, spec), paths,
                      cls.ravel())


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_arp_class_ratios_are_free_of_A(data):
    spec = data.draw(st.sampled_from([
        fl.panel_ar(1, 5), fl.quarterly_ar(1, 6), fl.panel_ar(2, 5),
        fl.quarterly_ar(2, 7),
    ]))
    theta = _draw_floats(data, spec.theta_dim)
    y0 = np.array(data.draw(st.lists(st.integers(0, 1), min_size=spec.p,
                                     max_size=spec.p)))
    paths = model.all_paths(spec.T)
    _, cls = np.unique(sufficiency.arp_statistic_key(spec, paths, y0), axis=0,
                       return_inverse=True)
    assert len(np.unique(cls)) < len(paths)  # some class has two members
    _assert_free_of_A(spec, y0, None, theta, _draw_A_rows(data, spec), paths,
                      cls.ravel())


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_network_full_class_ratios_are_free_of_A(data):
    spec = fl.network_design(3, 3)
    theta = _draw_floats(data, 2)
    y0 = np.array(data.draw(st.lists(st.integers(0, 1), min_size=3, max_size=3)))
    y = model.all_paths(9)[data.draw(st.integers(0, 511))]
    members = np.vstack(fl.network_cond_full(spec, y).members)
    _assert_free_of_A(spec, y0, None, theta, _draw_A_rows(data, spec), members,
                      np.zeros(len(members), dtype=int))


def _dict_classes(rows):
    """Reference grouping of key rows: classes in sorted key order,
    members in row order."""
    groups = {}
    for i, row in enumerate(map(tuple, rows)):
        groups.setdefault(row, []).append(i)
    return [groups[key] for key in sorted(groups)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_key_classes_match_dict_grouping(data):
    n = data.draw(st.integers(1, 40))
    k = data.draw(st.integers(1, 3))
    values = data.draw(st.lists(st.integers(-2, 2), min_size=n * k,
                                max_size=n * k))
    rows = np.array(values, dtype=np.int64).reshape(n, k)
    got = sufficiency.key_classes(rows)
    want = _dict_classes(rows.tolist())
    assert got.sizes.tolist() == [len(g) for g in want]
    for c, members in enumerate(want):
        assert got.members(c, len(members)).tolist() == members
        for r, i in enumerate(members):
            assert got.cls[i] == c and got.rank[i] == r
    # one batched lookup per class size, as the CMLEs use it
    for m in set(got.sizes.tolist()):
        classes = np.flatnonzero(got.sizes == m)
        assert got.members(classes, m).tolist() == [want[c] for c in classes]


@pytest.mark.parametrize("spec", [
    fl.panel_ar(1, 6),
    fl.panel_ar(2, 6),
    fl.quarterly_ar(1, 8),
    fl.trend_ar(6),
    fl.ModelSpec("ar", 8, 2.0 * fl.quarterly_ar(1, 8).W, p=1),
    fl.network_design(3, 3),
], ids=["ar1", "ar2", "quarterly", "trend", "quarterly_x2", "network"])
def test_permutation_key_matches_counter_oracle(spec):
    # equal partitions of the paths: the flags agree on every pair
    paths = model.all_paths(spec.T)
    rng = np.random.default_rng(spec.T)
    for y0 in (np.zeros(spec.y0_len, int), rng.integers(0, 2, spec.y0_len)):
        multisets = {}
        want = [multisets.setdefault(frozenset(
            counter_pair_multiset(spec, y, y0).items()), len(multisets))
            for y in paths]
        got = sufficiency.key_classes(
            sufficiency.permutation_key(spec, paths, y0)).cls
        joint = len(set(zip(want, got.tolist())))
        assert joint == len(set(want)) == len(set(got.tolist()))
        theta = np.zeros(spec.theta_dim)
        for a, b in rng.integers(0, len(paths), (40, 2)):
            cert = fl.permutation_check(spec, paths[a], paths[b], y0, theta)
            assert cert.cond_permutation == (want[a] == want[b])


def _assert_same_members(spec, y):
    got = fl.network_cond_full(spec, y).members
    want = mask_network_cond_full(spec, y)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def test_network_cond_full_matches_mask_oracle():
    spec3 = fl.network_design(3, 3)
    for y in model.all_paths(9):
        _assert_same_members(spec3, y)
    spec4 = fl.network_design(4, 3)
    rng = np.random.default_rng(2024)
    for y in rng.integers(0, 2, (200, spec4.T)):
        _assert_same_members(spec4, y)
        assert sufficiency.network_star_equals_full(spec4, y) == (
            len(mask_network_cond_full(spec4, y))
            == len(fl.network_cond_star(spec4, y)))


def test_network_star_equality_fraction_exact_values():
    assert sufficiency.network_star_equality_fraction(fl.network_design(3, 3)) == 1.0
    assert sufficiency.network_star_equality_fraction(
        fl.network_design(4, 3)) == 0.953125
