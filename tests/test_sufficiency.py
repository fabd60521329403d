import itertools
import re

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import felogit as fl
from felogit import estimation, model, moments, sufficiency
from felogit.simulate import DGPConfig, generate
from oracles import (arp_statistic_key, counter_pair_multiset, mask_network_cond_full,
                     naive_path_prob, network_code_classes, network_star_equals_full)


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


@pytest.mark.parametrize("bad", [2, 255, -1])
def test_pair_tables_hold_int8_paths_and_refuse_other_outcomes(bad):
    # the paths are stored as int8, in which 255 would read -1
    spec = fl.panel_ar(1, 3)
    assert fl.permutation_check(spec, [1, 0, 1], [0, 1, 1], [0], [0.5]).y.dtype == np.int8
    certs = fl.enumerate_pairs_ar1(spec, [0])
    assert certs.y.dtype == certs.y_tilde.dtype == np.int8
    with pytest.raises(ValueError, match=rf"y must be binary \(0/1\), found {bad}$"):
        fl.permutation_check(spec, [1, bad, 0], [0, 1, 1], [0], [0.5])


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


def test_canonicalize_numbers_columns_by_first_appearance():
    # key order would label the columns 1, 0, 1, 2
    W_star, Omega = fl.canonicalize_design([[2, 1, 2, 3]])
    assert W_star.argmax(axis=0).tolist() == [0, 1, 0, 2]
    assert np.array_equal(W_star, model.incidence([0, 1, 0, 2], 3))
    assert Omega.tolist() == [[2, 1, 3]]


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
    assert len(certs) == 0


def test_enumerate_pairs_refuses_covariates():
    with pytest.raises(ValueError, match="covariate-free AR"):
        fl.enumerate_pairs_ar1(fl.quarterly_ar(1, 6, d_x=1), np.array([0]))


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
    assert len(short) == 0
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


def test_pairs_on_a_general_design_are_every_pair_of_its_classes():
    # the class_key of W itself: W y and the multiset of (w_t, y_{t-1}),
    # coarser than the (W* y, W* y_lag) of the canonical design, whose
    # groups give 224 of these 248 pairs; every ratio is free of A
    spec = fl.ModelSpec("ar", 8, [[1, 2, 5, 2, 5, 5, 2, 2]], p=1)
    y0, theta = np.array([0]), [0.4]
    certs = fl.enumerate_pairs_ar1(spec, y0, theta=theta)
    assert len(certs) == 248 and certs.passed.all()
    canonical = fl.ModelSpec("ar", 8, fl.canonicalize_design(spec.W)[0], p=1)
    got = {(tuple(a), tuple(b)) for a, b in zip(certs.y.tolist(), certs.y_tilde.tolist())}
    want = {(tuple(c.y.tolist()), tuple(c.y_tilde.tolist()))
            for c in pairs_oracle(canonical, y0, theta)}
    assert len(want) == 224 and want < got
    for A in np.random.default_rng(3).normal(size=(4, 1)) * 2:
        lp = [model.log_path_distribution(spec, y0, None, theta, A, ys)
              for ys in (certs.y, certs.y_tilde)]
        np.testing.assert_allclose(lp[0] - lp[1], certs.log_ratio, rtol=0, atol=1e-12)


def test_pairs_come_in_class_key_order():
    # on this basis design the classes of (W y, W y_lag) order (0,0,1,1,0)
    # before (0,1,1,0,0); their class_key rows order them the other way
    spec = fl.ModelSpec("ar", 5, model.incidence([0, 0, 0, 0, 1], 2), p=1)
    certs = fl.enumerate_pairs_ar1(spec, np.array([0]))
    firsts = [int(model.path_index(y)) for y in certs.y[::3]]
    assert firsts == [4, 5, 12, 6, 13, 7, 14, 15]
    assert len(certs) == len(pairs_oracle(spec, np.array([0]), [0.0])) == 24


def test_one_period_ar_pairs_have_no_lag_pattern_to_compare():
    # class_key has no period t = 2..T: its multiset part is empty
    spec = fl.panel_ar(1, 1)
    cert = fl.permutation_check(spec, [0], [1], [0], [0.5])
    assert (cert.cond_linear, cert.cond_permutation, cert.transition_gap) == (False, True, 0)
    assert fl.arp_condition_check(spec, [1], [1], [1]).passed
    assert len(fl.enumerate_pairs_ar1(spec, [0])) == 0


def test_pairs_are_refused_by_count_before_any_is_built():
    # panel T = 13 gives 2,700,060 pairs and runs; T = 14 passes the
    # 2^20-path bound but not the 2^22-pair one
    with pytest.raises(model.TooLarge, match=re.escape(
            "pairs would certify 10,392,408 pairs, a table of 478,050,768 bytes")):
        fl.enumerate_pairs_ar1(fl.panel_ar(1, 14), np.array([0]))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_pairs_are_exactly_the_pairs_permutation_check_passes(data):
    # integer W, basis vectors or not; pairs come class by class, and by
    # path within a class.  Pairs with unequal (integer) W y fail the
    # linear condition, so only the others are certified one by one
    T = data.draw(st.integers(2, 6))
    if data.draw(st.booleans()):
        labels = data.draw(st.lists(st.integers(0, 2), min_size=T, max_size=T))
        W = model.incidence(np.unique(labels, return_inverse=True)[1], len(set(labels)))
    else:
        d = data.draw(st.integers(1, 2))
        W = np.reshape(data.draw(st.lists(st.sampled_from([0, 1, 2, 3, 5]), min_size=d * T,
                                          max_size=d * T)), (d, T))
    spec = fl.ModelSpec("ar", T, W, p=1)
    theta = _draw_floats(data, 1)
    paths = model.all_paths(T)
    loads = [tuple(v) for v in (paths @ W.T).tolist()]
    for y0 in (np.array([0]), np.array([1])):
        want = {}
        for i, j in itertools.combinations(range(2**T), 2):
            if loads[i] != loads[j]:
                continue
            cert = fl.permutation_check(spec, paths[i], paths[j], y0, theta)
            if cert.passed:
                want[i, j] = cert
        certs = fl.enumerate_pairs_ar1(spec, y0, theta=theta)
        got = list(zip(model.path_index(certs.y).tolist(),
                       model.path_index(certs.y_tilde).tolist()))
        assert sorted(got) == sorted(want) and len(set(got)) == len(got)
        first = {}  # each path's class by its first member
        for i, j in sorted(want):
            first[j] = first.setdefault(i, i)
        blocks = [first[i] for i, _ in got]
        starts = [k for k in range(len(blocks)) if k == 0 or blocks[k] != blocks[k - 1]]
        assert len({blocks[k] for k in starts}) == len(starts)  # one block per class
        for k, stop in zip(starts, starts[1:] + [len(got)]):
            assert got[k:stop] == sorted(got[k:stop])
        for g, ij in zip(certs, got):
            w = want[ij]
            assert (g.cond_linear, g.cond_permutation, g.transition_gap) == (
                w.cond_linear, w.cond_permutation, w.transition_gap)
            assert abs(g.log_ratio - w.log_ratio) <= 1e-12


def test_pair_table_rows_agree_by_iteration_index_and_mask():
    certs = fl.enumerate_pairs_ar1(fl.quarterly_ar(1, 7), np.array([1]), theta=[0.6])
    rows = list(certs)
    assert len(rows) == len(certs) > 0
    for k in (0, 5, len(certs) - 1, -1):
        got = certs[k]
        assert isinstance(got.transition_gap, int) and isinstance(got.log_ratio, float)
        assert np.array_equal(got.y, rows[k].y)
        assert got[2:] == rows[k][2:] and got.passed == rows[k].passed
    mask = certs.transition_gap != 0
    assert 0 < mask.sum() < len(certs)
    kept = certs[mask]
    assert len(kept) == int(mask.sum()) == len(certs[np.flatnonzero(mask)])
    want = [r for r in rows if r.transition_gap != 0]
    for g, w in zip(kept, want):
        assert np.array_equal(g.y, w.y) and np.array_equal(g.y_tilde, w.y_tilde)
        assert g[2:] == w[2:]
    assert kept.passed.tolist() == [w.passed for w in want]
    assert len(certs[:3]) == 3 and np.array_equal(certs[:3].y, certs.y[:3])
    with pytest.raises(IndexError):
        certs[len(certs)]


def test_enumerate_pairs_trend_design_negative_result():
    for T in range(2, 7):
        spec = fl.trend_ar(T)
        assert len(fl.enumerate_pairs_ar1(spec, np.array([0]))) == 0


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


def _transition_counts(y, y0):
    # sum_t y_t y_{t-r} for r = 1..p, from the path with y0 before it
    full = np.concatenate([y0, y])
    p = len(y0)
    return np.array([full[p:] @ full[p - r:len(full) - r] for r in range(1, p + 1)])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_arp_condition_check_certifies_as_the_condition_system(data):
    # basis-vector designs: the class_key certificate equals the one of
    # the AR(p) statistics W prod_{r in i} y_{t-r}, field by field
    p = data.draw(st.integers(1, 3))
    T = data.draw(st.integers(p, 8))
    labels = data.draw(st.lists(st.integers(0, 3), min_size=T, max_size=T))
    W = model.incidence(np.unique(labels, return_inverse=True)[1], len(set(labels)))
    spec = fl.ModelSpec("ar", T, W, p=p)
    theta = _draw_floats(data, p)
    paths = model.all_paths(T)
    y0 = np.array(data.draw(st.lists(st.integers(0, 1), min_size=p, max_size=p)))
    for y0 in (y0, 1 - y0):  # (y_{1-p}, ..., y_0)
        key = arp_statistic_key(spec, paths, y0)
        for _ in range(6):
            i = data.draw(st.integers(0, 2**T - 1))
            mates = np.flatnonzero(np.all(key == key[i], axis=1))
            j = data.draw(st.sampled_from(mates.tolist()) if data.draw(st.booleans())
                          else st.integers(0, 2**T - 1))
            cert = fl.arp_condition_check(spec, paths[i], paths[j], y0, theta)
            lag = _transition_counts(paths[i], y0) - _transition_counts(paths[j], y0)
            assert (cert.cond_linear, cert.cond_permutation, cert.transition_gap) == (
                bool(np.all(key[i, :spec.d_w] == key[j, :spec.d_w])),
                bool(np.all(key[i, spec.d_w:] == key[j, spec.d_w:])), int(lag[0]))
            assert abs(cert.log_ratio - lag @ theta) <= 1e-12


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
        assert network_star_equals_full(spec, y)


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
            W_star.tolist(), dset.cardinality,
        ))
        assert np.allclose(Omega @ W_star, spec.W, rtol=0, atol=1e-15)
    assert seen[0] == seen[1]
    assert len(seen[0][0]) == 28


def _class_log_ratios(lp, cls):
    """log Pr(y) - log Pr(first member of y's class), per path."""
    first = {}
    base = np.array([lp[first.setdefault(c, i)] for i, c in enumerate(cls)])
    return lp - base


@pytest.mark.parametrize("gamma", [0.7, 0.1, -1.3])
@pytest.mark.parametrize("y0", [0, 1])
def test_ar1_log_ratio_is_exactly_gamma_times_gap(gamma, y0):
    # log Pr(y)/Pr(y~) = gamma (s(y) - s(y~)) exactly: a pair whose
    # ratio is 1 has log ratio 0.0, not the rounding of two index sums
    certs = fl.enumerate_pairs_ar1(fl.panel_ar(1, 9), np.array([y0]), theta=[gamma])
    assert len(certs) > 7000 and certs.transition_gap.dtype.kind == "i"
    assert np.all(certs.log_ratio[certs.transition_gap == 0] == 0.0)
    assert np.array_equal(certs.log_ratio, gamma * certs.transition_gap)


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
    _, cls = np.unique(arp_statistic_key(spec, paths, y0), axis=0,
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


CLASS_KEY_SPECS = {
    "panel_fe": lambda d_x: fl.build_design("panel_fe", T=4, d_x=d_x),
    "two_way": lambda d_x: fl.build_design("two_way", n=2, tau=3, d_x=d_x),
    "ar1": lambda d_x: fl.panel_ar(1, 5, d_x=d_x),
    "ar2": lambda d_x: fl.panel_ar(2, 5, d_x=d_x),
    "ar3": lambda d_x: fl.panel_ar(3, 6, d_x=d_x),
    "quarterly": lambda d_x: fl.quarterly_ar(1, 6, d_x=d_x),
    "network": lambda d_x: fl.network_design(3, 3, d_x=d_x),
}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_class_key_ratios_are_free_of_A_and_equal_profile_differences(data):
    # within a class_key class, log Pr(y) - log Pr(y~) is the same at
    # every A and equals (P - P~) @ theta; X is discrete (0/1), or absent
    spec = CLASS_KEY_SPECS[data.draw(st.sampled_from(sorted(CLASS_KEY_SPECS)))](
        data.draw(st.integers(0, 1)))
    theta = _draw_floats(data, spec.theta_dim)
    X = np.array(data.draw(st.lists(st.integers(0, 1), min_size=spec.d_x * spec.T,
                                    max_size=spec.d_x * spec.T)), float)
    X = X.reshape(spec.d_x, spec.T) if spec.d_x else None
    y0 = np.array(data.draw(st.lists(st.integers(0, 1), min_size=spec.y0_len,
                                     max_size=spec.y0_len)), dtype=np.int64)
    paths = model.all_paths(spec.T)
    cls = sufficiency.key_classes(sufficiency.class_key(spec, paths, y0, X)).cls
    A_rows = _draw_A_rows(data, spec)
    _assert_free_of_A(spec, y0, X, theta, A_rows, paths, cls)
    profile = _class_log_ratios(model.path_profile(spec, paths, y0, X) @ theta, cls)
    lp = model.log_path_distribution(spec, y0, X, theta, A_rows[0], paths)
    np.testing.assert_allclose(_class_log_ratios(lp, cls), profile, rtol=0, atol=1e-10)


def _same_partition(a, b):
    a, b = np.asarray(a).tolist(), np.asarray(b).tolist()
    return len(set(zip(a, b))) == len(set(a)) == len(set(b))


@pytest.mark.parametrize("spec", [
    fl.panel_ar(1, 6), fl.panel_ar(2, 5), fl.panel_ar(2, 8), fl.panel_ar(3, 8),
    fl.quarterly_ar(1, 8), fl.quarterly_ar(2, 8), fl.trend_ar(8),
], ids=["ar1_t6", "ar2_t5", "ar2_t8", "ar3_t8", "quarterly1_t8", "quarterly2_t8",
        "trend_t8"])
def test_class_key_partitions_paths_as_the_ar_statistics_do(spec):
    # on the shipped AR designs the class key and the AR(p) condition
    # statistics of the canonical design group the paths alike, at every y0
    paths = model.all_paths(spec.T)
    canonical = fl.ModelSpec("ar", spec.T, fl.canonicalize_design(spec.W)[0], p=spec.p)
    for y0 in itertools.product((0, 1), repeat=spec.p):
        want = sufficiency.key_classes(arp_statistic_key(canonical, paths, y0))
        got = sufficiency.key_classes(sufficiency.class_key(spec, paths, np.array(y0)))
        assert _same_partition(got.cls, want.cls), y0


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_class_key_reads_x_only_through_its_period_pattern(data):
    # renaming each covariate's values one to one keeps the pattern of
    # periods sharing (w_t, x_t), and at one y0 the class_key partition
    spec = CLASS_KEY_SPECS[data.draw(st.sampled_from(["ar1", "ar2", "quarterly", "network"]))](2)
    X = np.array(data.draw(st.lists(st.integers(0, 2), min_size=2 * spec.T,
                                    max_size=2 * spec.T))).reshape(2, spec.T)
    renamed = np.array([np.array(data.draw(st.lists(
        st.floats(-5, 5), min_size=3, max_size=3, unique=True)))[row] for row in X])
    y0 = np.array(data.draw(st.lists(st.integers(0, 1), min_size=spec.y0_len,
                                     max_size=spec.y0_len)), dtype=np.int64)
    np.testing.assert_array_equal(sufficiency.period_pattern(spec, X[None]),
                                  sufficiency.period_pattern(spec, renamed[None]))
    paths = model.all_paths(spec.T)
    assert _same_partition(*(sufficiency.key_classes(sufficiency.class_key(spec, paths, y0, x)).cls
                             for x in (X, renamed)))


@pytest.mark.parametrize("y0", ["000", "101", "111"])
def test_class_key_partitions_network_paths_as_network_cond_full(y0):
    spec = fl.network_design(3, 3)
    paths = model.all_paths(spec.T)
    got = sufficiency.key_classes(
        sufficiency.class_key(spec, paths, np.array(list(y0), dtype=int))).cls
    want = [model.path_index(fl.network_cond_full(spec, y).members[0]) for y in paths]
    assert _same_partition(got, want)


@pytest.mark.parametrize("x, passing", [([0, 1, -1, 0.5], 0), ([1, 0, 1, 0], 4)])
def test_permutation_check_reads_the_covariates(x, passing):
    # with x in the permutation multiset, a certified pair's ratio is
    # exp(log_ratio) at every A; with distinct x_t only y~ = y passes
    spec, X = fl.panel_ar(1, 4, d_x=1), np.array([x], float)
    theta, y0, paths = np.array([0.7, 1.3]), np.array([0]), model.all_paths(4)
    certs = [fl.permutation_check(spec, paths[a], paths[b], y0, theta, X=X)
             for a, b in itertools.combinations(range(16), 2)]
    assert sum(c.passed for c in certs) == passing
    for c in certs:
        if c.passed:
            for A in ([-2.0], [0.0], [1.5]):
                ratio = fl.likelihood_ratio(spec, c.y, c.y_tilde, y0, X, theta, np.array(A))
                assert np.log(ratio) == pytest.approx(c.log_ratio, abs=1e-12)


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
    assert got.first.tolist() == [g[0] for g in want]
    # order lists the classes' members class by class, rank places each
    assert got.order.tolist() == [i for g in want for i in g]
    for c, members in enumerate(want):
        for r, i in enumerate(members):
            assert got.cls[i] == c and got.rank[i] == r


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_key_class_segments_lay_out_members_class_by_class(data):
    n = data.draw(st.integers(1, 40))
    keys = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=n,
                                       max_size=n)))
    got = sufficiency.key_classes(keys)
    want = _dict_classes(keys[:, None].tolist())
    classes = np.array(data.draw(st.lists(
        st.integers(0, got.sizes.size - 1), max_size=20)), dtype=np.int64)
    members, start = got.segments(classes)
    size = got.sizes[classes]
    assert start.tolist() == (np.cumsum(size) - size).tolist()
    assert members.tolist() == [i for c in classes for i in want[c]]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_key_class_pairs_match_combinations_within_each_class(data):
    n = data.draw(st.integers(0, 40))
    keys = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=n,
                                       max_size=n)), dtype=np.int64)
    a, b = sufficiency.key_classes(keys).pairs()
    want = [ab for g in _dict_classes(keys[:, None].tolist())
            for ab in itertools.combinations(g, 2)]
    assert list(zip(a.tolist(), b.tolist())) == want


@pytest.mark.parametrize("spec", [
    fl.panel_ar(1, 6),
    fl.panel_ar(2, 6),
    fl.quarterly_ar(1, 8),
    fl.trend_ar(6),
    fl.ModelSpec("ar", 8, 2.0 * fl.quarterly_ar(1, 8).W, p=1),
    fl.network_design(3, 3),
], ids=["ar1", "ar2", "quarterly", "trend", "quarterly_x2", "network"])
def test_permutation_key_matches_counter_oracle(spec):
    # the permutation part of class_key, the columns after W y, and the
    # counter oracle give equal partitions of the paths; the flags agree
    # on every pair
    paths = model.all_paths(spec.T)
    rng = np.random.default_rng(spec.T)
    for y0 in (np.zeros(spec.y0_len, int), rng.integers(0, 2, spec.y0_len)):
        multisets = {}
        want = [multisets.setdefault(frozenset(
            counter_pair_multiset(spec, y, y0).items()), len(multisets))
            for y in paths]
        got = sufficiency.key_classes(
            sufficiency.class_key(spec, paths, y0)[:, spec.d_w:]).cls
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
        assert network_star_equals_full(spec4, y) == (
            len(mask_network_cond_full(spec4, y))
            == len(fl.network_cond_star(spec4, y)))


@pytest.mark.parametrize("n", [3, 4])
def test_network_classes_match_the_dyad_code_key(n):
    # every (period-1, period-2) pair, grouped by class_key and by the
    # per-dyad unordered pair of (link, shared friends) codes
    got, want = sufficiency._network_classes(n), network_code_classes(n)
    assert len(got.cls) == len(want.cls) == 4 ** (n * (n - 1) // 2)
    assert _same_partition(got.cls, want.cls)


NETWORK_X = fl.network_design(3, 3, d_x=1)
NETWORK_Y = np.array([1, 0, 1, 1, 0, 0, 0, 1, 0])


@pytest.mark.parametrize("call", [
    lambda: fl.network_cond_full(NETWORK_X, NETWORK_Y),
    lambda: fl.network_cond_star(NETWORK_X, NETWORK_Y),
    lambda: sufficiency.network_star_equality_fraction(NETWORK_X),
    lambda: fl.network_cond_likelihood(
        NETWORK_X, [0.5, 0.2, 1.0], NETWORK_Y, np.zeros(3, int),
        fl.network_cond_full(fl.network_design(3, 3), NETWORK_Y)),
], ids=["full", "star", "equality_fraction", "likelihood"])
def test_network_conditioning_refuses_covariates(call):
    # the sets read no X, and with varying x their ratios depend on A
    with pytest.raises(ValueError, match="network conditioning sets are covariate-free"):
        call()


def test_network_star_equality_fraction_exact_values():
    assert sufficiency.network_star_equality_fraction(fl.network_design(3, 3)) == 1.0
    assert sufficiency.network_star_equality_fraction(
        fl.network_design(4, 3)) == 0.953125
