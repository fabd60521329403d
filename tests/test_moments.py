import hashlib
import json
import re
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

import felogit as fl
from felogit import model, moments, sufficiency
from oracles import (
    moment_bound,
    mp_null_basis,
    mp_probability_matrix,
    naive_expectation,
    path_probability,
    per_path_coefficients,
    phi_expand,
    phi_kappa,
    subspace_residual,
    svd_null_space,
)


def test_qt_ar2_generic():
    spec = fl.panel_ar(2, 5)
    Q = fl.qt_values(spec, np.array([0, 0]), None, [0.7, -0.4])
    assert Q == (1, 2, 4, 4, 4)


def test_qt_ar2_coincident_gammas_collapse():
    spec = fl.panel_ar(2, 5)
    Q = fl.qt_values(spec, np.array([0, 0]), None, [0.5, 0.5])
    # gamma1 = gamma2 merges the (1,0) and (0,1) histories
    assert Q == (1, 2, 3, 3, 3)
    Qz = fl.qt_values(spec, np.array([0, 0]), None, [0.0, 0.0])
    assert Qz == (1, 1, 1, 1, 1)


def test_qt_network():
    spec = fl.network_design(3, 3)
    Q = fl.qt_values(spec, np.zeros(3, int), None, [0.4, 0.2])
    assert Q == (1, 1, 1, 4, 4, 4, 4, 4, 4)


def test_qt_quarterly():
    spec = fl.quarterly_ar(1, 6)
    assert fl.qt_values(spec, np.array([0]), None, [0.9]) == (1, 2, 2, 2, 2, 2)


def test_index_value_tables_refuse_missing_covariates():
    spec = fl.build_design("two_way", n=3, tau=3)
    with pytest.raises(ValueError, match=re.escape("X must be d_x x T = (1, 9)")):
        moments.index_value_tables(spec, np.zeros(0), None, [0.5])


def test_dset_ar_formula():
    for p, T in [(1, 3), (1, 6), (2, 4), (2, 6), (3, 6)]:
        spec = fl.panel_ar(p, T)
        theta = 0.3 + 0.2 * np.arange(p)
        Q = fl.qt_values(spec, np.zeros(p, int), None, theta)
        ds = fl.build_dset(spec, Q)
        assert ds.cardinality == 2**p * (T + 1 - p)
        assert ds.cardinality == len(moments._walk(model.exact_key(spec.W), Q)[0])


def test_dset_quarterly_floor_formula():
    for T in range(5, 13):
        spec = fl.quarterly_ar(1, T)
        Q = fl.qt_values(spec, np.array([0]), None, [0.9])
        ds = fl.build_dset(spec, Q)
        expect = (
            (2 * ((T - 1) // 4) + 2)
            * (2 * ((T - 2) // 4) + 3)
            * (2 * ((T - 3) // 4) + 3)
            * (2 * (T // 4) + 1)
        )
        assert ds.cardinality == expect


def test_dset_network_count():
    spec = fl.network_design(3, 3)
    Q = fl.qt_values(spec, np.zeros(3, int), None, [0.4, 0.2])
    ds = fl.build_dset(spec, Q)
    assert ds.cardinality == (2 * 2 * 2 + 2) ** 3  # [2(tau-1)(n-1)+2]^C(n,2)


def test_dset_zero_caps():
    spec = fl.panel_ar(1, 4)
    ds = fl.build_dset(spec, (0, 0, 0, 0))
    assert ds.cardinality == len(moments._walk(model.exact_key(spec.W), ds.caps)[0]) == 1


def test_dset_all_zero_design_counts_its_one_element():
    # an all-zero W has one exponent vector, as coefficient_matrix finds;
    # it is not the constant-column count sum(Q) + 1
    spec = fl.ModelSpec("ar", 4, np.zeros((1, 4)), p=1)
    y0, theta = np.array([0]), np.array([0.5])
    ds = fl.build_dset(spec, fl.qt_values(spec, y0, None, theta))
    C, _, _ = moments.coefficient_matrix(spec, y0, None, theta)
    assert ds.cardinality == C.shape[0] == 1


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_dset_closed_form_matches_walk_on_scaled_indicator_designs(data):
    # columns c_r e_r with one nonzero scale c_r per row r; with a scale
    # per column instead, a row may mix scales and only the walk applies
    T = data.draw(st.integers(1, 8))
    d_w = data.draw(st.integers(1, 4))
    row = np.array(data.draw(st.lists(st.integers(0, d_w - 1), min_size=T, max_size=T)))
    per_column = data.draw(st.booleans())
    scale = np.array(data.draw(st.lists(
        st.sampled_from([-2.0, -1.0, 0.5, 1.0, 2.0, 3.0]), min_size=8, max_size=8)))
    W = np.zeros((d_w, T))
    W[row, np.arange(T)] = scale[:T] if per_column else scale[row]
    Q = tuple(data.draw(st.lists(st.integers(0, 3), min_size=T, max_size=T)))
    spec = fl.ModelSpec("static", T, W, d_x=1)
    assert fl.build_dset(spec, Q).cardinality == len(moments._walk(model.exact_key(W), Q)[0])


SCALED_FAMILIES = {
    "ar": lambda data, T, d_x: fl.panel_ar(data.draw(st.integers(1, 2)), T, d_x=d_x),
    "trend-ar": lambda data, T, d_x: fl.trend_ar(T, d_x=d_x),
    "poly": lambda data, T, d_x: fl.build_design("poly", p=data.draw(st.integers(0, 2)), T=T),
}


@settings(max_examples=40, deadline=None)
@given(data=st.data(), c=st.sampled_from([0.1, 0.5, 0.7, 3.0]))
def test_scaling_the_design_keeps_every_count(data, c):
    # W -> c W with A -> A / c is the same model: exponent sums that
    # differ by rounding only, 0.1 + 0.2 against 0.3, are one exponent
    spec = SCALED_FAMILIES[data.draw(st.sampled_from(sorted(SCALED_FAMILIES)))](
        data, data.draw(st.integers(3, 7)), data.draw(st.integers(0, 1)))
    scaled = model.ModelSpec(spec.family, spec.T, c * spec.W, d_x=spec.d_x, **spec.sizes)
    theta, X, y0, _ = _draw_inputs(data, [spec])[1:]
    counts = []
    for s in (spec, scaled):
        Q = fl.qt_values(s, y0, X, theta)
        rep = fl.nullspace_moments(s, y0, X, theta)
        counts.append((Q, fl.build_dset(s, Q).cardinality, rep.rank, rep.dimension))
    assert counts[0] == counts[1]


def test_dset_refuses_oversized_general_design():
    rng = np.random.default_rng(0)
    W = rng.normal(size=(3, 30))
    spec = fl.ModelSpec("static", 30, W, d_x=1)
    with pytest.raises(moments.TooLarge):
        fl.build_dset(spec, tuple([8] * 30))


def test_moment_bound_values():
    assert moment_bound(fl.panel_ar(1, 3), np.array([0]), None, [0.5]) == 2
    assert moment_bound(fl.panel_ar(2, 3), np.array([0, 0]), None, [0.5, 0.3]) == 0
    assert moment_bound(fl.panel_ar(2, 4), np.array([0, 0]), None, [0.5, 0.3]) == 4


def test_moment_bound_quarterly_positive_from_T11():
    # the exponent-set formula makes the bound positive at T = 11
    # already (2^11 = 2048 > 1470); prose claims of T >= 12 round up
    bounds = {}
    for T in range(6, 13):
        spec = fl.quarterly_ar(1, T)
        bounds[T] = moment_bound(spec, np.array([0]), None, [0.9])
    assert all(bounds[T] <= 0 for T in range(6, 11))
    assert bounds[11] > 0 and bounds[12] > 0


def test_phi_single_period():
    spec = fl.ModelSpec("static", 1, np.ones((1, 1)), d_x=1)
    theta = np.array([0.7])
    X = np.array([[1.3]])
    exp_ = phi_expand(spec, np.array([1]), None, X, theta)
    b = np.exp(0.7 * 1.3)
    assert np.allclose(exp_.per_period[0], [0.0, b])
    exp0 = phi_expand(spec, np.array([0]), None, X, theta)
    assert np.allclose(exp0.per_period[0], [1.0])


def test_phi_reconstruction_and_mass():
    rng = np.random.default_rng(21)
    spec = fl.panel_ar(1, 10, d_x=1)
    theta = rng.uniform(-1, 1, 2)
    X = rng.normal(size=(1, 10))
    y0 = np.array([1])
    tables = moments.index_value_tables(spec, y0, X, theta)
    A_draws = rng.uniform(-2, 2, (5, 1))
    total = {tuple(A): 0.0 for A in A_draws}
    for y in model.all_paths(10):
        exp_ = phi_expand(spec, y, y0, X, theta)
        for A in A_draws:
            val = phi_kappa(spec, tables, A) * sum(
                c * np.exp(np.dot(d, A)) for d, c in exp_.grouped.items()
            )
            ref = path_probability(spec, y, y0, X, theta, A)
            assert abs(val - ref) / ref < 1e-9
            total[tuple(A)] += val
    for A in A_draws:  # sum over y of the grouped mass is 1/kappa rearranged
        assert total[tuple(A)] == pytest.approx(1.0, abs=1e-9)


COEFFICIENT_SPECS = {
    "ar1": fl.panel_ar(1, 5),
    "ar1_x": fl.panel_ar(1, 5, d_x=1),
    "ar2": fl.panel_ar(2, 5),
    "ar2_x": fl.panel_ar(2, 5, d_x=1),
    "quarterly_ar1": fl.quarterly_ar(1, 7),
    "trend_ar1": fl.trend_ar(6),
    "static_two_way_x": fl.build_design("two_way", n=3, tau=3, d_x=1),
    "network_tau3": fl.network_design(3, 3),
    # one scale per row, read from model JSON: a negative scale, a
    # non-integer one and a row that no period loads
    "json_scaled_indicator": model.ModelSpec.from_json(json.dumps({
        "family": "ar", "T": 5, "p": 1,
        "W": [[-2, 0, 0, -2, 0], [0, 0, 0, 0, 0], [0, 0.5, 0.5, 0, 0.5]]})),
}


@pytest.mark.parametrize("y0_bit", [0, 1])
@pytest.mark.parametrize("name", list(COEFFICIENT_SPECS))
def test_coefficient_matrix_matches_per_path_expansion(name, y0_bit):
    spec = COEFFICIENT_SPECS[name]
    rng = np.random.default_rng([list(COEFFICIENT_SPECS).index(name), y0_bit])
    theta = rng.uniform(-1, 1, spec.theta_dim)
    X = rng.normal(size=(spec.d_x, spec.T)) if spec.d_x else None
    y0 = np.full(spec.y0_len, y0_bit)
    C, ds, tables = moments.coefficient_matrix(spec, y0, X, theta)
    ref = per_path_coefficients(spec, tables, y0, X, theta)
    assert C.shape == (len(ref), 2**spec.T)
    assert set(map(tuple, ds.tolist())) == set(ref)
    assert ds.tolist() == sorted(ds.tolist())
    expect = np.array([ref[d] for d in map(tuple, ds.tolist())])
    np.testing.assert_allclose(C, expect, rtol=1e-12, atol=0)


def _walk_build(spec, y0, X, theta):
    """(C, ds) of ``moments._expand`` along the ``_walk``, on all paths."""
    tables, paths, q = moments._table_places(spec, y0, X, theta)
    walk = moments._walk(model.exact_key(spec.W), [len(tab) for tab in tables])
    return moments._expand(walk, moments._poly_cache(tables), paths, q)


ROW_SCALE_FAMILIES = {
    "panel_ar": lambda data, T, d_x: fl.panel_ar(data.draw(st.integers(1, 2)), T, d_x=d_x),
    "quarterly_ar": lambda data, T, d_x: fl.quarterly_ar(1, T, d_x=d_x),
    "panel_fe": lambda data, T, d_x: fl.build_design("panel_fe", d_x=d_x, T=T),
    # dyad indicators: one scale per row as well
    "network": lambda data, T, d_x: fl.network_design(3, data.draw(st.integers(2, 3)), d_x),
}


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_per_row_build_matches_prefix_tree(data):
    # designs of one scale per row take the per-row route; it must give
    # the walk's exponent rows in its order and C to rounding
    family = data.draw(st.sampled_from(sorted(ROW_SCALE_FAMILIES)))
    spec = ROW_SCALE_FAMILIES[family](data, data.draw(st.integers(3, 8)),
                                      data.draw(st.integers(0, 1)))
    assert moments._row_scales(model.exact_key(spec.W)) is not None
    theta, X, y0, _ = _draw_inputs(data, [spec])[1:]
    C, ds, _ = moments.coefficient_matrix(spec, y0, X, theta)
    C0, ds0 = _walk_build(spec, y0, X, theta)
    assert ds.dtype == ds0.dtype and np.array_equal(ds, ds0)
    np.testing.assert_allclose(C, C0, rtol=1e-12, atol=0)


# sha256 of C.tobytes() + ds.tobytes() of ``coefficient_matrix`` at y0 = 1
# and theta and X from default_rng(5), over both build routes; C is built
# without BLAS, so the bytes are exact
RECORDED_COEFFICIENTS = {
    "trend_ar_t9": (fl.trend_ar(9), (426, 512),
                    "5b7d0b0b1c6c0b6aecce55a5e0da08fc2f162c0e2bac65d9cd7d74b6f8ea868d"),
    "two_way_3x3_x": (fl.build_design("two_way", n=3, tau=3), (328, 512),
                      "cbdb50c3dc661b950b2fb83b4f795a89707a146e21792a4e3ba31d7be2fbd28e"),
    "dyadic_n4_x": (fl.build_design("dyadic", n=4), (54, 64),
                    "efe9446a282c689b6c1e5eba188f681b6573f1e52dec8c97a272b00c0defb95c"),
    "poly_p2_t7_x": (fl.build_design("poly", p=2, T=7), (126, 128),
                     "32458cda7c763db3a423492ca1be4c3507065fb4e0a1f89a4f439fe80275aac4"),
    "quarterly_t9": (fl.quarterly_ar(1, 9), (750, 512),
                     "801dd18974ab5b86db049af00040b154ac697492ad6be04e0fc88c3c58f93cb6"),
    "network_n3_tau2": (fl.network_design(3, 2), (216, 64),
                        "a5f7ec90cde6b44cce9df9c7ad97f2c85d81c8ada367d788348f101799b220ce"),
}


@pytest.mark.parametrize("name", RECORDED_COEFFICIENTS)
def test_coefficient_matrix_keeps_its_recorded_bytes(name):
    spec, shape, digest = RECORDED_COEFFICIENTS[name]
    rng = np.random.default_rng(5)
    theta = rng.uniform(-1, 1, spec.theta_dim)
    X = rng.normal(size=(spec.d_x, spec.T)) if spec.d_x else None
    C, ds, _ = moments.coefficient_matrix(spec, np.ones(spec.y0_len, dtype=np.int8), X, theta)
    assert C.shape == shape and (C.dtype, ds.dtype) == (np.float64, np.int64)
    assert hashlib.sha256(C.tobytes() + ds.tobytes()).hexdigest() == digest


def test_one_walk_gives_the_count_and_the_build(monkeypatch):
    calls = []
    walk = moments._walk
    monkeypatch.setattr(moments, "_walk", lambda *a: calls.append(a) or walk(*a))
    spec = fl.trend_ar(9)
    C, ds, _ = moments.coefficient_matrix(spec, np.array([0]), None, [0.9])
    assert len(calls) == 1 and C.shape == (len(ds), 512) == (426, 512)
    assert not hasattr(moments, "_extend")


PROPERTY_SPECS = [
    fl.panel_ar(1, 4, d_x=1),
    fl.panel_ar(2, 4),
    fl.panel_ar(2, 5, d_x=1),
    fl.quarterly_ar(1, 6, d_x=1),
    fl.trend_ar(4, d_x=1),
    fl.network_design(3, 2),
]


def _draw_inputs(data, specs=PROPERTY_SPECS):
    """A spec with random (theta, X, y0) and a few fixed-effect draws."""
    spec = data.draw(st.sampled_from(specs))

    def floats(n, bound):
        return np.array(data.draw(st.lists(st.floats(-bound, bound),
                                           min_size=n, max_size=n)))

    theta = floats(spec.theta_dim, 1.5)
    X = floats(spec.d_x * spec.T, 1.5).reshape(spec.d_x, spec.T) if spec.d_x else None
    y0 = np.array(data.draw(st.lists(st.integers(0, 1), min_size=spec.y0_len,
                                     max_size=spec.y0_len)), dtype=np.int64)
    A_rows = floats(3 * spec.d_w, 2.0).reshape(3, spec.d_w)
    return spec, theta, X, y0, A_rows


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_coefficient_matrix_reconstructs_path_probabilities(data):
    spec, theta, X, y0, A_rows = _draw_inputs(data)
    C, ds, tables = moments.coefficient_matrix(spec, y0, X, theta)
    for A in A_rows:
        recon = phi_kappa(spec, tables, A) * (np.exp(ds @ A) @ C)
        for y, value in zip(model.all_paths(spec.T), recon):
            ref = path_probability(spec, y, y0, X, theta, A)
            assert value == pytest.approx(ref, rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_nullspace_moments_have_zero_mean(data):
    spec, theta, X, y0, A_rows = _draw_inputs(data)
    rep = fl.nullspace_moments(spec, y0, X, theta)
    for m in rep.moments:
        assert fl.verify_moment(m, spec, y0, X, theta, A_rows) < 1e-8


ORACLE_FAMILIES = {
    "ar1": (lambda T, d_x: fl.panel_ar(1, T, d_x=d_x), 2),
    "ar2": (lambda T, d_x: fl.panel_ar(2, T, d_x=d_x), 3),
    "quarterly": (lambda T, d_x: fl.quarterly_ar(1, T, d_x=d_x), 4),
    "trend-ar": (lambda T, d_x: fl.trend_ar(T, d_x=d_x), 3),
    "panel_fe": (lambda T, d_x: fl.build_design("panel_fe", d_x=d_x, T=T), 2),
    # n = 3 units or nodes, so T = 3 tau
    "two_way": (lambda T, d_x: fl.build_design("two_way", d_x=d_x, n=3, tau=T // 3), 6),
    "network": (lambda T, d_x: fl.network_design(3, T // 3, d_x), 3),
}


def _weak(s, rank):
    return bool(rank > 0 and rank < s.size and s[rank - 1] / max(s[rank], 1e-300) < 10.0)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_grouped_null_space_matches_full_svd_oracle(data):
    build, least_T = ORACLE_FAMILIES[data.draw(st.sampled_from(sorted(ORACLE_FAMILIES)))]
    spec = build(data.draw(st.integers(least_T, 9)), data.draw(st.integers(0, 1)))
    theta, X, y0, _ = _draw_inputs(data, [spec])[1:]
    C = moments.coefficient_matrix(spec, y0, X, theta)[0]
    s0, rank0, V0 = svd_null_space(C)
    rep = fl.nullspace_moments(spec, y0, X, theta)
    assert (rep.rank, rep.dimension) == (rank0, V0.shape[0])
    assert rep.weak_separation == _weak(s0, rank0)
    np.testing.assert_allclose(rep.singular_values, s0, rtol=0, atol=1e-12 * s0[0])
    V = np.vstack([m.values for m in rep.moments]) if rep.moments else np.zeros((0, 2**spec.T))
    assert np.max(np.abs(V @ V.T - np.eye(len(V))), initial=0.0) < 1e-12
    # a null space is fixed only to about eps * s_1 / s_rank (Wedin), and
    # the rank threshold lets that ratio reach 1e9
    gap = s0[0] / s0[rank0 - 1] if rank0 else 1.0
    assert subspace_residual(V, V0) < max(1e-10, 1e-15 * gap)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_columns_of_one_class_are_proportional_by_the_path_profile(data):
    # what the grouped null space rests on: paths of one class_key have a
    # probability ratio free of A, so C[:, j] = exp((P_j - P_k) theta) C[:, k]
    build, least_T = ORACLE_FAMILIES[data.draw(st.sampled_from(sorted(ORACLE_FAMILIES)))]
    spec = build(data.draw(st.integers(least_T, 9)), data.draw(st.integers(0, 1)))
    theta, _, y0, _ = _draw_inputs(data, [spec])[1:]
    # covariates from a few values, so that periods share an x_t
    X = np.array(data.draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5]), min_size=spec.d_x * spec.T,
                                    max_size=spec.d_x * spec.T))).reshape(spec.d_x, spec.T)
    X = X if spec.d_x else None
    C = moments.coefficient_matrix(spec, y0, X, theta)[0]
    paths = model.all_paths(spec.T)
    groups = sufficiency.row_classes(sufficiency.class_key(spec, paths, y0, X))
    # P_j theta = sum_t y_t pi_t, at the index values C is built on: pi
    # merged within 1e-12 into its period's table, as theta = 1e-12 is
    tables, _, q = moments._table_places(spec, y0, X, theta)
    g = sum(y * tab[qt] for y, qt, tab in zip(paths.T, q.T, tables))
    np.testing.assert_allclose(g, model.path_profile(spec, paths, y0, X) @ theta,
                               rtol=0, atol=2e-12 * spec.T)
    k = groups.first[groups.cls]
    err = np.abs(C - C[:, k] * np.exp(g - g[k])).max(axis=0)
    assert np.all(err <= 1e-12 * np.abs(C).max(axis=0))


def test_zero_weight_gives_no_nan():
    # a weight that underflowed to 0 comes first in row order; the class
    # starts at its heaviest member, so no contrast divides 0 by 0
    c, e = np.array([0.3, 1.0, 2.5]), np.array([1.0, -1.0, 0.5])
    w = np.array([0.0, 1.0, 0.25, 0.5, 1.0])
    M = np.column_stack([0 * c, c, 0.25 * c, 0.5 * e, e])
    groups = sufficiency.key_classes(np.array([0, 0, 0, 1, 1])).by_weight(w)
    s, rank, V = moments._null_space(M[:, groups.first], groups, w)
    s0, rank0, V0 = svd_null_space(M)
    assert np.all(np.isfinite(V)) and np.all(np.isfinite(s))
    assert rank == rank0 == 2 and V.shape == V0.shape == (3, 5)
    assert np.max(np.abs(V @ V.T - np.eye(3))) < 1e-12
    assert subspace_residual(V, V0) < 1e-12


@pytest.mark.parametrize("spec, y0, theta, classes, rank", [
    (fl.panel_ar(1, 9), [0], [0.9], 18, 18),
    (fl.quarterly_ar(1, 9), [0], [0.9], 162, 162),
    # more classes than the rank: moments beyond conditioning exist
    (fl.panel_ar(2, 8), [0, 0], [0.5, -0.3], 58, 15),
], ids=["ar1_t9", "quarterly_t9", "ar2_t8"])
def test_nullspace_report_counts_its_classes(spec, y0, theta, classes, rank):
    rep = fl.nullspace_moments(spec, np.array(y0), None, theta)
    assert (rep.classes, rep.rank) == (classes, rank)


def test_coefficient_matrix_refuses_its_size_before_allocating():
    # network n=4, tau=2: |D| = 8^6, so C would take 8 GiB
    spec = fl.network_design(4, 2)
    tracemalloc.start()
    try:
        with pytest.raises(fl.model.TooLarge, match=re.escape(
                "|D| x 2^T = 262,144 x 4,096, 8,589,934,592 bytes")):
            moments.coefficient_matrix(spec, np.zeros(6, int), None, [0.5, 0.2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6


def test_coefficient_matrix_admits_quarterly_t14(monkeypatch):
    # 3,528 x 2^14 = 5.8e7 elements, under the 2^27 limit: the build starts
    class Built(Exception):
        pass

    def build(*args):
        raise Built

    monkeypatch.setattr(moments, "_expand_rows", build)
    with pytest.raises(Built):
        moments.coefficient_matrix(fl.quarterly_ar(1, 14), np.array([0]), None, [0.9])


def test_columns_one_ulp_apart_stay_two_groups():
    c = np.array([0.3, 1.0, 2.5])
    M = np.column_stack([c, c, c + [0.0, np.spacing(1.0), 0.0], c.copy(), 2 * c])
    groups = sufficiency.row_classes(M.T)
    assert groups.cls.tolist() == [0, 0, 1, 0, 2]
    s, rank, V = moments._null_space(M[:, groups.first], groups, np.ones(5))
    s0, rank0, V0 = svd_null_space(M)
    assert rank == rank0 == 1 and V.shape == V0.shape == (4, 5)
    assert subspace_residual(V, V0) < 1e-12


def test_nullspace_dimension_ar1_t3():
    rng = np.random.default_rng(31)
    spec = fl.panel_ar(1, 3, d_x=1)
    rep = fl.nullspace_moments(spec, np.array([0]), rng.normal(size=(1, 3)),
                               np.array([0.6, 0.8]))
    assert rep.dimension == 2
    assert not rep.weak_separation


def test_nullspace_exists_beyond_bound_ar2_t3():
    spec = fl.panel_ar(2, 3)
    rep = fl.nullspace_moments(spec, np.array([0, 1]), None, [0.5, -0.3])
    assert rep.dimension >= 1


def test_nullspace_trend_ar1():
    assert fl.nullspace_moments(fl.trend_ar(7), np.array([0]), None,
                                [0.7]).dimension == 0
    assert fl.nullspace_moments(fl.trend_ar(8), np.array([0]), None,
                                [0.7]).dimension >= 1


def test_nullspace_vectors_verify():
    rng = np.random.default_rng(41)
    spec = fl.panel_ar(2, 4, d_x=1)
    theta = rng.uniform(-1, 1, 3)
    X = rng.normal(size=(1, 4))
    y0 = np.array([1, 0])
    rep = fl.nullspace_moments(spec, y0, X, theta)
    grid = rng.uniform(-3, 3, (50, 1))
    for m in rep.moments:
        assert fl.verify_moment(m, spec, y0, X, theta, grid) < 1e-8


def test_verify_moment_edge_cases():
    spec = fl.panel_ar(1, 3)
    zero = moments.MomentFunction(3, np.zeros(8))
    grid = np.linspace(-4, 4, 9)[:, None]
    assert fl.verify_moment(zero, spec, np.array([0]), None, [0.5], grid) == 0.0
    spike = moments.MomentFunction(3, np.eye(8)[3])
    assert fl.verify_moment(spike, spec, np.array([0]), None, [0.5], grid) > 0.0


def test_verify_moment_follows_every_input_after_a_cached_call():
    rng = np.random.default_rng(7)
    spec = fl.quarterly_ar(1, 5, d_x=1)
    theta, y0 = np.array([0.4, -0.7]), np.array([1])
    X, grid = rng.normal(size=(1, 5)), rng.uniform(-2, 2, (6, 4))
    m = rng.normal(size=32)

    def uncached():
        return max(abs(m @ fl.path_distribution(spec, y0, X, theta, A))
                   for A in grid)

    first = fl.verify_moment(m, spec, y0, X, theta, grid)
    assert fl.verify_moment(m, spec, y0, X, theta, grid) == first
    assert first == pytest.approx(uncached(), rel=1e-12)
    # each change is made in place, to arrays the cached call has seen
    for change in (
        lambda: theta.__setitem__(0, 1.1),
        lambda: y0.__setitem__(0, 0),
        lambda: X.__setitem__((0, 2), X[0, 2] + 1.0),
        lambda: grid.__setitem__((3, 1), grid[3, 1] - 1.0),
        lambda: spec.W.__setitem__((1, 2), 0.5),
    ):
        before = fl.verify_moment(m, spec, y0, X, theta, grid)
        change()
        after = fl.verify_moment(m, spec, y0, X, theta, grid)
        assert after != before
        assert after == pytest.approx(uncached(), rel=1e-12)


def test_probability_matrix_is_read_only():
    spec = fl.panel_ar(1, 3)
    grid = np.linspace(-2, 2, 5)[:, None]
    P = moments.probability_matrix(spec, np.array([0]), None, [0.5], grid)
    assert P.shape == (5, 8)
    np.testing.assert_allclose(P.sum(axis=1), 1.0, rtol=1e-12)
    with pytest.raises(ValueError):
        P[0, 0] = 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_probability_cache_returns_its_matrix_and_still_refuses_a_non_finite_grid(bad):
    # the cache is looked up before the grid is checked: a hit must return
    # the stored matrix, and a non-finite grid must miss and be refused
    spec, y0 = fl.panel_ar(1, 3), np.array([0])
    grid = np.linspace(-2, 2, 5)[:, None]
    P = moments.probability_matrix(spec, y0, None, [0.5], grid)
    assert moments.probability_matrix(spec, y0, None, [0.5], grid.copy()) is P
    assert not P.flags.writeable
    worse = grid.copy()
    worse[2, 0] = bad
    with pytest.raises(ValueError, match="A must be finite"):
        moments.probability_matrix(spec, y0, None, [0.5], worse)
    with pytest.raises(ValueError, match="A must be finite"):
        fl.verify_moment(np.ones(8), spec, y0, None, [0.5], worse)
    assert moments.probability_matrix(spec, y0, None, [0.5], grid) is P


def test_ar2_closed_form_table_values():
    g1, g2 = 0.8, -0.6
    m00 = fl.closed_form_ar2_T3((0, 0), [g1, g2])
    assert m00((0, 1, 0)) == pytest.approx(1.0)
    assert m00((0, 1, 1)) == pytest.approx(np.exp(-g1))
    assert m00((1, 0, 0)) == -1.0 and m00((1, 0, 1)) == -1.0
    assert m00((0, 0, 0)) == 0.0
    m01 = fl.closed_form_ar2_T3((0, 1), [g1, g2])
    assert m01((1, 0, 0)) == pytest.approx(np.exp(g2 - g1))
    assert m01((1, 0, 1)) == pytest.approx(np.exp(g2))
    assert m01((0, 1, 0)) == -1.0


def test_ar2_closed_form_zero_gamma_fair_model():
    spec = fl.panel_ar(2, 3)
    m = fl.closed_form_ar2_T3((0, 0), [0.0, 0.0])
    val = naive_expectation(
        lambda y: m(y), spec, np.array([0, 0]), None, np.zeros(2), np.zeros(1)
    )
    assert val == pytest.approx(0.0, abs=1e-15)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ar2_closed_form_has_zero_expectation_all_cells(data):
    spec, theta, _, y0, A_rows = _draw_inputs(data, [fl.panel_ar(2, 3)])
    m = fl.closed_form_ar2_T3(y0, theta)
    for A in A_rows:
        val = naive_expectation(lambda y: m(y), spec, y0, None, theta, A)
        assert abs(val) < 1e-12


CLOSED_FORM_SPECS = [
    fl.panel_ar(2, 3),
    fl.quarterly_ar(1, 6, d_x=1),
    fl.network_design(3, 3),
    fl.network_design(3, 3, d_x=1),
]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_closed_form_moments_have_zero_mean(data):
    # every closed-form library, at random (theta, X, y0) and fixed effects
    spec, theta, X, y0, A_rows = _draw_inputs(data, CLOSED_FORM_SPECS)
    if spec.family == model.NETWORK:
        ref = np.array(data.draw(st.lists(st.integers(0, 1), min_size=3, max_size=3)))
        found = [fl.closed_form_network_transition(spec, ref, theta, y0, X)]
    elif spec.T == 6:
        found = fl.closed_form_quarterly_T6(theta, int(y0[0]), X)
    else:
        found = [fl.closed_form_ar2_T3(y0, theta)]
    for m in found:
        assert fl.verify_moment(m, spec, y0, X, theta, A_rows) < 1e-8


def quarterly_display_m1(y, y0, x, theta):
    """The thirteen-case piecewise table, transcribed independently."""
    gamma, beta = theta[0], np.asarray(theta[1:])
    x = np.asarray(x, dtype=float)

    def xd(t, s):
        return float((x[:, t - 1] - x[:, s - 1]) @ beta)

    y1, y2, y4, y5, y6 = y[0], y[1], y[3], y[4], y[5]
    e = np.exp
    if (y1, y2, y4, y5, y6) == (1, 0, 1, 0, 1):
        return e(gamma * ((1 - y0) + 1) + xd(5, 1) + xd(2, 6))
    if (y1, y2, y4, y5, y6) == (1, 0, 0, 0, 1):
        return e(gamma * (1 - y0) + xd(5, 1) + xd(2, 6))
    if (y1, y2, y4, y5, y6) == (1, 0, 1, 0, 0):
        return e(gamma * (1 - y0) + xd(5, 1))
    if (y1, y2, y4, y5, y6) == (1, 0, 0, 0, 0):
        return e(-gamma * y0 + xd(5, 1))
    if (y1, y2, y5, y6) == (0, 0, 0, 1):
        return e(xd(2, 6)) - 1
    if (y1, y2, y5) == (0, 0, 1):
        return -1.0
    if (y1, y2, y4, y5, y6) == (1, 1, 1, 0, 0):
        return e(-gamma * y0 + xd(5, 1) + xd(6, 2))
    if (y1, y2, y4, y5, y6) == (1, 1, 0, 0, 0):
        return e(-gamma * (1 + y0) + xd(5, 1) + xd(6, 2))
    if (y1, y2, y4, y5, y6) == (1, 1, 1, 0, 1):
        return e(gamma * (1 - y0) + xd(5, 1))
    if (y1, y2, y4, y5, y6) == (1, 1, 0, 0, 1):
        return e(-gamma * y0 + xd(5, 1))
    if (y1, y2, y5, y6) == (0, 1, 0, 0):
        return e(xd(6, 2)) - 1
    if (y1, y2, y5) == (0, 1, 1):
        return -1.0
    return 0.0


QUARTERLY = [fl.quarterly_ar(1, 6, d_x=1)]


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_quarterly_m1_matches_piecewise_display(data):
    _, theta, X, y0, _ = _draw_inputs(data, QUARTERLY)
    m1, _ = fl.closed_form_quarterly_T6(theta, int(y0[0]), X)
    for y in model.all_paths(6):
        assert m1(y) == pytest.approx(
            quarterly_display_m1(y, int(y0[0]), X, theta), rel=1e-12, abs=1e-12
        )


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_quarterly_m2_is_flip_of_m1(data):
    _, theta, X, y0, _ = _draw_inputs(data, QUARTERLY)
    _, m2 = fl.closed_form_quarterly_T6(theta, int(y0[0]), X)
    m1_flip, _ = fl.closed_form_quarterly_T6(theta, 1 - int(y0[0]), -X)
    for y in model.all_paths(6):
        assert m2(y) == pytest.approx(m1_flip(1 - y), rel=1e-12, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_quarterly_moments_zero_expectation_and_independent(data):
    spec, theta, X, y0, A_rows = _draw_inputs(data, QUARTERLY)
    m1, m2 = fl.closed_form_quarterly_T6(theta, int(y0[0]), X)
    for m in (m1, m2):
        assert fl.verify_moment(m, spec, y0, X, theta, A_rows) < 1e-8
    # at gamma = 0 without covariate terms m2 = -m1
    assume(abs(theta[0]) > 1e-3)
    assert np.linalg.matrix_rank(np.vstack([m1.values, m2.values])) == 2


def test_quarterly_closed_form_without_covariates():
    # theta = (gamma,) and no X: the display table with an empty beta
    for gamma, y0 in [(0.7, 0), (-1.3, 1), (0.0, 1)]:
        m1, m2 = fl.closed_form_quarterly_T6([gamma], y0, None)
        for y in model.all_paths(6):
            assert m1(y) == pytest.approx(
                quarterly_display_m1(y, y0, np.zeros((0, 6)), [gamma]),
                rel=1e-12, abs=1e-12)
            assert m2(y) == pytest.approx(
                quarterly_display_m1(1 - y, 1 - y0, np.zeros((0, 6)), [gamma]),
                rel=1e-12, abs=1e-12)


def test_quarterly_evaluator_matches_display_unit_by_unit():
    # units with distinct covariates, so no unit can borrow another's X
    rng = np.random.default_rng(62)
    n = 200
    theta = np.array([0.6, -0.9])
    Y = rng.integers(0, 2, (n, 6))
    Y0 = rng.integers(0, 2, (n, 1))
    X = rng.normal(size=(n, 1, 6))
    out = moments.QuarterlyT6Moments(d_x=1).stacked(Y, Y0, X, theta)
    assert out.shape == (n, 6)
    for u in range(n):
        x, y0 = X[u], int(Y0[u, 0])
        m1 = quarterly_display_m1(Y[u], y0, x, theta)
        m2 = quarterly_display_m1(1 - Y[u], 1 - y0, -x, theta)
        x26, x51 = x[0, 1] - x[0, 5], x[0, 4] - x[0, 0]
        want = [m1, m2, m1 * x26, m2 * x26, m1 * x51, m2 * x51]
        np.testing.assert_allclose(out[u], want, rtol=1e-12, atol=1e-12)


def test_network_moment_zero_parameters_reduces_to_indicators():
    spec = fl.network_design(3, 3, d_x=1)
    ref = np.array([1, 0, 1])
    y0 = np.array([0, 1, 0])
    X = np.ones((1, 9))  # constant covariates drop out of the differences
    m = fl.closed_form_network_transition(spec, ref, np.zeros(3), y0, X)
    paths = model.all_paths(9)
    ind = np.all(paths[:, 3:6] == ref, axis=1).astype(float) - np.all(
        paths[:, :3] == ref, axis=1
    )
    assert np.allclose(m.values, ind)
    val = naive_expectation(
        lambda y: m(y), spec, y0, X, np.zeros(3), np.full(3, 0.3)
    )
    assert abs(val) < 1e-12


def test_network_moment_verifies_by_enumeration():
    spec = fl.network_design(3, 3, d_x=1)
    rng = np.random.default_rng(91)
    worst = 0.0
    for _ in range(6):
        theta = rng.uniform(-0.8, 0.8, 3)
        X = rng.normal(size=(1, 9))
        y0 = rng.integers(0, 2, 3)
        ref = rng.integers(0, 2, 3)
        m = fl.closed_form_network_transition(spec, ref, theta, y0, X)
        grid = rng.uniform(-2, 2, (15, 3))
        worst = max(worst, fl.verify_moment(m, spec, y0, X, theta, grid))
    assert worst < 1e-10


def test_network_moment_family_size():
    # one transition moment per reference network; they carry at least
    # C(n,2) independent conditions
    spec = fl.network_design(3, 3)
    rng = np.random.default_rng(101)
    theta = rng.uniform(-0.8, 0.8, 2)
    y0 = rng.integers(0, 2, 3)
    rows = [
        fl.closed_form_network_transition(spec, ref, theta, y0).values
        for ref in model.all_paths(3)
    ]
    assert np.linalg.matrix_rank(np.vstack(rows)) >= 3


def test_dual_construction_oracle_small():
    rng = np.random.default_rng(111)
    spec = fl.panel_ar(1, 4, d_x=1)
    theta = rng.uniform(-1, 1, 2)
    X = rng.normal(size=(1, 4))
    y0 = np.array([1])
    rep = fl.nullspace_moments(spec, y0, X, theta)
    card = fl.build_dset(spec, fl.qt_values(spec, y0, X, theta)).cardinality
    A = rng.uniform(-1.5, 1.5, (3 * card, 1))
    P = mp_probability_matrix(spec, y0, X, theta, A)
    V2, rank = mp_null_basis(P)
    V1 = np.vstack([m.values for m in rep.moments])
    assert rank == card
    assert V2.shape[0] == rep.dimension
    assert subspace_residual(V1, V2) < 1e-7


def test_float64_probability_nullspace_agrees_when_conditioned():
    # the pure float64 construction certifies the small design
    rng = np.random.default_rng(121)
    spec = fl.panel_ar(1, 3, d_x=1)
    theta = rng.uniform(-1, 1, 2)
    X = rng.normal(size=(1, 3))
    y0 = np.array([0])
    rep = fl.nullspace_moments(spec, y0, X, theta)
    A = rng.uniform(-1.5, 1.5, (18, 1))
    V2 = moments.nullspace_from_probabilities(spec, y0, X, theta, A)
    V1 = np.vstack([m.values for m in rep.moments])
    assert V2.shape[0] == rep.dimension
    assert subspace_residual(V1, V2) < 1e-7
