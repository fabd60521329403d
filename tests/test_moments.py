import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

import felogit as fl
from felogit import model, moments
from oracles import (
    mp_null_basis,
    mp_probability_matrix,
    naive_expectation,
    per_path_coefficients,
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


def test_dset_ar_formula():
    for p, T in [(1, 3), (1, 6), (2, 4), (2, 6), (3, 6)]:
        spec = fl.panel_ar(p, T)
        theta = 0.3 + 0.2 * np.arange(p)
        Q = fl.qt_values(spec, np.zeros(p, int), None, theta)
        ds = fl.build_dset(spec, Q)
        assert ds.cardinality == 2**p * (T + 1 - p)
        assert ds.cardinality == len(ds.elements)


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
    assert ds.cardinality == 1 and ds.elements == {(0,)}


def test_dset_all_zero_design_counts_its_one_element():
    # an all-zero W has one exponent vector, as coefficient_matrix finds;
    # it is not the constant-column count sum(Q) + 1
    spec = fl.ModelSpec("ar", 4, np.zeros((1, 4)), p=1)
    y0, theta = np.array([0]), np.array([0.5])
    ds = fl.build_dset(spec, fl.qt_values(spec, y0, None, theta))
    C, _, _ = moments.coefficient_matrix(spec, y0, None, theta)
    assert ds.cardinality == len(ds.elements) == C.shape[0] == 1


def test_dset_refuses_oversized_general_design():
    rng = np.random.default_rng(0)
    W = rng.normal(size=(3, 30))
    spec = fl.ModelSpec("static", 30, W, d_x=1)
    with pytest.raises(moments.TooLarge):
        fl.build_dset(spec, tuple([8] * 30))


def test_moment_bound_values():
    assert fl.moment_bound(fl.panel_ar(1, 3), np.array([0]), None, [0.5]) == 2
    assert fl.moment_bound(fl.panel_ar(2, 3), np.array([0, 0]), None, [0.5, 0.3]) == 0
    assert fl.moment_bound(fl.panel_ar(2, 4), np.array([0, 0]), None, [0.5, 0.3]) == 4


def test_moment_bound_quarterly_positive_from_T11():
    # the exponent-set formula makes the bound positive at T = 11
    # already (2^11 = 2048 > 1470); prose claims of T >= 12 round up
    bounds = {}
    for T in range(6, 13):
        spec = fl.quarterly_ar(1, T)
        bounds[T] = fl.moment_bound(spec, np.array([0]), None, [0.9])
    assert all(bounds[T] <= 0 for T in range(6, 11))
    assert bounds[11] > 0 and bounds[12] > 0


def test_phi_single_period():
    spec = fl.ModelSpec("static", 1, np.ones((1, 1)), d_x=1)
    theta = np.array([0.7])
    X = np.array([[1.3]])
    exp_ = fl.phi_expand(spec, np.array([1]), None, X, theta)
    b = np.exp(0.7 * 1.3)
    assert np.allclose(exp_.per_period[0], [0.0, b])
    exp0 = fl.phi_expand(spec, np.array([0]), None, X, theta)
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
        exp_ = fl.phi_expand(spec, y, y0, X, theta)
        for A in A_draws:
            val = moments.phi_kappa(spec, tables, A) * sum(
                c * np.exp(np.dot(d, A)) for d, c in exp_.grouped.items()
            )
            ref = fl.path_probability(spec, y, y0, X, theta, A)
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
    expect = np.array([ref[d] for d in map(tuple, ds.tolist())])
    np.testing.assert_allclose(C, expect, rtol=1e-12, atol=0)


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
        recon = moments.phi_kappa(spec, tables, A) * (np.exp(ds @ A) @ C)
        for y, value in zip(model.all_paths(spec.T), recon):
            ref = fl.path_probability(spec, y, y0, X, theta, A)
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


def test_columns_one_ulp_apart_stay_two_groups():
    c = np.array([0.3, 1.0, 2.5])
    M = np.column_stack([c, c, c + [0.0, np.spacing(1.0), 0.0], c.copy(), 2 * c])
    assert moments._column_groups(M).tolist() == [0, 0, 1, 0, 2]
    s, rank, V = moments._null_space(M)
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
    zero = moments.MomentFunction(3, np.zeros(8), "zero")
    grid = np.linspace(-4, 4, 9)[:, None]
    assert fl.verify_moment(zero, spec, np.array([0]), None, [0.5], grid) == 0.0
    spike = moments.MomentFunction(3, np.eye(8)[3], "indicator")
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
