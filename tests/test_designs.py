import itertools
from types import SimpleNamespace

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

import felogit as fl
import oracles
from felogit import cli, designs, model

TABLE1 = {
    0: (2, (1, -1)),
    1: (4, (1, -1, -1, 1)),
    2: (7, (1, -1, -1, 0, 1, 1, -1)),
    3: (12, (1, -1, -1, 0, 1, 0, 0, 1, 0, -1, -1, 1)),
    4: (16, (1, -1, -1, 0, 0, 1, 1, 1, -1, -1, -1, 0, 0, 1, 1, -1)),
    5: (23, (1, -1, -1, 0, 0, 1, 1, 0, 0, 0, -1, 0, -1, 0, 0, 0,
             1, 1, 0, 0, -1, -1, 1)),
}


def test_panel_fe_matrix():
    spec = fl.build_design("panel_fe", T=3)
    assert np.array_equal(spec.W, np.ones((1, 3)))


def test_overlapping_matrix():
    spec = fl.build_design("overlapping")
    assert np.array_equal(spec.W, [[1, 1, 0], [0, 1, 1]])


def test_dyadic_matrix_selects_units():
    spec = fl.build_design("dyadic", n=4)
    assert spec.W.shape == (4, 6)
    # column for dyad (i,j) marks exactly units i and j
    cols = [tuple(np.flatnonzero(spec.W[:, t])) for t in range(6)]
    assert cols == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_twoway_matrix_row_and_column_structure():
    spec = fl.build_design("two_way", n=3, tau=2)
    assert spec.W.shape == (5, 6)
    assert np.all(spec.W.sum(axis=0) == 2)


def test_bad_design_parameters():
    with pytest.raises(ValueError):
        fl.build_design("dyadic", n=1)
    with pytest.raises(ValueError):
        fl.build_design("nonsense", T=3)
    with pytest.raises(ValueError, match="ar design parameter p is missing"):
        fl.build_design("ar", T=3)
    with pytest.raises(ValueError, match="panel_fe design parameter T must be "
                                         "an integer >= 1, found 0"):
        fl.build_design("panel_fe", T=0)


SIZE_FLAGS = ("T", "p", "n", "tau", "n1", "n2", "n3")


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(sorted(designs.DESIGNS)) | st.text(max_size=12),
       flags=st.fixed_dictionaries({}, optional={
           k: st.none() | st.integers(-2, 5) for k in SIZE_FLAGS}))
def test_catalogue_builds_a_spec_or_rejects_the_design(name, flags):
    # Specs only: a w_perp search here could meet two_way at n = tau = 5,
    # a 3^25 tree.  Flags a design does not take are ignored.
    least = designs.DESIGNS[name][1] if name in designs.DESIGNS else None
    valid = least is not None and all(
        flags.get(k) is not None and flags[k] >= lo for k, lo in least.items())
    try:
        spec = cli._load_spec(SimpleNamespace(design=name, **flags))
    except cli.DataError as exc:
        assert not valid
        assert ("unknown design" if least is None else f"{name} design") in str(exc)
        return
    assert valid and isinstance(spec, model.ModelSpec)
    assert spec.d_x == 0 and spec.W.shape[1] == spec.T


@pytest.mark.parametrize("s", [1, 2, 3, 5])
def test_indicator_designs_match_loop_builders(s):
    # bit for bit, so every downstream table and hash is unchanged
    for W, ref in [
        (fl.build_design("two_way", n=s + 1, tau=s + 1).W,
         oracles.loop_two_way(s + 1, s + 1)),
        (fl.build_design("twoway", n=2, tau=s + 1).W, oracles.loop_two_way(2, s + 1)),
        (fl.build_design("dyadic", n=s + 1).W, oracles.loop_dyadic(s + 1)),
        (designs.dyadic_matrix(6), oracles.loop_dyadic(6)),
        (fl.build_design("triadic", n1=s, n2=2, n3=3).W, oracles.loop_triadic(s, 2, 3)),
        (designs.triadic_matrix(3, s, 1), oracles.loop_triadic(3, s, 1)),
        (designs.quarterly_ar(1, 4 * s + 1).W, oracles.loop_quarterly(4 * s + 1)),
        (fl.build_design("quarterly", p=2, T=s + 2).W, oracles.loop_quarterly(s + 2)),
        (fl.network_design(s + 1, s).W, oracles.loop_network(s + 1, s)),
        (fl.build_design("network", n=3, tau=s).W, oracles.loop_network(3, s)),
    ]:
        assert W.dtype == ref.dtype and W.shape == ref.shape
        assert W.tobytes() == ref.tobytes()


def test_find_wperp_simplest_difference():
    sols = fl.find_wperp(np.ones((1, 2)))
    assert [s.tolist() for s in sols] == [[1, -1]]


def test_find_wperp_twoway_contains_did_vector():
    spec = fl.build_design("two_way", n=2, tau=2)
    sols = [tuple(s) for s in fl.find_wperp(spec.W)]
    assert (1, -1, -1, 1) in sols


def test_find_wperp_trend_T3_empty():
    spec = fl.build_design("poly_trend", p=1, T=3)
    assert fl.find_wperp(spec.W) == []


def test_find_wperp_exact_orthogonality_and_order():
    for spec in [
        fl.build_design("two_way", n=3, tau=3),
        fl.build_design("dyadic", n=4),
        fl.build_design("triadic", n1=2, n2=2, n3=2),
    ]:
        sols = fl.find_wperp(spec.W)
        assert sols, spec
        Wi = spec.W.astype(np.int64)
        keys = []
        for s in sols:
            assert np.all(Wi @ s == 0)
            assert s[np.flatnonzero(s)[0]] == 1  # canonical sign
            keys.append(tuple(s))
        assert keys == sorted(keys)


def test_dyadic4_contains_tetrad_vector():
    spec = fl.build_design("dyadic", n=4)
    sols = {tuple(s) for s in fl.find_wperp(spec.W)}
    assert (0, 1, -1, -1, 1, 0) in sols


def test_triadic_hexad_contains_triple_difference():
    spec = fl.build_design("triadic", n1=2, n2=2, n3=2)
    sols = {tuple(s) for s in fl.find_wperp(spec.W)}
    assert (1, -1, -1, 1, -1, 1, 1, -1) in sols


def test_max_solutions_caps_output():
    spec = fl.build_design("two_way", n=3, tau=3)
    sols = fl.find_wperp(spec.W, max_solutions=2)
    assert len(sols) == 2


def brute_wperp(K, require_nonzero=True):
    """Every canonical w in {-1,0,1}^T with K w = 0 for an integer K, by
    scanning all 3^T vectors in lexicographic order."""
    cands = np.array(list(itertools.product((-1, 0, 1), repeat=K.shape[1])))
    lead = cands[np.arange(len(cands)), np.argmax(cands != 0, axis=1)]
    keep = np.all(cands @ K.T == 0, axis=1) & (lead >= 0)
    if require_nonzero:
        keep &= lead > 0
    return [tuple(w) for w in cands[keep].tolist()]


INTEGER_DESIGNS = hnp.arrays(
    np.int64, st.tuples(st.integers(1, 3), st.integers(1, 8)),
    elements=st.integers(-3, 3),
)


def _tuples(sols):
    return [tuple(int(v) for v in w) for w in sols]


@settings(max_examples=150, deadline=None)
@given(K=INTEGER_DESIGNS, require_nonzero=st.booleans())
def test_find_wperp_matches_brute_force_on_integer_designs(K, require_nonzero):
    sols = fl.find_wperp(K.astype(float), require_nonzero=require_nonzero)
    assert _tuples(sols) == brute_wperp(K, require_nonzero)


@settings(max_examples=100, deadline=None)
@given(K=INTEGER_DESIGNS, scale=st.sampled_from([0.37, 1 / 3, -2.5, 1e-3]))
def test_find_wperp_matches_brute_force_on_non_integer_designs(K, scale):
    # scale * K has the null vectors of K but takes the tolerance path
    assume(np.any(K))
    assert _tuples(fl.find_wperp(scale * K)) == brute_wperp(K)


@settings(max_examples=100, deadline=None)
@given(K=INTEGER_DESIGNS, k=st.integers(1, 12), require_nonzero=st.booleans())
def test_find_wperp_max_solutions_returns_a_valid_prefix(K, k, require_nonzero):
    everything = brute_wperp(K, require_nonzero)
    sols = _tuples(fl.find_wperp(K.astype(float), max_solutions=k,
                                 require_nonzero=require_nonzero))
    assert len(sols) == min(k, len(everything))
    assert len(set(sols)) == len(sols) and sols == sorted(sols)
    assert set(sols) <= set(everything)


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_minimal_T_small_degrees(p):
    T, w = fl.minimal_T_polytrend(p)
    assert (T, tuple(w)) == TABLE1[p]


def test_minimal_T_certifies_shorter_horizons():
    T, _ = fl.minimal_T_polytrend(2)
    assert fl.find_wperp(designs.poly_trend_matrix(2, T - 1)) == []


def test_p6_requires_long_run_flag():
    with pytest.raises(ValueError):
        fl.minimal_T_polytrend(6)


def test_table1_symmetry_pattern():
    # even degrees produce antisymmetric vectors, odd degrees symmetric;
    # the recursive construction is only checked, not used for search
    for p, (_, w) in TABLE1.items():
        w = np.array(w)
        assert np.array_equal(w, -w[::-1] if p % 2 == 0 else w[::-1])


def test_pair_from_wperp_forced_positions():
    y1, y2 = fl.pair_from_wperp(np.array([1, -1]))
    assert y1.tolist() == [1, 0] and y2.tolist() == [0, 1]
    y1, y2 = fl.pair_from_wperp(np.array([1, -1, 0]), fill=np.array([1]))
    assert y1.tolist() == [1, 0, 1] and y2.tolist() == [0, 1, 1]
    y1, y2 = fl.pair_from_wperp(np.array([1, -1, -1, 1]))
    assert y1.tolist() == [1, 0, 0, 1] and y2.tolist() == [0, 1, 1, 0]


def test_pair_from_wperp_fill_mismatch():
    with pytest.raises(ValueError):
        fl.pair_from_wperp(np.array([1, -1, 0]), fill=np.array([1, 0]))
    with pytest.raises(ValueError):
        fl.pair_from_wperp(np.array([2, -1]))


def test_pair_subtraction_recovers_wperp_exhaustively():
    # every vector in {-1,0,1}^T is the difference of its induced pair
    import itertools

    for T in range(2, 9):
        for w in itertools.product((-1, 0, 1), repeat=T):
            w = np.array(w)
            y1, y2 = fl.pair_from_wperp(w)
            assert np.array_equal(y1 - y2, w)


def test_rank_condition_passes_on_varying_covariates():
    rng = np.random.default_rng(0)
    Xs = [rng.normal(size=(2, 2)) for _ in range(1000)]
    diag = fl.rank_condition(Xs, np.array([1, -1]))
    assert diag.passed and diag.min_eigenvalue > 0.5


def test_rank_condition_fails_on_constant_covariates():
    Xs = [np.ones((2, 4)) * c for c in range(1, 6)]
    diag = fl.rank_condition(Xs, np.array([1, -1, -1, 1]))
    assert not diag.passed and diag.min_eigenvalue == pytest.approx(0.0)


def test_rank_condition_single_sample_rank_deficient():
    diag = fl.rank_condition(
        [np.random.default_rng(1).normal(size=(2, 2))], np.array([1, -1])
    )
    assert not diag.passed


def test_rank_condition_empty_sample():
    with pytest.raises(ValueError):
        fl.rank_condition([], np.array([1, -1]))
