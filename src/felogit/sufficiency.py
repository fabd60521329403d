"""Sufficient-statistic machinery for dynamic logit models.

For generalized autoregressive models, the likelihood ratio of two
outcome paths sharing an initial condition is free of the fixed effect
whenever (i) the paths load the design identically, W y = W y~, and
(ii) the per-period pairs (w_t, pi_t) for t = 2..T of one path are a
permutation of the other's.  This module checks those conditions on
exact integer keys, enumerates identifying pairs for AR(1) designs,
verifies the AR(p) condition systems, and builds the conditioning sets
and conditional likelihood of the dynamic dyadic network model.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np
from scipy.special import logsumexp

from . import model
from .model import AR, NETWORK, ModelSpec, all_paths, index_matrix, shared_friends


@dataclass
class SuffStatAR1:
    """The pair (W y, W y_lag) that is sufficient for the fixed effect."""

    s_y: np.ndarray
    s_lag: np.ndarray

    def key(self):
        return tuple(self.s_y.tolist()), tuple(self.s_lag.tolist())


@dataclass
class PairCertificate:
    """Outcome of a permutation check on a candidate identifying pair."""

    y: np.ndarray
    y_tilde: np.ndarray
    cond_linear: bool
    cond_permutation: bool
    transition_gap: int | None
    log_ratio: float

    @property
    def passed(self):
        return self.cond_linear and self.cond_permutation


@dataclass
class ConditioningSet:
    """A set of outcome paths sharing one statistic value."""

    kind: str  # "network_star" | "network_full"
    members: tuple

    def __len__(self):
        return len(self.members)

    def __contains__(self, y):
        y = np.asarray(y)
        return any(np.array_equal(y, m) for m in self.members)


def _column_keys(W):
    Wr = np.rint(W)
    if np.max(np.abs(W - Wr)) < 1e-9:
        return [tuple(int(v) for v in Wr[:, t]) for t in range(W.shape[1])]
    return [tuple(float(v) for v in W[:, t]) for t in range(W.shape[1])]


def _require_dynamic(spec):
    if spec.family not in (AR, NETWORK):
        raise ValueError("operation requires a dynamic (ar or network) spec")


def _lag_key(spec, full, t):
    # exact integer encoding of the lag pattern feeding pi_t; floating
    # pi values would spuriously match when theta has coincidental sums
    L0 = spec.y0_len
    if spec.family == AR:
        return tuple(int(full[L0 + t - 1 - r]) for r in range(1, spec.p + 1))
    d, per = spec.dyad_of_obs(t)
    D = spec.n_dyads
    prev = full[(per - 1) * D: per * D]
    return int(prev[d]), int(shared_friends(spec, prev)[0, d])


def _pair_multiset(spec, y, y0):
    full = np.concatenate([y0, y]).astype(np.int64)
    wkeys = _column_keys(spec.W)
    return Counter(
        (wkeys[t - 1], _lag_key(spec, full, t)) for t in range(2, spec.T + 1)
    )


def transition_count(y, y0):
    """Number of 1->1 transitions sum_t y_t y_{t-1}, reading y_0 from y0."""
    y = np.asarray(y, dtype=np.int64)
    prev = np.concatenate([[int(y0[-1])], y[:-1]])
    return int(np.sum(y * prev))


def _log_ratio(spec, y, y_tilde, y0, X, theta):
    paths = np.vstack([y, y_tilde])
    pi = index_matrix(spec, paths, y0, X, theta)
    vals = np.sum(paths * pi, axis=1)
    return float(vals[0] - vals[1])


def permutation_check(spec, y, y_tilde, y0, theta, X=None):
    """Certify a pair (y, y~) by the linear and permutation conditions.

    When both conditions hold, Pr(Y=y|Y0,A) / Pr(Y=y~|Y0,A) equals
    exp(log_ratio) for every A.
    """
    _require_dynamic(spec)
    y = np.asarray(y, dtype=np.int64)
    y_tilde = np.asarray(y_tilde, dtype=np.int64)
    y0 = np.asarray(y0, dtype=np.int64)
    diff = spec.W @ (y - y_tilde).astype(float)
    cond_i = bool(np.max(np.abs(diff)) < 1e-9) if diff.size else True
    cond_ii = _pair_multiset(spec, y, y0) == _pair_multiset(spec, y_tilde, y0)
    gap = (
        transition_count(y, y0) - transition_count(y_tilde, y0)
        if spec.family == AR
        else None
    )
    return PairCertificate(
        y=y,
        y_tilde=y_tilde,
        cond_linear=cond_i,
        cond_permutation=cond_ii,
        transition_gap=gap,
        log_ratio=_log_ratio(spec, y, y_tilde, y0, X, theta),
    )


def ar1_sufficient_stat(spec, y, y0):
    """The pair (W y, W y_lag) that absorbs the fixed effects in AR(1)
    models with basis-vector designs."""
    if spec.family != AR or spec.p != 1:
        raise ValueError("ar1_sufficient_stat requires an AR(1) spec")
    if not spec.binary_design:
        raise ValueError(
            "sufficiency requires basis-vector columns; "
            "canonicalize_design maps a general W to this form"
        )
    y = np.asarray(y, dtype=np.int64)
    y_lag = np.concatenate([[int(y0[-1])], y[:-1]])
    Wi = np.rint(spec.W).astype(np.int64)
    return SuffStatAR1(s_y=Wi @ y, s_lag=Wi @ y_lag)


def canonicalize_design(W):
    """Map arbitrary design columns to indicator columns (W*, Omega).

    Omega collects the distinct column values in first-appearance
    order; column t of W* is the basis vector marking which member of
    Omega the original w_t equals, so that w_t'A = (W*_t)'A* with
    A* = Omega'A.
    """
    W = np.atleast_2d(np.asarray(W, dtype=float))
    seen = {}
    labels = []
    for t in range(W.shape[1]):
        key = tuple(W[:, t])
        if key not in seen:
            seen[key] = len(seen)
        labels.append(seen[key])
    d_omega = len(seen)
    Omega = np.empty((W.shape[0], d_omega))
    for key, k in seen.items():
        Omega[:, k] = key
    W_star = np.zeros((d_omega, W.shape[1]))
    W_star[labels, np.arange(W.shape[1])] = 1.0
    return W_star, Omega


def _canonical_spec(spec):
    if spec.binary_design:
        return spec
    W_star, _ = canonicalize_design(spec.W)
    return ModelSpec(spec.family, spec.T, W_star, d_x=spec.d_x, p=spec.p,
                     n=spec.n, tau=spec.tau)


def enumerate_pairs_ar1(spec, y0, require_gap=False, theta=None):
    """All unordered path pairs sharing the AR(1) sufficient statistic.

    Paths are grouped by (W y, W y_lag); within a group every pair is
    certified.  With ``require_gap`` only pairs whose transition counts
    differ (the ones that identify gamma) are kept.  An empty list is a
    meaningful outcome: designs with per-period effects admit no pairs.

    Every per-path statistic is computed once over all 2^T paths: the
    group key, the permutation key (the count of periods t = 2..T per
    design column and y_{t-1}), the transition count and
    g(y) = sum_t y_t pi_t.  A pair's certificate is then a lookup, with
    log_ratio = g(y) - g(y~).  Groups come in increasing key order and
    pairs within a group in increasing path order.
    """
    if spec.family != AR or spec.p != 1:
        raise ValueError("enumerate_pairs_ar1 requires an AR(1) spec")
    if spec.T > 20:
        raise ValueError("path enumeration limited to T <= 20")
    spec = _canonical_spec(spec)
    if theta is None:
        theta = np.zeros(spec.theta_dim)
    y0 = np.asarray(y0, dtype=np.int64)
    paths = all_paths(spec.T).astype(np.int64)
    Wi = np.rint(spec.W).astype(np.int64)
    lag = np.concatenate(
        [np.full((paths.shape[0], 1), y0[-1], dtype=np.int64), paths[:, :-1]],
        axis=1,
    )
    _, inverse, sizes = np.unique(
        np.hstack([paths @ Wi.T, lag @ Wi.T]), axis=0,
        return_inverse=True, return_counts=True,
    )
    # periods t = 2..T of a basis-vector design, one column per design row
    E = Wi[:, 1:].T
    perm_key = np.hstack([lag[:, 1:] @ E, (1 - lag[:, 1:]) @ E])
    transitions = np.sum(paths * lag, axis=1)
    g = np.sum(paths * index_matrix(spec, paths, y0, None, theta), axis=1)

    members = np.argsort(inverse.ravel(), kind="stable")
    a, b = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for start, size in zip(np.cumsum(sizes) - sizes, sizes):
        if size < 2:
            continue
        i, j = np.triu_indices(size, 1)
        a.append(members[start + i])
        b.append(members[start + j])
    a, b = np.concatenate(a), np.concatenate(b)
    gap = transitions[a] - transitions[b]
    if require_gap:
        a, b, gap = a[gap != 0], b[gap != 0], gap[gap != 0]
    same_perm = np.all(perm_key[a] == perm_key[b], axis=1)
    log_ratio = g[a] - g[b]
    Y, Y_tilde = paths[a], paths[b]
    # cond_linear holds by construction: both paths share W y
    return [
        PairCertificate(Y[k], Y_tilde[k], True, bool(same_perm[k]),
                        int(gap[k]), float(log_ratio[k]))
        for k in range(len(a))
    ]


def arp_statistic_key(spec, y, y0):
    """Hashable encoding of the AR(p) condition-system statistics."""
    full = np.concatenate([y0, y]).astype(np.int64)
    Wi = np.rint(spec.W).astype(np.int64)
    T, p, L0 = spec.T, spec.p, spec.y0_len
    parts = [tuple(int(v) for v in Wi @ full[L0:])]
    for l in range(1, p + 1):
        for comb in combinations(range(1, p + 1), l):
            prod = np.ones(T, dtype=np.int64)
            for r in comb:
                prod *= full[L0 - r: L0 - r + T]
            parts.append(tuple(int(v) for v in Wi @ prod))
    return tuple(parts)


def arp_condition_check(spec, y, y_tilde, y0, theta=None):
    """Check the AR(p) sufficiency system on a candidate pair.

    The conditions are W y = W y~ together with, for every nonempty
    subset i of lags {1..p}, equality of sum_t w_t prod_{r in i}
    y_{t-r} between the two paths.  They imply the permutation
    condition at any parameter value.
    """
    if spec.family != AR:
        raise ValueError("arp_condition_check requires an AR spec")
    if not spec.binary_design:
        raise ValueError("sufficiency requires basis-vector columns")
    if theta is None:
        theta = np.zeros(spec.theta_dim)
    y = np.asarray(y, dtype=np.int64)
    y_tilde = np.asarray(y_tilde, dtype=np.int64)
    y0 = np.asarray(y0, dtype=np.int64)
    key = arp_statistic_key(spec, y, y0)
    key_t = arp_statistic_key(spec, y_tilde, y0)
    return PairCertificate(
        y=y,
        y_tilde=y_tilde,
        cond_linear=key[0] == key_t[0],
        cond_permutation=key[1:] == key_t[1:],
        transition_gap=transition_count(y, y0) - transition_count(y_tilde, y0),
        log_ratio=_log_ratio(spec, y, y_tilde, y0, None, theta),
    )


# -- dynamic network conditioning ------------------------------------------


def _period_slices(spec, y):
    D = spec.n_dyads
    y = np.asarray(y, dtype=np.int64)
    return [y[(per - 1) * D: per * D] for per in range(1, spec.tau + 1)]


def _require_t3(spec):
    if spec.family != NETWORK:
        raise ValueError("operation requires a network spec")
    if spec.tau != 3:
        raise ValueError("conditioning sets are built for tau = 3")


def network_cond_star(spec, y):
    """Two-element conditioning set: y and its period-1/2 swap."""
    _require_t3(spec)
    p1, p2, p3 = _period_slices(spec, y)
    y = np.asarray(y, dtype=np.int64)
    if np.array_equal(p1, p2):
        return ConditioningSet("network_star", (y,))
    swapped = np.concatenate([p2, p1, p3])
    members = sorted([y, swapped], key=lambda m: tuple(m.tolist()))
    return ConditioningSet("network_star", tuple(members))


@lru_cache(maxsize=None)
def _z_tables(n):
    # Z(net)[d] = (link, shared friends); one row per network id
    spec = model.network_design(n, 1)
    nets = all_paths(spec.n_dyads)
    return nets.astype(np.int64), shared_friends(spec, nets)


@lru_cache(maxsize=None)
def _z_equal(n):
    links, R = _z_tables(n)
    D = links.shape[1]
    E = np.empty((D, links.shape[0], links.shape[0]), dtype=bool)
    for d in range(D):
        E[d] = (links[:, d][:, None] == links[:, d][None, :]) & (
            R[:, d][:, None] == R[:, d][None, :]
        )
    return E


def network_cond_full(spec, y):
    """Exhaustive conditioning set of the tau = 3 network model.

    Alternatives must match the period-3 network dyad-wise, and for
    each dyad the pair of (link, shared friends) values at periods 1
    and 2 must match y's pair up to swapping the two periods.  Every
    member then satisfies the permutation condition against y, so
    likelihood ratios within the set are free of the fixed effects.
    """
    _require_t3(spec)
    if spec.n > 4:
        est = 2 ** (2 * spec.n_dyads)
        raise ValueError(
            f"full conditioning set needs a scan of {est} candidates; n <= 4 only"
        )
    p1, p2, p3 = _period_slices(spec, y)
    n1 = int(model.path_index(p1))
    n2 = int(model.path_index(p2))
    E = _z_equal(spec.n)
    D = spec.n_dyads
    m = 2**D
    mask = np.ones((m, m), dtype=bool)
    for d in range(D):
        # grid axis 0 = candidate period-1 network, axis 1 = period-2
        keep = E[d][n1][:, None] & E[d][n2][None, :]
        swap = E[d][n2][:, None] & E[d][n1][None, :]
        mask &= keep | swap
    nets = all_paths(D)
    members = [
        np.concatenate([nets[a], nets[b], p3])
        for a, b in np.argwhere(mask)
    ]
    members.sort(key=lambda v: tuple(v.tolist()))
    return ConditioningSet("network_full", tuple(members))


def network_star_equals_full(spec, y):
    """Whether the two-element set exhausts the full conditioning set."""
    full = network_cond_full(spec, y)
    star = network_cond_star(spec, y)
    if len(full) != len(star):
        return False
    return all(np.array_equal(a, b) for a, b in zip(full.members, star.members))


def network_star_equality_fraction(spec):
    """Exact fraction of outcome paths whose full conditioning set is
    the two-element swap set.

    Membership depends only on the period-1/2 networks, so the count
    runs over every (period-1, period-2) pair at once; period-3
    networks and initial conditions do not enter.
    """
    _require_t3(spec)
    if spec.n > 4:
        raise ValueError("exhaustive equality count supported for n <= 4")
    E = _z_equal(spec.n)
    m = E.shape[1]
    sizes = np.empty((m, m), dtype=np.int64)
    for a in range(m):  # one period-1 network at a time: m^3 booleans, not m^4
        ok = np.ones((m, m, m), dtype=bool)
        for e in E:  # keep: (a, c) and (b, d) match; swap: (b, c) and (a, d)
            ok &= (e[a][None, :, None] & e[:, None, :]) | (e[:, :, None] & e[a][None, None, :])
        sizes[a] = ok.sum(axis=(1, 2))
    star = np.where(np.eye(m, dtype=bool), 1, 2)
    return float(np.mean(sizes == star))


def network_cond_likelihood(spec, theta, y, y0, cond):
    """Conditional probability of y within its conditioning set.

    Exact by construction: the fixed effects cancel across members, so
    the value equals Pr(Y = y | Y in set, Y0, A) for every A.
    """
    _require_t3(spec)
    if spec.d_x:
        raise ValueError("network conditional likelihood is covariate-free")
    y = np.asarray(y, dtype=np.int64)
    if y not in cond:
        raise ValueError("y must belong to the conditioning set")
    members = np.vstack(cond.members)
    pi = index_matrix(spec, members, y0, None, theta)
    g = np.sum(members * pi, axis=1)
    mine = next(
        i for i, mem in enumerate(cond.members) if np.array_equal(mem, y)
    )
    return float(np.exp(g[mine] - logsumexp(g)))
