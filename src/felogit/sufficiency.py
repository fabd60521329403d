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
from .model import (AR, NETWORK, ModelSpec, all_paths, exact_key, index_matrix,
                    lag_features, path_states)


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


def _require_dynamic(spec):
    if spec.family not in (AR, NETWORK):
        raise ValueError("operation requires a dynamic (ar or network) spec")


def _pair_multiset(spec, y, y0):
    # exact keys of (w_t, the lag features feeding pi_t) for t = 2..T;
    # floating pi values would spuriously match when theta has
    # coincidental sums
    Z = lag_features(spec, path_states(spec, y, y0)).reshape(spec.T, -1).tolist()
    wkeys = exact_key(spec.W).T.tolist()
    return Counter(
        (tuple(wkeys[t]), tuple(Z[t])) for t in range(1, spec.T)
    )


def transition_stats(spec, paths, y0):
    """The AR transition statistics s_r(y) = sum_t y_t y_{t-r}, r = 1..p,
    one row per path of ``paths`` (m, T), lags before period 1 read from
    y0 (one block, or one per path)."""
    paths = np.atleast_2d(np.asarray(paths, dtype=np.int64))
    Z = lag_features(spec, path_states(spec, paths, y0)).reshape(*paths.shape, spec.p)
    return np.einsum("nt,ntr->nr", paths, Z)


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
    s_y = exact_key(np.stack([y, y_tilde]) @ spec.W.T)
    cond_i = bool(np.array_equal(s_y[0], s_y[1]))
    cond_ii = _pair_multiset(spec, y, y0) == _pair_multiset(spec, y_tilde, y0)
    gap = None
    if spec.family == AR:
        s1 = transition_stats(spec, np.stack([y, y_tilde]), y0)[:, 0]
        gap = int(s1[0] - s1[1])
    return PairCertificate(
        y=y,
        y_tilde=y_tilde,
        cond_linear=cond_i,
        cond_permutation=cond_ii,
        transition_gap=gap,
        log_ratio=_log_ratio(spec, y, y_tilde, y0, X, theta),
    )


def ar1_sufficient_stat(spec, y, y0):
    """The statistic (W y, W y_lag), as one key row, that absorbs the
    fixed effects in AR(1) models with basis-vector designs: the p = 1
    case of ``arp_statistic_key``."""
    if spec.family != AR or spec.p != 1:
        raise ValueError("ar1_sufficient_stat requires an AR(1) spec")
    if not spec.binary_design:
        raise ValueError(
            "sufficiency requires basis-vector columns; "
            "canonicalize_design maps a general W to this form"
        )
    return arp_statistic_key(spec, y, y0)[0]


def canonicalize_design(W):
    """Map arbitrary design columns to indicator columns (W*, Omega).

    Omega collects the distinct columns (equal when their ``exact_key``
    values are) in first-appearance order; column t of W* is the basis
    vector marking which member of Omega the original w_t equals, so
    that w_t'A = (W*_t)'A* with A* = Omega'A.
    """
    W = np.atleast_2d(np.asarray(W, dtype=float))
    seen = {}
    labels = [seen.setdefault(tuple(key), len(seen))
              for key in exact_key(W).T.tolist()]
    Omega = W[:, [labels.index(k) for k in range(len(seen))]]
    W_star = np.zeros((len(seen), W.shape[1]))
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
    lag = lag_features(spec, path_states(spec, paths, y0))[:, :, 0, 0]  # y_{t-1}
    _, inverse, sizes = np.unique(
        arp_statistic_key(spec, paths, y0), axis=0,
        return_inverse=True, return_counts=True,
    )
    # periods t = 2..T of a basis-vector design, one column per design row
    E = exact_key(spec.W)[:, 1:].T
    perm_key = np.hstack([lag[:, 1:] @ E, (1 - lag[:, 1:]) @ E])
    transitions = transition_stats(spec, paths, y0)[:, 0]
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


def arp_statistic_key(spec, paths, y0):
    """Exact keys of the AR(p) condition-system statistics, one row per
    path of ``paths`` (m, T; a single path is one row).

    A row holds W y and then, for every nonempty subset i of the lags
    {1..p} in ``combinations`` order, W (prod_{r in i} y_{t-r})_t, all
    through ``exact_key``.  Paths share a row exactly when they share
    every statistic.
    """
    paths = np.atleast_2d(np.asarray(paths, dtype=np.int64))
    m, T, p = len(paths), spec.T, spec.p
    Z = lag_features(spec, path_states(spec, paths, y0)).reshape(m, T, p)
    parts = [paths] + [Z[:, :, list(c)].prod(axis=2) for l in range(1, p + 1)
                       for c in combinations(range(p), l)]
    return exact_key(np.stack(parts, axis=1) @ spec.W.T).reshape(m, -1)


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
    pair = np.stack([y, y_tilde])
    key, key_t = arp_statistic_key(spec, pair, y0)
    s1 = transition_stats(spec, pair, y0)[:, 0]
    d = spec.d_w  # the key row starts with W y
    return PairCertificate(
        y=y,
        y_tilde=y_tilde,
        cond_linear=bool(np.array_equal(key[:d], key_t[:d])),
        cond_permutation=bool(np.array_equal(key[d:], key_t[d:])),
        transition_gap=int(s1[0] - s1[1]),
        log_ratio=_log_ratio(spec, y, y_tilde, y0, None, theta),
    )


# -- dynamic network conditioning ------------------------------------------


def _require_t3(spec):
    if spec.family != NETWORK:
        raise ValueError("operation requires a network spec")
    if spec.tau != 3:
        raise ValueError("conditioning sets are built for tau = 3")


def network_cond_star(spec, y):
    """Two-element conditioning set: y and its period-1/2 swap."""
    _require_t3(spec)
    y = np.asarray(y, dtype=np.int64)
    p1, p2, p3 = y.reshape(3, spec.step_width)
    if np.array_equal(p1, p2):
        return ConditioningSet("network_star", (y,))
    swapped = np.concatenate([p2, p1, p3])
    members = sorted([y, swapped], key=lambda m: tuple(m.tolist()))
    return ConditioningSet("network_star", tuple(members))


@lru_cache(maxsize=None)
def _z_equal(n):
    # E[d, a, b]: networks a and b (by id) give dyad d the same lag
    # features (link, shared friends) for the next period
    Z = lag_features(model.network_design(n, 1), all_paths(n * (n - 1) // 2))
    same = np.all(Z[:, None] == Z[None], axis=3)  # indexed (a, b, d)
    return np.ascontiguousarray(same.transpose(2, 0, 1))


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
    p1, p2, p3 = np.asarray(y, dtype=np.int64).reshape(3, spec.step_width)
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
