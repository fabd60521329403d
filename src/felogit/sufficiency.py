"""Sufficient-statistic machinery for dynamic logit models.

For generalized autoregressive models, the likelihood ratio of two
outcome paths sharing an initial condition is free of the fixed effect
whenever (i) the paths load the design identically, W y = W y~, and
(ii) the per-period pairs (w_t, pi_t) for t = 2..T of one path are a
permutation of the other's.  This module checks those conditions on
exact integer keys, enumerates identifying pairs for AR(1) designs,
verifies the AR(p) condition systems, and builds the conditioning sets
and conditional likelihood of the dynamic dyadic network model.

Every conditioning class is a set of rows sharing one key, built by one
helper, ``key_classes``: the static S(W y) and dynamic AR classes, the
AR(1) pair groups, the network classes and the design-column ids of
``permutation_key``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np
from scipy.special import logsumexp

from . import model
from .model import (AR, NETWORK, ModelSpec, all_paths, exact_key, index_matrix,
                    lag_features, path_states)


class KeyClasses(NamedTuple):
    """Rows grouped by equal key rows, classes in ``np.unique`` key order."""

    cls: np.ndarray  # each row's class
    sizes: np.ndarray  # rows per class
    order: np.ndarray  # rows class by class, each class in row order
    rank: np.ndarray  # each row's position among its class's members

    def members(self, classes, m):
        """Member rows, (..., m), of classes that all have m rows."""
        start = np.cumsum(self.sizes) - self.sizes
        return self.order[start[classes][..., None] + np.arange(m)]


def key_classes(keys):
    """Group the rows of ``keys`` (n, k) by equal key rows."""
    _, cls, sizes = np.unique(keys, axis=0, return_inverse=True,
                              return_counts=True)
    cls = cls.ravel()
    order = np.argsort(cls, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size) - (np.cumsum(sizes) - sizes)[cls[order]]
    return KeyClasses(cls, sizes, order, rank)


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


def permutation_key(spec, paths, y0):
    """Per path of ``paths`` (m, T), the sorted ids of the pairs
    (exact w_t key, integer lag features Z_t feeding pi_t), t = 2..T.

    Two paths of one call satisfy the permutation condition against
    each other exactly when their rows are equal.  (Floating pi values
    would spuriously match when theta has coincidental sums.)
    """
    _require_dynamic(spec)
    paths = np.atleast_2d(np.asarray(paths, dtype=np.int64))
    m, T = paths.shape
    Z = lag_features(spec, path_states(spec, paths, y0)).reshape(m, T, -1)[:, 1:]
    w = key_classes(exact_key(spec.W).T[1:]).cls
    base = Z.max(initial=0) + 1  # Z holds small nonnegative integers
    ids = w * base ** Z.shape[2] + Z @ base ** np.arange(Z.shape[2])
    return np.sort(ids, axis=1)


def transition_stats(spec, paths, y0):
    """The AR transition statistics s_r(y) = sum_t y_t y_{t-r}, r = 1..p,
    one row per path of ``paths`` (m, T), lags before period 1 read from
    y0 (one block, or one per path)."""
    paths = np.atleast_2d(np.asarray(paths, dtype=np.int64))
    Z = lag_features(spec, path_states(spec, paths, y0)).reshape(*paths.shape, spec.p)
    return np.einsum("nt,ntr->nr", paths, Z)


def _certificate(spec, pair, y0, X, theta, cond_linear, cond_permutation):
    """PairCertificate of ``pair`` (2, T) with the given conditions."""
    gap = None
    if spec.family == AR:
        s1 = transition_stats(spec, pair, y0)[:, 0]
        gap = int(s1[0] - s1[1])
    g = np.sum(pair * index_matrix(spec, pair, y0, X, theta), axis=1)
    return PairCertificate(pair[0], pair[1], cond_linear, cond_permutation,
                           gap, float(g[0] - g[1]))


def permutation_check(spec, y, y_tilde, y0, theta, X=None):
    """Certify a pair (y, y~) by the linear and permutation conditions.

    When both conditions hold, Pr(Y=y|Y0,A) / Pr(Y=y~|Y0,A) equals
    exp(log_ratio) for every A.
    """
    _require_dynamic(spec)
    pair = np.stack([y, y_tilde]).astype(np.int64)
    y0 = np.asarray(y0, dtype=np.int64)
    s_y = exact_key(pair @ spec.W.T)
    perm = permutation_key(spec, pair, y0)
    return _certificate(spec, pair, y0, X, theta, np.array_equal(*s_y),
                        np.array_equal(*perm))


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
    group key, ``permutation_key``, the transition count and
    g(y) = sum_t y_t pi_t.  A pair's certificate is then a lookup, with
    log_ratio = g(y) - g(y~).  Groups come in increasing key order and
    pairs within a group in increasing path order.
    """
    if spec.family != AR or spec.p != 1:
        raise ValueError("enumerate_pairs_ar1 requires an AR(1) spec")
    if spec.T > 20:
        raise model.TooLarge(f"pairs would enumerate {2**spec.T:,} paths (limit 2^20)")
    spec = _canonical_spec(spec)
    if theta is None:
        theta = np.zeros(spec.theta_dim)
    y0 = np.asarray(y0, dtype=np.int64)
    paths = all_paths(spec.T).astype(np.int64)
    groups = key_classes(arp_statistic_key(spec, paths, y0))
    perm_key = permutation_key(spec, paths, y0)
    transitions = transition_stats(spec, paths, y0)[:, 0]
    g = np.sum(paths * index_matrix(spec, paths, y0, None, theta), axis=1)

    a, b = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for m in np.unique(groups.sizes[groups.sizes > 1]):
        members = groups.members(np.flatnonzero(groups.sizes == m), m)
        i, j = np.triu_indices(m, 1)
        a.append(members[:, i].ravel())
        b.append(members[:, j].ravel())
    a, b = np.concatenate(a), np.concatenate(b)
    by_group = np.argsort(groups.cls[a], kind="stable")
    a, b = a[by_group], b[by_group]
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
    pair = np.stack([y, y_tilde]).astype(np.int64)
    y0 = np.asarray(y0, dtype=np.int64)
    key, key_t = arp_statistic_key(spec, pair, y0)
    d = spec.d_w  # the key row starts with W y
    return _certificate(spec, pair, y0, None, theta,
                        np.array_equal(key[:d], key_t[:d]),
                        np.array_equal(key[d:], key_t[d:]))


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
def _network_classes(n):
    # classes of (period-1, period-2) network pairs, row a * 2^D + b for
    # networks a, b by id; the key holds, per dyad, the unordered pair
    # of the two networks' (link, shared friends) codes
    if n > 4:
        raise ValueError(f"network conditioning classes need a scan of "
                         f"{2 ** (n * (n - 1))} candidates; n <= 4 only")
    Z = lag_features(model.network_design(n, 1), all_paths(n * (n - 1) // 2))
    code = Z[..., 0] + 2 * Z[..., 1]
    a, b = code[:, None], code[None, :]
    key = np.concatenate([np.minimum(a, b), np.maximum(a, b)], axis=2)
    return key_classes(key.reshape(len(code) ** 2, -1))


def network_cond_full(spec, y):
    """Exhaustive conditioning set of the tau = 3 network model.

    Alternatives must match the period-3 network dyad-wise, and for
    each dyad the pair of (link, shared friends) values at periods 1
    and 2 must match y's pair up to swapping the two periods.  Every
    member then satisfies the permutation condition against y, so
    likelihood ratios within the set are free of the fixed effects.
    Members come in path order.
    """
    _require_t3(spec)
    classes = _network_classes(spec.n)
    p1, p2, p3 = np.asarray(y, dtype=np.int64).reshape(3, spec.step_width)
    nets = all_paths(spec.n_dyads)
    c = classes.cls[model.path_index(p1) * len(nets) + model.path_index(p2)]
    a, b = np.divmod(classes.members(c, classes.sizes[c]), len(nets))
    members = np.hstack([nets[a], nets[b], np.tile(p3, (len(a), 1))])
    return ConditioningSet("network_full", tuple(members))


def network_star_equals_full(spec, y):
    """Whether the two-element set exhausts the full conditioning set,
    which always contains it."""
    return len(network_cond_full(spec, y)) == len(network_cond_star(spec, y))


def network_star_equality_fraction(spec):
    """Exact fraction of outcome paths whose full conditioning set is
    the two-element swap set.

    Membership depends only on the period-1/2 networks, so the count
    runs over every (period-1, period-2) pair at once; period-3
    networks and initial conditions do not enter.
    """
    _require_t3(spec)
    classes = _network_classes(spec.n)
    star = np.where(np.eye(2**spec.n_dyads, dtype=bool), 1, 2).ravel()
    return float(np.mean(classes.sizes[classes.cls] == star))


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
