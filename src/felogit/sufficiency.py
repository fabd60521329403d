"""Sufficient-statistic machinery for dynamic logit models.

For generalized autoregressive models, the likelihood ratio of two
outcome paths sharing an initial condition is free of the fixed effect
whenever (i) the paths load the design identically, W y = W y~, and
(ii) the per-period pairs (w_t, pi_t) for t = 2..T of one path are a
permutation of the other's.  This module checks those conditions on
exact integer keys, enumerates identifying pairs for AR(1) designs,
verifies the AR(p) condition systems, and builds the conditioning sets
and conditional likelihood of the dynamic dyadic network model.

One conditioning key, ``class_key`` (W y, then the multiset of the
triples (w_t, x_t, Z_t)), gives the classes of ``estimation.cmle`` and
of ``moments.nullspace_moments`` for every family, the tau = 3 network
sets, the two conditions of ``permutation_check``, the AR(1) pairs and
the AR(p) condition check; it reads X only through ``period_pattern``.
Every class is a set of rows sharing one key, built by one helper,
``key_classes``, and walked by ``KeyClasses.segments`` and ``.pairs``;
``row_classes`` groups byte-identical rows.  A log ratio is a
``model.path_profile`` difference @ theta; a transition gap, its lag-1
part.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import starmap
from numbers import Integral
from typing import NamedTuple

import numpy as np

from . import model
from .model import (AR, NETWORK, STATIC, all_paths, exact_key, lag_features,
                    path_states)


class KeyClasses:
    """Rows grouped by equal keys, classes in ``np.unique`` key order:
    each row's class ``cls``, rows per class ``sizes`` and each class's
    first row ``first``.  ``order`` and ``rank`` are built when read."""

    def __init__(self, cls, sizes, first):
        self.cls, self.sizes, self.first = cls, sizes, first

    @cached_property
    def order(self):
        """Rows class by class, each class in row order."""
        return np.argsort(self.cls, kind="stable")

    @cached_property
    def rank(self):
        """Each row's position among its class's members."""
        rank = np.empty_like(self.order)
        start = np.cumsum(self.sizes) - self.sizes
        rank[self.order] = np.arange(self.order.size) - start[self.cls[self.order]]
        return rank

    def segments(self, classes):
        """Members of ``classes``, class after class, and each one's start."""
        size = self.sizes[classes]
        start = np.cumsum(size) - size
        first = (np.cumsum(self.sizes) - self.sizes)[classes]
        return self.order[np.repeat(first - start, size) + np.arange(size.sum())], start

    def by_weight(self, w):
        """These classes, members by descending ``w`` (ties in row order)."""
        sub = KeyClasses(self.cls, self.sizes, None)
        sub.order = np.lexsort((-w, self.cls))
        sub.first = sub.order[np.cumsum(self.sizes) - self.sizes]
        return sub

    def pairs(self):
        """Every two rows (a, b) of one class, a before b: by class, a, b."""
        later = (self.sizes[self.cls] - 1 - self.rank)[self.order]
        start = np.cumsum(later) - later
        at = np.repeat(np.arange(later.size) + 1 - start, later) + np.arange(later.sum())
        return np.repeat(self.order, later), self.order[at]


def key_classes(keys):
    """Group the rows of ``keys`` (n, k), or its entries if 1-D, by value."""
    _, first, cls, sizes = np.unique(keys, axis=0 if keys.ndim > 1 else None,
                                     return_index=True, return_inverse=True,
                                     return_counts=True)
    return KeyClasses(cls.ravel(), sizes, first)


def row_classes(*parts):
    """``key_classes`` of the rows of ``parts`` (n, ...) side by side,
    compared byte for byte (all in one class when no part has a byte)."""
    n = len(parts[0])
    rec = np.hstack([np.ascontiguousarray(a).reshape(n, np.prod(a.shape[1:], dtype=int))
                     .view(np.uint8) for a in parts])
    if not rec.shape[1]:
        return KeyClasses(np.zeros(n, np.intp), np.array([n]), np.zeros(1, np.intp))
    return key_classes(rec.view(np.dtype((np.void, rec.shape[1]))).ravel())


class Pair(NamedTuple):
    """One certified pair (y, y~), a row of a ``PairCertificate``."""

    y: np.ndarray
    y_tilde: np.ndarray
    cond_linear: bool
    cond_permutation: bool
    transition_gap: int | None  # None outside AR
    log_ratio: float
    passed = property(lambda self: self.cond_linear & self.cond_permutation)


@dataclass
class PairCertificate:
    """Certified pairs as a table: the fields of ``Pair`` as columns, y
    and y_tilde (m, T) int8, the others (m,) or transition_gap None.  A mask
    or slice gives a table, an integer one ``Pair``, iteration every
    ``Pair`` in order."""

    y: np.ndarray
    y_tilde: np.ndarray
    cond_linear: np.ndarray
    cond_permutation: np.ndarray
    transition_gap: np.ndarray | None
    log_ratio: np.ndarray
    passed = Pair.passed

    def __len__(self):
        return len(self.log_ratio)

    def __iter__(self):
        gap = self.transition_gap
        return starmap(Pair, zip(self.y, self.y_tilde, self.cond_linear.tolist(),
                                 self.cond_permutation.tolist(),
                                 [None] * len(self) if gap is None else gap.tolist(),
                                 self.log_ratio.tolist()))

    def __getitem__(self, k):
        if isinstance(k, Integral):
            k = range(len(self))[k]
            return next(iter(self[k:k + 1]))
        return type(self)(*(None if v is None else v[k] for v in vars(self).values()))


@dataclass
class ConditioningSet:
    """A set of outcome paths sharing one statistic value."""

    kind: str  # "network_star" | "network_full"
    members: np.ndarray  # (m, T) int64, in path order

    def __len__(self):
        return len(self.members)

    def __contains__(self, y):
        return bool(np.any(np.all(self.members == np.asarray(y), axis=1)))


def _period_ids(spec, X):
    """Ids of (exact w_t key, x_t) for t = 2..T, x_t compared byte for
    byte: one row without X or for a d_x x T block, one per block of a
    stack (n, d_x, T)."""
    T, X = spec.T, model._check_X(spec, X)
    wx = exact_key(spec.W).T.astype(float)[None]  # (1, T, d_w); then x_t, once or per block
    if X is not None:
        x = np.swapaxes(X, -1, -2).reshape(-1, T, spec.d_x)
        wx = np.concatenate([np.broadcast_to(wx, (len(x), T, spec.d_w)), x], axis=2)
    return row_classes(wx[:, 1:].reshape(-1, wx.shape[2])).cls.reshape(len(wx), T - 1)


def period_pattern(spec, X):
    """Per block of X (n, d_x, T) and t = 2..T, the first of those
    periods with t's (w_t, x_t), as int8: at one y0, ``class_key``
    groups the paths alike for every X of one pattern."""
    ids = _period_ids(spec, X)
    return np.argmax(ids[:, :, None] == ids[:, None, :], axis=2).astype(np.int8)


def class_key(spec, paths, y0, X=None):
    """The conditioning key of each path of ``paths`` (m, T): the exact
    W y, then the sorted ids of the triples (exact w_t key, x_t, Z_t),
    t = 2..T, of the ``_period_ids`` and the lag features Z_t; y0 and X
    (d_x x T) are one block, or one per path.  Paths of one call share
    a key exactly when W y = W y~ and their triples are a permutation
    of each other; given (y0, X, A) their probability ratio is then
    exp((P - P~) @ theta) for every A, P the ``model.path_profile``.  In
    a static model the key is W y alone and X is not read.
    """
    paths = np.atleast_2d(np.asarray(paths, dtype=np.int64))
    if spec.family == STATIC:
        return exact_key(paths @ spec.W.T)
    states = path_states(spec, paths, model._check_y0(spec, y0))
    Z = lag_features(spec, states).reshape(*paths.shape, -1)[:, 1:]
    base = Z.max(initial=0) + 1  # Z holds small nonnegative integers
    ids = _period_ids(spec, X) * base ** Z.shape[2] + Z @ base ** np.arange(Z.shape[2])
    return np.hstack([exact_key(paths @ spec.W.T), np.sort(ids, axis=1)])


def _certify(spec, paths, y0, X, theta, a, b, key):
    """The PairCertificate of the pairs (paths[a], paths[b]), paths int8.
    A pair meets the linear condition when the W y that starts the two
    paths' ``key`` rows has one ``row_classes`` id, and the permutation
    condition when the rest does.  One ``path_profile`` P per path gives
    the AR gap, P's lag-1 column difference, and log_ratio (P[a] - P[b]) @ theta."""
    P, d = model.path_profile(spec, paths, y0, X), spec.d_w
    linear, perm = (row_classes(half).cls for half in (key[:, :d], key[:, d:]))
    gap = (P[a, 0] - P[b, 0]).astype(np.int64) if spec.family == AR else None
    return PairCertificate(paths[a], paths[b], linear[a] == linear[b], perm[a] == perm[b],
                           gap, (P[a] - P[b]) @ model.check_theta(spec, theta))


def permutation_check(spec, y, y_tilde, y0, theta, X=None):
    """Certify a pair (y, y~) by the linear and permutation conditions,
    the two parts of their ``class_key``.

    When both conditions hold, Pr(Y=y|Y0,X,A) / Pr(Y=y~|Y0,X,A) equals
    exp(log_ratio) for every A.
    """
    if spec.family not in (AR, NETWORK):
        raise ValueError("operation requires a dynamic (ar or network) spec")
    pair, y0 = model.check_binary("y", np.stack([y, y_tilde])), np.asarray(y0, dtype=np.int64)
    return _certify(spec, pair, y0, X, theta, [0], [1], class_key(spec, pair, y0, X))[0]


def ar1_sufficient_stat(spec, y, y0):
    """The statistic (W y, W y_lag), as one exact key row, that absorbs
    the fixed effects in AR(1) models with basis-vector designs; y_lag
    is (y0, y_1, ..., y_{T-1})."""
    if spec.family != AR or spec.p != 1:
        raise ValueError("ar1_sufficient_stat requires an AR(1) spec")
    if not spec.binary_design:
        raise ValueError("sufficiency requires basis-vector columns; "
                         "canonicalize_design maps a general W to this form")
    y = np.asarray(y, dtype=np.int64)
    lag = np.concatenate([model._check_y0(spec, y0), y[:-1]])
    return exact_key(spec.W @ np.stack([y, lag], axis=1)).T.ravel()


def canonicalize_design(W):
    """Map arbitrary design columns to indicator columns (W*, Omega).

    Omega collects the distinct columns (equal when their ``exact_key``
    values are) in first-appearance order; column t of W* is the basis
    vector marking which member of Omega the original w_t equals, so
    that w_t'A = (W*_t)'A* with A* = Omega'A.
    """
    W = np.atleast_2d(np.asarray(W, dtype=float))
    groups = row_classes(exact_key(W).T)
    first = np.sort(groups.first)  # classes numbered by first appearance
    cls = np.searchsorted(first, groups.first[groups.cls])
    return model.incidence(cls, first.size), W[:, first]


def enumerate_pairs_ar1(spec, y0, require_gap=False, theta=None):
    """All unordered path pairs (y, y~) that ``permutation_check``
    passes in a covariate-free AR(1) model: the pairs of one
    ``class_key`` class.

    One key is computed over all 2^T paths and grouped by
    ``row_classes``; classes come in ``row_classes`` order of their key
    rows and pairs within a class in increasing path order.  With
    ``require_gap`` only pairs whose transition counts differ (the ones
    that identify gamma) are kept.  An empty table is a meaningful
    outcome: designs with per-period effects admit no pairs.  More than
    2^22 pairs are refused with ``TooLarge`` before any is built.
    """
    if spec.family != AR or spec.p != 1 or spec.d_x:
        raise ValueError("enumerate_pairs_ar1 requires a covariate-free AR(1) spec")
    if spec.T > 20:
        raise model.TooLarge(f"pairs would enumerate {2**spec.T:,} paths (limit 2^20)")
    theta = np.zeros(spec.theta_dim) if theta is None else theta
    paths = all_paths(spec.T)
    groups = row_classes(key := class_key(spec, paths, y0))
    count = int((groups.sizes * (groups.sizes - 1) // 2).sum())
    if count > 2**22:
        raise model.TooLarge(f"pairs would certify {count:,} pairs, a table of "
                             f"{count * (2 * spec.T + 18):,} bytes (limit 2^22 pairs)")
    a, b = groups.pairs()
    certs = _certify(spec, paths, y0, None, theta, a, b, key)
    return certs[certs.transition_gap != 0] if require_gap else certs


def arp_condition_check(spec, y, y_tilde, y0, theta=None):
    """Check the AR(p) sufficiency system on a candidate pair of a
    basis-vector design: ``permutation_check``'s certificate.

    The system is W y = W y~ together with, for every nonempty subset i
    of lags {1..p}, equality of sum_t w_t prod_{r in i} y_{t-r} between
    the two paths.  Per design row those sums fix, by inclusion-exclusion,
    the count of every lag pattern Z_t, and the t = 1 terms depend on y0
    alone; so the system holds exactly when the multisets of (w_t, Z_t),
    t = 2..T, agree, the permutation condition of ``class_key``.
    """
    if spec.family != AR:
        raise ValueError("arp_condition_check requires an AR spec")
    if not spec.binary_design:
        raise ValueError("sufficiency requires basis-vector columns")
    return permutation_check(spec, y, y_tilde, y0,
                             np.zeros(spec.theta_dim) if theta is None else theta)


# -- dynamic network conditioning ------------------------------------------


def _require_t3(spec):
    if spec.family != NETWORK:
        raise ValueError("operation requires a network spec")
    if spec.tau != 3:
        raise ValueError("conditioning sets are built for tau = 3")
    if spec.d_x:
        raise ValueError("network conditioning sets are covariate-free")


def network_cond_star(spec, y):
    """Conditioning set of y and its period-1/2 swap (one member when
    the two periods agree)."""
    _require_t3(spec)
    y = np.asarray(y, dtype=np.int64)
    p1, p2, p3 = y.reshape(3, spec.step_width)
    return ConditioningSet("network_star",
                           np.unique([y, np.concatenate([p2, p1, p3])], axis=0))


@lru_cache(maxsize=None)
def _network_classes(n):
    # classes of (period-1, period-2) network pairs, row a * 2^D + b for
    # networks a, b by id, by the class_key of the path (a, b, 0) at y0 = 0:
    # the period-3 network and y0 shift every key alike
    if n > 4:
        raise model.TooLarge(f"network conditioning classes need a scan of "
                             f"{2 ** (n * (n - 1)):,} candidates; n <= 4 only")
    spec = model.network_design(n, 3)
    nets = all_paths(spec.n_dyads)
    a, b = np.divmod(np.arange(len(nets) ** 2), len(nets))
    paths = np.hstack([nets[a], nets[b], np.zeros_like(nets[a])])
    return row_classes(class_key(spec, paths, np.zeros(spec.n_dyads)))


def network_cond_full(spec, y):
    """Exhaustive conditioning set of the tau = 3 network model, the
    paths sharing y's ``class_key``.

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
    a, b = np.divmod(np.flatnonzero(classes.cls == c), len(nets))
    members = np.hstack([nets[a], nets[b], np.tile(p3, (len(a), 1))])
    return ConditioningSet("network_full", members)


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
    mine = np.all(cond.members == np.asarray(y), axis=1)
    if not mine.any():
        raise ValueError("y must belong to the conditioning set")
    g = model.path_profile(spec, cond.members, y0, None) @ model.check_theta(spec, theta)
    e = np.exp(g - g.max())  # shifted by the largest, as in a logsumexp
    return float(e[mine][0] / e.sum())
