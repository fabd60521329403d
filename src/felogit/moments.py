"""Fixed-effect-free moment functions for dynamic logit models.

Writing a_t = exp(w_t'A) and b_{t,q} = exp(pi_{t,q}) for the Q_t
distinct index values at period t, every path probability factors as

    Pr(Y=y | Y0, X, A) = kappa(a) * prod_t phi_t(y, a_t),

where phi_t is a polynomial in a_t of degree at most Q_t.  Grouping the
expanded product by the exponent vectors d = sum_t k_t w_t turns the
probability into kappa(a) * sum_{d in D} chat_d(y) exp(d'A), so any
vector orthogonal to every chat_d coefficient profile is a moment
function with conditional expectation zero at every fixed effect.  The
number of independent such functions is at least 2^T - |D|.

The coefficient matrix [chat_d(y)] comes from one forward pass over
periods on the prefix tree of the outcome paths: paths that share
y_1..y_t share the partial product prod_{s<=t} phi_s, held as one
column of coefficients over the distinct partial exponents, and period
t adds each column times the coefficient of a_t^k into the rows
d + k w_t.

This module counts the Q_t, builds the exponent set D and the bound,
expands the phi polynomials, extracts the null space numerically, and
provides the closed-form moment libraries for the AR(2) three-period
model, the quarterly-effects six-period model, and the dyadic network
transition model.  Each library has one definition, a vectorized
evaluator of many units at once (the one GMM calls); its table over all
2^T paths at one (y0, X) is that evaluator run on every path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .model import (
    NETWORK,
    TooLarge,
    all_paths,
    exact_key,
    index_matrix,
    path_index,
    step_index,
)

_VALUE_TOL = 1e-12


@dataclass
class PeriodTable:
    """Distinct index values at one period."""

    values: np.ndarray            # sorted distinct pi values, length Q_t

    @property
    def Q(self):
        return len(self.values)


def _collapse(vals):
    vals = np.sort(np.asarray(vals, dtype=float))
    kept = [vals[0]]
    for v in vals[1:]:
        if v - kept[-1] > _VALUE_TOL:
            kept.append(v)
    return np.array(kept)


def _q_index(values, pi):
    """Position of the nearest entry of ``values`` for each index value."""
    return np.argmin(np.abs(pi[:, None] - values[None, :]), axis=1)


def index_value_tables(spec, y0, X, theta):
    """Per-period tables of achievable index values.

    Every state that can feed a step is enumerated (outcomes before
    period 1 pinned to y0, later ones free) and passed through the
    index kernel; values that coincide numerically (theta coincidences
    such as gamma1 = gamma2) are collapsed at absolute tolerance 1e-12,
    matching the convention that Q_t counts distinct values, not
    distinct histories.
    """
    L0, w = spec.y0_len, spec.step_width
    y0 = np.zeros(0, dtype=np.int64) if y0 is None else np.asarray(y0, dtype=np.int64)
    X = np.asarray(X, dtype=float) if spec.d_x else None
    tables = []
    for step in range(spec.T // w):
        window = np.arange(step * w, step * w + L0)  # positions in (y0, y)
        free = window >= L0
        states = np.empty((2 ** int(free.sum()), L0), dtype=np.int64)
        states[:, ~free] = y0[window[~free]]
        states[:, free] = all_paths(int(free.sum()))
        x = None if X is None else X[:, step * w: (step + 1) * w]
        pi = step_index(spec, states, x, theta)
        tables += [PeriodTable(_collapse(vals)) for vals in pi.T]
    return tables


def qt_values(spec, y0, X, theta):
    """The counts Q_t of distinct index values across outcome histories."""
    return tuple(tab.Q for tab in index_value_tables(spec, y0, X, theta))


@dataclass
class DSet:
    """Exponent vectors d = sum_t k_t w_t with 0 <= k_t <= Q_t."""

    caps: tuple
    cardinality: int
    elements: frozenset | None = None  # None when only counted structurally


def _extend(ds, w, q):
    """One period of the running exponent set.

    Returns the sorted distinct rows d + k*w over the rows d of ``ds``
    and k = 0..q, and trans[i, k], the position of ds[i] + k*w among
    them.  For a fixed k the map i -> trans[i, k] is injective.
    """
    steps = np.arange(q + 1)[:, None] * w
    cand = (ds[:, None, :] + steps[None]).reshape(-1, ds.shape[1])
    nxt, trans = np.unique(cand, axis=0, return_inverse=True)
    return nxt, trans.reshape(len(ds), q + 1)


def build_dset(spec, Q):
    """Construct the exponent set D for caps Q = (Q_1..Q_T).

    Nonzero constant-column and indicator designs use exact counting
    formulas; other designs are enumerated by the running set of
    distinct partial sums that ``coefficient_matrix`` also walks.  Sets
    whose enumeration cannot fit desk-scale memory are refused with a
    size estimate, and structured sets above 200,000 elements report
    the cardinality without materializing the elements.
    """
    Q = tuple(int(q) for q in Q)
    if len(Q) != spec.T:
        raise ValueError("need one cap per period")
    cols = exact_key(spec.W)
    d_w = spec.d_w

    if np.all(cols == cols[:, :1]) and np.any(cols[:, 0]):
        smax = sum(Q)
        elems = frozenset(tuple((k * cols[:, 0]).tolist()) for k in range(smax + 1))
        return DSet(Q, smax + 1, elems)

    if spec.binary_design:
        rowcap = [0] * d_w
        for t, r in enumerate(np.argmax(cols, axis=0)):
            rowcap[r] += Q[t]
        card = 1
        for c in rowcap:
            card *= c + 1
        if card > 200_000:
            return DSet(Q, card, None)
        elems = frozenset(
            tuple(combo) for combo in product(*[range(c + 1) for c in rowcap])
        )
        return DSet(Q, card, elems)

    size = 1.0
    for q in Q:
        size *= q + 1
    if size > 1e8:
        raise TooLarge(f"exact enumeration would scan ~{size:.3g} combinations")
    ds = np.zeros((1, d_w), dtype=cols.dtype)
    for t in range(spec.T):
        ds, _ = _extend(ds, cols[:, t], Q[t])
        if len(ds) > 5_000_000:
            raise TooLarge(f"running element set exceeded 5e6 entries at period {t + 1}")
    return DSet(Q, len(ds), frozenset(map(tuple, ds.tolist())))


def moment_bound(spec, y0, X, theta):
    """Lower bound 2^T - |D| on the number of independent moment functions.

    Nonpositive values signal 'no guarantee', not 'no moments exist'.
    """
    Q = qt_values(spec, y0, X, theta)
    return 2**spec.T - build_dset(spec, Q).cardinality


# -- phi polynomial expansion ----------------------------------------------


@dataclass
class PhiExpansion:
    """Per-period polynomial coefficients and their exponent grouping."""

    per_period: list                     # arrays c_{t,k}, k = 0..Q_t
    grouped: dict = field(repr=False)    # d tuple -> chat_d(y)


def _poly_cache(tables):
    """Coefficients of phi_t in a_t, one (Q_t, 2, Q_t + 1) array per
    period indexed by (q(history), y_t, power of a_t)."""
    cache = []
    for tab in tables:
        b = np.exp(tab.values)
        coef = np.zeros((tab.Q, 2, tab.Q + 1))
        for q in range(tab.Q):
            for yt in (0, 1):
                poly = np.array([1.0]) if yt == 0 else np.array([0.0, b[q]])
                for qq in range(tab.Q):
                    if qq != q:
                        poly = np.convolve(poly, np.array([1.0, b[qq]]))
                coef[q, yt, :poly.size] = poly
        cache.append(coef)
    return cache


def _expand(spec, tables, polys, paths, pi):
    """Expand prod_t phi_t(y, a_t) for every row y of ``paths`` at once.

    The rows of ``paths`` are distinct and in ``all_paths`` order (all
    paths, or a single one), so the last level of the prefix tree holds
    the paths in their given order.

    One forward pass over periods on the prefix tree of the paths: the
    state S holds one row per distinct partial exponent
    sum_{s<=t} k_s w_s and one column per distinct prefix y_1..y_t, so
    paths that share a prefix share its partial product.  Period t
    finds each prefix's q index by a nearest match of its index value
    pi_t against the period table and adds S * coef[:, k] into the rows
    d + k*w_t of the next state.  Returns (C, ds) with C[i, j] the
    coefficient of exp(ds[i]'A) for path j; rows that are zero for
    every path are dropped.
    """
    cols = exact_key(spec.W)
    S = np.ones((1, 1))
    ds = np.zeros((1, spec.d_w), dtype=cols.dtype)
    node = np.zeros(paths.shape[0], dtype=np.int64)
    for t, tab in enumerate(tables):
        keys = path_index(paths[:, : t + 1])
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        coef = polys[t][_q_index(tab.values, pi[first, t]), paths[first, t]]
        ds, trans = _extend(ds, cols[:, t], tab.Q)
        parent = S[:, node[first]]
        S = np.zeros((ds.shape[0], first.size))
        # descending k adds each entry's terms from the source
        # d - Q_t*w_t up to d, as a per-path expansion over ascending
        # exponents does, so both round alike
        for k in range(tab.Q, -1, -1):
            S[trans[:, k]] += parent * coef[:, k]
        node = inverse.reshape(-1)
    keep = np.any(S != 0.0, axis=1)
    return S[keep], ds[keep]


def phi_expand(spec, y, y0, X, theta):
    """Expand the path probability of y into exponent-grouped coefficients.

    The grouping is the forward pass of ``coefficient_matrix`` run on
    the single path y.  Reconstruction: Pr(Y=y|Y0,X,A) =
    phi_kappa(tables, A) * sum_d grouped[d] * exp(d'A).
    """
    tables = index_value_tables(spec, y0, X, theta)
    paths = np.atleast_2d(np.asarray(y, dtype=np.int64))
    pi = index_matrix(spec, paths, y0, X, theta)
    polys = _poly_cache(tables)
    C, ds = _expand(spec, tables, polys, paths, pi)
    per_period = [polys[t][_q_index(tab.values, pi[0, t: t + 1])[0], y, : tab.Q + y]
                  for t, (tab, y) in enumerate(zip(tables, paths[0]))]
    grouped = dict(zip(map(tuple, ds.tolist()), C[:, 0].tolist()))
    return PhiExpansion(per_period=per_period, grouped=grouped)


def phi_kappa(spec, tables, A):
    """The common factor kappa(a) = prod_t prod_q (1 + b_{t,q} a_t)^{-1}."""
    A = np.asarray(A, dtype=float)
    a = np.exp(spec.W.T @ A)
    out = 0.0
    for t, tab in enumerate(tables):
        out -= np.sum(np.log1p(np.exp(tab.values) * a[t]))
    return float(np.exp(out))


def coefficient_matrix(spec, y0, X, theta):
    """The |D| x 2^T matrix [chat_d(y)] over all outcome paths.

    Built by one forward pass over periods on the prefix tree of all
    2^T paths (see ``_expand``), the same mechanism for every family
    and design.  Returns (C, ds, tables): row i of C holds the
    coefficients of exp(ds[i]'A), ds is the |D| x d_w array of exponent
    vectors in lexicographic order, and tables are the per-period
    index-value tables.
    """
    tables = index_value_tables(spec, y0, X, theta)
    paths = all_paths(spec.T)
    pi = index_matrix(spec, paths, y0, X, theta)
    C, ds = _expand(spec, tables, _poly_cache(tables), paths, pi)
    return C, ds, tables


@dataclass
class MomentFunction:
    """A finite map from outcome paths to coefficients.

    ``values`` is aligned with the ``all_paths`` enumeration; the
    defining property is sum_y values[y] * Pr(Y=y|Y0,X,A) = 0 for every
    fixed effect A, at the (theta, X, Y0) the table was built for.
    """

    T: int
    values: np.ndarray
    provenance: str

    def __call__(self, y):
        return float(self.values[path_index(np.asarray(y))])


@dataclass
class NullspaceReport:
    dimension: int
    moments: list
    rank: int
    singular_values: np.ndarray
    weak_separation: bool


def _column_groups(M):
    """Group id of each column of M, numbered by first appearance; two
    columns share a group only when their bytes are identical."""
    keys = {}
    return np.array([keys.setdefault(c.tobytes(), len(keys)) for c in M.T], np.intp)


def _null_space(M):
    """Singular values, rank and orthonormal null-space basis (rows) of M
    with its rows max-normalized, built as ``nullspace_moments`` says."""
    n, label = M.shape[1], _column_groups(M)
    count = np.bincount(label)
    order = np.argsort(label, kind="stable")
    start = np.cumsum(count) - count
    B = M[:, order[start]]
    scale = np.abs(B).max(axis=1, keepdims=True)
    B = B / np.where(scale == 0, 1.0, scale) * np.sqrt(count)
    if B.shape[0] > B.shape[1]:
        B = np.linalg.qr(B, mode="r")
    _, s, Vt = np.linalg.svd(B)
    rank = int(np.sum(s > 1e-9 * s[0])) if s.size else 0
    Z = Vt[rank:] / np.sqrt(count)  # B's null vectors, per path of a group
    basis = np.zeros((n - rank, n))
    # mode="clip" writes straight into out; the default "raise" buffers
    np.take(Z, label, axis=1, out=basis[:len(Z)], mode="clip")
    # the path at place k >= 1 of its group against the k before it
    pos = np.arange(n) - np.repeat(start, count)
    at = np.flatnonzero(pos)
    k, rows = pos[at], np.arange(len(Z), n - rank)
    basis[rows, order[at]] = -np.sqrt(k / (k + 1))
    before = order[np.arange(k.sum()) + np.repeat(at - np.cumsum(k), k)]
    basis[np.repeat(rows, k), before] = np.repeat(1 / np.sqrt(k * (k + 1)), k)
    return np.concatenate([s, np.zeros(min(M.shape) - s.size)]), rank, basis


def nullspace_moments(spec, y0, X, theta):
    """Orthonormal basis of the fixed-effect-free moment space.

    The basis spans the null space of the coefficient matrix
    [chat_d(y)] with its rows max-normalized (row scaling leaves the
    null space unchanged), at the relative singular-value threshold
    1e-9.  Byte-identical columns (paths equally likely at every A) are
    grouped: the G distinct columns, each times sqrt(count), have the
    matrix's nonzero singular values, so only they are decomposed, via
    their QR factor when |D| > G.  The basis is their null vectors
    spread over each group / sqrt(count), then the Helmert contrasts
    within each group.  ``weak_separation`` flags a retained/discarded
    singular-value gap below 10x.
    """
    if 2**spec.T > 16384:
        raise TooLarge(f"an explicit null-space basis over 2^{spec.T} paths would "
                       f"need up to {8 * 4**spec.T:,} bytes (limit 2^T <= 16384)")
    s, rank, basis = _null_space(coefficient_matrix(spec, y0, X, theta)[0])
    weak = bool(rank > 0 and rank < s.size and s[rank - 1] / max(s[rank], 1e-300) < 10.0)
    # each moment is a view of its row: the basis is allocated once
    moments = [MomentFunction(spec.T, row, "nullspace") for row in basis]
    return NullspaceReport(dimension=basis.shape[0], moments=moments, rank=rank,
                           singular_values=s, weak_separation=weak)


# The last probability matrix built, as (key, P).  The key holds the
# exact contents of every input, so a hit returns the matrix those
# inputs give and no caller can see another's inputs.
_LAST_PROBABILITIES = None
# Elements of one draw block's (draws x 2^T x T) temporaries.
_BLOCK_ELEMENTS = 1 << 20


def _contents_key(spec, y0, X, theta, A_rows):
    key = [spec.family, spec.T, spec.p, spec.n, spec.tau, spec.d_x]
    for a in (spec.W, y0, X, theta, A_rows):
        if a is not None:
            a = np.asarray(a)
            a = (a.dtype.str, a.shape, a.tobytes())
        key.append(a)
    return tuple(key)


def probability_matrix(spec, y0, X, theta, A_rows):
    """Rows Pr(y | Y0, X, A_j) over all paths, one per fixed-effect draw.

    The index matrix pi of all 2^T paths is computed once and every
    draw's linear index is the broadcast eta = pi + (A_rows @ W)[:, None, :],
    taken in blocks of draws that bound the temporaries.  The last matrix
    built is kept and returned again, read-only, while every input holds
    the same contents (the spec's family, sizes and W, y0, X, theta and
    A_rows), so verifying many moments against one grid builds it once.
    """
    global _LAST_PROBABILITIES
    A_rows = np.atleast_2d(np.asarray(A_rows, dtype=float))
    if A_rows.shape[1:] != (spec.d_w,):
        raise ValueError(f"A_rows must have {spec.d_w} columns, got {A_rows.shape}")
    if not np.all(np.isfinite(A_rows)):
        raise ValueError("A must be finite")
    key = _contents_key(spec, y0, X, theta, A_rows)
    last = _LAST_PROBABILITIES
    if last is not None and last[0] == key:
        return last[1]
    paths = all_paths(spec.T)
    pi = index_matrix(spec, paths, y0, X, theta)
    shift = (A_rows @ spec.W)[:, None, :]
    logp = np.empty((A_rows.shape[0], paths.shape[0]))
    block = max(1, _BLOCK_ELEMENTS // pi.size)
    for lo in range(0, A_rows.shape[0], block):
        eta = pi + shift[lo: lo + block]
        logp[lo: lo + block] = np.sum(paths * eta - np.logaddexp(0.0, eta), axis=2)
    P = np.exp(logp)
    P.flags.writeable = False
    _LAST_PROBABILITIES = (key, P)
    return P


def nullspace_from_probabilities(spec, y0, X, theta, A_rows):
    """Null-space basis of the sampled-probability matrix.

    An independent construction of the same space as
    ``nullspace_moments``: each probability row is a positive mixture
    of the exp(d'A) profiles, so the two null spaces coincide for
    well-spread draws.
    """
    return _null_space(probability_matrix(spec, y0, X, theta, A_rows))[2]


def verify_moment(m, spec, y0, X, theta, A_grid):
    """Exact max_A |sum_y m(y) Pr(y|Y0,X,A)| over a fixed-effect grid.

    All residuals come from one product P @ m with the (draws x 2^T)
    matrix of ``probability_matrix``, which is built once for a run of
    calls that verify many moments against one grid.
    """
    vec = m.values if isinstance(m, MomentFunction) else np.asarray(m, dtype=float)
    P = probability_matrix(spec, y0, X, theta, A_grid)
    return float(np.max(np.abs(P @ vec), initial=0.0))


# -- moment evaluators for GMM and the closed-form libraries -----------------
#
# An evaluator maps (Y, Y0, X, theta) to the (n, k) moments of n units;
# the closed-form libraries also compile units into a MomentTerms table.


class CallableMoments:
    """Adapter turning fn(Y, Y0, X, theta) -> (n, k) into an evaluator."""

    def __init__(self, fn, k):
        self.fn = fn
        self.k = k

    def stacked(self, Y, Y0, X, theta):
        out = np.asarray(self.fn(Y, Y0, X, theta), dtype=float)
        return out.reshape(len(Y), self.k)


@dataclass
class MomentTerms:
    """Moments as sums of exp-affine terms: term i adds
    coef[i, k] * exp(A[i] @ theta) to moment column k of unit cell[i]."""

    cell: np.ndarray   # (terms,) unit rows
    coef: np.ndarray   # (terms, k), instruments folded in
    A: np.ndarray      # (terms, dim theta) exponent rows


def _all_path_moments(ev, T, y0, X, theta):
    """The (k, 2^T) values of evaluator ``ev`` on every path at one
    initial block y0 and one covariate block X (or None)."""
    Y0 = np.broadcast_to(np.asarray(y0), (2**T, np.size(y0)))
    X = None if X is None else np.broadcast_to(X, (2**T,) + np.shape(X))
    return np.ascontiguousarray(ev.stacked(all_paths(T), Y0, X, theta).T)


class Ar2T3Moments:
    """Stacked AR(2), T=3 closed-form moments, one slot per initial block.

    The printed cases are (0,0) and (0,1); the others follow from the
    outcome-flip symmetry Y -> 1-Y, A -> -A - gamma1 - gamma2, which
    maps the model onto itself.
    """

    cells = ((0, 0), (0, 1), (1, 0), (1, 1))
    k = 4
    # entries c * exp(a'(gamma1, gamma2)), rows: the printed cases by y_0,
    # columns: paths (0,1,1), (0,1,0), (1,0,0), (1,0,1) in all_paths order
    _coef = np.zeros((2, 8))
    _coef[:, [3, 2, 4, 5]] = [[1, 1, -1, -1], [-1, -1, 1, 1]]
    _expo = np.zeros((2, 8, 2))
    _expo[[0, 1, 1], [3, 4, 5]] = [[-1, 0], [-1, 1], [0, 1]]

    def stacked(self, Y, Y0, X, theta):
        tab = self.terms(Y, Y0, X)
        out = np.zeros((len(Y), self.k))
        e = np.exp(tab.A @ np.asarray(theta, dtype=float)[:2])
        out[tab.cell] = tab.coef * e[:, None]
        return out

    def terms(self, Y, Y0, X):
        Y = np.asarray(Y, dtype=np.int64)
        Y0 = np.asarray(Y0, dtype=np.int64)
        flip = Y0[:, :1]  # a unit with y_{-1} = 1 reads its flipped case
        row, path = Y0[:, 1] ^ flip[:, 0], path_index(Y ^ flip)
        u = np.flatnonzero(self._coef[row, path])
        coef = np.zeros((u.size, self.k))
        coef[np.arange(u.size), 2 * Y0[u, 0] + Y0[u, 1]] = self._coef[row[u], path[u]]
        return MomentTerms(u, coef, self._expo[row[u], path[u]])


def closed_form_ar2_T3(y0, theta):
    """Closed-form AR(2), T=3 moment table for initial block (y_{-1}, y_0)."""
    y0 = tuple(int(v) for v in y0)
    values = _all_path_moments(Ar2T3Moments(), 3, y0, None, theta)
    return MomentFunction(3, values[Ar2T3Moments.cells.index(y0)],
                          f"closed_form(ar2_t3,y0={y0})")


class QuarterlyT6Moments:
    """Stacked quarterly moments (m1, m2), evaluated per unit.

    m1 is the thirteen-case table of the quarterly T=6 model written as
    one exp-affine term plus a constant; m2 is m1 after the symmetry
    Y -> 1-Y, y0 -> 1-y0, X -> -X.  X holds per-unit covariates
    (n, d_x, 6), or is None; without X or without beta the covariate
    terms drop out.

    With ``instruments=True`` (the default when covariates are
    present), each moment is also interacted with the covariate
    differences x_2 - x_6 and x_5 - x_1 entering its exponents; the
    interactions are valid moments because the originals have zero
    conditional expectation given (Y0, X, A), and they separate the
    weakly-identified near-roots of the plain just-identified system.
    """

    def __init__(self, d_x=0, instruments=True):
        self.d_x = int(d_x)
        self.instruments = bool(instruments) and self.d_x > 0
        self.k = 2 * (1 + 2 * self.d_x) if self.instruments else 2

    @staticmethod
    def _m1(Y, y0, d26, d51):
        """m1 = c * exp(a'theta) + b per unit, as (c, a, b): the table
        (phi_a + phi_b)(1 - w y1) - (1 - y1), phi_a = (1-y2)(1-y5) exp(y6 e),
        phi_b = y2(1-y5) exp(-(1-y6) e), e = gamma y1 + beta'(x2 - x6), and
        for binary y1, 1 - w y1 = exp(y1 (gamma (y4 - y0) + beta'(x5 - x1)))."""
        y1, y2, y4, y5, y6 = (Y[:, k] for k in (0, 1, 3, 4, 5))
        s = (1 - y2) * y6 - y2 * (1 - y6)
        a = np.column_stack([y1 * (s + y4 - y0),
                             s[:, None] * d26 + y1[:, None] * d51])
        return 1 - y5, a, y1 - 1

    def _parts(self, Y, Y0, X):
        """(c, a, b) of m1 and of m2, and the instruments z: column
        2i + j of the moments is m_j * z_i."""
        Y = np.asarray(Y, dtype=float)
        y0 = np.asarray(Y0, dtype=float).reshape(-1)
        d26 = d51 = np.zeros((len(y0), 0))
        if X is not None:
            X = np.asarray(X, dtype=float)
            d26, d51 = X[:, :, 1] - X[:, :, 5], X[:, :, 4] - X[:, :, 0]
        inst = range(self.d_x if self.instruments else 0)
        z = [np.ones(len(y0))] + [v[:, d] for d in inst for v in (d26, d51)]
        parts = [self._m1(Y, y0, d26, d51),
                 self._m1(1.0 - Y, 1.0 - y0, -d26, -d51)]
        return parts, np.column_stack(z)

    def stacked(self, Y, Y0, X, theta):
        theta = np.asarray(theta, dtype=float)
        parts, z = self._parts(Y, Y0, X)
        m = np.column_stack([c * np.exp(a[:, :theta.size] @ theta[:a.shape[1]]) + b
                             for c, a, b in parts])
        return (z[:, :, None] * m[:, None, :]).reshape(len(z), -1)

    def terms(self, Y, Y0, X):
        parts, z = self._parts(Y, Y0, X)
        cell, coef, A = [], [], []
        for j, (c, a, b) in enumerate(parts):
            for cj, aj in ((c, a), (b, np.zeros_like(a))):
                u = np.flatnonzero(cj)
                cell.append(u)
                coef.append(np.zeros((u.size, self.k)))
                coef[-1][:, j::2] = cj[u, None] * z[u]
                A.append(aj[u])
        return MomentTerms(np.concatenate(cell), np.vstack(coef), np.vstack(A))


def closed_form_quarterly_T6(theta, y0, X):
    """The pair (m1, m2) of quarterly-effects moment functions at T=6,
    at initial outcome y0 and the d_x x 6 covariates X (or None)."""
    m1, m2 = _all_path_moments(QuarterlyT6Moments(), 6, [int(y0)], X, theta)
    return (
        MomentFunction(6, m1, "closed_form(quarterly_t6,m1)"),
        MomentFunction(6, m2, "closed_form(quarterly_t6,m2)"),
    )


def network_moment_value(spec, y_ref, Y, y0, X, theta):
    """Vectorized transition moment m_y for a reference network y_ref.

    With pi_s(z) the period-s index fed by the network z,
    m_y = 1{Y2 = y} exp(sum (Y3 - y)(pi_2(Y1) - pi_3(y))
    - sum (Y1 - y)(pi_1(y0) - pi_3(y))) - 1{Y1 = y}, sums over dyads.
    """
    if spec.family != NETWORK or spec.tau != 3:
        raise ValueError("network transition moments require tau = 3")
    D = spec.n_dyads
    Y = np.atleast_2d(np.asarray(Y, dtype=np.int64))
    y_ref = np.asarray(y_ref, dtype=np.int64)
    Y1, Y2, Y3 = Y[:, :D], Y[:, D: 2 * D], Y[:, 2 * D:]

    def pi(states, per):
        x = np.asarray(X, dtype=float)[:, (per - 1) * D: per * D] if spec.d_x else None
        return step_index(spec, states, x, theta)

    pi_ref = pi(y_ref, 3)
    e1 = np.sum((Y3 - y_ref) * (pi(Y1, 2) - pi_ref), axis=1)
    e2 = -np.sum((Y1 - y_ref) * (pi(y0, 1) - pi_ref), axis=1)
    ind2 = np.all(Y2 == y_ref, axis=1)
    ind1 = np.all(Y1 == y_ref, axis=1)
    return ind2 * np.exp(e1 + e2) - ind1


def closed_form_network_transition(spec, y_ref, theta, y0, X=None):
    paths = all_paths(spec.T)
    vals = network_moment_value(spec, y_ref, paths, y0, X, theta)
    ref = tuple(int(v) for v in np.asarray(y_ref).ravel())
    return MomentFunction(spec.T, vals, f"closed_form(network_t3,y={ref})")
