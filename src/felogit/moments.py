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

When every design column is c_r e_r with one scale per row (indicator
designs), a_t depends on one effect A_r, each path's product is one
polynomial per row, and its column of the coefficient matrix
[chat_d(y)] is the outer product of those.  Other designs walk the
exponent sets once, period by period, with sums compared by
``model.exact_key``, and expand each path along that walk.

This module counts the Q_t, builds D and the bound, expands the phi
polynomials and extracts the null space numerically, one column per
``sufficiency.class_key`` class: such paths have probability ratios
free of A, so their columns are one column times exp(P theta), and
classes beyond the rank give moments beyond conditioning.  Its
closed-form libraries (AR(2) T=3, quarterly T=6, network transition)
each compile units into a ``MomentTerms`` table of c * exp(a'theta)
terms; ``term_moments`` evaluates any table, and a library's moments
per unit, its table over all 2^T paths at one (y0, X) and the moments
GMM uses all come from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (NETWORK, TooLarge, _check_X, _check_y0, all_paths, check_theta, exact_key,
                    index_matrix, lag_features, path_index, path_profile, step_index)
from .sufficiency import class_key, row_classes

_VALUE_TOL = 1e-12


def _collapse(vals):
    vals = np.sort(np.asarray(vals, dtype=float))
    kept = [vals[0]]
    for v in vals[1:]:
        if v - kept[-1] > _VALUE_TOL:
            kept.append(v)
    return np.array(kept)


def index_value_tables(spec, y0, X, theta):
    """Per-period tables of achievable index values, sorted arrays.

    Every state that can feed a step is enumerated (outcomes before
    period 1 pinned to y0, later ones free) and passed through the
    index kernel; values that coincide numerically (theta coincidences
    such as gamma1 = gamma2) are collapsed at absolute tolerance 1e-12,
    matching the convention that Q_t counts distinct values, not
    distinct histories.
    """
    L0, w = spec.y0_len, spec.step_width
    y0, X = _check_y0(spec, y0), _check_X(spec, X)
    tables = []
    for step in range(spec.T // w):
        window = np.arange(step * w, step * w + L0)  # positions in (y0, y)
        free = window >= L0
        states = np.empty((2 ** int(free.sum()), L0), dtype=np.int64)
        states[:, ~free] = y0[window[~free]]
        states[:, free] = all_paths(int(free.sum()))
        x = None if X is None else X[:, step * w: (step + 1) * w]
        pi = step_index(spec, states, x, theta)
        tables += [_collapse(vals) for vals in pi.T]
    return tables


def qt_values(spec, y0, X, theta):
    """The counts Q_t of distinct index values across outcome histories."""
    return tuple(len(tab) for tab in index_value_tables(spec, y0, X, theta))


@dataclass
class DSet:
    """Count of the exponent vectors d = sum_t k_t w_t, 0 <= k_t <= Q_t."""

    caps: tuple
    cardinality: int


def _walk(cols, Q):
    """The exponent set D of exact design columns ``cols`` and caps Q, one
    period at a time: the sorted distinct sums d + k w_t, k = 0..Q_t, over
    the sums d before it, compared by ``exact_key``.  Returns (ds, steps),
    steps[t][i, k] the place of d_i + k w_t among the sums after period t,
    injective in i for a fixed k.  Sets that cannot fit desk-scale memory
    are refused with a size estimate."""
    size = math.prod(q + 1 for q in Q)
    if size > 1e8:
        raise TooLarge(f"exact enumeration would scan ~{size:.3g} combinations")
    ds, steps = np.zeros((1, len(cols)), dtype=cols.dtype), []
    for t, q in enumerate(Q):
        cand = (ds[:, None, :] + np.arange(q + 1)[:, None] * cols[:, t]).reshape(-1, len(cols))
        ds, trans = np.unique(exact_key(cand).astype(cols.dtype), axis=0, return_inverse=True)
        steps.append(trans.reshape(-1, q + 1))
        if len(ds) > 5_000_000:
            raise TooLarge(f"running element set exceeded 5e6 entries at period {t + 1}")
    return ds, steps


def _row_scales(cols):
    """Each row's scale c_r (0 on a row no period loads) when every exact
    design column is c_r e_r with one nonzero scale per row, else None."""
    distinct = np.unique(cols, axis=1)
    per_col, per_row = (np.count_nonzero(distinct, axis=a) for a in (0, 1))
    return distinct.sum(axis=1) if np.all(per_col == 1) and np.all(per_row <= 1) else None


def _count(cols, Q):
    """|D| for caps Q, and the ``_walk`` that counted it or None.  When
    ``_row_scales`` finds one scale per row, the rows of d vary freely and
    |D| = prod_r (rowcap_r + 1), rowcap_r summing the Q_t of row r."""
    if _row_scales(cols) is not None:
        return math.prod(int(c) + 1 for c in (cols != 0) @ np.array(Q)), None
    walk = _walk(cols, Q)
    return len(walk[0]), walk


def build_dset(spec, Q):
    """Count the exponent set D for caps Q = (Q_1..Q_T), by ``_count``."""
    Q = tuple(int(q) for q in Q)
    if len(Q) != spec.T:
        raise ValueError("need one cap per period")
    return DSet(Q, _count(exact_key(spec.W), Q)[0])


# -- phi polynomial expansion ----------------------------------------------


def _poly_cache(tables):
    """Coefficients of phi_t in a_t, one (Q_t, 2, Q_t + 1) array per
    period indexed by (q(history), y_t, power of a_t)."""
    cache = []
    for tab in tables:
        b, Q = np.exp(tab), len(tab)
        coef = np.zeros((Q, 2, Q + 1))
        for q in range(Q):
            for yt in (0, 1):
                poly = np.array([1.0]) if yt == 0 else np.array([0.0, b[q]])
                for qq in range(Q):
                    if qq != q:
                        poly = np.convolve(poly, np.array([1.0, b[qq]]))
                coef[q, yt, :poly.size] = poly
        cache.append(coef)
    return cache


def _table_places(spec, y0, X, theta):
    """The index-value tables, all paths and each path's place q_t in its
    period's table, (2^T, T): the entry nearest its index value pi_t."""
    tables, paths = index_value_tables(spec, y0, X, theta), all_paths(spec.T)
    pi = index_matrix(spec, paths, y0, X, theta)
    return tables, paths, np.column_stack([np.argmin(np.abs(p[:, None] - tab), axis=1)
                                           for tab, p in zip(tables, pi.T)])


def _expand(walk, polys, paths, q):
    """Expand prod_t phi_t(y, a_t) for every row y of ``paths`` at once,
    on any design (``_expand_rows`` takes indicator designs), along the
    ``_walk`` of its exponent sets.

    The state S holds one row per partial exponent sum_{s<=t} k_s w_s
    and one column per path; period t adds S * coef[:, k] into the rows
    d + k*w_t of the next state, coef the coefficients of phi_t at each
    path's table place q_t and outcome y_t.  Returns (C, ds) with C[i, j]
    the coefficient of exp(ds[i]'A) for path j; rows that are zero for
    every path are dropped.
    """
    ds, steps = walk
    S = np.ones((1, len(paths)))
    for t, trans in enumerate(steps):
        coef = polys[t][q[:, t], paths[:, t]]
        parent, S = S, np.zeros((trans.max() + 1, len(paths)))
        # descending k adds each entry's terms from the source
        # d - Q_t*w_t up to d, as a per-path expansion over ascending
        # exponents does, so both round alike
        for k in range(trans.shape[1] - 1, -1, -1):
            S[trans[:, k]] += parent * coef[:, k]
    keep = np.any(S != 0.0, axis=1)
    return S[keep], ds[keep]


def _expand_rows(cols, polys, paths, q):
    """``_expand`` for one scale c_r per row (``_row_scales``), by the module
    docstring's row polynomials (power k is the exponent k c_r): the box of
    the c_r * {0..rowcap_r} in lexicographic order, less C's zero rows."""
    n, C, axes = len(paths), np.ones((1, len(paths))), []
    for r, c in enumerate(_row_scales(cols)):
        f = np.ones((1, n))  # row r's polynomial, (power, path)
        for t in np.flatnonzero(cols[r]):
            coef = polys[t][q[:, t], paths[:, t]].T
            g = np.zeros((len(f) + len(coef) - 1, n))
            for k, ck in enumerate(coef):
                g[k: k + len(f)] += f * ck
            f = g
        step = -1 if c < 0 else 1  # exponents k c_r ascending
        C = (C[:, None] * f[::step]).reshape(-1, n)
        axes.append(np.arange(len(f))[::step] * c)
    ds = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    keep = C.any(axis=1)  # no C-sized temporary
    return (C, ds) if keep.all() else (C[keep], ds[keep])


def _coefficients(spec, tables, paths, q):
    """(C, ds) of ``coefficient_matrix`` on the given paths at their table
    places q, refused by the size of the matrix over all 2^T paths."""
    cols = exact_key(spec.W)
    D, walk = _count(cols, [len(tab) for tab in tables])
    if D * 2**spec.T > 2**27:
        raise TooLarge(f"the coefficient matrix would be |D| x 2^T = {D:,} x {2**spec.T:,}, "
                       f"{8 * D * 2**spec.T:,} bytes (limit 2^27 elements)")
    polys = _poly_cache(tables)
    return _expand_rows(cols, polys, paths, q) if walk is None else _expand(walk, polys, paths, q)


def coefficient_matrix(spec, y0, X, theta):
    """The |D| x 2^T matrix [chat_d(y)] over all outcome paths.

    Designs of one scale per row (``_row_scales``) are built row by row
    (``_expand_rows``), all others along one ``_walk`` (``_expand``).
    Returns (C, ds, tables): row i of C holds the coefficients of
    exp(ds[i]'A), ds is the |D| x d_w array of exponent vectors in
    lexicographic order, and tables are the per-period index-value tables.
    More than 2^27 elements are refused with ``TooLarge`` before any is built.
    """
    tables, paths, q = _table_places(spec, y0, X, theta)
    return (*_coefficients(spec, tables, paths, q), tables)


@dataclass
class MomentFunction:
    """A finite map from outcome paths to coefficients.

    ``values`` is aligned with the ``all_paths`` enumeration; the
    defining property is sum_y values[y] * Pr(Y=y|Y0,X,A) = 0 for every
    fixed effect A, at the (theta, X, Y0) the table was built for.
    """

    T: int
    values: np.ndarray

    def __call__(self, y):
        return float(self.values[path_index(np.asarray(y))])


@dataclass
class NullspaceReport:
    dimension: int
    moments: list
    rank: int
    singular_values: np.ndarray
    weak_separation: bool
    classes: int  # columns decomposed, one per conditioning class


def _path_classes(spec, paths, y0, X, g):
    """The ``class_key`` classes of ``paths``, members by descending weight,
    and each path's weight exp(g) over the largest of its class, g the log
    weight P theta (P the ``path_profile``)."""
    groups = row_classes(class_key(spec, paths, y0, X))
    w = np.exp(g - g[groups.by_weight(g).first][groups.cls])
    return groups.by_weight(w), w


def _null_space(B, groups, w):
    """Singular values, rank and orthonormal null-space basis (rows) of a
    matrix M with its rows max-normalized, from B, the column of each
    class's first member, when column j of each class of ``groups``
    (members by descending ``w``) is w_j / w_k times column k; built as
    ``nullspace_moments`` says."""
    (m, _), n = B.shape, groups.cls.size
    norm = np.sqrt(np.bincount(groups.cls, w * w, len(groups.sizes)))
    scale = np.abs(B).max(axis=1, keepdims=True)
    B = B / np.where(scale == 0, 1.0, scale) * (norm / w[groups.first])
    if B.shape[0] > B.shape[1]:
        B = np.linalg.qr(B, mode="r")
    _, s, Vt = np.linalg.svd(B)
    rank = int(np.sum(s > 1e-9 * s[0])) if s.size else 0
    Z = Vt[rank:] / norm  # B's null vectors, per unit weight of a class
    basis = np.zeros((n - rank, n))
    # mode="clip" writes straight into out; the default "raise" buffers
    np.take(Z, groups.cls, axis=1, out=basis[:len(Z)], mode="clip")
    basis[:len(Z)] *= w
    # the path at place k >= 1 of its class against the k heavier before
    # it, one row per such path, class by class; lt sums their w^2
    a, b = groups.pairs()
    lt, ww = np.bincount(b, w[a] ** 2, n), w * w
    at = groups.order[groups.rank[groups.order] > 0]
    row = np.zeros(n, dtype=np.intp)
    row[at] = np.arange(len(Z), n - rank)
    basis[row[at], at] = -np.sqrt(lt[at] / (lt[at] + ww[at]))
    basis[row[b], a] = w[a] * w[b] / np.sqrt(lt[b] * (lt[b] + ww[b]))
    return np.concatenate([s, np.zeros(min(m, n) - s.size)]), rank, basis


def nullspace_moments(spec, y0, X, theta):
    """Orthonormal basis of the fixed-effect-free moment space.

    The basis spans the null space of the coefficient matrix with its
    rows max-normalized, at the relative singular-value threshold 1e-9.
    One column v ||w|| per ``class_key`` class is built and decomposed,
    v the column of its heaviest path, w_j = exp(P_j theta) over that
    path's, P theta summing the y_t pi_t at the table places C is built
    on, via its QR factor when |D| > ``classes``.  The basis is the null
    vectors z spread as z w_j / ||w||, then weighted Helmert contrasts
    within each class from its heaviest path.  ``weak_separation`` flags
    a retained/discarded singular-value gap below 10x.
    """
    if 2**spec.T > 16384:
        raise TooLarge(f"an explicit null-space basis over 2^{spec.T} paths would "
                       f"need up to {8 * 4**spec.T:,} bytes (limit 2^T <= 16384)")
    tables, paths, q = _table_places(spec, y0, X, theta)
    g = sum(y * tab[qt] for y, qt, tab in zip(paths.T, q.T, tables))
    groups, w = _path_classes(spec, paths, y0, X, g)
    C, _ = _coefficients(spec, tables, paths[groups.first], q[groups.first])
    s, rank, basis = _null_space(C, groups, w)
    weak = bool(rank > 0 and rank < s.size and s[rank - 1] / max(s[rank], 1e-300) < 10.0)
    # each moment is a view of its row: the basis is allocated once
    moments = [MomentFunction(spec.T, row) for row in basis]
    return NullspaceReport(dimension=basis.shape[0], moments=moments, rank=rank,
                           singular_values=s, weak_separation=weak, classes=len(groups.sizes))


# The last probability matrix built, as (key, P).  The key holds the
# exact contents of every input, so a hit returns the matrix those
# inputs give and no caller can see another's inputs.
_LAST_PROBABILITIES = None
# Elements of one draw block's (draws x 2^T x T) temporaries.
_BLOCK_ELEMENTS = 1 << 20


def _contents_key(spec, y0, X, theta, A_rows):
    key = [spec.family, spec.T, spec.d_x, spec.sizes]
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
    key = _contents_key(spec, y0, X, theta, A_rows)
    last = _LAST_PROBABILITIES
    if last is not None and last[0] == key:
        return last[1]  # only checked grids are stored
    if not np.all(np.isfinite(A_rows)):
        raise ValueError("A must be finite")
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
    well-spread draws; P's columns share C's classes and weights.
    """
    P, paths = probability_matrix(spec, y0, X, theta, A_rows), all_paths(spec.T)
    g = path_profile(spec, paths, y0, X) @ check_theta(spec, theta)
    groups, w = _path_classes(spec, paths, y0, X, g)
    return _null_space(P[:, groups.first], groups, w)[2]


def verify_moment(m, spec, y0, X, theta, A_grid):
    """Exact max_A |sum_y m(y) Pr(y|Y0,X,A)| over a fixed-effect grid.

    All residuals come from one product P @ m with the (draws x 2^T)
    matrix of ``probability_matrix``, which is built once for a run of
    calls that verify many moments against one grid.
    """
    vec = m.values if isinstance(m, MomentFunction) else np.asarray(m, dtype=float)
    P = probability_matrix(spec, y0, X, theta, A_grid)
    return float(np.abs(P @ vec).max(initial=0.0))


# -- the closed-form moment libraries ----------------------------------------
# A library compiles units (Y, Y0, X) into one MomentTerms table.  The one
# evaluator ``term_moments`` sums each unit's terms at theta by a per-column
# bincount over the unit rows, in table order as np.add.at does; a constant
# term (a = 0) listed after its unit's exp term adds to it as in c*e + b.


@dataclass
class MomentTerms:
    """Moments as sums of exp-affine terms: term i adds
    coef[i, k] * exp(A[i] @ theta) to moment column k of unit cell[i]."""

    cell: np.ndarray   # (terms,) unit rows
    coef: np.ndarray   # (terms, k), instruments folded in
    A: np.ndarray      # (terms, dim theta) exponent rows


def term_moments(tab, n, theta):
    """The (n, k) moments at theta of the n units compiled into ``tab``."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != tab.A.shape[1:]:
        raise ValueError(f"theta has length {theta.size}, the moment terms take {tab.A.shape[1]}")
    v = tab.coef * np.exp(tab.A @ theta)[:, None]
    return np.column_stack([np.bincount(tab.cell, c, n) for c in v.T])


class _TermLibrary:
    """A library is its ``terms(Y, Y0, X)``; ``stacked`` evaluates them."""

    def stacked(self, Y, Y0, X, theta):
        return term_moments(self.terms(Y, Y0, X), len(Y), theta)


def _all_path_moments(ev, T, y0, X, theta):
    """The (k, 2^T) values of library ``ev`` on every path at one y0 and X."""
    Y0 = np.broadcast_to(np.asarray(y0), (2**T, np.size(y0)))
    X = None if X is None else np.broadcast_to(X, (2**T,) + np.shape(X))
    return np.ascontiguousarray(ev.stacked(all_paths(T), Y0, X, theta).T)


class Ar2T3Moments(_TermLibrary):
    """Stacked AR(2), T=3 closed-form moments, one slot per initial block.

    The printed cases are (0,0) and (0,1); the others follow from the
    outcome-flip symmetry Y -> 1-Y, A -> -A - gamma1 - gamma2, which
    maps the model onto itself.
    """

    k = 4  # column 2 y_{-1} + y_0
    # entries c * exp(a'(gamma1, gamma2)), rows: the printed cases by y_0,
    # columns: paths (0,1,1), (0,1,0), (1,0,0), (1,0,1) in all_paths order
    _coef = np.zeros((2, 8))
    _coef[:, [3, 2, 4, 5]] = [[1, 1, -1, -1], [-1, -1, 1, 1]]
    _expo = np.zeros((2, 8, 2))
    _expo[[0, 1, 1], [3, 4, 5]] = [[-1, 0], [-1, 1], [0, 1]]

    def terms(self, Y, Y0, X):
        Y, Y0 = np.asarray(Y, dtype=np.int64), np.asarray(Y0, dtype=np.int64)
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
    return MomentFunction(3, values[2 * y0[0] + y0[1]])


class QuarterlyT6Moments(_TermLibrary):
    """Stacked quarterly moments (m1, m2), evaluated per unit.

    m1 is the thirteen-case table of the quarterly T=6 model written as
    one exp-affine term plus a constant; m2 is m1 after the symmetry
    Y -> 1-Y, y0 -> 1-y0, X -> -X.  X holds per-unit covariates
    (n, d_x, 6), or is None; without X the covariate terms drop out and
    theta is (gamma,).

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

    def terms(self, Y, Y0, X):
        """Column 2i + j of the moments is m_j times the instrument z_i."""
        Y = np.asarray(Y, dtype=float)
        y0 = np.asarray(Y0, dtype=float).reshape(-1)
        d26 = d51 = np.zeros((len(y0), 0))
        if X is not None:
            X = np.asarray(X, dtype=float)
            d26, d51 = X[:, :, 1] - X[:, :, 5], X[:, :, 4] - X[:, :, 0]
        inst = range(self.d_x if self.instruments else 0)
        z = np.column_stack([np.ones(len(y0))] + [v[:, d] for d in inst for v in (d26, d51)])
        parts = [self._m1(Y, y0, d26, d51), self._m1(1.0 - Y, 1.0 - y0, -d26, -d51)]
        cell, coef, A = [], [], []
        for j, (c, a, b) in enumerate(parts):
            for cj, aj in ((c, a), (b, np.zeros_like(a))):
                u = np.flatnonzero(cj)
                cell, A = cell + [u], A + [aj[u]]
                coef.append(np.zeros((u.size, self.k)))
                coef[-1][:, j::2] = cj[u, None] * z[u]
        return MomentTerms(np.concatenate(cell), np.vstack(coef), np.vstack(A))


def closed_form_quarterly_T6(theta, y0, X):
    """The pair (m1, m2) of quarterly-effects moment functions at T=6,
    at initial outcome y0 and the d_x x 6 covariates X (or None)."""
    values = _all_path_moments(QuarterlyT6Moments(), 6, [int(y0)], X, theta)
    return tuple(MomentFunction(6, m) for m in values)


class NetworkT3Moments(_TermLibrary):
    """The tau = 3 dyadic network transition moment for reference y_ref.

    With pi_s(z) the period-s index fed by the network z,
    m_y = 1{Y2 = y} exp(sum (Y3 - y)(pi_2(Y1) - pi_3(y))
    - sum (Y1 - y)(pi_1(y0) - pi_3(y))) - 1{Y1 = y}, sums over dyads;
    the exponent row takes the same differences of the theta-gradient of
    pi: the ``lag_features``, then the covariates X (n, d_x, T) or None.
    """

    k = 1

    def __init__(self, spec, y_ref):
        if spec.family != NETWORK or spec.tau != 3:
            raise ValueError("network transition moments require tau = 3")
        self.spec, self.y_ref = spec, np.asarray(y_ref, dtype=np.int64)

    def terms(self, Y, Y0, X):
        spec, y, D = self.spec, self.y_ref, self.spec.n_dyads
        Y = np.asarray(Y, dtype=np.int64)
        Y1, Y2, Y3 = Y[:, :D], Y[:, D: 2 * D], Y[:, 2 * D:]
        x = [np.asarray(X, dtype=float).swapaxes(1, 2)] if spec.d_x else []  # (n, T, d_x)

        def grad(states, per):  # the theta-gradient of pi_per by dyad, (n, D, dim theta)
            F = np.broadcast_to(lag_features(spec, states), (len(Y), D, 2))
            return np.concatenate([F] + [v[:, (per - 1) * D: per * D] for v in x], axis=2)

        ref = grad(y, 3)
        a = (np.einsum("ud,udk->uk", Y3 - y, grad(Y1, 2) - ref)
             - np.einsum("ud,udk->uk", Y1 - y, grad(Y0, 1) - ref))
        u2, u1 = np.flatnonzero(np.all(Y2 == y, axis=1)), np.flatnonzero(np.all(Y1 == y, axis=1))
        return MomentTerms(np.concatenate([u2, u1]),
                           np.concatenate([np.ones(u2.size), -np.ones(u1.size)])[:, None],
                           np.vstack([a[u2], np.zeros((u1.size, a.shape[1]))]))


def closed_form_network_transition(spec, y_ref, theta, y0, X=None):
    """The transition moment for y_ref at y0 and the d_x x T covariates X."""
    values = _all_path_moments(NetworkT3Moments(spec, y_ref), spec.T, y0, X, theta)
    return MomentFunction(spec.T, values[0])
