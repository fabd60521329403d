"""Fixed-effect designs and the search for differencing vectors.

A differencing vector w_perp in {-1,0,1}^T with W w_perp = 0 is the
difference of two binary outcome paths sharing the sufficient statistic
W Y; every such vector yields an identifying outcome pair for the
static logit model.  This module holds the design catalogue, enumerates
differencing vectors by an exhaustive frontier search with
branch-and-bound pruning, and provides the rank diagnostic that turns a
set of vectors into an identification check for the covariate
coefficients.

The catalogue ``DESIGNS`` maps each design name to its spec builder and
the sizes it takes; ``build_design`` is the one way from a name to a
ModelSpec:

* static: ``panel_fe`` (T), ``poly_trend`` (p, T), ``overlapping``,
  ``two_way`` (n, tau), ``dyadic`` (n), ``triadic`` (n1, n2, n3);
* dynamic: ``ar`` (p, T), ``quarterly`` (p, T), ``trend-ar`` (T) and
  ``network`` (n, tau);
* aliases: ``panel``, ``poly`` and ``twoway``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (AR, STATIC, ModelSpec, checked_int, exact_key, incidence,
                    network_design)


def panel_fe_matrix(T):
    return np.ones((1, T))


def poly_trend_matrix(p, T):
    """Rows (t^0, t^1, ..., t^p) evaluated at t = 1..T."""
    t = np.arange(1, T + 1, dtype=float)
    return np.vstack([t**j for j in range(p + 1)])


def overlapping_matrix():
    return np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])


def two_way_matrix(n, tau):
    """Unit and time indicators; observations unit-major, t = (i, tau)."""
    t = np.arange(n * tau)
    return incidence([t // tau, n + t % tau], n + tau)


def dyadic_matrix(n):
    """Unit-selection columns w_ij over lexicographic dyads i < j."""
    return incidence(np.triu_indices(n, 1), n)


def triadic_matrix(n1, n2, n3):
    """Pairwise-effect rows A_ij, B_jk, C_ik over lexicographic triads."""
    i, j, k = np.indices((n1, n2, n3)).reshape(3, -1)
    ab = n1 * n2 + n2 * n3
    return incidence([i * n2 + j, n1 * n2 + j * n3 + k, ab + i * n3 + k],
                     ab + n1 * n3)


def panel_ar(p, T, d_x=0):
    """AR(p) panel model with a scalar fixed effect (w_t = 1)."""
    return ModelSpec(AR, T, np.ones((1, T)), d_x=d_x, p=p)


def quarterly_ar(p, T, d_x=0):
    """AR(p) with quarter-specific effects; period t falls in quarter
    ((t-1) mod 4) + 1."""
    return ModelSpec(AR, T, incidence(np.arange(T) % 4, 4), d_x=d_x, p=p)


def trend_ar(T, d_x=0):
    """AR(1) with heterogeneous linear trend, w_t = (1, t)'."""
    return ModelSpec(AR, T, poly_trend_matrix(1, T), d_x=d_x, p=1)


def _static(matrix):
    """Spec builder of the static design whose W is matrix(**sizes)."""
    def build(d_x, **sizes):
        W = matrix(**sizes)
        return ModelSpec(STATIC, W.shape[1], W, d_x=d_x)
    return build


DESIGNS = {  # name: (spec builder, least value of each size it takes)
    "panel_fe": (_static(panel_fe_matrix), {"T": 1}),
    "poly_trend": (_static(poly_trend_matrix), {"p": 0, "T": 1}),
    "overlapping": (_static(overlapping_matrix), {}),
    "two_way": (_static(two_way_matrix), {"n": 2, "tau": 2}),
    "dyadic": (_static(dyadic_matrix), {"n": 2}),
    "triadic": (_static(triadic_matrix), {"n1": 1, "n2": 1, "n3": 1}),
    "ar": (panel_ar, {"p": 1, "T": 1}),
    "quarterly": (quarterly_ar, {"p": 1, "T": 1}),
    "trend-ar": (trend_ar, {"T": 1}),
    "network": (network_design, {"n": 2, "tau": 1}),
}
DESIGNS.update(panel=DESIGNS["panel_fe"], poly=DESIGNS["poly_trend"],
               twoway=DESIGNS["two_way"])


def build_design(name, d_x=1, **params):
    """The ModelSpec of design ``name`` with d_x covariates and the sizes
    ``DESIGNS`` lists for it; a bad name or size raises ValueError."""
    if name not in DESIGNS:
        raise ValueError(f"unknown design {name!r}; known: {', '.join(DESIGNS)}")
    build, least = DESIGNS[name]
    extra = sorted(params.keys() - least.keys())
    if extra:
        raise ValueError(f"{name} design takes no parameter {extra[0]!r}")
    return build(d_x=checked_int(f"{name} design d_x", d_x, 0), **{
        key: checked_int(f"{name} design parameter {key}", params.get(key), lo)
        for key, lo in least.items()})


# -- differencing-vector search -------------------------------------------


# States held by one frontier chunk; bounds the search's working memory.
_FRONTIER_CHUNK = 1 << 16
_STEPS = np.array([-1, 0, 1], dtype=np.int8)


def find_wperp(W, max_solutions=None, require_nonzero=True):
    """All w in {-1,0,1}^T with W w = 0, up to global sign.

    Exhaustive level-synchronous search over the 3^T assignments.  A
    frontier of partial assignments holds, per state, the partial sums
    W v (states x d) and the prefix v (states x T); each level extends
    every state by -1, 0 and +1 at once and drops the states in which
    some row's partial sum exceeds what the remaining positions can
    still cancel.  Positions are visited in decreasing order of their
    largest design entry, which makes the bound bite early on
    polynomial-trend rows.  The first nonzero entry in search order is
    pinned to +1, which fixes the global sign once and halves the tree.
    Integer designs are searched exactly; others with a tolerance.

    The frontier is kept as a stack of chunks of at most 2^16 states,
    expanded depth first with the lexicographically least chunk on
    top, so memory stays bounded and solutions arrive in the order of a
    depth-first search.  ``max_solutions`` stops the search once that
    many have been found and returns the first ones in that order.

    Returns canonical vectors (first nonzero entry +1) sorted
    lexicographically with -1 < 0 < 1.
    """
    W = np.atleast_2d(W)
    d, T = W.shape
    if T > 40:
        raise ValueError("exhaustive search limited to T <= 40")
    Wx = exact_key(W)
    exact = Wx.dtype.kind == "i"
    Wx = Wx if exact else np.asarray(W, dtype=float)  # tolerance path: raw W
    order = np.argsort(-np.abs(Wx).max(axis=0), kind="stable")
    cols = np.ascontiguousarray(Wx[:, order].T)
    suffix = np.zeros((T + 1, d), dtype=cols.dtype)
    suffix[:T] = np.cumsum(np.abs(cols[::-1]), axis=0)[::-1]
    tol = 0 if exact else 1e-9 * (1 + np.abs(Wx).sum())
    limit = np.inf if max_solutions is None else max(int(max_solutions), 0)

    found, n_found = [np.zeros((0, T), dtype=np.int8)], 0
    stack = [(0, np.zeros((1, d), dtype=cols.dtype),
              np.zeros((1, T), dtype=np.int8), np.zeros(1, dtype=bool))]
    while stack and n_found < limit:
        i, S, V, nz = stack.pop()
        if i == T:
            hits = V[nz] if require_nonzero else V
            found.append(hits)
            n_found += len(hits)
            continue
        # children in lexicographic order: state-major, then -1, 0, +1;
        # -1 only after a nonzero entry
        step = np.tile(_STEPS, len(S))
        nz = np.repeat(nz, 3)
        S = np.repeat(S, 3, axis=0) + step[:, None] * cols[i]
        keep = (nz | (step >= 0)) & np.all(np.abs(S) <= suffix[i + 1] + tol, axis=1)
        step = step[keep]
        S, nz = S[keep], nz[keep] | (step != 0)
        V = np.repeat(V, 3, axis=0)[keep]
        V[:, i] = step
        top = (len(S) - 1) // _FRONTIER_CHUNK * _FRONTIER_CHUNK
        for lo in range(top, -1, -_FRONTIER_CHUNK):
            hi = lo + _FRONTIER_CHUNK
            stack.append((i + 1, S[lo:hi], V[lo:hi], nz[lo:hi]))

    sols = np.concatenate(found)[: int(min(limit, n_found))]
    out = np.zeros(sols.shape, dtype=np.int64)
    out[:, order] = sols
    lead = out[np.arange(len(out)), np.argmax(out != 0, axis=1)]
    out *= np.where(lead < 0, -1, 1)[:, None]
    return list(out[np.lexsort(out.T[::-1])])


def minimal_T_polytrend(p, allow_long_run=False):
    """Smallest T admitting a differencing vector for the degree-p trend.

    Returns (T, w) with w the lexicographically least canonical
    solution.  Minimality is certified by exhausting the search tree at
    every shorter horizon; the search stops at T = 40.  p = 6 scans up
    to T = 31 and is gated behind ``allow_long_run``.
    """
    if p > 6:
        raise ValueError("polynomial trends supported up to p = 6")
    if p == 6 and not allow_long_run:
        raise ValueError("p = 6 is a long run; pass allow_long_run=True")
    for T in range(p + 2, 41):
        sols = find_wperp(poly_trend_matrix(p, T))
        if sols:
            return T, sols[0]
    raise RuntimeError("no solution up to T = 40")


def pair_from_wperp(wperp, fill=None):
    """Outcome pair (y1, y2) with y1 - y2 = wperp.

    Positions where wperp is zero receive the shared ``fill`` values
    (zeros by default).
    """
    wperp = np.asarray(wperp, dtype=np.int64)
    if not np.all(np.isin(wperp, (-1, 0, 1))):
        raise ValueError("wperp entries must lie in {-1,0,1}")
    zeros = np.flatnonzero(wperp == 0)
    if fill is None:
        fill = np.zeros(len(zeros), dtype=np.int8)
    fill = np.asarray(fill, dtype=np.int8)
    if fill.shape != (len(zeros),):
        raise ValueError(f"fill must cover the {len(zeros)} zero positions")
    y1 = (wperp == 1).astype(np.int8)
    y2 = (wperp == -1).astype(np.int8)
    y1[zeros] = fill
    y2[zeros] = fill
    return y1, y2


@dataclass
class RankDiagnostic:
    min_eigenvalue: float
    max_eigenvalue: float
    passed: bool


def rank_condition(X_samples, Wperp, tol=1e-8):
    """Check that X W_perp varies enough to identify every beta direction.

    Builds the sample second-moment matrix sum_c E[X w_c w_c' X'] over
    the columns of Wperp and passes when its smallest eigenvalue
    exceeds ``tol`` times the largest.
    """
    if len(X_samples) == 0:
        raise ValueError("need at least one covariate sample")
    Wperp = np.asarray(Wperp, dtype=float)
    if Wperp.ndim == 1:
        Wperp = Wperp[:, None]
    d_x = np.atleast_2d(X_samples[0]).shape[0]
    M = np.zeros((d_x, d_x))
    for X in X_samples:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        V = X @ Wperp  # d_x x d_perp
        M += V @ V.T
    M /= len(X_samples)
    eig = np.linalg.eigvalsh(M)
    lo, hi = float(eig[0]), float(eig[-1])
    return RankDiagnostic(lo, hi, bool(hi > 0 and lo > tol * hi))
