"""Conditional maximum likelihood and GMM estimators.

A sample enters through its count table: ``_count_table`` groups the
unit records (Y0, Y, X) byte for byte into the distinct records, their
counts and each unit's record.  With continuous covariates every record
is distinct and the sample is used as it is.  ``gmm`` evaluates the
moments on the cells only and takes the mean, the two-step weight
matrix and the sandwich as count-weighted sums; the class CMLEs take
their rows from the same table.

Both CMLEs maximize one conditional logit, the sum over rows of
w * (G_own' theta - logsumexp(G theta)): G stacks the profiles of the
paths in a row's conditioning class, G_own is the observed path's and
w counts identical rows.  ``cmle`` fits static, AR and network specs
alike: one builder, ``_class_core``, gives it the classes, by
``sufficiency.class_key``, and their ``model.path_profile`` rows.  The
pairwise classes have two members, with profiles (X w_perp, 0).
``_CondLogit`` gives the value, analytic gradient and Hessian, and the
sandwich meat clustered by unit, in one pass over the classes laid out
by ``KeyClasses.segments``.  ``_fit`` moves the coordinates whose
profile column varies within some class, and reports the rest
(gamma_1 .. gamma_{p-1} of an AR(p), a covariate constant over time) as
not identified.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .model import (STATIC, TooLarge, all_paths, check_binary, check_theta, path_index,
                    path_profile)
from .moments import term_moments
from .sufficiency import class_key, key_classes, period_pattern, row_classes

_Run = namedtuple("_Run", "x fun nit nfev success message")  # one ``_minimize`` run


class NoInformationError(RuntimeError):
    """Raised when a sample carries no identifying variation."""


@dataclass
class Sample:
    """Cross-section of units sharing one ModelSpec.

    Y is (n, T) binary, Y0 is (n, L0) binary with L0 the spec's
    initial-condition length, X is (n, d_x, T) or None.
    """

    spec: object
    Y: np.ndarray
    Y0: np.ndarray
    X: np.ndarray | None = None

    def __post_init__(self):
        self.Y = check_binary("Y", self.Y)
        if self.Y.ndim != 2 or self.Y.shape[1] != self.spec.T:
            raise ValueError("Y must have spec.T columns")
        n, T = self.Y.shape
        self.Y0 = check_binary("Y0", self.Y0).reshape(n, self.spec.y0_len)
        if self.spec.d_x:
            self.X = np.asarray(self.X, float).reshape(n, self.spec.d_x, T)
        else:
            self.X = None

    @property
    def n(self):
        return self.Y.shape[0]


def _count_table(sample):
    """Distinct unit records, their counts and each unit's record.

    Returns (cells, counts, inverse) with ``cells`` a Sample of the
    distinct (Y0, Y, X) records and ``cells`` row ``inverse[i]`` equal
    to unit i.  Records are compared byte for byte by
    ``sufficiency.row_classes``, covariate-free ones by the
    ``path_index`` of their 0/1 bytes, which sorts alike.  When no
    record repeats (certain if the first covariate's bit patterns do
    not), ``cells`` is the sample itself and every count is one.  The
    GMM moments and the class CMLEs' rows are the cells.
    """
    n, YY = sample.n, np.hstack([sample.Y0, sample.Y])
    if sample.X is None and YY.shape[1] <= 62:
        records = key_classes(path_index(YY))
    elif sample.X is not None and np.unique(sample.X[:, 0, 0].view(np.uint64)).size == n:
        records = None
    else:
        records = row_classes(YY, *([] if sample.X is None else [sample.X]))
    if records is None or records.sizes.size == n:
        return sample, np.ones(n, dtype=np.int64), np.arange(n)
    first = records.first
    cells = Sample(spec=sample.spec, Y=sample.Y[first], Y0=sample.Y0[first],
                   X=None if sample.X is None else sample.X[first])
    return cells, records.sizes, records.cls


@dataclass
class EstimateReport:
    theta: np.ndarray
    names: list
    std_errors: np.ndarray
    objective: float
    converged: bool
    iterations: int
    diagnostics: dict = field(default_factory=dict)

    def as_dict(self):
        return {
            "theta": {k: float(v) for k, v in zip(self.names, self.theta)},
            "std_errors": {
                k: float(v) for k, v in zip(self.names, self.std_errors)
            },
            "objective": float(self.objective),
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
            "diagnostics": {
                k: (v.tolist() if isinstance(v, np.ndarray) else v)
                for k, v in self.diagnostics.items()
            },
        }


# -- the conditional-logit core ----------------------------------------------


class _CondLogit:
    """sum_rows w * (G_own' theta - logsumexp(G theta)) in one pass.

    The profiles G (R, d) hold the members of every row's class, class
    after class: row r's class starts at ``start[r]`` and its observed
    member is G[own[r]].  ``w`` weighs the rows; ``unit``, when one unit
    contributes several rows, names each row's unit (otherwise None,
    and every counted row is its own unit).  Class maxima and sums are
    taken over every segment at once.
    """

    def __init__(self, G, start, own, w=None, unit=None):
        self.G, self.own, self.unit, self.d, self.C = G, own, unit, G.shape[1], len(start)
        self.w = np.ones(self.C) if w is None else np.asarray(w, dtype=float)
        self.seg = np.repeat(np.arange(self.C), np.diff(start, append=len(G)))

    def _terms(self, theta):
        """Per-row log likelihood, member probabilities and profile
        deviations from the class mean."""
        seg, C = self.seg, self.C
        logits = self.G.dot(theta)  # G @ theta takes a slow loop at d = 1
        top = np.full(C, -np.inf)
        np.maximum.at(top, seg, logits)
        e = np.exp(logits - top[seg])
        total = np.bincount(seg, e, C)
        prob = e / total[seg]
        mean = np.column_stack([np.bincount(seg, g * prob, C) for g in self.G.T])
        return logits[self.own] - (top + np.log(total)), prob, self.G - mean[seg]

    def __call__(self, theta):
        """Value, gradient and Hessian at theta."""
        loglik, prob, dev = self._terms(theta)
        wdev = dev * (prob * self.w[self.seg])[:, None]
        return float(self.w @ loglik), self.w @ dev[self.own], -(wdev.T @ dev)

    def meat(self, theta):
        """Outer products of the unit scores at theta."""
        score = self._terms(theta)[2][self.own]
        if self.unit is None:
            return (score * self.w[:, None]).T @ score
        by_unit = np.zeros((self.unit.max() + 1, self.d))
        np.add.at(by_unit, self.unit, score * self.w[:, None])
        return by_unit.T @ by_unit


def _newton(objective, start, max_iter=200, counts=None):
    """Damped Newton ascent for concave objectives, until the largest
    gradient entry is below 1e-8.

    ``objective`` returns (value, gradient, hessian); steps are halved
    until the value does not decrease.  Returns (x, value, gradient,
    hessian, iterations, stop reason), the reason being ``converged``,
    ``max_iter`` or ``line_search_failed`` (50 halvings without an
    acceptable step).  ``counts``, if given, receives the objective
    evaluations ``n_evaluations`` and the step ``halvings``.
    """
    counts = {} if counts is None else counts
    counts.update(n_evaluations=1, halvings=0)
    x = np.asarray(start, dtype=float).copy()
    val, g, H = objective(x)
    it = 0
    for it in range(1, max_iter + 1):
        if np.max(np.abs(g)) < 1e-8:
            return x, val, g, H, it, "converged"
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            step = g.copy()
        lam = 1.0
        for _ in range(50):
            cand = x + lam * step
            v2, g2, H2 = objective(cand)
            counts["n_evaluations"] += 1
            if np.isfinite(v2) and v2 >= val - 1e-12:
                x, val, g, H = cand, v2, g2, H2
                break
            lam *= 0.5
            counts["halvings"] += 1
        else:
            return x, val, g, H, it, "line_search_failed"
    stop = "converged" if np.max(np.abs(g)) < 1e-8 else "max_iter"
    return x, val, g, H, it, stop


def _fit(core, spec, init, max_iter, diagnostics):
    """Newton ascent of ``core`` from ``init`` (zeros; checked before any
    evaluation) with sandwich standard errors, over the coordinates whose
    profile column varies within some class: the rest do not move the
    objective, are held, get NaN and are reported as ``not_identified``.
    NoInformationError when none varies, as when no class is occupied."""
    start = np.zeros(spec.theta_dim) if init is None else check_theta(spec, init)
    spread = np.abs(core.G - core.G[core.own][core.seg]).max(axis=0, initial=0)
    free = np.flatnonzero(spread > 1e-12 * max(1.0, np.abs(core.G).max(initial=0)))
    if not free.size:
        raise NoInformationError("no occupied conditioning class of several members "
                                 "varies in any profile column")
    block = np.ix_(free, free)

    def objective(x):
        theta = start.copy()
        theta[free] = x
        val, g, H = core(theta)
        return val, g[free], H[block]

    counts = {}
    x, val, g, H, it, stop = _newton(objective, start[free], max_iter, counts)
    theta = start.copy()
    theta[free] = x
    Hinv = np.linalg.pinv(-H)
    V = Hinv @ core.meat(theta)[block] @ Hinv
    ses = np.full(theta.size, np.nan)
    ses[free] = np.sqrt(np.maximum(np.diag(V), 0.0))
    return EstimateReport(
        theta=theta,
        names=spec.theta_names(),
        std_errors=ses,
        objective=val,
        converged=bool(stop == "converged" and np.isfinite(val)),
        iterations=it,
        diagnostics={**diagnostics, "not_identified": [name for j, name in enumerate(
            spec.theta_names()) if j not in free], "grad_norm": float(np.max(np.abs(g))),
                     "stop_reason": stop, **counts},
    )


# -- the classes of one key --------------------------------------------------


def _class_core(sample):
    """Core over the occupied classes of several members, one row per
    count-table cell weighted by its count; returns (core, n_informative).

    A row's class is the paths sharing its ``class_key``, which reads y0
    and X besides the path (neither for static specs), X only through its
    ``period_pattern``: cells sharing both share the partition of their
    2^T paths, keyed once, 2^16 path rows at a time (``TooLarge`` over
    2^24 rows).  Profiles are taken at each row's own y0 and X.
    """
    spec, T = sample.spec, sample.spec.T
    cells, counts, _ = _count_table(sample)
    X = None if spec.family == STATIC else cells.X
    group = row_classes(cells.Y0, *([] if X is None else [period_pattern(spec, X)]))
    if (rows := group.sizes.size * 2**T) > 2**24:
        raise TooLarge(f"path enumeration over 2^{T} = {2**T:,} paths x {group.sizes.size:,} "
                       f"conditioning cells = {rows:,} path rows (limit 2^24)")
    row, step, parts = group.cls * 2**T + path_index(cells.Y), max(1, 2**16 >> T), []
    for lo in range(0, group.sizes.size, step):
        rep = np.repeat(group.first[lo:lo + step], 2**T)
        classes = row_classes(rep, class_key(spec, np.tile(all_paths(T), (len(rep) >> T, 1)),
                                             cells.Y0[rep], None if X is None else X[rep]))
        at = np.flatnonzero((group.cls >= lo) & (group.cls < lo + step))
        at = at[classes.sizes[classes.cls[row[at] - lo * 2**T]] > 1]
        local = row[at] - lo * 2**T
        parts.append((at, classes.sizes[classes.cls[local]],
                      classes.segments(classes.cls[local])[0] % 2**T, classes.rank[local]))
    at, size, members, rank = map(np.concatenate, zip(*parts))
    start, owner = np.cumsum(size) - size, np.repeat(at, size)
    G = path_profile(spec, all_paths(T)[members], cells.Y0[owner],
                     None if cells.X is None else cells.X[owner])
    return _CondLogit(G.astype(float), start, start + rank, counts[at]), int(counts[at].sum())


def cmle(sample, init=None, max_iter=100):
    """Conditional MLE of a static, AR or network model over its
    ``class_key`` classes, the paths sharing the key at one initial
    condition and covariates; units whose class is a singleton carry no
    information and are skipped."""
    spec = sample.spec
    if spec.theta_dim == 0:
        raise ValueError("nothing to estimate without covariates")
    core, n_info = _class_core(sample)
    return _fit(core, spec, init, max_iter, {"n_informative": n_info, "n_units": sample.n})


cmle_static = cmle_dynamic_ar = cmle  # the former per-family names, still called


# -- pairwise classes of two -------------------------------------------------


def _pairwise_objective(sample, Wperp):
    """Core over the pairs, one row per unit and column w of Wperp whose
    outcomes on the support of w match the +pattern (event 1, profile
    X w) or its flip (event 0, profile 0); returns (core, vectors, z,
    units), ``vectors`` the columns of Wperp as a (T, k) matrix."""
    d_x, vectors = sample.spec.d_x, np.asarray(Wperp, dtype=np.int64).reshape(sample.spec.T, -1)
    V, z, units = [np.zeros((0, d_x))], [np.zeros(0)], [np.zeros(0, int)]
    for w in vectors.T:
        match = sample.Y[:, w != 0] == (w[w != 0] == 1)
        up = match.all(axis=1)
        hit = np.flatnonzero(up | (~match).all(axis=1))
        V.append(sample.X[hit] @ w.astype(float))
        z.append(up[hit].astype(float))
        units.append(hit)
    V, z, units = np.vstack(V), np.concatenate(z), np.concatenate(units)
    start = np.arange(0, 2 * len(z), 2)
    core = _CondLogit(np.stack([V, np.zeros_like(V)], axis=1).reshape(-1, d_x),
                      start, start + (z == 0), unit=units)
    return core, vectors, z, units


def cmle_pairwise(sample, Wperp, init=None, max_iter=100):
    """Pairwise conditional logit on the differenced covariates X w_perp.

    For each column w of Wperp, a unit contributes when its outcomes on
    the support of w match the +pattern (event 1) or the -pattern
    (event 0); the regressor is X w and the fills are the unit's own
    off-support outcomes.  Scores are clustered by unit.
    """
    spec = sample.spec
    if spec.d_x == 0:
        raise ValueError("nothing to estimate without covariates")
    core, vectors, z, units = _pairwise_objective(sample, Wperp)
    return _fit(core, spec, init, max_iter,
                {"n_rows": int(len(z)), "n_contributing_units": int(len(np.unique(units))),
                 "n_vectors": vectors.shape[1],
                 "periods_used": (np.flatnonzero(vectors.any(axis=1)) + 1).tolist()})


# -- GMM ---------------------------------------------------------------------


def _central_diff(fn, theta):
    theta = np.asarray(theta, dtype=float)
    steps = np.diag(1e-6 * (1.0 + np.abs(theta)))
    return np.stack([(fn(theta + h) - fn(theta - h)) / (2 * h[j])
                     for j, h in enumerate(steps)], axis=-1)


def _exact_moments(tab, weights):
    """gbar = K'exp(A theta) and its exact Jacobian K'(exp(A theta) * A)
    from a term table, the cell weights folded into K; and the curvature
    sum_k v_k Hessian(gbar_k) = A'(exp(A theta) * K v * A)."""
    coef = tab.coef * weights[tab.cell, None]
    const = ~tab.A.any(axis=1)  # terms with a = 0 add up once
    g0, K, A = coef[const].sum(axis=0), coef[~const], tab.A[~const]

    def moment_jac(theta):
        e = np.exp(A @ theta)
        return g0 + e @ K, K.T @ (e[:, None] * A)

    def curvature(theta, v):
        return A.T @ ((np.exp(A @ theta) * (K @ v))[:, None] * A)
    return moment_jac, curvature


def _minimize(moment_jac, Wmat, n, x, curvature=None):
    """Minimize n * gbar' W gbar from x: BFGS, then a Newton polish.

    BFGS's first trial step is min(1, 1.01 * 2 (f - f_prev) / slope), with
    f_prev = f + |grad| / 2 at the start (Nocedal and Wright 2006, sec.
    3.5): scale-free, it lets a restart leave its basin.  Trials backtrack
    by quadratic interpolation to the Armijo condition, the inverse Hessian
    updates only where s'y > 0, and BFGS stops when no gradient entry
    exceeds 1e-9 n, after 500 steps, or when no trial can lower f beyond
    rounding.  Newton steps -H^+ G'W gbar then converge once no entry
    exceeds 1e-10 (1 + |theta|), whatever n, and stop unconverged when one
    raises f beyond rounding or is over 0.9 times the last.  H is the
    Hessian G'WG + ``curvature(theta, W gbar)`` where it is positive
    definite, so that a minimum with large residuals converges too, and
    the Gauss-Newton G'WG elsewhere or without ``curvature``.
    """
    def obj(theta):
        with np.errstate(over="ignore", invalid="ignore"):  # a far trial gives inf and is refused
            g, G = moment_jac(theta)
            Wg = n * Wmat @ g
            return float(g @ Wg), 2.0 * G.T @ Wg, g, G

    (f, grad, g, G), H, nfev, it, last = obj(x), np.eye(x.size), 1, 0, np.inf
    f_prev = f + np.linalg.norm(grad) / 2
    while np.max(np.abs(grad), initial=0) > 1e-9 * n and it < 500:
        slope = grad @ (p := -H @ grad)
        alpha = min(1.0, 2.02 * (f - f_prev) / slope) if slope < 0 and f < f_prev else 1.0
        while f + 1e-4 * alpha * slope < f:  # else the decrease is below rounding
            new, nfev = obj(x + alpha * p), nfev + 1
            if new[0] <= f + 1e-4 * alpha * slope:
                break
            # to the minimum of the parabola through f, slope and new[0]
            alpha *= min(0.5, max(0.1, slope * alpha / (2 * (f + slope * alpha - new[0]))))
        else:
            break
        s, y = alpha * p, new[1] - grad
        x, f_prev, it, (f, grad, g, G) = x + s, f, it + 1, new
        if s @ y > 0:
            V = np.eye(x.size) - np.outer(s, y) / (s @ y)
            H = V @ H @ V.T + np.outer(s, s) / (s @ y)
    message = ("BFGS: gradient below 1e-9 n" if np.max(np.abs(grad), initial=0) <= 1e-9 * n
               else f"BFGS: {'500 iterations' if it == 500 else 'line search found no decrease'}")
    for _ in range(20):
        H = G.T @ Wmat @ G
        if curvature is not None:
            full = H + curvature(x, Wmat @ g)
            H = full if np.linalg.eigvalsh(full)[0] > 0 else H
        step = -np.linalg.pinv(H) @ (G.T @ Wmat @ g)
        if (size := np.max(np.abs(step), initial=0)) <= 1e-10 * (1 + np.max(np.abs(x))):
            return _Run(x, f, it, nfev, True, f"{message}; Newton step below 1e-10")
        new, nfev = obj(x + step), nfev + 1
        if not new[0] <= f * (1 + 1e-12) or size > 0.9 * last:
            break
        x, it, last, (f, grad, g, G) = x + step, it + 1, size, new
    return _Run(x, f, it, nfev, False, f"{message}; Newton steps did not settle")


def gmm(sample, moments, init, weighting="two-step"):
    """GMM on stacked fixed-effect-free moment evaluators.

    Minimizes n gbar' W gbar from ``init`` and two perturbed restarts by
    ``_minimize``, keeping the lowest; ``two-step`` re-minimizes with the
    inverse sample covariance of the moments plus a 1e-10 ridge.
    Moments are evaluated once per cell of the sample's count table.
    A library with ``terms`` compiles the cells into a term table once
    per call; gbar and its exact Jacobian G come from one exp(A theta),
    so each evaluation returns the value and the gradient
    2n G'W gbar together, and the covariance evaluates the same table.
    For an evaluator that only has ``stacked``, G comes from central
    differences.  G enters the sandwich and the rank reported as an
    identification diagnostic.
    """
    if weighting not in ("identity", "two-step"):
        raise ValueError("weighting must be 'identity' or 'two-step'")
    spec = sample.spec
    init = np.asarray(init, dtype=float)
    if init.shape != (spec.theta_dim,):
        raise ValueError(f"init has length {init.size}, theta has {spec.theta_dim}")
    cells, counts, _ = _count_table(sample)
    k = moments.k
    weights = counts / counts.sum()

    exact = hasattr(moments, "terms")
    if exact:
        tab = moments.terms(cells.Y, cells.Y0, cells.X)
        (moment_jac, curvature), stacked = (_exact_moments(tab, weights),
                                            partial(term_moments, tab, cells.n))
    else:
        stacked, curvature = partial(moments.stacked, cells.Y, cells.Y0, cells.X), None

        def moment_jac(theta):
            return weights @ stacked(theta), _central_diff(lambda t: weights @ stacked(t), theta)

    def cov(theta):
        return np.cov(stacked(theta).T, fweights=counts, bias=True).reshape(k, k)

    def solve(Wmat, start):
        rng = np.random.default_rng(12345)
        starts = [start] + [start + rng.normal(scale=0.25, size=start.shape) for _ in range(2)]
        runs = [_minimize(moment_jac, Wmat, sample.n, x0, curvature) for x0 in starts]
        stages.append(runs)
        return min(runs, key=lambda r: r.fun)

    stages = []  # the runs of each stage
    Wmat = np.eye(k)
    res = solve(Wmat, init)
    flagged_singular = False
    if weighting == "two-step":
        S_r = cov(res.x) + 1e-10 * np.eye(k)
        try:
            Wmat = np.linalg.inv(S_r)
        except np.linalg.LinAlgError:
            flagged_singular = True
            Wmat = np.linalg.pinv(S_r)
        res = solve(Wmat, res.x)

    theta = res.x
    S = cov(theta)
    G = moment_jac(theta)[1]
    sv = np.linalg.svd(G, compute_uv=False) if G.size else np.zeros(0)
    rank = int(np.sum(sv > 1e-8 * max(sv[0], 1e-300))) if sv.size else 0
    bread = np.linalg.pinv(G.T @ Wmat @ G)
    V = bread @ G.T @ Wmat @ S @ Wmat @ G @ bread / sample.n
    ses = np.sqrt(np.maximum(np.diag(V), 0.0))
    return EstimateReport(
        theta=theta,
        names=spec.theta_names(),
        std_errors=ses,
        objective=float(res.fun),
        converged=bool(res.success),
        iterations=int(res.nit),
        diagnostics={
            "jacobian_rank": rank,
            "identified": bool(rank >= theta.size),
            "n_moments": k,
            "n_cells": cells.n,
            "weighting": weighting,
            "singular_weighting": flagged_singular,
            "jacobian": "exact" if exact else "central_difference",
            "n_evaluations": sum(r.nfev for runs in stages for r in runs),
            "restart_objectives": [[float(r.fun) for r in rs] for rs in stages],
            "message": res.message,
        },
    )
