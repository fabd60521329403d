"""Conditional maximum likelihood and GMM estimators.

A sample enters through its count table: ``_count_table`` reduces it,
with one ``np.unique`` over the unit records (Y0, Y, X), to the distinct
records, their counts and each unit's record.  It applies whenever
records repeat, as in covariate-free samples; with continuous
covariates every record is distinct and the sample is used as it is.
``gmm`` evaluates the moments on the cells only and takes the mean, the
two-step weight matrix and the sandwich as count-weighted sums; the
dynamic CMLE builds its classes from the same table.

The three CMLEs maximize one conditional logit, the sum over rows of
w * (G_own' theta - logsumexp(G theta)): G stacks the profiles of the
paths in a row's conditioning class, G_own is the observed path's and
w counts identical rows.  The profiles are X_u P' over the static
classes S(W y), (X w_perp, 0) over the pairwise classes of two, and
the transition statistics over the dynamic AR classes (for p >= 2 only
the last lag coefficient moves the objective).  Every class comes from
``sufficiency.key_classes`` on its key.  ``_CondLogit`` holds
one block per class size and gives the value, its analytic gradient
and Hessian, and the sandwich meat with scores clustered by unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .model import AR, STATIC, all_paths, exact_key, path_index
from .sufficiency import (_canonical_spec, arp_statistic_key, key_classes,
                          transition_stats)


class NoInformationError(RuntimeError):
    """Raised when a sample carries no identifying variation."""


def _check_binary(name, values):
    values = np.asarray(values)
    bad = values[(values != 0) & (values != 1)]
    if bad.size:
        raise ValueError(f"{name} must be binary (0/1), found {bad[0].item()!r}")
    return values.astype(np.int8)


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
        self.Y = _check_binary("Y", self.Y)
        if self.Y.ndim != 2 or self.Y.shape[1] != self.spec.T:
            raise ValueError("Y must have spec.T columns")
        n, T = self.Y.shape
        self.Y0 = _check_binary("Y0", self.Y0).reshape(n, self.spec.y0_len)
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
    to unit i.  Records are compared byte for byte.  When no record
    repeats, ``cells`` is the sample itself and every count is one.
    """
    n = sample.n
    parts = [sample.Y0, sample.Y] + ([] if sample.X is None else [sample.X])
    rec = np.concatenate(
        [np.ascontiguousarray(a).reshape(n, -1).view(np.uint8) for a in parts],
        axis=1,
    )
    keys = np.ascontiguousarray(rec).view(np.dtype((np.void, rec.shape[1])))
    _, first, inverse, counts = np.unique(
        keys.ravel(), return_index=True, return_inverse=True,
        return_counts=True,
    )
    if first.size == n:
        return sample, np.ones(n, dtype=np.int64), np.arange(n)
    cells = Sample(spec=sample.spec, Y=sample.Y[first], Y0=sample.Y0[first],
                   X=None if sample.X is None else sample.X[first])
    return cells, counts, inverse


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


def _block_terms(G, own, theta):
    """Per-row log likelihood, class probabilities, profile deviations
    from the class mean and score of one block."""
    logits = G @ theta
    top = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - top)
    total = e.sum(axis=1, keepdims=True)
    prob = e / total
    rows = np.arange(len(own))
    loglik = logits[rows, own] - (top + np.log(total))[:, 0]
    dev = G - np.einsum("umd,um->ud", G, prob)[:, None, :]
    return loglik, prob, dev, dev[rows, own]


class _CondLogit:
    """sum_rows w * (G_own' theta - logsumexp(G theta)) over blocks.

    A block stacks the rows whose classes have the same size m: profiles
    G (u, m, d), the observed member ``own`` (u,), the row weights ``w``
    (u,) and, when one unit contributes several rows, each row's
    ``unit`` (otherwise None, and every counted row is its own unit).
    """

    def __init__(self, d):
        self.d = d
        self.blocks = []

    def add(self, G, own, w=None, unit=None):
        w = np.ones(len(own)) if w is None else np.asarray(w, dtype=float)
        self.blocks.append((G, own, w, unit))

    def __call__(self, theta):
        """Value, gradient and Hessian at theta."""
        d = self.d
        val, g, H = 0.0, np.zeros(d), np.zeros((d, d))
        for G, own, w, _ in self.blocks:
            loglik, prob, dev, score = _block_terms(G, own, theta)
            val += float(w @ loglik)
            g += w @ score
            wdev = dev * (prob * w[:, None])[:, :, None]
            H -= wdev.reshape(-1, d).T @ dev.reshape(-1, d)
        return val, g, H

    def meat(self, theta):
        """Outer products of the unit scores at theta."""
        S = np.zeros((self.d, self.d))
        units, scores = [], []
        for G, own, w, unit in self.blocks:
            score = _block_terms(G, own, theta)[3]
            if unit is None:
                S += (score * w[:, None]).T @ score
            else:
                units.append(unit)
                scores.append(score * w[:, None])
        if units:
            units = np.concatenate(units)
            by_unit = np.zeros((units.max() + 1, self.d))
            np.add.at(by_unit, units, np.concatenate(scores))
            S += by_unit.T @ by_unit
        return S


def _newton(objective, start, max_iter=200):
    """Damped Newton ascent for concave objectives, until the largest
    gradient entry is below 1e-8.

    ``objective`` returns (value, gradient, hessian); steps are halved
    until the value does not decrease.  Returns (x, value, gradient,
    hessian, iterations, stop reason), the reason being ``converged``,
    ``max_iter`` or ``line_search_failed`` (50 halvings without an
    acceptable step).
    """
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
            if np.isfinite(v2) and v2 >= val - 1e-12:
                x, val, g, H = cand, v2, g2, H2
                break
            lam *= 0.5
        else:
            return x, val, g, H, it, "line_search_failed"
    stop = "converged" if np.max(np.abs(g)) < 1e-8 else "max_iter"
    return x, val, g, H, it, stop


def _fit(core, spec, init, max_iter, diagnostics, free=None):
    """Newton ascent of ``core`` from ``init`` (zeros if None) over the
    coordinates ``free`` (all by default), the others held, with
    sandwich standard errors; held coordinates get NaN."""
    start = np.zeros(core.d) if init is None else np.asarray(init, float)
    free = np.arange(start.size) if free is None else np.asarray(free)
    block = np.ix_(free, free)

    def objective(x):
        theta = start.copy()
        theta[free] = x
        val, g, H = core(theta)
        return val, g[free], H[block]

    x, val, g, H, it, stop = _newton(objective, start[free], max_iter=max_iter)
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
        diagnostics={**diagnostics, "grad_norm": float(np.max(np.abs(g))),
                     "stop_reason": stop},
    )


# -- static classes S(W y) ---------------------------------------------------


def _static_objective(sample):
    """Core over the static classes; returns (core, n_informative)."""
    spec = sample.spec
    paths = all_paths(spec.T)
    classes = key_classes(exact_key(paths @ spec.W.T))
    unit_path = path_index(sample.Y)
    unit_cls = classes.cls[unit_path]
    unit_size = classes.sizes[unit_cls]
    core = _CondLogit(spec.d_x)
    for m in np.unique(unit_size[unit_size > 1]):
        units = np.flatnonzero(unit_size == m)
        members = classes.members(unit_cls[units], m)
        G = np.einsum("udt,umt->umd", sample.X[units], paths[members])
        core.add(G, classes.rank[unit_path[units]])
    return core, int(np.sum(unit_size > 1))


def cmle_static(sample, init=None, max_iter=100):
    """Conditional MLE of beta over the classes S(W y).

    Units whose class is a singleton carry no information and are
    skipped; a sample with no informative unit raises
    NoInformationError.
    """
    spec = sample.spec
    if spec.family != STATIC:
        raise ValueError("cmle_static requires a static spec")
    if spec.d_x == 0:
        raise ValueError("nothing to estimate without covariates")
    core, n_info = _static_objective(sample)
    if n_info == 0:
        raise NoInformationError("every conditioning class is a singleton")
    _, _, H0 = core(np.zeros(spec.d_x) if init is None else init)
    xscale = float(np.max(np.abs(sample.X))) if sample.X is not None else 1.0
    if np.max(np.abs(H0)) <= 1e-12 * n_info * max(1.0, xscale) ** 2:
        raise NoInformationError(
            "differenced covariates vanish on every conditioning class"
        )
    return _fit(core, spec, init, max_iter,
                {"n_informative": n_info, "n_units": sample.n})


# -- pairwise classes of two -------------------------------------------------


def _pairwise_objective(sample, Wperp):
    """Core over the pairs, one row per unit and column w of Wperp whose
    outcomes on the support of w match the +pattern (event 1, profile
    X w) or its flip (event 0, profile 0); returns (core, V, z, units)."""
    d_x = sample.spec.d_x
    V, z, units = [np.zeros((0, d_x))], [np.zeros(0)], [np.zeros(0, int)]
    for w in np.asarray(Wperp, dtype=np.int64).reshape(sample.spec.T, -1).T:
        match = sample.Y[:, w != 0] == (w[w != 0] == 1)
        up = match.all(axis=1)
        hit = np.flatnonzero(up | (~match).all(axis=1))
        V.append(sample.X[hit] @ w.astype(float))
        z.append(up[hit].astype(float))
        units.append(hit)
    V, z, units = np.vstack(V), np.concatenate(z), np.concatenate(units)
    core = _CondLogit(d_x)
    if len(z):
        core.add(np.stack([V, np.zeros_like(V)], axis=1),
                 (z == 0).astype(np.int64), unit=units)
    return core, V, z, units


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
    core, _, z, units = _pairwise_objective(sample, Wperp)
    if len(z) == 0:
        raise NoInformationError("no unit lands in any conditioning pair")
    return _fit(core, spec, init, max_iter,
                {"n_rows": int(len(z)),
                 "n_contributing_units": int(len(np.unique(units)))})


# -- dynamic AR sufficiency classes ------------------------------------------


def _dynamic_core(sample):
    """Core over the occupied multi-member sufficiency classes, one row
    per (y0, y) cell of the count table weighted by its count; profiles
    are the transition statistics of every path in the class.  Returns
    (core, n_informative)."""
    spec = sample.spec
    work = _canonical_spec(spec)
    cells, counts, _ = _count_table(sample)
    paths = all_paths(spec.T)
    cell_path = path_index(cells.Y)
    rows = {}  # class size -> lists of profiles, observed members, counts
    n_info = 0
    for y0 in np.unique(cells.Y0, axis=0):
        classes = key_classes(arp_statistic_key(work, paths, y0))
        stats = transition_stats(spec, paths, y0).astype(float)
        at_y0 = np.flatnonzero(np.all(cells.Y0 == y0, axis=1))
        cls = classes.cls[cell_path[at_y0]]
        size = classes.sizes[cls]
        for m in np.unique(size[size > 1]):
            at = size == m
            G, own, w = rows.setdefault(m, ([], [], []))
            G.append(stats[classes.members(cls[at], m)])
            own.append(classes.rank[cell_path[at_y0[at]]])
            w.append(counts[at_y0[at]])
        n_info += int(counts[at_y0[size > 1]].sum())
    core = _CondLogit(spec.p)
    for G, own, w in rows.values():
        core.add(np.concatenate(G), np.concatenate(own), np.concatenate(w))
    return core, n_info


def cmle_dynamic_ar(sample, init=None, max_iter=100):
    """Conditional MLE of the AR coefficients over sufficiency classes.

    Paths are grouped by initial condition and the exact condition
    statistics; the within-class likelihood depends on gamma_p alone
    for p >= 2, so earlier lags are reported as not identified by this
    method and held at their initial values.
    """
    spec = sample.spec
    if spec.family != AR:
        raise ValueError("cmle_dynamic_ar requires an AR spec")
    if spec.d_x:
        raise ValueError("dynamic CMLE is covariate-free; use moments + GMM")
    core, n_info = _dynamic_core(sample)
    if n_info == 0:
        raise NoInformationError(
            "no conditioning class with multiple members is occupied"
        )
    p = spec.p
    return _fit(core, spec, init, max_iter,
                {"n_informative": n_info, "n_units": sample.n,
                 "not_identified": spec.theta_names()[: p - 1]},
                free=[p - 1])


# -- GMM ---------------------------------------------------------------------


def _central_diff(fn, theta):
    theta = np.asarray(theta, dtype=float)
    cols = []
    for j in range(theta.size):
        h = 1e-6 * (1.0 + abs(theta[j]))
        up, dn = theta.copy(), theta.copy()
        up[j] += h
        dn[j] -= h
        cols.append((fn(up) - fn(dn)) / (2 * h))
    return np.stack(cols, axis=-1)


def _exact_moments(moments, cells, weights):
    """gbar = K'exp(A theta) and its exact Jacobian K'(exp(A theta) * A)
    from the evaluator's term table, the cell weights folded into K."""
    tab = moments.terms(cells.Y, cells.Y0, cells.X)
    tab.coef *= weights[tab.cell, None]
    const = ~tab.A.any(axis=1)  # terms with a = 0 add up once
    g0, K, A = tab.coef[const].sum(axis=0), tab.coef[~const], tab.A[~const]

    def moment_jac(theta):
        e = np.exp(A @ theta)
        return g0 + e @ K, K.T @ (e[:, None] * A)
    return moment_jac


def gmm(sample, moments, init, weighting="two-step"):
    """GMM on stacked fixed-effect-free moment evaluators.

    Minimizes n * gbar(theta)' W gbar(theta) by BFGS, from ``init`` and
    from two perturbed restarts; ``two-step`` re-minimizes with the
    inverse sample covariance of the moments plus a 1e-10 ridge.
    Moments are evaluated once per cell of the sample's count table.
    An evaluator with a ``terms`` table gives gbar and its exact
    Jacobian G from one exp(A theta), so each BFGS evaluation returns
    the value and the gradient 2n G'W gbar together; for one that only
    has ``stacked``, G comes from central differences.  G enters the
    sandwich and the rank reported as an identification diagnostic.
    """
    if weighting not in ("identity", "two-step"):
        raise ValueError("weighting must be 'identity' or 'two-step'")
    spec = sample.spec
    init = np.asarray(init, dtype=float)
    if init.shape != (spec.theta_dim,):
        raise ValueError(f"init has length {init.size}, theta has {spec.theta_dim}")
    cells, counts, _ = _count_table(sample)

    def stacked(theta):
        return moments.stacked(cells.Y, cells.Y0, cells.X, theta)

    k = moments.k
    weights = counts / counts.sum()

    def gbar(theta):
        return weights @ stacked(theta)

    exact = hasattr(moments, "terms")
    moment_jac = _exact_moments(moments, cells, weights) if exact else (
        lambda theta: (gbar(theta), _central_diff(gbar, theta)))

    def cov(theta):
        return np.cov(stacked(theta).T, fweights=counts, bias=True).reshape(k, k)

    def solve(Wmat, start):
        def obj(theta):
            g, G = moment_jac(theta)
            Wg = sample.n * Wmat @ g
            return float(g @ Wg), 2.0 * G.T @ Wg

        rng = np.random.default_rng(12345)
        starts = [start] + [start + rng.normal(scale=0.25, size=start.shape)
                            for _ in range(2)]
        runs = [minimize(obj, x0, jac=True, method="BFGS",
                         options={"gtol": 1e-9 * sample.n, "maxiter": 500})
                for x0 in starts]
        stages.append(runs)
        return min(runs, key=lambda r: r.fun)

    stages = []  # the BFGS runs of each stage
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
            "message": str(res.message),
        },
    )
