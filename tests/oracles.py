"""Brute-force oracles, written independently of the library internals.

These recompute probabilities, indices and null spaces from the model
definition with naive loops (or arbitrary precision where float64
cannot certify a rank), and exist so the tests never compare the
library against itself.  The exceptions are earlier library
implementations kept as references for the code that replaced them: the
``Counter`` permutation multiset, the AR(p) condition-system key
``arp_statistic_key`` and the mask-based network conditioning set,
which share only the lag features and the exact key with the key-based
code they check; the per-row f-string writer of
the sample CSV and edge list, which shares nothing with the byte-row
writer it checks; the loop builders of the two-way, dyadic,
triadic, quarterly and network designs; ``svd_null_space``, the
full SVD of the row-normalized matrix that the grouped null space of
``moments._null_space`` replaced; ``BlockCondLogit``, the conditional-logit
core of one block per class size that the segmented
``estimation._CondLogit`` replaced; ``loadtxt_read_sample_csv``, the
sample CSV reader over per-line strings and np.loadtxt that the byte
scan of ``cli._Lines`` replaced; ``quarterly_t6_moments``, the per-unit
quarterly formula z * (c exp(a'theta) + b), and ``network_moment_value``,
the network transition moment from index values, that the term tables
of ``moments.QuarterlyT6Moments`` and ``moments.NetworkT3Moments``
replaced; ``scipy_bfgs``, the scipy BFGS that the numpy minimizer of
``estimation._minimize`` replaced.  ``step_roll``/``step_generate``
simulate step by step like ``simulate.generate`` but apart from it,
sharing only the index kernel: a separate burn-in roll from the
all-zero state, a second roll for the sample, and scipy's ``expit``.
``ar2_t3_moments`` reads the
printed AR(2), T=3 cases per unit.  ``index_pi``, ``step_probability``,
``path_probability``, ``phi_kappa``, ``phi_expand``,
``network_star_equals_full``, ``CallableMoments``, ``moment_bound`` and
``pair_from_wperp`` read the library through its own kernels or build
test inputs; they are test helpers, not oracles.
"""

import itertools
from collections import Counter
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np
from scipy.optimize import minimize
from scipy.special import expit


def dyad_list(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def naive_index(spec, t, full, X, theta):
    """pi_t computed directly from the family definition; ``full`` is
    (y0..., y_1..y_{t-1}, ...) of length >= y0_len + t - 1."""
    val = 0.0
    if spec.family == "ar":
        gammas = theta[: spec.p]
        for r in range(1, spec.p + 1):
            val += gammas[r - 1] * full[spec.p + t - 1 - r]
        beta = theta[spec.p:]
    elif spec.family == "network":
        gamma, delta = theta[0], theta[1]
        ds = dyad_list(spec.n)
        D = len(ds)
        d = (t - 1) % D
        per = (t - 1) // D + 1
        prev = full[(per - 1) * D: per * D]
        i, j = ds[d]
        shared = 0
        for k in range(spec.n):
            if k in (i, j):
                continue
            a = ds.index((min(i, k), max(i, k)))
            b = ds.index((min(j, k), max(j, k)))
            shared += prev[a] * prev[b]
        val = gamma * prev[d] + delta * shared
        beta = theta[2:]
    else:
        beta = theta
    if spec.d_x:
        val += float(np.dot(beta, X[:, t - 1]))
    return val


def naive_path_prob(spec, y, y0, X, theta, A):
    """Per-period product of logistic terms, no log-space tricks."""
    full = list(y0 if y0 is not None else [])
    p = 1.0
    for t in range(1, spec.T + 1):
        eta = naive_index(spec, t, full, X, theta) + float(
            np.dot(spec.W[:, t - 1], A)
        )
        pr1 = expit(eta)
        p *= pr1 if y[t - 1] == 1 else 1.0 - pr1
        full.append(int(y[t - 1]))
    return p


def enumerate_paths(T):
    return [np.array(bits, dtype=np.int8)
            for bits in itertools.product((0, 1), repeat=T)]


def naive_distribution(spec, y0, X, theta, A):
    """Probability of every path, as a dict keyed by the bit tuple."""
    return {
        tuple(int(v) for v in y): naive_path_prob(spec, y, y0, X, theta, A)
        for y in enumerate_paths(spec.T)
    }


def naive_expectation(fn, spec, y0, X, theta, A):
    """E[fn(Y)] by exhaustive enumeration."""
    return sum(
        fn(np.array(y)) * p
        for y, p in naive_distribution(spec, y0, X, theta, A).items()
    )


def mp_probability_matrix(spec, y0, X, theta, A_rows, dps=40):
    """Path-probability rows [Pr(y|Y0,X,A_j)]_{j,y} in high precision.

    AR families only.  Inputs are float64 (exact binary rationals), so
    every entry is accurate to the working precision; this is what lets
    the sampled-probability null space certify ranks that float64
    cannot.
    """
    from felogit.model import all_paths

    with mp.workdps(dps):
        paths = all_paths(spec.T)
        gammas = theta[: spec.p]
        beta = theta[spec.p:]
        rows = []
        for A in A_rows:
            wA = [mp.fsum(mp.mpf(float(spec.W[k, t])) * mp.mpf(float(A[k]))
                          for k in range(spec.d_w)) for t in range(spec.T)]
            row = []
            for y in paths:
                full = [int(v) for v in y0] + [int(v) for v in y]
                p = mp.mpf(1)
                for t in range(1, spec.T + 1):
                    pi = mp.fsum(
                        mp.mpf(float(gammas[r - 1])) * full[spec.p + t - 1 - r]
                        for r in range(1, spec.p + 1)
                    )
                    if spec.d_x:
                        pi += mp.fsum(
                            mp.mpf(float(beta[d])) * mp.mpf(float(X[d, t - 1]))
                            for d in range(spec.d_x)
                        )
                    eta = pi + wA[t - 1]
                    pr1 = 1 / (1 + mp.e ** (-eta))
                    p *= pr1 if y[t - 1] == 1 else 1 - pr1
                row.append(p)
            rows.append(row)
        return mp.matrix(rows)


def mp_null_basis(P, rtol="1e-25", dps=40):
    """Null-space basis (rows) and rank of an mp matrix via mp SVD."""
    with mp.workdps(dps):
        _, S, V = mp.svd_r(P)
        smax = max(S[i] for i in range(len(S)))
        rank = sum(1 for i in range(len(S)) if S[i] > mp.mpf(rtol) * smax)
        n = P.cols
        basis = np.array(
            [[float(V[i, j]) for j in range(n)] for i in range(rank, n)]
        )
        return basis, rank


def svd_null_space(M):
    """Singular values, numerical rank and null-space basis (rows) of M
    with its rows max-normalized, from one SVD of the whole matrix."""
    scale = np.abs(M).max(axis=1, keepdims=True)
    Mn = M / np.where(scale == 0, 1.0, scale)
    # with at least as many rows as columns the thin Vt is already square
    _, s, Vt = np.linalg.svd(Mn, full_matrices=M.shape[0] < M.shape[1])
    rank = int(np.sum(s > 1e-9 * s[0])) if s.size else 0
    return s, rank, Vt[rank:]


def subspace_residual(V1, V2):
    """max elementwise residual projecting each basis onto the other."""
    r12 = np.max(np.abs(V1 - (V1 @ V2.T) @ V2)) if V1.size else 0.0
    r21 = np.max(np.abs(V2 - (V2 @ V1.T) @ V1)) if V2.size else 0.0
    return max(r12, r21)


def _phi_poly(values, q, yt):
    """Coefficients of phi_t in a_t for history class q and outcome yt."""
    b = np.exp(values)
    poly = np.array([1.0]) if yt == 0 else np.array([0.0, b[q]])
    for qq in range(len(values)):
        if qq != q:
            poly = np.convolve(poly, np.array([1.0, b[qq]]))
    return poly


def per_path_coefficients(spec, tables, y0, X, theta):
    """The exponent-grouped expansion of prod_t phi_t, one path at a time.

    Each path's q indices come from the naive index matched to the
    nearest tabulated value, and its product is expanded with a dict
    keyed by the exponent tuple.  Returns {d: coefficients over the
    ``enumerate_paths`` order}.
    """
    Wr = np.rint(spec.W)
    if np.max(np.abs(spec.W - Wr)) < 1e-9:
        cols = [tuple(int(v) for v in Wr[:, t]) for t in range(spec.T)]
    else:
        cols = [tuple(round(float(v), 9) for v in spec.W[:, t])
                for t in range(spec.T)]
    theta = np.asarray(theta, dtype=float)
    paths = enumerate_paths(spec.T)
    rows = {}
    for j, y in enumerate(paths):
        full = [int(v) for v in (y0 if y0 is not None else [])]
        acc = {(0,) * spec.d_w: 1.0}
        for t in range(1, spec.T + 1):
            values = tables[t - 1]
            pi = naive_index(spec, t, full, X, theta)
            q = int(np.argmin(np.abs(values - pi)))
            poly = _phi_poly(values, q, int(y[t - 1]))
            w = cols[t - 1]
            nxt = {}
            for d, c in acc.items():
                for k, ck in enumerate(poly):
                    if ck == 0.0:
                        continue
                    nd = tuple(d[i] + k * w[i] for i in range(spec.d_w))
                    nxt[nd] = nxt.get(nd, 0.0) + c * ck
            acc = nxt
            full.append(int(y[t - 1]))
        for d, c in acc.items():
            rows.setdefault(d, np.zeros(len(paths)))[j] = c
    return rows


def counter_pair_multiset(spec, y, y0):
    """Multiset of the pairs (exact w_t key, lag features feeding pi_t)
    for t = 2..T of path y: the permutation condition holds for two
    paths exactly when their multisets are equal."""
    from felogit.model import exact_key, lag_features, path_states

    Z = lag_features(spec, path_states(spec, y, y0)).reshape(spec.T, -1).tolist()
    wkeys = exact_key(spec.W).T.tolist()
    return Counter(
        (tuple(wkeys[t]), tuple(Z[t])) for t in range(1, spec.T)
    )


def arp_statistic_key(spec, paths, y0):
    """Exact keys of the AR(p) condition-system statistics, one row per
    path of ``paths`` (m, T; a single path is one row): W y and then,
    for every nonempty subset i of the lags {1..p} in ``combinations``
    order, W (prod_{r in i} y_{t-r})_t.  Paths share a row exactly when
    they share every statistic."""
    from felogit.model import exact_key, lag_features, path_states

    paths = np.atleast_2d(np.asarray(paths, dtype=np.int64))
    m, T, p = len(paths), spec.T, spec.p
    Z = lag_features(spec, path_states(spec, paths, y0)).reshape(m, T, p)
    parts = [paths] + [Z[:, :, list(c)].prod(axis=2) for l in range(1, p + 1)
                       for c in itertools.combinations(range(p), l)]
    return exact_key(np.stack(parts, axis=1) @ spec.W.T).reshape(m, -1)


def _z_equal(n):
    # E[d, a, b]: networks a and b (by id) give dyad d the same lag
    # features (link, shared friends) for the next period
    from felogit.model import all_paths, lag_features, network_design

    Z = lag_features(network_design(n, 1), all_paths(n * (n - 1) // 2))
    same = np.all(Z[:, None] == Z[None], axis=3)  # indexed (a, b, d)
    return np.ascontiguousarray(same.transpose(2, 0, 1))


def mask_network_cond_full(spec, y):
    """Members of the tau = 3 network conditioning set of y, sorted,
    from a per-dyad mask over every (period-1, period-2) candidate."""
    from felogit.model import all_paths, path_index

    D = spec.n_dyads
    p1, p2, p3 = np.asarray(y, dtype=np.int64).reshape(3, D)
    n1, n2 = int(path_index(p1)), int(path_index(p2))
    E = _z_equal(spec.n)
    m = 2**D
    mask = np.ones((m, m), dtype=bool)
    for d in range(D):
        # grid axis 0 = candidate period-1 network, axis 1 = period-2
        keep = E[d][n1][:, None] & E[d][n2][None, :]
        swap = E[d][n2][:, None] & E[d][n1][None, :]
        mask &= keep | swap
    nets = all_paths(D)
    members = [np.concatenate([nets[a], nets[b], p3]) for a, b in np.argwhere(mask)]
    members.sort(key=lambda v: tuple(v.tolist()))
    return members


def network_code_classes(n):
    """Classes of the (period-1, period-2) network pairs, row a * 2^D + b
    for networks a, b by id, keyed per dyad by the unordered pair of the
    two networks' (link, shared friends) codes."""
    from felogit.model import all_paths, lag_features, network_design
    from felogit.sufficiency import key_classes

    Z = lag_features(network_design(n, 1), all_paths(n * (n - 1) // 2))
    code = Z[..., 0] + 2 * Z[..., 1]
    a, b = code[:, None], code[None, :]
    key = np.concatenate([np.minimum(a, b), np.maximum(a, b)], axis=2)
    return key_classes(key.reshape(len(code) ** 2, -1))


def write_long_csv(sample, fh, kind):
    """The sample CSV (``kind`` "sample") or network edge list ("edges")
    of ``sample``, one f-string per row and one per covariate."""
    spec, d_x, n, L0 = sample.spec, sample.spec.d_x, sample.n, sample.spec.y0_len
    if kind == "sample":
        keys, slots = ["t"], [str(t) for t in range(1 - L0, spec.T + 1)]
    else:
        keys = ["tau", "i", "j"]
        slots = [f"{tau},{i + 1},{j + 1}" for tau in range(spec.tau + 1)
                 for i, j in dyad_list(spec.n)]
    header = ["unit", *keys, "y"] + [f"x{k + 1}" for k in range(d_x)]
    fh.write(f"# schema: felogit.{kind}.v1\n{','.join(header)}\r\n")
    tails = np.full((n, len(slots)), "," * d_x, dtype=object)
    if d_x:  # summing objects concatenates a period's ",x1,x2,..." text
        xs = [f",{v:.12g}" for v in sample.X.transpose(0, 2, 1).ravel().tolist()]
        tails[:, L0:] = np.array(xs, dtype=object).reshape(n, spec.T, d_x).sum(axis=2)
    fh.write("".join(f"{u},{key},{y}{x}\r\n" for u, key, y, x in zip(
        np.repeat(np.arange(1, n + 1), len(slots)).tolist(), slots * n,
        np.hstack([sample.Y0, sample.Y]).ravel().tolist(), tails.ravel().tolist())))


def index_pi(spec, t, history, x_t, theta):
    """Index pi_t at a single observation, through the library kernel.

    ``history`` concatenates the initial-condition block with the
    outcomes of observations 1..t-1; it must supply every lag that the
    index reads (for networks, the complete previous-period graph).
    """
    from felogit.model import step_index

    if not 1 <= t <= spec.T:
        raise ValueError(f"t must lie in 1..{spec.T}")
    history = np.asarray(history)
    need = spec.y0_len + t - 1
    if history.shape != (need,):
        raise ValueError(f"history must have length {need}, got {history.shape}")
    step, j = divmod(t - 1, spec.step_width)
    start = step * spec.step_width
    x = np.asarray(x_t, dtype=float)[:, None] if spec.d_x else None
    return float(step_index(spec, history[start: start + spec.y0_len], x, theta)[j])


def step_probability(spec, t, history, x_t, theta, A):
    """One-step transition kernel Pr(Y_t = 1 | history, x_t, A)."""
    eta = index_pi(spec, t, history, x_t, theta) + float(spec.W[:, t - 1] @ A)
    return float(expit(eta))


def step_roll(spec, state, steps, X, A, theta, rng):
    """A step-by-step roll apart from ``simulate._roll``: every step
    evaluates the index kernel and scipy's expit on its own states and
    draws its own uniforms.  Returns ``state`` followed by every draw,
    unit-major."""
    from felogit.model import step_index

    L0, w = spec.y0_len, spec.step_width
    full = np.zeros((len(state), L0 + len(steps) * w), dtype=np.int8)
    full[:, :L0] = state
    for i, s in enumerate(steps):
        cols = slice(s * w, (s + 1) * w)
        x = None if X is None else X[:, :, cols]
        eta = step_index(spec, full[:, i * w: i * w + L0], x, theta)
        eta = eta + A @ spec.W[:, cols]
        full[:, L0 + i * w: L0 + (i + 1) * w] = rng.random(eta.shape) < expit(eta)
    return full


def step_generate(cfg):
    """``simulate.generate`` through ``step_roll``: a stationary y0 is a
    separate burn-in roll from the all-zero state, step b at period
    b mod (number of steps); the sample is a second roll from y0."""
    from felogit import simulate
    from felogit.estimation import Sample

    spec, law, L0 = cfg.spec, cfg.y0_law, cfg.spec.y0_len
    periods = spec.T // spec.step_width
    rng = np.random.default_rng(cfg.seed)
    X = simulate._draw_X(cfg, rng)
    A = simulate._draw_A(cfg, X, rng)
    if law["kind"] == "fixed":
        value = np.asarray(law.get("value", 0), dtype=np.int8)
        Y0 = np.broadcast_to(value, (cfg.n, L0)).copy()
    else:
        burn = int(law.get("burn_in", 50)) if L0 else 0
        full = step_roll(spec, np.zeros((cfg.n, L0), dtype=np.int8),
                         [b % periods for b in range(burn)], X, A, cfg.theta, rng)
        Y0 = full[:, full.shape[1] - L0:]
    full = step_roll(spec, Y0, range(periods), X, A, cfg.theta, rng)
    return Sample(spec=spec, Y=full[:, L0:], Y0=Y0, X=X)


def binary_x_sample(spec, theta, n, seed):
    """A Sample with 0/1 covariates, effects A = mean_t x_1t - 1/2 + N(0, 1)
    per row of W and uniform 0/1 initial conditions, rolled by
    ``step_roll``: the discrete-covariate case that no ``simulate``
    x_law draws."""
    from felogit.estimation import Sample

    rng = np.random.default_rng(seed)
    X = rng.integers(0, 2, (n, spec.d_x, spec.T)).astype(float)
    A = X[:, 0].mean(axis=1, keepdims=True) - 0.5 + rng.standard_normal((n, spec.d_w))
    Y0 = rng.integers(0, 2, (n, spec.y0_len)).astype(np.int8)
    full = step_roll(spec, Y0, range(spec.T // spec.step_width), X, A,
                     np.asarray(theta, float), rng)
    return Sample(spec=spec, Y=full[:, spec.y0_len:], Y0=Y0, X=X)


def path_probability(spec, y, y0, X, theta, A):
    """Exact probability of a single outcome path, through the library's
    log-space path distribution."""
    from felogit.model import log_path_distribution

    return float(np.exp(log_path_distribution(spec, y0, X, theta, A, np.atleast_2d(y))[0]))


def phi_kappa(spec, tables, A):
    """The common factor kappa(a) = prod_t prod_q (1 + b_{t,q} a_t)^{-1}
    of the exponent-grouped expansion of ``phi_expand``."""
    a = np.exp(spec.W.T @ np.asarray(A, dtype=float))
    out = 0.0
    for t, tab in enumerate(tables):
        out -= np.sum(np.log1p(np.exp(tab) * a[t]))
    return float(np.exp(out))


def network_star_equals_full(spec, y):
    """Whether the two-element swap set exhausts the full network
    conditioning set, which always contains it."""
    from felogit.sufficiency import network_cond_full, network_cond_star

    return len(network_cond_full(spec, y)) == len(network_cond_star(spec, y))


# -- the loop builders of the indicator designs, one 1 per (row, t) -----------


def loop_two_way(n, tau):
    W = np.zeros((n + tau, n * tau))
    for i in range(n):
        for s in range(tau):
            W[i, i * tau + s] = W[n + s, i * tau + s] = 1.0
    return W


def loop_dyadic(n):
    pairs = dyad_list(n)
    W = np.zeros((n, len(pairs)))
    for t, (i, j) in enumerate(pairs):
        W[i, t] = W[j, t] = 1.0
    return W


def loop_triadic(n1, n2, n3):
    W = np.zeros((n1 * n2 + n2 * n3 + n1 * n3, n1 * n2 * n3))
    for i, j, k in itertools.product(range(n1), range(n2), range(n3)):
        t = (i * n2 + j) * n3 + k
        W[i * n2 + j, t] = W[n1 * n2 + j * n3 + k, t] = 1.0
        W[n1 * n2 + n2 * n3 + i * n3 + k, t] = 1.0
    return W


def loop_quarterly(T):
    W = np.zeros((4, T))
    for t in range(1, T + 1):
        W[(t - 1) % 4, t - 1] = 1.0
    return W


def loop_network(n, tau):
    D = n * (n - 1) // 2
    W = np.zeros((D, D * tau))
    for t in range(D * tau):
        W[t % D, t] = 1.0
    return W


# -- helpers that only the tests call ----------------------------------------


class CallableMoments:
    """Adapter turning fn(Y, Y0, X, theta) -> (n, k) into an evaluator
    that has ``stacked`` alone, so that ``gmm`` takes central differences."""

    def __init__(self, fn, k):
        self.fn = fn
        self.k = k

    def stacked(self, Y, Y0, X, theta):
        out = np.asarray(self.fn(Y, Y0, X, theta), dtype=float)
        return out.reshape(len(Y), self.k)


def scipy_bfgs(moment_jac, Wmat, n, x0):
    """scipy's BFGS on n * gbar' W gbar with the gradient 2n G'W gbar, as
    ``estimation.gmm`` called it before its own minimizer; takes the
    arguments of ``estimation._minimize``."""
    def obj(theta):
        g, G = moment_jac(theta)
        Wg = n * Wmat @ g
        return float(g @ Wg), 2.0 * G.T @ Wg

    return minimize(obj, x0, jac=True, method="BFGS",
                    options={"gtol": 1e-9 * n, "maxiter": 500})


def moment_bound(spec, y0, X, theta):
    """Lower bound 2^T - |D| on the number of independent moment functions.

    Nonpositive values signal 'no guarantee', not 'no moments exist'.
    """
    from felogit.moments import build_dset, qt_values

    return 2**spec.T - build_dset(spec, qt_values(spec, y0, X, theta)).cardinality


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


# -- the conditional-logit core of one block per class size -------------------


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


class BlockCondLogit:
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


# -- the phi expansion of a single path ---------------------------------------


@dataclass
class PhiExpansion:
    """Per-period polynomial coefficients and their exponent grouping."""

    per_period: list                     # arrays c_{t,k}, k = 0..Q_t
    grouped: dict = field(repr=False)    # d tuple -> chat_d(y)


def phi_expand(spec, y, y0, X, theta):
    """Expand the path probability of y into exponent-grouped coefficients.

    The grouping is ``moments._expand`` along the ``_walk`` of the
    design, run on the single path y.  Reconstruction: Pr(Y=y|Y0,X,A) = kappa(A)
    * sum_d grouped[d] * exp(d'A), where kappa(A) = prod_t prod_q
    (1 + exp(b_{t,q} + w_t'A))^{-1} over the index-value tables b_t.
    """
    from felogit.model import exact_key, path_index
    from felogit.moments import _expand, _poly_cache, _table_places, _walk

    tables, _, q = _table_places(spec, y0, X, theta)
    paths = np.atleast_2d(np.asarray(y, dtype=np.int64))
    q = q[path_index(paths)]
    polys = _poly_cache(tables)
    C, ds = _expand(_walk(exact_key(spec.W), [len(tab) for tab in tables]), polys, paths, q)
    per_period = [polys[t][q[0, t], y, : len(tab) + y]
                  for t, (tab, y) in enumerate(zip(tables, paths[0]))]
    grouped = dict(zip(map(tuple, ds.tolist()), C[:, 0].tolist()))
    return PhiExpansion(per_period=per_period, grouped=grouped)


# -- the sample CSV reader before the byte scan -------------------------------


def _loadtxt_columns(what, lines, rows, cols, dtype):
    """Parse the columns ``{index: (name, lo, hi, expected)}`` of all
    ``lines`` in one call and check lo <= value <= hi.  On failure, name
    the first bad field and its data row (line k holds row rows[k])."""
    from felogit.cli import DataError

    lo, hi = np.array([c[1:3] for c in cols.values()]).T
    try:
        A = np.loadtxt(lines, delimiter=",", usecols=list(cols), dtype=dtype,
                       ndmin=2, comments=None)
        if np.all((A >= lo) & (A <= hi)):
            return A
    except ValueError:
        pass
    for row, line in zip(rows, lines):
        fields = line.rstrip("\r\n").split(",")
        for c, (name, lo, hi, expected) in cols.items():
            text = fields[c] if c < len(fields) else ""
            try:
                if lo <= dtype(text) <= hi:
                    continue
            except (ValueError, OverflowError):
                pass
            raise DataError(f"{what} data row {row + 1}: {name} must be "
                            f"{expected}, found {text!r}")
    raise DataError(f"{what}: cannot parse the data rows")


def _loadtxt_lines(text):
    """The lines of ``text`` other than blank and comment lines, and the
    number of fields in each.  A function of its own, so that the text
    and its bytes are freed before the columns are parsed."""
    lines = np.array(text.split("\n"), dtype=object)
    # A blank or comment line is empty (its first byte below is "\n") or
    # starts with whitespace, "#" or a non-ASCII character: test only those.
    b = np.frombuffer(f"\n{text}\n".encode(), dtype=np.uint8)
    ends = np.flatnonzero(b == 10)  # line k lies between ends[k] and ends[k + 1]
    first = b[ends[:-1] + 1]
    odd = np.flatnonzero((first <= 32) | (first == 35) | (first >= 127))
    skip = [k for k in odd if not lines[k].strip() or lines[k].startswith("#")]
    fields = np.diff(np.searchsorted(np.flatnonzero(b == 44), ends)) + 1
    return np.delete(lines, skip), np.delete(fields, skip)


def loadtxt_read_sample_csv(fh, spec):
    """``cli.read_sample_csv`` as it was before the byte scan: every
    line an object-array string, the key columns and the covariates each
    parsed by one np.loadtxt call; bad input raises DataError."""
    from felogit.cli import DataError, _layout
    from felogit.estimation import Sample

    kind, keys, slots, slot_of = _layout(spec)
    what = "sample CSV" if kind == "sample" else "edge CSV"
    big = np.finfo(float).max
    lines, fields = _loadtxt_lines(fh.read())
    head = lines[0].strip().split(",") if len(lines) else []
    bounds = {"unit": (-big, big), **keys, "y": (0, 1)}
    if kind == "edges" and head[:1] == ["tau"]:  # one network, no unit column
        del bounds["unit"]
    columns = [*bounds, *(f"x{k + 1}" for k in range(spec.d_x))]
    if head != columns or len(lines) < 2:
        raise DataError(f"{what} must start with columns {','.join(columns)} "
                        "and hold data rows")
    body, L0, S = lines[1:], spec.y0_len, len(slots)
    K = _loadtxt_columns(what, body, range(len(body)), {
        c: (m, lo, hi, "0 or 1" if m == "y" else "an integer" if m == "unit"
            else f"an integer in {lo}..{hi}")
        for c, (m, (lo, hi)) in enumerate(bounds.items())}, np.int64)
    slot = slot_of(*K[:, -len(keys) - 1:-1].T)
    bad = np.flatnonzero(slot < 0)  # an edge with i == j
    if bad.size:
        raise DataError(f"{what} data row {bad[0] + 1}: i and j must differ")
    units, unit = np.unique(K[:, 0] if "unit" in bounds else np.ones_like(slot),
                            return_inverse=True)
    key = unit * S + slot
    count = np.bincount(key, minlength=len(units) * S)
    bad = np.flatnonzero(count != 1)
    if bad.size:
        u, s = divmod(int(bad[0]), S)
        raise DataError(f"{what}: unit {units[u]} has {count[bad[0]] or 'no'} "
                        f"rows for {','.join(keys)} = {slots[s]}")
    Y, X = np.empty((len(units), S), dtype=np.int8), None
    np.put(Y, key, K[:, -1])
    if spec.d_x:
        rows = np.flatnonzero(slot >= L0)
        X = np.empty((len(units), spec.d_x, spec.T))
        X[unit[rows], :, slot[rows] - L0] = _loadtxt_columns(
            what, body[rows], rows,
            {len(bounds) + k: (f"x{k + 1}", -big, big, "a finite number")
             for k in range(spec.d_x)}, float)
    # counted last, so that a short row names its missing field first
    bad = np.flatnonzero(fields[1:] != len(columns))
    if bad.size:
        raise DataError(f"{what} data row {bad[0] + 1}: expected {len(columns)} "
                        f"fields, found {fields[bad[0] + 1]}")
    return Sample(spec=spec, Y=Y[:, L0:], Y0=Y[:, :L0], X=X)


# -- the closed-form moments before the term tables ---------------------------


def ar2_t3_moments(Y, Y0, theta):
    """AR(2), T=3 moments per unit, one column per initial block
    2 y_{-1} + y_0, read off the printed cases (0,0) and (0,1); a unit
    with y_{-1} = 1 reads the case of its flipped outcomes."""
    g1, g2 = theta
    printed = {(0, 0): {(0, 1, 0): 1.0, (0, 1, 1): np.exp(-g1),
                        (1, 0, 0): -1.0, (1, 0, 1): -1.0},
               (0, 1): {(1, 0, 0): np.exp(g2 - g1), (1, 0, 1): np.exp(g2),
                        (0, 1, 0): -1.0, (0, 1, 1): -1.0}}
    out = np.zeros((len(Y), 4))
    for u, (y, (ym1, y0)) in enumerate(zip(np.asarray(Y), np.asarray(Y0))):
        case, path = (0, int(y0) ^ int(ym1)), tuple(int(v) ^ int(ym1) for v in y)
        out[u, 2 * ym1 + y0] = printed[case].get(path, 0.0)
    return out


def quarterly_t6_moments(Y, Y0, X, theta, instruments):
    """Quarterly T=6 moments per unit as z * (c exp(a'theta) + b), the
    formula that ``moments.QuarterlyT6Moments`` evaluated before its term
    table: m1 = (1 - y5) exp(a'theta) + y1 - 1, m2 = m1 after Y -> 1-Y,
    y0 -> 1-y0, X -> -X, and column 2i + j = m_j z_i with z = 1 and,
    with ``instruments``, each x_2 - x_6 and x_5 - x_1."""
    Y = np.asarray(Y, dtype=float)
    y0 = np.asarray(Y0, dtype=float).reshape(-1)
    theta, n = np.asarray(theta, dtype=float), len(y0)
    d26 = d51 = np.zeros((n, 0))
    if X is not None:
        X = np.asarray(X, dtype=float)
        d26, d51 = X[:, :, 1] - X[:, :, 5], X[:, :, 4] - X[:, :, 0]

    def m1(Y, y0, d26, d51):
        y1, y2, y4, y5, y6 = (Y[:, k] for k in (0, 1, 3, 4, 5))
        s = (1 - y2) * y6 - y2 * (1 - y6)
        a = np.column_stack([y1 * (s + y4 - y0), s[:, None] * d26 + y1[:, None] * d51])
        return (1 - y5) * np.exp(a @ theta) + y1 - 1

    m = np.column_stack([m1(Y, y0, d26, d51), m1(1.0 - Y, 1.0 - y0, -d26, -d51)])
    inst = range(d26.shape[1] if instruments else 0)
    z = np.column_stack([np.ones(n)] + [v[:, d] for d in inst for v in (d26, d51)])
    return (z[:, :, None] * m[:, None, :]).reshape(n, -1)


def network_moment_value(spec, y_ref, Y, y0, X, theta):
    """Vectorized transition moment m_y for a reference network y_ref,
    from the index values themselves (the form ``moments.NetworkT3Moments``
    replaced with a term table).

    With pi_s(z) the period-s index fed by the network z,
    m_y = 1{Y2 = y} exp(sum (Y3 - y)(pi_2(Y1) - pi_3(y))
    - sum (Y1 - y)(pi_1(y0) - pi_3(y))) - 1{Y1 = y}, sums over dyads.
    y0 is one network or one per unit, X is d_x x T or one per unit.
    """
    from felogit.model import NETWORK, step_index

    if spec.family != NETWORK or spec.tau != 3:
        raise ValueError("network transition moments require tau = 3")
    D = spec.n_dyads
    Y = np.atleast_2d(np.asarray(Y, dtype=np.int64))
    y_ref = np.asarray(y_ref, dtype=np.int64)
    Y1, Y2, Y3 = Y[:, :D], Y[:, D: 2 * D], Y[:, 2 * D:]

    def pi(states, per):
        x = np.asarray(X, dtype=float)[..., (per - 1) * D: per * D] if spec.d_x else None
        return step_index(spec, states, x, theta)

    pi_ref = pi(y_ref, 3)
    e1 = np.sum((Y3 - y_ref) * (pi(Y1, 2) - pi_ref), axis=1)
    e2 = -np.sum((Y1 - y_ref) * (pi(y0, 1) - pi_ref), axis=1)
    ind2 = np.all(Y2 == y_ref, axis=1)
    ind1 = np.all(Y1 == y_ref, axis=1)
    return ind2 * np.exp(e1 + e2) - ind1
