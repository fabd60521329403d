"""Brute-force oracles, written independently of the library internals.

These recompute probabilities, indices and null spaces from the model
definition with naive loops (or arbitrary precision where float64
cannot certify a rank), and exist so the tests never compare the
library against itself.  The exceptions are earlier library
implementations kept as references for the code that replaced them: the
``Counter`` permutation multiset and the mask-based network
conditioning set, which share only the lag features and the exact key
with the key-based code they check; the per-row f-string writer of
the sample CSV and edge list, which shares nothing with the template
writer it checks; the loop builders of the two-way, dyadic,
triadic, quarterly and network designs; and ``svd_null_space``, the
full SVD of the row-normalized matrix that the grouped null space of
``moments._null_space`` replaced.  ``index_pi`` and
``step_probability`` read one observation through the library's index
kernel; they are test helpers, not oracles.
"""

import itertools
from collections import Counter

import mpmath as mp
import numpy as np
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
            values = tables[t - 1].values
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
