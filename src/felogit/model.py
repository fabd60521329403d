"""Binary-choice logit models with general fixed-effect designs.

An observation sequence Y = (Y_1, ..., Y_T) in {0,1}^T follows

    Pr(Y_t = 1 | history, X, A) = expit( pi_t + w_t' A ),

where pi_t is a known index function of the outcome history and the
period-t covariates, w_t is the t-th column of a non-random design
matrix W (d_w x T), and A in R^{d_w} is an unobserved effect that may
depend arbitrarily on the covariates and the initial condition.

Three index families are supported:

* ``static``  : pi_t = x_t' beta (no history dependence),
* ``ar``      : pi_t = sum_{r=1..p} gamma_r y_{t-r} + x_t' beta,
* ``network`` : observations are dyad-period pairs of an n-agent graph,
  pi_t = gamma * y_{ij,tau-1} + delta * R_{ij,tau-1} + x_t' beta with
  R_{ij,tau-1} the number of shared neighbours of i and j in the
  previous period's network.

Network observations are ordered time-major with lexicographic dyads
(i < j) inside each period.  Initial conditions are stored in
chronological order, so ``y0[-1]`` is always the outcome immediately
preceding period 1.

One index kernel serves every family.  Observations come in steps of
``step_width`` (one period of dyads for networks, one observation
otherwise), and the state feeding a step is the ``y0_len`` outcomes
before it.  ``lag_features`` reads the integer features pi uses from a
state (the last p outcomes; each dyad's previous link and shared-friend
count; none) and ``step_index`` forms pi = sum_k dyn_k Z_k + x'beta.
Path indices, the simulator, the index-value tables and the sufficiency
keys all go through it.  One exact key, ``exact_key``, turns design
columns W and loadings W y into values that compare exactly.

All probability computations are exact and carried out in log space;
functions in this module are pure and safe to call concurrently.
"""

from __future__ import annotations

import json
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

STATIC = "static"
AR = "ar"
NETWORK = "network"

_FAMILIES = (STATIC, AR, NETWORK)


def dyads(n):
    """Lexicographic list of 0-based dyads (i, j), i < j, of n agents."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def incidence(rows, d):
    """The 0/1 design (d x T) with W[r, t] = 1 for each r in rows[..., t]."""
    rows = np.atleast_2d(rows)
    W = np.zeros((d, rows.shape[1]))
    W[rows, np.arange(rows.shape[1])] = 1.0
    return W


class TooLarge(ValueError):
    """A problem refused before it is built; the message states its size."""


def checked_int(what, value, lo):
    """``value`` as an int when it is an integer >= lo; otherwise a
    ValueError that names ``what``."""
    if value is None:
        raise ValueError(f"{what} is missing")
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not integer or value < lo:
        raise ValueError(f"{what} must be an integer >= {lo}, found {value!r}")
    return int(value)


class ModelSpec:
    """Declarative description of a fixed-effects logit model.

    Parameters
    ----------
    family : str
        One of ``static``, ``ar``, ``network``.
    T : int
        Number of observations (for networks, C(n,2) * tau).
    W : array_like, shape (d_w, T)
        Fixed-effect design; column t loads the effect at observation t.
    d_x : int
        Covariate dimension (0 for covariate-free models).
    p : int
        Lag depth of the ``ar`` family.
    n, tau : int
        Number of agents / observed periods of the ``network`` family.
    """

    def __init__(self, family, T, W, d_x=0, p=0, n=0, tau=0):
        if family not in _FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        W = np.asarray(W, dtype=float)
        if W.ndim != 2 or W.shape[1] != T:
            raise ValueError(f"W must be d_w x T, got {W.shape} with T={T}")
        if not np.all(np.isfinite(W)):
            raise ValueError("W must have finite entries")
        if T < 1:
            raise ValueError("T must be positive")
        if family == AR and p < 1:
            raise ValueError("ar family needs lag depth p >= 1")
        if family == NETWORK:
            if n < 2 or tau < 1:
                raise ValueError("network family needs n >= 2 and tau >= 1")
            if T != (n * (n - 1) // 2) * tau:
                raise ValueError("network family requires T = C(n,2)*tau")
        self.family = family
        self.T = int(T)
        self.W = W
        self.d_x = checked_int("d_x", d_x, 0)
        self.p = checked_int("p", p, 0)
        self.n = checked_int("n", n, 0)
        self.tau = checked_int("tau", tau, 0)

    @property
    def d_w(self):
        return self.W.shape[0]

    @property
    def n_dyads(self):
        return self.n * (self.n - 1) // 2

    @property
    def binary_design(self):
        """True when every column of W is a standard basis vector."""
        W = self.W
        return bool(
            np.all((W == 0) | (W == 1)) and np.all(W.sum(axis=0) == 1)
        )

    @property
    def y0_len(self):
        if self.family == AR:
            return self.p
        if self.family == NETWORK:
            return self.n_dyads
        return 0

    @property
    def step_width(self):
        """Observations per step of the index kernel."""
        return self.n_dyads if self.family == NETWORK else 1

    @property
    def theta_dim(self):
        if self.family == STATIC:
            return self.d_x
        if self.family == AR:
            return self.p + self.d_x
        return 2 + self.d_x

    def theta_names(self):
        if self.family == STATIC:
            dyn = []
        elif self.family == AR:
            dyn = [f"gamma{r}" for r in range(1, self.p + 1)]
        else:
            dyn = ["gamma", "delta"]
        return dyn + [f"beta{k}" for k in range(1, self.d_x + 1)]

    def split_theta(self, theta):
        """Split a parameter vector into (gamma-block, beta)."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if theta.shape != (self.theta_dim,):
            raise ValueError(
                f"theta must have length {self.theta_dim}, got {theta.shape}"
            )
        if self.family == STATIC:
            return np.empty(0), theta
        if self.family == AR:
            return theta[: self.p], theta[self.p:]
        return theta[:2], theta[2:]

    # -- serialization ----------------------------------------------------

    def to_json(self):
        doc = {
            "schema_version": 1,
            "family": self.family,
            "T": self.T,
            "d_x": self.d_x,
            "theta_layout": self.theta_names(),
            "W": [list(map(float, row)) for row in self.W],
        }
        if self.family == AR:
            doc["p"] = self.p
        if self.family == NETWORK:
            doc["n"] = self.n
            doc["tau"] = self.tau
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)
        return cls(
            family=doc["family"],
            T=doc["T"],
            W=np.asarray(doc["W"], dtype=float),
            d_x=doc.get("d_x", 0),
            p=doc.get("p", 0),
            n=doc.get("n", 0),
            tau=doc.get("tau", 0),
        )

    def __repr__(self):
        extra = ""
        if self.family == AR:
            extra = f", p={self.p}"
        if self.family == NETWORK:
            extra = f", n={self.n}, tau={self.tau}"
        return f"ModelSpec({self.family}, T={self.T}, d_w={self.d_w}, d_x={self.d_x}{extra})"


def network_design(n, tau, d_x=0):
    """NetworkTransition spec: dyad-indicator W, time-major observations."""
    D = n * (n - 1) // 2
    return ModelSpec(NETWORK, D * tau, incidence(np.arange(D * tau) % D, D),
                     d_x=d_x, n=n, tau=tau)


def all_paths(T):
    """All binary outcome paths of length T as a (2^T, T) int8 array.

    Row i holds the binary digits of i with y_1 as the most significant
    bit, so rows are sorted lexicographically.
    """
    if T > 24:
        raise ValueError("path enumeration limited to T <= 24")
    idx = np.arange(2**T, dtype=np.int64)
    return ((idx[:, None] >> np.arange(T - 1, -1, -1)) & 1).astype(np.int8)


def path_index(y):
    """Row index of path y in the ``all_paths`` enumeration."""
    y = np.asarray(y).astype(np.int64)
    T = y.shape[-1]
    weights = 1 << np.arange(T - 1, -1, -1, dtype=np.int64)
    return y @ weights


def _check_y0(spec, y0):
    y0 = np.zeros(0, dtype=np.int8) if y0 is None else np.asarray(y0, dtype=np.int8)
    if y0.shape != (spec.y0_len,):
        raise ValueError(f"y0 must have length {spec.y0_len}, got {y0.shape}")
    return y0


def _check_X(spec, X):
    if spec.d_x == 0:
        return None
    X = np.asarray(X, dtype=float)
    if X.shape != (spec.d_x, spec.T):
        raise ValueError(f"X must be d_x x T = {(spec.d_x, spec.T)}, got {X.shape}")
    return X


@lru_cache(maxsize=None)
def _shared_friend_slots(n):
    # per dyad (i,j): pairs of dyad indices (i,k), (j,k) over k not in {i,j}
    index = {d: k for k, d in enumerate(dyads(n))}
    slots = []
    for (i, j) in dyads(n):
        pairs = []
        for k in range(n):
            if k in (i, j):
                continue
            a = index[(min(i, k), max(i, k))]
            b = index[(min(j, k), max(j, k))]
            pairs.append((a, b))
        slots.append(tuple(pairs))
    return tuple(slots)


def shared_friends(spec, nets):
    """Shared-neighbour counts R for a batch of networks.

    Parameters
    ----------
    nets : array, shape (..., n_dyads)
        Link indicators, dyads in lexicographic order.

    Returns
    -------
    array, shape (..., n_dyads) of integers.
    """
    nets = np.asarray(nets, dtype=np.int64)
    R = np.zeros(nets.shape, dtype=np.int64)
    for d, pairs in enumerate(_shared_friend_slots(spec.n)):
        for a, b in pairs:
            R[..., d] += nets[..., a] * nets[..., b]
    return R


def exact_key(values):
    """Exact comparison key of design columns W or loadings W y.

    int64 when every entry is integral within 1e-9.  Otherwise the
    sorted values split into clusters wherever a gap exceeds 1e-9 and
    each value maps to the start of its cluster, so that float noise
    (0.1 + 0.2 against 0.3) gives one key even across a rounding
    boundary.  Keys compare within one call only.
    """
    values = np.asarray(values, dtype=float)
    ints = np.rint(values)
    if np.all(np.abs(values - ints) < 1e-9):
        return ints.astype(np.int64)
    ranked, inverse = np.unique(values, return_inverse=True)
    start = np.concatenate([[True], np.diff(ranked) > 1e-9])
    return ranked[start][np.cumsum(start) - 1][inverse].reshape(values.shape)


def lag_features(spec, states):
    """Integer features that pi reads from states, (..., step_width, k).

    A state (last axis) holds the ``y0_len`` outcomes preceding one
    step.  The features of its observation are (y_{t-1}, ..., y_{t-p})
    for ``ar``; for ``network``, each dyad's previous-period link and
    shared-friend count; ``static`` has none (k = 0).
    """
    states = np.asarray(states)
    if spec.family == NETWORK:
        return np.stack([states, shared_friends(spec, states)], axis=-1)
    return states[..., None, ::-1]


def step_index(spec, states, x, theta):
    """The index kernel pi = sum_k dyn_k Z_k + x'beta over one step.

    ``states`` is (..., y0_len) and ``x`` holds the step's covariates
    as (..., d_x, step_width), or None without covariates.  Returns
    pi, (..., step_width), excluding the w_t'A term.
    """
    dyn, beta = spec.split_theta(theta)
    Z = lag_features(spec, states)
    pi = np.zeros(Z.shape[:-1])
    for k, coef in enumerate(dyn):
        pi += coef * Z[..., k]
    if spec.d_x:
        pi += np.einsum("...dw,d->...w", np.asarray(x, dtype=float), beta)
    return pi


def path_states(spec, paths, y0):
    """The state feeding each step of each path, (m, T/step_width, y0_len)."""
    paths = np.atleast_2d(np.asarray(paths))
    L0 = spec.y0_len
    full = np.concatenate([np.broadcast_to(y0, (len(paths), L0)), paths], axis=1)
    return sliding_window_view(full, L0, axis=1)[:, : spec.T: spec.step_width]


def index_matrix(spec, paths, y0, X, theta):
    """Index values pi_t for a batch of outcome paths.

    Parameters
    ----------
    paths : array, shape (m, T)
        Binary outcome paths.
    y0 : array or None
        Initial-condition block (chronological; empty for static).
    X : array or None
        Covariates, d_x x T.
    theta : array
        Parameter vector in the spec's layout.

    Returns
    -------
    array, shape (m, T) with pi_t excluding the w_t'A term.
    """
    paths = np.atleast_2d(np.asarray(paths))
    m, T = paths.shape
    if T != spec.T:
        raise ValueError(f"paths must have T={spec.T} columns")
    y0 = _check_y0(spec, y0)
    X = _check_X(spec, X)
    w = spec.step_width
    x = None if X is None else X.reshape(spec.d_x, T // w, w).swapaxes(0, 1)
    return step_index(spec, path_states(spec, paths, y0), x, theta).reshape(m, T)


def log_path_distribution(spec, y0, X, theta, A, paths=None):
    """Log probability of each path in a batch (all 2^T paths by default)."""
    if paths is None:
        paths = all_paths(spec.T)
    paths = np.atleast_2d(np.asarray(paths))
    A = np.asarray(A, dtype=float)
    if A.shape != (spec.d_w,):
        raise ValueError(f"A must have length {spec.d_w}")
    if not np.all(np.isfinite(A)):
        raise ValueError("A must be finite")
    pi = index_matrix(spec, paths, y0, X, theta)
    eta = pi + spec.W.T @ A
    return np.sum(paths * eta - np.logaddexp(0.0, eta), axis=1)


def path_distribution(spec, y0, X, theta, A, paths=None):
    return np.exp(log_path_distribution(spec, y0, X, theta, A, paths))


def path_probability(spec, y, y0, X, theta, A):
    """Exact probability of a single outcome path, computed in log space."""
    return float(
        np.exp(log_path_distribution(spec, y0, X, theta, A, np.atleast_2d(y))[0])
    )


def likelihood_ratio(spec, y1, y2, y0, X, theta, A):
    """Ratio Pr(Y = y1 | .) / Pr(Y = y2 | .) for a shared initial condition."""
    lp = log_path_distribution(spec, y0, X, theta, A, np.vstack([y1, y2]))
    return float(np.exp(lp[0] - lp[1]))
