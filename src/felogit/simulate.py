"""Data-generating processes and a Monte Carlo harness.

The generator draws covariates, fixed effects (optionally correlated
with the covariates, which the estimators must tolerate), and initial
conditions, then rolls outcomes forward step by step through the
model's index kernel.  A config's seed fully determines the sample.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import expit

from .estimation import NoInformationError, Sample
from .model import checked_int, step_index

# The kinds each law may take.  DGPConfig checks them, so each draw
# below takes its last kind untested.
LAWS = {"a_law": ("normal", "correlated", "two_point"),
        "x_law": ("iid_normal", "ar", "constant"),
        "y0_law": ("fixed", "stationary")}


@dataclass
class DGPConfig:
    """Simulation design: model, truth, laws for (A, X, Y0), size, seed.

    Laws are dicts with a ``kind`` field:

    * a_law: ``normal`` (loc, scale), ``correlated`` (rho, scale; A_k =
      rho * mean_t x_1t + noise), ``two_point`` (lo, hi, p).
    * x_law: ``iid_normal`` (scale), ``ar`` (phi, scale), ``constant``
      (scale).
    * y0_law: ``fixed`` (value: 0, 1 or y0_len outcomes of 0/1),
      ``stationary`` (burn_in, default 50).  The burn-in rolls the model
      forward from an all-zero state over burn_in steps; step b uses the
      effects and covariates of step b mod (number of steps), i.e.
      period b mod T of an AR panel and period b mod tau of a network.
    """

    spec: object
    theta: np.ndarray
    n: int
    seed: int
    a_law: dict = field(default_factory=lambda: {"kind": "normal", "scale": 1.0})
    x_law: dict = field(default_factory=lambda: {"kind": "iid_normal", "scale": 1.0})
    y0_law: dict = field(default_factory=lambda: {"kind": "fixed", "value": 0})

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        if self.theta.shape != (self.spec.theta_dim,):
            raise ValueError(f"theta must have length {self.spec.theta_dim}, "
                             f"found {self.theta.size}")
        self.n = checked_int("n", self.n, 1)
        self.seed = checked_int("seed", self.seed, 0)
        for key, kinds in LAWS.items():
            law = getattr(self, key)
            if not isinstance(law, dict) or law.get("kind") not in kinds:
                raise ValueError(f"{key} must have kind {' or '.join(kinds)}, "
                                 f"found {law!r}")
        if self.a_law["kind"] == "correlated" and self.spec.d_x == 0:
            raise ValueError("correlated a_law needs at least one covariate")
        if self.y0_law["kind"] == "fixed":
            value = np.asarray(self.y0_law.get("value", 0))
            if value.shape not in ((), (self.spec.y0_len,)) or not set(value.flat) <= {0, 1}:
                raise ValueError(f"fixed y0_law value must be 0, 1 or a 0/1 list of "
                                 f"length {self.spec.y0_len}, found {value.tolist()!r}")


def _draw_X(cfg, rng):
    spec = cfg.spec
    n, d_x, T = cfg.n, spec.d_x, spec.T
    if d_x == 0:
        return None
    law = cfg.x_law
    scale = float(law.get("scale", 1.0))
    if law["kind"] == "iid_normal":
        return scale * rng.standard_normal((n, d_x, T))
    if law["kind"] == "ar":
        phi = float(law.get("phi", 0.5))
        X = np.empty((n, d_x, T))
        X[:, :, 0] = scale * rng.standard_normal((n, d_x))
        for t in range(1, T):
            X[:, :, t] = phi * X[:, :, t - 1] + scale * np.sqrt(
                1 - phi**2
            ) * rng.standard_normal((n, d_x))
        return X
    base = scale * rng.standard_normal((n, d_x, 1))  # "constant"
    return np.repeat(base, T, axis=2)


def _draw_A(cfg, X, rng):
    spec = cfg.spec
    n, d_w = cfg.n, spec.d_w
    law = cfg.a_law
    kind = law["kind"]
    if kind == "normal":
        return float(law.get("loc", 0.0)) + float(
            law.get("scale", 1.0)
        ) * rng.standard_normal((n, d_w))
    if kind == "correlated":
        rho = float(law.get("rho", 0.5))
        scale = float(law.get("scale", 1.0))
        base = rho * X[:, 0, :].mean(axis=1)
        return base[:, None] + scale * rng.standard_normal((n, d_w))
    lo, hi = float(law.get("lo", -1.0)), float(law.get("hi", 1.0))  # "two_point"
    p = float(law.get("p", 0.5))
    return np.where(rng.random((n, d_w)) < p, hi, lo)


def _roll(spec, state, steps, X, A, theta, rng):
    """Draw the outcomes of ``steps`` in turn through the index kernel.

    The state feeding each step is the y0_len outcomes before it, taken
    from ``state`` and the draws so far; step s loads the effects and
    covariates of observations s*w .. (s+1)*w - 1, w = step_width.
    Returns ``state`` followed by every draw.
    """
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


def _draw_y0(cfg, X, A, rng):
    spec = cfg.spec
    n = cfg.n
    L0 = spec.y0_len
    law = cfg.y0_law
    if law["kind"] == "fixed":
        value = np.asarray(law.get("value", 0), dtype=np.int8)
        return np.broadcast_to(value, (n, L0)).copy()
    # a static model has no state to burn in, and draws nothing
    burn = int(law.get("burn_in", 50)) if L0 else 0
    steps = [b % (spec.T // spec.step_width) for b in range(burn)]
    full = _roll(spec, np.zeros((n, L0), dtype=np.int8), steps, X, A, cfg.theta, rng)
    # the last L0 outcomes; a slice from -L0 would keep all of them at L0 = 0
    return full[:, full.shape[1] - L0:]


def generate(cfg):
    """Draw a Sample from the configured process; bit-reproducible."""
    spec = cfg.spec
    rng = np.random.default_rng(cfg.seed)
    X = _draw_X(cfg, rng)
    A = _draw_A(cfg, X, rng)
    Y0 = _draw_y0(cfg, X, A, rng)
    full = _roll(spec, Y0, range(spec.T // spec.step_width), X, A, cfg.theta, rng)
    return Sample(spec=spec, Y=full[:, spec.y0_len:], Y0=Y0, X=X)


def _rep_seed(seed, rep):
    return int(np.random.SeedSequence([int(seed), int(rep)]).generate_state(1)[0])


def monte_carlo(cfg, estimator, replications, threads=1):
    """Replicate generate -> estimate and summarize bias, RMSE, coverage.

    ``estimator`` maps a Sample to an EstimateReport.  Estimation
    failures (``NoInformationError``, ``LinAlgError``) are recorded per
    replication with their ``error_type`` and excluded from the summary;
    any other exception propagates.  Each
    replication draws from an independently derived seed, so results do
    not depend on execution order.
    """
    if replications < 1:
        raise ValueError("need at least one replication")
    spec = cfg.spec
    truth = dict(zip(spec.theta_names(), cfg.theta))

    def run(rep):
        sub = replace(cfg, seed=_rep_seed(cfg.seed, rep))
        row = {"rep": rep, "seed": sub.seed}
        try:
            report = estimator(generate(sub))
            for name, est, se in zip(
                report.names, report.theta, report.std_errors
            ):
                row[name] = float(est)
                row[f"se_{name}"] = float(se)
            row["converged"] = bool(report.converged)
        except (NoInformationError, np.linalg.LinAlgError) as exc:
            row["error_type"] = type(exc).__name__
            row["error"] = f"{type(exc).__name__}: {exc}"
        return row

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(run, range(replications)))
    else:
        rows = [run(r) for r in range(replications)]

    summary = {}
    for name, true_val in truth.items():
        ests = np.array(
            [r[name] for r in rows if name in r and np.isfinite(r[name])]
        )
        ses = np.array(
            [r[f"se_{name}"] for r in rows if name in r and np.isfinite(r[name])]
        )
        if ests.size == 0 or not np.all(np.isfinite(ses)):
            continue
        cover = np.abs(ests - true_val) <= 1.96 * ses
        summary[name] = {
            "truth": true_val,
            "bias": float(np.mean(ests) - true_val),
            "rmse": float(np.sqrt(np.mean((ests - true_val) ** 2))),
            "coverage": float(np.mean(cover)),
            "n_ok": int(ests.size),
        }
    summary["n_failed"] = sum("error" in r for r in rows)
    return rows, summary
