"""Data-generating processes and a Monte Carlo harness.

The generator draws covariates, fixed effects (optionally correlated
with the covariates, which the estimators must tolerate), and initial
conditions, then rolls outcomes forward step by step through the index
kernel ``model.step_index``.  A config's seed fully determines the sample.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from numbers import Real
from time import perf_counter

import numpy as np

from .estimation import NoInformationError, Sample
from .model import checked_int, step_index

# Each law's kinds, each kind's parameters and their defaults.  DGPConfig
# refuses other keys and fills in the defaults, so the draws below read
# every parameter as it is and take a law's last kind untested.
LAWS = {"a_law": {"normal": {"loc": 0.0, "scale": 1.0},
                  "correlated": {"rho": 0.5, "scale": 1.0},
                  "two_point": {"lo": -1.0, "hi": 1.0, "p": 0.5}},
        "x_law": {"iid_normal": {"scale": 1.0}, "ar": {"phi": 0.5, "scale": 1.0},
                  "constant": {"scale": 1.0}},
        "y0_law": {"fixed": {"value": 0}, "stationary": {"burn_in": 50}}}
# Parameters held to a narrower range than the finite numbers, with that
# range as a refusal states it.
_RANGES = {"scale": (" >= 0", lambda v: v >= 0),
           "phi": (" in (-1, 1)", lambda v: abs(v) < 1),
           "p": (" in [0, 1]", lambda v: 0 <= v <= 1)}


def _checked_law(key, law):
    """``law`` with its kind's parameters checked and defaults filled in."""
    kinds = LAWS[key]
    if not isinstance(law, dict) or law.get("kind") not in kinds:
        raise ValueError(f"{key} must have kind {' or '.join(kinds)}, found {law!r}")
    known, params = kinds[law["kind"]], {**kinds[law["kind"]], **law}
    unknown = sorted(set(params) - {"kind", *known})
    if unknown:
        raise ValueError(f"{key} {law['kind']} takes {', '.join(known)}, "
                         f"found {', '.join(unknown)}")
    for name, v in params.items():
        if name == "burn_in":
            params[name] = checked_int(f"{key} burn_in", v, 0)
        elif name not in ("kind", "value"):
            rule, ok = _RANGES.get(name, ("", np.isfinite))
            try:  # a bool is no number here, nor an int past the float range
                x = float(v) if isinstance(v, Real) and not isinstance(v, bool) else np.nan
            except OverflowError:
                x = np.nan
            if not np.isfinite(x) or not ok(x):
                raise ValueError(f"{key} {name} must be a finite number{rule}, found {v!r}")
            params[name] = x
    return params


@dataclass
class DGPConfig:
    """Simulation design: model, truth, laws for (A, X, Y0), size, seed.

    Laws are dicts with a ``kind`` field and that kind's parameters in
    ``LAWS``: scale >= 0, |phi| < 1, 0 <= p <= 1, an integer burn_in >= 0
    and other numbers finite.  A ``correlated`` a_law draws A_k = rho *
    mean_t x_1t + noise; a ``fixed`` y0_law value is 0, 1 or y0_len 0/1
    outcomes.  A ``stationary`` y0 rolls the model forward from an
    all-zero state over burn_in steps; step b uses the effects and
    covariates of step b mod (number of steps), i.e. period b mod T of
    an AR panel and period b mod tau of a network.
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
        for key in LAWS:
            setattr(self, key, _checked_law(key, getattr(self, key)))
        if self.a_law["kind"] == "correlated" and self.spec.d_x == 0:
            raise ValueError("correlated a_law needs at least one covariate")
        if self.y0_law["kind"] == "fixed":
            value = np.asarray(self.y0_law["value"])
            if value.shape not in ((), (self.spec.y0_len,)) or not set(value.flat) <= {0, 1}:
                raise ValueError(f"fixed y0_law value must be 0, 1 or a 0/1 list of "
                                 f"length {self.spec.y0_len}, found {value.tolist()!r}")


def _draw_X(cfg, rng):
    spec, law = cfg.spec, cfg.x_law
    n, d_x, T, scale = cfg.n, spec.d_x, spec.T, law["scale"]
    if d_x == 0:
        return None
    if law["kind"] == "iid_normal":
        return scale * rng.standard_normal((n, d_x, T))
    if law["kind"] == "ar":
        phi = law["phi"]
        X = np.empty((n, d_x, T))
        X[:, :, 0] = scale * rng.standard_normal((n, d_x))
        for t in range(1, T):
            X[:, :, t] = (phi * X[:, :, t - 1]
                          + scale * np.sqrt(1 - phi**2) * rng.standard_normal((n, d_x)))
        return X
    base = scale * rng.standard_normal((n, d_x, 1))  # "constant"
    return np.repeat(base, T, axis=2)


def _draw_A(cfg, X, rng):
    n, d_w, law = cfg.n, cfg.spec.d_w, cfg.a_law
    if law["kind"] == "normal":
        return law["loc"] + law["scale"] * rng.standard_normal((n, d_w))
    if law["kind"] == "correlated":
        base = law["rho"] * X[:, 0, :].mean(axis=1)
        return base[:, None] + law["scale"] * rng.standard_normal((n, d_w))
    return np.where(rng.random((n, d_w)) < law["p"], law["hi"], law["lo"])  # "two_point"


def _roll(spec, state, steps, X, A, theta, rng):
    """Draw the outcomes of ``steps`` (step-periods) in turn through the
    index kernel.

    The state feeding each step is the y0_len outcomes before it, taken
    from ``state`` and the draws so far; step-period s loads the effects
    and covariates of observations s*w .. (s+1)*w - 1, w = step_width,
    and each step draws n * w uniforms.  Returns ``state`` followed by
    every draw, time-major: (L0 + len(steps) * w, n).
    """
    (n, L0), w = state.shape, spec.step_width
    effects = [A @ spec.W[:, s * w: (s + 1) * w] for s in range(spec.T // w)]
    full = np.empty((L0 + len(steps) * w, n), dtype=np.int8)
    full[:L0] = state.T
    with np.errstate(over="ignore"):  # exp(-eta) = inf gives Pr = 0
        for i, s in enumerate(steps):
            x = None if X is None else X[:, :, s * w: (s + 1) * w]
            eta = step_index(spec, full[i * w: i * w + L0].T, x, theta) + effects[s]
            full[L0 + i * w: L0 + (i + 1) * w] = (rng.random((n, w)) < 1 / (1 + np.exp(-eta))).T
    return full


def generate(cfg):
    """Draw a Sample from the configured process; bit-reproducible.  A
    stationary y0 ends a burn-in from the all-zero state, rolled together
    with the sample's steps; a static model has no state to burn in."""
    spec, law, L0, w = cfg.spec, cfg.y0_law, cfg.spec.y0_len, cfg.spec.step_width
    rng = np.random.default_rng(cfg.seed)
    X = _draw_X(cfg, rng)
    A = _draw_A(cfg, X, rng)
    state, burn = np.zeros((cfg.n, L0), dtype=np.int8), 0
    if law["kind"] == "fixed":
        state[:] = np.asarray(law["value"], dtype=np.int8)
    elif L0:
        burn = law["burn_in"]
    steps = np.concatenate([np.arange(burn) % (spec.T // w), np.arange(spec.T // w)])
    full = np.ascontiguousarray(_roll(spec, state, steps, X, A, cfg.theta, rng)[burn * w:].T)
    return Sample(spec=spec, Y=full[:, L0:], Y0=full[:, :L0], X=X)


def _rep_seed(seed, rep):
    return int(np.random.SeedSequence([int(seed), int(rep)]).generate_state(1)[0])


def monte_carlo(cfg, estimator, replications, threads=1):
    """Replicate generate -> estimate and summarize bias, RMSE, coverage.

    ``estimator`` maps a Sample to an EstimateReport.  Estimation
    failures (``NoInformationError``, ``LinAlgError``) are recorded per
    replication with their ``error_type`` and excluded from the summary;
    any other exception propagates.  Every row, failed ones included,
    holds the wall time of its generate + estimate as ``elapsed_s``.  Each
    replication draws from an independently derived seed, so results do
    not depend on execution order.
    """
    if replications < 1:
        raise ValueError("need at least one replication")
    spec = cfg.spec
    truth = dict(zip(spec.theta_names(), cfg.theta))

    def run(rep):
        sub = replace(cfg, seed=_rep_seed(cfg.seed, rep))
        row, start = {"rep": rep, "seed": sub.seed}, perf_counter()
        try:
            report = estimator(generate(sub))
            for name, est, se in zip(report.names, report.theta, report.std_errors):
                row[name], row[f"se_{name}"] = float(est), float(se)
            row["converged"] = bool(report.converged)
        except (NoInformationError, np.linalg.LinAlgError) as exc:
            row["error_type"] = type(exc).__name__
            row["error"] = f"{type(exc).__name__}: {exc}"
        row["elapsed_s"] = perf_counter() - start
        return row

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(run, range(replications)))
    else:
        rows = [run(r) for r in range(replications)]

    summary = {}
    for name, true_val in truth.items():
        ok = [r for r in rows if name in r and np.isfinite(r[name])]
        ests, ses = np.array([r[name] for r in ok]), np.array([r[f"se_{name}"] for r in ok])
        if ests.size == 0 or not np.all(np.isfinite(ses)):
            continue
        cover = np.abs(ests - true_val) <= 1.96 * ses
        summary[name] = {"truth": true_val, "bias": float(np.mean(ests) - true_val),
                         "rmse": float(np.sqrt(np.mean((ests - true_val) ** 2))),
                         "coverage": float(np.mean(cover)), "n_ok": int(ests.size)}
    summary["n_failed"] = sum("error" in r for r in rows)
    return rows, summary
