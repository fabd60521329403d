"""Estimators on simulated data: CMLE variants and moment-based GMM.

Every design draws the fixed effects correlated with the covariates or
the initial conditions; the estimators must not care.
"""

import numpy as np

import felogit as fl
from felogit import designs, estimation, moments, simulate

# -- pairwise CMLE on the two-period panel ------------------------------------

spec = fl.build_design("panel_fe", T=2, d_x=1)
cfg = simulate.DGPConfig(
    spec=spec, theta=np.array([1.0]), n=5000, seed=1,
    a_law={"kind": "correlated", "rho": 0.5, "scale": 1.0},
)
rep = estimation.cmle_pairwise(simulate.generate(cfg), np.array([1, -1]))
print(f"pairwise CMLE, beta=1, effects correlated with X:")
print(f"    beta_hat = {rep.theta[0]:+.4f} (se {rep.std_errors[0]:.4f}), "
      f"{rep.diagnostics['n_rows']} informative units")

# -- dynamic CMLE on the AR(1) panel ------------------------------------------

cfg = simulate.DGPConfig(
    spec=fl.panel_ar(1, 3), theta=np.array([0.8]), n=20000, seed=2,
    y0_law={"kind": "stationary", "burn_in": 50},
)
rep = estimation.cmle(simulate.generate(cfg))
print(f"\ndynamic CMLE, gamma=0.8, T=3:")
print(f"    gamma_hat = {rep.theta[0]:+.4f} (se {rep.std_errors[0]:.4f})")

# -- dynamic CMLE with a binary covariate --------------------------------------
# The classes condition on (y0, X), so units that share a 0/1 covariate
# path share classes with several members.  The simulator draws
# continuous covariates, so this sample is rolled here.

rng = np.random.default_rng(6)
n, gamma, beta = 20000, 0.5, 1.0
X = rng.integers(0, 2, (n, 1, 4)).astype(float)
A = X[:, 0].mean(axis=1) - 0.5 + rng.standard_normal(n)  # correlated with X
Y0, Y = rng.integers(0, 2, (n, 1)), np.empty((n, 4), dtype=np.int8)
prev = Y0[:, 0]
for t in range(4):
    prev = Y[:, t] = rng.random(n) < 1 / (1 + np.exp(-(gamma * prev + beta * X[:, 0, t] + A)))
rep = estimation.cmle(
    estimation.Sample(spec=fl.panel_ar(1, 4, d_x=1), Y=Y, Y0=Y0, X=X))
print(f"\ndynamic CMLE with a binary covariate, gamma=0.5, beta=1, T=4:")
print(f"    theta_hat = {np.round(rep.theta, 4)} (se {np.round(rep.std_errors, 4)}), "
      f"{rep.diagnostics['n_informative']} informative units")

# -- GMM with closed-form moments ----------------------------------------------

cfg = simulate.DGPConfig(
    spec=fl.panel_ar(2, 3), theta=np.array([0.5, -0.3]), n=50000, seed=3,
    y0_law={"kind": "stationary", "burn_in": 50},
)
rep = estimation.gmm(simulate.generate(cfg), moments.Ar2T3Moments(), np.zeros(2))
print(f"\nGMM on AR(2) T=3 closed forms, truth (0.5, -0.3):")
print(f"    theta_hat = {np.round(rep.theta, 4)} "
      f"(se {np.round(rep.std_errors, 4)}), "
      f"Jacobian rank {rep.diagnostics['jacobian_rank']}")

qspec = designs.quarterly_ar(1, 6, d_x=1)
cfg = simulate.DGPConfig(
    spec=qspec, theta=np.array([0.5, 1.0]), n=50000, seed=4,
    a_law={"kind": "correlated", "rho": 0.5, "scale": 0.7},
)
rep = estimation.gmm(
    simulate.generate(cfg), moments.QuarterlyT6Moments(d_x=1), np.zeros(2)
)
print(f"\nGMM on quarterly T=6 moments, truth (0.5, 1.0), correlated effects:")
print(f"    theta_hat = {np.round(rep.theta, 4)} "
      f"(se {np.round(rep.std_errors, 4)})")

# -- a small Monte Carlo -------------------------------------------------------

spec = fl.build_design("panel_fe", T=2, d_x=1)
cfg = simulate.DGPConfig(spec=spec, theta=np.array([1.0]), n=2000, seed=5)
rows, summary = simulate.monte_carlo(
    cfg, lambda s: estimation.cmle_pairwise(s, np.array([1, -1])),
    replications=100,
)
s = summary["beta1"]
print(f"\nMonte Carlo, 100 replications of the pairwise CMLE at n=2000:")
print(f"    bias {s['bias']:+.4f}, rmse {s['rmse']:.4f}, "
      f"95% coverage {s['coverage']:.2f}")
