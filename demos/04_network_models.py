"""Dynamic dyadic network formation with dyad fixed effects.

Links form period by period, driven by the lagged link, the number of
shared neighbours, and a dyad-specific effect.  Conditioning on the
right sets of alternative histories removes every dyad effect, and for
three observed periods the two-element swap set is almost always the
whole story.  The conditional MLE over those sets recovers both
coefficients from a sample of independent networks.
"""

import numpy as np

import felogit as fl
from felogit import estimation, model, simulate, sufficiency

rng = np.random.default_rng(3)

spec = fl.network_design(3, 3)
theta = np.array([0.7, 0.4])  # state dependence, transitivity
y0 = np.array([1, 1, 0])

print("n = 3 agents, 3 periods, dyads (12), (13), (23).")
y = rng.integers(0, 2, 9)
print(f"observed path by period: {y[:3].tolist()} {y[3:6].tolist()} "
      f"{y[6:].tolist()}")

star = fl.network_cond_star(spec, y)
full = fl.network_cond_full(spec, y)
print(f"swap set has {len(star)} member(s); exhaustive set has {len(full)}")

val = fl.network_cond_likelihood(spec, theta, y, y0, full)
print(f"conditional likelihood of the observed path: {val:.6f}")

print("\nThe value is exact: compare with enumeration at two different")
print("fixed effects (it cannot depend on them):")
for A in (np.array([-1.0, 0.5, 2.0]), np.zeros(3)):
    dist = fl.path_distribution(spec, y0, None, theta, A)
    num = dist[model.path_index(y)]
    den = sum(dist[model.path_index(m)] for m in full.members)
    print(f"    A = {A.tolist()}: {num / den:.6f}")

frac3 = sufficiency.network_star_equality_fraction(spec)
frac4 = sufficiency.network_star_equality_fraction(fl.network_design(4, 3))
print(f"\nswap set == exhaustive set: always at n=3 ({frac3:.0%}), "
      f"and in {frac4:.2%} of n=4 configurations")

print("\nConditional MLE on 2,000 simulated networks (the classes are the")
print("exhaustive sets; standard errors cluster by network):")
sample = simulate.generate(simulate.DGPConfig(spec=spec, theta=theta, n=2000, seed=4))
rep = estimation.cmle(sample)
for name, est, se, truth in zip(rep.names, rep.theta, rep.std_errors, theta):
    print(f"    {name:5s} = {est:+.4f} ± {se:.4f}   (truth {truth:+.1f})")
print(f"    {rep.diagnostics['n_informative']} of {sample.n} networks are informative")

print("\nTransition moments: one fixed-effect-free function per reference")
print("network, valid for GMM with covariates as well:")
ref = np.array([1, 0, 1])
m = fl.closed_form_network_transition(spec, ref, theta, y0)
grid = rng.uniform(-2, 2, (100, 3))
res = fl.verify_moment(m, spec, y0, None, theta, grid)
print(f"    reference {ref.tolist()}: max |E m| over 100 effects = {res:.2e}")
