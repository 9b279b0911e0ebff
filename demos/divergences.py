"""Matrix beta-divergences: the Bregman family behind the beta-mean.

Shows the interpolation between squared Frobenius distance (beta=1), the
von Neumann divergence (beta=0, the beta -> 0 limit), and the log-determinant
divergence (beta=-1, the beta -> -1 limit), and numerically checks that the
beta-mean is the divergence minimizer.

Run:  python3 demos/divergences.py
"""

import numpy as np

from betadpca import BetaConfig, divergence, verify_minimizer

rng = np.random.default_rng(11)
q1, _ = np.linalg.qr(rng.standard_normal((4, 4)))
q2, _ = np.linalg.qr(rng.standard_normal((4, 4)))
m1 = (q1 * [3.0, 2.0, 1.0, 0.5]) @ q1.T
m2 = (q2 * [2.5, 1.5, 1.0, 0.8]) @ q2.T

# --- one pair of matrices across the whole family ------------------------
print("D_beta(M1, M2) along the family:")
for beta in (2.0, 1.0, 0.5, 0.1, 1e-3):
    print(f"  beta={beta:6.3f}: {divergence(m1, m2, beta):.6f}")
print(f"  von Neumann : {divergence(m1, m2, 0.0):.6f}")
for beta in (-0.5, -1.0 + 1e-3):
    print(f"  beta={beta:6.3f}: {divergence(m1, m2, beta):.6f}")
print(f"  log-det     : {divergence(m1, m2, -1.0):.6f}")

# beta=1 is exactly half the squared Frobenius distance
d1 = divergence(m1, m2, 1.0)
print("\nbeta=1 vs 0.5*||M1-M2||_F^2:", d1, 0.5 * np.linalg.norm(m1 - m2) ** 2)

# divergences are not symmetric
print("D(M1,M2) vs D(M2,M1) at beta=0.5:",
      divergence(m1, m2, 0.5), divergence(m2, m1, 0.5))

# --- the beta-mean minimizes the averaged divergence ----------------------
# Perturb the computed mean 200 times; the objective never goes down.
mats = [m1, m2, (q1 * [1.0, 0.9, 0.7, 0.6]) @ q1.T]
for beta in (1.0, 0.0, -1.0):
    rep = verify_minimizer(mats, BetaConfig(beta=beta, delta=1e-6),
                           trials=200, noise_scale=0.2, seed=3)
    print(f"beta={beta:+.0f}: J(center)={rep.objective_at_center:.6f}  "
          f"min margin={rep.min_margin:.3e}  all >= 0: {rep.all_nonnegative}")
