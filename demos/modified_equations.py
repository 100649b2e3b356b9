"""
Building and solving the modified equations directly
====================================================

The SDE side of the library as a standalone toolbox: build the modified
equation of an algorithm, integrate it weakly with Euler-Maruyama, and
cross-check against the closed forms.  Three routes to the same number --
sampled SDE, exact Gaussian expectation, mode-by-mode quadrature -- agree
within Monte Carlo error, which is the consistency check everything else
in the library leans on.
"""

import numpy as np

from smelab.analysis import decay_bound_check
from smelab.models import ISOTROPIC_SHIFT, from_spectrum
from smelab.sga import MSGD, SGD
from smelab.sme import (R_function, build_sme, em_integrate_ensemble,
                        langevin_expected_f_exact,
                        langevin_expected_f_quadrature, langevin_system,
                        ou_expected_f)

model = from_spectrum(ISOTROPIC_SHIFT, [1.0, 0.1])
x0 = np.array([1.0, 1.0])
eta = 0.1

# --- SGD: Euler-Maruyama on the order-1 SME vs the OU closed form --------
system = build_sme(model, SGD, 1, eta)
stats = em_integrate_ensemble(system, x0, 2.0, n_paths=20000, seed=7,
                              substeps=20, threads=2)
print("SGD order-1 SME, E f at a few times (EM vs closed form):")
for k in (5, 10, 20):
    closed = ou_expected_f(model.spec, x0, eta, stats.times[k])
    print("  t=%4.1f  em %.5f +- %.5f   closed %.5f"
          % (stats.times[k], stats.mean[k], stats.stderr[k], closed))

# --- MSGD: the SME is an underdamped Langevin equation --------------------
# Its E f decomposes into a decaying transient plus an accumulated-noise
# term, the x-variance of each mode's Lyapunov covariance; the same
# quantity is also available by adaptive quadrature over the modes.
mu = 0.8
lsys = langevin_system(model.spec, mu, eta)
print()
print("MSGD Langevin SME, mu = %g (exact vs quadrature):" % mu)
for t in (1.0, 5.0, 25.0):
    exact = langevin_expected_f_exact(lsys, x0, t)
    quadr = langevin_expected_f_quadrature(lsys, x0, t)
    print("  t=%5.1f  exact %.6f   quadrature %.6f   rel gap %.1e"
          % (t, exact, quadr, abs(exact - quadr) / exact))
print("stationary value (t=inf): %.6f"
      % langevin_expected_f_exact(lsys, x0, np.inf))
print("R-function tail for the slow mode: R(inf) = %.4f = min(mu/4lam, 1/mu)"
      % R_function(np.inf, mu, 0.1))

# --- Decay bound: ||e^{tA}|| <= C e^{-rate t} over the whole family ------
bound = decay_bound_check(lsys.blocks, np.linspace(0.0, 50.0, 501))
print()
print("decay bound on the Langevin drift: rate %.4f, constant %.2f, "
      "holds on the grid: %s" % (bound.rate, bound.constant, bound.holds))
