"""Stochastic gradient algorithms, their modified equations, and checks.

The package ties together four layers:

* ``matkit`` / ``rng`` -- dense linear-algebra helpers for small symmetric
  systems and a counter-based RNG for reproducible ensembles.
* ``models``           -- the two quadratic test models (additive-noise
  ``isotropic_shift`` and multiplicative-noise ``eigenbasis_scaled``).
* ``sga`` / ``sme``    -- the discrete algorithms (sgd, msgd, snag, Nesterov
  schedule) with exact moment recursions, and their stochastic modified
  equations with closed-form expectations and EM integration.
* ``analysis`` / ``repro`` / ``cli`` -- spectra, rates, decay bounds, and the
  config-driven experiments with CSV/SVG artifacts.
"""

from .matkit import (Block2x2Family, MatkitError, SpectralDecomp,
                     block_reduce, check_symmetric, condition_spectrum,
                     haar_orthogonal, mat_exp_2x2, mat_exp_dense,
                     spd_with_condition, sym_eig)
from .models import (EIGENBASIS_SCALED, ISOTROPIC_SHIFT, QuadraticModel,
                     from_matrix, from_spectrum, grad_full, objective,
                     observable_fn, sigma, sigma_mc, sigma_sqrt)
from .sga import (MSGD, SGD, SNAG, AlgoSpec, ConstantMomentum, EnsembleStats,
                  IterState, NesterovSchedule, exact_moment_recursion,
                  init_state, iteration_count, mu_at, nesterov_mu, rescale,
                  rescale_inverse, run_ensemble, run_path, step,
                  supports_exact_moments)
from .sme import (SNAG_VARYING, SmeSystem, asymptotic_noise_msgd,
                  bs_expected_f, build_sme, em_integrate_ensemble,
                  langevin_expected_f_exact, langevin_expected_f_quadrature,
                  langevin_system, linear_sme_moments, one_step_moments,
                  ou_expected_f, R_function)
from .analysis import (DecayBound, EigenReport, RateFit, classify_damping,
                       decay_bound_check, descent_rate,
                       discrete_divergence_threshold, discrete_growth_factors,
                       divergence_threshold, fit_loglog_slope, momentum_eigs,
                       optimal_mu, order2_eigs, varying_momentum_eigs)
from .repro import (Check, ConfigError, ExperimentConfig, ExperimentReport,
                    Panel, Table, default_config, emit_csv, emit_svg,
                    exp_condition_sweep, exp_divergence, exp_momentum_dynamics,
                    exp_msgd_vs_snag, exp_weak_error, parse_csv, render_csv,
                    render_svg, run_experiment)
from . import cli  # noqa: F401 -- every layer is an attribute after `import smelab`

__version__ = "0.1.0"

__all__ = [
    "Block2x2Family", "MatkitError", "SpectralDecomp", "block_reduce",
    "check_symmetric", "condition_spectrum", "haar_orthogonal", "mat_exp_2x2",
    "mat_exp_dense", "spd_with_condition", "sym_eig",
    "EIGENBASIS_SCALED", "ISOTROPIC_SHIFT", "QuadraticModel", "from_matrix",
    "from_spectrum", "grad_full", "objective", "observable_fn", "sigma",
    "sigma_mc", "sigma_sqrt",
    "MSGD", "SGD", "SNAG", "AlgoSpec", "ConstantMomentum", "EnsembleStats",
    "IterState", "NesterovSchedule", "exact_moment_recursion", "init_state",
    "iteration_count", "mu_at", "nesterov_mu", "rescale", "rescale_inverse",
    "run_ensemble", "run_path", "step", "supports_exact_moments",
    "SNAG_VARYING", "SmeSystem", "asymptotic_noise_msgd", "bs_expected_f",
    "build_sme", "em_integrate_ensemble", "langevin_expected_f_exact",
    "langevin_expected_f_quadrature", "langevin_system", "linear_sme_moments",
    "one_step_moments", "ou_expected_f", "R_function",
    "DecayBound", "EigenReport", "RateFit", "classify_damping",
    "decay_bound_check", "descent_rate", "discrete_divergence_threshold",
    "discrete_growth_factors", "divergence_threshold", "fit_loglog_slope",
    "momentum_eigs", "optimal_mu", "order2_eigs", "varying_momentum_eigs",
    "Check", "ConfigError", "ExperimentConfig", "ExperimentReport", "Panel",
    "Table", "default_config", "emit_csv", "emit_svg", "exp_condition_sweep",
    "exp_divergence", "exp_momentum_dynamics", "exp_msgd_vs_snag",
    "exp_weak_error", "parse_csv", "render_csv", "render_svg",
    "run_experiment",
    "__version__",
]
