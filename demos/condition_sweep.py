"""
Convergence rate versus condition number
========================================

On an ill-conditioned quadratic the modified-equation picture predicts two
different scaling laws for the asymptotic descent rate of E f:

* plain SGD decays like kappa^-1 (rate ~ 2 eta lambda_min), while
* momentum SGD at the tuned momentum mu* = 2 sqrt(lambda_min) decays like
  kappa^-1/2 -- the classic square-root acceleration, visible directly in
  the measured per-iteration rates.

The experiment driver plants SPD matrices with prescribed condition
numbers, runs the exact moment recursions, extracts descent rates above
the noise floor, and fits the two log-log slopes.
"""

import dataclasses

from smelab.repro import default_config, exp_condition_sweep

# A trimmed version of the default sweep (three condition numbers instead
# of five) keeps this demo fast; the acceptance-scale run uses defaults.
config = dataclasses.replace(default_config("condition_sweep"),
                             kappa=(10.0, 100.0, 1000.0), horizon=9000.0)
report = exp_condition_sweep(config)

print("measured per-iteration descent rates (eta = %g):" % config.eta_grid[0])
print("%10s  %12s  %12s" % ("kappa", "sgd rate", "msgd rate"))
rates = {}
for table in report.tables:
    for _, kappa, rate, family in table.rows:
        rates[(family, kappa)] = rate
for kappa in config.kappa:
    print("%10g  %12.3e  %12.3e"
          % (kappa, rates[("sgd", kappa)], rates[("msgd", kappa)]))

print()
print("log-log slope of rate vs kappa:")
slopes = {table.name: table.footer.slope for table in report.tables}
print("  sgd  %.3f   (prediction -1)" % slopes["sweep_sgd"])
print("  msgd %.3f   (prediction -1/2)" % slopes["sweep_msgd"])

print()
for check in report.checks:
    print("%s %s (%s)" % ("PASS" if check.passed else "FAIL",
                          check.name, check.detail))

# The same experiment, with CSV/SVG artifacts, runs via
#   python -m smelab sweep
