"""Command-line front end: dispatch experiments, emit artifacts, selftest.

Subcommands
-----------
weak-error, sweep, divergence, momentum, compare-snag
    Run one experiment (built-in desk-scale defaults, or --config file),
    write its CSV/SVG artifacts, and print one PASS/FAIL line per check.
figures
    Run every experiment at its defaults, on each model variant it runs on,
    into one output directory.
selftest
    Run the oracle and invariant suites (no files written).

Exit codes: 0 all checks passed, 1 a check failed, 2 usage/config error
(the message names the offending config key).  Output directory precedence:
--out, then $SMELAB_OUT, then the config's out_dir.  The effective seed is
echoed into every CSV header comment.  Nothing is written outside the
output directory.
"""

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import repro
from .repro import ConfigError, ExperimentConfig, default_config
from .models import ISOTROPIC_SHIFT, from_spectrum


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="smelab",
        description="stochastic gradient algorithms, their modified "
                    "equations, and quantitative checks of the predictions")
    sub = parser.add_subparsers(dest="command")
    for experiment, entry in repro._TABLE.items():
        p = sub.add_parser(entry.command, help="run the %s experiment" % experiment)
        p.add_argument("--config", metavar="PATH",
                       help="JSON config file (default: built-in desk-scale "
                            "config)")
        p.set_defaults(experiments=(experiment,))
        _add_common_flags(p)
    fig = sub.add_parser("figures",
                         help="run every experiment at its defaults")
    fig.set_defaults(experiments=repro.EXPERIMENTS, config=None)
    _add_common_flags(fig)
    sub.add_parser("selftest", help="run the oracle and invariant suites")
    return parser


def _add_common_flags(p):
    p.add_argument("--out", metavar="DIR",
                   help="output directory (default: $SMELAB_OUT, then the "
                        "config's out_dir)")
    p.add_argument("--seed", type=int, metavar="N",
                   help="override the config seed")
    p.add_argument("--threads", type=int, metavar="N",
                   help="override the config worker count")


def _apply_overrides(cfg, args):
    """cfg with the flags given; an empty --out is given, an empty $SMELAB_OUT unset."""
    out = args.out if args.out is not None else os.environ.get("SMELAB_OUT") or None
    updates = dict(seed=args.seed, threads=args.threads, out_dir=out)
    return dataclasses.replace(cfg, **{k: v for k, v in updates.items() if v is not None})


def _load_configs(args):
    """The configs a command runs: its --config file, or the defaults of each
    of its experiments on each model variant the experiment runs on."""
    if args.config is not None:
        (experiment,) = args.experiments
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError("config: cannot read %s (%s)" % (args.config, exc))
        cfg = ExperimentConfig.from_json(text)
        if cfg.experiment != experiment:
            raise ConfigError("experiment: config declares %r but the %s "
                              "command runs %r"
                              % (cfg.experiment, args.command, experiment))
        configs = [cfg]
    else:
        configs = [dataclasses.replace(cfg, variant=variant)
                   for cfg in map(default_config, args.experiments)
                   for variant in repro._TABLE[cfg.experiment].variants]
    return [_apply_overrides(cfg, args) for cfg in configs]


def _run_configs(configs):
    failures = 0
    for cfg in configs:
        report = repro.run_experiment(cfg)
        os.makedirs(cfg.out_dir, exist_ok=True)
        for path in repro.emit_csv(report, cfg.out_dir):
            print("wrote %s" % path)
        for path in repro.emit_svg(report, cfg.out_dir):
            print("wrote %s" % path)
        for check in report.checks:
            status = "PASS" if check.passed else "FAIL"
            print("%s %s.%s (%s)"
                  % (status, report.experiment, check.name, check.detail))
            if not check.passed:
                failures += 1
    return 0 if failures == 0 else 1


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("smelab: a subcommand is required", file=sys.stderr)
        return 2
    try:
        if args.command == "selftest":
            return run_selftest()
        return _run_configs(_load_configs(args))
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


# ---------------------------------------------------------------------------
# selftest suites: oracle triangles and invariants, nothing written to disk
# ---------------------------------------------------------------------------


def _selftest_rng():
    """Core Philox block function against the numpy implementation.

    numpy's generator increments the counter (with carry) before producing
    its first block, so numpy(counter) must equal our block at counter + 1.
    Then a consecutive-path, multi-block raw_words request, which numpy's
    generator serves from counters that borrow through every word, must
    equal philox4x64 block by block.
    """
    from .rng import philox4x64, raw_words
    cases = [((10, 20, 30, 40), (12345, 678)),
             ((0, 0, 0, 0), (0, 0)),
             ((2 ** 64 - 1, 7, 0, 3), (2 ** 63, 2 ** 64 - 1))]
    for counter, key in cases:
        bg = np.random.Philox(counter=np.array(counter, dtype=np.uint64),
                              key=np.array(key, dtype=np.uint64))
        theirs = bg.random_raw(4)
        bumped = list(counter)
        bumped[0] = (bumped[0] + 1) % 2 ** 64
        if bumped[0] == 0:
            bumped[1] = (bumped[1] + 1) % 2 ** 64
        words = philox4x64(np.array(bumped, dtype=np.uint64),
                           np.array(key, dtype=np.uint64))
        mine = np.concatenate(words)
        if not np.array_equal(mine, np.asarray(theirs, dtype=np.uint64)):
            raise AssertionError("block mismatch at counter=%s key=%s"
                                 % (counter, key))
    paths = np.arange(3, dtype=np.uint64)
    words = raw_words(2 ** 63, 5, paths, 0, 0, 10)
    ref = philox4x64((paths[:, None], 0, 0, np.arange(3, dtype=np.uint64)),
                     (2 ** 63, 5))
    if not np.array_equal(words, np.stack(ref, axis=-1).reshape(3, 12)[:, :10]):
        raise AssertionError("path-run words differ from the emulation")
    return "%d counter/key pairs, 1 path run" % len(cases)


def _selftest_matkit():
    """Eigendecomposition and 2x2 exponential against dense references."""
    from .matkit import mat_exp_2x2, mat_exp_dense, sym_eig
    gen = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(5):
        d = int(gen.integers(2, 9))
        a = gen.standard_normal((d, d))
        h = 0.5 * (a + a.T)
        dec = sym_eig(h)
        lam_ref = np.sort(np.linalg.eigvalsh(h))[::-1]
        worst = max(worst, float(np.max(np.abs(dec.eigenvalues - lam_ref))))
        recon = dec.matrix()
        worst = max(worst, float(np.max(np.abs(recon - h))))
    if worst > 1e-9:
        raise AssertionError("eigensolver residual %.3e > 1e-9" % worst)
    worst = 0.0
    mats = [gen.standard_normal((2, 2)) for _ in range(5)]
    mats.append(np.array([[1.0, 1.0], [0.0, 1.0]]))      # defective
    for m in mats:
        diff = np.max(np.abs(mat_exp_2x2(m, 0.7) - mat_exp_dense(m, 0.7)))
        worst = max(worst, float(diff))
    if worst > 1e-10:
        raise AssertionError("mat_exp residual %.3e > 1e-10" % worst)
    return "eigen residual <= 1e-9, exponential residual <= 1e-10"


def _selftest_langevin():
    """Closed-form Langevin E f vs quadrature vs a small EM ensemble."""
    from .sga import MSGD, iteration_count
    from .sme import (build_sme, em_integrate_ensemble,
                      langevin_expected_f_exact, langevin_expected_f_quadrature)
    gen = np.random.default_rng(7)
    for trial in range(3):
        lam = np.sort(gen.uniform(0.2, 2.0, 2))[::-1]
        model = from_spectrum(ISOTROPIC_SHIFT, lam, noise_scale=0.5)
        mu = float(gen.uniform(0.3, 2.5))
        eta = float(gen.uniform(0.05, 0.15))
        n = int(gen.integers(10, 30))
        t = n * eta
        x0 = gen.uniform(0.5, 2.0, 2)
        system = build_sme(model, MSGD, 1, eta, mu)
        exact = langevin_expected_f_exact(system, x0, t)
        quad = langevin_expected_f_quadrature(system, x0, t)
        if abs(exact - quad) > 1e-8 * abs(quad):
            raise AssertionError("exact vs quadrature rel %.3e at trial %d"
                                 % (abs(exact - quad) / abs(quad), trial))
        stats = em_integrate_ensemble(system, x0, t, 4096, seed=90 + trial,
                                      substeps=20)
        k = iteration_count(t, eta)
        tol = 4.0 * stats.stderr[k] + 2.0 * (eta / 20.0) * abs(exact)
        if abs(stats.mean[k] - exact) > tol:
            raise AssertionError("EM deviates %.3e > %.3e at trial %d"
                                 % (abs(stats.mean[k] - exact), tol, trial))
    return "3 systems, exact/quadrature/EM agree"


def _selftest_moments():
    """Algebraic one-step moment identities of the order-2 truncations.

    On the additive-noise model the truncations reproduce the discrete
    one-step mean exactly for sgd and msgd (and the sgd second moment);
    snag's mean differs by exactly (mu eta^3 H v, -(1-mu eta) eta^3 H v).
    """
    from .sga import MSGD, SGD, SNAG
    from .sme import build_sme, one_step_moments
    lam = np.array([1.3, 0.4])
    ns = 0.6
    model = from_spectrum(ISOTROPIC_SHIFT, lam, noise_scale=ns)
    h = model.spec.matrix()
    eta, mu = 0.25, 0.7
    x = np.array([0.8, -1.2])
    v = np.array([0.5, 0.3])
    grad = h @ x

    sgd = build_sme(model, SGD, 2, eta)
    first, second, _ = one_step_moments(sgd, x)
    scale = max(1.0, float(np.max(np.abs(first))))
    if np.max(np.abs(first - (-eta * grad))) > 1e-9 * scale:
        raise AssertionError("sgd first moment not exact")
    want = eta * eta * (np.outer(grad, grad) + ns * ns * h @ h)
    if np.max(np.abs(second - want)) > 1e-9 * np.max(np.abs(want)):
        raise AssertionError("sgd second moment not exact")

    msgd = build_sme(model, MSGD, 2, eta, mu)
    y = np.concatenate([v, x])
    first, _, _ = one_step_moments(msgd, y)
    dv = -mu * eta * v - eta * grad
    want = np.concatenate([dv, eta * (v + dv)])
    if np.max(np.abs(first - want)) > 1e-9 * max(1.0, np.max(np.abs(want))):
        raise AssertionError("msgd first moment not exact")

    snag = build_sme(model, SNAG, 2, eta, mu)
    first, _, _ = one_step_moments(snag, y)
    dv = -mu * eta * v - eta * h @ (x + eta * (1.0 - mu * eta) * v)
    discrete = np.concatenate([dv, eta * (v + dv)])
    residual = discrete - first
    want = np.concatenate([mu * eta ** 3 * (h @ v),
                           -(1.0 - mu * eta) * eta ** 3 * (h @ v)])
    if np.max(np.abs(residual - want)) > 1e-9 * max(1.0, np.max(np.abs(want))):
        raise AssertionError("snag first-moment residual is not the "
                             "predicted eta^3 term")
    return "sgd/msgd exact, snag residual matches eta^3 term"


def _selftest_decay():
    """Exponential decay bound on five random momentum systems."""
    from .analysis import decay_bound_check
    from .sme import langevin_system
    gen = np.random.default_rng(11)
    t_grid = np.linspace(0.0, 50.0, 500)
    for trial in range(5):
        lam = np.sort(gen.uniform(0.1, 2.0, 3))[::-1]
        mu = float(gen.uniform(0.2, 3.0))
        model = from_spectrum(ISOTROPIC_SHIFT, lam)
        system = langevin_system(model.spec, mu, 0.1)
        bound = decay_bound_check(system.blocks, t_grid)
        if not bound.holds:
            raise AssertionError("decay bound violated for mu=%.3f lam=%s"
                                 % (mu, lam))
    return "5 random systems, zero violations"


def _selftest_determinism():
    """Re-running an experiment must reproduce every CSV byte-for-byte."""
    for runner in (repro.exp_weak_error, repro.exp_divergence):
        first = runner()
        again = runner()
        texts_a = [repro.render_csv(t) for t in first.tables]
        texts_b = [repro.render_csv(t) for t in again.tables]
        if texts_a != texts_b:
            raise AssertionError("%s is not deterministic" % first.experiment)
    return "repeated runs render identical CSV"


_SELFTEST_SUITES = (
    ("rng-philox-kat", _selftest_rng),
    ("matkit-eigen", _selftest_matkit),
    ("langevin-oracle-triangle", _selftest_langevin),
    ("one-step-moments", _selftest_moments),
    ("decay-bound", _selftest_decay),
    ("determinism", _selftest_determinism),
)


def run_selftest():
    """Run every suite; print one line per suite; 0 iff all passed."""
    failures = 0
    for name, suite in _SELFTEST_SUITES:
        try:
            detail = suite()
        except Exception as exc:
            print("FAIL %s (%s)" % (name, exc))
            failures += 1
            continue
        print("PASS %s (%s)" % (name, detail))
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
