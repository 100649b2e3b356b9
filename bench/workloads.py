"""The benchmark's workloads: inputs built from a seed, one timed pass, checks.

Each workload object builds its inputs in ``__init__`` (that is set-up), runs
one pass of named operations in ``run_pass`` (that is the measured work) and
judges a pass's outputs in ``judge`` (outside the measured region).  An
operation is one CLI config, one ensemble call or one prediction item.

Workload code reaches smelab only through module attributes at call time
(``sga.run_ensemble(...)``), so the tracer's re-bound wrappers see every call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from smelab import analysis, cli, matkit, models, sga, sme
from tracing import CHUNK, FIGURE_CONFIGS

ISO = models.ISOTROPIC_SHIFT
SCALED = models.EIGENBASIS_SCALED


@dataclass
class Op:
    """One operation of a pass: its output or the error it raised."""

    name: str
    seconds: float
    output: object = None
    error: str = None


def timed_op(name, fn):
    """Run fn as one operation; an exception is recorded, not raised."""
    start = time.perf_counter()
    try:
        output, error = fn(), None
    except Exception as exc:  # an operation that raises counts as failed
        output, error = None, "%s: %s" % (type(exc).__name__, exc)
    return Op(name, time.perf_counter() - start, output, error)


def digest(value):
    """Stable hash of an output, so passes can be compared bit for bit."""
    h = hashlib.sha256()

    def feed(v):
        if isinstance(v, np.ndarray):
            h.update(b"A%s%s" % (v.dtype.str.encode(), str(v.shape).encode()))
            h.update(np.ascontiguousarray(v).tobytes())
        elif dataclasses.is_dataclass(v) and not isinstance(v, type):
            h.update(type(v).__name__.encode())
            for f in dataclasses.fields(v):
                feed(getattr(v, f.name))
        elif isinstance(v, dict):
            h.update(b"D")
            for k in sorted(v):
                feed(k)
                feed(v[k])
        elif isinstance(v, (list, tuple)):
            h.update(b"L%d" % len(v))
            for item in v:
                feed(item)
        elif isinstance(v, bytes):
            h.update(b"B%d:" % len(v) + v)
        elif isinstance(v, (float, np.floating)):
            h.update(b"F" + float(v).hex().encode())
        else:
            h.update(b"S" + repr(v).encode())

    feed(value)
    return h.hexdigest()


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


class Workload:
    """Base: cross-pass determinism plus a per-op check run once per output."""

    name = ""

    def __init__(self, seed, out_root):
        self.seed = int(seed)
        self.out_root = out_root
        self._digests = {}
        self._verdicts = {}

    def run_pass(self):
        raise NotImplementedError

    def check(self, op, ops):
        """Failure reason for one op's output, or None when it is correct."""
        raise NotImplementedError

    def judge(self, ops):
        """{op name: failure reason} for the failed ops of one pass."""
        by_name = {op.name: op for op in ops}
        failures = {}
        for op in ops:
            if op.error is not None:
                failures[op.name] = op.error
                continue
            d = digest(op.output)
            if self._digests.setdefault(op.name, d) != d:
                failures[op.name] = "output differs from the first pass"
                continue
            if op.name not in self._verdicts:
                try:
                    self._verdicts[op.name] = self.check(op, by_name)
                except Exception as exc:  # a check that cannot run rejects
                    self._verdicts[op.name] = "check raised %s: %s" % (
                        type(exc).__name__, exc)
            if self._verdicts[op.name] is not None:
                failures[op.name] = self._verdicts[op.name]
        return failures


# ---------------------------------------------------------------------------
# figures: the user's headline run, in-process
# ---------------------------------------------------------------------------

def parse_figures_output(text):
    """Split `smelab figures` stdout into per-config (files, check lines).

    Each config prints its `wrote PATH` lines and then one PASS/FAIL line per
    check, so a `wrote` line after a check line starts the next config.
    """
    groups = []
    for line in text.splitlines():
        if line.startswith("wrote "):
            if not groups or groups[-1][1]:
                groups.append(([], []))
            groups[-1][0].append(os.path.basename(line[len("wrote "):]))
        elif line.startswith(("PASS ", "FAIL ")) and groups:
            groups[-1][1].append(line)
    return groups


class Figures(Workload):
    name = "figures"

    def __init__(self, seed, out_root):
        super().__init__(seed, out_root)
        self.argv = ["figures", "--seed", str(self.seed)]

    def run_pass(self):
        out_dir = tempfile.mkdtemp(prefix="figures-", dir=self.out_root)
        try:
            buf = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = cli.main(self.argv + ["--out", out_dir])
                error = None if rc in (0, 1) else "smelab figures exit code %r" % rc
            except Exception as exc:
                error = "%s: %s" % (type(exc).__name__, exc)
            seconds = time.perf_counter() - start
            files = {}
            for fname in sorted(os.listdir(out_dir)):
                with open(os.path.join(out_dir, fname), "rb") as handle:
                    files[fname] = handle.read()
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        groups = parse_figures_output(buf.getvalue())
        # the CLI runs every config in one call, so each op carries its time
        ops = []
        for i, name in enumerate(FIGURE_CONFIGS):
            if error is not None or i >= len(groups):
                ops.append(Op(name, seconds, None, error or "config did not run"))
                continue
            wrote, checks = groups[i]
            ops.append(Op(name, seconds,
                          (tuple(checks), {f: files.get(f) for f in wrote})))
        return ops

    def check(self, op, ops):
        checks, files = op.output
        experiment = op.name.split(".")[0]
        if not checks:
            return "no check lines printed"
        failed = [c for c in checks if not c.startswith("PASS ")]
        if failed:
            return "; ".join(failed)
        if any(c.split()[1].split(".")[0] != experiment for c in checks):
            return "check lines belong to another experiment"
        if not files or any(b is None or not b for b in files.values()):
            return "a reported artifact is missing or empty"
        return None

    def properties(self):
        return {"argv": self.argv + ["--out", "<per-pass directory>"],
                "configs": list(FIGURE_CONFIGS)}


# ---------------------------------------------------------------------------
# montecarlo: the counter RNG and the ensemble engines
# ---------------------------------------------------------------------------

N_PATHS = 2 * CHUNK + 808          # two full chunks and a partial third
RUN_PATHS = 24
THREAD_COUNTS = (1, 2)
SIGMA_DRAWS = (1 << 16) + 4000     # sigma_mc draws 2**16 at a time: one partial


@dataclass(frozen=True)
class EnsembleCase:
    name: str
    algo: object              # sga.AlgoSpec, or None for an EM case
    system: object            # sme.SmeSystem for an EM case
    model: object
    x0: np.ndarray
    substeps: int = 0


class Montecarlo(Workload):
    name = "montecarlo"

    def __init__(self, seed, out_root):
        super().__init__(seed, out_root)
        gen = np.random.default_rng(self.seed)
        ns = 0.5

        def model(kind, lam):
            lam = np.asarray(lam, dtype=float)
            basis = matkit.haar_orthogonal(lam.size, self.seed + lam.size)
            return models.from_spectrum(kind, lam, basis, noise_scale=ns)

        lam8 = matkit.condition_spectrum(8, 10.0)
        iso2 = model(ISO, [1.0, 0.3])
        iso8 = model(ISO, lam8)
        scaled8 = model(SCALED, lam8)
        x2 = gen.uniform(0.5, 1.5, 2)
        x8 = gen.uniform(0.5, 1.5, 8)
        self.ensembles = (
            EnsembleCase("sgd.iso.d2", sga.AlgoSpec(sga.SGD, 0.1, 2.0), None,
                         iso2, x2),
            EnsembleCase("sgd.scaled.d8", sga.AlgoSpec(sga.SGD, 0.05, 1.0), None,
                         scaled8, x8),
            EnsembleCase("msgd.const.d8",
                         sga.AlgoSpec(sga.MSGD, 0.1, 2.0, sga.ConstantMomentum(1.5)),
                         None, iso8, x8),
            EnsembleCase("snag.const.d2",
                         sga.AlgoSpec(sga.SNAG, 0.1, 2.0, sga.ConstantMomentum(1.0)),
                         None, iso2, x2),
            EnsembleCase("snag.sched.d8",
                         sga.AlgoSpec(sga.SNAG, 0.1, 2.0, sga.NesterovSchedule()),
                         None, iso8, x8),
            EnsembleCase("em.sgd2.d2", None, sme.build_sme(iso2, sga.SGD, 2, 0.1),
                         iso2, x2, substeps=8),
            EnsembleCase("em.msgd1.d2", None,
                         sme.build_sme(iso2, sga.MSGD, 1, 0.1, mu=1.2),
                         iso2, x2, substeps=8),
            EnsembleCase("em.msgd2.d8", None,
                         sme.build_sme(iso8, sga.MSGD, 2, 0.1, mu=1.5),
                         iso8, x8, substeps=4),
        )
        self.em_horizon = 0.6
        self.path_algo = sga.AlgoSpec(sga.MSGD, 0.1, 2.0, sga.ConstantMomentum(1.0))
        self.path_model = iso2
        self.path_x0 = x2
        self.sigma_model = scaled8
        self.sigma_x = x8

    def _ensemble(self, case, threads):
        if case.algo is not None:
            return sga.run_ensemble(case.algo, case.model, case.x0, N_PATHS,
                                    self.seed, threads=threads)
        return sme.em_integrate_ensemble(case.system, case.x0, self.em_horizon,
                                         N_PATHS, self.seed,
                                         substeps=case.substeps, threads=threads)

    def run_pass(self):
        ops = []
        for case in self.ensembles:
            for threads in THREAD_COUNTS:
                ops.append(timed_op("%s.t%d" % (case.name, threads),
                                    lambda: self._ensemble(case, threads)))
        for p in range(RUN_PATHS):
            ops.append(timed_op("run_path.%d" % p, lambda: sga.run_path(
                self.path_algo, self.path_model, self.path_x0, self.seed, path=p)))
        ops.append(timed_op("sigma_mc", lambda: models.sigma_mc(
            self.sigma_model, self.sigma_x, SIGMA_DRAWS, self.seed)))
        return ops

    def _reference(self, case):
        """Exact E f at the last recorded step, and the allowed bias."""
        if case.algo is not None:
            return sga.exact_moment_recursion(case.algo, case.model, case.x0)[-1], 0.0
        system = case.system
        spec = case.model.spec
        ns = case.model.noise_scale
        if system.family == sga.SGD:
            ref = sme.ou_expected_f(spec, case.x0, system.eta, self.em_horizon,
                                    ns, order=system.order)
        else:
            variant = "order1" if system.order == 1 else "msgd2"
            lsys = sme.langevin_system(spec, system.mu, system.eta, ns, variant)
            ref = sme.langevin_expected_f_exact(lsys, case.x0, self.em_horizon)
        # Euler-Maruyama weak-error allowance, as in smelab's selftest
        return ref, 2.0 * (system.eta / case.substeps) * abs(ref)

    def check(self, op, ops):
        stats = op.output
        if op.name.startswith("run_path."):
            return self._check_path(op, ops)
        if op.name == "sigma_mc":
            return self._check_sigma(stats)
        case_name, threads = op.name.rsplit(".t", 1)
        case = next(c for c in self.ensembles if c.name == case_name)
        if threads != "1":
            base = ops.get(case_name + ".t1")
            if base is None or base.output is None:
                return "no threads=1 result to compare with"
            same = all(np.array_equal(getattr(stats, f), getattr(base.output, f))
                       for f in ("times", "mean", "stderr"))
            if not same:
                return "threads=%s differs from threads=1" % threads
        ref, allowance = self._reference(case)
        tol = 4.0 * stats.stderr[-1] + allowance
        gap = abs(stats.mean[-1] - ref)
        if not (gap <= tol):
            return "last mean %.6g vs reference %.6g: gap %.3g > %.3g" % (
                stats.mean[-1], ref, gap, tol)
        return None

    def _check_path(self, op, ops):
        values = op.output
        if values.shape != (self.path_algo.n_steps + 1,) or not np.all(np.isfinite(values)):
            return "bad trajectory shape or non-finite values"
        # every path reproduces the ensemble's draws, so the mean of the
        # single paths is the ensemble mean up to rounding
        if "run_path.mean" not in self._verdicts:
            paths = [ops.get("run_path.%d" % p) for p in range(RUN_PATHS)]
            if any(p is None or p.output is None for p in paths):
                self._verdicts["run_path.mean"] = "a run_path call is missing"
            else:
                ens = sga.run_ensemble(self.path_algo, self.path_model,
                                       self.path_x0, RUN_PATHS, self.seed)
                mean = np.mean([p.output for p in paths], axis=0)
                err = np.max(np.abs(mean - ens.mean) / np.abs(ens.mean))
                self._verdicts["run_path.mean"] = None if err <= 1e-9 else \
                    "mean of run_path differs from run_ensemble by %.2e" % err
        return self._verdicts["run_path.mean"]

    def _check_sigma(self, est):
        sig = models.sigma(self.sigma_model, self.sigma_x)
        # sample covariance of Gaussian gradients: Var S_ij = (S_ii S_jj + S_ij^2)/(n-1)
        var = (np.outer(np.diag(sig), np.diag(sig)) + sig * sig) / (SIGMA_DRAWS - 1)
        z = np.abs(est - sig) / np.sqrt(var)
        worst = float(np.max(z))
        return None if worst <= 6.0 else "sigma_mc entry %.1f sd from sigma" % worst

    def properties(self):
        full = (N_PATHS // CHUNK) * CHUNK
        dims = {}
        for case in self.ensembles:
            dims[case.model.dim] = dims.get(case.model.dim, 0) + len(THREAD_COUNTS)
        dims[self.path_model.dim] = dims.get(self.path_model.dim, 0) + RUN_PATHS
        dims[self.sigma_model.dim] = dims.get(self.sigma_model.dim, 0) + 1
        return {"ensemble_calls": len(self.ensembles) * len(THREAD_COUNTS),
                "paths_per_ensemble": {"full_chunk": full, "partial_chunk": N_PATHS - full},
                "run_path_calls": RUN_PATHS,
                "sigma_mc_draws": SIGMA_DRAWS,
                "calls_by_dimension": {str(k): v for k, v in sorted(dims.items())}}


# ---------------------------------------------------------------------------
# exact: eigensolver, moment recursions, closed forms; no random draws
# ---------------------------------------------------------------------------

EXACT_DIMS = (2, 16, 64)
EXACT_KAPPA = 100.0
EXACT_ETA = 0.1
EXACT_STEPS = 3000
# the quadrature oracle assembles 2d x 2d matrices, and matkit caps them at 64
ORACLE_MAX_DIM = 32


def _momenta(lam):
    """A critical mu for one interior mode, and a mu that is critical for none."""
    crit = 2.0 * math.sqrt(float(lam[len(lam) // 2]))
    free = crit * 1.37
    while np.min(np.abs(free * free - 4.0 * lam)) < 1e-3:
        free *= 1.01
    return crit, free


class Exact(Workload):
    name = "exact"

    def __init__(self, seed, out_root):
        super().__init__(seed, out_root)
        gen = np.random.default_rng(self.seed)
        self.noise = 0.5
        self.matrices = {d: matkit.spd_with_condition(d, EXACT_KAPPA if d > 2 else 10.0,
                                                       self.seed)
                         for d in EXACT_DIMS}
        self.x0 = {d: gen.uniform(0.5, 1.5, d) for d in EXACT_DIMS}
        self.momenta = {d: _momenta(np.linalg.eigvalsh(self.matrices[d]))
                        for d in EXACT_DIMS}
        self.t_points = {2: np.linspace(0.5, 6.0, 12), 16: np.linspace(0.5, 6.0, 6),
                         64: np.linspace(1.0, 4.0, 3)}
        self.decay_grid = np.linspace(0.0, 40.0, 200)
        # a start far above the noise floor, so the descent window is long
        self.descent_series = sga.exact_moment_recursion(
            dict(self._algos())["msgd.const"],
            models.from_matrix(ISO, self.matrices[2], self.noise), 30.0 * self.x0[2])
        self.models = {}
        self.meta = {}      # op name -> (check kind, dimension, item parameters)

    @staticmethod
    def _algos():
        horizon = EXACT_STEPS * EXACT_ETA
        return (("sgd", sga.AlgoSpec(sga.SGD, EXACT_ETA, horizon)),
                ("msgd.const", sga.AlgoSpec(sga.MSGD, EXACT_ETA, horizon,
                                            sga.ConstantMomentum(0.3))),
                ("snag.const", sga.AlgoSpec(sga.SNAG, EXACT_ETA, horizon,
                                            sga.ConstantMomentum(0.3))),
                ("msgd.sched", sga.AlgoSpec(sga.MSGD, EXACT_ETA, horizon,
                                            sga.NesterovSchedule())),
                ("snag.sched", sga.AlgoSpec(sga.SNAG, EXACT_ETA, horizon,
                                            sga.NesterovSchedule())))

    def _langevin_items(self, d):
        """(variant, mu, t) prediction items for dimension d."""
        crit, free = self.momenta[d]
        items = []
        for variant, mu in (("order1", crit), ("order1", free),
                            ("msgd2", crit), ("snag2", crit)):
            items.extend((variant, mu, float(t)) for t in self.t_points[d])
        return items

    def _op(self, ops, kind, d, params, name, fn):
        self.meta[name] = (kind, d, params)
        ops.append(timed_op(name, fn))
        return ops[-1].output

    def run_pass(self):
        ops = []
        self.models = {}
        for d in EXACT_DIMS:
            model = self.models[d] = self._op(
                ops, "from_matrix", d, None, "from_matrix.d%d" % d,
                lambda: models.from_matrix(ISO, self.matrices[d], self.noise))
            x0 = self.x0[d]
            for label, algo in self._algos():
                self._op(ops, "recursion", d, algo, "recursion.%s.d%d" % (label, d),
                         lambda: sga.exact_moment_recursion(algo, model, x0))
            for i, (variant, mu, t) in enumerate(self._langevin_items(d)):
                self._op(ops, "langevin", d, (variant, mu, t),
                         "langevin.%s.%d.d%d" % (variant, i, d),
                         lambda: sme.langevin_expected_f_exact(
                             sme.langevin_system(model.spec, mu, EXACT_ETA,
                                                 self.noise, variant), x0, t))
            ts = self.t_points[d]
            self._op(ops, "ou", d, None, "ou.d%d" % d, lambda: sme.ou_expected_f(
                model.spec, x0, EXACT_ETA, ts, self.noise, order=2))
            self._op(ops, "bs", d, None, "bs.d%d" % d, lambda: sme.bs_expected_f(
                model.spec, x0, EXACT_ETA, ts, self.noise, order=2))
            crit = self.momenta[d][0]
            for family in ("msgd", "snag"):
                self._op(ops, "order2_eigs", d, (family, crit),
                         "order2_eigs.%s.d%d" % (family, d),
                         lambda: analysis.order2_eigs(family, crit, EXACT_ETA,
                                                      model.spec))
        self._op(ops, "descent_rate", 2, None, "descent_rate.d2",
                 lambda: analysis.descent_rate(self.descent_series, EXACT_ETA))
        for d in (2, 16):
            mu = self.momenta[d][1]
            self._op(ops, "decay_bound", d, mu, "decay_bound.d%d" % d,
                     lambda: analysis.decay_bound_check(
                         sme.langevin_system(self.models[d].spec, mu, EXACT_ETA,
                                             self.noise).blocks, self.decay_grid))
        return ops

    def check(self, op, ops):
        kind, d, params = self.meta[op.name]
        return getattr(self, "_check_" + kind)(op.output, d, params)

    def _check_from_matrix(self, model, d, _):
        want = np.sort(np.linalg.eigvalsh(self.matrices[d]))[::-1]
        err = float(np.max(np.abs(model.spec.eigenvalues - want)))
        return None if err <= 1e-9 else "sym_eig eigenvalues off by %.2e" % err

    def _check_recursion(self, series, d, algo):
        if series.shape != (algo.n_steps + 1,):
            return "series length %d, expected %d" % (series.size, algo.n_steps + 1)
        state = sga.exact_moment_state(algo, self.models[d], self.x0[d], algo.n_steps)
        want = 0.5 * float(np.trace(self.matrices[d] @ state.second[-d:, -d:]))
        err = rel_err(float(series[-1]), want)
        return None if err <= 1e-8 else "last value off by %.2e relative" % err

    def _check_langevin(self, value, d, item):
        variant, mu, t = item
        if not math.isfinite(value):
            return "non-finite expectation"
        ts = self.t_points[d]
        if t not in (float(ts[0]), float(ts[-1])):
            return None  # outside the oracle subset: determinism only
        err = rel_err(value, self._oracle(d, variant, mu, t))
        return None if err <= 1e-8 else "exact vs quadrature off by %.2e" % err

    def _oracle(self, d, variant, mu, t):
        """langevin_expected_f_quadrature, summed mode by mode above the cap."""
        model = self.models[d]
        if d <= ORACLE_MAX_DIM:
            system = sme.langevin_system(model.spec, mu, EXACT_ETA, self.noise, variant)
            return sme.langevin_expected_f_quadrature(system, self.x0[d], t)
        # every mode evolves on its own, so E f is the sum of 1-d systems
        y0 = model.spec.to_eigen(self.x0[d])
        total = 0.0
        for lam_i, y_i in zip(model.spec.eigenvalues, y0):
            spec = matkit.SpectralDecomp(np.array([lam_i]), np.eye(1))
            system = sme.langevin_system(spec, mu, EXACT_ETA, self.noise, variant)
            total += sme.langevin_expected_f_quadrature(system, np.array([y_i]), t)
        return total

    def _closed_form(self, d, second_moment):
        model = self.models[d]
        lam = model.spec.eigenvalues
        y0 = model.spec.to_eigen(self.x0[d])
        m = lam * (1.0 + 0.5 * EXACT_ETA * lam)        # order-2 decay rates
        t = self.t_points[d][:, None]
        return 0.5 * np.sum(lam * second_moment(m, lam, y0, t), axis=1)

    def _check_ou(self, values, d, _):
        ns2 = self.noise ** 2
        want = self._closed_form(d, lambda m, lam, y0, t: np.exp(-2 * m * t) * y0 ** 2
                                 + EXACT_ETA * ns2 * lam ** 2
                                 * (1 - np.exp(-2 * m * t)) / (2 * m))
        err = float(np.max(np.abs(values - want) / np.abs(want)))
        return None if err <= 1e-12 else "OU closed form off by %.2e" % err

    def _check_bs(self, values, d, _):
        ns2 = self.noise ** 2
        want = self._closed_form(d, lambda m, lam, y0, t: y0 ** 2 * np.exp(
            (EXACT_ETA * ns2 - 2 * m) * t))
        err = float(np.max(np.abs(values - want) / np.abs(want)))
        return None if err <= 1e-12 else "GBM closed form off by %.2e" % err

    def _check_order2_eigs(self, report, d, params):
        family, mu = params
        blocks = sme.langevin_system(self.models[d].spec, mu, EXACT_ETA, self.noise,
                                     family + "2").blocks.blocks
        err = 0.0
        for got, block in zip(report.eigenvalues, blocks):
            want = np.linalg.eigvals(block)
            err = max(err, float(np.max(np.abs(np.sort_complex(got)
                                               - np.sort_complex(want)))))
        return None if err <= 1e-9 else "order-2 eigenvalues off by %.2e" % err

    def _check_descent_rate(self, fit, d, _):
        series = self.descent_series
        lo, hi = fit.window
        k = np.arange(lo, hi + 1, dtype=float)
        slope = np.polyfit(k, -np.log(series[lo:hi + 1]), 1)[0]
        err = rel_err(fit.slope, slope)
        return None if fit.slope > 0 and err <= 1e-8 else \
            "descent rate %.6g vs polyfit %.6g" % (fit.slope, slope)

    def _check_decay_bound(self, bound, d, _):
        return None if bound.holds else "decay bound violated"

    def properties(self):
        critical = total = 0
        for d in EXACT_DIMS:
            lam = np.linalg.eigvalsh(self.matrices[d])
            for variant, mu, _ in self._langevin_items(d):
                total += d
                if variant == "order1":
                    critical += sum(analysis.classify_damping(mu, x) == analysis.CRITICAL
                                    for x in lam)
        steps = {"constant_momentum": 0, "scheduled": 0, "sgd": 0}
        for label, algo in self._algos():
            key = {"const": "constant_momentum", "sched": "scheduled"}.get(
                label.rsplit(".", 1)[-1], "sgd")
            steps[key] += algo.n_steps * len(EXACT_DIMS)
        return {"order1_critical_mode_pairs": critical, "langevin_mode_pairs": total,
                "recursion_steps": steps, "dimensions": list(EXACT_DIMS)}


WORKLOADS = {w.name: w for w in (Figures, Montecarlo, Exact)}
