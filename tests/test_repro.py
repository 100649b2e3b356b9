import dataclasses
import hashlib
import itertools
import math
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

from smelab import repro
from smelab.models import EIGENBASIS_SCALED, ISOTROPIC_SHIFT, from_spectrum
from smelab.repro import (ConfigError, ExperimentConfig, RateFit, Table,
                          default_config, discrete_floor, emit_csv, emit_svg,
                          exp_condition_sweep, exp_divergence,
                          exp_momentum_dynamics, exp_msgd_vs_snag,
                          exp_weak_error, parse_csv, render_csv, render_svg,
                          run_experiment, windowed_rate, Panel)
from smelab.sga import MSGD, SGD, SNAG, AlgoSpec, ConstantMomentum, \
    exact_moment_recursion


# ---------------------------------------------------------------------------
# configuration parsing and validation
# ---------------------------------------------------------------------------


def _expect_config_error(key, **kwargs):
    base = dataclasses.asdict(default_config("weak_error"))
    base.update(kwargs)
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(**base)
    assert str(err.value).startswith(key + ":"), str(err.value)


def test_validation_names_the_offending_key():
    _expect_config_error("eta_grid", eta_grid=(0.05, 0.1))
    _expect_config_error("eta_grid", eta_grid=())
    _expect_config_error("eta_grid", eta_grid=(0.1, -0.05))
    _expect_config_error("horizon", horizon=0.01)
    _expect_config_error("eigenvalues", eigenvalues=(1.0, 0.5, 0.25))
    _expect_config_error("eigenvalues", eigenvalues=(0.1, 1.0))
    _expect_config_error("x0", x0=(1.0,))
    _expect_config_error("experiment", experiment="nonsense")
    _expect_config_error("kappa", kappa=(0.5, 10.0))
    _expect_config_error("variant", variant="other")
    _expect_config_error("families", families=("sgd", "adam"))
    _expect_config_error("noise_scale", noise_scale=-1.0)
    _expect_config_error("dimension", dimension=0)
    _expect_config_error("n_paths", n_paths=-5)
    _expect_config_error("threads", threads=0)
    _expect_config_error("threads", threads=65)
    _expect_config_error("n_paths", n_paths=10**8, horizon=1000.0)
    # 10^6 steps of eta = 0.0125 at d = 64
    _expect_config_error("horizon", dimension=64, eigenvalues=(), x0=(),
                         horizon=12500.0)
    _expect_config_error("mu_values", mu_values=(-0.5,))
    _expect_config_error("seed", seed=2**64)
    # each field takes one kind of value: a bool is not a number, an int
    # must be finite and integral
    _expect_config_error("dimension", dimension=2.7)
    _expect_config_error("dimension", dimension=math.inf)
    _expect_config_error("dimension", dimension=True)
    _expect_config_error("n_paths", n_paths=2.9)
    _expect_config_error("seed", seed=math.nan)
    _expect_config_error("eigenvalues", eigenvalues=(True, 0.1))
    _expect_config_error("noise_scale", noise_scale=False)
    # numbers given as strings, and strings given as anything else
    _expect_config_error("horizon", horizon="40")
    _expect_config_error("eta_grid", eta_grid=("0.1",))
    _expect_config_error("variant", variant=None)
    # an array field takes a non-string iterable of its entry kind
    _expect_config_error("families", families="sgd")
    _expect_config_error("families", families=3)
    _expect_config_error("families", families=(("sgd",),))
    _expect_config_error("x0", x0=1.0)
    _expect_config_error("x0", x0=((1.0,), (1.0,)))
    # an int beyond the largest double is an infinite float
    _expect_config_error("x0", x0=(10**400, 1.0))
    # the exact routes' d x d bases stop at matkit.MAX_DIM = 64
    _expect_config_error("dimension", dimension=65, eigenvalues=(), x0=())
    _expect_config_error("dimension", dimension=10**400, eigenvalues=(), x0=())


def test_integral_floats_and_numpy_scalars_are_accepted():
    base = dataclasses.asdict(default_config("weak_error"))
    base.update(dimension=2.0, n_paths=np.int64(4), seed=np.float64(7.0),
                horizon=np.float32(2.0), eigenvalues=np.array([1.0, 0.1]))
    cfg = ExperimentConfig(**base)
    assert (cfg.dimension, cfg.n_paths, cfg.seed) == (2, 4, 7)
    assert all(type(v) is int for v in (cfg.dimension, cfg.n_paths, cfg.seed))
    assert type(cfg.horizon) is float and cfg.eigenvalues == (1.0, 0.1)
    # null is the empty array
    assert dataclasses.replace(cfg, x0=None).x0 == ()


def test_from_json_errors():
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_json("{not json")
    assert str(err.value).startswith("config: invalid JSON")
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_json("[1, 2]")
    assert str(err.value).startswith("config: expected a JSON object")
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_json('{"experiment": "weak_error", "bogus": 1}')
    assert str(err.value).startswith("bogus: unknown field")
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_json('{"eta_grid": [0.1]}')
    assert str(err.value).startswith("experiment: required field is missing")


def test_json_round_trip():
    for name in ("weak_error", "condition_sweep", "divergence",
                 "momentum_dynamics", "msgd_vs_snag"):
        cfg = default_config(name)
        assert cfg.experiment == name
        back = ExperimentConfig.from_json(cfg.to_json())
        assert back == cfg
        compact = cfg.to_json(compact=True)
        assert "\n" not in compact
        assert ExperimentConfig.from_json(compact) == cfg
    with pytest.raises(ConfigError):
        default_config("nonsense")


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


def test_render_parse_round_trip(tmp_path):
    fit = RateFit(1.0 / 3.0, -2.5e-17, 0.125, (0, 4))
    # cells go through str, which gives repr(float(v)) for an np.float64 too,
    # also at the switches to exponent notation (1e16, 1e-5), for subnormals,
    # -0 and inf
    edge = [np.float64(v) for v in (1e16, 9999999999999998.0, 1e-5, 5e-324,
                                    -0.0, math.inf, -math.inf)]
    table = Table("demo", ("a", "b", "c"),
                  ((1, 1.0 / 3.0, "sgd"), (-2, 1e-300, "msgd"),
                   (3, math.inf, "snag"), (4, np.float64(0.1), "sgd"))
                  + tuple((5, v, "sgd") for v in edge), fit)
    text = render_csv(table, comments=("config,{}", "seed,7"))
    cells = [line.split(",")[1] for line in text.splitlines()[7:-1]]
    assert cells == [repr(float(v)) for v in edge]
    path = tmp_path / "demo.csv"
    path.write_text(text)
    back = parse_csv(str(path))
    assert back.header == ("a", "b", "c")
    assert back.rows[0] == (1, 1.0 / 3.0, "sgd")      # floats exact via repr
    assert back.rows[1][1] == 1e-300
    assert back.rows[2][1] == math.inf
    assert back.rows[3][1] == 0.1                      # np.float64 as a float
    assert [row[1] for row in back.rows[4:]] == [float(v) for v in edge]
    assert back.comments == ("config,{}", "seed,7")
    assert back.footer == {"slope": 1.0 / 3.0, "intercept": -2.5e-17,
                           "residual": 0.125}


def test_empty_table_renders_header_only():
    assert render_csv(Table("x", ("a", "b"), ())) == "a,b\n"
    with pytest.raises(ValueError):
        render_csv(Table("x", ("a", "b"), ((1, 2, 3),)))


def test_emit_csv_bytes_ignore_out_dir_and_threads(tmp_path):
    base = default_config("divergence")
    cfg_a = dataclasses.replace(base, out_dir=str(tmp_path / "a"), threads=1)
    cfg_b = dataclasses.replace(base, out_dir=str(tmp_path / "b"), threads=3)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    paths_a = emit_csv(exp_divergence(cfg_a), str(tmp_path / "a"))
    paths_b = emit_csv(exp_divergence(cfg_b), str(tmp_path / "b"))
    assert [os.path.basename(p) for p in paths_a] == \
        [os.path.basename(p) for p in paths_b]
    for pa, pb in zip(paths_a, paths_b):
        assert open(pa, "rb").read() == open(pb, "rb").read()
    table = parse_csv(paths_a[0])
    assert any(c.startswith("config,") for c in table.comments)
    assert ("seed,%d" % base.seed) in table.comments
    # the echoed config parses back and is canonical
    echoed = next(c for c in table.comments if c.startswith("config,"))
    cfg = ExperimentConfig.from_json(echoed[len("config,"):])
    assert cfg.out_dir == "." and cfg.threads == 1


# ---------------------------------------------------------------------------
# rate and floor helpers
# ---------------------------------------------------------------------------


def test_windowed_rate_recovers_exponent():
    series = 4.0 * np.exp(-0.07 * np.arange(100))
    fit = windowed_rate(series, 10, 60)
    assert_allclose(fit.slope, 0.07, rtol=1e-12)
    assert fit.window == (10, 60)
    with pytest.raises(ValueError):
        windowed_rate(series, 60, 10)
    with pytest.raises(ValueError):
        windowed_rate(series, 0, 100)


def test_discrete_floor_closed_forms():
    model = from_spectrum(ISOTROPIC_SHIFT, [1.0, 0.25], noise_scale=0.8)
    eta = 0.1
    algo = AlgoSpec(SGD, eta, 1.0)
    lam = model.spec.eigenvalues
    p_inf = (eta * lam) ** 2 * 0.64 / (1.0 - (1.0 - eta * lam) ** 2)
    assert_allclose(discrete_floor(algo, model), 0.5 * np.sum(lam * p_inf),
                    rtol=1e-13)
    # momentum floor agrees with the long-run exact recursion
    algo_m = AlgoSpec(MSGD, eta, 400.0, ConstantMomentum(0.7))
    floor = discrete_floor(algo_m, model)
    tail = exact_moment_recursion(algo_m, model, np.zeros(2))[-1]
    assert_allclose(tail, floor, rtol=1e-6)
    scaled = from_spectrum(EIGENBASIS_SCALED, [1.0, 0.25], noise_scale=1.0)
    assert discrete_floor(AlgoSpec(SGD, 0.1, 1.0), scaled) == 0.0
    with pytest.raises(ValueError):
        discrete_floor(AlgoSpec(MSGD, 0.1, 1.0, ConstantMomentum(0.5)), scaled)
    with pytest.raises(ValueError):
        discrete_floor(AlgoSpec(SGD, 0.1, 1.0),
                       from_spectrum(EIGENBASIS_SCALED, [1.0, 0.01],
                                     noise_scale=1.0))
    # a momentum mode whose update matrix has spectral radius >= 1 diverges
    # (snag here: 2.49), even where the fixed point of the moment map exists
    stiff = from_spectrum(ISOTROPIC_SHIFT, [5.674], noise_scale=1.0)
    with pytest.raises(ValueError):
        discrete_floor(AlgoSpec(SNAG, 0.6, 6.0, ConstantMomentum(0.02)), stiff)
    # stable snag and slowly contracting msgd (radius 0.994) modes on the
    # same spectrum keep their floors, which the long-run recursion reaches
    for algo_s in (AlgoSpec(SNAG, 0.3, 300.0, ConstantMomentum(0.5)),
                   AlgoSpec(MSGD, 0.6, 3000.0, ConstantMomentum(0.02))):
        tail = exact_moment_recursion(algo_s, stiff, np.zeros(1))[-1]
        assert_allclose(tail, discrete_floor(algo_s, stiff), rtol=1e-6)


def test_discrete_floor_matches_lyapunov_solver():
    # scipy's discrete Lyapunov solver, one mode at a time, as the oracle
    from scipy.linalg import solve_discrete_lyapunov
    from smelab.sga import _mode_noise, _mode_update

    scan = from_spectrum(ISOTROPIC_SHIFT, [1.0, 0.225625], noise_scale=0.8)
    stiff = from_spectrum(ISOTROPIC_SHIFT, [5.674], noise_scale=1.0)
    cases = [(scan, AlgoSpec(family, 0.1, 1.0, ConstantMomentum(mu)))
             for family in (MSGD, SNAG) for mu in (0.1, 0.95, 3.0, 10.0)]
    # mu = 0.95 is critically damped on (1, 0.225625); the msgd case on the
    # stiff mode contracts with spectral radius 0.994
    cases += [(stiff, AlgoSpec(SNAG, 0.3, 1.0, ConstantMomentum(0.5))),
              (stiff, AlgoSpec(MSGD, 0.6, 1.0, ConstantMomentum(0.02)))]
    for model, algo in cases:
        mats = _mode_update(algo, model, np.array([[algo.momentum.mu]]))[0]
        noise = _mode_noise(algo, model)
        oracle = sum(0.5 * lam * solve_discrete_lyapunov(m, n)[1, 1]
                     for lam, m, n in zip(model.spec.eigenvalues, mats, noise))
        assert_allclose(discrete_floor(algo, model), oracle, rtol=1e-13)


def test_scan_reports_its_first_diverging_momentum(monkeypatch):
    # on lam_1 = 385 at eta = 0.1, msgd diverges from mu = 0.75 on; the
    # batched scan raises what a _descent call per momentum, in grid order,
    # raises first
    from smelab import repro
    monkeypatch.setattr(repro, "_SCAN_LAMBDAS", (385.0, 0.225625))
    cfg = ExperimentConfig("momentum_dynamics", eigenvalues=(1.0, 0.25),
                           eta_grid=(0.1,), horizon=4.0, mu_values=(0.5, 2.0),
                           x0=(30.0, 30.0))
    model = from_spectrum(ISOTROPIC_SHIFT, [385.0, 0.225625], noise_scale=1.0)
    with pytest.raises(ConfigError) as loop:
        for mu in repro._SCAN_MU_GRID:
            repro._descent(AlgoSpec(MSGD, 0.1, repro._SCAN_HORIZON,
                                    ConstantMomentum(mu)),
                           model, np.asarray(repro._SCAN_X0))
    with pytest.raises(ConfigError) as scan:
        exp_momentum_dynamics(cfg)
    assert str(scan.value) == str(loop.value) == (
        "eta_grid: msgd at eta = 0.1, mu = 0.75 has a diverging mode on this "
        "spectrum; there is no stationary floor")


def test_series_longer_than_the_limit_is_rejected():
    _expect_config_error("horizon", horizon=1e12,
                         eta_grid=(0.1, 0.05))
    # the longest default series, condition_sweep's 120,000 steps, is accepted
    cfg = default_config("condition_sweep")
    assert cfg.horizon / min(cfg.eta_grid) == pytest.approx(120000.0)


def test_tuned_momenta_are_unchanged():
    report = exp_msgd_vs_snag()
    assert report.metric("tuned_mu[msgd]") == 0.9761600000000041
    assert report.metric("tuned_mu[snag]") == 0.9534000000000055


# ---------------------------------------------------------------------------
# experiments: frozen reference values at the default configurations
# ---------------------------------------------------------------------------


def test_weak_error_default_report():
    report = exp_weak_error()
    assert report.passed
    assert_allclose(report.metric("order1_slope"), 0.9552, atol=2e-3)
    assert_allclose(report.metric("order2_slope"), 2.0062, atol=2e-3)
    # errors decrease monotonically with eta at both orders
    for table in report.tables:
        errs = [row[3] for row in table.rows]
        assert all(a > b for a, b in zip(errs, errs[1:]))


def test_weak_error_scaled_variant():
    cfg = dataclasses.replace(default_config("weak_error"),
                              variant=EIGENBASIS_SCALED)
    report = exp_weak_error(cfg)
    assert report.passed
    assert 0.85 <= report.metric("order1_slope") <= 1.15


def test_weak_error_noise_free_budget():
    # with the noise off, the order-2 recursion tracks the flow to 1e-6 f(x0)
    # when started on the slow eigendirection
    base = default_config("weak_error")
    good = dataclasses.replace(base, noise_scale=0.0, x0=(0.0, 1.0))
    report = exp_weak_error(good)
    names = [c.name for c in report.checks]
    assert names == ["deterministic-order2-error"]
    assert report.passed
    # a start with fast-mode energy breaks that budget: the bound is sharp
    bad = dataclasses.replace(base, noise_scale=0.0, x0=(1.0, 1.0))
    assert not exp_weak_error(bad).passed


def test_condition_sweep_kappa_one_rate():
    cfg = dataclasses.replace(default_config("condition_sweep"),
                              kappa=(1.0, 10.0), eta_grid=(0.05,),
                              families=("sgd",), horizon=4000.0)
    report = exp_condition_sweep(cfg)
    (table,) = report.tables
    rate_k1 = table.rows[0][2]
    assert table.rows[0][1] == 1.0
    assert abs(rate_k1 - 2 * 0.05) <= 0.05 * (2 * 0.05)
    slope = report.metric("sgd_slope")
    assert -1.15 <= slope <= -0.85


def test_divergence_default_report():
    report = exp_divergence()
    assert report.passed
    assert_allclose(report.metric("sme_threshold"), 0.02, rtol=1e-12)
    assert_allclose(report.metric("discrete_threshold"), 0.02 / 1.0001,
                    rtol=1e-12)
    assert report.metric("threshold_relative_gap") <= 1e-4
    flips = next(c for c in report.checks if c.name == "single-flip")
    assert flips.passed and "0.015, 0.025" in flips.detail
    # every trajectory value is finite and positive on the emitted grid
    (table,) = report.tables
    assert all(row[6] > 0 and math.isfinite(row[6]) for row in table.rows)


def test_momentum_dynamics_method_tags():
    cfg = ExperimentConfig(experiment="momentum_dynamics",
                           eigenvalues=(1.0, 0.25), eta_grid=(0.1,),
                           horizon=6.0, mu_values=(0.3, 3.0), n_paths=64,
                           x0=(30.0, 30.0), seed=5)
    report = exp_momentum_dynamics(cfg)
    dyn = report.tables[0]
    methods = {row[8] for row in dyn.rows}
    assert methods == {"exact", "closed-form", "mc", "floor"}
    for row in dyn.rows:
        method, stderr, k = row[8], row[7], row[4]
        if method == "mc" and k > 0:
            assert stderr > 0.0
        else:
            assert stderr == 0.0
    floor_rows = [row for row in dyn.rows if row[8] == "floor"]
    assert all(row[5] == math.inf for row in floor_rows)
    scan = report.tables[1]
    assert scan.header == ("experiment", "mu", "rate", "family")
    mus = [row[1] for row in scan.rows]
    assert mus == sorted(mus) and len(mus) > 100
    assert_allclose(report.metric("scan_predicted_mu"), 0.95, rtol=1e-12)
    assert abs(report.metric("scan_argmax_mu") - 0.95) <= 0.095


def test_msgd_vs_snag_default_report():
    report = exp_msgd_vs_snag()
    assert report.passed
    assert_allclose(report.metric("closed_gap[lam_d=0.25]"),
                    0.5 * 0.1 * 0.25, rtol=1e-10)
    assert_allclose(report.metric("closed_gap[lam_d=1]"),
                    0.5 * 0.1 * 1.0, rtol=1e-10)
    for lam_d in (0.25, 1):
        meas = report.metric("measured_rate_gap[lam_d=%g]" % lam_d)
        pred = report.metric("predicted_rate_gap[lam_d=%g]" % lam_d)
        assert abs(meas - pred) <= 0.15 * pred
    assert report.metric("tuned_rate[snag]") > 0
    assert report.metric("schedule_late_rate") < \
        0.5 * report.metric("schedule_early_rate")


def test_run_experiment_dispatch():
    cfg = default_config("divergence")
    direct = exp_divergence(cfg)
    via = run_experiment(cfg)
    assert via.metrics == direct.metrics
    assert via.tables[0].rows == direct.tables[0].rows


# small configs, one per experiment, that each run in well under a second
_SMALL = {
    "weak_error": dict(eta_grid=(0.1, 0.05), horizon=0.5),
    "condition_sweep": dict(dimension=3, kappa=(10.0, 30.0), horizon=50.0),
    "divergence": dict(eta_grid=(0.04, 0.005), horizon=2.0),
    "momentum_dynamics": dict(eta_grid=(0.25,), horizon=6.0, mu_values=(0.5, 2.0),
                              n_paths=8),
    "msgd_vs_snag": dict(horizon=5.0),
}


@pytest.mark.parametrize("experiment, variant", [
    (experiment, variant) for experiment, entry in repro._TABLE.items()
    for variant in entry.variants])
def test_each_runner_reads_exactly_the_fields_its_table_entry_declares(
        monkeypatch, experiment, variant):
    # a config that records the fields read from it, except inside _resolve,
    # which reads each declared field to check it
    names = {field.name for field in dataclasses.fields(ExperimentConfig)}
    seen, recording = set(), [False]

    class Recording(ExperimentConfig):
        def __getattribute__(self, name):
            if recording[0] and name in names:
                seen.add(name)
            return object.__getattribute__(self, name)

    def paused(config, experiment):
        recording[0] = False
        try:
            return resolve(config, experiment)
        finally:
            recording[0] = True

    resolve = repro._resolve
    monkeypatch.setattr(repro, "_resolve", paused)
    cfg = dataclasses.replace(default_config(experiment), variant=variant,
                              **_SMALL[experiment])
    config = Recording(**dataclasses.asdict(cfg))
    recording[0] = True
    report = repro._TABLE[experiment].runner(config)
    recording[0] = False
    assert report.tables and report.config is config
    assert seen - set(repro._RUN_LEVEL) == set(repro._TABLE[experiment].reads)


def _holds(rows, xs, ys):
    """True when xs and ys are two columns of consecutive rows."""
    for start, row in enumerate(rows[:len(rows) - len(xs) + 1]):
        block = rows[start:start + len(xs)]
        for x, y in itertools.permutations(range(len(row)), 2):
            if (row[x], row[y]) == (xs[0], ys[0]) and \
                    [(r[x], r[y]) for r in block] == list(zip(xs, ys)):
                return True
    return False


@pytest.mark.parametrize("experiment, variant", [
    (experiment, variant) for experiment, entry in repro._TABLE.items()
    for variant in entry.variants])
def test_every_figures_curve_is_two_columns_of_its_tables_rows(experiment, variant):
    cfg = dataclasses.replace(default_config(experiment), variant=variant)
    report = run_experiment(cfg)
    assert report.panels
    for panel in report.panels:
        for label, xs, ys in panel.curves:
            assert any(_holds(table.rows, xs, ys) for table in report.tables), \
                (panel.name, label)


# ---------------------------------------------------------------------------
# SVG figures
# ---------------------------------------------------------------------------


def test_render_svg_contract(tmp_path):
    report = exp_weak_error()
    text = render_svg(report.panels[0])
    assert text.startswith("<svg")
    assert 'width="960"' in text and 'height="640"' in text
    assert "<!--\ndata" in text
    paths = emit_svg(report, str(tmp_path))
    assert all(p.endswith(".svg") for p in paths)
    for p in paths:
        assert os.path.getsize(p) > 0
    again = emit_svg(report, str(tmp_path))
    assert [open(p, "rb").read() for p in paths] == \
        [open(p, "rb").read() for p in again]


def test_render_svg_rejects_nonpositive_log_data():
    for ys in ((0.0, 1.0), (1.0, math.inf)):
        panel = Panel("p", "t", "x", "y", (("c", (0.1, 0.2), ys),), logy=True)
        with pytest.raises(ValueError):
            render_svg(panel)


def test_render_svg_draws_a_log_axis_out_to_the_ends_of_the_doubles():
    # 10 ** 309 overflows and 10 ** -324 is 0, whose log is undefined: the
    # ticks stop at 1e308 and 1e-323
    for ys in ((1.0, 1.7e308), (5e-324, 1.0), (5e-324, 1.7e308)):
        panel = Panel("p", "t", "x", "y", (("c", (0.1, 0.2), ys),), logy=True)
        assert render_svg(panel).endswith("</svg>\n")


def test_a_failed_render_leaves_no_file(tmp_path):
    def render(item):
        raise ValueError("no render")

    with pytest.raises(ValueError):
        repro._write(str(tmp_path), (Table("t", ("a",), ()),), ".svg", render)
    assert os.listdir(tmp_path) == []


def test_render_svg_pads_a_point_and_a_nan_as_before():
    # SHA-256 of the bytes rendered before the axes shared one helper: a
    # one-point range pads by 1, and a NaN value leaves the range to the rest
    one = (("c", (2.0,), (3.0,)),)
    gap = (("c", (0.0, 1.0, 2.0), (1.0, math.nan, 100.0)),)
    cases = [
        (Panel("one", "one point", "x", "y", one),
         "115ccd46e7aaa50c882c3e10df9d9025a68557e6e360f83707c6a384cd46fa5b"),
        (Panel("one", "one point", "x", "y", one, logx=True, logy=True),
         "4150d145a86129c849476b326636f8d4c4173a71b5d95be28355c68b9e98e85d"),
        (Panel("gap", "a NaN value", "t", "E f", gap, logy=True),
         "f8e381817a9cd0ed62a6d56398862fb11895c36c5429ad9464c4bec9f557713a"),
        (Panel("gap", "a NaN value", "t", "E f", gap),
         "0ea9583cb83391563ed17159cba0f939d2aef0b276471dcf88e89351cd374788"),
    ]
    for panel, digest in cases:
        assert hashlib.sha256(render_svg(panel).encode()).hexdigest() == digest
    # a range that is NaN from its first value has no ticks to draw
    with pytest.raises(ValueError):
        render_svg(Panel("nan", "t", "x", "y", (("c", (0.0, 1.0), (math.nan, 1.0)),)))
