"""Config-driven experiment pipelines with CSV/SVG artifacts.

Five desk-scale experiments quantify the headline behaviours of the library:

* ``weak_error``        -- weak-approximation order of the modified equations
                           against exact discrete moments (orders 1 and 2).
* ``condition_sweep``   -- descent-rate scaling with condition number for sgd
                           (~ 1/kappa) and tuned msgd (~ 1/sqrt(kappa)).
* ``divergence``        -- variance-induced instability of sgd on the
                           eigenbasis_scaled model around eta = 2 lam_d.
* ``momentum_dynamics`` -- msgd E f trajectories against the Langevin closed
                           form, noise floors, and a momentum scan around the
                           predicted optimum 2 sqrt(lam_d).
* ``msgd_vs_snag``      -- spectral-gap prediction for the snag speedup, both
                           families at tuned momentum, and the Nesterov
                           schedule's sub-linear phase.

Each experiment returns a report holding CSV-ready rows, fitted rates, scalar
metrics, and named pass/fail checks.  ``emit_csv`` / ``emit_svg`` persist the
reports deterministically: cells are written with ``str``, which for a float
or np.float64 is ``repr(float(x))`` (round-trip exact), row order is fixed,
and no timestamps or environment data leak into the files, so identical
configs produce byte-identical artifacts.
"""

import dataclasses
import json
import math
import numbers
import os
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .matkit import MAX_DIM, _least_real_2x2, condition_spectrum
from .models import (EIGENBASIS_SCALED, ISOTROPIC_SHIFT, from_spectrum,
                     objective)
from .sga import (_MAX_THREADS, MSGD, SGD, SNAG, AlgoSpec, ConstantMomentum,
                  NesterovSchedule, _run_ensembles, constant_momentum_runs,
                  discrete_floor, exact_moment_recursion, iteration_count,
                  mu_at)
from .sme import bs_expected_f, build_sme, langevin_expected_f_exact, ou_expected_f
from .analysis import (RateFit, _drift_blocks, descent_rate, discrete_divergence_threshold,
                       discrete_growth_factors, divergence_threshold,
                       fit_loglog_slope, optimal_mu, order2_eigs, windowed_rate)

_WEAK_HEADER = ("experiment", "order", "eta", "max_weak_error", "method")
_SWEEP_HEADER = ("experiment", "kappa", "rate", "family")
_DYNAMICS_HEADER = ("experiment", "family", "mu", "eta", "k", "t", "mean_f",
                    "stderr", "method")
_SCAN_HEADER = ("experiment", "mu", "rate", "family")
# the (x, y) columns a curve draws: t, mean_f; eta, max_weak_error; kappa or mu, rate
_EF_XY, _WEAK_XY, _RATE_XY = (5, 6), (2, 3), (1, 2)

# momentum scan protocol: spectrum whose predicted optimum 2 sqrt(lam_d) is
# exactly 0.95, swept on a 0.01-step grid bracketing it from both sides
_SCAN_LAMBDAS = (1.0, 0.225625)
_SCAN_MU_GRID = tuple(i / 100.0 for i in range(30, 191))
_SCAN_X0 = (1.0e6, 1.0e6)
_SCAN_HORIZON = 40.0

# longest exact series a config may ask for, horizon / min(eta_grid) steps;
# the longest default series is condition_sweep's 120,000
_MAX_SERIES_STEPS = 1_000_000
# largest series length x dimension: the Langevin closed form holds about
# 97 bytes per (time point, mode), so this keeps its peak near 0.9 GiB
_MAX_SERIES_CELLS = 10_000_000
# largest n_paths x series length of one ensemble
_MAX_PATH_STEPS = 1_000_000_000
# largest momenta x modes of compare-snag's tuning grid, about 224 bytes each (default 5,998)
_MAX_GRID_CELLS = 1_000_000


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the offending key."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def _coerce(key, value, kind):
    """value as kind, or as a tuple of kind[0] when kind is a 1-tuple (an
    array field: a non-string iterable, or None for the empty array).  A bool
    is not a number, an int takes only finite integral numbers, a float any
    real, and a str only a str."""
    if isinstance(kind, tuple):
        if value is None:
            return ()
        if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
            raise ConfigError("%s: expected an array" % key)
        return tuple(_coerce(key, v, kind[0]) for v in value)
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError("%s: expected a string" % key)
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError("%s: expected a number" % key)
    if kind is float:
        try:
            return float(value)
        except OverflowError:   # an int beyond the largest double
            return math.inf if value > 0 else -math.inf
    if isinstance(value, numbers.Integral) or float(value).is_integer():
        return int(value)
    raise ConfigError("%s: expected an integer" % key)


# key: (kind as for _coerce, range of the value or of each entry, message for
# one outside it, formatted with that value and the experiments' names), in
# declaration order
_FIELDS = {
    "experiment": (str, lambda v: v in EXPERIMENTS,
                   "unknown experiment {!r} (expected one of {experiments})"),
    # the exact routes build d x d bases and check them in O(d^3)
    "dimension": (int, lambda v: 1 <= v <= MAX_DIM,
                  "must be an integer in [1, %d]" % MAX_DIM),
    "eigenvalues": ((float,), lambda v: 0 < v < math.inf,
                    "must be positive and finite"),
    "kappa": ((float,), lambda v: 1 <= v < math.inf,
              "condition numbers must be >= 1"),
    "variant": (str, lambda v: v in (ISOTROPIC_SHIFT, EIGENBASIS_SCALED),
                "unknown model variant {!r}"),
    # the experiments square it as a Python float, which raises past ~1.3e154
    "noise_scale": (float, lambda v: 0 <= v and math.isfinite(v * v),
                    "must be nonnegative with a finite square"),
    "eta_grid": ((float,), lambda v: 0 < v <= 1,
                 "step sizes must lie in (0, 1]"),
    "horizon": (float, lambda v: 0 < v < math.inf, "must be positive and finite"),
    "families": ((str,), lambda v: v in (SGD, MSGD, SNAG), "unknown family {!r}"),
    "mu_values": ((float,), lambda v: 0 < v < math.inf,
                  "must be positive and finite"),
    "n_paths": (int, lambda v: v == 0 or v >= 2,
                "must be 0 (no ensemble) or at least 2, got {}"),
    # rng keys Philox with the seed's low 64 bits
    "seed": (int, lambda v: 0 <= v < 2 ** 64, "must be an integer in [0, 2**64)"),
    "threads": (int, lambda v: 1 <= v <= _MAX_THREADS,
                "must be an integer in [1, %d]" % _MAX_THREADS),
    "x0": ((float,), math.isfinite, "coordinates must be finite"),
    "out_dir": (str, bool, "expected a non-empty path string"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run: model, algorithm, ensemble and output parameters.

    Invariants: every field has the kind and range that _FIELDS gives it,
    eta_grid is strictly decreasing, horizon >= max(eta_grid), and the
    series length horizon / min(eta_grid) is at most _MAX_SERIES_STEPS;
    times dimension it is at most _MAX_SERIES_CELLS, and times n_paths at
    most _MAX_PATH_STEPS.  Validation failures raise ConfigError naming the
    offending key.
    """

    experiment: str
    dimension: int = 2
    eigenvalues: tuple = ()
    kappa: tuple = ()
    variant: str = ISOTROPIC_SHIFT
    noise_scale: float = 1.0
    eta_grid: tuple = (0.1,)
    horizon: float = 2.0
    families: tuple = ("sgd",)
    mu_values: tuple = ()
    n_paths: int = 0
    seed: int = 0
    threads: int = 1
    x0: tuple = ()
    out_dir: str = "."

    def __post_init__(self):
        for key, (kind, ok, message) in _FIELDS.items():
            value = _coerce(key, getattr(self, key), kind)
            for entry in value if isinstance(kind, tuple) else (value,):
                if not ok(entry):
                    raise ConfigError("%s: %s" % (key, message.format(
                        entry, experiments=", ".join(EXPERIMENTS))))
            object.__setattr__(self, key, value)
        if self.eigenvalues and len(self.eigenvalues) != self.dimension:
            raise ConfigError("eigenvalues: expected %d values to match "
                              "dimension" % self.dimension)
        if self.x0 and len(self.x0) != self.dimension:
            raise ConfigError("x0: expected %d coordinates to match dimension"
                              % self.dimension)
        if any(a < b for a, b in zip(self.eigenvalues, self.eigenvalues[1:])):
            raise ConfigError("eigenvalues: must be in descending order")
        if not self.eta_grid:
            raise ConfigError("eta_grid: must not be empty")
        if any(a <= b for a, b in zip(self.eta_grid, self.eta_grid[1:])):
            raise ConfigError("eta_grid: must be strictly decreasing")
        if self.horizon < max(self.eta_grid):
            raise ConfigError("horizon: must be at least the largest step size")
        steps = self.horizon / min(self.eta_grid)
        if steps > _MAX_SERIES_STEPS:
            raise ConfigError("horizon: %.3g steps of eta = %g exceed the limit "
                              "of %d per series" % (steps, min(self.eta_grid),
                                                    _MAX_SERIES_STEPS))
        if self.dimension > _MAX_SERIES_CELLS / steps:
            raise ConfigError("horizon: %.3g steps x %d modes exceed the limit of "
                              "%d series cells" % (steps, self.dimension,
                                                   _MAX_SERIES_CELLS))
        if self.n_paths > _MAX_PATH_STEPS / steps:
            raise ConfigError("n_paths: %d paths x %.3g steps exceed the limit "
                              "of %d path-steps" % (self.n_paths, steps,
                                                    _MAX_PATH_STEPS))
        for key in ("kappa", "families"):   # a log-log fit over repeated kappa is degenerate
            if len(set(getattr(self, key))) != len(getattr(self, key)):
                raise ConfigError("%s: duplicate entries" % key)
        # the largest step size sets the smallest admissible ceiling 1/eta
        ceiling = 1.0 / max(self.eta_grid)
        if any(v > ceiling for v in self.mu_values):
            raise ConfigError("mu_values: momenta must not exceed 1/eta = %g "
                              "for eta = %g" % (ceiling, max(self.eta_grid)))

    def to_json(self, compact=False):
        data = dataclasses.asdict(self)   # json writes each tuple as an array
        if compact:
            return json.dumps(data, sort_keys=True, separators=(",", ":"))
        return json.dumps(data, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text):
        try:
            obj = json.loads(text)
        # ValueError: malformed JSON, or an integer past Python's digit limit;
        # RecursionError: arrays or objects nested past the recursion limit
        except (ValueError, RecursionError) as exc:
            raise ConfigError("config: invalid JSON (%s)" % exc)
        if not isinstance(obj, dict):
            raise ConfigError("config: expected a JSON object")
        for key in obj:
            if key not in _FIELDS:
                raise ConfigError("%s: unknown field" % key)
        if "experiment" not in obj:
            raise ConfigError("experiment: required field is missing")
        default = default_config(_coerce("experiment", obj["experiment"], str))
        if obj.get("dimension", default.dimension) != default.dimension:
            obj = {"eigenvalues": (), "x0": (), **obj}   # defaults fit their dimension only
        cfg = dataclasses.replace(default, **obj)
        reads = _RUN_LEVEL + _TABLE[cfg.experiment].reads
        for key in obj:
            if key not in reads and getattr(cfg, key) != getattr(default, key):
                raise ConfigError("%s: %s does not read it" % (key, cfg.experiment))
        return cfg


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class Table:
    """One CSV-able table: header row, data rows, optional RateFit footer."""

    name: str
    header: tuple
    rows: tuple
    footer: object = None


@dataclass(frozen=True)
class Panel:
    """One SVG line chart: labelled curves plus axis configuration."""

    name: str
    title: str
    xlabel: str
    ylabel: str
    curves: tuple
    logx: bool = False
    logy: bool = False


@dataclass(frozen=True)
class ExperimentReport:
    experiment: str
    config: ExperimentConfig
    tables: tuple
    panels: tuple
    metrics: tuple
    checks: tuple

    @property
    def passed(self):
        return all(check.passed for check in self.checks)

    def metric(self, name):
        for key, value in self.metrics:
            if key == name:
                return value
        raise KeyError(name)


# ---------------------------------------------------------------------------
# CSV / SVG emission
# ---------------------------------------------------------------------------


def render_csv(table, comments=()):
    """CSV text of one table.  Empty tables render as a lone header row."""
    lines = [",".join(table.header)]
    if table.rows:
        for comment in comments:
            lines.append("#" + comment)
        for row in table.rows:
            if len(row) != len(table.header):
                raise ValueError("table %s: row width %d != header width %d"
                                 % (table.name, len(row), len(table.header)))
            lines.append(",".join(map(str, row)))
        if table.footer is not None:
            fit = table.footer
            lines.append("#slope,%s,#intercept,%s,#residual,%s"
                         % (fit.slope, fit.intercept, fit.residual))
    return "\n".join(lines) + "\n"


def emit_csv(report, out_dir):
    """Write one CSV per table; returns the paths.  Byte-deterministic:
    the echoed config is canonicalized (out_dir and threads dropped, as
    neither affects the numbers) so the same experiment always produces
    the same bytes regardless of destination or worker count."""
    canonical = dataclasses.replace(report.config, out_dir=".", threads=1)
    comments = ("config," + canonical.to_json(compact=True),
                "seed,%d" % report.config.seed)
    return _write(out_dir, report.tables, ".csv",
                  lambda table: render_csv(table, comments))


def _write(out_dir, items, suffix, render):
    """Write render(item) to out_dir/<item.name><suffix> for each item;
    returns the paths."""
    paths = []
    for item in items:
        path = os.path.join(out_dir, item.name + suffix)
        text = render(item)   # before the open: a failed render leaves no file
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        except OSError as exc:
            raise OSError("failed writing %s: %s" % (path, exc))
        paths.append(path)
    return paths


def _parse_cell(text):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


@dataclass(frozen=True)
class CsvTable:
    header: tuple
    rows: tuple
    comments: tuple
    footer: object = None     # dict with slope/intercept/residual, or None


def parse_csv(path):
    """Read back an emitted CSV; floats round-trip exactly (repr format)."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.rstrip("\n") for line in handle]
    lines = [line for line in lines if line]
    if not lines:
        raise ValueError("%s: empty file" % path)
    header = tuple(lines[0].split(","))
    rows, comments, footer = [], [], None
    for line in lines[1:]:
        if line.startswith("#slope,"):
            parts = line.split(",")
            footer = {parts[0][1:]: float(parts[1]),
                      parts[2][1:]: float(parts[3]),
                      parts[4][1:]: float(parts[5])}
        elif line.startswith("#"):
            comments.append(line[1:])
        else:
            rows.append(tuple(_parse_cell(cell) for cell in line.split(",")))
    return CsvTable(header, tuple(rows), tuple(comments), footer)


_SVG_W, _SVG_H = 960, 640
_SVG_ML, _SVG_MR, _SVG_MT, _SVG_MB = 90, 30, 50, 70
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f", "#bcbd22", "#e377c2")


def _linear_ticks(lo, hi):
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / 5.0
    mag = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * mag
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + 1e-12 * max(1.0, abs(hi)):
        ticks.append(value)
        value += step
    return ticks or [lo]


def _log_ticks(lo, hi):   # powers of ten a double holds, 1e-323 to 1e308
    lo_e = max(-323, int(math.floor(math.log10(lo))))
    hi_e = min(308, int(math.ceil(math.log10(hi))))
    step = max(1, int(math.ceil((hi_e - lo_e) / 6.0)))
    return [10.0 ** e for e in range(lo_e, hi_e + 1, step)]


def _axis(values, log, panel, name):
    """One axis of a chart: its map into plot units (log10 on a log axis),
    the data range in those units padded by 4 % of its span (by 1 when the
    span is 0, by NaN when it is NaN), and the ticks inside the range."""
    lo, hi = min(values), max(values)
    if log and not (lo > 0 and hi < math.inf):
        raise ValueError("panel %s: log %s-axis needs positive finite data"
                         % (panel, name))
    fwd = math.log10 if log else float
    u_lo, u_hi = fwd(lo), fwd(hi)
    pad = 1.0 if u_hi - u_lo <= 0 else 0.04 * (u_hi - u_lo)
    u_lo, u_hi = u_lo - pad, u_hi + pad
    ticks = _log_ticks(lo, hi) if log else _linear_ticks(lo, hi)
    # NaN bounds keep every tick
    inside = [t for t in ticks if not (fwd(t) < u_lo or fwd(t) > u_hi)]
    return fwd, u_lo, u_hi, inside


def render_svg(panel):
    """Self-contained 960x640 line chart with the data embedded as a comment."""
    if not panel.curves:
        raise ValueError("panel %s has no curves" % panel.name)
    xs_all, ys_all = [], []
    for label, xs, ys in panel.curves:
        if len(xs) != len(ys) or not len(xs):
            raise ValueError("panel %s: curve %r needs matching nonempty x/y"
                             % (panel.name, label))
        xs_all.extend(float(v) for v in xs)
        ys_all.extend(float(v) for v in ys)
    fx, ux_lo, ux_hi, x_ticks = _axis(xs_all, panel.logx, panel.name, "x")
    fy, uy_lo, uy_hi, y_ticks = _axis(ys_all, panel.logy, panel.name, "y")
    plot_w = _SVG_W - _SVG_ML - _SVG_MR
    plot_h = _SVG_H - _SVG_MT - _SVG_MB

    def px(v):
        return _SVG_ML + plot_w * (fx(v) - ux_lo) / (ux_hi - ux_lo)

    def py(v):
        return _SVG_MT + plot_h * (uy_hi - fy(v)) / (uy_hi - uy_lo)

    data_lines = ["data"]
    for label, xs, ys in panel.curves:
        for x, y in zip(xs, ys):
            data_lines.append("%s,%s,%s" % (label, repr(float(x)), repr(float(y))))
    data_comment = "\n".join(data_lines).replace("--", "- -")

    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
             'viewBox="0 0 %d %d">' % (_SVG_W, _SVG_H, _SVG_W, _SVG_H),
             "<!--\n%s\n-->" % data_comment,
             '<rect width="%d" height="%d" fill="white"/>' % (_SVG_W, _SVG_H),
             '<rect x="%d" y="%d" width="%d" height="%d" fill="none" '
             'stroke="black"/>' % (_SVG_ML, _SVG_MT, plot_w, plot_h)]
    for tick in x_ticks:
        x = px(tick)
        parts.append('<line x1="%.3f" y1="%d" x2="%.3f" y2="%d" stroke="#dddddd"/>'
                     % (x, _SVG_MT, x, _SVG_MT + plot_h))
        parts.append('<text x="%.3f" y="%d" font-size="14" text-anchor="middle">'
                     '%g</text>' % (x, _SVG_MT + plot_h + 22, tick))
    for tick in y_ticks:
        y = py(tick)
        parts.append('<line x1="%d" y1="%.3f" x2="%d" y2="%.3f" stroke="#dddddd"/>'
                     % (_SVG_ML, y, _SVG_ML + plot_w, y))
        parts.append('<text x="%d" y="%.3f" font-size="14" text-anchor="end">'
                     '%g</text>' % (_SVG_ML - 8, y + 5, tick))
    for idx, (label, xs, ys) in enumerate(panel.curves):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join("%.3f,%.3f" % (px(float(x)), py(float(y)))
                          for x, y in zip(xs, ys))
        parts.append('<polyline points="%s" fill="none" stroke="%s" '
                     'stroke-width="1.5"/>' % (points, color))
        ly = _SVG_MT + 18 + 20 * idx
        lx = _SVG_ML + plot_w - 220
        parts.append('<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" '
                     'stroke-width="2"/>' % (lx, ly - 5, lx + 26, ly - 5, color))
        parts.append('<text x="%d" y="%d" font-size="14">%s</text>'
                     % (lx + 32, ly, label))
    parts.append('<text x="%d" y="%d" font-size="18" text-anchor="middle">%s'
                 '</text>' % (_SVG_W // 2, 28, panel.title))
    parts.append('<text x="%d" y="%d" font-size="15" text-anchor="middle">%s'
                 '</text>' % (_SVG_ML + plot_w // 2, _SVG_H - 18, panel.xlabel))
    parts.append('<text x="22" y="%d" font-size="15" text-anchor="middle" '
                 'transform="rotate(-90 22 %d)">%s</text>'
                 % (_SVG_MT + plot_h // 2, _SVG_MT + plot_h // 2, panel.ylabel))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_svg(report, out_dir):
    """Write one SVG per panel; returns the paths."""
    return _write(out_dir, report.panels, ".svg", render_svg)


# ---------------------------------------------------------------------------
# Shared experiment helpers
# ---------------------------------------------------------------------------


def _resolve(config, experiment):
    """The config to run (the defaults when None), checked against the
    experiment, the model variants it runs on and the arrays it reads."""
    if config is None:
        config = default_config(experiment)
    if config.experiment != experiment:
        raise ConfigError("experiment: config is for %r but %r was requested"
                          % (config.experiment, experiment))
    entry = _TABLE[experiment]
    if config.variant not in entry.variants:
        raise ConfigError("variant: %s supports %s only"
                          % (experiment, " and ".join(entry.variants)))
    for key in entry.reads:
        if getattr(config, key) == ():
            raise ConfigError("%s: %s needs at least one value" % (key, experiment))
    return config


def _model_for(cfg, eigenvalues=None):
    lam = cfg.eigenvalues if eigenvalues is None else eigenvalues
    return from_spectrum(cfg.variant, np.asarray(lam, dtype=float),
                         noise_scale=cfg.noise_scale)


def _subsample(n):   # at most 201 indices over 0..n, both ends included
    if n <= 200:
        return np.arange(n + 1)
    return np.unique(np.round(np.linspace(0, n, 201)).astype(int))


def _descent(algo, model, x0, trim=None):
    """(floor, series, fit): the stationary floor, the exact E f series and
    its fitted descent rate of one run.

    trim = (scale, pad) cuts a constant-momentum series to scale times the
    steps f(x0) needs to reach 10x the floor at the rate -log(1 - mu eta),
    plus pad; with a zero floor or mu eta = 1 there is no such estimate, and
    the full horizon runs.  A series the fit cannot use is reported against
    the config key at fault: horizon (too few steps, or E f not finite after
    k = 0) or x0 (no descent, or f(x0) not finite); a step size with a
    diverging mode, which has no floor, is reported against eta_grid.
    """
    try:
        floor = discrete_floor(algo, model)
    except ValueError:
        raise _diverging(algo) from None
    if trim is not None:
        with np.errstate(over="ignore"):   # f(x0) past the largest double is +inf
            f0 = objective(model, x0)
        if not math.isfinite(f0):
            raise ConfigError("x0: f(x0) is not finite; there is no descent to fit")
        if not f0 > 10.0 * floor:
            raise ConfigError("x0: f(x0) = %g starts within 10x of the stationary "
                              "floor %g; there is no descent to fit" % (f0, floor))
        mu_eta = algo.momentum.mu * algo.eta
        if floor > 0 and mu_eta < 1.0:
            scale, pad = trim
            n_need = scale * math.log(f0 / (10.0 * floor)) / -math.log1p(-mu_eta)
            if n_need < math.inf:   # a quotient past the largest double runs the full horizon
                algo = AlgoSpec(algo.family, algo.eta,
                                min(algo.n_steps, int(n_need) + pad) * algo.eta + 1e-9,
                                algo.momentum)
    series = exact_moment_recursion(algo, model, x0)
    return floor, series, _fit(algo, floor, series)


def _diverging(algo):   # the ConfigError of a run with no stationary floor
    mu = ", mu = %g" % algo.momentum.mu if algo.momentum else ""
    # a momentum whose mu eta underflows to 0 damps at no step size
    key = "mu_values" if mu and algo.momentum.mu * algo.eta == 0.0 else "eta_grid"
    return ConfigError("%s: %s at eta = %g%s has a diverging mode on this "
                       "spectrum; there is no stationary floor"
                       % (key, algo.family, algo.eta, mu))


def _fit(algo, floor, series):
    """descent_rate of a run's E f series (None: a mode diverges), as _descent."""
    if series is None:
        raise _diverging(algo)
    bad = np.flatnonzero(~np.isfinite(series))
    if bad.size:
        k = int(bad[0])
        raise ConfigError("%s: no descent rate to fit (E f = %g at k = %d)"
                          % ("x0" if k == 0 else "horizon", series[k], k))
    try:
        return descent_rate(series, algo.eta, floor=floor)
    except ValueError as exc:
        key = "horizon" if len(series) < 8 else "x0"
        raise ConfigError("%s: no descent rate to fit (%s)" % (key, exc)) from None


def _trajectory(cfg, family, mu, eta, ks, values, method, stderr=None):
    """Dynamics-table rows of E f values at the indices ks; mu is one momentum or one
    per index, stderr one per index (zero when omitted).  An E f not finite and positive,
    or a stderr not finite, is a ConfigError naming x0 at k = 0 and horizon after it."""
    mus = np.broadcast_to(np.asarray(mu, dtype=float), ks.shape).tolist()
    errs = [0.0] * len(ks) if stderr is None else np.asarray(stderr).tolist()
    rows = [(cfg.experiment, family, m, float(eta), k, float(k * eta), f, e, method)
            for k, m, f, e in zip(ks.tolist(), mus, np.asarray(values).tolist(), errs)]
    for _, _, m, _, k, _, f, e, _ in rows:
        if not (0 < f < math.inf and math.isfinite(e)):
            raise ConfigError("%s: E f = %g (stderr %g) at k = %d of %s %s, mu = %g, eta = %g"
                              % ("x0" if k == 0 else "horizon", f, e, k, method, family, m, eta))
    return rows


def _curve(label, rows, x, y):
    """Panel curve of columns x and y of a table's rows."""
    return label, tuple(row[x] for row in rows), tuple(row[y] for row in rows)


def _max_relative_deviation(reference, other, lo, hi):
    ref = np.asarray(reference, dtype=float)[lo:hi + 1]
    oth = np.asarray(other, dtype=float)[lo:hi + 1]
    return float(np.max(np.abs(ref - oth) / np.abs(ref)))


def _has_oscillation(series, hi):
    """True when successive differences change sign (above 1e-9 of the max)."""
    values = np.asarray(series, dtype=float)[:hi + 1]
    diffs = np.diff(values)
    significant = np.signbit(diffs[np.abs(diffs) > 1e-9 * np.max(np.abs(values))])
    return bool(np.any(significant[:-1] != significant[1:]))


def _band_check(name, value, lo, hi):
    return Check(name, bool(lo <= value <= hi),
                 "value=%.6g target [%g, %g]" % (value, lo, hi))


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def exp_weak_error(config=None):
    """Weak-approximation error of the sgd modified equations, orders 1 and 2.

    For each eta the discrete side is the exact moment recursion and the
    continuous side is the closed-form OU (isotropic_shift) or per-mode
    geometric-Brownian (eigenbasis_scaled) expectation; the weak error is
    max_k |E f(x_k) - E f(X_{k eta})| up to the horizon.  A log-log fit over
    the eta grid estimates the weak order.
    """
    cfg = _resolve(config, "weak_error")
    model = _model_for(cfg)
    x0 = np.asarray(cfg.x0 or (1.0,) * cfg.dimension, dtype=float)
    closed_form = ou_expected_f if cfg.variant == ISOTROPIC_SHIFT else bs_expected_f

    tables, metrics, checks, curves = [], [], [], []
    algos = [AlgoSpec(SGD, eta, cfg.horizon) for eta in cfg.eta_grid]
    exact = [exact_moment_recursion(algo, model, x0) for algo in algos]   # at both orders
    for order in (1, 2):
        rows, errors = [], []
        for eta, algo, discrete in zip(cfg.eta_grid, algos, exact):
            t_grid = eta * np.arange(algo.n_steps + 1)
            continuous = closed_form(model.spec, x0, eta, t_grid,
                                     cfg.noise_scale, order)
            with np.errstate(invalid="ignore"):   # inf - inf where E f overflows
                error = float(np.max(np.abs(discrete - continuous)))
            if not 0 < error < math.inf:
                key = "horizon" if 0 < discrete[0] < math.inf else "x0"
                raise ConfigError("%s: the order-%d weak error at eta = %g is %g, not "
                                  "finite and positive" % (key, order, eta, error))
            rows.append((cfg.experiment, order, float(eta), error, "exact"))
            errors.append(error)
        fit = None
        if len(errors) >= 2:
            fit = fit_loglog_slope(cfg.eta_grid, errors)
            metrics.append(("order%d_slope" % order, fit.slope))
            if cfg.noise_scale > 0 and order == 1:
                checks.append(_band_check("order1-slope", fit.slope, 0.85, 1.15))
            elif cfg.noise_scale > 0 and cfg.variant == ISOTROPIC_SHIFT:
                checks.append(_band_check("order2-slope", fit.slope, 1.8, 2.2))
        tables.append(Table("weak_error_%s_order%d" % (cfg.variant, order),
                            _WEAK_HEADER, tuple(rows), fit))
        curves.append(_curve("order %d" % order, rows, *_WEAK_XY))

    if cfg.noise_scale == 0:
        # errors holds order 2's; its last entry is at the smallest eta
        budget = 1e-6 * objective(model, x0)
        checks.append(Check(
            "deterministic-order2-error", bool(errors[-1] <= budget),
            "error=%.3g budget=%.3g at eta=%g" % (errors[-1], budget,
                                                  cfg.eta_grid[-1])))

    panels = (Panel("weak_error_%s" % cfg.variant,
                    "weak error vs step size (%s)" % cfg.variant,
                    "eta", "max weak error", tuple(curves), logx=True, logy=True),)
    return ExperimentReport(cfg.experiment, cfg, tuple(tables), panels,
                            tuple(metrics), tuple(checks))


def exp_condition_sweep(config=None):
    """Descent rate against condition number for sgd and tuned msgd.

    Per kappa the model has spectrum kappa^(-i/(d-1)) (lam_1 = 1); the start
    point sits on the slowest eigendirection so the measured rate is that of
    the limiting mode.  msgd runs at mu = optimal_mu(H).  Rates come from
    descent_rate on exact-recursion trajectories with closed-form floors; a
    log-log fit of rate vs kappa per family estimates the scaling exponent.
    """
    cfg = _resolve(config, "condition_sweep")
    if cfg.dimension == 1 and any(k != 1 for k in cfg.kappa):
        raise ConfigError("kappa: dimension 1 admits only kappa = 1")
    if len(cfg.eta_grid) > 1:
        raise ConfigError("eta_grid: condition_sweep runs one step size")
    eta = cfg.eta_grid[0]
    rows = {family: [] for family in cfg.families}
    for kappa in cfg.kappa:
        lam = condition_spectrum(cfg.dimension, kappa)
        model = _model_for(cfg, eigenvalues=lam)
        x0 = (np.asarray(cfg.x0, dtype=float) if cfg.x0
              else 1.0e7 * model.spec.basis[:, -1])
        for family in cfg.families:
            if family == SGD:
                fit = _descent(AlgoSpec(SGD, eta, cfg.horizon), model, x0)[2]
            else:
                momentum = ConstantMomentum(optimal_mu(model.spec))
                algo = AlgoSpec(family, eta, cfg.horizon, momentum)
                fit = _descent(algo, model, x0, trim=(1.4, 50))[2]
            if not fit.slope > 0:
                raise ConfigError("horizon: %s at kappa = %g has descent rate %g; a log-log "
                                  "fit needs it positive" % (family, kappa, fit.slope))
            rows[family].append((cfg.experiment, float(kappa), fit.slope, family))

    tables, metrics, checks, curves = [], [], [], []
    for family in cfg.families:
        rates = [row[2] for row in rows[family]]
        fit = None
        if len(rates) >= 2:
            fit = fit_loglog_slope(cfg.kappa, rates)
            metrics.append(("%s_slope" % family, fit.slope))
            if family == SGD:
                checks.append(_band_check("sgd-kappa-slope", fit.slope,
                                          -1.15, -0.85))
            elif family == MSGD:
                checks.append(_band_check("msgd-kappa-slope", fit.slope,
                                          -0.6, -0.4))
        tables.append(Table("sweep_%s" % family, _SWEEP_HEADER,
                            tuple(rows[family]), fit))
        curves.append(_curve(family, rows[family], *_RATE_XY))
    panels = (Panel("sweep", "descent rate vs condition number",
                    "kappa", "rate per iteration", tuple(curves),
                    logx=True, logy=True),)
    return ExperimentReport(cfg.experiment, cfg, tuple(tables), panels,
                            tuple(metrics), tuple(checks))


def exp_divergence(config=None):
    """Variance-induced instability of sgd on the eigenbasis_scaled model.

    Classifies each eta as convergent/divergent twice: from the exact
    per-mode growth factors (1 - eta lam)^2 + eta^2 ns^2, and from the sign
    of the modified-equation exponent eta ns^2 - 2 lam.  Emits the exact
    E f trajectories and compares the two flip thresholds.
    """
    cfg = _resolve(config, "divergence")
    model = _model_for(cfg)
    x0 = np.asarray(cfg.x0 or (1.0,) * cfg.dimension, dtype=float)
    lam = model.spec.eigenvalues
    lam_min = float(np.min(lam))
    ns2 = cfg.noise_scale ** 2

    rows, curves, verdicts = [], [], {}
    for eta in cfg.eta_grid:
        n = iteration_count(cfg.horizon, eta)
        ks = _subsample(n)
        series = exact_moment_recursion(AlgoSpec(SGD, eta, cfg.horizon), model, x0)
        discrete_divergent = bool(np.max(discrete_growth_factors(model, eta)) > 1.0)
        sme_divergent = bool(np.any(eta * ns2 > 2.0 * lam))
        verdicts[eta] = (discrete_divergent, sme_divergent)
        rows += _trajectory(cfg, SGD, 0.0, eta, ks, series[ks], "exact")
        curves.append(_curve("eta=%g" % eta, rows[-len(ks):], *_EF_XY))

    sme_threshold = divergence_threshold(model.spec) / ns2 if ns2 > 0 else math.inf
    disc_threshold = (discrete_divergence_threshold(lam_min, cfg.noise_scale)
                      if ns2 > 0 else math.inf)
    metrics = [("sme_threshold", sme_threshold),
               ("discrete_threshold", disc_threshold)]
    checks = []
    for eta, (disc, sme) in sorted(verdicts.items()):
        checks.append(Check("classifications-agree-eta%g" % eta, disc == sme,
                            "discrete=%s sme=%s" % (disc, sme)))
    grid = sorted(verdicts)
    flips = [(lo, hi) for lo, hi in zip(grid, grid[1:])
             if verdicts[lo][0] != verdicts[hi][0]]
    checks.append(Check("single-flip", len(flips) == 1,
                        "flip intervals: %s" % (flips,)))
    if ns2 > 0:
        gap = abs(disc_threshold - sme_threshold) / sme_threshold
        metrics.append(("threshold_relative_gap", gap))
        checks.append(Check("threshold-gap", bool(gap <= 1e-4),
                            "relative gap %.3g (limit 1e-4)" % gap))
    tables = (Table("divergence", _DYNAMICS_HEADER, tuple(rows)),)
    panels = (Panel("divergence", "sgd on eigenbasis_scaled: E f trajectories",
                    "t", "E f", tuple(curves), logy=True),)
    return ExperimentReport(cfg.experiment, cfg, tables, panels,
                            tuple(metrics), tuple(checks))


def exp_momentum_dynamics(config=None):
    """msgd E f trajectories against the Langevin closed form, plus floors
    and a momentum scan.

    For each mu and eta, the exact moment recursion is overlaid on the
    order-1 Langevin expectation at t = k eta; the report carries the max
    relative deviation inside the descent window, the exact infinite-horizon
    floors, and an underdamped/overdamped oscillation check.
    A separate scan measures descent rate over a mu grid on the spectrum
    whose predicted optimum is 0.95 and reports the grid argmax.
    """
    cfg = _resolve(config, "momentum_dynamics")
    model = _model_for(cfg)
    x0 = np.asarray(cfg.x0 or (1.0,) * cfg.dimension, dtype=float)
    eta0 = cfg.eta_grid[0]
    if _SCAN_MU_GRID[-1] > 1.0 / eta0:
        raise ConfigError("eta_grid: the momentum scan runs mu up to %g, past 1/eta"
                          " = %g at eta = %g" % (_SCAN_MU_GRID[-1], 1.0 / eta0, eta0))
    if _SCAN_HORIZON / eta0 > _MAX_SERIES_STEPS:
        raise ConfigError("eta_grid: the momentum scan's %.3g steps of eta = %g exceed"
                          " the limit of %d per series"
                          % (_SCAN_HORIZON / eta0, eta0, _MAX_SERIES_STEPS))

    rows, metrics, checks, curves = [], [], [], []
    deviations, exact_floors, series_eta0 = {}, {}, {}
    mc_slots = []   # (row index, algo, ks) of each Monte Carlo trajectory
    for mu in cfg.mu_values:
        systems = {eta: build_sme(model, MSGD, 1, eta, mu) for eta in cfg.eta_grid}
        exact_floors[mu] = langevin_expected_f_exact(systems[eta0], np.zeros_like(x0), math.inf)
        if math.isnan(exact_floors[mu]):   # C_inf overflows where mu lam underflows
            raise ConfigError("eigenvalues: the stationary E f at mu = %g is NaN" % mu)
        metrics.append(("exact_floor[mu=%g]" % mu, exact_floors[mu]))
        for eta in cfg.eta_grid:
            algo = AlgoSpec(MSGD, eta, cfg.horizon, ConstantMomentum(mu))
            n = algo.n_steps
            _, exact, fit = _descent(algo, model, x0)
            t_grid = eta * np.arange(n + 1)
            closed = langevin_expected_f_exact(systems[eta], x0, t_grid)
            lo, hi = fit.window
            deviation = _max_relative_deviation(exact, closed, lo, hi)
            deviations[(mu, eta)] = (deviation, hi)
            metrics.append(("max_rel_deviation[mu=%g,eta=%g]" % (mu, eta),
                            deviation))
            ks = _subsample(n)
            rows += _trajectory(cfg, MSGD, mu, eta, ks, exact[ks], "exact")
            rows += _trajectory(cfg, MSGD, mu, eta, ks, closed[ks], "closed-form")
            if eta == eta0:
                series_eta0[mu] = (exact, hi)
                curves.append(_curve("exact mu=%g" % mu, rows[-2 * len(ks):-len(ks)], *_EF_XY))
                curves.append(_curve("sme mu=%g" % mu, rows[-len(ks):], *_EF_XY))
                if cfg.n_paths > 0:
                    mc_slots.append((len(rows), algo, ks))
        n0 = iteration_count(cfg.horizon, eta0)
        rows.append((cfg.experiment, MSGD, float(mu), float(eta0), int(n0),
                     math.inf, float(exact_floors[mu]), 0.0, "floor"))
    if mc_slots:   # one batch at eta0 shares the draws and ks; rows go back to their slots
        ensembles = _run_ensembles([algo for _, algo, _ in mc_slots], model, x0, cfg.n_paths,
                                   cfg.seed, "f", cfg.threads, record=mc_slots[0][2])
        for (at, algo, ks), stats in reversed(list(zip(mc_slots, ensembles))):
            rows[at:at] = _trajectory(cfg, MSGD, algo.momentum.mu, algo.eta, ks,
                                      stats.mean, "mc", stats.stderr)

    ordered = sorted(cfg.mu_values)
    floor_sorted = [exact_floors[mu] for mu in ordered]
    checks.append(Check(
        "floor-decreasing-in-mu",
        all(a > b for a, b in zip(floor_sorted, floor_sorted[1:])),
        "floors %s for mu %s" % (["%.4g" % f for f in floor_sorted], ordered)))
    mu_lo, mu_hi = ordered[0], ordered[-1]
    series_lo, hi_lo = series_eta0[mu_lo]
    series_hi, hi_hi = series_eta0[mu_hi]
    checks.append(Check("oscillation-underdamped",
                        _has_oscillation(series_lo, hi_lo),
                        "mu=%g trajectory alternates within window" % mu_lo))
    checks.append(Check("no-oscillation-overdamped",
                        not _has_oscillation(series_hi, hi_hi),
                        "mu=%g trajectory is monotone within window" % mu_hi))
    if len(cfg.eta_grid) >= 2:
        eta1 = cfg.eta_grid[1]
        for mu in cfg.mu_values:
            ratio = deviations[(mu, eta1)][0] / deviations[(mu, eta0)][0]
            checks.append(_band_check("deviation-halves[mu=%g]" % mu,
                                      ratio, 0.3, 0.7))

    # momentum scan: grid argmax of the measured rate vs predicted optimum
    scan_model = from_spectrum(ISOTROPIC_SHIFT,
                               np.asarray(_SCAN_LAMBDAS, dtype=float),
                               noise_scale=cfg.noise_scale)
    scan_x0 = np.asarray(_SCAN_X0, dtype=float)
    # one batch; the rows are fitted in grid order, so the first failing
    # momentum raises what its own _descent would
    algos = [AlgoSpec(MSGD, eta0, _SCAN_HORIZON, ConstantMomentum(mu))
             for mu in _SCAN_MU_GRID]
    scan_rates = [_fit(algo, *run).slope for algo, run in
                  zip(algos, constant_momentum_runs(algos, scan_model, scan_x0))]
    scan_rows = [(cfg.experiment, mu, rate, MSGD)
                 for mu, rate in zip(_SCAN_MU_GRID, scan_rates)]
    best = int(np.argmax(scan_rates))
    argmax_mu = _SCAN_MU_GRID[best]
    predicted = optimal_mu(scan_model.spec)
    metrics.append(("scan_argmax_mu", argmax_mu))
    metrics.append(("scan_predicted_mu", predicted))
    checks.append(Check(
        "scan-argmax-near-predicted",
        bool(abs(argmax_mu - predicted) <= 0.1 * predicted),
        "argmax %.4g vs predicted %.4g (10%% band)" % (argmax_mu, predicted)))

    tables = (Table("momentum_dynamics", _DYNAMICS_HEADER, tuple(rows)),
              Table("momentum_scan", _SCAN_HEADER, tuple(scan_rows)))
    panels = (Panel("momentum_dynamics",
                    "msgd: exact recursion vs Langevin closed form (eta=%g)"
                    % eta0, "t", "E f", tuple(curves), logy=True),
              Panel("momentum_scan", "measured descent rate vs momentum",
                    "mu", "rate per iteration", (_curve("measured", scan_rows, *_RATE_XY),)))
    return ExperimentReport(cfg.experiment, cfg, tables, panels,
                            tuple(metrics), tuple(checks))


def _argmax_order2_mu(family, eta, spec):
    """Momentum in (0, 1/eta] maximizing the least real part of the order-2 drift
    blocks: a coarse grid over (0, 6 sqrt(lam_max)) by 0.002, then a local refinement,
    each in one array evaluation.  A coarse grid that is empty or holds over
    _MAX_GRID_CELLS (mu, mode) cells is a ConfigError naming eigenvalues, before it is built."""
    def best(grid):
        grid = grid[(grid > 0) & (grid <= 1.0 / eta)]
        b0, b1 = _drift_blocks(family, 2, spec.eigenvalues, eta, grid)
        return grid[int(np.argmax(_least_real_2x2(-(b0 + eta * b1)).min(axis=1)))]

    top = 6.0 * math.sqrt(float(np.max(spec.eigenvalues)))
    if not 0.002 < top <= 0.002 * _MAX_GRID_CELLS / spec.dim:
        raise ConfigError("eigenvalues: the tuning grid (0, 6 sqrt(lam_max)) = (0, %.3g) by 0.002"
                          " x %d modes must hold 1 to %d cells" % (top, spec.dim, _MAX_GRID_CELLS))
    center = best(np.arange(0.002, top, 0.002))
    return float(best(np.arange(center - 0.004, center + 0.004, 2e-5)))


def exp_msgd_vs_snag(config=None):
    """Three comparisons of msgd and snag on isotropic_shift models.

    (a) constant mu: the closed-form gap between minimal real parts is
        eta lam_d / 2 per the order-2 spectra, so the measured per-iteration
        descent-rate gap should be ~ 2 * gap * eta; run for lam_d in
        {0.25, 1.0}.
    (b) each family at the momentum maximizing its own order-2 minimal real
        part: measured rates agree to within an eta-sized fraction.
    (c) snag under the Nesterov schedule: the late-window rate falls below
        half the early-window rate (sub-linear phase) and the trajectory's
        late plateau sits above the tuned-msgd stationary floor.
    """
    cfg = _resolve(config, "msgd_vs_snag")
    if cfg.x0 and cfg.dimension != 2:
        raise ConfigError("x0: part (a) runs on 2-mode models (1, lam_d), so an "
                          "explicit x0 needs dimension 2")
    if len(cfg.eta_grid) > 1:
        raise ConfigError("eta_grid: msgd_vs_snag runs one step size")
    eta = cfg.eta_grid[0]
    mu_const = cfg.mu_values[0]

    tables, panels, metrics, checks = [], [], [], []
    measured_gaps = {}
    for lam_d in (0.25, 1.0):
        model = _model_for(cfg, eigenvalues=(1.0, lam_d))
        x0 = np.asarray(cfg.x0 or (5.0e4, 1.0e6), dtype=float)
        gap_closed = (order2_eigs(SNAG, mu_const, eta, model.spec).min_real_part
                      - order2_eigs(MSGD, mu_const, eta, model.spec).min_real_part)
        predicted_gap = 2.0 * gap_closed * eta
        checks.append(Check(
            "closed-gap-lamd%g" % lam_d,
            bool(abs(gap_closed - 0.5 * eta * lam_d) <= 1e-10),
            "gap %.12g vs eta*lam_d/2 = %.12g" % (gap_closed,
                                                  0.5 * eta * lam_d)))
        rows, rates, curves = [], {}, []
        for family in (MSGD, SNAG):
            algo = AlgoSpec(family, eta, cfg.horizon, ConstantMomentum(mu_const))
            _, series, fit = _descent(algo, model, x0, trim=(1.3, 100))
            rates[family] = fit.slope
            ks = _subsample(series.size - 1)
            rows += _trajectory(cfg, family, mu_const, eta, ks, series[ks], "exact")
            curves.append(_curve(family, rows[-len(ks):], *_EF_XY))
        measured = rates[SNAG] - rates[MSGD]
        measured_gaps[lam_d] = measured
        metrics.append(("closed_gap[lam_d=%g]" % lam_d, gap_closed))
        metrics.append(("predicted_rate_gap[lam_d=%g]" % lam_d, predicted_gap))
        metrics.append(("measured_rate_gap[lam_d=%g]" % lam_d, measured))
        checks.append(Check(
            "measured-gap-lamd%g" % lam_d,
            bool(abs(measured - predicted_gap) <= 0.15 * predicted_gap),
            "measured %.4g vs predicted %.4g (15%% band)" % (measured,
                                                             predicted_gap)))
        tag = ("%g" % lam_d).replace(".", "p")
        tables.append(Table("compare_snag_lamd%s" % tag, _DYNAMICS_HEADER,
                            tuple(rows)))
        panels.append(Panel("compare_snag_lamd%s" % tag,
                            "msgd vs snag at mu=%g, lam_d=%g" % (mu_const, lam_d),
                            "t", "E f", tuple(curves), logy=True))
    checks.append(Check(
        "gap-grows-with-lamd",
        bool(0.0 < measured_gaps[0.25] < measured_gaps[1.0]),
        "gaps %.4g (lam_d=0.25) < %.4g (lam_d=1.0)"
        % (measured_gaps[0.25], measured_gaps[1.0])))

    # (b) each family at its own order-2-optimal momentum
    model_b = _model_for(cfg)
    if eta * eta * float(np.max(model_b.spec.eigenvalues)) >= 2.0:
        raise ConfigError("eta_grid: snag at eta = %g diverges at every mu in (0, 1/eta] on"
                          " this spectrum (Jury's test needs eta^2 lam_max < 2)" % eta)
    x0_b = np.asarray(cfg.x0 or (1.0e6,) * cfg.dimension, dtype=float)
    tuned_rows, tuned_rates, tuned_floors = [], {}, {}
    for family in (MSGD, SNAG):
        mu_opt = _argmax_order2_mu(family, eta, model_b.spec)
        algo = AlgoSpec(family, eta, cfg.horizon, ConstantMomentum(mu_opt))
        tuned_floors[family], _, fit = _descent(algo, model_b, x0_b, trim=(1.3, 100))
        tuned_rates[family] = fit.slope
        metrics.append(("tuned_mu[%s]" % family, mu_opt))
        metrics.append(("tuned_rate[%s]" % family, tuned_rates[family]))
        tuned_rows.append((cfg.experiment, mu_opt, tuned_rates[family], family))
    tuned_diff = abs(tuned_rates[SNAG] - tuned_rates[MSGD])
    checks.append(Check(
        "tuned-rates-similar",
        bool(tuned_diff <= 0.1 * eta * tuned_rates[MSGD]),
        "rate difference %.3g vs 0.1*eta*rate = %.3g"
        % (tuned_diff, 0.1 * eta * tuned_rates[MSGD])))
    tables.append(Table("compare_snag_tuned", _SCAN_HEADER, tuple(tuned_rows)))

    # (c) Nesterov schedule: sub-linear slowdown and floor above tuned msgd
    algo_s = AlgoSpec(SNAG, eta, cfg.horizon, NesterovSchedule())
    n = algo_s.n_steps
    x0_s = np.asarray(cfg.x0 or (1.0e4,) * cfg.dimension, dtype=float)
    series_s = exact_moment_recursion(algo_s, model_b, x0_s)
    early = windowed_rate(series_s, n // 10, n // 5)
    late = windowed_rate(series_s, n // 2, n)
    floor_sched = float(np.mean(series_s[(3 * n) // 4:]))
    metrics.append(("schedule_early_rate", early.slope))
    metrics.append(("schedule_late_rate", late.slope))
    metrics.append(("schedule_floor", floor_sched))
    metrics.append(("msgd_tuned_floor", tuned_floors[MSGD]))
    checks.append(Check(
        "schedule-sublinear",
        bool(late.slope < 0.5 * early.slope),
        "late rate %.4g < half of early rate %.4g" % (late.slope, early.slope)))
    checks.append(Check(
        "schedule-floor-above-tuned-msgd",
        bool(floor_sched > tuned_floors[MSGD]),
        "schedule floor %.4g vs tuned msgd floor %.4g"
        % (floor_sched, tuned_floors[MSGD])))
    ks = _subsample(n)
    tables.append(Table("compare_snag_schedule", _DYNAMICS_HEADER, tuple(
        _trajectory(cfg, SNAG, mu_at(algo_s, ks), eta, ks, series_s[ks], "exact"))))
    panels.append(Panel("compare_snag_schedule",
                        "snag under the Nesterov schedule", "t", "E f",
                        (_curve("schedule", tables[-1].rows, *_EF_XY),), logy=True))
    return ExperimentReport(cfg.experiment, cfg, tuple(tables), tuple(panels),
                            tuple(metrics), tuple(checks))


# ---------------------------------------------------------------------------
# The experiment table
# ---------------------------------------------------------------------------


# fields every experiment accepts at any value; the CLI sets the last three on each
_RUN_LEVEL = ("experiment", "dimension", "variant", "noise_scale", "eta_grid",
              "horizon", "x0", "seed", "threads", "out_dir")
# an experiment's CLI subcommand, runner (config -> ExperimentReport), model
# variants it runs on (the first is its default), the other fields it reads (a
# config file sets the rest only to their defaults; no array it reads may be
# empty) and default fields (the rest are ExperimentConfig's), in figures' order
_Experiment = namedtuple("_Experiment", "command runner variants reads defaults")
_TABLE = {
    "weak_error": _Experiment(
        "weak-error", exp_weak_error, (ISOTROPIC_SHIFT, EIGENBASIS_SCALED), ("eigenvalues",),
        dict(eigenvalues=(1.0, 0.1), eta_grid=(0.1, 0.05, 0.025, 0.0125),
             x0=(1.0, 1.0))),
    "condition_sweep": _Experiment(
        "sweep", exp_condition_sweep, (ISOTROPIC_SHIFT,), ("kappa", "families"),
        dict(dimension=6, kappa=(10.0, 30.0, 100.0, 300.0, 1000.0),
             horizon=12000.0, families=("sgd", "msgd"))),
    "divergence": _Experiment(
        "divergence", exp_divergence, (EIGENBASIS_SCALED,), ("eigenvalues",),
        dict(eigenvalues=(1.0, 0.01), eta_grid=(0.04, 0.025, 0.015, 0.005),
             horizon=300.0, x0=(0.1, 1.0))),
    "momentum_dynamics": _Experiment(
        "momentum", exp_momentum_dynamics, (ISOTROPIC_SHIFT,),
        ("eigenvalues", "mu_values", "n_paths"),
        dict(eigenvalues=(1.0, 0.25), eta_grid=(0.1, 0.05), horizon=40.0,
             families=("msgd",), mu_values=(0.1, 1.0, 3.0), n_paths=2048,
             x0=(30.0, 30.0))),
    "msgd_vs_snag": _Experiment(
        "compare-snag", exp_msgd_vs_snag, (ISOTROPIC_SHIFT,), ("eigenvalues", "mu_values"),
        dict(eigenvalues=(1.0, 0.25), horizon=400.0, families=("msgd", "snag"),
             mu_values=(0.2,))),
}
EXPERIMENTS = tuple(_TABLE)


def default_config(experiment):
    """Desk-scale defaults of an experiment (spectra, grids, start point), on
    its default model variant."""
    if experiment not in EXPERIMENTS:
        raise ConfigError("experiment: unknown experiment %r (expected one of %s)"
                          % (experiment, ", ".join(EXPERIMENTS)))
    entry = _TABLE[experiment]
    return ExperimentConfig(experiment, variant=entry.variants[0], **entry.defaults)


def run_experiment(config):
    """Dispatch a config to its experiment function."""
    return _TABLE[config.experiment].runner(config)
