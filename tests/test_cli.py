import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smelab import cli, repro
from smelab.matkit import MAX_DIM
from smelab.repro import (ConfigError, ExperimentConfig, ExperimentReport,
                          default_config, parse_csv)


def _files(dirpath):
    return sorted(os.listdir(dirpath))


def test_no_subcommand_is_usage_error(capsys):
    assert cli.main([]) == 2
    err = capsys.readouterr().err
    assert "a subcommand is required" in err
    assert "usage" in err


def test_unknown_subcommand_is_usage_error(capsys):
    assert cli.main(["frobnicate"]) == 2


def test_bad_config_names_offending_key(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"experiment": "weak_error",
                               "eta_grid": [0.05, 0.1]}))
    code = cli.main(["weak-error", "--config", str(bad),
                     "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: eta_grid")


def test_missing_config_file(tmp_path, capsys):
    code = cli.main(["weak-error", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path)])
    assert code == 2
    assert "config: cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    # not UTF-8 (a UTF-16 byte-order mark)
    b'\xff\xfe{"experiment": "weak_error"}',
    # nested past the interpreter's recursion limit
    b'{"experiment": "weak_error", "x0": ' + b"[" * 50000 + b"]" * 50000 + b"}",
    # an integer literal past Python's 4,300-digit conversion limit
    b'{"experiment": "weak_error", "dimension": 1' + b"0" * 5000 + b"}",
], ids=["not-utf8", "nested-50000-deep", "int-of-5001-digits"])
def test_unparsable_config_file_is_a_config_error(tmp_path, capsys, text):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(text)
    code = cli.main(["weak-error", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config: ")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def _configs_run(monkeypatch, tmp_path, argv):
    """The configs that cli.main hands to run_experiment for argv, in order."""
    seen = []

    def record(config):
        seen.append(config)
        return ExperimentReport(config.experiment, config, (), (), (), ())

    monkeypatch.setattr("smelab.repro.run_experiment", record)
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    return seen


def _default(experiment, variant, out_dir):
    cfg = default_config(experiment)
    return dataclasses.replace(cfg, variant=variant or cfg.variant, out_dir=str(out_dir))


@pytest.mark.parametrize("command, experiment, variants", [
    ("weak-error", "weak_error", ["isotropic_shift", "eigenbasis_scaled"]),
    ("sweep", "condition_sweep", ["isotropic_shift"]),
    ("divergence", "divergence", ["eigenbasis_scaled"]),
    ("momentum", "momentum_dynamics", ["isotropic_shift"]),
    ("compare-snag", "msgd_vs_snag", ["isotropic_shift"]),
])
def test_each_command_runs_its_default_configs(tmp_path, monkeypatch, command,
                                               experiment, variants):
    seen = _configs_run(monkeypatch, tmp_path, [command])
    assert seen == [_default(experiment, variant, tmp_path) for variant in variants]
    assert variants[0] == default_config(experiment).variant


def test_figures_runs_the_benchmark_configs_in_order(tmp_path, monkeypatch):
    # the figures benchmark splits the stdout by config in FIGURE_CONFIGS'
    # order; a name is experiment[.variant], with no variant for the default
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import tracing

    seen = _configs_run(monkeypatch, tmp_path, ["figures"])
    names = [name.partition(".") for name in tracing.FIGURE_CONFIGS]
    assert len(seen) == 6
    assert seen == [_default(experiment, variant, tmp_path) for experiment, _, variant in names]


def test_config_for_wrong_command(tmp_path, capsys):
    cfg = tmp_path / "div.json"
    cfg.write_text(json.dumps({"experiment": "divergence"}))
    code = cli.main(["weak-error", "--config", str(cfg),
                     "--out", str(tmp_path)])
    assert code == 2
    assert "experiment: config declares" in capsys.readouterr().err


@pytest.mark.parametrize("command, experiment", [
    ("weak-error", "weak_error"), ("sweep", "condition_sweep"),
    ("divergence", "divergence"), ("momentum", "momentum_dynamics"),
    ("compare-snag", "msgd_vs_snag"),
])
def test_config_file_starts_from_its_experiments_defaults(tmp_path, monkeypatch, capsys,
                                                          command, experiment):
    # a file naming only its experiment runs what the command runs with no
    # --config on the default variant: the same files, bytes and stdout
    (tmp_path / "only.json").write_text(json.dumps({"experiment": experiment}))
    runs = {}
    for name, flags in (("default", []), ("file", ["--config", str(tmp_path / "only.json")])):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert cli.main([command, "--out", "out"] + flags) == 0
        runs[name] = capsys.readouterr().out
    names = _files(tmp_path / "file" / "out")
    assert names and set(names) <= set(_files(tmp_path / "default" / "out"))
    for name in names:
        assert (tmp_path / "file" / "out" / name).read_bytes() \
            == (tmp_path / "default" / "out" / name).read_bytes()
    assert runs["default"].startswith(runs["file"])   # weak-error runs a second variant
    assert (runs["default"] == runs["file"]) == (command != "weak-error")


def test_config_file_overrides_only_the_fields_it_names(tmp_path, capsys):
    # six coordinates fit condition_sweep's default dimension of 6
    cfg = ExperimentConfig.from_json(json.dumps({"experiment": "condition_sweep",
                                                 "x0": [1.0] * 6}))
    assert cfg == dataclasses.replace(default_config("condition_sweep"), x0=(1.0,) * 6)
    # divergence's default variant is eigenbasis_scaled, so the file need not name it
    found = tmp_path / "divergence.json"
    found.write_text(json.dumps({"experiment": "divergence", "eigenvalues": [1.0, 0.01],
                                 "eta_grid": [0.04, 0.005], "horizon": 2.0}))
    assert cli.main(["divergence", "--config", str(found), "--out", str(tmp_path / "out")]) == 0
    assert "divergence.csv" in _files(tmp_path / "out")
    # the experiment is still checked first, with the message of its kind
    for bad in (3, ["divergence"], None):
        with pytest.raises(ConfigError, match="^experiment: expected a string"):
            ExperimentConfig.from_json(json.dumps({"experiment": bad}))


def test_a_file_at_another_dimension_starts_from_no_spectrum_and_no_start(tmp_path, capsys):
    # the default eigenvalues and x0 fit the default dimension only
    cfg = tmp_path / "d3.json"
    cfg.write_text(json.dumps({"experiment": "weak_error", "dimension": 3}))
    assert cli.main(["weak-error", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err \
        == "config error: eigenvalues: weak_error needs at least one value\n"
    # with a spectrum it runs from the fallback start (1, 1, 1)
    cfg.write_text(json.dumps({"experiment": "weak_error", "dimension": 3,
                               "eigenvalues": [1.0, 0.5, 0.1]}))
    assert cli.main(["weak-error", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    table = parse_csv(str(tmp_path / "out" / "weak_error_isotropic_shift_order1.csv"))
    (echo,) = [c for c in table.comments if c.startswith("config,")]
    assert json.loads(echo[len("config,"):])["x0"] == []
    # what the file gives still wins, and its default dimension keeps the default start
    loaded = ExperimentConfig.from_json(json.dumps({
        "experiment": "weak_error", "dimension": 1, "eigenvalues": [2.0], "x0": [3.0]}))
    assert (loaded.eigenvalues, loaded.x0) == ((2.0,), (3.0,))
    assert ExperimentConfig.from_json(json.dumps({"experiment": "weak_error", "dimension": 2.0})) \
        == default_config("weak_error")


def test_an_empty_config_or_out_flag_is_an_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for flags, key in ((["--config", ""], "config"), (["--out", ""], "out_dir")):
        assert cli.main(["divergence"] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: %s: " % key) and len(err.splitlines()) == 1
    assert _files(tmp_path) == []
    # an empty $SMELAB_OUT is unset: the config's out_dir "." is used
    monkeypatch.setenv("SMELAB_OUT", "")
    assert cli.main(["divergence"]) == 0
    assert _files(tmp_path) == ["divergence.csv", "divergence.svg"]


def test_every_echoed_config_loads_back_as_the_config_that_wrote_it(tmp_path):
    # figures and each command at its defaults; the echo drops out_dir and threads
    runs = [("figures", ["--seed", "3", "--threads", "2"], 3)]
    runs += [(entry.command, [], 0) for entry in repro._TABLE.values()]
    for run, (command, flags, seed) in enumerate(runs):
        out = tmp_path / str(run)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([command, "--out", str(out)] + flags) == 0
        wrote = {dataclasses.replace(default_config(experiment), variant=variant, seed=seed)
                 for experiment in repro.EXPERIMENTS
                 if command in ("figures", repro._TABLE[experiment].command)
                 for variant in repro._TABLE[experiment].variants}
        echoed = set()
        for name in _files(out):
            if name.endswith(".csv"):
                (echo,) = [c[len("config,"):] for c in parse_csv(str(out / name)).comments
                           if c.startswith("config,")]
                cfg = ExperimentConfig.from_json(echo)
                assert cfg.to_json(compact=True) == echo
                echoed.add(cfg)
        assert echoed == wrote


def test_weak_error_deterministic_and_contained(tmp_path, monkeypatch, capsys):
    scratch = tmp_path / "cwd"
    scratch.mkdir()
    monkeypatch.chdir(scratch)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert cli.main(["weak-error", "--out", str(out1), "--seed", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(1 for l in lines if l.startswith("wrote ")) == 6  # 4 csv + 2 svg
    assert all(l.startswith(("wrote ", "PASS ")) for l in lines)
    assert cli.main(["weak-error", "--out", str(out2), "--seed", "7"]) == 0
    names = _files(out1)
    assert names == _files(out2)
    assert "weak_error_isotropic_shift_order1.csv" in names
    assert "weak_error_eigenbasis_scaled_order1.csv" in names
    for name in names:
        a = (out1 / name).read_bytes()
        assert a == (out2 / name).read_bytes()
    assert _files(scratch) == []              # nothing written outside --out


def test_seed_echoed_into_csv(tmp_path):
    out = tmp_path / "o"
    assert cli.main(["divergence", "--out", str(out), "--seed", "99"]) == 0
    table = parse_csv(str(out / "divergence.csv"))
    assert "seed,99" in table.comments


def test_out_precedence_env_and_flag(tmp_path, monkeypatch):
    env_dir = tmp_path / "env"
    monkeypatch.setenv("SMELAB_OUT", str(env_dir))
    assert cli.main(["divergence"]) == 0
    assert "divergence.csv" in _files(env_dir)
    flag_dir = tmp_path / "flag"
    assert cli.main(["divergence", "--out", str(flag_dir)]) == 0
    assert "divergence.csv" in _files(flag_dir)
    assert _files(env_dir) == ["divergence.csv", "divergence.svg"]


def test_momentum_threads_do_not_change_bytes(tmp_path):
    cfg = tmp_path / "momentum.json"
    cfg.write_text(json.dumps({
        "experiment": "momentum_dynamics", "eigenvalues": [1.0, 0.25],
        "eta_grid": [0.1], "horizon": 6.0, "mu_values": [0.3, 3.0],
        "n_paths": 128, "x0": [30.0, 30.0], "seed": 5}))
    out1 = tmp_path / "t1"
    out4 = tmp_path / "t4"
    assert cli.main(["momentum", "--config", str(cfg), "--out", str(out1),
                     "--threads", "1"]) == 0
    assert cli.main(["momentum", "--config", str(cfg), "--out", str(out4),
                     "--threads", "4"]) == 0
    for name in _files(out1):
        assert (out1 / name).read_bytes() == (out4 / name).read_bytes()


def test_selftest_passes_and_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["selftest"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert len(lines) == 6
    assert all(l.startswith("PASS ") for l in lines)
    assert _files(tmp_path) == []


def test_start_inside_the_floor_is_a_config_error(tmp_path, capsys):
    # f(x0) sits below the noise floor, so no descent rate can be fitted
    cfg = tmp_path / "momentum.json"
    cfg.write_text(json.dumps({
        "experiment": "momentum_dynamics", "eigenvalues": [1.0, 0.25],
        "eta_grid": [0.1], "horizon": 6.0, "mu_values": [0.3, 3.0],
        "x0": [0.01, 0.01]}))
    code = cli.main(["momentum", "--config", str(cfg), "--out",
                     str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: x0")
    assert "Traceback" not in err


def test_momentum_above_the_ceiling_is_a_config_error(tmp_path, capsys):
    # mu = 20 exceeds 1/eta = 10, where the momentum map is not admissible
    cfg = tmp_path / "momentum.json"
    cfg.write_text(json.dumps({
        "experiment": "momentum_dynamics", "eigenvalues": [1.0, 0.25],
        "eta_grid": [0.1], "horizon": 6.0, "mu_values": [0.3, 20.0],
        "x0": [30, 30]}))
    code = cli.main(["momentum", "--config", str(cfg), "--out",
                     str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: mu_values")
    assert "Traceback" not in err


def test_series_longer_than_the_limit_is_a_config_error(tmp_path, monkeypatch,
                                                        capsys):
    # 2e13 steps at eta = 0.05: validation rejects it before any experiment
    # code runs, so nothing is allocated
    def refuse(config):
        raise AssertionError("experiment ran")

    monkeypatch.setattr("smelab.repro.run_experiment", refuse)
    cfg = tmp_path / "weak.json"
    cfg.write_text(json.dumps({
        "experiment": "weak_error", "eigenvalues": [1.0, 0.1],
        "eta_grid": [0.1, 0.05], "horizon": 1e12}))
    code = cli.main(["weak-error", "--config", str(cfg), "--out",
                     str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: horizon")
    assert "Traceback" not in err


@pytest.mark.parametrize("key, config, flags", [
    ("threads", {}, ["--threads", "100000"]),
    ("n_paths", {"n_paths": 1e8, "horizon": 1000}, []),
    # 10^6 steps at d = 64; the experiment's default spectrum and start have 2
    ("horizon", {"dimension": 64, "horizon": 1e5, "eigenvalues": [1.0] * 64,
                 "x0": [1.0] * 64}, []),
])
def test_work_over_budget_is_a_config_error(tmp_path, monkeypatch, capsys,
                                            key, config, flags):
    # validation rejects it before any experiment code or thread starts
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr("smelab.repro.run_experiment", refuse)
    monkeypatch.setattr("smelab.sga.ThreadPoolExecutor", refuse)
    cfg = tmp_path / "momentum.json"
    cfg.write_text(json.dumps({"experiment": "momentum_dynamics",
                               "eta_grid": [0.1], **config}))
    code = cli.main(["momentum", "--config", str(cfg), "--out",
                     str(tmp_path / "out")] + flags)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: " + key)
    assert "Traceback" not in err


@pytest.mark.parametrize("command, config", [
    # lam = 500 at eta = 0.1: the msgd update has spectral radius > 1
    ("momentum", {"experiment": "momentum_dynamics", "dimension": 2,
                  "eigenvalues": [500.0, 1.0], "eta_grid": [0.1],
                  "horizon": 4.0, "families": ["msgd"], "mu_values": [0.5, 1.0],
                  "n_paths": 0, "x0": [1e6, 1e6]}),
    # lam = 300: snag at its order-2-optimal momentum diverges
    ("compare-snag", {"experiment": "msgd_vs_snag", "dimension": 2,
                      "eigenvalues": [300.0, 0.25], "eta_grid": [0.1],
                      "horizon": 40.0, "families": ["msgd", "snag"],
                      "mu_values": [0.2]}),
])
def test_step_size_with_a_diverging_mode_is_a_config_error(tmp_path, capsys,
                                                           command, config):
    cfg = tmp_path / "diverging.json"
    cfg.write_text(json.dumps(config))
    code = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: eta_grid")
    assert "Traceback" not in err


def _defaults(experiment, **changes):
    config = json.loads(default_config(experiment).to_json())
    config.update(changes)
    return config


# valid config files that a seeded fuzz found ending in a traceback, or
# writing NaN into a CSV, while the rows a figure draws went unchecked
_FOUND = [
    # msgd's rate at kappa = 1e5 is negative at this horizon, positive at 200
    ("sweep", {"experiment": "condition_sweep", "dimension": 2,
               "kappa": [30.0, 100000.0], "horizon": 20.0,
               "families": ["sgd", "msgd"], "x0": [-1000.0, 1.0]}),
    ("sweep", {"experiment": "condition_sweep", "dimension": 2, "kappa": [100000.0],
               "horizon": 20.0, "families": ["msgd"], "x0": [-1000.0, 1.0]}),
    # eta lam = 10: E f overflows after k = 0, so the weak error is inf
    ("weak-error", {"experiment": "weak_error", "eigenvalues": [100.0, 0.01],
                    "x0": [-1e6, 30.0], "horizon": 100.0}),
    # f(x0) overflows: the weak error is inf - inf
    ("weak-error", {"experiment": "weak_error", "x0": [1e200, 1e200]}),
    # E f near the largest double: a log axis with ticks up to 1e308
    ("divergence", {"experiment": "divergence", "x0": [0.0, 1e150],
                    "eta_grid": [0.1, 0.05]}),
    # f(x0) / (10 x floor) overflows, so the trim has no finite length
    ("compare-snag", {"experiment": "msgd_vs_snag", "x0": [1e6, 1e150],
                      "noise_scale": 1e-8, "horizon": 5.0, "mu_values": [1.0]}),
    # the Monte Carlo squares overflow at k = 0: no finite standard error
    ("momentum", {"experiment": "momentum_dynamics", "x0": [1e150, -1e6],
                  "eta_grid": [0.2], "eigenvalues": [4.0, 0.01], "n_paths": 8,
                  "horizon": 2.0}),
]


@pytest.mark.parametrize("command, config, code, key", [
    # mu = 1/eta: no trim estimate, the full horizon runs and a check fails
    ("compare-snag", {"experiment": "msgd_vs_snag", "eigenvalues": [1.0, 0.25],
                      "horizon": 60.0, "eta_grid": [0.1], "mu_values": [10.0]},
     1, None),
    # no noise, so a zero floor: again the full horizon
    ("compare-snag", {"experiment": "msgd_vs_snag", "eigenvalues": [1.0, 0.25],
                      "horizon": 60.0, "eta_grid": [0.1], "mu_values": [0.2],
                      "noise_scale": 0.0}, 1, None),
    # snag diverges at every momentum in (0, 1/eta] once eta^2 lam_max >= 2; this
    # is checked ahead of part (b)'s tuning, whose grid would hold 6e6 cells
    ("compare-snag", {"experiment": "msgd_vs_snag",
                      "eigenvalues": [1000000.0, 1.0], "horizon": 60.0,
                      "mu_values": [0.2]}, 2, "eta_grid"),
    # E f overflows, starts at 0, or starts above the largest double: no log axis
    ("divergence", _defaults("divergence", noise_scale=50.0), 2, "horizon"),
    ("divergence", _defaults("divergence", x0=[0.0, 0.0]), 2, "x0"),
    ("momentum", _defaults("momentum_dynamics", x0=[1e300, 1e300]), 2, "x0"),
    # one path has no standard error
    ("momentum", _defaults("momentum_dynamics", n_paths=1), 2, "n_paths"),
    # one mode has no spread of eigenvalues to condition
    ("sweep", _defaults("condition_sweep", dimension=1, kappa=[10.0]), 2,
     "kappa"),
    # a value of the wrong kind: every field takes one
    ("momentum", _defaults("momentum_dynamics", families=3), 2, "families"),
    ("momentum", _defaults("momentum_dynamics", families=None), 2, "families"),
    ("momentum", _defaults("momentum_dynamics", families="msgd"), 2,
     "families"),
    ("weak-error", _defaults("weak_error", dimension=2.7), 2, "dimension"),
    ("weak-error", _defaults("weak_error", dimension=math.inf), 2, "dimension"),
    ("momentum", _defaults("momentum_dynamics", n_paths=2.9), 2, "n_paths"),
    ("weak-error", _defaults("weak_error", seed=math.inf), 2, "seed"),
    ("weak-error", _defaults("weak_error", seed=2**64), 2, "seed"),
    ("weak-error", _defaults("weak_error", threads=math.inf), 2, "threads"),
    ("weak-error", _defaults("weak_error", eigenvalues=[True, 0.1]), 2,
     "eigenvalues"),
    ("momentum", _defaults("momentum_dynamics", horizon="40"), 2, "horizon"),
    # noise_scale ** 2 would overflow a Python float
    ("momentum", _defaults("momentum_dynamics", noise_scale=1e200), 2, "noise_scale"),
    ("weak-error", _defaults("weak_error", noise_scale=1e200), 2, "noise_scale"),
    ("divergence", _defaults("divergence", noise_scale=1e200), 2, "noise_scale"),
    # the momentum scan runs mu up to 1.9, past 1/eta at eta = 0.9
    ("momentum", {"experiment": "momentum_dynamics", "eigenvalues": [1.0, 0.25],
                  "eta_grid": [0.9], "horizon": 40.0, "mu_values": [1.0],
                  "x0": [30, 30]}, 2, "eta_grid"),
    ("momentum", {"experiment": "momentum_dynamics", "eigenvalues": [1.0, 0.25],
                  "eta_grid": [0.9], "horizon": 40.0, "mu_values": [1.0],
                  "n_paths": 0, "x0": [30, 30]}, 2, "eta_grid"),
    # the config's own series have 50,000 steps, but the momentum scan runs
    # 40/eta = 2,000,000, past the per-series limit
    ("momentum", {"experiment": "momentum_dynamics", "eigenvalues": [1.0, 0.25],
                  "eta_grid": [2e-5], "horizon": 1.0, "mu_values": [0.5, 2.0],
                  "n_paths": 0, "x0": [30, 30]}, 2, "eta_grid"),
    # part (a) runs on fixed 2-mode models, which an x0 of another length
    # does not fit
    ("compare-snag", {"experiment": "msgd_vs_snag", "dimension": 1,
                      "eigenvalues": [1.0], "eta_grid": [0.1], "horizon": 400.0,
                      "mu_values": [0.2], "x0": [1000.0]}, 2, "x0"),
    ("compare-snag", {"experiment": "msgd_vs_snag", "dimension": 3,
                      "eigenvalues": [1.0, 0.5, 0.25], "eta_grid": [0.1],
                      "horizon": 400.0, "mu_values": [0.2],
                      "x0": [1000.0, 1000.0, 1000.0]}, 2, "x0"),
    # f(x0) overflows to +inf, so part (b) has no descent to trim or fit
    ("compare-snag", {"experiment": "msgd_vs_snag", "eigenvalues": [1.0, 0.25],
                      "horizon": 20.0, "eta_grid": [0.1], "mu_values": [0.2],
                      "x0": [1e200, 1e200]}, 2, "x0"),
    ("compare-snag", {"experiment": "msgd_vs_snag", "eigenvalues": [1.0, 0.25],
                      "horizon": 20.0, "eta_grid": [0.1], "mu_values": [0.2],
                      "x0": [1e160, 1e160]}, 2, "x0"),
    # a field the experiment does not read, set away from its default: weak_error
    # runs sgd only, so this file would echo a run that never happened
    ("weak-error", {"experiment": "weak_error", "families": ["snag"]}, 2, "families"),
    ("weak-error", {"experiment": "weak_error", "kappa": [10.0]}, 2, "kappa"),
    ("sweep", {"experiment": "condition_sweep", "eigenvalues": [1.0] * 6}, 2,
     "eigenvalues"),
    ("divergence", _defaults("divergence", mu_values=[0.5]), 2, "mu_values"),
    ("momentum", {"experiment": "momentum_dynamics", "families": ["sgd"]}, 2,
     "families"),
    ("compare-snag", {"experiment": "msgd_vs_snag", "n_paths": 16}, 2, "n_paths"),
    # an empty array that the experiment reads
    ("weak-error", {"experiment": "weak_error", "eigenvalues": []}, 2, "eigenvalues"),
    ("sweep", {"experiment": "condition_sweep", "kappa": []}, 2, "kappa"),
    ("sweep", {"experiment": "condition_sweep", "families": None}, 2, "families"),
    ("divergence", {"experiment": "divergence", "eigenvalues": []}, 2, "eigenvalues"),
    ("momentum", {"experiment": "momentum_dynamics", "eigenvalues": []}, 2,
     "eigenvalues"),
    ("momentum", {"experiment": "momentum_dynamics", "mu_values": []}, 2, "mu_values"),
    ("compare-snag", {"experiment": "msgd_vs_snag", "eigenvalues": []}, 2,
     "eigenvalues"),
    ("compare-snag", {"experiment": "msgd_vs_snag", "mu_values": []}, 2, "mu_values"),
    # what a table holds is what its figure draws, checked where the rows are made
    (*_FOUND[0], 2, "horizon"),
    (*_FOUND[1], 2, "horizon"),
    (*_FOUND[2], 2, "horizon"),
    (*_FOUND[3], 2, "x0"),
    (*_FOUND[4], 1, None),
    (*_FOUND[5], 1, None),
    (*_FOUND[6], 2, "x0"),
    # no noise and no start: no weak error to measure
    ("weak-error", {"experiment": "weak_error", "x0": [0.0, 0.0], "noise_scale": 0.0},
     2, "x0"),
    # the trim's quotient overflows with a tiny floor, so the full horizon runs
    ("sweep", {"experiment": "condition_sweep", "dimension": 2, "kappa": [10.0],
               "families": ["msgd"], "noise_scale": 1e-8, "x0": [1e150, 1e150],
               "horizon": 100.0}, 0, None),
    # successive differences of E f near 1e300: their product overflows
    ("momentum", {"experiment": "momentum_dynamics", "x0": [1e150, 30.0],
                  "eigenvalues": [1.0, 1e-6], "horizon": 20.0, "n_paths": 0}, 1, None),
    # f(x0) overflows in the closed form's sum, or as 0 x inf once its mode decays
    ("weak-error", {"experiment": "weak_error", "eigenvalues": [4.0, 0.01],
                    "eta_grid": [0.1, 0.05], "horizon": 0.5, "noise_scale": 50.0,
                    "x0": [-1e154, -1e200]}, 2, "x0"),
    ("weak-error", {"experiment": "weak_error", "eigenvalues": [10000.0, 10000.0],
                    "eta_grid": [0.1, 0.05], "horizon": 5.0, "x0": [1e200, -1.0]}, 2,
     "x0"),
    ("weak-error", {"experiment": "weak_error", "eta_grid": [1.0, 0.2, 0.1],
                    "horizon": 1.0, "x0": [-1e300, 1e-300]}, 2, "x0"),
    # a log-log fit over one condition number twice has no slope
    ("sweep", {"experiment": "condition_sweep", "kappa": [30.0, 30.0]}, 2, "kappa"),
    # a step size past the first would be echoed but never run
    ("sweep", {"experiment": "condition_sweep", "eta_grid": [0.1, 0.05]}, 2, "eta_grid"),
    ("compare-snag", {"experiment": "msgd_vs_snag", "eta_grid": [0.1, 0.05]}, 2,
     "eta_grid"),
    # a mode past 1e154 overflows sgd's factors and the OU source to +inf, and
    # the Langevin noise term, all with no RuntimeWarning
    ("weak-error", {"experiment": "weak_error", "eigenvalues": [2.7e281, 3.2e135]}, 2,
     "horizon"),
    ("momentum", {"experiment": "momentum_dynamics", "eigenvalues": [2.1e212, 3.1e-237],
                  "n_paths": 8}, 2, "eta_grid"),
    # mu lam_min underflows, so the stationary covariance overflows and the
    # floor is NaN, while every drawn time still takes the series route
    ("momentum", {"experiment": "momentum_dynamics", "eigenvalues": [1.0, 1e-309],
                  "eta_grid": [0.03], "horizon": 0.3, "mu_values": [0.1, 0.3],
                  "n_paths": 0, "x0": [30.0, 30.0]}, 2, "eigenvalues"),
    # part (b)'s tuning grid over (0, 6 sqrt(lam_max)) in steps of 0.002 is
    # empty, or holds 1.9e6 (momentum, mode) cells; it is sized before it is built
    ("compare-snag", {"experiment": "msgd_vs_snag", "eigenvalues": [1e-12, 1e-12],
                      "horizon": 5.0, "mu_values": [0.2]}, 2, "eigenvalues"),
    ("compare-snag", {"experiment": "msgd_vs_snag", "eigenvalues": [1e5, 1.0],
                      "eta_grid": [0.001], "horizon": 5.0}, 2, "eigenvalues"),
    # mu eta underflows to 0: no step size damps the momentum
    ("compare-snag", {"experiment": "msgd_vs_snag", "mu_values": [5e-324]}, 2, "mu_values"),
    # ns^2 underflows to 0 where (eta lam)^2 overflows: sgd's noise is 0 x inf
    ("weak-error", {"experiment": "weak_error", "eigenvalues": [2.0e232, 1.1e226],
                    "noise_scale": 1.15e-179}, 2, "eigenvalues"),
    # a mode near the largest double: 2 lam (sgd's SME decay, divergence's SME
    # verdict), and Delta of its momentum block, overflow to +-inf with no
    # RuntimeWarning
    ("weak-error", {"experiment": "weak_error", "eigenvalues": [1.7e308, 2.0]}, 2, "horizon"),
    ("divergence", {"experiment": "divergence", "eigenvalues": [1.7e308, 2.0]}, 2, "horizon"),
    ("momentum", {"experiment": "momentum_dynamics", "eigenvalues": [1.7e308, 1.0],
                  "n_paths": 8}, 2, "eta_grid"),
])
def test_degenerate_configs_exit_without_a_traceback(tmp_path, capsys, command,
                                                    config, code, key):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == code
    # numpy's overflow warnings would reach stderr ahead of the message
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    if code == 2:
        err = capsys.readouterr().err
        assert err.startswith("config error: " + key)
        assert len(err.splitlines()) == 1
        assert not out.exists() or _files(out) == []
    else:   # a report that was built is written in full
        assert _files(out) and all(os.path.getsize(out / name) > 0 for name in _files(out))


# valid configs that each run in well under a second
_SMALL_CONFIGS = {
    "weak-error": {"experiment": "weak_error", "eigenvalues": [1.0, 0.1],
                   "eta_grid": [0.1, 0.05], "horizon": 0.5},
    "sweep": {"experiment": "condition_sweep", "dimension": 3,
              "kappa": [10.0, 30.0], "horizon": 50.0,
              "families": ["sgd", "msgd"]},
    "divergence": {"experiment": "divergence", "eigenvalues": [1.0, 0.01],
                   "variant": "eigenbasis_scaled", "eta_grid": [0.04, 0.005],
                   "horizon": 2.0},
    "momentum": {"experiment": "momentum_dynamics", "eigenvalues": [1.0, 0.25],
                 "eta_grid": [0.25], "horizon": 6.0, "mu_values": [0.5, 2.0],
                 "n_paths": 8, "x0": [30.0, 30.0]},
    "compare-snag": {"experiment": "msgd_vs_snag", "eigenvalues": [1.0, 0.25],
                     "horizon": 5.0, "mu_values": [0.2]},
}
_FIELD_NAMES = tuple(field.name for field in dataclasses.fields(ExperimentConfig))
# right-kind values, so that some changed configs run, among malformed ones:
# magnitudes log-uniform over the whole double range, of either sign, reach
# far past [0, 4], where E f nears 0 or the largest double, and so do the
# integers log-uniform up to 10^308
_PLAUSIBLE = st.one_of(
    st.integers(0, 4), st.floats(0.01, 4.0),
    st.builds(lambda e, sign: sign * 10.0 ** e, st.floats(-323.3, 308.25),
              st.sampled_from((1.0, -1.0))),
    st.floats(0.0, 308.25).map(lambda e: int(10.0 ** e)))
_SCALARS = st.one_of(_PLAUSIBLE, st.none(), st.booleans(), st.text(max_size=3),
                     st.integers(-3, 2 ** 65), st.floats())
_VALUES = st.one_of(
    _SCALARS, st.lists(_PLAUSIBLE, min_size=1, max_size=3),
    st.lists(st.one_of(_SCALARS, st.lists(st.integers(0, 2), max_size=2)),
             max_size=3))


_COMMANDS = st.sampled_from(sorted(_SMALL_CONFIGS))
_CHANGES = st.dictionaries(st.sampled_from(_FIELD_NAMES), _VALUES, max_size=2)
# whole spectra and start points of each dimension, each entry in [0.01, 4]
# (either sign for a start) or of a magnitude log-uniform over the double range
_SPECTRUM_ENTRIES = st.one_of(st.floats(0.01, 4.0),
                              st.floats(-323.3, 308.25).map(lambda e: 10.0 ** e))
_START_ENTRIES = st.one_of(st.floats(-4.0, 4.0), st.floats(-631.55, 631.55).map(
    lambda e: math.copysign(10.0 ** (abs(e) - 323.3), e)))
_VECTORS = {dim: tuple(st.lists(entry, min_size=dim, max_size=dim)
                       for entry in (_SPECTRUM_ENTRIES, _START_ENTRIES))
            for dim in range(1, MAX_DIM + 1)}


@st.composite
def _cases(draw):
    """(command, changes): up to two fields of any kind, then, at the config's
    dimension, maybe a whole descending spectrum and maybe a whole start point
    (_VECTORS)."""
    command = draw(_COMMANDS)
    changes = draw(_CHANGES)
    # 2: the default dimension of every experiment that _SMALL_CONFIGS leaves at it
    dim = changes.get("dimension", _SMALL_CONFIGS[command].get("dimension", 2))
    if type(dim) is int and dim in _VECTORS:
        spectra, starts = _VECTORS[dim]
        if draw(st.booleans()):
            changes["eigenvalues"] = sorted(draw(spectra), reverse=True)
        if draw(st.booleans()):
            changes["x0"] = draw(starts)
    return command, changes


def _found_examples(test):
    """test with each _FOUND config as an example, its _SMALL_CONFIGS keys
    that the file leaves out at their defaults."""
    for command, config in _FOUND:
        defaults = json.loads(default_config(config["experiment"]).to_json())
        small = {key: defaults[key] for key in _SMALL_CONFIGS[command]}
        test = example(case=(command, dict(small, **config)))(test)
    return test


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=_cases())
@example(case=("momentum", {"families": 3}))
@example(case=("momentum", {"eta_grid": [0.6], "mu_values": [0.5]}))
@example(case=("momentum", {"noise_scale": 1e200}))
@example(case=("momentum", {"eta_grid": [2e-5], "horizon": 1.0}))
@example(case=("compare-snag", {"dimension": 1, "eigenvalues": [1.0], "x0": [1000.0]}))
@example(case=("weak-error", {"families": ["snag"]}))
@example(case=("sweep", {"mu_values": [0.5], "n_paths": 8}))
@example(case=("momentum", {"kappa": [10.0]}))
@example(case=("momentum", {"eigenvalues": [], "mu_values": []}))
@_found_examples
def test_any_config_exits_0_1_or_2_and_writes_only_under_out(case):
    command, changes = case
    config = dict(_SMALL_CONFIGS[command], **changes)
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as cwd, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        old_cwd = os.getcwd()
        os.chdir(cwd)
        try:
            with open("config.json", "w", encoding="utf-8") as handle:
                handle.write(json.dumps(config))
            code = cli.main([command, "--config", "config.json", "--out", "out"])
            assert set(os.listdir(".")) <= {"config.json", "out"}
            written = {name: Path("out", name).read_text(encoding="utf-8")
                       for name in (_files("out") if os.path.isdir("out") else ())}
        finally:
            os.chdir(old_cwd)
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    for name, text in written.items():
        if name.endswith(".csv"):
            assert "nan" not in re.split(r"[,\n]", text), name
    if code == 2:
        # warnings would reach stderr ahead of the message
        assert caught == [] and written == {}
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1, lines
        match = re.match(r"config error: (\w+): .", lines[0])
        assert match and match.group(1) in _FIELD_NAMES, lines[0]


def test_figures_imports_scipy_special_but_not_scipy_linalg(tmp_path):
    # scipy.linalg serves only the oracles (mat_exp_dense, linear_sme_moments,
    # the quadrature), and the ensembles' batched draws take scipy.special.ndtri
    code = ("import contextlib, io, sys\n"
            "from smelab import cli\n"
            "for threads in ('1', '2'):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = cli.main(['figures', '--out', sys.argv[1] + threads,\n"
            "                         '--threads', threads])\n"
            "    print(code)\n"
            "print('scipy.linalg' in sys.modules, 'scipy.special' in sys.modules)\n")
    done = _fresh_python(code, str(tmp_path / "threads"))
    assert done.stdout.split() == ["0", "0", "False", "True"]


def test_exact_layer_imports_no_scipy():
    # a basis, a model, the Nesterov schedule's recursion and the Langevin
    # closed form draw only single keys, which the ndtri port serves
    code = ("import math, sys\n"
            "import numpy as np\n"
            "from smelab import matkit, models, sga, sme\n"
            "model = models.from_matrix(models.ISOTROPIC_SHIFT,\n"
            "                           matkit.spd_with_condition(64, 100.0, 7))\n"
            "algo = sga.AlgoSpec(sga.SNAG, 0.1, 5.0, sga.NesterovSchedule())\n"
            "series = sga.exact_moment_recursion(algo, model, np.ones(64))\n"
            "system = sme.langevin_system(model.spec, 0.2, 0.1)\n"
            "ef = sme.langevin_expected_f_exact(system, np.ones(64), np.array([0.0, 1.0, math.inf]))\n"
            "assert np.all(np.isfinite(series)) and np.all(np.isfinite(ef))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    assert _fresh_python(code).stdout.strip() == "[]"


def _fresh_python(code, *args):
    """Run code in a new interpreter that imports smelab from this tree."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code, *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    return done
