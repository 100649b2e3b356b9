import json
import os
import warnings

import pytest

from smelab import cli
from smelab.repro import default_config, parse_csv


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


def test_config_for_wrong_command(tmp_path, capsys):
    cfg = tmp_path / "div.json"
    cfg.write_text(json.dumps({"experiment": "divergence"}))
    code = cli.main(["weak-error", "--config", str(cfg),
                     "--out", str(tmp_path)])
    assert code == 2
    assert "experiment: config declares" in capsys.readouterr().err


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
    ("horizon", {"dimension": 64, "horizon": 1e5}, []),   # 10^6 steps at d = 64
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


@pytest.mark.parametrize("command, config, code, key", [
    # mu = 1/eta: no trim estimate, the full horizon runs and a check fails
    ("compare-snag", {"experiment": "msgd_vs_snag", "eigenvalues": [1.0, 0.25],
                      "horizon": 60.0, "eta_grid": [0.1], "mu_values": [10.0]},
     1, None),
    # no noise, so a zero floor: again the full horizon
    ("compare-snag", {"experiment": "msgd_vs_snag", "eigenvalues": [1.0, 0.25],
                      "horizon": 60.0, "eta_grid": [0.1], "mu_values": [0.2],
                      "noise_scale": 0.0}, 1, None),
    # the order-2-optimal momentum is capped at 1/eta, where lam = 1e6 diverges
    ("compare-snag", {"experiment": "msgd_vs_snag",
                      "eigenvalues": [1000000.0, 1.0], "horizon": 60.0,
                      "mu_values": [0.2]}, 2, "eta_grid"),
    # E f overflows, starts at 0, or starts above the largest double: no log axis
    ("divergence", _defaults("divergence", noise_scale=50.0), 2, "horizon"),
    ("divergence", _defaults("divergence", x0=[0.0, 0.0]), 2, "x0"),
    ("momentum", _defaults("momentum_dynamics", x0=[1e300, 1e300]), 2, "x0"),
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
