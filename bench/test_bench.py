"""Tests of the benchmark harness itself (not of smelab).

    python3 -m pytest bench/test_bench.py -q

Run from the repository root; the harness imports smelab from ``src/``.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import smelab  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _span(name, layer, start, end, parent=None, thread=1):
    return [name, layer, start, end, parent, thread]


# -- self-time arithmetic ---------------------------------------------------


def test_self_time_same_layer_and_cross_layer():
    spans = [
        _span("sga.run_path", "sga", 0.0, 10.0),
        _span("rng.normals", "rng", 2.0, 5.0, parent=0),
        _span("sga.step", "sga", 6.0, 8.0, parent=0),          # same layer, nested
        _span("rng.normals", "rng", 6.5, 7.5, parent=2),
    ]
    exclusive, unattributed = tracing.attribute(spans, -1.0, 11.0)
    assert exclusive == pytest.approx([5.0, 3.0, 1.0, 1.0])
    assert unattributed == pytest.approx(2.0)
    per_layer, per_entry, entries = tracing.layer_times(spans, exclusive)
    assert per_layer["sga"] == pytest.approx(6.0)
    assert per_layer["rng"] == pytest.approx(4.0)
    # the nested sga.step is counted once, under the call that entered sga
    assert per_entry["sga.run_path"] == pytest.approx(6.0)
    assert "sga.step" not in per_entry
    assert entries["sga"] == 1 and entries["rng"] == 2
    assert sum(per_layer.values()) == pytest.approx(tracing.root_seconds(spans))


def test_self_time_splits_concurrent_threads():
    spans = [
        _span("sga.run_ensemble", "sga", 0.0, 10.0, thread=1),
        _span("sga.worker", "sga", 1.0, 9.0, parent=0, thread=2),
        _span("sga.worker", "sga", 1.0, 5.0, parent=0, thread=3),
        _span("rng.normals", "rng", 2.0, 4.0, parent=1, thread=2),
    ]
    exclusive, unattributed = tracing.attribute(spans, 0.0, 10.0)
    # the submitting span waits while its tasks run; two busy threads share
    assert exclusive == pytest.approx([2.0, 5.0, 2.0, 1.0])
    assert unattributed == 0.0
    per_layer, _, _ = tracing.layer_times(spans, exclusive)
    assert per_layer["sga"] == pytest.approx(9.0)
    assert per_layer["rng"] == pytest.approx(1.0)
    assert sum(per_layer.values()) == pytest.approx(tracing.root_seconds(spans))


def test_accounting_check_catches_a_task_outliving_its_caller():
    spans = [
        _span("sga.run_ensemble", "sga", 0.0, 4.0, thread=1),
        _span("sga.worker", "sga", 1.0, 6.0, parent=0, thread=2),
    ]
    exclusive, _ = tracing.attribute(spans, 0.0, 6.0)
    per_layer, _, _ = tracing.layer_times(spans, exclusive)
    assert sum(per_layer.values()) == pytest.approx(6.0)
    assert tracing.root_seconds(spans) == pytest.approx(4.0)


def test_traced_pass_adds_up_and_restores_the_program():
    originals = {(m, a): getattr(getattr(smelab, m), a)
                 for m, a in (("repro", "exact_moment_recursion"), ("sme", "quad"),
                              ("sga", "ThreadPoolExecutor"), ("rng", "normals"))}
    tracer = tracing.Tracer()
    tracer.install(smelab)
    try:
        for (m, a), fn in originals.items():
            assert getattr(getattr(smelab, m), a) is not fn
        t_start = time.perf_counter()
        algo = smelab.sga.AlgoSpec(smelab.sga.MSGD, 0.1, 1.0,
                                   smelab.sga.ConstantMomentum(0.5))
        model = smelab.models.from_spectrum(smelab.models.ISOTROPIC_SHIFT, [1.0, 0.25])
        smelab.sga.run_ensemble(algo, model, [1.0, 1.0], 5000, 3, threads=2)
        smelab.sga.exact_moment_recursion(algo, model, [1.0, 1.0])
        t_end = time.perf_counter()
    finally:
        tracer.uninstall()
    for (m, a), fn in originals.items():
        assert getattr(getattr(smelab, m), a) is fn
    metrics, attributed = tracing.layer_metrics(tracer, t_start, t_end)
    assert attributed == pytest.approx(tracing.root_seconds(tracer.spans), rel=1e-9)
    assert attributed + metrics["trace.unattributed_s"] == pytest.approx(t_end - t_start)
    assert metrics["rng.normals.draws"] == 5000 * 10 * 2
    assert metrics["rng.normals.calls.wide"] == 20
    assert metrics["sga.run_ensemble.path_steps"] == 5000 * 10
    assert metrics["ensemble.paths.partial_chunk"] == 5000 % tracing.CHUNK
    assert metrics["sga.exact_moment_recursion.steps.const"] == 10
    assert any(s[0] == "sga.worker" for s in tracer.spans)


# -- names ------------------------------------------------------------------


def test_every_name_is_well_formed_and_emitted():
    spec = _spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    for name in names:
        assert NAME_RE.fullmatch(name) and len(name) <= 64, name
    assert len(names) == len(set(names))
    tracer = tracing.Tracer()
    layer, _ = tracing.layer_metrics(tracer, 0.0, 1.0)
    process = {"cpu_s", "threads.speedup", "trace.overhead_share"}
    assert set(layer) | process == {m["name"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_figures_output_is_split_per_config():
    text = ("wrote out/a.csv\nwrote out/a.svg\nPASS weak_error.x (ok)\n"
            "PASS weak_error.y (ok)\nwrote out/b.csv\nFAIL divergence.z (bad)\n")
    groups = workloads.parse_figures_output(text)
    assert groups == [(["a.csv", "a.svg"], ["PASS weak_error.x (ok)",
                                            "PASS weak_error.y (ok)"]),
                      (["b.csv"], ["FAIL divergence.z (bad)"])]


# -- smoke runs ---------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_pass_of_each_workload_passes_its_checks(name, tmp_path):
    workload = workloads.WORKLOADS[name](3, str(tmp_path))
    ops = workload.run_pass()
    assert ops
    assert workload.judge(ops) == {}
    assert os.listdir(str(tmp_path)) == []


def test_a_changed_output_is_rejected(tmp_path):
    workload = workloads.Exact(3, str(tmp_path))
    ops = workload.run_pass()
    assert workload.judge(ops) == {}
    op = next(o for o in ops if o.name == "from_matrix.d2")
    op.output = smelab.models.from_spectrum(smelab.models.ISOTROPIC_SHIFT, [2.0, 1.0])
    assert list(workload.judge(ops)) == ["from_matrix.d2"]


def _run_bench(cwd, *args):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_the_contract_line(trace):
    proc = _run_bench(ROOT, "--workload", "exact", "--seed", "4", "--seconds", "1",
                      "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = _spec()
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in wanted}
    if trace == "1":
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["rng.normals.draws"] == 0
        assert metrics["sme.quad.calls"] > 0
        assert metrics["repro.emit.bytes"] == 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    shutil.copytree(os.path.join(ROOT, "bench"), str(tmp_path / "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(str(tmp_path), "--workload", "exact", "--seed", "1",
                      "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
