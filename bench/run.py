"""smelab benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload {figures,montecarlo,exact} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a smelab checkout; the program is imported from its
``src/``.  One run measures set-up in fresh interpreters (median of several
probes), then runs one untimed warm-up pass and as many timed passes as fit
in S seconds (half of S with --trace 1, the other half traced).  Every
pass's outputs are checked.

End-to-end metrics: ``setup_s`` (median probe), ``wall_ref`` and
``peak_rss_mib``.  ``wall_ref`` is the median over untraced passes of the
pass's wall time divided by the time of fixed reference loops, timed in this
thread just before and just after the pass (``reference_loop_s``).  The
host's speed drifts by tens of percent over seconds to minutes, and the
ratio takes out about half of that drift.  The report gives the raw wall
times (``wall_s``: count, median and quartiles) and the loop times.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1.  The line before it is a
JSON report: machine, inputs, sample counts and quartiles, and failures.
"""

import os

# BLAS threads are pinned before numpy loads, so smelab's `threads` setting
# is the only parallelism in a run
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_out")

if not os.path.isfile(os.path.join(SRC, "smelab", "__init__.py")):
    sys.exit("bench: no smelab sources under %s; run from a checkout root" % SRC)
sys.path.insert(0, SRC)

import smelab  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
MIN_PASSES = 3
PROBE_TIMEOUT_S = 60
REF_REPEATS = 41


def median(values):
    return statistics.median(values) if values else 0.0


def summary(values):
    """Sample count, median, quartiles and range of a list of timings."""
    out = {"n": len(values), "median": median(values),
           "min": min(values, default=0.0), "max": max(values, default=0.0)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def measure_setup(workload, seed):
    """Seconds from launching a fresh interpreter until its inputs are ready."""
    times = []
    for _ in range(SETUP_PROBES):
        launched = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "probe.py"), "--workload", workload,
             "--seed", str(seed), "--out-root", OUT_ROOT, "--launched", repr(launched)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        words = out.split()
        if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
            raise RuntimeError("set-up probe failed (exit %r)" % proc.returncode)
        times.append(float(words[1]))
    return times


def machine_block(load_at_start):
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "loadavg_at_start": load_at_start,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}}


def _python_loop():
    x = 0
    for i in range(3000):
        x += i * i


def _numpy_loop(b=np.ones(8192)):
    for _ in range(6):
        c = b * 1.0000001 + 1e-9
        float(c @ c)


def reference_loop_s():
    """Geometric mean of the median times of two fixed loops.

    One loop is plain Python arithmetic, the other numpy arithmetic on 8192
    element arrays; the host's drift slows the two by different amounts, as
    it does the interpreted and the array-bound parts of smelab.  The loops
    are benchmark code, so they never change with the program, and they run
    between passes, so they never compete with it.
    """
    product = 1.0
    for loop in (_python_loop, _numpy_loop):
        loop()                                  # warm-up after the pass
        times = []
        for _ in range(REF_REPEATS):
            start = time.perf_counter()
            loop()
            times.append(time.perf_counter() - start)
        product *= statistics.median(times)
    return math.sqrt(product)


@dataclass
class Pass:
    wall: float
    cpu: float
    ref: tuple           # reference loop seconds just before and just after
    ops: list
    layer: dict = None   # per-layer metrics of a traced pass

    @property
    def rel(self):
        return self.wall / statistics.fmean(self.ref)


class Run:
    """Passes of one workload and the tallies the result line needs."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures = {}        # op name -> first failure reason
        self.problems = []
        self.tracer = None

    def judge(self, ops):
        failed = self.workload.judge(ops)
        self.attempted += len(ops)
        self.failed += len(failed)
        for name, reason in failed.items():
            self.failures.setdefault(name, reason)

    def one_pass(self, traced=False):
        tracer = tracing.Tracer() if traced else None
        ref_before = reference_loop_s()
        cpu = time.process_time()
        if tracer is not None:
            tracer.install(smelab)
        try:
            start = time.perf_counter()
            ops = self.workload.run_pass()
            end = time.perf_counter()
        finally:
            if tracer is not None:
                tracer.uninstall()
        cpu = time.process_time() - cpu
        done = Pass(end - start, cpu, (ref_before, reference_loop_s()), ops)
        self.judge(ops)
        if tracer is not None:
            done.layer, attributed = tracing.layer_metrics(tracer, start, end)
            roots = tracing.root_seconds(tracer.spans)
            if abs(attributed - roots) > 1e-6 * done.wall:
                self.problems.append("layer self times add up to %.9f s, root spans "
                                     "to %.9f s" % (attributed, roots))
            self.tracer = tracer
        return done

    def passes(self, budget_s, traced=False):
        """Passes until the next one would overrun the budget (at least a few)."""
        done = []
        least = 1 if traced else MIN_PASSES
        start = time.perf_counter()
        while True:
            done.append(self.one_pass(traced))
            spent = time.perf_counter() - start
            if len(done) >= least and spent + median([p.wall for p in done]) > budget_s:
                return done


def threads_speedup(passes):
    """Median over passes of (threads=1 wall / threads=2 wall), same ensembles."""
    ratios = []
    for p in passes:
        t1 = sum(op.seconds for op in p.ops if op.name.endswith(".t1"))
        t2 = sum(op.seconds for op in p.ops if op.name.endswith(".t2"))
        if t1 > 0 and t2 > 0:
            ratios.append(t1 / t2)
    return median(ratios)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    load_at_start = os.getloadavg()
    os.makedirs(OUT_ROOT, exist_ok=True)
    setup_times = measure_setup(args.workload, args.seed)

    run = Run(workloads.WORKLOADS[args.workload](args.seed, OUT_ROOT))
    run.judge(run.workload.run_pass())           # warm-up: caches, lazy imports

    budget = args.seconds / 2.0 if args.trace else args.seconds
    plain = run.passes(budget)
    walls = [p.wall for p in plain]
    metrics = {"setup_s": median(setup_times), "wall_ref": median([p.rel for p in plain]),
               "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               "cpu_s": median([p.cpu for p in plain]),
               "threads.speedup": threads_speedup(plain)}
    report = {"workload": args.workload, "seed": args.seed,
              "machine": machine_block(load_at_start),
              "inputs": run.workload.properties(),
              "setup_s": summary(setup_times), "wall_s": summary(walls),
              "wall_ref": summary([p.rel for p in plain]),
              "ref_loop_ms": {"before": summary([1e3 * p.ref[0] for p in plain]),
                              "after": summary([1e3 * p.ref[1] for p in plain])},
              "cpu_s": summary([p.cpu for p in plain])}
    if args.trace:
        traced = run.passes(args.seconds - budget, traced=True)
        layer = traced[0].layer
        metrics.update({k: median([p.layer[k] for p in traced]) for k in layer})
        metrics["trace.overhead_share"] = \
            median([p.rel for p in traced]) / metrics["wall_ref"] - 1.0
        spans_path = os.path.join(OUT_ROOT, "spans-%s-seed%d.csv.gz"
                                  % (args.workload, args.seed))
        run.tracer.write_spans(spans_path)
        report["traced_wall_s"] = summary([p.wall for p in traced])
        report["calls_by_dimension"] = {str(k): v for k, v in
                                        sorted(run.tracer.dims.items())}
        report["spans_file"] = os.path.relpath(spans_path, ROOT)
    report.update(attempted=run.attempted, failed=run.failed, failures=run.failures,
                  problems=run.problems, fail_share=run.failed / run.attempted)
    print(json.dumps(report, sort_keys=True))
    result = {"correct": not run.failures and not run.problems,
              "attempted": run.attempted, "failed": run.failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
