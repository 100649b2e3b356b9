"""Span tracing of smelab, installed from outside the package.

``Tracer.install`` wraps every public function defined in the eight smelab
modules, re-binding the wrapper under every name any smelab namespace binds
the function by (``repro.exact_moment_recursion`` is ``sga``'s function),
plus ``sme.quad`` (scipy's integrator as sme calls it) and the thread pools
of ``sga`` and ``sme``.  ``uninstall`` puts the originals back, so untraced
passes run the program exactly as shipped.

A span is ``[name, layer, start, end, parent, thread]``; spans live in memory
until ``write_spans``.  ``attribute`` turns them into self times: every
instant of the traced wall goes to the innermost open span of each busy
thread, split evenly when threads run at once.  Pool tasks end inside the
call that submitted them and root spans do not overlap, so the layer self
times add up to the summed durations of the root spans (``root_seconds``);
a traced run checks that.
"""

from __future__ import annotations

import gzip
import inspect
import os
import threading
import time
from collections import Counter, defaultdict

import numpy as np

from smelab import sga, sme

LAYERS = ("rng", "matkit", "models", "sga", "sme", "analysis", "repro", "cli")

NAME, LAYER, START, END, PARENT, THREAD = range(6)

# the configs `smelab figures` runs, in its order (weak_error has two variants)
FIGURE_CONFIGS = ("weak_error.isotropic_shift", "weak_error.eigenbasis_scaled",
                  "condition_sweep", "divergence", "momentum_dynamics",
                  "msgd_vs_snag")

# sga and sme run their ensembles in chunks of this many paths
CHUNK = sga._CHUNK
assert sme._CHUNK == CHUNK, "sga and sme chunk sizes differ"


def _arg(args, kwargs, pos, key, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


class Tracer:
    """Spans and counters of one traced run; wrappers close over it."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.samples = defaultdict(list)   # key -> [(work, seconds), ...]
        self.dims = Counter()              # model dimension of each work item
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []

    # -- spans --------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name, layer, parent=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = [name, layer, time.perf_counter(), None, parent, threading.get_ident()]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def close(self, index):
        self.spans[index][END] = time.perf_counter()
        self._stack().pop()

    def wrap(self, fn, name, layer, hook=None):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if hook is not None:
                span = tracer.spans[index]
                hook(tracer, args, kwargs, result, span[END] - span[START])
            return result

        traced.__wrapped__ = fn
        return traced

    def executor(self, base, layer):
        """A ThreadPoolExecutor whose tasks run in a span under the submitter."""
        tracer = self

        class TracedExecutor(base):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def task(*a, **k):
                    index = tracer.open(layer + ".worker", layer, parent)
                    try:
                        return fn(*a, **k)
                    finally:
                        tracer.close(index)

                return super().submit(task, *args, **kwargs)

        return TracedExecutor

    # -- installing ---------------------------------------------------------

    def install(self, package):
        """Wrap smelab's public functions in every namespace that binds them."""
        modules = [getattr(package, layer) for layer in LAYERS]
        wrappers = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                name = "%s.%s" % (layer, attr)
                wrappers[id(obj)] = self.wrap(obj, name, layer, HOOKS.get(name))
        quad = package.sme.quad
        wrappers[id(quad)] = self.wrap(quad, "sme.quad", "sme")
        for namespace in [package] + modules:
            for attr, obj in list(vars(namespace).items()):
                if id(obj) in wrappers:
                    self._patch(namespace, attr, wrappers[id(obj)])
        for layer in ("sga", "sme"):
            module = getattr(package, layer)
            self._patch(module, "ThreadPoolExecutor",
                        self.executor(module.ThreadPoolExecutor, layer))

    def _patch(self, namespace, attr, value):
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def uninstall(self):
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    def write_spans(self, path):
        """All spans as gzip CSV: id, name, layer, start, end, parent, thread."""
        base = min((s[START] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8", newline="\n") as out:
            out.write("id,name,layer,start_s,end_s,parent,thread\n")
            threads = {}
            for i, s in enumerate(self.spans):
                tid = threads.setdefault(s[THREAD], len(threads))
                out.write("%d,%s,%s,%.9f,%.9f,%s,%d\n" % (
                    i, s[NAME], s[LAYER], s[START] - base, s[END] - base,
                    "" if s[PARENT] is None else s[PARENT], tid))


# ---------------------------------------------------------------------------
# counters recorded at layer boundaries (work done, input properties)
# ---------------------------------------------------------------------------


def _normals(tr, args, kwargs, result, seconds):
    path = _arg(args, kwargs, 2, "path")
    tr.counts["rng.normals.draws"] += int(np.size(result))
    wide = np.size(path) > 1
    tr.counts["rng.normals.calls.wide" if wide else "rng.normals.calls.single"] += 1


def _recursion(tr, args, kwargs, result, seconds):
    algo, model = args[0], args[1]
    steps = int(np.size(result)) - 1
    momentum = type(algo.momentum).__name__
    kind = {"ConstantMomentum": "const", "NesterovSchedule": "sched"}.get(momentum, "sgd")
    tr.counts["sga.exact_moment_recursion.steps"] += steps
    tr.counts["sga.exact_moment_recursion.steps.%s" % kind] += steps
    tr.samples["recursion.%s" % kind].append((steps, seconds))
    tr.dims[model.dim] += 1


def _paths(tr, n_paths):
    full = (n_paths // CHUNK) * CHUNK
    tr.counts["ensemble.paths.full_chunk"] += full
    tr.counts["ensemble.paths.partial_chunk"] += n_paths - full


def _run_ensemble(tr, args, kwargs, result, seconds):
    algo, model = args[0], args[1]
    n_paths = _arg(args, kwargs, 3, "n_paths")
    threads = _arg(args, kwargs, 6, "threads", 1)
    work = n_paths * algo.n_steps
    tr.counts["sga.run_ensemble.path_steps"] += work
    tr.samples["run_ensemble.t%d" % threads].append((work, seconds))
    _paths(tr, n_paths)
    tr.dims[model.dim] += 1


def _em(tr, args, kwargs, result, seconds):
    system = args[0]
    n_paths = _arg(args, kwargs, 3, "n_paths")
    substeps = _arg(args, kwargs, 5, "substeps", 16)
    threads = _arg(args, kwargs, 7, "threads", 1)
    work = n_paths * (result.times.size - 1) * substeps
    tr.counts["sme.em_integrate_ensemble.path_substeps"] += work
    tr.samples["em.t%d" % threads].append((work, seconds))
    _paths(tr, n_paths)
    tr.dims[system.dim_x] += 1


def _langevin(tr, args, kwargs, result, seconds):
    blocks = args[0].blocks.blocks
    trace = blocks[:, 0, 0] + blocks[:, 1, 1]
    det = blocks[:, 0, 0] * blocks[:, 1, 1] - blocks[:, 0, 1] * blocks[:, 1, 0]
    # the damping test smelab applies before its closed form (mu^2 vs 4 lam)
    critical = np.abs(trace * trace - 4.0 * det) <= 1e-9 * np.maximum(1.0, 4.0 * det)
    tr.counts["sme.langevin_expected_f_exact.points"] += 1
    tr.counts["sme.langevin_expected_f_exact.modes"] += int(blocks.shape[0])
    tr.counts["sme.langevin_expected_f_exact.critical_modes"] += int(np.sum(critical))
    tr.samples["langevin"].append((1, seconds))
    tr.dims[blocks.shape[0]] += 1


def _run_path(tr, args, kwargs, result, seconds):
    tr.dims[args[1].dim] += 1


def _run_experiment(tr, args, kwargs, result, seconds):
    cfg = _arg(args, kwargs, 0, "config")
    name = cfg.experiment
    if name == "weak_error":
        name += "." + cfg.variant
    tr.samples["experiment." + name].append((1, seconds))


def _emit(tr, args, kwargs, result, seconds):
    tr.counts["repro.emit.files"] += len(result)
    tr.counts["repro.emit.bytes"] += sum(os.path.getsize(p) for p in result)
    tr.samples["emit"].append((len(result), seconds))


HOOKS = {
    "rng.normals": _normals,
    "sga.exact_moment_recursion": _recursion,
    "sga.run_ensemble": _run_ensemble,
    "sga.run_path": _run_path,
    "sme.em_integrate_ensemble": _em,
    "sme.langevin_expected_f_exact": _langevin,
    "repro.run_experiment": _run_experiment,
    "repro.emit_csv": _emit,
    "repro.emit_svg": _emit,
}


# ---------------------------------------------------------------------------
# self-time arithmetic
# ---------------------------------------------------------------------------


def attribute(spans, t_start, t_end):
    """Exclusive seconds of every span, and the unattributed seconds.

    Within [t_start, t_end] each instant goes to the innermost open span of
    every busy thread, in equal shares.  A thread is waiting, not busy, while
    its innermost span has an open child on another thread (a pool task it
    submitted).  Instants with no open span are unattributed.
    """
    events = []
    for i, s in enumerate(spans):
        events.append((s[START], 1, i))
        events.append((s[END], 0, -i))      # at a tie, inner spans end first
    events.sort()
    exclusive = [0.0] * len(spans)
    remote_children = [0] * len(spans)
    stacks = {}
    unattributed = 0.0
    prev = t_start
    for t, is_start, key in events:
        dt = t - prev
        if dt > 0.0:
            busy = [st[-1] for st in stacks.values()
                    if st and remote_children[st[-1]] == 0]
            if busy:
                share = dt / len(busy)
                for b in busy:
                    exclusive[b] += share
            else:
                unattributed += dt
            prev = t
        i = key if is_start else -key
        span = spans[i]
        parent = span[PARENT]
        remote = parent is not None and spans[parent][THREAD] != span[THREAD]
        if is_start:
            stacks.setdefault(span[THREAD], []).append(i)
            if remote:
                remote_children[parent] += 1
        else:
            stacks[span[THREAD]].remove(i)
            if remote:
                remote_children[parent] -= 1
    unattributed += max(0.0, t_end - prev)
    return exclusive, unattributed


def root_seconds(spans):
    """Summed durations of the spans that no other span caused."""
    return sum(s[END] - s[START] for s in spans if s[PARENT] is None)


def owners(spans):
    """Index of the outermost span in each span's unbroken same-layer chain.

    A span's owner is itself unless its parent is in the same layer, so nested
    spans of one layer are counted once, under the call that entered it.
    """
    owner = []
    for i, s in enumerate(spans):
        p = s[PARENT]
        owner.append(owner[p] if p is not None and spans[p][LAYER] == s[LAYER] else i)
    return owner


def layer_times(spans, exclusive):
    """Self seconds per layer and per entering function, and entries per layer.

    An entry is a span whose parent is in another layer (or absent).
    """
    per_layer = dict.fromkeys(LAYERS, 0.0)
    per_entry = Counter()
    entries = Counter()
    own = owners(spans)
    for i, s in enumerate(spans):
        per_layer[s[LAYER]] = per_layer.get(s[LAYER], 0.0) + exclusive[i]
        per_entry[spans[own[i]][NAME]] += exclusive[i]
        entries[s[LAYER]] += own[i] == i
    return per_layer, per_entry, entries


def _rate(samples):
    work = sum(w for w, _ in samples)
    seconds = sum(s for _, s in samples)
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(tracer, t_start, t_end):
    """The per-layer metrics of one traced pass, by name.

    Returns (metrics, summed layer self times), the second to be checked
    against ``root_seconds``.  Ratios over work that did not happen on this
    workload read 0.
    """
    spans = tracer.spans
    exclusive, unattributed = attribute(spans, t_start, t_end)
    per_layer, per_entry, entries = layer_times(spans, exclusive)
    calls = Counter(s[NAME] for s in spans)
    c = tracer.counts
    m = {}
    draws = c["rng.normals.draws"]
    m["rng.normals.calls"] = calls["rng.normals"]
    m["rng.normals.calls.wide"] = c["rng.normals.calls.wide"]
    m["rng.normals.calls.single"] = c["rng.normals.calls.single"]
    m["rng.normals.draws"] = draws
    m["rng.self_s"] = per_layer["rng"]
    m["rng.draws_per_s"] = draws / per_layer["rng"] if per_layer["rng"] > 0 else 0.0
    for fn in ("sym_eig", "mat_exp_2x2"):
        m["matkit.%s.calls" % fn] = calls["matkit." + fn]
        m["matkit.%s.self_s" % fn] = per_entry["matkit." + fn]
    m["matkit.mat_exp_dense.calls"] = calls["matkit.mat_exp_dense"]
    m["matkit.self_s"] = per_layer["matkit"]
    m["models.calls"] = entries["models"]
    m["models.self_s"] = per_layer["models"]
    s = tracer.samples
    m["sga.exact_moment_recursion.calls"] = calls["sga.exact_moment_recursion"]
    m["sga.exact_moment_recursion.steps"] = c["sga.exact_moment_recursion.steps"]
    m["sga.exact_moment_recursion.steps.const"] = c["sga.exact_moment_recursion.steps.const"]
    m["sga.exact_moment_recursion.steps.sched"] = c["sga.exact_moment_recursion.steps.sched"]
    for kind in ("const", "sched"):
        rate = _rate(s["recursion." + kind])
        m["sga.exact_moment_recursion.us_per_step." + kind] = 1e6 / rate if rate else 0.0
    m["sga.run_ensemble.path_steps"] = c["sga.run_ensemble.path_steps"]
    for t in (1, 2):
        m["sga.run_ensemble.path_steps_per_s.t%d" % t] = _rate(s["run_ensemble.t%d" % t])
    m["sga.run_path.self_s"] = per_entry["sga.run_path"]
    m["sga.self_s"] = per_layer["sga"]
    points = c["sme.langevin_expected_f_exact.points"]
    modes = c["sme.langevin_expected_f_exact.modes"]
    m["sme.langevin_expected_f_exact.points"] = points
    m["sme.langevin_expected_f_exact.ms_per_point"] = \
        1e3 / _rate(s["langevin"]) if points else 0.0
    m["sme.langevin_expected_f_exact.critical_mode_share"] = \
        c["sme.langevin_expected_f_exact.critical_modes"] / modes if modes else 0.0
    m["sme.quad.calls"] = calls["sme.quad"]
    m["sme.em_integrate_ensemble.path_substeps"] = c["sme.em_integrate_ensemble.path_substeps"]
    for t in (1, 2):
        m["sme.em_integrate_ensemble.path_substeps_per_s.t%d" % t] = _rate(s["em.t%d" % t])
    m["sme.self_s"] = per_layer["sme"]
    m["analysis.calls"] = entries["analysis"]
    m["analysis.self_s"] = per_layer["analysis"]
    for name in FIGURE_CONFIGS:
        m["repro.run_experiment.%s.s" % name] = sum(t for _, t in s["experiment." + name])
    m["repro.emit.files"] = c["repro.emit.files"]
    m["repro.emit.bytes"] = c["repro.emit.bytes"]
    m["repro.emit.s"] = sum(t for _, t in s["emit"])
    m["repro.self_s"] = per_layer["repro"]
    m["cli.self_s"] = per_layer["cli"]
    m["ensemble.paths.full_chunk"] = c["ensemble.paths.full_chunk"]
    m["ensemble.paths.partial_chunk"] = c["ensemble.paths.partial_chunk"]
    m["trace.spans"] = len(spans)
    m["trace.unattributed_s"] = unattributed
    return m, sum(per_layer.values())
