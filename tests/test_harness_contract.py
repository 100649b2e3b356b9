"""The names the benchmark's tracer (bench/tracing.py) re-binds in smelab.

The traced benchmark wraps the ensembles' thread pool by the name
``ThreadPoolExecutor`` in ``sga`` and ``sme`` and reads ``_CHUNK`` from both;
a rename that breaks it fails here.
"""

import concurrent.futures
from pathlib import Path

import numpy as np

import smelab
from smelab import sga, sme
from smelab.models import ISOTROPIC_SHIFT, from_spectrum


def test_traced_ensembles_keep_the_harness_contract(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import tracing

    model = from_spectrum(ISOTROPIC_SHIFT, [1.0, 0.25], noise_scale=1.0)
    algo = sga.AlgoSpec(sga.MSGD, 0.1, 0.3, sga.ConstantMomentum(0.5))
    system = sme.build_sme(model, sga.MSGD, 1, 0.1, mu=0.5)
    n_paths = 4096 + 8

    def both():
        return (sga.run_ensemble(algo, model, [1.0, 1.0], n_paths, 3, threads=2),
                sme.em_integrate_ensemble(system, [1.0, 1.0], 0.3, n_paths, 3,
                                          substeps=2, threads=2))

    plain = both()
    tracer = tracing.Tracer()
    tracer.install(smelab)
    try:
        traced = both()
    finally:
        tracer.uninstall()
    assert sga.ThreadPoolExecutor is concurrent.futures.ThreadPoolExecutor
    assert sme.ThreadPoolExecutor is concurrent.futures.ThreadPoolExecutor
    for a, b in zip(plain, traced):
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.stderr, b.stderr)
    spans = tracer.spans
    callers = [spans[s[tracing.PARENT]][tracing.NAME]
               for s in spans if s[tracing.NAME] == "sga.worker"]
    assert sorted(callers) == ["sga.run_ensemble"] * 2 + ["sme.em_integrate_ensemble"] * 2
    assert tracer.counts["ensemble.paths.partial_chunk"] == 2 * 8
