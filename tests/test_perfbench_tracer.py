"""The names ``perfbench/tracer.py`` wraps must exist where it looks.

The tracer replaces each layer's public entry point by looking it up in
its owner's ``__dict__``; a renamed or moved method would only break a
traced benchmark run (``perfbench/run.py --trace 1``).  This test
installs every wrapper, runs one traced direct solve and puts the
originals back.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.engine.coalesce import SuperLaunch
from repro.engine.workers import FleetWorkerGroup
from repro.gpu.virtual_gpu import VirtualGPU
from repro.solver.dabs import DABSConfig, DABSSolver
from tests.conftest import random_qubo

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    return tracer


def test_every_wrapped_name_resolves_and_is_restored(tracer_module):
    seams = [
        (FleetWorkerGroup, "submit_launch"),
        (FleetWorkerGroup, "submit_packed"),
        (SuperLaunch, "run"),
        (VirtualGPU, "launch"),
        (VirtualGPU, "commit_packed"),
    ]
    originals = [owner.__dict__[name] for owner, name in seams]
    tracer = tracer_module.Tracer()
    tracer_module.install_layers(tracer)
    try:
        cfg = DABSConfig(num_gpus=2, blocks_per_gpu=2, pool_capacity=4)
        DABSSolver(random_qubo(10, seed=1), cfg, seed=0).solve(max_rounds=1)
    finally:
        tracer.uninstall()
    assert tracer.totals["engine.superlaunch"][0] == 1
    assert [owner.__dict__[name] for owner, name in seams] == originals
