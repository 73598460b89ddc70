"""Smoke test of `scripts/kernel_bench.py`: its set-ups build and step for
every equation set it lists, so a change to the patch or material API that
breaks the script fails here rather than at its next manual run."""

import importlib.util
import os

import numpy as np
import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")


def _kernel_bench():
    path = os.path.join(ROOT, "scripts", "kernel_bench.py")
    spec = importlib.util.spec_from_file_location("kernel_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH = _kernel_bench()


@pytest.mark.parametrize("name", [name for name, _ in BENCH.EQUATIONS])
def test_kernel_bench_setups_step(name):
    forward = dict(BENCH.EQUATIONS)[name]()
    for eq in (forward, forward.adjoint().reversed()):
        p, dt, shape = BENCH.uniform_patch(eq, 16)
        p.layout.fill_physical(BENCH.BoundarySpec(), eq, shape)
        assert 0.0 < p.layout.step(dt, eq, "MC") <= 0.9 + 1e-12, eq.name
        assert np.isfinite(p.state).all(), eq.name
        if eq.m == 3:       # the script steps levels of 2D sets only
            for as_level in (False, True):
                patches, dt = BENCH.level_patches(eq, as_level)
                assert len({q.layout for q in patches}) == (1 if as_level else len(patches))
                assert all(len(q.layout.specs) == (len(patches) if as_level else 1)
                           for q in patches)
                assert 0.0 < patches[0].layout.step(dt, eq, "MC") <= 0.9 + 1e-12, eq.name
