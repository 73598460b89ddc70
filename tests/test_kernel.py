"""Bitwise regression of the step kernel.

Each case steps one seeded patch a few times with `step_patch` and compares
sha256(state.tobytes()) and the returned Courant numbers with values
recorded from an earlier version of the kernel.  Any change in the order of
floating-point operations shows up here before it reaches the run outputs.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from adjamr import equations as eqs
from adjamr import solver
from adjamr.geometry import Patch, PatchHierarchy
from adjamr.solver import (BoundarySpec, LevelLayout, fill_ghost_physical,
                           sample_patch_material, step_patch)

STEPS = 4
BC = BoundarySpec(left="outflow", right="wall", bottom="wall", top="outflow")


# Materials and states use only correctly rounded arithmetic (no sin, exp or
# normal deviates), so the digests do not depend on the math library.


def _acoustics_1d():
    return eqs.Acoustics1D(eqs.AcousticsMaterialModel(
        lambda x: 1.0 + 0.5 * x * x, lambda x: 1.0 + 0.3 * x))


def _acoustics_2d():
    return eqs.Acoustics2D(eqs.AcousticsMaterialModel(
        lambda x, y: 1.0 + 0.5 * x * y + 0.25 * x,
        lambda x, y: np.where(x < 0.45, 1.0, 3.0) + 0.2 * y))


def _swe():
    # dry for x above about 0.8: a coastline crosses the patch
    return eqs.SweLinear2D(eqs.SweMaterialModel(
        lambda x, y: -10.0 + 12.5 * x + 0.5 * y, sea_level=0.0, gravity=9.81))


FORWARD = {"acoustics-1d": _acoustics_1d, "acoustics-2d": _acoustics_2d,
           "swe-linear-2d": _swe}


def _equation(name):
    if name.startswith("adjoint-"):
        return FORWARD[name[len("adjoint-"):]]().adjoint().reversed()
    return FORWARD[name]()


def run_case(name: str, limiter: str):
    """sha256 of the state after STEPS steps, and the Courant numbers."""
    eq = _equation(name)
    shape = (24,) if eq.m == 2 else (13, 10)
    nd = len(shape)
    h = PatchHierarchy(xlim=(0.0, 1.0), ylim=None if nd == 1 else (0.0, 1.0),
                       base_shape=shape, ratios=[])
    p = Patch(h.make_spec(1, (0,) * nd, tuple(n - 1 for n in shape)), eq.m)
    sample_patch_material(p, eq, BC, shape)
    p.interior()[...] = np.random.default_rng(7).uniform(-1.0, 1.0, p.interior().shape)
    if eq.is_swe:
        assert not eqs.wet(p.aux).all() and eqs.wet(p.aux).any()
        p.interior()[...] *= eqs.wet(p.aux)[p.spec.interior_slices()]
    dt = 0.8 * min(p.spec.widths) / float(np.max(p.aux[eqs.C]))
    courants = []
    for _ in range(STEPS):
        fill_ghost_physical(p, BC, eq, shape)
        courants.append(step_patch(p, dt, eq, limiter))
    return hashlib.sha256(p.state.tobytes()).hexdigest(), courants


# Courant numbers as float.hex(): 0.8 up to the rounding of dt and max|s|
C8 = "0x1.999999999999ap-1"
C9 = "0x1.9999999999999p-1"
EXPECTED = {
    ("acoustics-1d", "MC"):
        ("9f57a2b71daf6939728220e5bb1a22b74894337c97fd2a1db383897423958241", [C8] * STEPS),
    ("acoustics-2d", "MC"):
        ("bbcb8c685bde578846006b5ed6f90db23dd1f01c104d0cb8ddabe1d8618cd464", [C8] * STEPS),
    ("acoustics-2d", "minmod"):
        ("211a8d5bbcfd6e62a45e4e0e52fe1f73d95433102279be6707ac2d05be3dba41", [C8] * STEPS),
    ("acoustics-2d", "none"):
        ("b6be5cf0318e9d9aeb68d59cf135b1310ae76382256f3b17ebd8dc9c9d345727", [C8] * STEPS),
    ("acoustics-2d", "superbee"):
        ("158ad11c4ccc853a58ff846ae4e3f9846662de1beaedacef7761700fca8ac433", [C8] * STEPS),
    ("adjoint-acoustics-1d", "MC"):
        ("7e55a2f70736598c7fdbcd8ac23b4b481b317621c469f088f35a7df07d663415", [C8] * STEPS),
    ("adjoint-acoustics-1d", "none"):
        ("6d59c1b5fb8ad99c0ce93b1e7ab24ecbd5407d6e0182bd15b711b9fe91839dd8", [C8] * STEPS),
    ("adjoint-acoustics-1d", "superbee"):
        ("c0965a60fad633a310d3c03ec319a3d8d13b435512b4db3a7260b339ddf745d5", [C8] * STEPS),
    ("adjoint-acoustics-2d", "MC"):
        ("5f2f05f6d4ab54819b6842fdc2a5f090022a392a86235eaa012f709edeb6a5e1", [C8] * STEPS),
    ("adjoint-acoustics-2d", "minmod"):
        ("d43c33afd81fa2fb3496400f044655e6a5b9fbe29da779d37fd3efb7de8c8fbc", [C8] * STEPS),
    ("adjoint-swe-linear-2d", "MC"):
        ("b8fb1438f7686324b7e366daab2d2322b86a0b794ca914d78c385674f0e73a21", [C9] * STEPS),
    ("adjoint-swe-linear-2d", "superbee"):
        ("a46224371366ace67efe1853002c440479a1aeb9bdb893ca50410a8bf86c1687", [C9] * STEPS),
    ("swe-linear-2d", "MC"):
        ("f7261b935cbe700e414779b7c427c8d7b39cab3ead45a343aee1ba737d210927", [C9] * STEPS),
    ("swe-linear-2d", "minmod"):
        ("361ba2ada4006f57c3dde1a39268934b276f112730cf93a8a369332180136b7b", [C9] * STEPS),
    ("swe-linear-2d", "none"):
        ("6d539eeecda2c15638b6813c6a67ec2d0618293491e0603193cb2187043461cb", [C9] * STEPS),
}


@pytest.mark.parametrize("name,limiter", sorted(EXPECTED))
def test_step_patch_bitwise(name, limiter):
    digest, courants = run_case(name, limiter)
    want_digest, want_courants = EXPECTED[name, limiter]
    assert digest == want_digest
    assert [c.hex() for c in courants] == want_courants


# Levels of two or three boxes for the interleaving test; the shallow-water
# boxes cross the coastline near x = 0.8.
LEVELS = (
    ("acoustics-1d", (((0,), (9,)), ((12,), (30,)))),
    ("adjoint-acoustics-1d", (((2,), (20,)), ((25,), (39,)), ((30,), (34,)))),
    ("acoustics-2d", (((0, 0), (7, 9)), ((10, 2), (20, 15)), ((3, 12), (8, 19)))),
    ("adjoint-acoustics-2d", (((4, 4), (15, 10)), ((16, 0), (23, 19)))),
    ("swe-linear-2d", (((14, 0), (23, 9)), ((0, 10), (20, 19)))),
    ("adjoint-swe-linear-2d", (((10, 3), (23, 12)), ((2, 14), (21, 19)), ((0, 0), (5, 5)))),
)


def _level(name, boxes, seed):
    eq = _equation(name)
    shape = (40,) if eq.m == 2 else (24, 20)
    nd = len(shape)
    h = PatchHierarchy(xlim=(0.0, 1.0), ylim=None if nd == 1 else (0.0, 1.0),
                       base_shape=shape, ratios=[])
    rng = np.random.default_rng(seed)
    lay = LevelLayout([h.make_spec(1, lo, hi) for lo, hi in boxes], eq.m)
    lay.sample_material(eq, BC, shape)
    patches = [Patch.view(lay, k) for k in range(len(boxes))]
    for p in patches:
        p.state[...] = rng.uniform(-1.0, 1.0, p.state.shape)
        if eq.is_swe:
            p.state[...] *= eqs.wet(p.aux)
    speed = max(float(np.max(p.aux[eqs.C])) for p in patches)
    return eq, lay, 0.8 * min(h.widths(1)[:nd]) / speed, patches


def _stepped_levels(order, padding=None):
    """The LEVELS levels, level k stepped once per k in `order` (MC on odd k,
    superbee on even); `padding` (a Generator) fills padding with random state
    and random positive material rows."""
    levels = [_level(name, boxes, k) for k, (name, boxes) in enumerate(LEVELS)]
    for eq, lay, *_ in levels if padding else ():
        pad = ~(lay.interior | lay._ghost)
        lay.state[:, pad] = padding.uniform(-1.0, 1.0, (len(lay.state), int(pad.sum())))
        lay.aux[:, pad] = padding.uniform(0.1, 10.0, (len(lay.aux), int(pad.sum())))
    for k in order:
        eq, lay, dt, _ = levels[k]
        lay.step(dt, eq, "MC" if k % 2 else "superbee")
    return levels


def test_interleaved_levels_step_as_each_alone(monkeypatch):
    # every band of every level shares the kernel's work arrays: stepping
    # levels of other shapes and equation sets in between changes no byte
    monkeypatch.setattr(solver, "BAND_CELLS", 16)       # a band per shelf
    steps = 3
    alone = _stepped_levels([k for k in range(len(LEVELS)) for _ in range(steps)])
    mixed = _stepped_levels([k for _ in range(steps) for k in reversed(range(len(LEVELS)))])
    for (name, _), (eq, a, *_), (_, b, *_) in zip(LEVELS, alone, mixed):
        assert len(a.bands) > 1, name
        if eq.is_swe:
            assert eqs.wet(a.aux).any() and not eqs.wet(a.aux)[a.interior].all(), name
        assert a.state.tobytes() == b.state.tobytes(), name


# sha256 of each LEVELS level's packed state after three steps (padding and
# ghosts included), recorded from an earlier version of the kernel; the band
# size changes the packing
LEVEL_DIGESTS = {
    16: ("7389345f8ccbe3a39cc8a3a06d52e7e24d5bb8446abe3b1a02f3cb48cbea3a6b",
         "432709f5ffcccebe6c93da89791221ba132aaaac5dd691869bdd9ce95312f873",
         "a028348571aba5c1ffc44a9747f3bf0e99d47ca6f77ac1dacc7a59b24b299483",
         "afebbeabf7c422a284b71b4f1242bd509605bdd23f3bf5e9180b9e9cc52a8d3c",
         "a450387ad51e1821010a659366ed09bb93d83f2d35458b6d07ef5feeae656db5",
         "5766e0dbc12e095646407a0122effcfdacbff934b4a83e1d4db7bf7bdf93dd53"),
    solver.BAND_CELLS: (
        "7389345f8ccbe3a39cc8a3a06d52e7e24d5bb8446abe3b1a02f3cb48cbea3a6b",
        "432709f5ffcccebe6c93da89791221ba132aaaac5dd691869bdd9ce95312f873",
        "ec2479f5ffac06a4d6d37db0f44f4334647dd03e4c7b2b931bad4f37eafec8f3",
        "ac9f377ae634966262df3037cc6cd18c009bf3700ae5bf6c78b2c55ba4182a81",
        "a450387ad51e1821010a659366ed09bb93d83f2d35458b6d07ef5feeae656db5",
        "b35f8208ea44bd64b78aa5b7b7eb9f2d605de073c1adc1efcb75b98cabf0b685"),
}


@pytest.mark.parametrize("band_cells", sorted(LEVEL_DIGESTS))
def test_packed_levels_bitwise(band_cells, monkeypatch):
    monkeypatch.setattr(solver, "BAND_CELLS", band_cells)
    levels = _stepped_levels([k for k in range(len(LEVELS)) for _ in range(3)])
    got = [hashlib.sha256(lay.state.tobytes()).hexdigest() for _, lay, *_ in levels]
    assert dict(zip([n for n, _ in LEVELS], got)) == dict(
        zip([n for n, _ in LEVELS], LEVEL_DIGESTS[band_cells]))


@pytest.mark.parametrize("band_cells", sorted(LEVEL_DIGESTS))
def test_padding_state_reaches_no_interior(band_cells, monkeypatch):
    # faces between a row's last cell and the next row's first join boxes
    # and padding of different shelves: random padding state and material
    # must change no interior byte (zero state or unit material padding
    # would hide a leak; shallow-water padding is wet)
    monkeypatch.setattr(solver, "BAND_CELLS", band_cells)
    order = [k for k in range(len(LEVELS)) for _ in range(3)]
    zero, noisy = _stepped_levels(order), _stepped_levels(order, np.random.default_rng(3))
    padded = [name for (name, _), (_, a, *_) in zip(LEVELS, zero)
              if (~(a.interior | a._ghost)).any()]
    assert len(padded) >= 3, padded
    for (name, _), (_, a, *_), (_, b, *_) in zip(LEVELS, zero, noisy):
        assert a.state[:, a.interior].tobytes() == b.state[:, b.interior].tobytes(), name


def _third_step_peak(name, shape):
    """tracemalloc's peak over the third step of one uniform patch (a band)."""
    eq = _equation(name)
    nd = len(shape)
    h = PatchHierarchy(xlim=(0.0, 1.0), ylim=None if nd == 1 else (0.0, 1.0),
                       base_shape=shape, ratios=[])
    p = Patch(h.make_spec(1, (0,) * nd, tuple(n - 1 for n in shape)), eq.m)
    sample_patch_material(p, eq, BC, shape)
    p.interior()[...] = np.random.default_rng(7).uniform(-1.0, 1.0, p.interior().shape)
    dt = 0.8 * min(p.spec.widths) / float(np.max(p.aux[eqs.C]))
    for _ in range(2):
        fill_ghost_physical(p, BC, eq, shape)
        step_patch(p, dt, eq, "MC")
    fill_ghost_physical(p, BC, eq, shape)
    tracemalloc.start()
    try:
        step_patch(p, dt, eq, "MC")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_both_axes_step_without_iterator_buffers():
    # a 54 x 54 2D band steps both axes as flat runs, as a 1D band of as
    # many cells steps its one: no larger traced peak (numpy's iterator
    # buffers strided (row, column) views, about four times the 1D figure)
    assert _third_step_peak("acoustics-2d", (50, 50)) <= _third_step_peak("acoustics-1d", (2912,))
