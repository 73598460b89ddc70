from dataclasses import replace

import numpy as np
import pytest

from adjamr import equations as eqs
from adjamr.equations import (DryCellError, InvalidMaterialError,
                              acoustics_material, acoustics_rp_1d, acoustics_rp_normal_2d,
                              acoustics_rp_transverse_2d,
                              adjoint_fwave_rp, adjoint_transverse, swe_linear_rp,
                              swe_material)


def amat(K, rho):
    return acoustics_material(np.asarray(K, float), np.asarray(rho, float))


def smat(depth, g=9.81):
    depth = np.asarray(depth, float)
    return swe_material(-depth, sea_level=0.0, gravity=g)


# ---------------------------------------------------------------------------
# Independent oracle: split a jump onto numerically computed eigenvectors of
# the one-sided coefficient matrices.

def matrix_acoustics_1d(K, rho):
    return np.array([[0.0, K], [1.0 / rho, 0.0]])


def matrix_acoustics_2d(axis, K, rho):
    A = np.zeros((3, 3))
    mu = 1 + axis
    A[0, mu] = K
    A[mu, 0] = 1.0 / rho
    return A


def matrix_swe(axis, depth, g):
    A = np.zeros((3, 3))
    mu = 1 + axis
    A[0, mu] = 1.0
    A[mu, 0] = g * depth
    return A


def transposed_flux(system, axis, q, mat):
    """transpose(A)·q̂ per sample, A the coefficient matrix of the sample's
    material along `axis`."""
    def matrix(k):
        if system == "swe-linear-2d":
            return matrix_swe(axis, mat[eqs.DEPTH][k], mat[eqs.GRAVITY][k])
        if system == "acoustics-1d":
            return matrix_acoustics_1d(mat[eqs.BULK][k], mat[eqs.RHO][k])
        return matrix_acoustics_2d(axis, mat[eqs.BULK][k], mat[eqs.RHO][k])
    return np.stack([matrix(k).T @ q[:, k] for k in range(q.shape[1])], axis=1)


def oracle_two_sided_split(A_l, A_r, delta):
    """Split `delta` onto the left matrix's incoming and the right matrix's
    outgoing eigenvectors (plus any shared null vectors), via numpy eig."""
    wl, vl = np.linalg.eig(A_l)
    wr, vr = np.linalg.eig(A_r)
    cols = []
    speeds = []
    for lam, v in sorted(zip(wl, vl.T), key=lambda t: t[0]):
        if lam < -1e-12:
            cols.append(v)
            speeds.append(lam)
    for lam, v in sorted(zip(wl, vl.T), key=lambda t: t[0]):
        if abs(lam) <= 1e-12:
            cols.append(v)
            speeds.append(0.0)
    for lam, v in sorted(zip(wr, vr.T), key=lambda t: t[0]):
        if lam > 1e-12:
            cols.append(v)
            speeds.append(lam)
    R = np.array(cols).T
    alpha = np.linalg.solve(R, delta)
    waves = [a * R[:, k] for k, a in enumerate(alpha)]
    return waves, speeds


def test_acoustics_1d_zero_jump():
    m = amat([1.0], [2.0])
    res = acoustics_rp_1d(np.array([[1.0], [0.5]]), np.array([[1.0], [0.5]]), m, m)
    assert np.allclose(res.waves, 0.0)
    assert np.allclose(res.fluct_minus, 0.0)
    assert np.allclose(res.fluct_plus, 0.0)


def test_acoustics_1d_spec_example():
    m = amat([1.0], [1.0])
    ql = np.array([[1.0], [0.0]])
    qr = np.array([[0.0], [0.0]])
    res = acoustics_rp_1d(ql, qr, m, m)
    assert np.allclose(res.waves[0][:, 0], [-0.5, 0.5])
    assert np.allclose(res.speeds[:, 0], [-1.0, 1.0])
    assert np.allclose(res.waves[1][:, 0], [-0.5, -0.5])
    middle = ql[:, 0] + res.waves[0][:, 0]
    assert np.allclose(middle, [0.5, 0.5])
    # oracle agreement
    waves, speeds = oracle_two_sided_split(matrix_acoustics_1d(1, 1),
                                           matrix_acoustics_1d(1, 1),
                                           qr[:, 0] - ql[:, 0])
    assert np.allclose(waves[0], res.waves[0][:, 0])
    assert np.allclose(waves[1], res.waves[1][:, 0])
    assert np.allclose(speeds, res.speeds[:, 0])


def test_acoustics_1d_material_jump_against_oracle():
    rng = np.random.default_rng(7)
    for _ in range(25):
        Kl, Kr = rng.uniform(0.2, 5.0, 2)
        rl, rr = rng.uniform(0.2, 5.0, 2)
        ql = rng.normal(size=2)
        qr = rng.normal(size=2)
        res = acoustics_rp_1d(ql[:, None], qr[:, None],
                              amat([Kl], [rl]), amat([Kr], [rr]))
        waves, speeds = oracle_two_sided_split(matrix_acoustics_1d(Kl, rl),
                                               matrix_acoustics_1d(Kr, rr),
                                               qr - ql)
        for w_o, w_i in zip(waves, res.waves):
            assert np.allclose(w_o, w_i[:, 0], atol=1e-12)
        assert np.allclose(speeds, res.speeds[:, 0], atol=1e-12)


def test_acoustics_1d_invalid_material():
    with pytest.raises(InvalidMaterialError):
        amat([-1.0], [1.0])
    good = amat([1.0], [1.0])
    bad = np.array([[0.0], [0.0], [0.0], [1.0]])       # rows (c, z, bulk, rho)
    with pytest.raises(InvalidMaterialError):
        acoustics_rp_1d(np.zeros((2, 1)), np.zeros((2, 1)), good, bad)


def test_hand_built_invalid_material_rejected_by_each_acoustics_solver():
    good = amat([1.0], [1.0])
    bad = np.array([[1.0], [1.0], [1.0], [-1.0]])      # rows (c, z, bulk, rho)
    q = np.zeros((3, 1))
    with pytest.raises(InvalidMaterialError):
        acoustics_rp_normal_2d(0, q, q, good, bad)
    with pytest.raises(InvalidMaterialError):
        acoustics_rp_transverse_2d(1, q, bad, good)
    with pytest.raises(InvalidMaterialError):
        adjoint_fwave_rp("acoustics-2d", 1, q, q, bad, good)
    with pytest.raises(InvalidMaterialError):
        adjoint_fwave_rp("acoustics-1d", 0, q[:2], q[:2], good, bad[:, 0:1])
    with pytest.raises(InvalidMaterialError):
        adjoint_transverse("acoustics-2d", 0, q, good, bad)
    with pytest.raises(DryCellError):
        adjoint_fwave_rp("swe-linear-2d", 0, q, q, smat([10.0]), smat([-1.0]))


def test_acoustics_2d_normal_spec_example():
    m = amat([4.0], [1.0])      # c = 2, Z = 2
    ql = np.array([[1.0], [0.0], [0.0]])
    qr = np.zeros((3, 1))
    res = acoustics_rp_normal_2d(0, ql, qr, m, m)
    assert np.allclose(res.speeds[:, 0], [-2.0, 0.0, 2.0])
    assert res.waves[0][0, 0] == pytest.approx(-0.5)
    assert res.waves[2][0, 0] == pytest.approx(-0.5)
    assert np.allclose(res.waves.sum(axis=0)[:, 0], qr[:, 0] - ql[:, 0])


def test_acoustics_2d_pure_transverse_jump_zero_speed_family():
    m = amat([4.0], [1.0])
    ql = np.array([[0.0], [0.0], [1.0]])
    qr = np.zeros((3, 1))
    res = acoustics_rp_normal_2d(0, ql, qr, m, m)
    assert np.allclose(res.waves[0], 0.0)
    assert np.allclose(res.waves[2], 0.0)
    assert np.allclose(res.fluct_minus, 0.0)
    assert np.allclose(res.fluct_plus, 0.0)
    assert res.waves[1][2, 0] == pytest.approx(-1.0)


def test_acoustics_2d_y_direction_couples_v():
    m = amat([4.0], [1.0])
    ql = np.array([[1.0], [0.0], [0.0]])
    qr = np.zeros((3, 1))
    res = acoustics_rp_normal_2d(1, ql, qr, m, m)
    # pressure couples with v (component 2); u rides the zero family
    assert res.waves[0][2, 0] != 0.0
    assert res.waves[0][1, 0] == 0.0


def test_transverse_zero_fluctuation():
    m = amat([4.0], [1.0])
    bm, bp = acoustics_rp_transverse_2d(0, np.zeros((3, 1)), m, m)
    assert np.allclose(bm, 0.0) and np.allclose(bp, 0.0)


def test_transverse_up_eigenvector_goes_up():
    m = amat([4.0], [1.0])      # Z = 2, c = 2
    f = np.array([[2.0], [0.0], [1.0]])     # (Z, 0, 1): up-going transverse
    bm, bp = acoustics_rp_transverse_2d(0, f, m, m)
    assert np.allclose(bm, 0.0, atol=1e-14)
    assert np.allclose(bp[:, 0], 2.0 * f[:, 0])   # speed c times the eigenvector


def test_transverse_spec_pressure_split():
    m = amat([4.0], [1.0])
    f = np.array([[1.0], [0.0], [0.0]])
    bm, bp = acoustics_rp_transverse_2d(0, f, m, m)
    # each half carries pressure 0.5, scaled by transverse speeds -2 / +2
    assert bm[0, 0] == pytest.approx(-2.0 * 0.5)
    assert bp[0, 0] == pytest.approx(2.0 * 0.5)
    # oracle: decompose onto eigenvectors of B then scale by speeds
    B = matrix_acoustics_2d(1, 4.0, 1.0)
    waves, speeds = oracle_two_sided_split(B, B, f[:, 0])
    down = speeds[0] * waves[0]
    up = speeds[-1] * waves[-1]
    assert np.allclose(bm[:, 0], down, atol=1e-12)
    assert np.allclose(bp[:, 0], up, atol=1e-12)


def test_adjoint_fwave_identical_states_zero():
    m = amat([1.3], [0.7])
    q = np.array([[0.4], [-0.2]])
    res = adjoint_fwave_rp("acoustics-1d", 0, q, q, m, m)
    assert np.allclose(res.waves, 0.0)


def test_adjoint_fwave_spec_example():
    m = amat([1.0], [1.0])
    ql = np.array([[1.0], [0.0]])
    qr = np.zeros((2, 1))
    res = adjoint_fwave_rp("acoustics-1d", 0, ql, qr, m, m)
    assert res.fwave
    assert np.allclose(res.waves[0][:, 0], [0.5, -0.5])
    assert np.allclose(res.speeds[:, 0], [-1.0, 1.0])
    assert np.allclose(res.waves[1][:, 0], [-0.5, -0.5])
    # f-waves sum to the flux difference computed from transpose(A)
    At = matrix_acoustics_1d(1.0, 1.0).T
    df = At @ qr[:, 0] - At @ ql[:, 0]
    assert np.allclose(res.waves.sum(axis=0)[:, 0], df)


def test_adjoint_fwave_material_jump_constant_state():
    ml = amat([1.0], [1.0])
    mr = amat([1.0], [4.0])
    q = np.array([[0.3], [0.7]])
    res = adjoint_fwave_rp("acoustics-1d", 0, q, q, ml, mr)
    fl = transposed_flux("acoustics-1d", 0, q, ml)
    fr = transposed_flux("acoustics-1d", 0, q, mr)
    assert np.allclose(res.waves.sum(axis=0), fr - fl, atol=1e-14)


def test_swe_speeds_value():
    m = smat([100.0])
    ql = np.array([[1.0], [0.0], [0.0]])
    res = swe_linear_rp(0, ql, np.zeros((3, 1)), m, m)
    assert res.speeds[0, 0] == pytest.approx(-np.sqrt(981.0))
    assert res.speeds[2, 0] == pytest.approx(np.sqrt(981.0))
    assert abs(res.speeds[0, 0]) == pytest.approx(31.32, abs=5e-3)


def test_swe_symmetric_split_and_oracle():
    g = 9.81
    m = smat([50.0], g)
    ql = np.array([[1.0], [0.0], [0.0]])
    qr = np.zeros((3, 1))
    res = swe_linear_rp(0, ql, qr, m, m)
    assert res.waves[0][0, 0] == pytest.approx(-0.5)
    assert res.waves[2][0, 0] == pytest.approx(-0.5)
    waves, speeds = oracle_two_sided_split(matrix_swe(0, 50.0, g),
                                           matrix_swe(0, 50.0, g),
                                           (qr - ql)[:, 0])
    assert np.allclose(res.speeds[:, 0], speeds, atol=1e-12)
    assert np.allclose(res.waves[0][:, 0], waves[0], atol=1e-12)


def test_swe_dry_cell_error():
    wet = smat([10.0])
    dry = smat([-1.0])
    with pytest.raises(DryCellError):
        swe_linear_rp(0, np.zeros((3, 1)), np.zeros((3, 1)), wet, dry)
    with pytest.raises(DryCellError):       # c = 0 on a dry side: no transverse split
        eqs.swe_linear_transverse(0, np.ones((3, 1)), dry, wet)
    with pytest.raises(DryCellError):
        adjoint_transverse("swe-linear-2d", 1, np.ones((3, 1)), wet, dry)


def test_wet_rule_is_positive_depth():
    """A cell is wet where its wave speed is positive: for shallow water
    exactly where η − b > 0, exact zeros included, unless g·(η − b)
    underflows to 0; every acoustics cell."""
    rng = np.random.default_rng(5)
    b = rng.uniform(-2.0, 2.0, (40, 30))
    b[rng.random(b.shape) < 0.2] = 0.0      # cells of exactly zero depth at sea level 0
    b[rng.random(b.shape) < 0.1] = 1.5      # and at sea level 1.5
    for sea_level in (0.0, 1.5):
        for g in (9.81, 1.0):
            aux = swe_material(b, sea_level, g)
            assert np.array_equal(eqs.wet(aux), sea_level - b > 0)
    assert not eqs.wet(swe_material([-5e-324], 0.0, 0.1)).any()     # depth > 0, c = 0
    assert eqs.wet(amat(rng.uniform(0.1, 10, 50), rng.uniform(0.1, 10, 50))).all()


def test_adjoint_forward_same_speed_sets():
    rng = np.random.default_rng(3)
    K = rng.uniform(0.5, 4.0, 10)
    rho = rng.uniform(0.5, 4.0, 10)
    ml = amat(K[:5], rho[:5])
    mr = amat(K[5:], rho[5:])
    ql = rng.normal(size=(2, 5))
    qr = rng.normal(size=(2, 5))
    fwd = acoustics_rp_1d(ql, qr, ml, mr)
    adj = adjoint_fwave_rp("acoustics-1d", 0, ql, qr, ml, mr)
    assert np.allclose(fwd.speeds, adj.speeds)


# ---------------------------------------------------------------------------
# Bulk random-property suites (the 1e4-sample reconstruction checks live in
# test_acceptance; these cover each solver on smaller batches)

def rel_err(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-30)


def test_wave_sum_and_speed_bound_batches():
    rng = np.random.default_rng(11)
    n = 500
    ml = amat(rng.uniform(0.1, 10, n), rng.uniform(0.1, 10, n))
    mr = amat(rng.uniform(0.1, 10, n), rng.uniform(0.1, 10, n))
    ql = rng.normal(size=(2, n))
    qr = rng.normal(size=(2, n))
    res = acoustics_rp_1d(ql, qr, ml, mr)
    assert rel_err(res.waves.sum(axis=0), qr - ql) < 1e-12
    assert np.all(np.abs(res.speeds) <= np.maximum(ml[eqs.C], mr[eqs.C]) + 1e-14)
    # fluctuation identity: minus + plus = sum(speed * wave)
    total = np.sum(res.speeds[:, None] * res.waves, axis=0)
    assert rel_err(res.fluct_minus + res.fluct_plus, total) < 1e-12


def test_fwave_sum_batches_all_systems():
    rng = np.random.default_rng(13)
    n = 500
    for system, m in [("acoustics-1d", 2), ("acoustics-2d", 3), ("swe-linear-2d", 3)]:
        for axis in range(1 if m == 2 else 2):
            if system.startswith("acoustics"):
                ml = amat(rng.uniform(0.1, 10, n), rng.uniform(0.1, 10, n))
                mr = amat(rng.uniform(0.1, 10, n), rng.uniform(0.1, 10, n))
            else:
                ml = smat(rng.uniform(0.5, 200, n))
                mr = smat(rng.uniform(0.5, 200, n))
            ql = rng.normal(size=(m, n))
            qr = rng.normal(size=(m, n))
            res = adjoint_fwave_rp(system, axis, ql, qr, ml, mr)
            df = (transposed_flux(system, axis, qr, mr)
                  - transposed_flux(system, axis, ql, ml))
            assert rel_err(res.waves.sum(axis=0), df) < 1e-12
            assert rel_err(res.fluct_minus + res.fluct_plus,
                           res.waves.sum(axis=0)) < 1e-12


# ---------------------------------------------------------------------------
# The equation-set record: its fields and derived two-family parameters

def ones(*coords):
    return np.ones(np.broadcast(*coords).shape)


FORWARD_SYSTEMS = {
    "acoustics-1d": lambda: eqs.Acoustics1D(eqs.AcousticsMaterialModel(ones, ones)),
    "acoustics-2d": lambda: eqs.Acoustics2D(eqs.AcousticsMaterialModel(ones, ones)),
    "swe-linear-2d": lambda: eqs.SweLinear2D(eqs.SweMaterialModel(ones)),
}
AC, SW = ("c", "z", "bulk", "rho"), ("c", "depth", "gravity")
# (forward system, form): name, m, rows, x_field, p_slot, fwave, time_reversed,
# normal_component(0), normal_component(1)
EQUATION_RECORDS = {
    ("acoustics-1d", "forward"): ("acoustics-1d", 2, AC, "z", 1, False, False, 1, 1),
    ("acoustics-1d", "adjoint"): ("adjoint-acoustics-1d", 2, AC, "z", 0, True, False, 1, 1),
    ("acoustics-1d", "reversed"):
        ("adjoint-acoustics-1d-reversed", 2, AC, "z", 0, True, True, 1, 1),
    ("acoustics-2d", "forward"): ("acoustics-2d", 3, AC, "z", 1, False, False, 1, 2),
    ("acoustics-2d", "adjoint"): ("adjoint-acoustics-2d", 3, AC, "z", 0, True, False, 1, 2),
    ("acoustics-2d", "reversed"):
        ("adjoint-acoustics-2d-reversed", 3, AC, "z", 0, True, True, 1, 2),
    ("swe-linear-2d", "forward"): ("swe-linear-2d", 3, SW, "c", 0, False, False, 1, 2),
    ("swe-linear-2d", "adjoint"): ("adjoint-swe-linear-2d", 3, SW, "c", 1, True, False, 1, 2),
    ("swe-linear-2d", "reversed"):
        ("adjoint-swe-linear-2d-reversed", 3, SW, "c", 1, True, True, 1, 2),
}


@pytest.mark.parametrize("system", FORWARD_SYSTEMS)
def test_equation_set_records(system):
    forward = FORWARD_SYSTEMS[system]()
    forms = {"forward": forward, "adjoint": forward.adjoint(),
             "reversed": forward.adjoint().reversed()}
    for form, eq in forms.items():
        got = (eq.name, eq.m, eq.rows, eq.x_field, eq.p_slot, eq.fwave, eq.time_reversed,
               eq.normal_component(0), eq.normal_component(1))
        assert got == EQUATION_RECORDS[system, form], form
        assert eq.sample_material is forward.sample_material
    assert replace(forward) != forward          # equality is identity
    with pytest.raises(NotImplementedError):
        forward.adjoint().adjoint()
    with pytest.raises(NotImplementedError):
        forward.reversed()
