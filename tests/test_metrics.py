import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import harmonic_xy_model, product_xy_model
from oracles import (
    christoffels,
    finite_difference_christoffels,
    lorentzian_signature_ok,
    verify_christoffels_numerically,
)
from stringsheet import (
    DegeneracyError,
    DimensionMismatch,
    Minkowski,
    OriGeneral,
    OriQuadratic,
)

coord = st.floats(-3.0, 3.0, allow_nan=False)


def test_minkowski_metric_any_point():
    model = Minkowski(3)
    g = model.metric(np.array([4.2, -1.0, 0.3, 9.9]))
    assert np.array_equal(g, np.diag([-1.0, 1.0, 1.0, 1.0]))
    assert np.all(christoffels(model, np.zeros(4)) == 0.0)


def test_ori_metric_matches_line_element():
    # ds^2 = dx^2 + dy^2 - 2 dz dt + (f - t) dz^2 with f = a(x^2 - y^2)
    g = OriQuadratic(1.0).metric(np.array([0.0, 1.0, 0.0, 0.0]))
    expect = np.zeros((4, 4))
    expect[1, 1] = expect[2, 2] = 1.0
    expect[0, 3] = expect[3, 0] = -1.0
    expect[3, 3] = 1.0  # f - t = 1
    assert np.array_equal(g, expect)


def test_ori_metric_g33_by_substitution():
    g = OriQuadratic(2.0).metric(np.array([3.0, 1.0, 1.0, 5.0]))
    assert g[3, 3] == 2.0 * (1.0 - 1.0) - 3.0 == -3.0
    assert g[0, 3] == -1.0


@given(t=coord, x=coord, y=coord, z=coord, a=st.floats(0.1, 2.0))
def test_metric_invariants(t, x, y, z, a):
    for model in (Minkowski(3), OriQuadratic(a)):
        g = model.metric(np.array([t, x, y, z]))
        assert np.array_equal(g, g.T)
        assert abs(np.linalg.det(g)) > 1e-12
        assert lorentzian_signature_ok(g)


@given(t=coord, x=coord, y=coord, z=coord, a=st.floats(0.1, 2.0))
def test_christoffel_lower_symmetry(t, x, y, z, a):
    for model in (Minkowski(2), OriQuadratic(a), product_xy_model(a)):
        pt = np.array([t, x, y, z])[: model.dim]
        gam = christoffels(model, pt)
        assert np.allclose(gam, np.transpose(gam, (0, 2, 1)), atol=0.0)


def test_ori_christoffel_values():
    a = 1.3
    model = OriQuadratic(a)
    t, x, y, z = 0.4, 1.1, -0.6, 2.0
    gam = christoffels(model, np.array([t, x, y, z]))
    f = a * (x * x - y * y)
    fx, fy, fz = 2 * a * x, -2 * a * y, 0.0
    assert gam[0, 0, 3] == gam[0, 3, 0] == 0.5
    assert gam[0, 1, 3] == gam[0, 3, 1] == -0.5 * fx
    assert gam[0, 2, 3] == gam[0, 3, 2] == -0.5 * fy
    assert gam[0, 3, 3] == pytest.approx(0.5 * (t - f - fz))
    assert gam[1, 3, 3] == -0.5 * fx
    assert gam[2, 3, 3] == -0.5 * fy
    assert gam[3, 3, 3] == -0.5
    # every other entry vanishes
    mask = np.zeros((4, 4, 4), dtype=bool)
    for idx in [(0, 0, 3), (0, 3, 0), (0, 1, 3), (0, 3, 1), (0, 2, 3), (0, 3, 2),
                (0, 3, 3), (1, 3, 3), (2, 3, 3), (3, 3, 3)]:
        mask[idx] = True
    assert np.all(gam[~mask] == 0.0)


def test_quadratic_transverse_symbol_tracks_x():
    # Gamma^1_33 = -a x, the coefficient coupling the x-component to the
    # z-derivatives
    a = 0.8
    for x0 in (0.0, 1.0, -2.5):
        gam = christoffels(OriQuadratic(a), np.array([0.0, x0, 0.7, 0.0]))
        assert gam[1, 3, 3] == pytest.approx(-a * x0)


def test_contract_matches_full_tensor(rng):
    model = OriQuadratic(0.9)
    u = rng.uniform(-2, 2, size=(40, 4))
    p = rng.uniform(-1, 1, size=(40, 4))
    q = rng.uniform(-1, 1, size=(40, 4))
    direct = model.contract_pq(u, p, q)
    via_tensor = np.einsum("ncab,na,nb->nc", christoffels(model, u), p, q)
    assert np.allclose(direct, via_tensor, atol=1e-14)
    # z-component of the contraction is -p3 q3 / 2 for every wave profile
    assert np.allclose(direct[:, 3], -0.5 * p[:, 3] * q[:, 3], atol=1e-15)


def test_general_profile_matches_quadratic(rng):
    a = 0.6
    general = OriGeneral(
        f=lambda x, y, z: a * (x * x - y * y),
        f_x=lambda x, y, z: 2 * a * x,
        f_y=lambda x, y, z: -2 * a * y,
        f_z=lambda x, y, z: np.zeros_like(np.asarray(x, dtype=float)),
    )
    quadratic = OriQuadratic(a)
    pts = rng.uniform(-2.0, 2.0, size=(100, 4))
    assert np.allclose(general.metric(pts), quadratic.metric(pts), atol=0.0)
    assert np.allclose(christoffels(general, pts), christoffels(quadratic, pts), atol=0.0)


def test_fd_oracle_minkowski():
    assert verify_christoffels_numerically(Minkowski(3), np.zeros(4), 1e-3) <= 1e-12


def test_fd_oracle_quadratic_profile():
    # quadratic metric entries make the central differences exact
    res = verify_christoffels_numerically(
        OriQuadratic(1.0), np.array([0.0, 1.0, 1.0, 0.0]), 1e-4
    )
    assert res <= 1e-6


def test_fd_oracle_second_order_convergence():
    # need a profile with nonvanishing third derivatives to see the O(h^2)
    model = harmonic_xy_model(0.7)
    pt = np.array([0.2, 0.4, 0.9, -0.3])
    r1 = verify_christoffels_numerically(model, pt, 2e-3)
    r2 = verify_christoffels_numerically(model, pt, 1e-3)
    assert r1 > 1e-9  # truncation dominates roundoff at this step
    assert r1 / r2 == pytest.approx(4.0, rel=0.2)


def test_fd_oracle_random_points(rng):
    for model in (OriQuadratic(1.2), product_xy_model(0.5), harmonic_xy_model(0.3)):
        for _ in range(10):
            pt = rng.uniform(-1.5, 1.5, size=4)
            assert verify_christoffels_numerically(model, pt, 1e-4) < 1e-6


def test_fd_oracle_rejects_singular_metric():
    degenerate = OriGeneral(
        f=lambda x, y, z: np.zeros_like(np.asarray(x, dtype=float)),
        f_x=lambda x, y, z: np.zeros_like(np.asarray(x, dtype=float)),
        f_y=lambda x, y, z: np.zeros_like(np.asarray(x, dtype=float)),
        f_z=lambda x, y, z: np.zeros_like(np.asarray(x, dtype=float)),
    )

    class Broken(OriGeneral):
        def metric(self, points):
            g = super().metric(points)
            g[..., 0, 3] = 0.0
            g[..., 3, 0] = 0.0
            return g

    broken = Broken(degenerate.f, degenerate.f_x, degenerate.f_y, degenerate.f_z)
    with pytest.raises(DegeneracyError):
        finite_difference_christoffels(broken, np.zeros(4), 1e-4)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Minkowski(3).metric(np.zeros(3))
    with pytest.raises(DimensionMismatch):
        OriQuadratic(1.0).metric(np.zeros(5))


def test_harmonic_residual():
    assert harmonic_xy_model().harmonic_residual(np.zeros((1, 4))) < 1e-8
    bad = OriGeneral(
        f=lambda x, y, z: x * x + y * y,  # not harmonic
        f_x=lambda x, y, z: 2 * x,
        f_y=lambda x, y, z: 2 * y,
        f_z=lambda x, y, z: np.zeros_like(np.asarray(x, dtype=float)),
    )
    assert bad.harmonic_residual(np.zeros((1, 4))) > 1.0
