import math

import numpy as np
import pytest

from wsdlab.ambient import AmbientPoint, exterior_derivative_residual, moment_map, section_point
from wsdlab.maps import (
    CPnPoint,
    DeformationParams,
    alpha_deform,
    complex_structure_at,
    phi_inverse,
    phi_map,
    phi_pullback_check,
    phi_pullback_form,
    pi1_image_residual,
    pi2_image_residual,
    project_pi1,
    project_pi2,
    psi_pullback_residuals,
    psi_scale,
)
from wsdlab.metgeo import _quotient_phases, fubini_study_distance, hn_distance
from wsdlab.polytope import lattice_maps
from wsdlab.reduction import LevelSetSpec, ReducedPoint, feasibility, sample_points

PI = math.pi


def spec_rho(n, rho1, rho2):
    return LevelSetSpec.from_rho(n, rho1, rho2)


def test_point_type_validation():
    with pytest.raises(ValueError):
        CPnPoint([0, 0, 0], 1.0)
    with pytest.raises(ValueError):
        CPnPoint([1, 0], 0.0)
    with pytest.raises(ValueError):
        CPnPoint([1], 1.0)
    p = CPnPoint([3.0, 4.0], 1.0)
    assert p.normalization_residual() > 1.0
    q = p.normalized()
    assert q.normalization_residual() < 1e-15
    assert abs(q.norm2() - 1.0) < 1e-15


def test_project_pi1_section_and_sphere():
    s = spec_rho(2, 1.2, 0.6)
    pts = sample_points(s, 60, seed=1)
    for p in pts:
        z = project_pi1(p)
        assert abs(z.norm2() - s.rho1**2) < 1e-12 * s.rho1**2
        assert z.lam == pytest.approx(s.rho1**2)
    sec = ReducedPoint(s, pts[0].base_r, np.zeros(2), np.zeros(2))
    z = project_pi1(sec)
    assert np.allclose(z.z.imag, 0.0)
    assert np.allclose(z.z.real, pts[0].base_r)


def test_pi1_fiber_collapse():
    s = spec_rho(2, 1.0, 0.55)
    p = sample_points(s, 1, seed=2)[0]
    z = project_pi1(p)
    rng = np.random.default_rng(5)
    for _ in range(10):
        q = ReducedPoint(s, p.base_r, p.torus_s, rng.uniform(0, 1, 2))
        w = project_pi1(q)
        assert np.array_equal(z.z, w.z)  # eta never enters
        assert fubini_study_distance(z, w) == 0.0


def test_pi1_image_residual_on_samples():
    for n, rho2 in ((1, 0.7), (2, 0.55), (3, 0.8)):
        s = spec_rho(n, 0.9, rho2)
        for p in sample_points(s, 40, seed=3):
            assert pi1_image_residual(project_pi1(p), rho2) < 1e-10


def test_pi1_image_residual_divisor_and_scale():
    rho2 = 0.6
    z = np.array([0.0, 1.0, 2.0], dtype=complex)
    assert pi1_image_residual(z, rho2) == pytest.approx(math.exp(-4 * PI**2 * rho2**2), abs=0)
    rng = np.random.default_rng(9)
    for _ in range(50):
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        base = pi1_image_residual(w, rho2)
        for c in (2.0, 1e-3 + 5j):
            assert abs(pi1_image_residual(c * w, rho2) - base) < 1e-12 * max(1, base)


def test_fubini_study_distance_axioms():
    z = CPnPoint([1.0, 0.0, 0.0], 1.0)
    w = CPnPoint([0.0, 1.0, 0.0], 1.0)
    assert fubini_study_distance(z, z) == 0.0
    assert abs(fubini_study_distance(z, w, rho=1.0) - PI / 2) < 1e-15
    rng = np.random.default_rng(13)
    for _ in range(1000):
        a, b, c = (CPnPoint(rng.standard_normal(3) + 1j * rng.standard_normal(3), 1.0)
                   for _ in range(3))
        dab = fubini_study_distance(a, b, 1.0)
        dbc = fubini_study_distance(b, c, 1.0)
        dac = fubini_study_distance(a, c, 1.0)
        assert dac <= dab + dbc + 1e-12
    # scale multiplies distances
    assert fubini_study_distance(z, w, rho=2.5) == pytest.approx(2.5 * PI / 2)


def test_phi_round_trip_and_domain():
    rho1, rho2 = 1.3, 0.7
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        p = AmbientPoint(n, rng.uniform(0, 1, n + 1),
                         np.exp(rng.uniform(-2, 1, n + 1)),
                         rng.uniform(0, 1, n + 1))
        q = phi_map(p, rho1, rho2)
        assert np.all(q.r < rho1)
        back = phi_inverse(q, rho1, rho2)
        worst = max(worst,
                    float(np.max(np.abs(back.r - p.r))),
                    float(np.max(np.abs(back.theta - p.theta))),
                    float(np.max(np.abs(back.eta - p.eta))))
    assert worst < 1e-10
    with pytest.raises(ValueError, match="rho1"):
        phi_inverse(AmbientPoint(1, [0, 0], [0.5, 1.5], [0, 0]), 1.0, 0.5)


def test_phi_small_radius_limit():
    rho1, rho2 = 2.0, 0.8
    p = AmbientPoint(1, [0, 0], [1e-8, 1e-7], [0, 0])
    q = phi_map(p, rho1, rho2)
    assert np.all(q.r < rho1)
    assert np.all(q.r > rho1 * (1 - 1e-12))


def test_pi2_consistent_with_phi_inverse():
    s = spec_rho(2, 1.1, 0.6)
    p = sample_points(s, 5, seed=7)[0]
    amb = p.ambient_point()
    z = project_pi2(p)
    lifted = phi_inverse(AmbientPoint(2, amb.theta, amb.r, amb.eta), s.rho1, s.rho2)
    assert np.allclose(np.abs(z.z), s.rho2 * lifted.r, atol=1e-13)


def test_phi_pullback_check_bulk():
    rng = np.random.default_rng(19)
    for n in (1, 2, 3):
        for _ in range(30):
            p = AmbientPoint(n, rng.uniform(0, 1, n + 1),
                             np.exp(rng.uniform(-1, 1, n + 1)),
                             rng.uniform(0, 1, n + 1))
            rho1 = float(np.exp(rng.uniform(-0.5, 0.5)))
            rho2 = float(rng.uniform(0.4, 1.0))
            rep = phi_pullback_check(p, rho1, rho2)
            assert rep.max_residual < 1e-9, rep.residuals


def test_phi_pullback_mu2_identity():
    p = AmbientPoint(2, [0.1, 0.2, 0.3], [0.9, 1.4, 0.3], [0.0, 0.5, 0.25])
    rep = phi_pullback_check(p, 1.05, 0.62)
    assert rep.residuals["mu2"] < 1e-10
    assert rep.residuals["J2_squared"] < 1e-9


def test_pulled_back_form_stays_closed():
    p = section_point(2, [1.0, 0.8, 1.3])
    fn = phi_pullback_form("omega1", 1.1, 0.6)
    assert exterior_derivative_residual(fn, p, h=1e-4) < 1e-6
    fn2 = phi_pullback_form("omega2", 1.1, 0.6)
    assert exterior_derivative_residual(fn2, p, h=1e-4) < 1e-6


def test_project_pi2_normalization_and_fibers():
    s = spec_rho(2, 1.0, 0.55)
    pts = sample_points(s, 40, seed=11)
    for p in pts:
        z = project_pi2(p)
        assert abs(z.norm2() - s.rho2**2) < 1e-9 * s.rho2**2
        assert pi2_image_residual(z) < 1e-9
    p = pts[0]
    z = project_pi2(p)
    rng = np.random.default_rng(23)
    for _ in range(5):
        q = ReducedPoint(s, p.base_r, rng.uniform(0, 1, 2), p.torus_t)
        w = project_pi2(q)
        assert np.array_equal(z.z, w.z)  # theta never enters
        assert hn_distance(z, w) < 1e-12


def test_project_pi2_symmetric_base():
    s = spec_rho(2, 1.0, 0.55)
    p = ReducedPoint(s, [0.4, 0.4, 0.4], [0.0, 0.0], [0.1, 0.2])
    z = project_pi2(p)
    mags = np.abs(z.z)
    assert np.max(mags) - np.min(mags) < 1e-15


def test_project_pi2_domain_guard():
    s = spec_rho(2, 1.0, 0.55)
    p = ReducedPoint(s, [1.5, 0.1, 0.1], [0.0, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError, match="rho1"):
        project_pi2(p)


def test_project_pi2_radius_rounded_to_rho1_is_numerical():
    # a shape coordinate that rounded to exactly 1 is a rounding failure on a
    # valid level set, not a point outside the fibration domain
    s = spec_rho(2, 1.0, 2.5)
    p = ReducedPoint(s, [1.0, 1e-9, 1e-9], [0.0, 0.0], [0.0, 0.0])
    with pytest.raises(ArithmeticError, match="rho1"):
        project_pi2(p)


def test_pi2_image_residual_landmarks():
    for n in (1, 2, 3):
        mag2 = math.log(n + 1) / (4 * PI**2)
        z = np.full(n + 1, math.sqrt(mag2), dtype=complex)
        assert pi2_image_residual(z) < 1e-15  # exact up to one ulp per term
        assert pi2_image_residual(np.zeros(n + 1, dtype=complex)) == pytest.approx(n)


def test_hn_distance_quotient():
    rng = np.random.default_rng(29)
    lam = 0.3
    for n in (1, 2, 3):
        z = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        p = CPnPoint(z, lam).normalized()
        assert hn_distance(p, p) < 1e-12
        phases = _quotient_phases(n)
        for row in phases:
            shift = np.exp(2j * PI * (row + 0.37))  # orbit: finite rep + circle
            q = CPnPoint(p.z * shift, lam)
            assert hn_distance(p, q) < 1e-6
            raw = fubini_study_distance(CPnPoint(p.z, lam), CPnPoint(q.z, lam))
            assert hn_distance(p, q) <= raw + 1e-12
    with pytest.raises(ValueError, match="scale"):
        hn_distance(CPnPoint([1, 0], 1.0), CPnPoint([1, 0], 2.0))


def test_hn_distance_nontrivial_value():
    # distinct projective points stay separated in the quotient
    p = CPnPoint([1.0, 0.0, 0.0], 1.0)
    q = CPnPoint([0.0, 1.0, 0.0], 1.0)
    d = hn_distance(p, q)
    assert abs(d - PI / 2) < 1e-9  # orbit phases never mix coordinates


def test_complex_structure_properties():
    rng = np.random.default_rng(31)
    for _ in range(40):
        m = int(rng.integers(2, 5))
        r = np.exp(rng.uniform(-1, 1, m))
        lam1 = float(np.exp(rng.uniform(-1, 1)))
        lam2 = float(rng.uniform(0.3, 1.2))
        cs = complex_structure_at(r, lam1, lam2)
        assert cs.j_squared_residual() < 1e-9
        assert cs.compatibility_residual() < 1e-12
    with pytest.raises(ValueError, match="singular"):
        complex_structure_at([1.0, 0.0], 1.0, 1.0)


def test_complex_structure_large_limit_trend():
    r = np.array([0.7, 1.1])
    lam2 = 0.8
    a = complex_structure_at(r, 1.0, lam2)
    b = complex_structure_at(r, 0.5, lam2)
    # divergent coefficient (deta -> dr) grows like lam1^{-2}
    ratio = b.J[0, 2] / a.J[0, 2]
    assert abs(ratio - 4.0) < 1e-12
    # n=1 read-off of the dr -> deta coefficient
    coef = a.J[2, 0]
    want = 8 * PI**3 * 0.7 * 1.0 * lam2**2 * math.exp(-4 * PI**2 * lam2**2 * 0.49)
    assert abs(coef - want) < 1e-14 * abs(want)


def test_alpha_deform_rho_action():
    s = spec_rho(2, 0.9, 0.65)
    for t in (0.25, 1.0, 3.0):
        s2 = alpha_deform(s, t)
        assert abs(s2.rho1 - t * s.rho1) < 1e-12 * max(1, t * s.rho1)
        assert abs(s2.rho2 - s.rho2) < 1e-12
        assert feasibility(s2) == feasibility(s)
    assert alpha_deform(s, 1.0) == s
    with pytest.raises(ValueError):
        alpha_deform(s, 0.0)
    with pytest.raises(ValueError):
        DeformationParams(-2.0)


def test_alpha_composition():
    s = spec_rho(3, 1.0, 0.9)
    for t1, t2 in ((0.5, 3.0), (2.0, 2.0), (0.1, 0.7)):
        once = alpha_deform(alpha_deform(s, t1), t2)
        both = alpha_deform(s, t1 * t2)
        assert abs(once.k1 - both.k1) < 1e-12 * abs(both.k1)
        assert abs(once.k2 - both.k2) < 1e-12 * max(1, abs(both.k2))


def test_psi_scale_moves_level_sets():
    s = spec_rho(2, 1.0, 0.6)
    t = 1.7
    s2 = alpha_deform(s, t)
    for p in sample_points(s, 10, seed=37):
        q = psi_scale(p.ambient_point(), t)
        mu1, mu2 = moment_map(q)
        assert abs(mu1 - s2.k1) < 1e-10 * abs(s2.k1)
        assert abs(mu2 - s2.k2) < 1e-10 * max(1, abs(s2.k2))
    assert np.array_equal(psi_scale(q, 1.0).r, q.r)


def test_psi_pullback_residuals():
    p = AmbientPoint(2, [0.2, 0.1, 0.9], [0.5, 1.5, 0.8], [0.3, 0.3, 0.0])
    for t in (0.5, 2.0, 7.0):
        res = psi_pullback_residuals(p, t)
        assert max(res.values()) < 1e-12
    with pytest.raises(ValueError):
        psi_pullback_residuals(p, -1.0)


def test_pi1_equivariance():
    s = spec_rho(2, 1.0, 0.55)
    p = sample_points(s, 1, seed=41)[0]
    rows = np.array(lattice_maps(2).dual_t.matrix, dtype=float)
    delta = np.array([0.21, 0.43])
    shifted = ReducedPoint(s, p.base_r, p.torus_s + delta, p.torus_t)
    z = project_pi1(p)
    zs = project_pi1(shifted)
    acted = CPnPoint(z.z * np.exp(2j * PI * (rows @ delta)), z.lam)
    assert fubini_study_distance(zs, acted) < 1e-8


def test_pi2_equivariance():
    s = spec_rho(2, 1.0, 0.55)
    p = sample_points(s, 1, seed=43)[0]
    rows = np.array(lattice_maps(2).primal_t.matrix, dtype=float)
    delta = np.array([0.31, 0.11])
    shifted = ReducedPoint(s, p.base_r, p.torus_s, p.torus_t + delta)
    z = project_pi2(p)
    zs = project_pi2(shifted)
    acted = CPnPoint(z.z * np.exp(-2j * PI * (rows @ delta)), z.lam)
    assert hn_distance(zs, acted) < 1e-8