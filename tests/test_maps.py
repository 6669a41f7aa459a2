import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dense_pullback, dense_tensors
from wsdlab import maps, metgeo
from wsdlab.ambient import closedness_residuals, moment_map
from wsdlab.maps import (
    CPnPoint,
    alpha_deform,
    complex_structure_at,
    embedded_angles,
    phi_pullback_check,
    pi1_image_residual,
    pi2_image_residual,
    project_pi1,
    project_pi2,
    psi_pullback_residuals,
)
from wsdlab.metgeo import _quotient_phases, fubini_study_distance, hn_distance
from wsdlab.params import LevelSetSpec, feasibility, feasibility_threshold
from wsdlab.polytope import lattice_maps
from wsdlab.reduction import draw_torus, log_shape, sample_base

PI = math.pi


def pi1_point(spec, r, s) -> CPnPoint:
    return CPnPoint(project_pi1(r, s), spec.rho1**2)


def pi2_point(spec, r, t) -> CPnPoint:
    return CPnPoint(project_pi2(np.log(r / spec.rho1), t), spec.rho2**2)


def sample_arrays(spec, count, seed):
    """The radii and the s and t torus rows of samples 0..count-1."""
    n = spec.n
    torus = draw_torus(n, count, seed)
    return sample_base(spec, count, seed), torus[:, :n], torus[:, n:]


def test_point_type_validation():
    with pytest.raises(ValueError):
        CPnPoint([0, 0, 0], 1.0)
    with pytest.raises(ValueError):
        CPnPoint([1, 0], 0.0)
    with pytest.raises(ValueError):
        CPnPoint([1], 1.0)
    for z in ([1.0, math.nan], [1.0, math.inf], [complex(1.0, -math.inf), 0.0]):
        with pytest.raises(ValueError, match="finite"):
            CPnPoint(z, 1.0)
    for lam in (math.inf, math.nan, -1.0):
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            CPnPoint([1, 0], lam)


def test_project_pi1_section_and_sphere():
    s = LevelSetSpec(2, 1.2, 0.6)
    base, torus_s, _ = sample_arrays(s, 60, seed=1)
    z = project_pi1(base, torus_s)
    assert z.shape == (60, 3)
    assert np.all(np.abs(np.sum(np.abs(z) ** 2, axis=1) - s.rho1**2) < 1e-12 * s.rho1**2)
    z = project_pi1(base[0], np.zeros(2))
    assert np.allclose(z.imag, 0.0)
    assert np.allclose(z.real, base[0])


def test_pi1_fiber_collapse():
    # a fiber is fixed (r, s) with any t: the stacked rows of one fiber land on
    # one point
    s = LevelSetSpec(2, 1.0, 0.55)
    (r,), (a,), _ = sample_arrays(s, 1, seed=2)
    z = pi1_point(s, r, a)
    fiber = project_pi1(np.tile(r, (10, 1)), np.tile(a, (10, 1)))
    for row in fiber:
        w = CPnPoint(row, z.lam)
        assert np.array_equal(z.z, w.z)
        assert fubini_study_distance(z, w) == 0.0


def test_pi1_image_residual_on_samples():
    for n, rho2 in ((1, 0.7), (2, 0.55), (3, 0.8)):
        s = LevelSetSpec(n, 0.9, rho2)
        base, torus_s, _ = sample_arrays(s, 40, seed=3)
        res = pi1_image_residual(project_pi1(base, torus_s), rho2)
        assert res.shape == (40,)
        assert np.all(res < 1e-10)


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
    assert abs(fubini_study_distance(z, w) - PI / 2) < 1e-15
    rng = np.random.default_rng(13)
    for _ in range(1000):
        a, b, c = (CPnPoint(rng.standard_normal(3) + 1j * rng.standard_normal(3), 1.0)
                   for _ in range(3))
        dab = fubini_study_distance(a, b)
        dbc = fubini_study_distance(b, c)
        dac = fubini_study_distance(a, c)
        assert dac <= dab + dbc + 1e-12
    # the scale sqrt(lam) multiplies distances
    far = CPnPoint(w.z, 6.25)
    assert fubini_study_distance(CPnPoint(z.z, 6.25), far) == pytest.approx(2.5 * PI / 2)
    # mixed scales are rejected in either order
    for p, q in ((z, far), (far, z)):
        with pytest.raises(ValueError, match="same scale"):
            fubini_study_distance(p, q)


def test_phi_round_trip_and_domain():
    # phi's radial map is inverted by the pi2 modulus: |z_i| = rho2 r_i, with
    # the angles carried as they are (theta) or negated (eta)
    rho1, rho2 = 1.3, 0.7
    rng = np.random.default_rng(17)
    worst = 0.0
    for n in (1, 2, 3):
        r = np.exp(rng.uniform(-2, 1, (300, n + 1)))
        q = maps._phi_radii(r, rho1, rho2)
        assert np.all(q < rho1)
        back = np.abs(project_pi2(np.log(q / rho1), np.zeros((300, n)))) / rho2
        worst = max(worst, float(np.max(np.abs(back - r))))
    assert worst < 1e-10
    with pytest.raises(ValueError, match="domain"):
        project_pi2(np.log([0.5, 1.5]), [0.0])


def test_phi_small_radius_limit():
    rho1, rho2 = 2.0, 0.8
    q = maps._phi_radii(np.array([1e-8, 1e-7]), rho1, rho2)
    assert np.all(q < rho1)
    assert np.all(q > rho1 * (1 - 1e-12))


def test_pi2_modulus_is_the_phi_preimage():
    # the sampled radii are phi's image of |z| / rho2
    s = LevelSetSpec(2, 1.1, 0.6)
    base, _, torus_t = sample_arrays(s, 5, seed=7)
    z = project_pi2(np.log(base / s.rho1), torus_t)
    assert np.allclose(maps._phi_radii(np.abs(z) / s.rho2, s.rho1, s.rho2), base,
                       rtol=1e-13, atol=0)


def test_phi_pullback_check_bulk():
    rng = np.random.default_rng(19)
    for n in (1, 2, 3):
        for _ in range(30):
            r = np.exp(rng.uniform(-1, 1, n + 1))
            rho1 = float(np.exp(rng.uniform(-0.5, 0.5)))
            rho2 = float(rng.uniform(0.4, 1.0))
            rep = phi_pullback_check(r, rho1, rho2)
            assert max(rep.values()) < 1e-9, rep


def test_phi_pullback_mu2_identity():
    rep = phi_pullback_check(np.array([[0.9, 1.4, 0.3], [0.2, 2.0, 1.1]]), 1.05, 0.62)
    assert rep["mu2"].shape == (2,)
    assert np.all(rep["mu2"] < 1e-10)
    assert np.all(rep["J2"] < 1e-9)


def _phi_reference(r, rho1, rho2):
    """Reference: phi's image radii r' and the diagonal (1 | dr'/dr | -1) of
    its Jacobian, per radius row."""
    image = rho1 * np.exp(-2.0 * PI**2 * rho2 * rho2 * r**2)
    ones = np.ones_like(r)
    return image, np.concatenate([ones, -4.0 * PI**2 * rho2 * rho2 * r * image, -ones], axis=-1)


def test_pulled_back_form_stays_closed():
    def pullback(form_id):
        def stack(r):
            image, jac = _phi_reference(r, 1.1, 0.6)
            return np.array([dense_pullback(dense_tensors(q), j)[form_id]
                             for q, j in zip(image, jac)])
        return stack

    r = np.array([[1.0, 0.8, 1.3]])
    assert closedness_residuals(pullback("omega1"), r, h=1e-4)[0] < 1e-6
    assert closedness_residuals(pullback("omega2"), r, h=1e-4)[0] < 1e-6


def test_project_pi2_normalization_and_fibers():
    s = LevelSetSpec(2, 1.0, 0.55)
    base, _, torus_t = sample_arrays(s, 40, seed=11)
    z = project_pi2(np.log(base / s.rho1), torus_t)
    assert z.shape == (40, 3)
    assert np.all(np.abs(np.sum(np.abs(z) ** 2, axis=1) - s.rho2**2) < 1e-9 * s.rho2**2)
    res = pi2_image_residual(z)
    assert res.shape == (40,)
    assert np.all(res < 1e-9)
    # a fiber is fixed (r, t) with any s: the stacked rows of one fiber land on
    # one point of the quotient
    z = pi2_point(s, base[0], torus_t[0])
    fiber = project_pi2(np.tile(np.log(base[0] / s.rho1), (5, 1)), np.tile(torus_t[0], (5, 1)))
    for row in fiber:
        w = CPnPoint(row, z.lam)
        assert np.array_equal(z.z, w.z)
        assert hn_distance(z, w) < 1e-12


def test_project_pi2_symmetric_base():
    z = project_pi2(np.log([0.4, 0.4, 0.4]), [0.1, 0.2])
    mags = np.abs(z)
    assert np.max(mags) - np.min(mags) < 1e-15


def test_project_pi2_domain_guard():
    with pytest.raises(ValueError, match="domain"):
        project_pi2(np.log([1.5, 0.1, 0.1]), [0.0, 0.0])


def test_project_pi2_radius_rounded_to_rho1_is_numerical():
    # a shape coordinate that rounded to exactly 1 is a rounding failure on a
    # valid level set, not a point outside the fibration domain
    with pytest.raises(ArithmeticError, match="pi2 modulus vanishes"):
        project_pi2(np.log([1.0, 1e-9, 1e-9]), [0.0, 0.0])


@pytest.mark.parametrize("row", [0, 3, 7])
@pytest.mark.parametrize("value,error", [(1.5, ValueError), (1.0, ArithmeticError)])
def test_project_pi2_guards_raise_from_one_offending_row(row, value, error):
    # the domain is checked once per stack: one offending row fails the call
    s = LevelSetSpec(2, 2.0, 0.6)
    base, _, torus_t = sample_arrays(s, 8, seed=5)
    u = np.log(base / s.rho1)
    project_pi2(u, torus_t)
    bad = u.copy()
    bad[row, 1] = math.log(value)
    with pytest.raises(error, match="log-shape"):
        project_pi2(bad, torus_t)


def _per_sample_pi1(n, r, s):
    # one sample at a time, with its own embedding matrix product
    f_theta = np.array(lattice_maps(n).dual_t, dtype=float)
    theta = np.mod(f_theta @ s, 1.0)
    return r * np.exp(2j * math.pi * theta)


def _per_sample_pi2(n, u, t):
    f_eta = np.array(lattice_maps(n).primal_t, dtype=float)
    eta = np.mod(f_eta @ t, 1.0)
    mod = np.sqrt(-u / (2.0 * PI**2))
    return mod * np.exp(-2j * math.pi * eta)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       shape=st.sampled_from([(), (1,), (7,), (2, 3), (3, 1, 2)]),
       log_rho1=st.floats(-3.0, 3.0), excess=st.floats(0.02, 0.3))
def test_stacked_projections_equal_per_sample_expression(n, seed, shape, log_rho1, excess):
    spec = LevelSetSpec(n, 10.0**log_rho1, feasibility_threshold(n) + excess)
    count = math.prod(shape)
    rng = np.random.default_rng(seed)
    base = sample_base(spec, count, seed).reshape(shape + (n + 1,))
    torus = rng.uniform(-2.0, 2.0, shape + (2, n))
    s, t = torus[..., 0, :], torus[..., 1, :]
    u = np.log(base / spec.rho1)
    z1 = project_pi1(base, s)
    z2 = project_pi2(u, t)
    assert z1.shape == z2.shape == shape + (n + 1,)
    flat = (base.reshape(count, n + 1), u.reshape(count, n + 1), s.reshape(count, n),
            t.reshape(count, n))
    want1 = np.array([_per_sample_pi1(n, r, a) for r, _, a, _ in zip(*flat)])
    want2 = np.array([_per_sample_pi2(n, x, b) for _, x, _, b in zip(*flat)])
    assert np.array_equal(z1.reshape(count, n + 1), want1.reshape(count, n + 1))
    assert np.array_equal(z2.reshape(count, n + 1), want2.reshape(count, n + 1))
    # the image residuals reduce over the last axis only
    res2 = pi2_image_residual(z2)
    assert res2.shape == shape
    assert np.array_equal(res2.reshape(count),
                          [pi2_image_residual(z) for z in z2.reshape(count, n + 1)])
    # the pi1 residual is a difference of two terms of size e^{-4 pi^2 rho2^2}
    # whose power the stacked call may round otherwise
    res1 = pi1_image_residual(z1, spec.rho2)
    assert res1.shape == shape
    one = [pi1_image_residual(z, spec.rho2) for z in z1.reshape(count, n + 1)]
    assert np.all(np.abs(res1.reshape(count) - one)
                  <= 1e-14 * math.exp(-4 * PI**2 * spec.rho2**2))


def test_embedded_angles_are_vertex_combinations():
    # theta = F_theta s with rows the primal vertices (2,-1), (-1,2), (-1,-1),
    # eta = F_eta t with rows the dual vertices; a stack gives each row's bits
    rows = np.array(lattice_maps(2).dual_t, dtype=float)
    assert np.array_equal(rows, [[2, -1], [-1, 2], [-1, -1]])
    assert np.array_equal(embedded_angles([0.25, 0.5], "theta"), rows @ [0.25, 0.5])
    assert not np.any(embedded_angles([0.0, 0.0], "eta"))
    torus = draw_torus(3, 7, seed=5)
    for block, cols, matrix in (("theta", slice(0, 3), "dual_t"), ("eta", slice(3, 6), "primal_t")):
        f = np.array(getattr(lattice_maps(3), matrix), dtype=float)
        stacked = embedded_angles(torus[:, cols], block)
        assert np.array_equal(stacked, [f @ x for x in torus[:, cols]])


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
        p = CPnPoint(z * math.sqrt(lam) / np.linalg.norm(z), lam)
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


def test_hn_distance_past_desk_scale_raises_before_enumerating():
    # the phase group has (n+1)^(n-1) elements, 4,782,969 at n = 8: the
    # quotient distance refuses n past 7 before building any of them
    for n in (8, 9):
        p, q = CPnPoint(np.eye(n + 1)[0], 1.0), CPnPoint(np.eye(n + 1)[1], 1.0)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=rf"enumerated for n in 1\.\.7 only, got n = {n}"):
            hn_distance(p, q)
        assert time.perf_counter() - start < 1.0


def test_distances_refuse_points_of_different_dimension():
    p, q = CPnPoint([1.0, 0.0], 1.0), CPnPoint([1.0, 0.0, 0.0], 1.0)
    for distance in (hn_distance, fubini_study_distance):
        with pytest.raises(ValueError, match="one dimension, got n = 1 and 2"):
            distance(p, q)


def test_complex_structure_properties():
    rng = np.random.default_rng(31)
    for _ in range(40):
        m = int(rng.integers(2, 5))
        r = np.exp(rng.uniform(-1, 1, m))
        lam1 = float(np.exp(rng.uniform(-1, 1)))
        lam2 = float(rng.uniform(0.3, 1.2))
        c = complex_structure_at(r, lam1, lam2)
        # J dr_i = c_i deta_i with c_i = omega(dr_i, J dr_i) / (2 pi r_i) > 0
        want = 8 * PI**3 * r * lam1**2 * lam2**2 * np.exp(-4 * PI**2 * lam2**2 * r**2)
        assert c.shape == r.shape and np.all(c > 0)
        assert np.max(np.abs(c / want - 1.0)) < 1e-14
        assert np.array_equal(complex_structure_at(np.tile(r, (2, 1)), lam1, lam2)[1], c)
    with pytest.raises(ValueError, match="singular"):
        complex_structure_at([1.0, 0.0], 1.0, 1.0)


def test_complex_structure_large_limit_trend():
    r = np.array([0.7, 1.1])
    lam2 = 0.8
    a = complex_structure_at(r, 1.0, lam2)
    b = complex_structure_at(r, 0.5, lam2)
    # divergent coefficient (deta -> -dr / c) grows like lam1^{-2}
    ratio = (1.0 / b[0]) / (1.0 / a[0])
    assert abs(ratio - 4.0) < 1e-12
    # n=1 read-off of the dr -> deta coefficient
    coef = a[0]
    want = 8 * PI**3 * 0.7 * 1.0 * lam2**2 * math.exp(-4 * PI**2 * lam2**2 * 0.49)
    assert abs(coef - want) < 1e-14 * abs(want)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_degenerate_metric_is_omega_of_j(n):
    # g = omega(., J.) with the chart form omega = 2 pi sum x_i dx_i^deta_i and
    # complex_structure_at's J: g(dx_i, dx_i) = 2 pi x_i c_i and
    # g(deta_i, deta_i) = 2 pi x_i / c_i on the chart (x, eta).  In the shape
    # s_i = e^{-2 pi^2 rho2^2 x_i^2} these are the two closed forms
    # metgeo.degenerate_limit reads: (rho1 / rho2)^2 ds_i^2 and
    # deta_i^2 / (4 pi^2 rho1^2 rho2^2 s_i^2)
    rng = np.random.default_rng(70 + n)
    x = np.exp(rng.uniform(-4.0, 0.5, (3, 8, n + 1)))
    rho1, rho2 = float(np.exp(rng.uniform(-7, 0))), float(rng.uniform(0.3, 1.2))
    c = complex_structure_at(x, rho1, rho2)
    s = np.exp(-2 * PI**2 * rho2**2 * x**2)
    ds_dx = -4 * PI**2 * rho2**2 * x * s
    radial = 2 * PI * x * c / ds_dx**2
    eta = 2 * PI * x / c
    assert np.max(np.abs(radial / (rho1 / rho2) ** 2 - 1.0)) < 1e-14
    assert np.max(np.abs(eta * 4 * PI**2 * rho1**2 * rho2**2 * s**2 - 1.0)) < 1e-14


def test_alpha_deform_rho_action():
    s = LevelSetSpec(2, 0.9, 0.65)
    for t in (0.25, 1.0, 3.0):
        s2 = alpha_deform(s, t)
        assert abs(s2.rho1 - t * s.rho1) < 1e-12 * max(1, t * s.rho1)
        assert abs(s2.rho2 - s.rho2) < 1e-12
        assert feasibility(s2) == feasibility(s)
    assert alpha_deform(s, 1.0) == s
    with pytest.raises(ValueError):
        alpha_deform(s, 0.0)
    with pytest.raises(ValueError):
        psi_pullback_residuals([1.0, 0.5, 0.7], -2.0)


def test_alpha_composition():
    s = LevelSetSpec(3, 1.0, 0.9)
    for t1, t2 in ((0.5, 3.0), (2.0, 2.0), (0.1, 0.7)):
        once = alpha_deform(alpha_deform(s, t1), t2)
        both = alpha_deform(s, t1 * t2)
        assert abs(once.k1 - both.k1) < 1e-12 * abs(both.k1)
        assert abs(once.k2 - both.k2) < 1e-12 * max(1, abs(both.k2))


def test_psi_moves_level_sets():
    # psi_t: r -> t r carries the level set of spec onto that of alpha_t(spec)
    s = LevelSetSpec(2, 1.0, 0.6)
    t = 1.7
    s2 = alpha_deform(s, t)
    mu1, mu2 = moment_map(t * sample_base(s, 10, seed=37))
    assert mu1.shape == (10,)
    assert np.all(np.abs(mu1 - s2.k1) < 1e-10 * abs(s2.k1))
    assert np.all(np.abs(mu2 - s2.k2) < 1e-10 * max(1, abs(s2.k2)))


def test_psi_pullback_residuals():
    r = np.array([[0.5, 1.5, 0.8], [3.0, 0.01, 2.0]])
    for t in (0.5, 2.0, 7.0):
        res = psi_pullback_residuals(r, t)
        assert all(v.shape == (2,) for v in res.values())
        assert max(float(np.max(v)) for v in res.values()) < 1e-12
    with pytest.raises(ValueError):
        psi_pullback_residuals(r, -1.0)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 4), data=st.data(), rho1=st.floats(0.05, 20.0),
       rho2=st.floats(0.1, 1.5), t=st.floats(0.01, 100.0))
def test_coefficient_rows_match_dense_reference(n, data, rho1, rho2, t):
    # phi^* and psi_t^* as jac^T T jac of dense matrices: the package's
    # coefficient rows are those matrices' entries bit for bit, and the
    # conjugated J2 within 16 ulps.  complex_structure_at takes one
    # exponential of x = 4 pi^2 rho2^2 r^2 where the chart squares one of
    # x / 2, and the rounding of x moves e^-x by |x| ulps: 16 + 2|x| ulps
    m = n + 1
    r = np.power(10.0, data.draw(st.lists(st.floats(-3.0, 0.3), min_size=m, max_size=m)))
    th, rr, et = np.arange(m), np.arange(m, 2 * m), np.arange(2 * m, 3 * m)

    image, jac = _phi_reference(r, rho1, rho2)
    want = dense_pullback(dense_tensors(image), jac)
    got = maps._phi_pullback(r, rho1, rho2)
    assert np.array_equal(got["omega1"], want["omega1"][rr, th])
    assert np.array_equal(got["omega2"], want["omega2"][rr, et])
    assert np.array_equal(got["metric"], np.diag(want["g"]))
    # J2: the image's compatible structure dr -> 2 pi r' deta on (dr, deta),
    # conjugated by the Jacobian's (r, eta) block
    j_img = np.zeros((2 * m, 2 * m))
    j_img[m + th, th], j_img[th, m + th] = 2 * PI * image, -1.0 / (2 * PI * image)
    d2 = np.diag(jac[m:])
    pulled_j = np.linalg.solve(d2, j_img @ d2)
    dense_j = np.concatenate([pulled_j[m + th, th], pulled_j[th, m + th]])
    np.testing.assert_array_max_ulp(got["J2"], dense_j, maxulp=16)
    c = complex_structure_at(r, rho1, rho2)
    ulps = 16 + 2 * np.tile(4 * PI**2 * rho2**2 * r**2, 2)
    assert np.all(np.abs(np.concatenate([c, -1.0 / c]) / dense_j - 1.0) <= ulps * 2.0**-52)

    ones = np.ones(m)
    want = dense_pullback(dense_tensors(t * r), np.concatenate([ones, t * ones, ones]))
    got = maps._psi_pullback(r, t)
    assert np.array_equal(got["omega1"], want["omega1"][rr, th])
    assert np.array_equal(got["omega2"], want["omega2"][rr, et])
    assert np.array_equal(got["omegaD"], want["omegaD"][th, et])


def test_pi1_equivariance():
    s = LevelSetSpec(2, 1.0, 0.55)
    (r,), (a,), _ = sample_arrays(s, 1, seed=41)
    rows = np.array(lattice_maps(2).dual_t, dtype=float)
    delta = np.array([0.21, 0.43])
    z = pi1_point(s, r, a)
    zs = pi1_point(s, r, a + delta)
    acted = CPnPoint(z.z * np.exp(2j * PI * (rows @ delta)), z.lam)
    assert fubini_study_distance(zs, acted) < 1e-8


def test_pi2_equivariance():
    s = LevelSetSpec(2, 1.0, 0.55)
    (r,), _, (b,) = sample_arrays(s, 1, seed=43)
    rows = np.array(lattice_maps(2).primal_t, dtype=float)
    delta = np.array([0.31, 0.11])
    z = pi2_point(s, r, b)
    zs = pi2_point(s, r, b + delta)
    acted = CPnPoint(z.z * np.exp(-2j * PI * (rows @ delta)), z.lam)
    assert hn_distance(zs, acted) < 1e-8

def _phase_group_moves(n, rho2=0.7, count=3, seed=7):
    """(hn, fs): the quotient and the projective distances between the pi2
    images of `count` sampled rows at rho2 and of the same rows with their
    torus coordinates moved by each delta in {0, 1/(n+1), .., n/(n+1)}^n,
    and whether that move is diagonal (every delta_i equal).

    F_eta delta = (delta, -sum delta) (its rows are the primal vertices), so
    modulo the diagonal circle and Z^{n+1} it is (delta + sum delta, 0): each
    entry a multiple of 1/(n+1), the numerators summing to (n+1) sum delta,
    0 mod n+1.  That is a row of the Greene-Plesser group, built here from
    the grid and not from metgeo._quotient_phases, and it is the circle
    itself only where delta is constant."""
    spec = LevelSetSpec(n, 1.0, rho2)
    r, _, t = sample_arrays(spec, count, seed)
    u = log_shape(r)
    z = project_pi2(u, t)
    hn, fs, diagonal = [], [], []
    for steps in np.ndindex(*(n + 1,) * n):
        moved = project_pi2(u, t + np.array(steps) / (n + 1))
        for a, b in zip(z, moved):
            p, q = CPnPoint(a, rho2**2), CPnPoint(b, rho2**2)
            hn.append(hn_distance(p, q))
            fs.append(fubini_study_distance(p, q))
            diagonal.append(len(set(steps)) == 1)
    return np.array(hn), np.array(fs), np.array(diagonal)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pi2_images_of_phase_group_moves_are_one_quotient_point(n):
    # gate 4 redraws the torus half a projection does not read, so it never
    # moves a point by the phase group; here every move of the group reaches
    # the quotient through project_pi2: hn_distance reads rounding level
    # (2.6e-15 at worst here), while the raw representatives stay apart off
    # the diagonal moves (0.25 and more) and meet on them, to arccos's
    # sqrt(eps) floor (1.5e-8 at worst)
    hn, fs, diagonal = _phase_group_moves(n)
    assert len(hn) == 3 * (n + 1) ** n and np.count_nonzero(diagonal) == 3 * (n + 1)
    assert np.max(hn) <= 1e-14
    assert np.min(fs[~diagonal]) >= 0.2
    assert np.max(fs[diagonal]) <= 1e-7


def test_phase_group_moves_fail_without_one_group_row(monkeypatch):
    # negative control: with one row dropped from the enumerated group, the
    # moves onto that row are no longer minimized out
    full = _quotient_phases(3)
    monkeypatch.setattr(metgeo, "_quotient_phases", lambda n: np.delete(full, 5, axis=0))
    hn, _, _ = _phase_group_moves(3)
    assert np.max(hn) >= 0.2
