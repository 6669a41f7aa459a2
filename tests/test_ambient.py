import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from helpers import section_point
from wsdlab import ambient
from wsdlab.ambient import (
    TWO_PI,
    AmbientPoint,
    ambient_adapted_frame,
    ambient_tensors_at,
    closedness_residuals,
    convert_parameters,
    convert_parameters_inverse,
    exterior_derivative_residual,
    feasibility_threshold,
    frame_residuals,
    leaf_volume,
    moment_map,
    torus_metric_weights,
)
from wsdlab.cli import main

PI = math.pi


def random_radii(rng, n, lo=1e-3, hi=1e3):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), n + 1))


def test_ambient_point_normalization():
    p = AmbientPoint(1, [1.25, -0.5], [2.0, 3.0], [0.0, 2.0])
    assert np.allclose(p.theta, [0.25, 0.5])
    assert np.allclose(p.eta, [0.0, 0.0])
    assert p.dim == 6
    with pytest.raises(ValueError):
        AmbientPoint(1, [0, 0], [1.0, -1.0], [0, 0])
    with pytest.raises(ValueError):
        AmbientPoint(0, [0], [1.0], [0])


def test_moment_map_examples():
    mu1, mu2 = moment_map(section_point(1, [1.0, 1.0]))
    assert abs(mu1 + 2 * PI) < 1e-14
    assert abs(mu2) < 1e-14

    for r in (0.5, 1.0, 2.7):
        mu1, mu2 = moment_map(section_point(2, [r, r, r]))
        assert abs(mu1 + 3 * PI * r * r) < 1e-12 * max(1, r * r)
        assert abs(mu2 + 1.5 / PI * math.log(r)) < 1e-13

    mu1, mu2 = moment_map(section_point(2, [1.0, 2.0, 0.5]))
    assert abs(mu1 + 21 * PI / 4) < 1e-13
    assert abs(mu2) < 1e-14  # log2 + log(1/2) cancel exactly


def test_moment_map_wide_range_stability():
    # product of radii is 1 by construction, mu2 must come out near 0
    rng = np.random.default_rng(7)
    for _ in range(200):
        half = np.exp(rng.uniform(-6, 6, 4))
        r = np.concatenate([half, 1.0 / half[::-1]])
        _, mu2 = moment_map(section_point(7, r))
        assert abs(mu2) < 1e-12


def test_convert_parameters_guards_and_roundtrip():
    with pytest.raises(ValueError):
        convert_parameters(1, 1.0, 0.0)
    with pytest.raises(ValueError):
        convert_parameters(1, 0.0, 0.0)
    # -k1/pi < 1 and k2 very negative forces a negative radicand
    with pytest.raises(ValueError):
        convert_parameters(2, -0.1 * PI, -50.0)
    with pytest.raises(ValueError):
        convert_parameters_inverse(2, 0.0, 1.0)

    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 5))
        rho1 = float(np.exp(rng.uniform(-3, 3)))
        rho2 = float(np.exp(rng.uniform(-2, 1)))
        k1, k2 = convert_parameters_inverse(n, rho1, rho2)
        assert k1 < 0
        b1, b2 = convert_parameters(n, k1, k2)
        assert abs(b1 - rho1) < 1e-12 * rho1
        assert abs(b2 - rho2) < 1e-10 * max(rho2, 1.0)


def test_feasibility_threshold_against_root_solve():
    # independent characterization: exp(4 pi^2 x / (n+1)) = n+1 at x = rho2_min^2
    for n in range(1, 6):
        f = lambda x: math.exp(4 * PI * PI * x / (n + 1)) - (n + 1)
        x_star = brentq(f, 0.0 if n > 1 else -1.0, 10.0, xtol=1e-15)
        assert abs(feasibility_threshold(n) ** 2 - x_star) < 1e-12
    assert abs(feasibility_threshold(2) - 0.2889368) < 1e-6
    assert feasibility_threshold(1) > 0


def test_tensors_diagonal_example():
    t = ambient_tensors_at(section_point(1, [1.0, 1.0]))
    want = np.diag([4 * PI**2, 4 * PI**2, 1.0, 1.0, 1 / (4 * PI**2), 1 / (4 * PI**2)])
    assert np.max(np.abs(t.g - want)) < 1e-12
    # omega1 pairs dr_i with dtheta_i at weight 2 pi r_i
    assert abs(t.omega1[2, 0] - 2 * PI) < 1e-14
    assert abs(t.omega1[0, 2] + 2 * PI) < 1e-14
    assert abs(t.omega2[2, 4] - 1 / (2 * PI)) < 1e-14
    assert abs(t.omegaD[0, 4] - 1.0) < 1e-14


def test_torus_metric_weights_are_the_angle_blocks_of_g():
    rng = np.random.default_rng(59)
    for n in (1, 2, 3, 5):
        m = n + 1
        r = random_radii(rng, n, 1e-8, 1e8)
        theta_w, eta_w = torus_metric_weights(r)
        assert np.array_equal(theta_w, 4.0 * PI**2 * r**2)
        assert np.array_equal(eta_w, 1.0 / (4.0 * PI**2 * r**2))
        diag = np.diag(ambient_tensors_at(section_point(n, r)).g)
        assert np.array_equal(diag[:m], theta_w)
        assert np.array_equal(diag[2 * m:], eta_w)
        # any leading shape, row by row
        stacked = torus_metric_weights(np.tile(r, (2, 3, 1)))
        assert np.array_equal(stacked[0], np.tile(theta_w, (2, 3, 1)))
        assert np.array_equal(stacked[1], np.tile(eta_w, (2, 3, 1)))


def test_metric_positive_definite_bulk():
    rng = np.random.default_rng(23)
    for n in (1, 2, 3):
        for _ in range(340):
            p = section_point(n, random_radii(rng, n))
            t = ambient_tensors_at(p)
            np.linalg.cholesky(t.g)  # raises if not SPD
            for mat in (t.omega1, t.omega2, t.omegaD):
                assert np.max(np.abs(mat + mat.T)) == 0.0


def test_adapted_frame_bulk():
    rng = np.random.default_rng(31)
    for n in (1, 2, 3):
        worst = 0.0
        for _ in range(340):
            p = AmbientPoint(n, rng.uniform(0, 1, n + 1), random_radii(rng, n),
                             rng.uniform(0, 1, n + 1))
            rep = ambient_adapted_frame(p, tol=1e-10)
            worst = max(worst, rep.max_residual)
        assert worst < 1e-10


def test_frame_residuals_flag_corruption():
    p = section_point(2, [1.0, 2.0, 0.5])
    rep = ambient_adapted_frame(p)
    bad = rep.frame.copy()
    bad[:, 0] *= 1.01
    resid = frame_residuals(ambient_tensors_at(p), bad, 3)
    assert resid["gram_orthonormal"] > 1e-3
    with pytest.raises(ArithmeticError, match="entry"):
        ambient_adapted_frame(p, tol=-1.0)


def test_leaf_volume_exact_and_bulk():
    assert leaf_volume([1.0, 1.0]) == 1.0
    assert abs(leaf_volume([3.0, 0.01, 17.0]) - 1.0) < 1e-14
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(10_000):
        n = int(rng.integers(1, 4))
        v = leaf_volume(random_radii(rng, n))
        worst = max(worst, abs(v - 1.0))
    assert worst < 1e-10


def test_exterior_derivative_package_forms():
    p = section_point(2, [1.0, 1.0, 1.0])
    assert exterior_derivative_residual("omegaD", p) == 0.0
    assert exterior_derivative_residual("omega1", p, h=1e-4) < 1e-7
    assert exterior_derivative_residual("omega2", p, h=1e-4) < 1e-7
    q = section_point(1, [0.37, 2.1])
    assert exterior_derivative_residual("omega1", q) < 1e-9
    with pytest.raises(ValueError):
        exterior_derivative_residual("omega3", p)
    with pytest.raises(ValueError):
        exterior_derivative_residual("omega1", p, h=0.0)


def _closed_synthetic(p):
    # d(sin(r_0 r_1) dtheta_0): coefficients vary along both r axes, so the
    # finite-difference residual sees genuine third-derivative truncation
    dim = p.dim
    m = p.n + 1
    w = np.zeros((dim, dim))
    r0, r1 = p.r[0], p.r[1]
    c = math.cos(r0 * r1)
    w[m + 0, 0] = r1 * c
    w[0, m + 0] = -r1 * c
    w[m + 1, 0] = r0 * c
    w[0, m + 1] = -r0 * c
    return w


def _nonclosed_synthetic(p):
    dim = p.dim
    m = p.n + 1
    w = np.zeros((dim, dim))
    s = math.sin(p.r[0] + 2.0 * p.r[1])
    w[0, 1] = s
    w[1, 0] = -s
    return w


def test_exterior_derivative_order_of_accuracy():
    p = section_point(1, [1.0, 2.0])
    r_coarse = exterior_derivative_residual(_closed_synthetic, p, h=2e-3)
    r_fine = exterior_derivative_residual(_closed_synthetic, p, h=1e-3)
    assert r_coarse > 1e-9  # truncation is visible, not identically zero
    assert 3.5 < r_coarse / r_fine < 4.5  # central differences halve -> /4

    # analytic truncation constant: residual ~ (h^2/6) |d3_r0(r0 c) - d3_r1(r1 c)|
    r0, r1 = 1.0, 2.0
    c, s = math.cos(r0 * r1), math.sin(r0 * r1)
    third = abs((-3 * r1**2 * c + r0 * r1**3 * s) - (-3 * r0**2 * c + r1 * r0**3 * s))
    h = 1e-3
    assert abs(r_fine - h * h / 6 * third) < 0.05 * h * h / 6 * third


def test_exterior_derivative_detects_nonclosed():
    p = section_point(1, [1.0, 2.0])
    got = exterior_derivative_residual(_nonclosed_synthetic, p, h=1e-5)
    want = 2.0 * abs(math.cos(1.0 + 4.0))
    assert abs(got - want) < 1e-6
    assert got > 0.5


def test_exterior_derivative_step_warning():
    p = section_point(1, [0.01, 5.0])
    with pytest.warns(UserWarning, match="step"):
        exterior_derivative_residual("omegaD", p, h=0.005)


def _dense_synthetic(p):
    # every coefficient varies along every r axis, so for n >= 2 the three
    # terms of a cyclic sum over r axes are all nonzero and their order of
    # addition shows in the rounding
    dim = p.dim
    s = 0.37 * float(p.r @ np.arange(1.0, p.n + 2.0))
    k = np.arange(dim)
    w = np.sin(np.add.outer(k + 1.0, 2.0 * k) * s)
    return w - w.T


def _looped_residual(form, p, h):
    """Reference: one AmbientPoint per shifted axis, then the scalar triple fold."""
    fn = form if callable(form) else (lambda q: getattr(ambient_tensors_at(q), form))
    m, dim = p.n + 1, p.dim
    grad = np.empty((dim, dim, dim))
    for a in range(dim):
        shifted = []
        for delta in (h, -h):
            arrays = [p.theta.copy(), p.r.copy(), p.eta.copy()]
            arrays[a // m][a % m] += delta
            shifted.append(fn(AmbientPoint(p.n, *arrays)))
        grad[a] = (shifted[0] - shifted[1]) / (2.0 * h)
    worst = 0.0
    for a in range(dim):
        for b in range(a + 1, dim):
            for c in range(b + 1, dim):
                t = grad[a][b, c] + grad[b][c, a] + grad[c][a, b]
                worst = max(worst, abs(t))
    return worst


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 5), data=st.data(),
       form=st.sampled_from(["omega1", "omega2", "omegaD", _closed_synthetic,
                             _dense_synthetic]),
       step=st.one_of(st.none(), st.floats(1e-8, 0.05)))
def test_exterior_derivative_matches_looped_reference_bitwise(n, data, form, step):
    log_r = data.draw(st.lists(st.floats(-4.0, 4.0), min_size=n + 1, max_size=n + 1))
    angles = st.lists(st.floats(0.0, 1.0), min_size=n + 1, max_size=n + 1)
    p = AmbientPoint(n, data.draw(angles), np.power(10.0, log_r), data.draw(angles))
    if step is None:  # the default step
        got, h = exterior_derivative_residual(form, p), 1e-5 * min(1.0, float(np.min(p.r)))
    else:
        h = step * float(np.min(p.r))
        got = exterior_derivative_residual(form, p, h)
    assert got == _looped_residual(form, p, h)


@pytest.mark.parametrize("form", ["omega1", _closed_synthetic])
@pytest.mark.parametrize("factor", [1.0, 3.0])
def test_exterior_derivative_step_past_min_radius_raises(form, factor):
    p = section_point(2, [0.02, 1.0, 40.0])
    with pytest.warns(UserWarning, match="step"), \
            pytest.raises(ValueError, match="strictly positive"):
        exterior_derivative_residual(form, p, h=factor * 0.02)


def test_exterior_derivative_non_finite_is_not_closed():
    p = section_point(1, [1.0, 2.0])
    got = exterior_derivative_residual(lambda q: np.full((q.dim, q.dim), np.nan), p)
    assert not math.isfinite(got)


_PACKAGE_FORM_STACK = ambient._form_stack


def nonclosed_form_stack(form, r):
    """The package forms, except omega1 with coefficient 2 pi r_i r_{i+1}: its
    derivative along r_{i+1} leaves the cyclic sum over (theta_i, r_i, r_{i+1})
    at -2 pi r_i, so d omega1 != 0."""
    w = _PACKAGE_FORM_STACK(form, r)
    if form == "omega1":
        m = r.shape[-1]
        th, rr = np.arange(m), np.arange(m, 2 * m)
        coeff = TWO_PI * r * np.roll(r, -1, axis=-1)
        w[..., rr, th] = coeff
        w[..., th, rr] = -coeff
    return w


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), data=st.data(),
       count=st.sampled_from([1, ambient._FD_BLOCK, ambient._FD_BLOCK + 1]),
       form=st.sampled_from(["omega1", "omega2", "omegaD"]),
       closed=st.booleans())
def test_closedness_rows_equal_single_point_calls(n, data, count, form, closed):
    # the package forms give 0.0 on every row, so the non-closed omega1 is
    # what makes the residuals differ between rows and slabs
    log_r = st.lists(st.floats(-150.0, 3.0), min_size=n + 1, max_size=n + 1)
    r = np.power(10.0, [data.draw(log_r) for _ in range(count)])
    with pytest.MonkeyPatch.context() as mp:
        if not closed:
            mp.setattr(ambient, "_form_stack", nonclosed_form_stack)
        got = closedness_residuals(form, r)
        want = [exterior_derivative_residual(form, section_point(n, row)) for row in r]
    assert got.shape == (count,) and got.tolist() == want
    assert np.max(got) == max(want)
    vol = leaf_volume(r)
    vol_want = [float(leaf_volume(row)) for row in r]
    assert vol.shape == (count,) and vol.tolist() == vol_want
    assert np.max(np.abs(vol - 1.0)) == max(abs(v - 1.0) for v in vol_want)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_closedness_kernel_flags_nonclosed_form(monkeypatch, n):
    r = random_radii(np.random.default_rng(n), n, lo=0.1, hi=2.0)
    assert closedness_residuals("omega1", r[None])[0] == 0.0
    monkeypatch.setattr(ambient, "_form_stack", nonclosed_form_stack)
    got = closedness_residuals("omega1", r[None])[0]
    # the cyclic sum over (theta_i, r_i, r_{i+1}) is -2 pi r_i, exactly up
    # to rounding, since the coefficient is linear in r_{i+1}
    assert got > TWO_PI * float(np.max(r)) * (1 - 1e-6)
    assert closedness_residuals("omega2", r[None])[0] == 0.0


@pytest.mark.parametrize("rho2", ["0.5", "2.5"])
@pytest.mark.parametrize("n", ["2", "3"])
def test_verify_exterior_derivative_fails_on_nonclosed_form(monkeypatch, capsys, n, rho2):
    argv = ["verify", "--n", n, "--rho2", rho2, "--samples", "20"]
    checks = []
    for mutant in (False, True):
        if mutant:
            monkeypatch.setattr(ambient, "_form_stack", nonclosed_form_stack)
        rc = main(argv)
        checks.append({c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]})
    clean, bad = checks
    assert rc == 1
    assert clean["exterior_derivative"]["pass"] is True
    assert bad["exterior_derivative"]["pass"] is False
    # Sum r_i^2 = rho1^2 on the level set, so some radius is >= rho1/sqrt(n+1)
    # and its cyclic sum 2 pi r_i is far past the tolerance at every depth
    assert bad["exterior_derivative"]["max_residual"] > TWO_PI / math.sqrt(int(n) + 1) - 1e-9
    # no other check reads the forms the mutant changed
    assert {k: v for k, v in bad.items() if k != "exterior_derivative"} == \
        {k: v for k, v in clean.items() if k != "exterior_derivative"}


def test_closedness_residuals_validate_like_the_point_call():
    r = np.array([[0.02, 1.0, 40.0], [1.0, 1.0, 1.0]])
    with pytest.raises(ValueError, match="unknown form"):
        closedness_residuals("omega3", r)
    with pytest.raises(ValueError, match="positive"):
        closedness_residuals("omega1", r, h=0.0)
    with pytest.warns(UserWarning, match="step"), \
            pytest.raises(ValueError, match="strictly positive"):
        closedness_residuals("omega1", r, h=0.02)
    assert closedness_residuals("omegaD", np.empty((0, 3))).shape == (0,)
