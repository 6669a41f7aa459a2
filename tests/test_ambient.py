import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from helpers import dense_tensors
from wsdlab import ambient
from wsdlab.ambient import (
    adapted_frame_check,
    closedness_residuals,
    form_coefficients,
    leaf_volume,
    moment_map,
    torus_metric_weights,
)
from wsdlab.params import (TWO_PI, convert_parameters, convert_parameters_inverse,
                           feasibility_threshold)

PI = math.pi


def random_radii(rng, n, lo=1e-3, hi=1e3):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), n + 1))


def test_moment_map_examples():
    mu1, mu2 = moment_map([1.0, 1.0])
    assert mu1.shape == mu2.shape == ()
    assert abs(mu1 + 2 * PI) < 1e-14
    assert abs(mu2) < 1e-14

    rs = (0.5, 1.0, 2.7)
    mu1, mu2 = moment_map(np.repeat(np.array(rs)[:, None], 3, axis=1))
    for r, a, b in zip(rs, mu1, mu2):
        assert abs(a + 3 * PI * r * r) < 1e-12 * max(1, r * r)
        assert abs(b + 1.5 / PI * math.log(r)) < 1e-13

    mu1, mu2 = moment_map([1.0, 2.0, 0.5])
    assert abs(mu1 + 21 * PI / 4) < 1e-13
    assert abs(mu2) < 1e-14  # log2 + log(1/2) cancel exactly
    assert [a.shape for a in moment_map(np.ones((2, 5, 3)))] == [(2, 5), (2, 5)]


def test_moment_map_wide_range_stability():
    # product of radii is 1 by construction, mu2 must come out near 0
    rng = np.random.default_rng(7)
    half = np.exp(rng.uniform(-6, 6, (200, 4)))
    _, mu2 = moment_map(np.concatenate([half, 1.0 / half[:, ::-1]], axis=1))
    assert mu2.shape == (200,)
    assert np.max(np.abs(mu2)) < 1e-12


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
    r = np.array([1.0, 1.0])
    theta_w, eta_w = torus_metric_weights(r)
    assert np.max(np.abs(theta_w - 4 * PI**2)) < 1e-12
    assert np.max(np.abs(eta_w - 1 / (4 * PI**2))) < 1e-12
    # omega1 pairs dr_i with dtheta_i at weight 2 pi r_i
    assert np.max(np.abs(form_coefficients("omega1", r) - 2 * PI)) < 1e-14
    assert np.max(np.abs(form_coefficients("omega2", r) - 1 / (2 * PI))) < 1e-14
    assert np.array_equal(form_coefficients("omegaD", r), [1.0, 1.0])
    # the closedness stencil's dense matrices put each row on its block pair
    ref = dense_tensors([0.3, 2.0, 7.0])
    for form in ("omega1", "omega2", "omegaD"):
        assert np.array_equal(ambient._form_stack(form, np.array([0.3, 2.0, 7.0])), ref[form])


def test_torus_metric_weights_are_the_angle_blocks_of_g():
    rng = np.random.default_rng(59)
    for n in (1, 2, 3, 5):
        m = n + 1
        r = random_radii(rng, n, 1e-8, 1e8)
        theta_w, eta_w = torus_metric_weights(r)
        assert np.array_equal(theta_w, 4.0 * PI**2 * r**2)
        assert np.array_equal(eta_w, 1.0 / (4.0 * PI**2 * r**2))
        diag = np.diag(dense_tensors(r)["g"])
        assert np.array_equal(diag[:m], theta_w)
        assert np.array_equal(diag[2 * m:], eta_w)
        # any leading shape, row by row
        stacked = torus_metric_weights(np.tile(r, (2, 3, 1)))
        assert np.array_equal(stacked[0], np.tile(theta_w, (2, 3, 1)))
        assert np.array_equal(stacked[1], np.tile(eta_w, (2, 3, 1)))


@pytest.mark.parametrize("over", ["ignore", "raise"])
def test_torus_metric_weights_name_the_radius_squared_overflow(over):
    # 4 pi^2 r^2 stays finite up to r ~ 2.13e153; past it the weights raise a
    # named error whatever the floating-point error state
    with np.errstate(over=over):
        theta_w, _ = torus_metric_weights(np.array([1.0, 2e153]))
        assert np.isfinite(theta_w[1])
        with pytest.raises(ArithmeticError, match=r"^radius squared overflow at r = 3\.000e\+153: "
                           r".*rho1 is too large for the torus metric$"):
            torus_metric_weights(np.array([1.0, 3e153]))


def test_metric_positive_definite_bulk():
    # the metric is diagonal with 1 on dr^2, so it is positive definite where
    # both angle-block rows are positive and finite; the forms' matrices are
    # exactly antisymmetric
    rng = np.random.default_rng(23)
    for n in (1, 2, 3):
        r = np.array([random_radii(rng, n) for _ in range(340)])
        for w in torus_metric_weights(r):
            assert np.all(np.isfinite(w)) and np.all(w > 0)
        for form in ("omega1", "omega2", "omegaD"):
            mat = ambient._form_stack(form, r)
            assert np.max(np.abs(mat + np.swapaxes(mat, -1, -2))) == 0.0


def test_adapted_frame_bulk():
    rng = np.random.default_rng(31)
    for n in (1, 2, 3):
        r = np.array([random_radii(rng, n) for _ in range(340)])
        got = adapted_frame_check(r)
        assert all(v.shape == (340,) for v in got.values())
        assert max(float(np.max(v)) for v in got.values()) < 1e-10


def test_adapted_frame_flags_corruption(monkeypatch):
    # y1_0 scaled by 1.01: its norm^2 is off by 1.01^2 - 1, its omega1 and
    # omegaD pairings by 0.01, and omega2 does not read y1
    r = np.array([[1.0, 2.0, 0.5], [0.3, 0.3, 4.0]])
    x, y1, y2 = ambient._adapted_frame(r)
    monkeypatch.setattr(ambient, "_adapted_frame", lambda r: (x, y1 * [1.01, 1.0, 1.0], y2))
    got = adapted_frame_check(r)
    assert np.allclose(got["gram_orthonormal"], 0.0201, rtol=1e-12)
    assert np.allclose(got["omega1_block"], 0.01, rtol=1e-12)
    assert np.allclose(got["omegaD_block"], 0.01, rtol=1e-12)
    assert np.all(got["omega2_block"] < 1e-15)


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


def _residual(form, r, h) -> float:
    """closedness_residuals at one radius row."""
    return float(closedness_residuals(form, np.asarray(r, dtype=float)[None], h)[0])


def test_exterior_derivative_package_forms():
    r = [1.0, 1.0, 1.0]
    assert _residual("omegaD", r, h=1e-5) == 0.0
    assert _residual("omega1", r, h=1e-4) < 1e-7
    assert _residual("omega2", r, h=1e-4) < 1e-7
    assert _residual("omega1", [0.37, 2.1], h=3.7e-6) < 1e-9
    with pytest.raises(ValueError):
        _residual("omega3", r, h=1e-5)
    with pytest.raises(ValueError):
        _residual("omega1", r, h=0.0)


def _closed_synthetic(r):
    # d(sin(r_0 r_1) dtheta_0): coefficients vary along both r axes, so the
    # finite-difference residual sees genuine third-derivative truncation
    m = r.shape[-1]
    w = np.zeros((len(r), 3 * m, 3 * m))
    r0, r1 = r[:, 0], r[:, 1]
    c = np.cos(r0 * r1)
    w[:, m + 0, 0] = r1 * c
    w[:, 0, m + 0] = -r1 * c
    w[:, m + 1, 0] = r0 * c
    w[:, 0, m + 1] = -r0 * c
    return w


def _nonclosed_synthetic(r):
    m = r.shape[-1]
    w = np.zeros((len(r), 3 * m, 3 * m))
    s = np.sin(r[:, 0] + 2.0 * r[:, 1])
    w[:, 0, 1] = s
    w[:, 1, 0] = -s
    return w


def test_exterior_derivative_order_of_accuracy():
    r_coarse = _residual(_closed_synthetic, [1.0, 2.0], h=2e-3)
    r_fine = _residual(_closed_synthetic, [1.0, 2.0], h=1e-3)
    assert r_coarse > 1e-9  # truncation is visible, not identically zero
    assert 3.5 < r_coarse / r_fine < 4.5  # central differences halve -> /4

    # analytic truncation constant: residual ~ (h^2/6) |d3_r0(r0 c) - d3_r1(r1 c)|
    r0, r1 = 1.0, 2.0
    c, s = math.cos(r0 * r1), math.sin(r0 * r1)
    third = abs((-3 * r1**2 * c + r0 * r1**3 * s) - (-3 * r0**2 * c + r1 * r0**3 * s))
    h = 1e-3
    assert abs(r_fine - h * h / 6 * third) < 0.05 * h * h / 6 * third


def test_exterior_derivative_detects_nonclosed():
    got = _residual(_nonclosed_synthetic, [1.0, 2.0], h=1e-5)
    want = 2.0 * abs(math.cos(1.0 + 4.0))
    assert abs(got - want) < 1e-6
    assert got > 0.5


def test_exterior_derivative_step_warning():
    with pytest.warns(UserWarning, match="step"):
        _residual("omegaD", [0.01, 5.0], h=0.005)


def _dense_synthetic(r):
    # every coefficient varies along every r axis, so for n >= 2 the three
    # terms of a cyclic sum over r axes are all nonzero and their order of
    # addition shows in the rounding
    m = r.shape[-1]
    s = 0.37 * np.sum(r * np.arange(1.0, m + 1.0), axis=-1)
    k = np.arange(3 * m)
    w = np.sin(np.add.outer(k + 1.0, 2.0 * k) * s[:, None, None])
    return w - np.swapaxes(w, 1, 2)


def _looped_residual(form, point, h):
    """Reference: the form at the point shifted along each of the 3m axes,
    angles included, then the scalar triple fold."""
    theta, r, eta = point
    m, dim = r.size, 3 * r.size
    grad = np.empty((dim, dim, dim))
    for a in range(dim):
        shifted = []
        for delta in (h, -h):
            coords = [theta.copy(), r.copy(), eta.copy()]
            coords[a // m][a % m] += delta
            # the forms read the radii alone
            shifted.append(form(coords[1][None])[0] if callable(form)
                           else dense_tensors(coords[1])[form])
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
    point = (np.array(data.draw(angles)), np.power(10.0, log_r), np.array(data.draw(angles)))
    r = point[1]
    if step is None:  # 1e-5 * min(1, min r): small against every radius
        h = 1e-5 * min(1.0, float(np.min(r)))
    else:
        h = step * float(np.min(r))
    assert _residual(form, r, h) == _looped_residual(form, point, h)


@pytest.mark.parametrize("form", ["omega1", _closed_synthetic])
@pytest.mark.parametrize("factor", [1.0, 3.0])
def test_exterior_derivative_step_past_min_radius_raises(form, factor):
    with pytest.warns(UserWarning, match="step"), \
            pytest.raises(ValueError, match="strictly positive"):
        _residual(form, [0.02, 1.0, 40.0], h=factor * 0.02)


def test_exterior_derivative_non_finite_is_not_closed():
    got = _residual(lambda r: np.full((len(r), 6, 6), np.nan), [1.0, 2.0], h=1e-5)
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
       count=st.sampled_from([1, 2, 12, 33]),
       form=st.sampled_from(["omega1", "omega2", "omegaD"]),
       closed=st.booleans())
def test_closedness_rows_equal_single_point_calls(n, data, count, form, closed):
    # the package forms give 0.0 on every row, so the non-closed omega1 is
    # what makes the residuals differ between rows; the rows lie
    # within two decades of one scale, so the one step suits every row
    scale = data.draw(st.floats(-150.0, 1.0))
    log_r = st.lists(st.floats(scale, scale + 2.0), min_size=n + 1, max_size=n + 1)
    r = np.power(10.0, [data.draw(log_r) for _ in range(count)])
    with pytest.MonkeyPatch.context() as mp:
        if not closed:
            mp.setattr(ambient, "_form_stack", nonclosed_form_stack)
        h = 1e-5 * min(1.0, float(np.min(r)))
        got = closedness_residuals(form, r, h)
        want = [_residual(form, row, h) for row in r]
    assert got.shape == (count,) and got.tolist() == want
    assert np.max(got) == max(want)
    vol = leaf_volume(r)
    vol_want = [float(leaf_volume(row)) for row in r]
    assert vol.shape == (count,) and vol.tolist() == vol_want
    assert np.max(np.abs(vol - 1.0)) == max(abs(v - 1.0) for v in vol_want)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_closedness_kernel_flags_nonclosed_form(monkeypatch, n):
    r = random_radii(np.random.default_rng(n), n, lo=0.1, hi=2.0)
    assert closedness_residuals("omega1", r[None], h=1e-6)[0] == 0.0
    monkeypatch.setattr(ambient, "_form_stack", nonclosed_form_stack)
    got = closedness_residuals("omega1", r[None], h=1e-6)[0]
    # the cyclic sum over (theta_i, r_i, r_{i+1}) is -2 pi r_i, exactly up
    # to rounding, since the coefficient is linear in r_{i+1}
    assert got > TWO_PI * float(np.max(r)) * (1 - 1e-6)
    assert closedness_residuals("omega2", r[None], h=1e-6)[0] == 0.0


def test_closedness_residuals_validate_like_the_point_call():
    r = np.array([[0.02, 1.0, 40.0], [1.0, 1.0, 1.0]])
    with pytest.raises(ValueError, match="unknown form"):
        closedness_residuals("omega3", r, h=1e-5)
    with pytest.raises(ValueError, match="positive"):
        closedness_residuals("omega1", r, h=0.0)
    with pytest.warns(UserWarning, match="step"), \
            pytest.raises(ValueError, match="strictly positive"):
        closedness_residuals("omega1", r, h=0.02)
    assert closedness_residuals("omegaD", np.empty((0, 3)), h=1e-5).shape == (0,)
