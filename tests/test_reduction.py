import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wsdlab.ambient import AmbientPoint, feasibility_threshold, moment_map, section_point
from wsdlab.polytope import lattice_maps
from wsdlab.reduction import (
    LevelSetSpec,
    ReducedPoint,
    ambient_structure_at,
    feasibility,
    induced_structure_at,
    omega_d_degenerate_block,
    perturbed_structure,
    reduced_tangent_frame,
    sample_base,
    sample_points,
    verify_wsd_axioms,
)

PI = math.pi


def spec_rho(n, rho1, rho2):
    return LevelSetSpec.from_rho(n, rho1, rho2)


def test_spec_construction_and_properties():
    s = spec_rho(2, 1.3, 0.6)
    assert s.k1 < 0
    assert abs(s.rho1 - 1.3) < 1e-12
    assert abs(s.rho2 - 0.6) < 1e-12
    with pytest.raises(ValueError):
        LevelSetSpec(2, 1.0, 0.0)
    with pytest.raises(ValueError):
        LevelSetSpec(0, -1.0, 0.0)


@pytest.mark.parametrize("k1,k2", [(-1.0, math.nan), (-1.0, math.inf), (-1.0, -math.inf),
                                   (-math.inf, 0.0), (math.nan, 0.0)])
def test_spec_rejects_non_finite_levels(k1, k2):
    with pytest.raises(ValueError, match="finite"):
        LevelSetSpec(2, k1, k2)


def test_nan_rho2_is_not_classified():
    # nan compares false against the threshold, so it must never get that far
    with pytest.raises(ValueError, match="finite"):
        feasibility(LevelSetSpec.from_rho(2, 1.0, math.nan))


def test_feasibility_trichotomy():
    thr = feasibility_threshold(2)  # 0.288937, five-digit roundings land below it
    assert spec_rho(2, 1.0, thr).classification == "degenerate"
    assert spec_rho(2, 0.05, thr).classification == "degenerate"  # rho1-independent
    assert spec_rho(2, 1.0, 0.5).classification == "regular"
    assert spec_rho(2, 1.0, 0.1).classification == "empty"
    for n in (1, 2, 3, 4):
        t = feasibility_threshold(n)
        assert spec_rho(n, 2.0, t * 1.001).classification == "regular"
        assert spec_rho(n, 2.0, t * 0.999).classification == "empty"


def test_feasibility_k_coordinates():
    # same rule stated on (k1, k2): empty iff (-k1/pi) e^{4 pi k2/(n+1)} < n+1
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        k1 = -float(np.exp(rng.uniform(-3, 3)))
        k2 = float(rng.uniform(-2, 2))
        lhs = (-k1 / PI) * math.exp(4 * PI * k2 / (n + 1))
        got = feasibility(LevelSetSpec(n, k1, k2))
        if lhs < (n + 1) * (1 - 1e-9):
            assert got == "empty"
        elif lhs > (n + 1) * (1 + 1e-9):
            assert got == "regular"


def test_sample_base_constraints_bulk():
    s = spec_rho(3, 0.7, 0.9)
    pts = sample_base(s, 1000, seed=5)
    assert pts.shape == (1000, 4)
    ssq = np.sum(pts**2, axis=1)
    assert np.max(np.abs(ssq - s.rho1**2)) < 1e-10 * s.rho1**2
    logprod = np.sum(np.log(pts), axis=1)
    assert np.max(np.abs(logprod + 2 * PI * s.k2)) < 1e-10 * max(1.0, abs(2 * PI * s.k2))
    assert np.all(pts > 0)


def test_sample_base_determinism_and_stream_independence():
    s = spec_rho(2, 1.0, 0.6)
    a = sample_base(s, 8, seed=11)
    b = sample_base(s, 8, seed=11)
    assert np.array_equal(a, b)
    c = sample_base(s, 20, seed=11)
    assert np.array_equal(a, c[:8])  # per-index streams: prefix property
    d = sample_base(s, 8, seed=12)
    assert not np.array_equal(a, d)


def test_sample_base_scale_covariance():
    # same seed, rho1 doubled: shapes r/rho1 must match bitwise
    lo = spec_rho(2, 0.5, 0.6)
    hi = spec_rho(2, 1.0, 0.6)
    a = sample_base(lo, 12, seed=3) / lo.rho1
    b = sample_base(hi, 12, seed=3) / hi.rho1
    assert np.array_equal(a, b)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 6), data=st.data(), seed=st.integers(0, (1 << 31) - 1),
       rho1=st.floats(1e-3, 1e3), count=st.integers(1, 24))
def test_sample_base_properties(n, data, seed, rho1, count):
    rho2 = data.draw(st.floats(1.0001 * feasibility_threshold(n), 4.0))
    unit = spec_rho(n, 1.0, rho2)
    x = sample_base(unit, count, seed=seed)
    assert x.shape == (count, n + 1)
    assert np.all(np.isfinite(x)) and np.all(x > 0)
    # unit rho1: the rows are the shapes, on sum x^2 = 1 and sum log x = -2 pi k2
    assert np.max(np.abs(np.sum(x**2, axis=1) - 1.0)) <= 1e-12
    level = -2 * PI * unit.k2
    assert np.max(np.abs(np.sum(np.log(x), axis=1) - level)) <= 1e-12 * abs(level)
    head = data.draw(st.integers(1, count))
    assert np.array_equal(sample_base(unit, head, seed=seed), x[:head])
    # the shape depends on rho2 alone, which (k1, k2) carry exactly only sometimes
    scaled = spec_rho(n, rho1, rho2)
    assume(scaled.rho2 == unit.rho2)
    assert np.array_equal(sample_base(scaled, count, seed=seed), scaled.rho1 * x)


def test_sample_base_underflow_is_arithmetic_error():
    with pytest.raises(ArithmeticError, match="base radii underflow"):
        sample_base(spec_rho(2, 1.0, 30.0), 3)


def test_sample_base_n1_enumeration():
    s = spec_rho(1, 2.0, 0.8)
    pts = sample_base(s, 6, seed=0)
    assert pts.shape == (6, 2)
    # exactly two distinct solutions, swapped coordinates, cycled
    assert np.array_equal(pts[0], pts[2])
    assert np.array_equal(pts[1], [pts[0][1], pts[0][0]])
    assert abs(pts[0] @ pts[0] - s.rho1**2) < 1e-12 * s.rho1**2
    prod_target = math.exp(-2 * PI * s.k2)
    assert abs(pts[0][0] * pts[0][1] - prod_target) < 1e-12 * prod_target
    assert pts[0][0] != pts[0][1]


def test_sample_base_rejects_nonregular():
    with pytest.raises(ValueError, match="empty"):
        sample_base(spec_rho(2, 1.0, 0.1), 3)
    with pytest.raises(ValueError, match="degenerate"):
        sample_base(spec_rho(2, 1.0, feasibility_threshold(2)), 3)


def test_sample_base_threshold_concentration():
    thr2 = feasibility_threshold(2) ** 2
    dists = []
    for eps in (1e-4, 1e-6):
        s = spec_rho(2, 1.0, math.sqrt(thr2 + eps))
        pts = sample_base(s, 40, seed=2)
        center = s.rho1 / math.sqrt(3.0)
        assert np.max(np.abs(pts - center)) < 6.0 * math.sqrt(eps)
        diff = pts[:, None, :] - pts[None, :, :]
        dists.append(np.max(np.linalg.norm(diff, axis=-1)))
    # pairwise spread shrinks like sqrt(eps): factor 10 per 100x in eps
    ratio = dists[0] / dists[1]
    assert 4.0 < ratio < 25.0


def test_reduced_point_embedding():
    maps = lattice_maps(2)
    s = spec_rho(2, 1.0, 0.6)
    base = sample_base(s, 1, seed=0)[0]
    p = ReducedPoint(s, base, [0.25, 0.5], [0.0, 0.0])
    amb = p.ambient_point()
    # theta = F_theta s with rows the primal vertices (2,-1), (-1,2), (-1,-1)
    rows = np.array(maps.dual_t.matrix, dtype=float)
    want = np.mod(rows @ np.array([0.25, 0.5]), 1.0)
    assert np.allclose(amb.theta, want)
    assert np.allclose(amb.eta, 0.0)
    assert np.allclose(amb.r, base)


def test_sampled_points_hit_level_set():
    for n, rho2 in ((2, 0.5), (3, 0.8)):
        s = spec_rho(n, 1.1, rho2)
        for p in sample_points(s, 50, seed=9):
            r1, r2 = p.moment_residual()
            assert r1 < 1e-10
            assert r2 < 1e-10
            mu1, mu2 = moment_map(p.ambient_point())
            assert abs(mu1 - s.k1) < 1e-9 * abs(s.k1)
            assert abs(mu2 - s.k2) < 1e-9 * max(1.0, abs(s.k2))


def test_tangent_frame_shape_and_orthogonality():
    s = spec_rho(2, 1.0, 0.6)
    p = sample_points(s, 1, seed=4)[0]
    fr = reduced_tangent_frame(p, seed=0)
    assert fr.matrix.shape == (9, 5)  # 3(n-1)+2 = 5 tangent directions
    assert fr.rank == 1
    for key in ("orth_X2", "orth_Y2", "dmu1", "dmu2"):
        assert fr.residuals[key] < 1e-9


def test_tangent_frame_n1_degenerate_pair_only():
    s = spec_rho(1, 1.0, 0.7)
    p = sample_points(s, 1, seed=1)[0]
    fr = reduced_tangent_frame(p)
    assert fr.rank == 0
    assert fr.matrix.shape == (6, 2)
    assert np.allclose(fr.matrix[:, 0], fr.Z)
    assert np.allclose(fr.matrix[:, 1], fr.W)
    assert max(fr.residuals.values()) < 1e-12


def test_tangent_frame_near_degenerate_guard():
    s = spec_rho(2, 1.0, 0.6)
    r = s.rho1 / math.sqrt(3.0)
    p = ReducedPoint(s, [r, r, r], [0.0, 0.0], [0.0, 0.0])
    with pytest.raises(ArithmeticError, match="ill conditioned"):
        reduced_tangent_frame(p)


def test_induced_structure_blocks():
    s = spec_rho(2, 1.0, 0.55)
    p = sample_points(s, 1, seed=7)[0]
    st = induced_structure_at(p, seed=0)
    assert st.dim == 5 and st.rank == 1 and st.degenerate_dim == 2
    # omega1 on span(v, u1) is the unit pairing, omegaD pairs u1 with w2 and z with w
    assert abs(st.omega1[0, 1] - 1.0) < 1e-9
    assert abs(st.omegaD[1, 2] - 1.0) < 1e-9
    assert abs(st.omegaD[3, 4] - 1.0) < 1e-12
    assert abs(st.g[3, 3] - 1.0) < 1e-12  # z normalized
    rep = verify_wsd_axioms(st, tol=1e-8)
    assert rep.passed
    assert rep.kernel_dim == 2


def test_induced_structure_bulk_axioms():
    for n, rho2 in ((2, 0.5), (3, 0.75)):
        s = spec_rho(n, 1.0, rho2)
        worst = 0.0
        for p in sample_points(s, 25, seed=13):
            rep = verify_wsd_axioms(induced_structure_at(p), tol=1e-8)
            assert rep.passed, (n, rep.residuals)
            worst = max(worst, rep.worst[1])
        assert worst < 1e-8


def test_frame_seed_independence_of_restricted_forms():
    s = spec_rho(3, 1.0, 0.8)
    p = sample_points(s, 1, seed=21)[0]
    sa = induced_structure_at(p, seed=1)
    sb = induced_structure_at(p, seed=2)
    assert not np.allclose(sa.adapted_frame, sb.adapted_frame)  # different completions
    for name in ("g", "omega1", "omega2", "omegaD"):
        va = np.linalg.svd(getattr(sa, name), compute_uv=False)
        vb = np.linalg.svd(getattr(sb, name), compute_uv=False)
        assert np.max(np.abs(va - vb) / np.maximum(1.0, va)) < 1e-9


def test_ambient_structure_passes_axioms():
    rng = np.random.default_rng(17)
    for n in (1, 2, 3):
        for _ in range(20):
            r = np.exp(rng.uniform(-1.5, 1.5, n + 1))
            rep = verify_wsd_axioms(ambient_structure_at(section_point(n, r)), tol=1e-10)
            assert rep.passed
            assert rep.kernel_dim == 0
            assert rep.omega_d_restricted_conditioning > 0.9


def test_axiom_verifier_detects_corruption():
    s = spec_rho(2, 1.0, 0.6)
    p = sample_points(s, 1, seed=3)[0]
    st = induced_structure_at(p)
    bad = perturbed_structure(st, "omega1", 0, 1, 1e-3)
    rep = verify_wsd_axioms(bad, tol=1e-8)
    assert not rep.passed
    assert abs(rep.residuals["omega1_block"] - 1e-3) < 1e-6


def test_degenerate_block_hand_values():
    # base point r = (1, 2): A = 20 pi^2, B = 5/(16 pi^2), P = 6.25, s = 4
    s = spec_rho(1, 1.0, 0.7)
    p = ReducedPoint(s, [1.0, 2.0], [0.0], [0.0])
    blk = omega_d_degenerate_block(p)
    assert abs(blk.pairing + 0.72) < 1e-12
    assert abs(blk.pairing_closed + 0.72) < 1e-12
    assert abs(blk.pairing_quoted - 0.32) < 1e-12
    assert abs(blk.restricted_norm - 2.0 / 2.25) < 1e-12
    p_val = 6.25
    denom = 4.0 - p_val
    assert abs(blk.a_closed[0] - 2.0 / denom) < 1e-12
    assert abs(blk.a_closed[1] + (5.0 / (16 * PI**2)) / denom) < 1e-12
    assert abs(blk.a_closed[2] + 20.0 * PI**2 / denom) < 1e-12


def test_degenerate_block_code_path_agreement():
    rng = np.random.default_rng(29)
    for _ in range(60):
        n = int(rng.integers(1, 5))
        s = spec_rho(n, float(np.exp(rng.uniform(-1, 1))),
                     float(rng.uniform(1.2, 2.0)) * feasibility_threshold(n))
        r = np.exp(rng.uniform(-1.2, 1.2, n + 1))
        p = ReducedPoint(s, r, np.zeros(n), np.zeros(n))
        blk = omega_d_degenerate_block(p)
        scale = max(abs(blk.pairing), 1e-12)
        assert abs(blk.pairing - blk.pairing_closed) < 1e-10 * scale
        for a, b in zip(blk.a_solve, blk.a_closed):
            assert abs(a - b) < 1e-10 * max(abs(b), 1e-12)
        assert abs(blk.restricted_norm - blk.restricted_norm_closed) \
            < 1e-9 * abs(blk.restricted_norm_closed)
        assert blk.pairing < 0 < blk.pairing_quoted  # direct value sits on the other side
        m = n + 1
        aux_p = blk.norm2_Z * blk.norm2_W
        assert aux_p > 0


def test_degenerate_block_guard():
    s = spec_rho(2, 1.0, 0.6)
    p = ReducedPoint(s, [1.0, 1.0, 1.0], [0.0, 0.0], [0.0, 0.0])
    with pytest.raises(ArithmeticError):
        omega_d_degenerate_block(p)
