"""Release acceptance suite: eight gates, one test per gate.

Each test prints a single "[criterion N] ... PASS/FAIL" line (run pytest with
-s to see the lines for passing gates; failing gates show theirs in the
captured output).  Budgets are asserted with wall-clock checks.

Gate 3 checks the degenerate pairing against its closed form
(n+1)(s - P)/P, with s = (n+1)^2 and P = |X1|^2 |X2|^2, and the quoted
reference (n+1)/P is kept in `pairing_quoted` (see the README).
"""

import csv
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from wsdlab import cli
from wsdlab import metgeo as mg
from wsdlab.ambient import (AmbientPoint, ambient_adapted_frame,
                            exterior_derivative_residual, leaf_volume)
from wsdlab.maps import (alpha_deform, phi_pullback_check, pi1_image_residual,
                         pi2_image_residual, project_pi1, project_pi2,
                         psi_pullback_residuals)
from wsdlab.metgeo import fubini_study_distance, hn_distance
from wsdlab.polytope import has_property_sd, simplex_pair, verify_duality_identities
from wsdlab.reduction import (LevelSetSpec, induced_structure_at,
                              omega_d_degenerate_block, sample_points,
                              verify_wsd_axioms)


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)


def _random_ambient(n: int, count: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(count):
        r = np.exp(rng.uniform(math.log(0.3), math.log(3.0), n + 1))
        pts.append(AmbientPoint(n, rng.uniform(0, 1, n + 1), r,
                                rng.uniform(0, 1, n + 1)))
    return pts


def test_criterion_1_polytope_identities():
    t0 = time.perf_counter()
    bad = []
    for n in range(1, 7):
        rep = verify_duality_identities(n)
        sd = has_property_sd(simplex_pair(n)[0])
        if not (rep.passed and sd.holds):
            bad.append(n)
    dt = time.perf_counter() - t0
    _report(1, "integer duality identities, n = 1..6", not bad and dt < 1.0,
            f"{dt:.2f}s")
    assert not bad, f"identity failures at n = {bad}"
    assert dt < 1.0, f"budget 1 s exceeded: {dt:.2f}s"


def _closed_synthetic(p):
    # d(sin(r_0 r_1) dtheta_0) = 0, but the coefficients vary along both r
    # axes, so the finite-difference residual carries genuine truncation
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


def test_criterion_2_ambient_leaf_frame_closedness():
    t0 = time.perf_counter()
    worst_leaf = 0.0
    worst_frame = 0.0
    for n in (1, 2, 3):
        for p in _random_ambient(n, 1000, seed=40 + n):
            worst_leaf = max(worst_leaf, abs(leaf_volume(p) - 1.0))
        for p in _random_ambient(n, 40, seed=50 + n):
            worst_frame = max(worst_frame, ambient_adapted_frame(p).max_residual)

    worst_fd = 0.0
    for n in (1, 2, 3):
        for p in _random_ambient(n, 12, seed=60 + n):
            for form in ("omega1", "omega2", "omegaD"):
                worst_fd = max(worst_fd, exterior_derivative_residual(form, p, h=1e-5))

    q = _random_ambient(2, 1, seed=71)[0]
    r_coarse = exterior_derivative_residual(_closed_synthetic, q, h=2e-3)
    r_fine = exterior_derivative_residual(_closed_synthetic, q, h=1e-3)
    order_ok = r_coarse > 1e-9 and 3.5 < r_coarse / r_fine < 4.5

    dt = time.perf_counter() - t0
    ok = worst_leaf < 1e-10 and worst_frame < 1e-10 and worst_fd < 1e-6 \
        and order_ok and dt < 10.0
    _report(2, "ambient leaf volume, adapted frame, closedness", ok,
            f"leaf {worst_leaf:.1e}, frame {worst_frame:.1e}, "
            f"d-residual {worst_fd:.1e}, halving ratio {r_coarse / r_fine:.2f}, {dt:.1f}s")
    assert worst_leaf < 1e-10
    assert worst_frame < 1e-10
    assert worst_fd < 1e-6
    assert order_ok, f"halving ratio {r_coarse / r_fine:.3f} outside (3.5, 4.5)"
    assert dt < 10.0, f"budget 10 s exceeded: {dt:.1f}s"


def test_criterion_3_wsd_axioms_and_degenerate_block():
    t0 = time.perf_counter()
    worst_ax = 0.0
    worst_aij = 0.0
    worst_rem = 0.0
    worst_pair = 0.0
    all_passed = True
    for n in (2, 3):
        m = n + 1
        spec = LevelSetSpec.from_rho(n, 1.0, 0.5)
        for i, p in enumerate(sample_points(spec, 100, seed=9 + n)):
            rep = verify_wsd_axioms(induced_structure_at(p, seed=i), tol=1e-8)
            all_passed &= rep.passed
            worst_ax = max(worst_ax, rep.worst[1])
            blk = omega_d_degenerate_block(p)
            a_ref = np.asarray(blk.a_closed)
            a_scale = max(1.0, float(np.max(np.abs(a_ref))))
            worst_aij = max(worst_aij,
                            float(np.max(np.abs(np.asarray(blk.a_solve) - a_ref))) / a_scale)
            worst_rem = max(worst_rem,
                            abs(blk.restricted_norm - blk.restricted_norm_closed)
                            / abs(blk.restricted_norm_closed))
            # closed form from the radii: A = |X1|^2, B = |X2|^2, P = A B
            r2 = p.base_r**2
            big_p = float(np.sum(4.0 * math.pi**2 * r2)) \
                * float(np.sum(1.0 / (4.0 * math.pi**2 * r2)))
            pair_ref = m * (m * m - big_p) / big_p
            worst_pair = max(worst_pair, abs(blk.pairing - pair_ref))
    dt = time.perf_counter() - t0

    green = all_passed and worst_ax < 1e-8 and worst_aij < 1e-10 \
        and worst_rem < 1e-9 and dt < 60.0
    _report(3, "induced structure axioms, coefficients, restricted norm", green,
            f"axioms {worst_ax:.1e}, a_ij {worst_aij:.1e}, norm {worst_rem:.1e}, {dt:.1f}s")
    pair_ok = worst_pair <= 1e-9
    _report(3, "degenerate pairing vs closed form (n+1)(s - P)/P", pair_ok,
            f"worst gap {worst_pair:.1e}")

    assert all_passed and worst_ax < 1e-8
    assert worst_aij < 1e-10
    assert worst_rem < 1e-9
    assert dt < 60.0, f"budget 60 s exceeded: {dt:.1f}s"
    assert pair_ok, (
        "degenerate pairing differs from the closed form (n+1)(s - P)/P, "
        "s = (n+1)^2, P = |X1|^2 |X2|^2; worst |gap| = "
        f"{worst_pair:.3e}"
    )


def test_criterion_4_projection_residuals_and_fiber_collapse():
    rng = np.random.default_rng(23)
    worst_p1 = 0.0
    worst_p2 = 0.0
    worst_fib = 0.0
    for n in (1, 2, 3):
        spec = LevelSetSpec.from_rho(n, 1.0, 0.5)
        pts = sample_points(spec, 60, seed=17 + n)
        for p in pts:
            worst_p1 = max(worst_p1, pi1_image_residual(project_pi1(p), 0.5))
            worst_p2 = max(worst_p2, pi2_image_residual(project_pi2(p)))
        for p in pts[:10]:
            q_eta = replace(p, torus_t=rng.uniform(0, 1, n))
            worst_fib = max(worst_fib,
                            fubini_study_distance(project_pi1(p), project_pi1(q_eta)))
            q_theta = replace(p, torus_s=rng.uniform(0, 1, n))
            worst_fib = max(worst_fib,
                            hn_distance(project_pi2(p), project_pi2(q_theta)))
    ok = worst_p1 < 1e-10 and worst_p2 < 1e-9 and worst_fib < 1e-6
    _report(4, "projection image equations and fiber collapse", ok,
            f"pi1 {worst_p1:.1e}, pi2 {worst_p2:.1e}, collapse {worst_fib:.1e}")
    assert worst_p1 < 1e-10
    assert worst_p2 < 1e-9
    assert worst_fib < 1e-6


def test_criterion_5_chart_pullbacks_and_deformations():
    t0 = time.perf_counter()
    worst_phi = 0.0
    for n in (1, 2, 3):
        for rho1, rho2 in ((1.0, 0.5), (1.3, 0.7)):
            for p in _random_ambient(n, 50, seed=80 + n):
                rep = phi_pullback_check(p, rho1, rho2)
                worst_phi = max(worst_phi, rep.max_residual)

    worst_alpha = 0.0
    spec = LevelSetSpec.from_rho(2, 1.1, 0.6)
    for t in (0.1, 1.0, 7.3, 100.0):
        dspec = alpha_deform(spec, t)
        worst_alpha = max(worst_alpha,
                          abs(dspec.rho1 - t * spec.rho1) / (t * spec.rho1),
                          abs(dspec.rho2 - spec.rho2) / spec.rho2)

    worst_psi = 0.0
    for n in (1, 2):
        for p in _random_ambient(n, 20, seed=90 + n):
            for t in (0.5, 2.0, 10.0):
                worst_psi = max(worst_psi, max(psi_pullback_residuals(p, t).values()))

    dt = time.perf_counter() - t0
    ok = worst_phi < 1e-9 and worst_alpha < 1e-12 and worst_psi < 1e-9 and dt < 30.0
    _report(5, "chart pullback identities and deformation maps", ok,
            f"phi {worst_phi:.1e}, alpha {worst_alpha:.1e}, psi {worst_psi:.1e}, {dt:.1f}s")
    assert worst_phi < 1e-9
    assert worst_alpha < 1e-12
    assert worst_psi < 1e-9
    assert dt < 30.0, f"budget 30 s exceeded: {dt:.1f}s"


def test_criterion_6_fiber_diameter_bound():
    worst = 0.0
    for n in (2, 3):
        for rho1 in np.geomspace(1.0, 1e3, 7):
            spec = LevelSetSpec.from_rho(n, float(rho1), 0.6)
            for p in sample_points(spec, 25, seed=31 + n):
                exact = mg.flat_torus_diameter(mg.pi1_fiber_torus(p))
                worst = max(worst, exact / mg.pi1_fiber_bound(p))
    ok = worst <= 1.0 + 1e-6
    _report(6, "eta-fiber diameter against the closed-form bound", ok,
            f"worst ratio {worst:.9f}")
    assert worst <= 1.0 + 1e-6


def _rows(path):
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def test_criterion_7_cli_sweeps(tmp_path):
    t0 = time.perf_counter()

    f_k = tmp_path / "k.csv"
    rc = cli.main(["limit-kahler", "--n", "2", "--rho2", "0.55,0.7",
                   "--grid", "1:1e3:7", "--samples", "48", "--seed", "3",
                   "--out", str(f_k)])
    assert rc == 0
    mono = True
    for want in ("0.55", "0.7"):
        vals = [float(r["hausdorff_norm"]) for r in _rows(f_k)
                if float(r["rho2"]) == float(want)]
        assert len(vals) == 7
        mono &= all(a > b for a, b in zip(vals, vals[1:]))

    f_c = tmp_path / "c.csv"
    rc = cli.main(["limit-complex", "--n", "2", "--rho2", "0.6",
                   "--grid", "1e-3:1:7", "--samples", "30", "--seed", "3",
                   "--out", str(f_c)])
    assert rc == 0
    cw = [float(r["c_witness"]) for r in _rows(f_c)]
    c_stable = max(cw) / min(cw) - 1.0 < 0.2

    f_b = tmp_path / "b.csv"
    rc = cli.main(["boundary", "--side", "T", "--n", "2", "--rho1", "1.0",
                   "--grid", "1e-4:1e-1:6", "--samples", "40", "--seed", "3",
                   "--out", str(f_b)])
    assert rc == 0
    rows = _rows(f_b)
    slope = np.polyfit(np.log([float(r["param"]) for r in rows]),
                       np.log([float(r["base_diam"]) for r in rows]), 1)[0]
    pinch_ok = abs(slope - 0.5) < 0.1

    dt = time.perf_counter() - t0
    ok = mono and c_stable and pinch_ok and dt < 600.0
    _report(7, "limit and boundary sweeps through the command line", ok,
            f"norm monotone {mono}, c spread {max(cw) / min(cw) - 1.0:.3f}, "
            f"pinch slope {slope:.3f}, {dt:.1f}s")
    assert mono, "normalized hausdorff column is not strictly decreasing"
    assert c_stable
    assert pinch_ok, f"pinch exponent {slope:.3f} outside 0.5 +- 0.1"
    assert dt < 600.0, f"budget 600 s exceeded: {dt:.1f}s"


def _abstract(dist):
    d = np.asarray(dist, dtype=float)
    return mg.FiniteMetricSample("abstract", np.zeros((d.shape[0], 1)), d)


def _zoom_covering(spec, levels, res):
    basis = spec.euclidean_basis()
    k = basis.shape[1]
    lo = np.zeros(k)
    hi = np.ones(k)
    val = 0.0
    for _ in range(levels):
        axes = [np.linspace(lo[i], hi[i], res) for i in range(k)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, k)
        d = mg._dist_to_lattice(mesh @ basis.T, basis)
        i = int(np.argmax(d))
        val = float(d[i])
        span = (hi - lo) / (res - 1)
        lo = mesh[i] - 2 * span
        hi = mesh[i] + 2 * span
    return val


def test_criterion_8_metric_bound_self_tests():
    rng = np.random.default_rng(5)

    scale_exact = True
    order_ok = True
    for _ in range(20):
        na, nb = rng.integers(2, 7), rng.integers(2, 7)
        pa = rng.normal(size=(na, 3))
        pb = rng.normal(size=(nb, 3))
        da = np.linalg.norm(pa[:, None] - pa[None], axis=-1)
        db = np.linalg.norm(pb[:, None] - pb[None], axis=-1)
        a, b = _abstract(da), _abstract(db)
        lo, up = mg.gh_bounds(a, b)
        order_ok &= lo <= up + 1e-15
        base = mg.ngh_distance(a, b)
        segs = mg.ngh_distance(_abstract(4.0 * da), _abstract(4.0 * db))
        scale_exact &= base.lower == segs.lower and base.upper == segs.upper

    cover_ok = True
    specs = [mg.FlatTorusSpec(np.eye(2), np.ones(2))]
    br = rng.uniform(-1, 1, (2, 2))
    while abs(np.linalg.det(br)) < 0.2:  # keep the raw cell grid-searchable
        br = rng.uniform(-1, 1, (2, 2))
    specs.append(mg.FlatTorusSpec(br, np.ones(2)))
    worst_gap = 0.0
    for spec in specs:
        exact = mg.flat_torus_diameter(spec)
        oracle = _zoom_covering(spec, levels=7, res=33)
        gap = abs(exact - oracle) / max(1.0, exact)
        worst_gap = max(worst_gap, gap)
        cover_ok &= gap < 1e-6

    ok = scale_exact and order_ok and cover_ok
    _report(8, "metric estimator self-tests", ok,
            f"scale invariance exact {scale_exact}, ordering {order_ok}, "
            f"covering gap {worst_gap:.1e}")
    assert scale_exact, "normalized distance changed under a power-of-two rescale"
    assert order_ok
    assert cover_ok
