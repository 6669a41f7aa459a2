import itertools
import math

import numpy as np
import pytest

from wsdlab import metgeo as mg
from wsdlab.maps import CPnPoint
from wsdlab.reduction import LevelSetSpec, sample_points


def _sphere_rows(count, n, seed, lam=1.0):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, n + 1)) + 1j * rng.standard_normal((count, n + 1))
    z *= math.sqrt(lam) / np.linalg.norm(z, axis=1)[:, None]
    return z


def test_sample_validation():
    good = np.array([[0.0, 1.0], [1.0, 0.0]])
    mg.FiniteMetricSample("abstract", np.zeros((2, 1)), good)
    with pytest.raises(ValueError):
        mg.FiniteMetricSample("abstract", np.zeros((2, 1)), -good)
    with pytest.raises(ValueError):
        mg.FiniteMetricSample("abstract", np.zeros((2, 1)), np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        mg.FiniteMetricSample("abstract", np.zeros((2, 1)), np.array([[0.5, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        mg.FiniteMetricSample("abstract", np.zeros((3, 1)), good)


def test_triangle_defect_on_projective_samples():
    s = mg.projective_sample(_sphere_rows(40, 2, seed=1), 1.0, "cpn")
    assert s.triangle_defect(trials=500) <= 1e-9
    q = mg.projective_sample(_sphere_rows(30, 2, seed=2), 1.0, "hn")
    assert q.triangle_defect(trials=500) <= 1e-9


def test_diameter_basics():
    one = mg.FiniteMetricSample("abstract", np.zeros((1, 1)), np.zeros((1, 1)))
    assert mg.diameter(one) == 0.0
    two = mg.FiniteMetricSample("abstract", np.zeros((2, 1)), np.array([[0.0, 3.0], [3.0, 0.0]]))
    assert mg.diameter(two) == 3.0
    empty = mg.FiniteMetricSample("abstract", np.zeros((0, 1)), np.zeros((0, 0)))
    with pytest.raises(ValueError):
        mg.diameter(empty)


def test_cp1_diameter_monte_carlo():
    # unit-scale projective line has diameter pi/2; random pairs approach it
    s = mg.projective_sample(_sphere_rows(1200, 1, seed=3), 1.0, "cpn")
    d = mg.diameter(s)
    assert d <= math.pi / 2 + 1e-9
    assert d > math.pi / 2 - 0.05


def test_hausdorff_identity_and_containment():
    z = _sphere_rows(25, 2, seed=4)
    a = mg.projective_sample(z, 1.0, "cpn")
    assert mg.hausdorff_distance(a, a) < 1e-12
    b = mg.projective_sample(np.vstack([z, _sphere_rows(15, 2, seed=5)]), 1.0, "cpn")
    cross = mg.fs_matrix(a.coords, 1.0, b.coords)
    one_sided = np.max(np.min(cross, axis=0))
    assert mg.hausdorff_distance(a, b) == pytest.approx(one_sided, abs=1e-15)


def test_hausdorff_chart_mismatch():
    z = _sphere_rows(4, 1, seed=6)
    with pytest.raises(ValueError):
        mg.hausdorff_distance(mg.projective_sample(z, 1.0, "cpn"),
                              mg.projective_sample(z, 1.0, "hn"))


def test_hausdorff_parallel_circles():
    # circles a = const in the projective line, offset by delta in arc length
    delta = 0.15
    a0 = 0.5
    phases = np.exp(2j * math.pi * np.arange(64) / 64)
    circ = lambda a: np.stack([np.full(64, math.cos(a), dtype=complex),
                               math.sin(a) * phases], axis=1)
    a = mg.projective_sample(circ(a0), 1.0, "cpn")
    b = mg.projective_sample(circ(a0 + delta), 1.0, "cpn")
    h = mg.hausdorff_distance(a, b)
    assert abs(h - delta) < 3e-3


def test_hausdorff_explicit_dist_fn():
    a = mg.FiniteMetricSample("line", np.array([[0.0], [1.0]]), np.array([[0.0, 1.0], [1.0, 0.0]]))
    b = mg.FiniteMetricSample("line", np.array([[4.0]]), np.zeros((1, 1)))
    h = mg.hausdorff_distance(a, b, dist_fn=lambda x, y: abs(float(x[0] - y[0])))
    assert h == 4.0


def _abstract(dist):
    d = np.asarray(dist, dtype=float)
    return mg.FiniteMetricSample("abstract", np.zeros((d.shape[0], 1)), d)


def test_gh_identity_point_and_scaling():
    z = _sphere_rows(12, 2, seed=7)
    a = mg.projective_sample(z, 1.0, "cpn")
    lo, hi = mg.gh_bounds(a, a)
    assert lo == 0.0 and hi == 0.0
    pt = _abstract([[0.0]])
    two = _abstract([[0.0, 2.0], [2.0, 0.0]])
    lo, hi = mg.gh_bounds(pt, two)
    assert lo == 1.0
    assert hi >= 1.0
    t = 3.0
    lo, hi = mg.gh_bounds(a, _abstract(t * a.dist))
    assert lo == pytest.approx(0.5 * (t - 1) * mg.diameter(a), rel=1e-12)
    assert lo <= hi


def _brute_gh(da, db):
    """Exact GH for tiny samples: minimize distortion over every covering
    relation in A x B."""
    na, nb = da.shape[0], db.shape[0]
    pairs = list(itertools.product(range(na), range(nb)))
    best = math.inf
    for mask in range(1, 1 << len(pairs)):
        rel = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        if len({p[0] for p in rel}) < na or len({p[1] for p in rel}) < nb:
            continue
        dist = max(abs(da[p[0], q[0]] - db[p[1], q[1]]) for p in rel for q in rel)
        best = min(best, dist)
    return 0.5 * best


def test_gh_bounds_sandwich_brute_force():
    rng = np.random.default_rng(11)
    for na, nb in [(2, 2), (3, 3), (2, 3), (3, 2), (1, 3)]:
        for _ in range(6):
            pa = rng.uniform(0, 1, (na, 2))
            pb = rng.uniform(0, 1, (nb, 2))
            da = np.sqrt(np.sum((pa[:, None] - pa[None]) ** 2, axis=2))
            db = np.sqrt(np.sum((pb[:, None] - pb[None]) ** 2, axis=2))
            exact = _brute_gh(da, db)
            lo, hi = mg.gh_bounds(_abstract(da), _abstract(db))
            assert lo <= exact + 1e-12
            assert hi >= exact - 1e-12


def test_ngh_normalization_and_guards():
    pt = _abstract([[0.0]])
    res = mg.ngh_distance(pt, pt)
    assert res == (0.0, 0.0, True)
    two = _abstract([[0.0, 2.0], [2.0, 0.0]])
    res = mg.ngh_distance(pt, two)
    assert res.lower == 1.0 and res.upper >= 1.0 and not res.point_like
    z = _sphere_rows(10, 1, seed=8)
    a = mg.projective_sample(z, 1.0, "cpn")
    assert mg.ngh_distance(a, a)[:2] == (0.0, 0.0)


def test_ngh_scale_invariance():
    rng = np.random.default_rng(9)
    pa = rng.uniform(0, 1, (7, 3))
    pb = rng.uniform(0, 1, (5, 3))
    da = np.sqrt(np.sum((pa[:, None] - pa[None]) ** 2, axis=2))
    db = np.sqrt(np.sum((pb[:, None] - pb[None]) ** 2, axis=2))
    base = mg.ngh_distance(_abstract(da), _abstract(db))
    # powers of two scale every float exactly, so the bounds match bitwise
    doubled = mg.ngh_distance(_abstract(2.0 * da), _abstract(2.0 * db))
    assert doubled.lower == base.lower and doubled.upper == base.upper
    t = 1.7
    scaled = mg.ngh_distance(_abstract(t * da), _abstract(t * db))
    assert scaled.lower == pytest.approx(base.lower, rel=1e-12)
    assert scaled.upper == pytest.approx(base.upper, rel=1e-12)


def test_covering_radius_square_and_interval():
    assert mg.flat_torus_diameter(mg.FlatTorusSpec(np.eye(2), np.ones(2))) == pytest.approx(math.sqrt(2) / 2, rel=1e-14)
    one = mg.FlatTorusSpec(np.array([[2.5]]), np.ones(1))
    assert mg.flat_torus_diameter(one) == 1.25


def test_covering_radius_hex_and_cubic():
    hexb = np.array([[1.0, 0.5], [0.0, math.sqrt(3) / 2]])
    got = mg.flat_torus_diameter(mg.FlatTorusSpec(hexb, np.ones(2)))
    assert got == pytest.approx(1 / math.sqrt(3), rel=1e-12)
    got = mg.flat_torus_diameter(mg.FlatTorusSpec(np.eye(3), np.ones(3)))
    assert got == pytest.approx(math.sqrt(3) / 2, rel=1e-12)


def test_covering_radius_basis_invariance():
    rng = np.random.default_rng(12)
    for k in (2, 3):
        for _ in range(5):
            b = rng.uniform(-1, 1, (k, k))
            while abs(np.linalg.det(b)) < 0.1:
                b = rng.uniform(-1, 1, (k, k))
            u = np.eye(k)
            u[0, -1] = 7.0  # unimodular shear
            r1 = mg.flat_torus_diameter(mg.FlatTorusSpec(b, np.ones(k)))
            r2 = mg.flat_torus_diameter(mg.FlatTorusSpec(b @ u, np.ones(k)))
            assert r1 == pytest.approx(r2, rel=1e-11)


def _zoom_covering(spec, levels, res):
    """Brute-force oracle: refine a grid over the fundamental cell around the
    point farthest from the lattice."""
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


def test_covering_radius_zoom_oracle_2d():
    rng = np.random.default_rng(13)
    specs = [mg.FlatTorusSpec(np.eye(2), np.ones(2))]
    for _ in range(2):
        b = rng.uniform(-1, 1, (2, 2))
        while abs(np.linalg.det(b)) < 0.2:
            b = rng.uniform(-1, 1, (2, 2))
        specs.append(mg.FlatTorusSpec(b, np.ones(2)))
    for spec in specs:
        exact = mg.flat_torus_diameter(spec)
        oracle = _zoom_covering(spec, levels=7, res=33)
        assert abs(exact - oracle) < 1e-6 * max(1.0, exact)


def test_covering_radius_zoom_oracle_3d():
    b = np.array([[1.0, 0.3, -0.2], [0.0, 0.9, 0.4], [0.0, 0.0, 1.1]])
    spec = mg.FlatTorusSpec(b, np.array([1.0, 2.0, 0.7]))
    exact = mg.flat_torus_diameter(spec)
    oracle = _zoom_covering(spec, levels=6, res=21)
    assert abs(exact - oracle) < 1e-5 * max(1.0, exact)


def test_mode_ordering_and_rejection():
    rng = np.random.default_rng(14)
    for k in (2, 3):
        b = rng.uniform(-1, 1, (k, k)) + 2 * np.eye(k)
        spec = mg.FlatTorusSpec(b, np.ones(k))
        exact = mg.flat_torus_diameter(spec)
        basis = spec.euclidean_basis()
        # half the box diagonal: every point of the cell is that close to a corner
        upper = 0.5 * math.sqrt(float(np.sum(basis ** 2)))
        # the farthest of 500 random points from the lattice is a lower witness
        pts = np.random.default_rng(2).uniform(0.0, 1.0, (500, k)) @ basis.T
        witness = float(np.max(mg._dist_to_lattice(pts, basis)))
        assert witness <= exact + 1e-12
        assert exact <= upper + 1e-12
    with pytest.raises(ValueError):
        mg.flat_torus_diameter(mg.FlatTorusSpec(np.eye(4), np.ones(4)))


def test_fiber_tori_and_closed_form_bound():
    for n, rho2 in [(2, 0.55), (2, 0.8), (3, 0.55)]:
        spec = LevelSetSpec.from_rho(n, 1.0, rho2)
        for p in sample_points(spec, 8, seed=21):
            t1 = mg.pi1_fiber_torus(p)
            assert t1.rank == n
            d1 = mg.flat_torus_diameter(t1)
            assert d1 <= mg.pi1_fiber_bound(p) * (1 + 1e-9)
            t2 = mg.pi2_fiber_torus(p)
            assert t2.rank == n
            assert mg.flat_torus_diameter(t2) > 0


def test_fiber_bound_scale():
    # rho1 enters the bound as 1/rho1 and the eta metric weights as 1/rho1^2
    a = LevelSetSpec.from_rho(2, 1.0, 0.6)
    b = LevelSetSpec.from_rho(2, 4.0, 0.6)
    pa = sample_points(a, 1, seed=3)[0]
    pb = sample_points(b, 1, seed=3)[0]
    da = mg.flat_torus_diameter(mg.pi1_fiber_torus(pa))
    db = mg.flat_torus_diameter(mg.pi1_fiber_torus(pb))
    assert db == pytest.approx(da / 4.0, rel=1e-9)
    assert mg.pi1_fiber_bound(pb) == pytest.approx(mg.pi1_fiber_bound(pa) / 4.0, rel=1e-12)


def test_anticanonical_constructed_zero():
    s = mg.anticanonical_sample(2, "cpn", 1.0, 31, seed=1)
    prods = np.prod(s.coords, axis=1)
    assert np.all(prods == 0)
    norms = np.linalg.norm(s.coords, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    assert s.triangle_defect(trials=300) <= 1e-9


def test_anticanonical_n1_two_points():
    s = mg.anticanonical_sample(1, "cpn", 1.0, 10, seed=2)
    mods = np.abs(s.coords)
    for i, row in enumerate(mods):
        want = np.array([0.0, 1.0]) if i % 2 == 0 else np.array([1.0, 0.0])
        assert np.max(np.abs(row - want)) < 1e-12
    # only two distinct projective points, pi/2 apart
    vals = np.unique(np.round(s.dist, 12))
    assert set(vals) <= {0.0, round(math.pi / 2, 12)}


def test_anticanonical_component_balance():
    count = 32
    s = mg.anticanonical_sample(2, "cpn", 2.0, count, seed=3)
    zeros = np.argmin(np.abs(s.coords), axis=1)
    tally = np.bincount(zeros, minlength=3)
    assert np.max(tally) - np.min(tally) <= 1


def test_anticanonical_quotient_chart():
    z = mg.anticanonical_sample(2, "cpn", 1.0, 20, seed=4).coords
    dcp = mg.fs_matrix(z, 1.0)
    dhn = mg.hn_matrix(z, 1.0, 2)
    assert np.all(dhn <= dcp + 1e-12)
    s = mg.anticanonical_sample(2, "hn", 1.0, 20, seed=4)
    assert np.max(np.abs(s.dist - dhn)) < 1e-12


def test_hn_matrix_matches_pointwise_quotient_distance():
    z = _sphere_rows(6, 2, seed=15, lam=1.0)
    d = mg.hn_matrix(z, 1.0, 2)
    for i in range(6):
        for j in range(i + 1, 6):
            # independent reference: the scalar projective distance minimized
            # over the finite phase group by hand
            ref = min(mg.fubini_study_distance(CPnPoint(z[i], 1.0),
                                               CPnPoint(z[j] * np.exp(2j * math.pi * g), 1.0))
                      for g in mg._quotient_phases(2))
            assert abs(d[i, j] - ref) < 1e-9


def test_hn_distance_vanishes_on_phase_group_orbits():
    # arccos of an overlap one ulp below 1 is 1.5e-8; the kernel's arcsin
    # branch resolves these pairs to rounding level
    rng = np.random.default_rng(4)
    for n in (1, 2, 3):
        for _ in range(5):
            z = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
            p = CPnPoint(z, 1.0).normalized()
            for g in mg._quotient_phases(n):
                q = CPnPoint(p.z * np.exp(2j * math.pi * g), 1.0)
                assert mg.hn_distance(p, q) < 1e-12


def test_cy_sampler_residuals_and_determinism():
    s = mg.cy_hypersurface_sample(2, 1.0, 0.5, 25, seed=6)
    for row in s.coords:
        assert mg.cy_residual(row, 0.5) < 1e-9
    norms = np.linalg.norm(s.coords, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-10
    again = mg.cy_hypersurface_sample(2, 1.0, 0.5, 25, seed=6)
    assert np.array_equal(s.coords, again.coords)


def test_cy_sampler_n1_closed_form():
    rho2 = 0.3
    eps = math.exp(-4 * math.pi**2 * rho2**2)
    disc = complex(1 - 4 * eps**2) ** 0.5
    roots = [(1 + disc) / (2 * eps), (1 - disc) / (2 * eps)]
    s = mg.cy_hypersurface_sample(1, 1.0, rho2, 12, seed=7)
    for z0, z1 in s.coords:
        t = z0 / z1
        assert min(abs(t - r) for r in roots) < 1e-8 * max(1.0, abs(t))


def test_cy_clusters_near_divisor_for_large_rho2():
    anti = mg.anticanonical_sample(2, "cpn", 1.0, 210, seed=8)
    hs = [mg.hausdorff_distance(mg.cy_hypersurface_sample(2, 1.0, r2, 210, seed=9), anti)
          for r2 in (0.2, 0.25, 0.8)]
    assert hs[0] > hs[1] > hs[2]
    # at large rho2 every sample hugs some hyperplane component
    cy = mg.cy_hypersurface_sample(2, 1.0, 0.8, 90, seed=10)
    mods = np.min(np.abs(cy.coords), axis=1)
    assert np.max(mods) < 0.05


def test_knn_geodesics_circle():
    count = 60
    radius = 2.0
    x = (np.arange(count) / count)[:, None]
    g = lambda _: np.array([[(2 * math.pi * radius) ** 2]])
    d = mg.riemannian_knn_distances(x, g, k=6, periodic=np.array([True]))
    for i in range(0, count, 7):
        for j in range(0, count, 11):
            frac = abs(x[i, 0] - x[j, 0])
            want = 2 * math.pi * radius * min(frac, 1 - frac)
            assert abs(d[i, j] - want) < 1e-8


def test_knn_geodesics_flat_patch():
    xs = np.linspace(0, 1, 9)
    grid = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    d = mg.riemannian_knn_distances(grid, lambda _: np.eye(2), k=12)
    euclid = np.sqrt(np.sum((grid[:, None] - grid[None]) ** 2, axis=2))
    assert np.all(d >= euclid - 1e-12)
    assert np.max(d - euclid) < 0.12 * np.max(euclid)
