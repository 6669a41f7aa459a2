import heapq
import itertools
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (cross_hausdorff, divisor_offsets_mp, fiber_suprema_mp, gathered_pair_bounds,
                     kkt_log_sums_mp, per_phase_hn_matrix, pi2_fiber_diameters)

from wsdlab import metgeo as mg
from wsdlab import params
from wsdlab.ambient import torus_metric_weights
from wsdlab.maps import CPnPoint, project_pi2
from wsdlab.params import EmptyLevelSet, LevelSetSpec, feasibility, feasibility_threshold
from wsdlab.polytope import _eliminate, kernel_data, lattice_maps
from wsdlab.reduction import draw_directions, draw_torus, log_shape, sample_base, solve_base


def _sphere_rows(count, n, seed, lam=1.0):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, n + 1)) + 1j * rng.standard_normal((count, n + 1))
    z *= math.sqrt(lam) / np.linalg.norm(z, axis=1)[:, None]
    return z


def test_sample_validation():
    good = np.array([[0.0, 1.0], [1.0, 0.0]])
    mg.FiniteMetricSample(good)
    with pytest.raises(ValueError):
        mg.FiniteMetricSample(-good)
    with pytest.raises(ValueError):
        mg.FiniteMetricSample(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        mg.FiniteMetricSample(np.array([[0.5, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        mg.FiniteMetricSample(np.zeros((2, 3)))
    # a NaN or inf distance is rejected here, not met later by gh_bounds
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="dist must be finite"):
            mg.FiniteMetricSample(np.array([[0.0, bad], [bad, 0.0]]))


def _triangle_defect(d):
    """Max of d(a,c) - d(a,b) - d(b,c) over all triples (<= 0 for a metric)."""
    return float(np.max(d[:, None, :] - d[:, :, None] - d[None, :, :]))


def _cpn(z):
    # at n = 1 the phase group is trivial, so the quotient distance is the
    # CP^1 distance
    return mg.FiniteMetricSample(per_phase_hn_matrix(z, 1.0))


def test_triangle_defect_on_projective_samples():
    assert _triangle_defect(per_phase_hn_matrix(_sphere_rows(40, 1, seed=1), 1.0)) <= 1e-9
    assert _triangle_defect(per_phase_hn_matrix(_sphere_rows(30, 2, seed=2), 1.0)) <= 1e-9


def test_diameter_basics():
    one = mg.FiniteMetricSample(np.zeros((1, 1)))
    assert mg.diameter(one) == 0.0
    two = mg.FiniteMetricSample(np.array([[0.0, 3.0], [3.0, 0.0]]))
    assert mg.diameter(two) == 3.0
    empty = mg.FiniteMetricSample(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        mg.diameter(empty)


def test_cp1_diameter_monte_carlo():
    # unit-scale projective line has diameter pi/2; random pairs approach it
    d = mg.diameter(_cpn(_sphere_rows(1200, 1, seed=3)))
    assert d <= math.pi / 2 + 1e-9
    assert d > math.pi / 2 - 0.05


def test_hausdorff_identity_and_containment():
    # cross distances are the off-diagonal block of the stacked rows' matrix
    z = _sphere_rows(25, 2, seed=4)
    assert cross_hausdorff(per_phase_hn_matrix(np.vstack([z, z]), 1.0)[:25, 25:]) < 1e-12
    cross = per_phase_hn_matrix(np.vstack([z, z, _sphere_rows(15, 2, seed=5)]), 1.0)[:25, 25:]
    # z is inside the larger set, so only the larger set's far side counts
    assert np.max(np.min(cross, axis=1)) < 1e-12
    assert cross_hausdorff(cross) == np.max(np.min(cross, axis=0))


def test_hausdorff_parallel_circles():
    # circles a = const in the projective line, offset by delta in arc length
    delta = 0.15
    a0 = 0.5
    phases = np.exp(2j * math.pi * np.arange(64) / 64)
    circ = lambda a: np.stack([np.full(64, math.cos(a), dtype=complex),
                               math.sin(a) * phases], axis=1)
    both = per_phase_hn_matrix(np.vstack([circ(a0), circ(a0 + delta)]), 1.0)
    h = cross_hausdorff(both[:64, 64:])
    assert abs(h - delta) < 3e-3


def _abstract(dist):
    return mg.FiniteMetricSample(dist)


def test_gh_identity_point_and_scaling():
    z = _sphere_rows(12, 2, seed=7)
    a = _cpn(z)
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
    empty = _abstract(np.zeros((0, 0)))
    for x, y in ((empty, pt), (pt, empty)):
        with pytest.raises(ValueError, match="needs nonempty samples"):
            mg.gh_bounds(x, y)


def _brute_gh(da, db):
    """Exact GH for tiny samples.  Every correspondence R contains
    graph(f) u graph(g)^T for some maps f: A -> B and g: B -> A, at no larger
    distortion (its entries are a subset of R's), and that union is itself a
    correspondence, so the minimum over map pairs is d_GH, in floats too.
    Its distortion splits into the f-f, g-g and f-g blocks."""
    na, nb = da.shape[0], db.shape[0]
    fs = np.array(list(itertools.product(range(nb), repeat=na)))  # (F, na)
    gs = np.array(list(itertools.product(range(na), repeat=nb)))  # (G, nb)
    dis_f = np.max(np.abs(da[None] - db[fs[:, :, None], fs[:, None, :]]), axis=(1, 2))
    dis_g = np.max(np.abs(da[gs[:, :, None], gs[:, None, :]] - db[None]), axis=(1, 2))
    # |d_a(x, g y) - d_b(f x, y)| for every x, y, per (f, g)
    a_xg = da[np.arange(na)[None, :, None], gs[:, None, :]]  # (G, na, nb)
    b_fy = db[fs[:, :, None], np.arange(nb)[None, None, :]]  # (F, na, nb)
    dis_fg = np.max(np.abs(a_xg[None] - b_fy[:, None]), axis=(2, 3))
    total = np.maximum(np.maximum(dis_f[:, None], dis_g[None, :]), dis_fg)
    return 0.5 * float(np.min(total))


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


def _points_metric(rng, count, lattice):
    # lattice points give ties among distances and eccentricities
    pts = rng.integers(0, 3, (count, 2)).astype(float) if lattice else rng.normal(size=(count, 2))
    return np.linalg.norm(pts[:, None] - pts[None], axis=-1)


# 200 examples of 1-4 point spaces, ~0.5 s: the brute force is at most 2^16
# map pairs, each a few hundred array entries
@settings(max_examples=200, deadline=None)
@given(na=st.integers(1, 4), nb=st.integers(1, 4), seed=st.integers(0, 10**6),
       lattice=st.booleans())
def test_gh_bounds_bracket_the_exact_distance(na, nb, seed, lattice):
    rng = np.random.default_rng(seed)
    da, db = _points_metric(rng, na, lattice), _points_metric(rng, nb, lattice)
    lo, hi = mg.gh_bounds(_abstract(da), _abstract(db))
    gap = 0.5 * abs(float(np.max(da)) - float(np.max(db)))
    # exact in floats: each bound is a max or min over the brute force's entries
    assert gap <= lo <= _brute_gh(da, db) <= hi
    # the lower bound is half the Hausdorff distance of the eccentricity
    # sets, as from their explicit N x M gap matrix
    ea, eb = np.max(da, axis=1), np.max(db, axis=1)
    assert lo == 0.5 * cross_hausdorff(np.abs(ea[:, None] - eb[None, :]))


def test_gh_lower_sees_shape_at_equal_diameters():
    # an equilateral triangle of side 1 against the path 0 - 0.5 - 1: the
    # diameter gap is 0, the eccentricities {1} and {0.5, 1} are 0.5 apart
    tri = np.ones((3, 3)) - np.eye(3)
    path = np.array([[0.0, 0.5, 1.0], [0.5, 0.0, 0.5], [1.0, 0.5, 0.0]])
    assert np.max(tri) == np.max(path)
    assert mg.gh_bounds(_abstract(tri), _abstract(path)) == (0.25, 0.25)
    assert _brute_gh(tri, path) == 0.25


@settings(max_examples=60, deadline=None)
@given(na=st.integers(1, 12), nb=st.integers(1, 12), seed=st.integers(0, 10**6),
       power=st.integers(-60, 60))
def test_gh_pairs_interval_ordered_and_exact_under_power_of_two(na, nb, seed, power):
    # the eccentricity-rank pairing: ordered, and a power-of-two rescale
    # scales every float exactly, so the bounds follow it bitwise
    rng = np.random.default_rng(seed)
    pa, pb = rng.normal(size=(na, 3)), rng.normal(size=(nb, 3))
    da = np.linalg.norm(pa[:, None] - pa[None], axis=-1)
    db = np.linalg.norm(pb[:, None] - pb[None], axis=-1)
    lo, hi = mg.gh_bounds(_abstract(da), _abstract(db))
    assert lo <= hi
    base = mg.ngh_distance(_abstract(da), _abstract(db))
    assert base.lower <= base.upper
    t = 2.0 ** power
    assert mg.gh_bounds(_abstract(t * da), _abstract(t * db)) == (t * lo, t * hi)
    assert mg.ngh_distance(_abstract(t * da), _abstract(t * db)) == base


def test_gh_bounds_memory_stays_below_the_broadcast():
    # the rank pairing holds index arrays and the two paired N x N distance
    # matrices (5.8 MB at N = 600; the peak read 5.9 MB), and the lower
    # bound sorts eccentricities: never an N x N x k array (N x N x 33 is
    # ~190 MB)
    count = 600
    rng = np.random.default_rng(12)
    pa = rng.uniform(0.0, 1.0, (count, 3))
    pb = rng.uniform(0.0, 1.0, (count, 3))
    a = _abstract(np.sqrt(np.sum((pa[:, None] - pa[None]) ** 2, axis=2)))
    b = _abstract(np.sqrt(np.sum((pb[:, None] - pb[None]) ** 2, axis=2)))
    tracemalloc.start()
    try:
        lo, hi = mg.gh_bounds(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.0 <= lo <= hi
    assert peak < 2.5 * count * count * 8


def test_ngh_normalization_and_guards():
    pt = _abstract([[0.0]])
    res = mg.ngh_distance(pt, pt)
    assert res == (0.0, 0.0, True)
    two = _abstract([[0.0, 2.0], [2.0, 0.0]])
    res = mg.ngh_distance(pt, two)
    assert res.lower == 1.0 and res.upper >= 1.0 and not res.point_like
    z = _sphere_rows(10, 1, seed=8)
    a = _cpn(z)
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


def test_covering_radius_basis_invariance():
    rng = np.random.default_rng(12)
    for _ in range(5):
        b = rng.uniform(-1, 1, (2, 2))
        while abs(np.linalg.det(b)) < 0.1:
            b = rng.uniform(-1, 1, (2, 2))
        u = np.array([[1.0, 7.0], [0.0, 1.0]])  # unimodular shear
        r1 = mg.flat_torus_diameter(mg.FlatTorusSpec(b, np.ones(2)))
        r2 = mg.flat_torus_diameter(mg.FlatTorusSpec(b @ u, np.ones(2)))
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


def _root_basis(n):
    """Basis e_i - e_{n+1}, i = 1..n, of A_n = {x in Z^{n+1} : sum x = 0}, as columns."""
    return np.vstack([np.eye(n), -np.ones(n)])


def test_covering_radius_zoom_oracle_3d():
    # rank 3 has only the closed form, so the brute-force oracle checks it on
    # weighted A_3 directly
    rng = np.random.default_rng(41)
    for w in [np.ones(4), *(10.0 ** rng.uniform(-1.0, 1.0, 4) for _ in range(2))]:
        closed = float(mg.root_lattice_covering_radius(w))
        oracle = _zoom_covering(mg.FlatTorusSpec(_root_basis(3), w), levels=6, res=21)
        assert abs(closed - oracle) < 1e-6 * closed


def test_flat_torus_spec_tests_rank_on_the_basis():
    # weights spanning 1e16 and 1e17 leave the columns of A_2 independent,
    # though the weighted Gram matrix's singular values spread as far
    for w in ([1e16, 1.0, 1.0], [1.0, 1e17, 3.0]):
        got = mg.flat_torus_diameter(mg.FlatTorusSpec(_root_basis(2), np.array(w)))
        exact = _mp_split_vertex_radius(w)
        assert abs(got - exact) <= 1e-15 * exact
    # dependent columns, and the shapes refused before any rank is taken: a
    # 1-D basis, no columns, more columns than rows
    for b in (np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]]), np.ones(3), np.zeros((3, 0)),
              np.ones((2, 3))):
        with pytest.raises(ValueError, match="independent columns"):
            mg.FlatTorusSpec(b, np.ones(b.shape[0]))


def test_mode_ordering_and_rejection():
    rng = np.random.default_rng(14)
    for k in (1, 2):
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
    with pytest.raises(ValueError, match="rank <= 2"):
        mg.flat_torus_diameter(mg.FlatTorusSpec(np.eye(3), np.ones(3)))


@pytest.mark.parametrize("n", range(1, 9))
def test_fiber_lattices_are_root_lattices(n):
    # what licenses pi1_fiber_diameters and base_suprema's fiber suprema: the
    # columns of either fiber map lie in A_n (each sums to 0) and span n
    # dimensions, so the saturation of their span, the fiber torus's period
    # lattice, is exactly A_n
    maps = lattice_maps(n)
    for mat in (maps.primal_t, maps.dual_t):
        assert len(mat) == n + 1
        assert all(sum(col) == 0 for col in zip(*mat))
        assert _eliminate(mat)[0] == n


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("diameters", [mg.pi1_fiber_diameters, pi2_fiber_diameters],
                         ids=["primal_t", "dual_t"])
def test_covering_radius_equal_weight_root_lattice(n, diameters):
    # the fiber lattice of either role is A_n; its covering radius is
    # sqrt(a(n+1-a)/(n+1)), a = floor((n+1)/2) (SPLAG ch. 4), and its
    # vertices sit on many bisectors.  Radii 1/(2 pi) give unit weights in
    # both fiber metrics.
    a = (n + 1) // 2
    want = math.sqrt(a * (n + 1 - a) / (n + 1))
    assert float(diameters(np.full(n + 1, 0.5 / math.pi))) == pytest.approx(want, rel=1e-12)
    if n <= 2:  # the planar route, on a basis of A_n
        got = mg.flat_torus_diameter(mg.FlatTorusSpec(_root_basis(n), np.ones(n + 1)))
        assert got == pytest.approx(want, rel=1e-12)


# -- closed-form covering radius of weighted A_n --------------------------------

def _split_vertices(w):
    """The 2^m - 2 vertices of the weighted A_n Voronoi cell as (split, y)
    pairs, one per split of the coordinates into nonempty S (bits 1) and its
    complement, built as in root_lattice_covering_radius's proof:
    z_i = lam +- w_i/2, y = z / w.  Plain arithmetic, so weights given as
    mpmath numbers give the vertices at the working precision."""
    m = len(w)
    h = sum(1 / x for x in w)
    out = []
    for bits in itertools.product((0, 1), repeat=m):
        if 0 < sum(bits) < m:
            lam = (m - 2 * sum(bits)) / (2 * h)
            out.append((bits, [(lam + x / 2 if b else lam - x / 2) / x
                               for x, b in zip(w, bits)]))
    return out


def _mp_split_vertex_radius(weights):
    """Largest split-vertex norm in 60-digit arithmetic, from the weights as given."""
    with mpmath.workdps(60):
        w = [mpmath.mpf(float(x)) for x in weights]
        return mpmath.sqrt(max(mpmath.fsum(x * yi * yi for x, yi in zip(w, y))
                               for _, y in _split_vertices(w)))


@settings(max_examples=200, deadline=None)
@given(m=st.integers(2, 3), data=st.data())
def test_closed_form_covering_radius_matches_planar_route(m, data):
    # the planar route reduces the Gram matrix of the weighted A_1 or A_2 and
    # reads weights back from its obtuse superbase; it must agree with the
    # closed form on the weights themselves at every spread the spec accepts
    log_w = np.array(data.draw(st.lists(st.floats(-6.0, 6.0), min_size=m, max_size=m)))
    w = 10.0 ** log_w
    closed = float(mg.root_lattice_covering_radius(w))
    try:
        planar = mg.flat_torus_diameter(mg.FlatTorusSpec(_root_basis(m - 1), w))
    except ArithmeticError:  # numerically singular Gram matrix
        return
    assert abs(planar - closed) <= 1e-12 * closed


def test_planar_route_on_deep_a2_fiber_tori_matches_60_digits():
    # n = 2 first-projection fiber tori whose weights span up to ~1e16: an
    # absolute tolerance anywhere in the planar route shows here
    for rho2 in (0.9, 1.0, 1.1, 1.2):
        checked = 0
        for r in sample_base(LevelSetSpec(2, 1.0, rho2), 60, seed=0):
            w = torus_metric_weights(r)[1]
            try:
                got = mg.flat_torus_diameter(mg.FlatTorusSpec(_root_basis(2), w))
            except ArithmeticError:  # numerically singular Gram matrix
                continue
            exact = _mp_split_vertex_radius(w)
            assert abs(got - exact) <= 1e-14 * exact
            checked += 1
        assert checked >= 55


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_split_vertices_satisfy_every_short_bisector(m):
    coeffs = np.array(list(itertools.product(range(-2, 3), repeat=m)))
    vecs = coeffs[(coeffs.sum(axis=1) == 0) & np.any(coeffs != 0, axis=1)]
    circuits = vecs[np.sum(np.abs(vecs), axis=1) == 2]
    assert len(circuits) == m * (m - 1)
    rng = np.random.default_rng(40 + m)
    for w in [np.ones(m), *(10.0 ** rng.uniform(-6.0, 6.0, m) for _ in range(4))]:
        pairs = _split_vertices(w)
        splits = np.array([bits for bits, _ in pairs], dtype=bool)
        verts = np.array([y for _, y in pairs])
        assert len(verts) == 2**m - 2
        # in the span of A_n
        assert np.all(np.abs(verts.sum(axis=1)) <= 1e-12 * np.abs(verts).sum(axis=1))
        # Voronoi's inequality <y, v>_w <= |v|_w^2 / 2 for every vector of A_n
        # with coefficients in -2..2
        half = 0.5 * (vecs**2) @ w
        assert np.all(verts @ (w[:, None] * vecs.T) <= half * (1 + 1e-12))
        # each vertex lies on exactly the |S| |T| bisectors of e_i - e_j, i in S,
        # j off it
        tight = np.isclose(verts @ (w[:, None] * circuits.T),
                           0.5 * (circuits**2) @ w, rtol=1e-12, atol=0.0)
        sizes = splits.sum(axis=1)
        assert np.array_equal(tight.sum(axis=1), sizes * (m - sizes))
        norms = np.sqrt(np.sum(w * verts**2, axis=1))
        assert np.max(norms) == pytest.approx(
            float(mg.root_lattice_covering_radius(w)), rel=1e-13)


@pytest.mark.parametrize("n", range(1, 9))
def test_closed_form_unit_weights_is_root_lattice_covering_radius(n):
    m = n + 1
    a = m // 2
    got = float(mg.root_lattice_covering_radius(np.ones(m)))
    assert abs(got - math.sqrt(a * (m - a) / m)) <= 1e-14


def test_closed_form_on_deep_fiber_tori_matches_60_digits():
    # n = 3 at rho2 1.0 and 1.1, where the weights span up to ~1e13
    for rho2 in (1.0, 1.1):
        for seed in (0, 1):
            base_r = sample_base(LevelSetSpec(3, 1.0, rho2), 60, seed)
            theta_w, eta_w = torus_metric_weights(base_r)
            for weights, diameters in ((eta_w, mg.pi1_fiber_diameters),
                                       (theta_w, pi2_fiber_diameters)):
                for row, value in zip(weights, diameters(base_r)):
                    exact = _mp_split_vertex_radius(row)
                    assert abs(value - exact) <= 1e-15 * exact


def test_closed_form_matches_planar_route_on_gate_6_samples():
    # the n = 2 sample sets of acceptance gate 6, through the planar route
    for rho1 in np.geomspace(1.0, 1e3, 7):
        base_r = sample_base(LevelSetSpec(2, float(rho1), 0.6), 25, seed=33)
        closed = mg.pi1_fiber_diameters(base_r)
        planar = np.array([mg.flat_torus_diameter(mg.FlatTorusSpec(_root_basis(2), w))
                           for w in torus_metric_weights(base_r)[1]])
        assert np.all(np.abs(closed - planar) <= 1e-12 * planar)


def test_fiber_tori_and_closed_form_bound():
    for n, rho2 in [(2, 0.55), (2, 0.8), (3, 0.55)]:
        spec = LevelSetSpec(n, 1.0, rho2)
        base_r = sample_base(spec, 8, seed=21)
        d1 = mg.pi1_fiber_diameters(base_r)
        assert d1.shape == (8,)
        assert np.all(d1 <= params.pi1_fiber_bound(spec) * (1 + 1e-9))
        d2 = pi2_fiber_diameters(base_r)
        assert d2.shape == (8,)
        assert np.all(d2 > 0)


def test_fiber_bound_scale():
    # rho1 enters the bound as 1/rho1 and the eta metric weights as 1/rho1^2
    a = LevelSetSpec(2, 1.0, 0.6)
    b = LevelSetSpec(2, 4.0, 0.6)
    da = float(mg.pi1_fiber_diameters(sample_base(a, 1, seed=3)[0]))
    db = float(mg.pi1_fiber_diameters(sample_base(b, 1, seed=3)[0]))
    assert db == pytest.approx(da / 4.0, rel=1e-9)
    assert params.pi1_fiber_bound(b) == pytest.approx(params.pi1_fiber_bound(a) / 4.0, rel=1e-12)


# -- distance to the anticanonical divisor --------------------------------------

def _rho2_ladder(n):
    """rho2 from 1.0001 times the threshold to the sampler's limit: 6.14 at
    n = 1, where the small radius e^{-2 pi^2 rho2^2} leaves the doubles, and
    about 8 beyond."""
    thr = feasibility_threshold(n)
    return [thr * 1.0001, thr * 1.01, thr * 1.5, 1.0, 2.5, 4.0, 6.0, 6.14 if n == 1 else 8.0]


@pytest.mark.parametrize("n", range(1, 9))
def test_divisor_offsets_match_a_50_digit_root(n):
    # 1e-13 relative wherever an offset is a normal double; at n = 1 past
    # rho2 ~6 it is subnormal, and two units of 2**-1074 is that grid.  From
    # rho2 ~1e9 the rounding residual of log c / 2n alone exceeds 709, while
    # the sqrt(t-) it scales is 0: h1 is 0 there, and so is h2 at n = 1
    for rho2 in _rho2_ladder(n) + [1e10, 1.3e11, 2.7e40, 5.9e152]:
        for got, want in zip(params.base_suprema(n, rho2)[:2], divisor_offsets_mp(n, rho2)):
            assert abs(mpmath.mpf(got) - want) <= max(1e-13 * want, 2 * 2.0 ** -1074), (n, rho2)


def test_divisor_offsets_need_a_regular_level_set():
    thr = feasibility_threshold(2)
    for rho2 in (0.5 * thr, thr):
        with pytest.raises(EmptyLevelSet, match="classified"):
            params.base_suprema(2, rho2)


@pytest.mark.parametrize("rho2", [0.45, 0.7, 2.5, 6.0])
def test_divisor_offsets_at_n1_are_the_sampled_pair(rho2):
    # at n = 1 the base is the two points (hi, lo) and (lo, hi), both extreme:
    # the pi1 offset is arcsin(lo), the pi2 offset rho2 arcsin(min_j |z_j| / rho2)
    # for z the pi2 image of the log-shape
    shape = sample_base(LevelSetSpec(1, 1.0, rho2), 2)
    lo = shape[0, 1]
    h1, h2 = params.base_suprema(1, rho2)[:2]
    assert h1 == math.asin(lo)  # one root for both
    torus_t = np.zeros((2, 1))
    if rho2 < 6:
        mod = float(np.min(np.abs(project_pi2(log_shape(shape), torus_t))))
    else:
        # lo^2 leaves the doubles, so does u_hi = log1p(-lo^2) / 2, and the
        # modulus sqrt(-u_hi / 2 pi^2) is lo / 2 pi to every digit a double holds
        with pytest.raises(ArithmeticError, match="pi2 modulus vanishes"):
            project_pi2(log_shape(shape), torus_t)
        mod = lo / (2 * math.pi)
    assert rho2 * h2 == pytest.approx(rho2 * math.asin(mod / rho2), rel=1e-12)


# 60 examples, about 0.1 s
@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), excess=st.floats(-4.0, 2.0), seed=st.integers(0, 2**32 - 1))
def test_divisor_offsets_bound_every_sample_and_are_attained(n, excess, seed):
    # rho2^2 exceeds the threshold by 10^excess of itself.  The roots are read
    # back from the offsets: t- = sin(h1)^2 and -log t+ = (2 pi rho2 sin h2)^2
    rho2 = feasibility_threshold(n) * math.sqrt(1.0 + 10.0 ** excess)
    h1, h2 = params.base_suprema(n, rho2)[:2]
    t_lo = math.sin(h1) ** 2
    t_hi = math.exp(-(2 * math.pi * rho2 * math.sin(h2)) ** 2)
    assert t_lo < 1 / (n + 1) < t_hi
    # brute force: no sampled base point lies beyond either extreme (at
    # n = 1 the sample is the extremal pair itself)
    x2 = sample_base(LevelSetSpec(n, 1.0, rho2), 48, seed) ** 2
    slack = 8 * np.finfo(float).eps
    assert np.all(np.min(x2, axis=1) <= t_lo * (1 + slack))
    assert np.all(np.max(x2, axis=1) >= t_hi * (1 - slack))
    # both extremal vertices lie on B = {sum q = 1, sum log q = log c}: each
    # is built on one constraint and checked against the other in the form
    # that keeps its digits, (t-, .., t-, 1 - n t-) in logs and
    # (t+, .., t+, c / t+^n) in the sum
    with mpmath.workdps(50):
        log_c = -4 * mpmath.pi ** 2 * mpmath.mpf(rho2) ** 2
        t = mpmath.sin(mpmath.mpf(h1)) ** 2
        assert abs(n * mpmath.log(t) + mpmath.log1p(-n * t) - log_c) <= 1e-12 * abs(log_c)
        t = mpmath.exp(-(2 * mpmath.pi * mpmath.mpf(rho2) * mpmath.sin(mpmath.mpf(h2))) ** 2)
        assert abs(n * t + mpmath.exp(log_c) / t ** n - 1) <= 1e-13


# -- the fiber suprema over the base ----------------------------------------------

_EPS = np.finfo(float).eps


@pytest.mark.parametrize("n", range(1, 9))
def test_fiber_suprema_are_the_largest_kkt_candidate(n):
    # every two-value KKT point of S = sum 1/q on the base, j small
    # coordinates for j = 1..n, by a 50-digit search: j = 1 is the largest,
    # by a log-gap of 1e-10 at 1 + 1e-7 times the threshold and of at least
    # 1 from 1.5 times it.  The shipped pi2 supremum is within 1 ulp of its
    # closed form there, and the pi1 one, whose S leaves the doubles from
    # rho2 ~5.5, within 8 eps at every depth (6.5 eps at worst in a scan of
    # 2,500 points, n = 1..8, from 1 + 1e-10 times the threshold to rho2
    # 5.997; its exponent -log c / 2 is rounded once, with an exact remainder).
    # The accuracy is also checked in the degenerate band, rho2^2 1e-11 and
    # 1e-12 above the threshold's square, wherever the band leaves the level
    # set regular (at 1e-12 only for n = 3, 5, 6, 7)
    thr = feasibility_threshold(n)
    points = [rho2 for rho2 in (thr * (1 + 1e-7), thr * 1.01, thr * 1.5, 1.0, 2.5, 4.0, 5.0)
              if rho2 > thr * (1 + 1e-8)]
    for rho2 in points if n > 1 else ():
        log_s = kkt_log_sums_mp(n, rho2)
        gap = log_s[0] - max(log_s[1:])
        assert gap >= (1e-10 if rho2 < thr * 1.5 else 1.0), (n, rho2, gap)
    band = [rho2 for rho2 in (thr * math.sqrt(1 + 1e-11), thr * math.sqrt(1 + 1e-12))
            if feasibility(LevelSetSpec(n, 1.0, rho2)) == "regular"]
    assert band
    for rho2 in points + band:
        sup = params.base_suprema(n, rho2)
        pi1, pi2 = fiber_suprema_mp(n, rho2)
        assert abs(mpmath.mpf(sup.pi1_fiber) - pi1) <= 8 * _EPS * pi1, (n, rho2)
        assert abs(mpmath.mpf(sup.pi2_fiber) - pi2) <= _EPS * pi2, (n, rho2)


@pytest.mark.parametrize("n,rho2", [(1, 5.9), (2, 5.9), (8, 5.99), (1, 5.997), (4, 5.997),
                                    (4, 6.0), (6, 6.02), (2, 6.01), (6, 6.05), (1, 6.5),
                                    (8, 1e10)])
def test_pi1_fiber_supremum_past_the_doubles(n, rho2):
    # the pi1 supremum keeps its digits after d and S leave the doubles
    # (rho2 ~5.5), and is inf from where e^{2 pi^2 rho2^2} leaves them
    # (rho2 ~5.997), as pi1_fiber_bound does at every rho1, although it is
    # finite a little further at n >= 2 (to rho2 6.02 at n = 6)
    got = params.base_suprema(n, rho2).pi1_fiber
    if 2 * math.pi**2 * rho2**2 < math.log(np.finfo(float).max):
        want = fiber_suprema_mp(n, rho2)[0]
        assert abs(mpmath.mpf(got) - want) <= 8 * _EPS * want
    else:
        assert got == math.inf
        with pytest.raises(ArithmeticError, match="fiber bound"):
            params.pi1_fiber_bound(LevelSetSpec(n, 1e300, rho2))


# 72 points, n in {1..6, 8, 12}, rho2 from 1.0001 to 4 times the threshold and
# at most 5.5, where the pi1 supremum's S still is a double
_SUPREMA_GRID = [(n, f * feasibility_threshold(n)) for n in (1, 2, 3, 4, 5, 6, 8, 12)
                 for f in (1.0001, 1.001, 1.01, 1.05, 1.2, 1.5, 2.0, 3.0, 4.0)
                 if f * feasibility_threshold(n) <= 5.5]


def test_base_suprema_ulps_against_60_digit_oracles():
    # every fact within a few ulps of the references, on the grid: at worst
    # 18.7 (h1), 6.6 (h2), 2.9 (pi1) and 0.98 (pi2) ulp, h1 and h2 at n = 2,
    # 1.0001 times the threshold, where the root d amplifies k's rounding.
    # k = n^n c from a once-rounded log c read pi1 7.3 ulp off at n = 12
    assert len(_SUPREMA_GRID) == 72
    worst = dict.fromkeys(params.BaseSuprema._fields, 0.0)
    for n, rho2 in _SUPREMA_GRID:
        want = divisor_offsets_mp(n, rho2) + fiber_suprema_mp(n, rho2, digits=60)
        for name, got, ref in zip(worst, params.base_suprema(n, rho2), want):
            ulps = float(abs(mpmath.mpf(got) - ref)) / math.ulp(float(ref))
            worst[name] = max(worst[name], ulps)
    assert worst["h1"] <= 20 and worst["h2"] <= 8, worst
    assert worst["pi1_fiber"] <= 4 and worst["pi2_fiber"] <= 2, worst


@settings(max_examples=300, deadline=None)
@given(num=st.integers(-10**80, 10**80), den=st.integers(1, 10**80),
       x=st.floats(allow_nan=False, allow_infinity=False), near=st.booleans())
@example(num=-params._TWO_PI2[0] * 7, den=params._TWO_PI2[1] * 10 * 3, x=0.0, near=True)
def test_exact_minus_is_the_rounded_rational_difference(num, den, x, near):
    # the exponents' residuals num / den - x, in ints alone, are the Fraction
    # difference rounded once, bit for bit (repr tells -0.0 from 0.0); near
    # takes x as num / den rounded, the residual base_suprema forms, where
    # the difference cancels
    if near:
        x = num / den
    want = float(Fraction(num, den) - Fraction(x))
    assert repr(params._exact_minus(num, den, x)) == repr(want)


@pytest.mark.parametrize("n", [143, 144, 160, 200])
def test_base_suprema_where_n_to_the_n_leaves_the_doubles(n):
    # n^n is above the largest double from n = 144, and c = e^{-4 pi^2 rho2^2}
    # is subnormal near the threshold from n = 142; k = n^n c is formed as
    # (n c^{1/n})^n, so neither enters.  At 1.001 to 1.05 times the
    # threshold the offsets and the pi2 supremum are within 1e-15 relative of
    # the 50-digit helpers (1.8e-16 at worst read), and the pi1 one within
    # 2e-14 (6.6e-15 at worst, n = 144 at 1.001): the KKT root amplifies k's
    # error near the threshold, where t- and t+ close in
    for factor in (1.001, 1.01, 1.05):
        rho2 = factor * feasibility_threshold(n)
        got = params.base_suprema(n, rho2)
        want = divisor_offsets_mp(n, rho2) + fiber_suprema_mp(n, rho2)
        for name, value, ref, bound in zip(got._fields, got, want, (1e-15, 1e-15, 2e-14, 1e-15)):
            assert abs(mpmath.mpf(value) - ref) <= bound * ref, (n, factor, name)


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
def test_pi2_fiber_supremum_is_pi_at_odd_n(n):
    # m = n + 1 even: sqrt(1 - (m mod 2) / S) is 1 at every base point
    for rho2 in (feasibility_threshold(n) * 1.01, 1.0, 3.0, 7.0):
        assert params.base_suprema(n, rho2).pi2_fiber == math.pi


# 60 examples, about 0.1 s
@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), excess=st.floats(-4.0, 2.0), count=st.integers(1, 64),
       seed=st.integers(0, 2**32 - 1))
def test_fiber_suprema_bound_every_sample(n, excess, count, seed):
    # rho2^2 exceeds the threshold by 10^excess of itself.  No sampled base
    # point's fiber is wider than the supremum.  The solve meets the sphere
    # to ~170 eps, so each row is put back on it first; then the pi2 fibers
    # stay within 4 eps and the pi1 ones, whose logs carry the rounding of
    # log c in both, within 4 eps max(1, |log c|) (n = 1 samples the two
    # extremal points themselves; 30 eps at worst in 3,000 scratch draws)
    rho2 = feasibility_threshold(n) * math.sqrt(1.0 + 10.0 ** excess)
    sup = params.base_suprema(n, rho2)
    shape = sample_base(LevelSetSpec(n, 1.0, rho2), count, seed)
    shape /= np.linalg.norm(shape, axis=1)[:, None]
    log_c = 4 * math.pi**2 * rho2 * rho2
    assert np.max(mg.pi1_fiber_diameters(shape)) <= sup.pi1_fiber * (1 + 4 * _EPS * max(1, log_c))
    assert np.max(pi2_fiber_diameters(shape)) <= sup.pi2_fiber * (1 + 4 * _EPS)


def test_hn_distance_matches_the_scalar_distance_minimized_by_hand():
    z = _sphere_rows(6, 2, seed=15, lam=1.0)
    for i in range(6):
        for j in range(i + 1, 6):
            # independent reference: the scalar projective distance minimized
            # over the finite phase group by hand
            ref = min(mg.fubini_study_distance(CPnPoint(z[i], 1.0),
                                               CPnPoint(z[j] * np.exp(2j * math.pi * g), 1.0))
                      for g in mg._quotient_phases(2))
            assert abs(mg.hn_distance(CPnPoint(z[i], 1.0), CPnPoint(z[j], 1.0)) - ref) < 1e-9


def test_quotient_phases_are_the_dual_kernel_components():
    # each row is a point of the dual map's kernel, the rows are pairwise
    # distinct modulo the diagonal circle, and there is one per component
    for n in range(1, 7):
        dual = np.array(lattice_maps(n).dual)
        scaled = mg._quotient_phases(n) * (n + 1)
        a = np.rint(scaled).astype(np.int64)
        assert np.array_equal(scaled, a) and np.all((a >= 0) & (a <= n))
        assert np.all(a @ dual.T % (n + 1) == 0)
        # x ~ y modulo the diagonal iff x - x_{n+1} = y - y_{n+1} mod 1
        classes = {tuple(row) for row in (a - a[:, -1:]) % (n + 1)}
        assert len(classes) == len(a) == kernel_data(dual).component_group_order
        if n <= 3:
            # every component meets the (1/(n+1))-grid: walk it for the kernel
            grid = np.array(list(itertools.product(range(n + 1), repeat=n + 1)))
            kernel = grid[np.all(grid @ dual.T % (n + 1) == 0, axis=1)]
            assert {tuple(row) for row in (kernel - kernel[:, -1:]) % (n + 1)} == classes


def test_hn_distance_refuses_representatives_it_cannot_measure():
    p = CPnPoint(_sphere_rows(1, 2, seed=6)[0], 1.0)
    # a zero representative and non-finite entries are refused by CPnPoint
    for bad in ([0, 0, 0], [np.nan, 1, 0], [0, np.inf, 0]):
        with pytest.raises(ValueError, match="finite, nonzero representative"):
            CPnPoint(bad, 1.0)
    # finite entries whose norm overflows, or underflows to 0, by the distance
    for bad in ([1e200, 1e200, 0], [1e-200, 1e-200, 0]):
        with pytest.raises(ValueError, match="representatives of finite, nonzero norm"):
            mg.hn_distance(p, CPnPoint(bad, 1.0))
        with pytest.raises(ValueError, match="representatives of finite, nonzero norm"):
            mg.hn_distance(CPnPoint(bad, 1.0), p)
    # the phase group starts at n = 1
    with pytest.raises(ValueError, match=r"for n in 1\.\.7 only, got n = 0"):
        mg._quotient_phases(0)


def test_hn_distance_vanishes_on_phase_group_orbits():
    # arccos of an overlap one ulp below 1 is 1.5e-8; the kernel's arcsin
    # branch resolves these pairs to rounding level
    rng = np.random.default_rng(4)
    for n in (1, 2, 3):
        for _ in range(5):
            z = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
            p = CPnPoint(z / np.linalg.norm(z), 1.0)
            for g in mg._quotient_phases(n):
                q = CPnPoint(p.z * np.exp(2j * math.pi * g), 1.0)
                assert mg.hn_distance(p, q) < 1e-12



def _rows_with_orbit_pairs(n, seed):
    """Five unit rows of C^{n+1}: three at random and the first one moved by
    two elements of the phase group, whose distance to it is 0."""
    z = _sphere_rows(5, n, seed)
    phases = mg._quotient_phases(n)
    z[3] = z[0] * np.exp(2j * math.pi * phases[-1])
    z[4] = z[0] * np.exp(2j * math.pi * phases[len(phases) // 2])
    return z


@pytest.mark.parametrize("n", range(1, 7))
def test_hn_matrix_blocks_equal_the_per_phase_minimum(n):
    # hn_distance, one product over the whole phase group, reads the
    # per-phase loop's off-diagonal entries to rounding, the arcsin branch of
    # the orbit pairs included
    z = _rows_with_orbit_pairs(n, seed=20 + n)
    want = per_phase_hn_matrix(z, 1.0)
    got = {(i, j): mg.hn_distance(CPnPoint(z[i], 1.0), CPnPoint(z[j], 1.0))
           for i, j in itertools.combinations(range(len(z)), 2)}
    for (i, j), d in got.items():
        assert abs(d - want[i, j]) <= 1e-15
    assert got[0, 3] < 1e-12 and got[0, 4] < 1e-12


def test_hn_distance_answers_at_the_largest_phase_group():
    # n = 7: 262,144 phases, minimized in one product
    p, q = (CPnPoint(z, 1.0) for z in _sphere_rows(2, 7, seed=9))
    moved = CPnPoint(p.z * np.exp(2j * math.pi * mg._quotient_phases(7)[12345]), 1.0)
    assert 0.0 < mg.hn_distance(p, q) <= math.pi / 2
    assert mg.hn_distance(p, moved) < 1e-12


# -- chords ------------------------------------------------------------------------

# rows in the chord kernel's first row block of a square count: its one
# plane of pairs fits the byte budget
_STEP = math.isqrt(mg._block_pairs(1))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), count=st.integers(1, 400), dim=st.integers(1, 7))
@example(seed=1, count=_STEP - 1, dim=3)
@example(seed=2, count=_STEP, dim=3)
@example(seed=3, count=_STEP + 1, dim=7)
@example(seed=4, count=3 * _STEP + 1, dim=1)
def test_chord_eccentricities_are_the_broadcast_row_maxima(seed, count, dim):
    # the all-pairs broadcast, summed along its last axis, is the reference;
    # up to 400 rows span several row blocks (the examples straddle their
    # edges), each pair met once, and below 8 coordinates numpy adds a row
    # in turn, as the kernel does
    pts = np.random.default_rng(seed).uniform(-1.0, 1.0, (count, dim))
    diff = pts[:, None, :] - pts[None, :, :]
    want = np.max(np.sqrt(np.sum(diff * diff, axis=2)), axis=1)
    assert np.array_equal(mg.chord_eccentricities(pts), want)


# -- the degenerate metric's limit torus ------------------------------------------

F_ETA_2 = np.array(lattice_maps(2).primal_t, dtype=float)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 5), seed=st.integers(0, 10**6), count=st.integers(1, 20))
def test_l1_lattice_minimum_matches_a_brute_force_box(n, seed, count):
    # min over w in delta + Z^n of sum |w_i| + |sum w_i|: every translate
    # in the box delta + {-2..1}^n, against the n + 1 candidates
    rng = np.random.default_rng(seed)
    delta = rng.uniform(0.0, 1.0, (count, n))
    delta[:, 0] = np.floor(delta[:, 0] * 4) / 4  # ties and zeros too
    v = mg._l1_lattice_vectors(delta.T).T  # coordinate-first
    assert np.max(np.abs(np.sum(v, axis=1))) <= 1e-12  # an eta move: sum v = 0
    box = np.array(list(itertools.product(range(-2, 2), repeat=n)))
    w = delta[:, None, :] + box[None]
    brute = np.min(np.sum(np.abs(w), axis=2) + np.abs(np.sum(w, axis=2)), axis=1)
    assert np.max(np.abs(np.sum(np.abs(v), axis=1) - brute)) <= 1e-12
    # v = F_eta w for a translate w of delta, both sorted descending
    shift = v[:, :n] + np.sort(-delta, axis=1)
    assert np.array_equal(shift, np.round(shift))


def _base_curve_q(rho2, count):
    """count points q = s^2 of the n = 2 base {sum q = 1, sum log q = log c},
    evenly spaced in angle about the centre of the plane sum q = 1, in order
    along the closed curve: each ray's crossing by bisection."""
    log_c = -4 * math.pi**2 * rho2**2
    e1, e2 = np.array([1.0, -1.0, 0.0]) / math.sqrt(2), np.array([1.0, 1.0, -2.0]) / math.sqrt(6)
    phi = np.arange(count) * 2 * math.pi / count
    d = np.cos(phi)[:, None] * e1 + np.sin(phi)[:, None] * e2
    lo, hi = np.zeros(count), 1.0 / 3 / -np.min(d, axis=1)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        with np.errstate(divide="ignore", invalid="ignore"):  # q_i rounded to <= 0: outside
            inside = np.sum(np.log(1 / 3 + mid[:, None] * d), axis=1) >= log_c
        lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
    return 1 / 3 + lo[:, None] * d


@pytest.mark.parametrize("n,rho2", [(2, 0.45), (2, 0.6), (3, 0.7), (4, 0.8)])
def test_l1_norm_is_below_every_base_norm(n, rho2):
    # Cauchy-Schwarz: |v|_1 / (2 pi rho2) <= |v|_q at every base point, for
    # every eta move, so f_lo never exceeds the norm of any fixed base point
    q = sample_base(LevelSetSpec(n, 1.0, rho2), 2000, seed=n) ** 2
    rng = np.random.default_rng(n)
    f_eta = np.array(lattice_maps(n).primal_t, dtype=float)
    v = rng.uniform(-0.5, 0.5, (50, n)) @ f_eta.T
    l1 = np.sum(np.abs(v), axis=1) / (2 * math.pi * rho2)
    norms = np.sqrt((v * v) @ (1.0 / q).T) / (2 * math.pi * rho2)
    assert np.all(l1 <= np.min(norms, axis=1))


@pytest.mark.parametrize("rho2", [0.45, 0.6, 1.0])
def test_limit_torus_bounds_hold_the_support_function_gauge(rho2):
    # |v|_F is the gauge of the hull of the balls {u in V : |u|_q <= 1} over
    # the base, whose support function in the direction y is
    # 2 pi rho2 max_q sqrt(Var_q y): from 1,000 base points and 1,440
    # directions of V (every 30 degrees among them, where the projected sign
    # vectors point: the l1 ball's dual vertices, which the sup over y reaches
    # where q* lies in K) it lies in [f_lo, f_hi], and equals f_lo = f_hi where
    # q* = |v| / |v|_1 lies in K (no zero move).  Moves with a zero entry put
    # q* outside K near the threshold, where f_lo is strictly below
    q = _base_curve_q(rho2, 1000)
    e1, e2 = np.array([1.0, -1.0, 0.0]) / math.sqrt(2), np.array([1.0, 1.0, -2.0]) / math.sqrt(6)
    ang = np.arange(1440) * 2 * math.pi / 1440
    y = np.cos(ang)[:, None] * e1 + np.sin(ang)[:, None] * e2
    support = 2 * math.pi * rho2 * np.sqrt(np.max((y * y) @ q.T - (y @ q.T) ** 2, axis=1))
    rng = np.random.default_rng(3)
    moves = np.vstack([rng.uniform(-0.2, 0.2, (6, 2)), [[0.1, 0.0], [0.0, -0.15], [0.1, -0.1]]])
    for w in moves:
        gauge = np.max(y @ (F_ETA_2 @ w) / support)
        f_lo, f_hi = (float(ecc[0]) for ecc in mg.limit_torus_bounds(np.array([[0.0, 0.0], w]),
                                                                       rho2))
        assert f_lo * (1 - 5e-6) <= gauge <= f_hi * (1 + 5e-6)
        if np.all(F_ETA_2 @ w != 0):
            assert f_lo == f_hi
    if rho2 == 0.45:
        f_lo, f_hi = mg.limit_torus_bounds(np.array([[0.0, 0.0], [0.1, 0.0]]), rho2)
        assert f_hi[0] > f_lo[0] * (1 + 1e-4)


@pytest.mark.parametrize("excess", [1.05, 1.0, 0.5])
def test_limit_torus_bounds_refuses_a_level_set_that_is_not_regular(excess):
    # n is the width of t: (N, 4) rows at 1.05 times the n = 2 threshold lie
    # below the n = 4 one, where K is empty and the bisection would take the
    # log of a negative number.  At the n = 4 threshold itself K is one point
    torus_t = draw_torus(4, 20, 0)[:, 4:]
    n = 2 if excess == 1.05 else 4
    with pytest.raises(EmptyLevelSet, match="n=4 .* classified '(empty|degenerate)'"):
        mg.limit_torus_bounds(torus_t, feasibility_threshold(n) * excess)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
@pytest.mark.parametrize("near", [True, False])
def test_limit_torus_bounds_blocks_equal_the_gathered_pairs(n, near):
    # one row block holds up to `step` x `step` pairs, n + 1 planes of them
    # within the byte budget: counts around it and past three of them cross
    # the block edges.  At 1.001x the threshold most pairs lie outside K, so
    # every block feeds the one bisection; at n = 7
    # a move's n + 1 = 8 entries, which numpy would add pairwise along a row,
    # are added in turn on both sides.  The row maxima are those of the
    # gathered (N, N) bounds, bitwise
    step = math.isqrt(mg._block_pairs(n + 1))
    rho2 = feasibility_threshold(n) * 1.001 if near else 0.55 + 0.05 * n
    for count in (1, 2, step - 1, step, step + 1, 3 * step + 1):
        torus_t = draw_torus(n, count, count)[:, n:]
        ecc_lo, ecc_hi = mg.limit_torus_bounds(torus_t, rho2)
        f_lo, f_hi, outside = gathered_pair_bounds(torus_t, rho2)
        assert np.array_equal(ecc_lo, np.max(f_lo, axis=1))
        assert np.array_equal(ecc_hi, np.max(f_hi, axis=1))
        assert np.all(f_lo <= f_hi)
        if near and count > step:
            assert outside > count * (count - 1) // 4


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 6), excess=st.sampled_from([1.001, 1.05, 2.0]),
       count=st.integers(2, 64), seed=st.integers(0, 10**6), repeats=st.booleans())
@example(n=2, excess=1.001, count=64, seed=1, repeats=False)
@example(n=3, excess=1.05, count=64, seed=2, repeats=True)
@example(n=6, excess=1.001, count=64, seed=3, repeats=False)
@example(n=2, excess=8.0 / feasibility_threshold(2), count=50, seed=7, repeats=True)
def test_limit_torus_prefilter_never_changes_a_bound(n, excess, count, seed, repeats):
    # pairs certified inside K take no logs; the gathered reference takes
    # them on every pair.  Near the threshold most pairs are outside K, at
    # twice it most are certified.  At n = 2 and rho2 ~ 8, c^(1/3) ~ e^(-842)
    # underflows, so no pair is certified.  A row that repeats a coordinate
    # of another gives a zero move entry (log q* = -inf, outside K even at
    # rho2 = 8), a duplicate row l1 = 0
    rho2 = feasibility_threshold(n) * excess
    torus_t = draw_torus(n, count, seed)[:, n:].copy()
    if repeats:
        torus_t[1, 0] = torus_t[0, 0]
        torus_t[-1] = torus_t[0]
    ecc_lo, ecc_hi = mg.limit_torus_bounds(torus_t, rho2)
    f_lo, f_hi, _ = gathered_pair_bounds(torus_t, rho2)
    assert np.array_equal(ecc_lo, np.max(f_lo, axis=1))
    assert np.array_equal(ecc_hi, np.max(f_hi, axis=1))


@pytest.mark.parametrize("budget", [1, 7, mg._BLOCK_BYTES, 1 << 16, 1 << 22])
def test_block_size_is_a_pure_performance_choice(budget, monkeypatch):
    # every kernel sized by _BLOCK_BYTES returns the same bits at any budget,
    # one pair per block included (a budget below one pair's 8 bytes); n = 2
    # at 1.001x the threshold puts most pairs outside K
    torus_t = {n: draw_torus(n, 90, n)[:, n:] for n in (2, 5)}
    points = np.random.default_rng(5).uniform(-1.0, 1.0, (90, 3))

    def kernels():
        return (*mg.limit_torus_bounds(torus_t[2], feasibility_threshold(2) * 1.001),
                *mg.limit_torus_bounds(torus_t[2], 0.6),
                *mg.limit_torus_bounds(torus_t[5], feasibility_threshold(5) * 1.05),
                mg.chord_eccentricities(points))

    want = kernels()
    monkeypatch.setattr(mg, "_BLOCK_BYTES", budget)
    for got, ref in zip(kernels(), want):
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("planes", [1, 3, 4, 5, 6, 7])
def test_row_blocks_fit_the_byte_budget(planes):
    # chords take one plane of pairs, limit_torus_bounds n + 1 at n = 2..6:
    # every row block covers the pairs (i, j >= i) once, in order, and its
    # temporaries of `planes` float64 planes fit the budget unless the block
    # is the one-row minimum
    for count in range(1, 1001):
        blocks = list(mg._row_blocks(count, planes))
        assert [r0 for r0, _ in blocks] == [0] + [r1 for _, r1 in blocks[:-1]]
        assert blocks[-1][1] == count
        for r0, r1 in blocks:
            size = 8 * planes * (r1 - r0) * (count - r0)
            assert size <= mg._BLOCK_BYTES or r1 - r0 == 1
    assert mg._block_pairs(3) == 1 << 12  # n = 2: 3 x 4,096 float64 = 96 KiB


def test_limit_torus_bounds_memory_stays_in_blocks():
    # at N = 1,000 the peak read 3.3 MB: the block temporaries and the pairs
    # outside K.  One (N, N) array alone is 8 MB, and a whole-grid or
    # whole-pair-list temporary tens of MB more
    torus_t = draw_torus(2, 1000, 0)[:, 2:]
    tracemalloc.start()
    try:
        ecc_lo, ecc_hi = mg.limit_torus_bounds(torus_t, 0.6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(ecc_lo <= ecc_hi)
    assert peak < 5e6


def _dijkstra(adjacent, source):
    dist, heap = {source: 0.0}, [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for node, cost in adjacent(u):
            if d + cost < dist.get(node, math.inf):
                dist[node] = d + cost
                heapq.heappush(heap, (d + cost, node))
    return dist


@pytest.mark.parametrize("rho1", [1.0, 0.1, 0.03])
def test_product_grid_geodesics_lie_in_the_bracket(rho1):
    # the degenerate metric g = (rho1 / rho2)^2 |ds|^2 + sum deta_i^2 /
    # (4 pi^2 rho1^2 rho2^2 s_i^2) on a product grid: 24 points along the
    # n = 2 base curve (chords between neighbours) times a 12 x 12 torus grid
    # (eta moves along 16 primitive steps at a fixed base point).  Every
    # graph path's radial part is at least the chord and its eta part at
    # least the l1 bound, so its length is at least A_lo / rho1; and it lies
    # below A_hi / rho1, whose slack rho1^2 tau is 0.019 at rho1 = 0.03
    rho2, count, side = 0.6, 24, 12
    s = np.sqrt(_base_curve_q(rho2, count))
    steps = [(a, b) for a in range(-2, 3) for b in range(-2, 3) if math.gcd(a, b) == 1]
    eta = np.array([[math.sqrt(np.sum((F_ETA_2 @ np.array(st) / side) ** 2 / sk ** 2))
                     for st in steps] for sk in s]) / (2 * math.pi * rho2 * rho1)
    radial = rho1 / rho2 * np.linalg.norm(s - np.roll(s, -1, axis=0), axis=1)

    def adjacent(u):
        k, a, b = u
        yield ((k + 1) % count, a, b), radial[k]
        yield ((k - 1) % count, a, b), radial[k - 1]
        for (da, db), cost in zip(steps, eta[k]):
            yield (k, (a + da) % side, (b + db) % side), cost

    rng = np.random.default_rng(8)
    nodes = [tuple(int(x) for x in rng.integers(0, (count, side, side))) for _ in range(6)]
    shape = s[[k for k, _, _ in nodes]]
    torus_t = np.array([[a / side, b / side] for _, a, b in nodes])
    f_lo, f_hi, _ = gathered_pair_bounds(torus_t, rho2)
    chord = np.linalg.norm(shape[:, None] - shape[None], axis=-1) / rho2
    tau = mg.degenerate_limit(shape, torus_t, rho2).tau
    a_lo, a_hi = np.maximum(f_lo, rho1**2 * chord), f_hi + rho1**2 * tau
    for i in range(2):
        dist = _dijkstra(adjacent, nodes[i])
        d = rho1 * np.array([dist[node] for node in nodes])
        assert np.all(a_lo[i] <= d * (1 + 1e-12)) and np.all(d <= a_hi[i])


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 4), count=st.integers(2, 40), seed=st.integers(0, 10**6),
       excess=st.floats(1.05, 3.0), start=st.integers(-4, 0))
def test_degenerate_ngh_is_ordered_and_falls_as_rho1_squared(n, count, seed, excess, start):
    # 0 <= lower <= upper <= 1 at every rho1; below the cap the upper bound
    # is rho1^2 tau over a diameter sum that is constant once rho1^2 times
    # the largest chord stays below the largest f_lo, so over four decades
    # of rho1 its log-log slope is 2
    rho2 = feasibility_threshold(n) * excess
    shape = solve_base(LevelSetSpec(n, 1.0, rho2), draw_directions(n, count, seed))
    limit = mg.degenerate_limit(shape, draw_torus(n, count, seed)[:, n:], rho2)
    for rho1 in 10.0 ** np.arange(-300, 301, 50):
        ngh = mg.degenerate_ngh(limit, float(rho1))
        assert 0.0 <= ngh.lower <= ngh.upper <= 1.0
    # rho1^2 tau <= max f_lo / 100 keeps rho1^2 |s_i - s_j| / rho2 below it too
    top = math.sqrt(np.max(limit.ecc_lo) / limit.tau) / 10
    rho1s = top * 10.0 ** np.arange(start - 4, start + 1, dtype=float)
    uppers = [mg.degenerate_ngh(limit, float(rho1)).upper for rho1 in rho1s]
    slope = np.polyfit(np.log(rho1s), np.log(uppers), 1)[0]
    assert abs(slope - 2.0) <= 1e-9


def _grid_intervals(draw, count, scale):
    # starts and widths on a 1/8 grid: ties, touching endpoints and empty
    # widths; the scale brings rounding into every difference
    starts = draw(st.lists(st.integers(0, 16), min_size=count, max_size=count))
    widths = draw(st.lists(st.integers(0, 4), min_size=count, max_size=count))
    lo = scale * np.array(starts) / 8
    return lo, lo + scale * np.array(widths) / 8


@settings(max_examples=150, deadline=None)
@given(data=st.data(), na=st.integers(1, 12), nb=st.integers(1, 12),
       scale=st.floats(1e-3, 1e3), rho1=st.sampled_from([1e-3, 0.3, 1.0, 7.0]))
def test_interval_gaps_equal_the_explicit_gap_matrix(data, na, nb, scale, rho1):
    # each least gap is the row minimum of the N x M gap matrix, bitwise, and
    # degenerate_ngh's lower bound is its Hausdorff distance over the
    # diameter bound, as when the matrix was built
    a_lo, a_hi = _grid_intervals(data.draw, na, scale)
    b_lo, b_hi = _grid_intervals(data.draw, nb, scale)
    gap = np.maximum(np.maximum(a_lo[:, None] - b_hi[None, :], b_lo[None, :] - a_hi[:, None]), 0.0)
    assert np.array_equal(mg._nearest_gaps(a_lo, a_hi, b_lo, b_hi), np.min(gap, axis=1))
    assert np.array_equal(mg._nearest_gaps(b_lo, b_hi, a_lo, a_hi), np.min(gap, axis=0))
    assume(np.max(a_lo) > 0)  # some torus row apart from another: a positive diameter
    chord = data.draw(st.lists(st.integers(0, 16), min_size=na, max_size=na))
    limit = mg.DegenerateLimit(a_lo, a_hi, scale * np.array(chord) / 8, scale * 4.0)
    radial = min(rho1 * rho1, 1.0)
    flat = 1.0 if rho1 <= 1.0 else 1.0 / rho1 / rho1
    y_lo, y_hi = flat * a_lo, flat * a_hi
    x_lo, x_hi = np.maximum(y_lo, radial * limit.ecc_chord), y_hi + radial * limit.tau
    gap = np.maximum(np.maximum(x_lo[:, None] - y_hi[None, :], y_lo[None, :] - x_hi[:, None]), 0.0)
    want = cross_hausdorff(gap) / float(np.max(x_hi) + np.max(y_hi))
    assert mg.degenerate_ngh(limit, rho1).lower == want


def test_degenerate_ngh_of_one_point_is_point_like():
    # every eccentricity 0: the sample and its torus rows are one point
    # each, which compare at 0 by convention, as in ngh_distance
    limit = mg.DegenerateLimit(np.zeros(3), np.zeros(3), np.zeros(3), 4 * math.pi / 0.6)
    for rho1 in (1e-3, 1.0, 7.0):
        assert mg.degenerate_ngh(limit, rho1) == (0.0, 0.0, True)
    one = mg.degenerate_limit(np.full((1, 3), 1 / math.sqrt(3)), np.zeros((1, 2)), 0.6)
    assert mg.degenerate_ngh(one, 0.5) == (0.0, 0.0, True)


def test_degenerate_limit_needs_a_connected_base():
    # at n = 1 the base is two points: the degenerate distance between the
    # two components is infinite
    shape = sample_base(LevelSetSpec(1, 1.0, 0.7), 4)
    with pytest.raises(ArithmeticError, match="infinite at n = 1"):
        mg.degenerate_limit(shape, draw_torus(1, 4)[:, 1:], 0.7)
