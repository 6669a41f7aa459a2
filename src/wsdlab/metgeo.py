"""Finite-sample metric geometry: the distances of the two projective charts,
diameters, Hausdorff and Gromov-Hausdorff bounds, flat fiber tori and their
diameters, and samplers for the hypersurfaces the limit experiments compare
against.

Each chart has one distance kernel: fs_matrix for CP^n and hn_matrix for its
quotient by the dual-simplex phase group.  hn_distance is the 1x1 case of
hn_matrix; fubini_study_distance stays a scalar arccos formula, the
independent reference the kernels are tested against.

Gromov-Hausdorff distances are never claimed exactly; every comparison ships
as a certified (lower, upper) interval.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from .ambient import FOUR_PI2
from .polytope import finite_coset_representatives, lattice_maps, smith_normal_form
from .reduction import ReducedPoint, _stream


@dataclass(frozen=True)
class FiniteMetricSample:
    """Point sample in a named chart together with its distance matrix."""

    chart: str
    coords: np.ndarray
    dist: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.dist, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError("dist must be a square matrix")
        if d.shape[0] != len(self.coords):
            raise ValueError("dist size must match the point count")
        if d.size:
            if np.any(d < 0) or np.max(np.abs(np.diag(d))) != 0.0:
                raise ValueError("dist must be nonnegative with zero diagonal")
            if np.max(np.abs(d - d.T)) > 1e-12 * max(1.0, float(np.max(d))):
                raise ValueError("dist must be symmetric")
        object.__setattr__(self, "dist", d)
        object.__setattr__(self, "coords", np.asarray(self.coords))

    def __len__(self) -> int:
        return self.dist.shape[0]

    def triangle_defect(self, trials: int = 400, seed: int = 0) -> float:
        """Max of d(a,c) - d(a,b) - d(b,c) over random triples (<= 0 for a metric)."""
        n = len(self)
        if n < 3:
            return 0.0
        rng = np.random.default_rng(seed)
        worst = -math.inf
        for _ in range(trials):
            a, b, c = rng.choice(n, size=3, replace=False)
            worst = max(worst, self.dist[a, c] - self.dist[a, b] - self.dist[b, c])
        return worst


def diameter(s: FiniteMetricSample) -> float:
    if len(s) == 0:
        raise ValueError("diameter of an empty sample")
    return float(np.max(s.dist))


# -- pairwise distance helpers for the two projective charts -----------------

def _unit_rows(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    return z / np.linalg.norm(z, axis=1)[:, None]


def _angles(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Principal angles between unit rows.  arccos is ill conditioned near 0,
    so nearly aligned pairs are redone through the projection residual."""
    g = np.conj(u) @ v.T
    cos = np.clip(np.abs(g), 0.0, 1.0)
    ang = np.arccos(cos)
    ii, jj = np.nonzero(cos > 0.9999)
    if ii.size:
        resid = v[jj] - u[ii] * g[ii, jj][:, None]
        ang[ii, jj] = np.arcsin(np.clip(np.linalg.norm(resid, axis=1), 0.0, 1.0))
    return ang


@lru_cache(maxsize=16)
def _quotient_phases(n: int) -> np.ndarray:
    """Finite phase-group representatives for the dual-simplex quotient, rows in [0,1)^{n+1}."""
    reps = finite_coset_representatives(lattice_maps(n).dual)
    return np.array([[float(f) for f in rep] for rep in reps])


def fs_matrix(z: np.ndarray, rho: float, w: np.ndarray | None = None) -> np.ndarray:
    """Scaled projective distances between rows of z (and rows of w if given)."""
    u = _unit_rows(z)
    v = u if w is None else _unit_rows(w)
    d = rho * _angles(u, v)
    if w is None:
        np.fill_diagonal(d, 0.0)
        d = 0.5 * (d + d.T)
    return d


def hn_matrix(z: np.ndarray, rho: float, n: int, w: np.ndarray | None = None) -> np.ndarray:
    """Quotient distances: the finite phase group is minimized out exactly; the
    circle factor is a global phase that the overlap modulus already ignores."""
    u = _unit_rows(z)
    v = u if w is None else _unit_rows(w)
    best = None
    for phase in _quotient_phases(n):
        ang = _angles(u, v * np.exp(2j * math.pi * phase)[None, :])
        best = ang if best is None else np.minimum(best, ang)
    d = rho * best
    if w is None:
        np.fill_diagonal(d, 0.0)
        d = 0.5 * (d + d.T)
    return d


def fubini_study_distance(z, w, rho: float | None = None) -> float:
    """Distance rho * arccos(|<z,w>| / (|z||w|)) between two maps.CPnPoint;
    rho defaults to sqrt(z.lam)."""
    if rho is None:
        rho = math.sqrt(z.lam)
    overlap = abs(np.vdot(z.z, w.z)) / (np.linalg.norm(z.z) * np.linalg.norm(w.z))
    return rho * math.acos(min(1.0, overlap))


def hn_distance(p, q, rho: float | None = None) -> float:
    """Quotient distance between two maps.CPnPoint at the same scale: the 1x1
    case of hn_matrix; rho defaults to sqrt(lam)."""
    if abs(p.lam - q.lam) > 1e-8 * max(p.lam, q.lam):
        raise ValueError("quotient distance needs representatives at the same scale")
    if rho is None:
        rho = math.sqrt(p.lam)
    return float(hn_matrix(p.z[None, :], rho, p.n, q.z[None, :])[0, 0])


def projective_sample(z: np.ndarray, lam: float, chart: str) -> FiniteMetricSample:
    rho = math.sqrt(lam)
    if chart == "cpn":
        d = fs_matrix(z, rho)
    elif chart == "hn":
        d = hn_matrix(z, rho, z.shape[1] - 1)
    else:
        raise ValueError(f"unknown chart {chart!r}")
    return FiniteMetricSample(chart, z, d)


def hausdorff_distance(a: FiniteMetricSample, b: FiniteMetricSample,
                       dist_fn: Callable | None = None) -> float:
    """max(sup_a inf_b, sup_b inf_a) of the cross distances between two samples
    living in the same chart."""
    if a.chart != b.chart:
        raise ValueError(f"chart mismatch: {a.chart} vs {b.chart}")
    if dist_fn is not None:
        cross = np.array([[dist_fn(x, y) for y in b.coords] for x in a.coords])
    elif a.chart == "cpn":
        rho = _common_scale(a, b)
        cross = fs_matrix(a.coords, rho, b.coords)
    elif a.chart == "hn":
        rho = _common_scale(a, b)
        cross = hn_matrix(a.coords, rho, a.coords.shape[1] - 1, b.coords)
    else:
        raise ValueError("no distance function available for this chart")
    return hausdorff_from_cross(cross)


def hausdorff_from_cross(cross: np.ndarray) -> float:
    return float(max(np.max(np.min(cross, axis=1)), np.max(np.min(cross, axis=0))))


def _common_scale(a: FiniteMetricSample, b: FiniteMetricSample) -> float:
    na = float(np.mean(np.sum(np.abs(a.coords) ** 2, axis=1)))
    nb = float(np.mean(np.sum(np.abs(b.coords) ** 2, axis=1)))
    if abs(na - nb) > 1e-6 * max(na, nb):
        raise ValueError("samples sit on spheres of different scale")
    return math.sqrt(na)


# -- Gromov-Hausdorff bounds ---------------------------------------------------

def _profiles(dist: np.ndarray, k: int = 33) -> np.ndarray:
    """Per-point sorted-distance profiles resampled to a common length."""
    n = dist.shape[0]
    srt = np.sort(dist, axis=1)
    grid = np.linspace(0.0, 1.0, k)
    xs = np.linspace(0.0, 1.0, n) if n > 1 else np.array([0.0])
    return np.vstack([np.interp(grid, xs, row) for row in srt])


def _greedy_correspondence(da: np.ndarray, db: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full correspondence (index arrays into A and B) from greedy profile matching."""
    pa, pb = _profiles(da), _profiles(db)
    cost = np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=2)
    na, nb = cost.shape
    work = cost.copy()
    pairs = []
    for _ in range(min(na, nb)):
        i, j = np.unravel_index(np.argmin(work), work.shape)
        pairs.append((int(i), int(j)))
        work[i, :] = np.inf
        work[:, j] = np.inf
    matched_a = np.array([p[0] for p in pairs])
    matched_b = np.array([p[1] for p in pairs])
    ia, ib = list(matched_a), list(matched_b)
    if na > nb:
        left = np.setdiff1d(np.arange(na), matched_a)
        for i in left:
            near = matched_a[np.argmin(np.linalg.norm(pa[matched_a] - pa[i], axis=1))]
            ia.append(int(i))
            ib.append(int(matched_b[list(matched_a).index(near)]))
    elif nb > na:
        left = np.setdiff1d(np.arange(nb), matched_b)
        for j in left:
            near = matched_b[np.argmin(np.linalg.norm(pb[matched_b] - pb[j], axis=1))]
            ia.append(int(matched_a[list(matched_b).index(near)]))
            ib.append(int(j))
    return np.array(ia), np.array(ib)


def correspondence_distortion(da: np.ndarray, db: np.ndarray,
                              ia: np.ndarray, ib: np.ndarray) -> float:
    return float(np.max(np.abs(da[np.ix_(ia, ia)] - db[np.ix_(ib, ib)])))


def gh_bounds(a: FiniteMetricSample, b: FiniteMetricSample) -> tuple[float, float]:
    """Certified interval for the Gromov-Hausdorff distance of two samples.

    lower: half the diameter gap.  upper: half the distortion of a greedy
    mutual-nearest-neighbor correspondence on sorted-distance profiles (any
    correspondence certifies an upper bound; leftovers of the larger sample
    ride with their nearest matched profile).
    """
    if len(a) == 0 or len(b) == 0:
        raise ValueError("gh_bounds needs nonempty samples")
    da, db = a.dist, b.dist
    lower = 0.5 * abs(float(np.max(da)) - float(np.max(db)))
    ia, ib = _greedy_correspondence(da, db)
    upper = 0.5 * correspondence_distortion(da, db, ia, ib)
    return lower, upper


class NghBounds(NamedTuple):
    lower: float
    upper: float
    point_like: bool = False


def ngh_distance(a: FiniteMetricSample, b: FiniteMetricSample) -> NghBounds:
    """Diameter-normalized GH interval 2 d_GH / (diam a + diam b); two genuine
    points compare at 0 by convention."""
    da, db = diameter(a), diameter(b)
    total = da + db
    if total == 0.0:
        return NghBounds(0.0, 0.0, point_like=True)
    lo, hi = gh_bounds(a, b)
    return NghBounds(2.0 * lo / total, 2.0 * hi / total)


# -- flat fiber tori -----------------------------------------------------------

@dataclass(frozen=True)
class FlatTorusSpec:
    """Flat torus R^span/lattice: generator columns in an ambient chart with a
    diagonal metric."""

    lattice_basis: np.ndarray   # (ambient_dim, rank) columns
    metric_diag: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.lattice_basis, dtype=float)
        if b.ndim != 2 or b.shape[1] == 0 or b.shape[0] < b.shape[1]:
            raise ValueError("lattice basis must have independent columns")
        w = np.asarray(self.metric_diag, dtype=float).reshape(b.shape[0])
        if np.any(w <= 0):
            raise ValueError("metric weights must be positive")
        object.__setattr__(self, "lattice_basis", b)
        object.__setattr__(self, "metric_diag", w)
        if np.linalg.matrix_rank(self.gram()) < b.shape[1]:
            raise ValueError("lattice basis must have independent columns")

    @property
    def rank(self) -> int:
        return self.lattice_basis.shape[1]

    def gram(self) -> np.ndarray:
        b = self.lattice_basis
        return b.T @ (self.metric_diag[:, None] * b)

    def euclidean_basis(self) -> np.ndarray:
        """Columns: the generators in a Euclidean frame of the span (chol of Gram)."""
        return np.linalg.cholesky(self.gram()).T


def _greedy_reduce(basis: np.ndarray, rounds: int = 60) -> np.ndarray:
    """Greedy (Lagrange-style) length reduction; Minkowski-reduced for rank <= 3."""
    b = basis.copy()
    k = b.shape[1]
    for _ in range(rounds):
        changed = False
        order = np.argsort(np.sum(b * b, axis=0))
        b = b[:, order]
        for i in range(k):
            for j in range(k):
                if i == j:
                    continue
                c = round(float(b[:, i] @ b[:, j]) / float(b[:, j] @ b[:, j]))
                if c != 0:
                    cand = b[:, i] - c * b[:, j]
                    if cand @ cand < b[:, i] @ b[:, i]:
                        b[:, i] = cand
                        changed = True
        if not changed:
            break
    return b[:, np.argsort(np.sum(b * b, axis=0))]


def _candidate_vectors(basis: np.ndarray, box: int = 1) -> np.ndarray:
    k = basis.shape[1]
    coeffs = np.array(list(itertools.product(range(-box, box + 1), repeat=k)))
    coeffs = coeffs[np.any(coeffs != 0, axis=1)]
    return coeffs @ basis.T


def _dist_to_lattice(points: np.ndarray, basis: np.ndarray, box: int = 2) -> np.ndarray:
    """Distance of each row to the lattice, via rounding plus a local coefficient box.

    Brute force and independent of the Voronoi computation, so the tests use
    it as the oracle for flat_torus_diameter."""
    coeff = np.linalg.lstsq(basis, points.T, rcond=None)[0].T
    base = np.floor(coeff)
    k = basis.shape[1]
    offsets = np.array(list(itertools.product(range(-box, box + 2), repeat=k)))
    best = None
    for off in offsets:
        delta = points - (base + off) @ basis.T
        d = np.sum(delta * delta, axis=1)
        best = d if best is None else np.minimum(best, d)
    return np.sqrt(best)


def flat_torus_diameter(spec: FlatTorusSpec) -> float:
    """Diameter of the flat torus, which is the covering radius of its period
    lattice: the max norm over the Voronoi vertices, for rank <= 3.

    The basis is greedy-reduced first; relevant vectors of a reduced basis in
    rank <= 3 live in the unit coefficient box, and every Voronoi vertex is an
    intersection of `rank` bisectors, solved in batch.
    """
    k = spec.rank
    if k > 3:
        raise ValueError("exact covering radius is implemented for rank <= 3 only")
    basis = _greedy_reduce(spec.euclidean_basis())
    if k == 1:
        return 0.5 * float(np.linalg.norm(basis[:, 0]))
    cands = _candidate_vectors(basis, box=1)
    half = 0.5 * np.sum(cands * cands, axis=1)
    combos = np.array(list(itertools.combinations(range(len(cands)), k)))
    mats = cands[combos]                      # (ncomb, k, k)
    rhs = half[combos]                        # (ncomb, k)
    dets = np.abs(np.linalg.det(mats))
    good = dets > 1e-10 * float(np.max(np.abs(cands))) ** k
    verts = np.linalg.solve(mats[good], rhs[good][..., None])[..., 0]
    # keep vertices inside the cell: <x, v> <= |v|^2/2 for every candidate
    inside = np.all(verts @ cands.T <= half[None, :] + 1e-9 * np.max(half), axis=1)
    if not np.any(inside):
        raise ArithmeticError("no Voronoi vertex found; lattice data degenerate")
    return float(np.max(np.linalg.norm(verts[inside], axis=1)))


def _saturated_image_basis(mat) -> np.ndarray:
    """Basis (columns) of span(mat) intersected with the integer lattice.

    With U M V = D the points M s landing in Z^{rows} are exactly
    s in V diag(1/d_i) Z^{cols}, so the subtorus period lattice picks up the
    quotient identifications the plain column lattice misses.
    """
    snf = smith_normal_form(mat)
    f = np.array(mat, dtype=float)
    v = np.array(snf.v, dtype=float)
    scale = np.array(snf.diagonal, dtype=float)
    if np.any(scale == 0):
        raise ValueError("embedding matrix must have full column rank")
    return f @ (v / scale[None, :])


def pi1_fiber_torus(p: ReducedPoint) -> FlatTorusSpec:
    """Fiber torus of the first projection at p: the eta-subtorus with the
    induced diagonal metric deta_i^2 / (4 pi^2 r_i^2)."""
    basis = _saturated_image_basis(lattice_maps(p.spec.n).primal_t.matrix)
    weights = 1.0 / (FOUR_PI2 * p.base_r**2)
    return FlatTorusSpec(basis, weights)


def pi2_fiber_torus(p: ReducedPoint) -> FlatTorusSpec:
    """Fiber torus of the second projection: the theta-subtorus, metric
    4 pi^2 r_i^2 dtheta_i^2."""
    basis = _saturated_image_basis(lattice_maps(p.spec.n).dual_t.matrix)
    weights = FOUR_PI2 * p.base_r**2
    return FlatTorusSpec(basis, weights)


def pi1_fiber_bound(p: ReducedPoint) -> float:
    """Closed-form fiber-diameter bound pi n^{-(n-1)/2} e^{2 pi^2 rho2^2} / rho1."""
    n = p.spec.n
    return math.pi * n ** (-(n - 1) / 2.0) * math.exp(2.0 * math.pi**2 * p.spec.rho2**2) / p.spec.rho1


# -- hypersurface samplers -----------------------------------------------------

def anticanonical_sample(n: int, chart: str, lam: float, count: int,
                         seed: int = 0) -> FiniteMetricSample:
    """Sample the union of coordinate hyperplane sections {z_j = 0} on the
    lam-sphere, round-robin over the n+1 components, uniformly per component."""
    if count <= 0:
        raise ValueError("count must be positive")
    rows = np.empty((count, n + 1), dtype=complex)
    for idx in range(count):
        j = idx % (n + 1)
        rng = _stream(seed, idx, 11)
        z = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        z[j] = 0.0
        z *= math.sqrt(lam) / np.linalg.norm(z)
        rows[idx] = z
    return projective_sample(rows, lam, chart)


def cy_hypersurface_sample(n: int, rho1: float, rho2: float, count: int,
                           seed: int = 0, retries: int = 20) -> FiniteMetricSample:
    """Sample the hypersurface prod z_i = e^{-4 pi^2 rho2^2} sum z_i^{n+1} in CP^n.

    Random rays fix z_1..z_n; the remaining coordinate solves a degree-(n+1)
    polynomial (numpy companion roots plus one Newton polish).  Both sides are
    homogeneous of the same degree, so representatives rescale freely onto the
    rho1^2-sphere.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    eps = math.exp(-4.0 * math.pi**2 * rho2**2)
    rows = np.empty((count, n + 1), dtype=complex)
    for idx in range(count):
        rng = _stream(seed, idx, 13)
        slot = idx % (n + 1)  # round-robin the solved coordinate for coverage
        for _ in range(retries):
            tail = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            prod_tail = complex(np.prod(tail))
            power_tail = complex(np.sum(tail ** (n + 1)))
            # eps t^{n+1} - prod_tail t + eps power_tail = 0 for the free coordinate t
            poly = np.zeros(n + 2, dtype=complex)
            poly[0] = eps
            poly[-2] = -prod_tail
            poly[-1] = eps * power_tail
            roots = np.roots(poly)
            roots = roots[np.isfinite(roots)]
            if roots.size == 0:
                continue
            # ray-to-curve pushforward piles up on the branches through the
            # corner points; weight branches by angular spread to compensate
            w = 1.0 / (1.0 + np.abs(roots) ** 2 / float(np.sum(np.abs(tail) ** 2)))
            if not np.all(np.isfinite(w)) or w.sum() == 0:
                continue
            t = roots[int(rng.choice(roots.size, p=w / w.sum()))]
            # a few Newton steps sharpen the companion-matrix root
            for _ in range(3):
                f = eps * t ** (n + 1) - prod_tail * t + eps * power_tail
                df = (n + 1) * eps * t**n - prod_tail
                if df == 0:
                    break
                t -= f / df
            z = np.insert(tail, slot, t)
            norm = np.linalg.norm(z)
            if not np.isfinite(norm) or norm == 0:
                continue
            z *= rho1 / norm
            if cy_residual(z, rho2) < 1e-9:
                rows[idx] = z
                break
        else:
            raise RuntimeError(f"hypersurface sampling failed for index {idx}")
    return projective_sample(rows, rho1**2, "cpn")


def cy_residual(z: np.ndarray, rho2: float) -> float:
    """Scale-normalized modulus of prod z_i - e^{-4 pi^2 rho2^2} sum z_i^{n+1}."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    eps = math.exp(-4.0 * math.pi**2 * rho2**2)
    val = complex(np.prod(z)) - eps * complex(np.sum(z ** z.size))
    scale = float(np.sum(np.abs(z) ** 2)) ** (z.size / 2.0)
    return abs(val) / scale


# -- graph geodesics -----------------------------------------------------------

def riemannian_knn_distances(points: np.ndarray, metric_at: Callable,
                             k: int = 12, periodic: np.ndarray | None = None) -> np.ndarray:
    """All-pairs geodesic estimates through a k-nearest-neighbor graph.

    Edge lengths are chords under the averaged endpoint metrics; coordinates
    flagged periodic difference through the wrapped representative.  This is
    manifold-sampling practice, not a certified approximation.
    """
    pts = np.asarray(points, dtype=float)
    npts = pts.shape[0]
    if k >= npts:
        k = npts - 1
    diffs = pts[:, None, :] - pts[None, :, :]
    if periodic is not None:
        mask = np.asarray(periodic, dtype=bool)
        diffs[..., mask] -= np.round(diffs[..., mask])
    gs = np.array([metric_at(x) for x in pts])
    w2 = np.empty((npts, npts))
    for i in range(npts):
        gbar = 0.5 * (gs[i][None] + gs)
        w2[i] = np.einsum("ja,jab,jb->j", diffs[i], gbar, diffs[i])
    w = np.sqrt(np.maximum(w2, 0.0))
    order = np.argsort(w, axis=1)
    rowidx = np.repeat(np.arange(npts), k)
    colidx = order[:, 1:k + 1].ravel()
    entries = w[rowidx, colidx]
    graph = csr_matrix((entries, (rowidx, colidx)), shape=(npts, npts))
    graph = graph.maximum(graph.T)
    return shortest_path(graph, method="D", directed=False)
