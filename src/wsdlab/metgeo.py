"""Finite-sample metric geometry: the distances of the two projective charts,
diameters, Gromov-Hausdorff bounds, flat-torus diameters, the exact
suprema over the base (each projection's distance to the anticanonical
divisor and largest fiber, base_suprema), and the degenerate metric's limit
torus, bracketed in closed form with no graph search.

The quotient chart has one distance kernel, hn_matrix, over the dual-simplex
phase group; hn_distance reads its two-row case (no command calls either),
and fubini_study_distance stays a scalar arccos formula, the independent
reference the kernel is tested against.

Every flat-torus diameter is one covering-radius formula,
root_lattice_covering_radius for the weighted root lattice A_n: both fiber
lattices are A_n, and a planar lattice is a weighted A_2 through its obtuse
superbase (flat_torus_diameter).

Gromov-Hausdorff distances are never claimed exactly; every comparison ships
as a certified (lower, upper) interval.  Every lower bound is one rule, the
Hausdorff distance between eccentricity intervals on the line, by sorting
(_interval_hausdorff): zero-width in gh_bounds, the limit bracket's per-row
maxima in degenerate_ngh.
"""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .ambient import FOUR_PI2, PI2, TWO_PI, torus_metric_weights
from .reduction import LevelSetSpec, _rising_root, _small_root, require_regular


class FiniteMetricSample(NamedTuple("FiniteMetricSample", [("dist", np.ndarray)])):
    """A finite metric space given by its distance matrix."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, dist):
        d = np.asarray(dist, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError("dist must be a square matrix")
        if d.size:
            if not np.all(np.isfinite(d)) or np.any(d < 0) or np.max(np.abs(np.diag(d))) != 0:
                raise ValueError("dist must be finite and nonnegative with zero diagonal")
            if np.max(np.abs(d - d.T)) > 1e-12 * max(1.0, float(np.max(d))):
                raise ValueError("dist must be symmetric")
        return super().__new__(cls, d)


def diameter(s: FiniteMetricSample) -> float:
    if len(s.dist) == 0:
        raise ValueError("diameter of an empty sample")
    return float(np.max(s.dist))


# -- pairwise distance helpers for the two projective charts -----------------

# entries per block of the pair and phase kernels (limit_torus_bounds,
# chord_eccentricities, hn_matrix), sized for the allocator: at n = 2 the
# largest block temporary, (n + 1) x 2^12 float64, is 96 KiB, below glibc's
# default 128 KiB mmap and trim thresholds, so the blocks reuse heap pages
# instead of mapping and faulting in fresh ones.  A pass of limit-complex
# n = 2 at 400 samples plus boundary took ~1,800 minor faults at 2^14,
# ~1,300 at 2^13 and none at 2^12 (nor limit_torus_bounds at n = 5); 2^11
# was slower again
_BLOCK_PAIRS = 1 << 12


def _angles(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Principal angles (B, N, M) between the unit rows of u (N, m) and those
    of each v[b] (B, M, m).  arccos is ill conditioned near 0, so nearly
    aligned pairs are redone through the projection residual."""
    g = np.conj(u) @ np.swapaxes(v, 1, 2)
    cos = np.clip(np.abs(g), 0.0, 1.0)
    ang = np.arccos(cos)
    bb, ii, jj = np.nonzero(cos > 0.9999)
    if ii.size:
        resid = v[bb, jj] - u[ii] * g[bb, ii, jj][:, None]
        ang[bb, ii, jj] = np.arcsin(np.clip(np.linalg.norm(resid, axis=1), 0.0, 1.0))
    return ang


# the quotient kernels enumerate the phase group: 262,144 phases at n = 7,
# 4,782,969 at n = 8
_MAX_PHASE_N = 7


def _quotient_phases(n: int) -> np.ndarray:
    """The finite phase group G of the dual-simplex quotient (Greene-Plesser),
    one row per element in [0,1)^{n+1}: a / (n+1) with a_1 .. a_{n-1} in 0..n,
    a_n = -(a_1 + .. + a_{n-1}) mod (n+1) and a_{n+1} = 0.

    Why it is G.  lattice_maps(n).dual sends x to ((n+1) x_k - sum x)_k,
    k = 1..n.  The identity component of its kernel is the diagonal circle,
    which takes x_{n+1} to 0 in each component.  Summing over k then gives
    sum x in Z, so every (n+1) x_k is in Z; conversely each such row is in
    the kernel, and two of them differ by a diagonal move only if it is
    integral.  Raises ValueError for n outside 1.._MAX_PHASE_N, before
    building any row."""
    m = n + 1
    if not 1 <= n <= _MAX_PHASE_N:
        raise ValueError(f"the quotient phase group, (n+1)^(n-1) elements, is enumerated "
                         f"for n in 1..{_MAX_PHASE_N} only, got n = {n}")
    a = np.zeros((m ** (n - 1), m), dtype=np.int64)
    a[:, :n - 1] = np.indices((m,) * (n - 1)).reshape(n - 1, m ** (n - 1)).T
    a[:, n - 1] = -np.sum(a, axis=1) % m
    return a / m


def hn_matrix(z: np.ndarray, rho: float) -> np.ndarray:
    """Quotient distances between the rows of z (N, n+1), n read from its
    width: the finite phase group is minimized out exactly; the circle
    factor is a global phase the overlap ignores.  Raises ValueError on a row
    whose norm is zero or not finite, and for n outside 1.._MAX_PHASE_N."""
    z = np.asarray(z, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # such rows are refused next
        norm = np.linalg.norm(z, axis=1)
    if not np.all((norm > 0) & (norm < math.inf)):
        raise ValueError("hn_matrix needs rows of finite, nonzero norm")
    u = z / norm[:, None]
    phases = _quotient_phases(z.shape[1] - 1)
    step = max(1, _BLOCK_PAIRS // (len(u) ** 2 or 1))
    best = np.full((len(u), len(u)), math.inf)
    for p0 in range(0, len(phases), step):
        moved = u * np.exp(2j * math.pi * phases[p0:p0 + step])[:, None, :]
        best = np.minimum(best, np.min(_angles(u, moved), axis=0))
    d = rho * best
    np.fill_diagonal(d, 0.0)
    return 0.5 * (d + d.T)


def _common_scale(p, q) -> float:
    """sqrt(lam) of two maps.CPnPoint of one dimension n at the same scale lam."""
    if p.n != q.n:
        raise ValueError(f"the distance needs points of one dimension, got n = {p.n} and {q.n}")
    if abs(p.lam - q.lam) > 1e-8 * max(p.lam, q.lam):
        raise ValueError("the distance needs representatives at the same scale")
    return math.sqrt(p.lam)


def fubini_study_distance(z, w) -> float:
    """Distance sqrt(lam) arccos(|<z,w>| / (|z||w|)) between two maps.CPnPoint
    at the same scale lam."""
    rho = _common_scale(z, w)
    overlap = abs(np.vdot(z.z, w.z)) / (np.linalg.norm(z.z) * np.linalg.norm(w.z))
    return rho * math.acos(min(1.0, overlap))


def hn_distance(p, q) -> float:
    """Quotient distance between two maps.CPnPoint at the same scale lam:
    entry [0, 1] of hn_matrix on the two rows, at scale sqrt(lam)."""
    rho = _common_scale(p, q)
    return float(hn_matrix(np.stack([p.z, q.z]), rho)[0, 1])


# -- Gromov-Hausdorff bounds ---------------------------------------------------

def _nearest_gaps(a_lo, a_hi, b_lo, b_hi) -> np.ndarray:
    """For each interval [a_lo, a_hi], its least gap max(a_lo - b_hi,
    b_lo - a_hi, 0) to the intervals [b_lo, b_hi] (every lo <= hi), bitwise
    the row minimum of that gap matrix without building it: the intervals
    starting at or below a_hi are nearest through the largest end among
    them, the rest through the smallest start, and rounding is monotone, so
    min_k fl(a - b_k) = fl(a - max_k b_k)."""
    order = np.argsort(b_lo)
    starts = np.append(b_lo[order], np.inf)
    reach = np.concatenate([[-np.inf], np.maximum.accumulate(b_hi[order])])
    k = np.searchsorted(starts, a_hi, side="right")
    return np.maximum(np.minimum(a_lo - reach[k], starts[k] - a_hi), 0.0)


def _interval_hausdorff(a_lo, a_hi, b_lo, b_hi) -> float:
    """The Hausdorff distance between two sets of intervals on the line taken
    over their least gaps (_nearest_gaps): a lower bound for that between
    any two sets with one point in each interval, and with zero-width
    intervals the point sets' own Hausdorff distance."""
    return float(max(np.max(_nearest_gaps(a_lo, a_hi, b_lo, b_hi)),
                     np.max(_nearest_gaps(b_lo, b_hi, a_lo, a_hi))))


def gh_bounds(a: FiniteMetricSample, b: FiniteMetricSample) -> tuple[float, float]:
    """Certified interval for the Gromov-Hausdorff distance of two samples
    (Memoli, DCG 48, 2012).

    lower: half the Hausdorff distance between the two eccentricity sets on
    the line, d_GH >= d_H(ecc_a, ecc_b) / 2, taken by _interval_hausdorff with
    zero-width intervals.  The largest eccentricity is the diameter, so it is
    never below half the diameter gap.  upper: half the distortion of a
    correspondence, d_GH <= dis(R) / 2, that pairs each point with the point
    of the same eccentricity rank in the other sample, ranks stretched to
    that sample's size.  Both bounds commute with a power-of-two rescale, and
    lower <= upper holds in floats: for a pair (x, y) of the correspondence,
    ecc(x) - ecc(y) is at most an entry of the distortion, and rounding is
    monotone.
    """
    da, db = a.dist, b.dist
    if len(da) == 0 or len(db) == 0:
        raise ValueError("gh_bounds needs nonempty samples")
    ea, eb = np.max(da, axis=1), np.max(db, axis=1)
    # pair k joins rank k * size // count of each sample: every rank is hit
    count = max(len(da), len(db))
    ranks = np.arange(count)
    ia = np.argsort(ea, kind="stable")[ranks * len(da) // count]
    ib = np.argsort(eb, kind="stable")[ranks * len(db) // count]
    lower = 0.5 * _interval_hausdorff(ea, ea, eb, eb)
    upper = 0.5 * float(np.max(np.abs(da[np.ix_(ia, ia)] - db[np.ix_(ib, ib)])))
    return lower, upper


class NghBounds(NamedTuple):
    lower: float
    upper: float
    point_like: bool = False


def ngh_distance(a: FiniteMetricSample, b: FiniteMetricSample) -> NghBounds:
    """Diameter-normalized GH interval 2 d_GH / (diam a + diam b) from
    gh_bounds; two genuine points compare at 0 by convention."""
    lo, hi = gh_bounds(a, b)
    total = diameter(a) + diameter(b)
    if total == 0.0:
        return NghBounds(0.0, 0.0, point_like=True)
    return NghBounds(2.0 * lo / total, 2.0 * hi / total)


# -- flat fiber tori -----------------------------------------------------------

class FlatTorusSpec(NamedTuple("FlatTorusSpec", [("lattice_basis", np.ndarray),
                                                  ("metric_diag", np.ndarray)])):
    """Flat torus R^span/lattice: generator columns (ambient_dim, rank) in an
    ambient chart with a diagonal metric."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, lattice_basis, metric_diag):
        b = np.asarray(lattice_basis, dtype=float)
        if b.ndim != 2 or b.shape[1] == 0 or b.shape[0] < b.shape[1]:
            raise ValueError("lattice basis must have independent columns")
        w = np.asarray(metric_diag, dtype=float).reshape(b.shape[0])
        if np.any(w <= 0):
            raise ValueError("metric weights must be positive")
        # positive weights cannot make independent columns dependent, so the
        # rank is tested on the basis itself: the weighted Gram's singular
        # values spread with the weights, not with any dependence
        if np.linalg.matrix_rank(b) < b.shape[1]:
            raise ValueError("lattice basis must have independent columns")
        return super().__new__(cls, b, w)

    @property
    def rank(self) -> int:
        return self.lattice_basis.shape[1]

    def gram(self) -> np.ndarray:
        b = self.lattice_basis
        return b.T @ (self.metric_diag[:, None] * b)

    def euclidean_basis(self) -> np.ndarray:
        """Columns: the generators in a Euclidean frame of the span (chol of Gram)."""
        return np.linalg.cholesky(self.gram()).T


def _greedy_reduce(basis: np.ndarray) -> np.ndarray:
    """Lagrange (greedy) reduction of a rank-2 basis: columns a, b with
    |a| <= |b| and |a.b| <= |a|^2 / 2.  Every swap shortens a, so it ends."""
    a, b = basis.T.copy()
    if a @ a > b @ b:
        a, b = b, a
    while True:
        b = b - round(float(a @ b) / float(a @ a)) * a
        if b @ b >= a @ a:
            return np.column_stack([a, b])
        a, b = b, a


def _dist_to_lattice(points: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Distance of each row to the lattice, via rounding down plus offsets -2..3.

    Brute force and independent of the covering-radius formula, so the tests
    use it as the oracle for flat_torus_diameter and the closed form."""
    coeff = np.linalg.lstsq(basis, points.T, rcond=None)[0].T
    base = np.floor(coeff)
    k = basis.shape[1]
    offsets = np.array(list(itertools.product(range(-2, 4), repeat=k)))
    best = None
    for off in offsets:
        delta = points - (base + off) @ basis.T
        d = np.sum(delta * delta, axis=1)
        best = d if best is None else np.minimum(best, d)
    return np.sqrt(best)


def root_lattice_covering_radius(weights: np.ndarray) -> np.ndarray:
    """Covering radius of A_n = {x in Z^m : sum x = 0} under the diagonal
    metric w, for each row w of an (N, m) weight array:

        R = sqrt(W - (m mod 2) / H) / 2,   W = sum w_i,  H = sum 1/w_i.

    The relevant vectors of weighted A_n are the circuits +-(e_i - e_j) of the
    two-vertex graph with m parallel edges (Bacher, de la Harpe and
    Nagnibeda, Bull. SMF 1997), and no other lattice vector v cuts the cell:
    for integer v, <y, v>_w <= sum w_i |v_i| / 2 <= |v|_w^2 / 2.  In z_i = w_i y_i
    the Voronoi cell is {z : z_i - z_j <= (w_i + w_j)/2, sum z_i / w_i = 0}.
    Two tight bisectors i -> j -> k cannot chain (their sum breaks i -> k), so
    every vertex comes from a split of the coordinates into nonempty S and
    its complement: z_i = lam + w_i/2 on S, z_i = lam - w_i/2 off it, with lam
    fixed by the sum constraint.  Its squared norm is
    W/4 - (m - 2|S|)^2 / (4H), largest at |S| = floor(m/2); there are
    2^m - 2 vertices (6 for the hexagon, 14 for the rhombic dodecahedron).
    The flat torus R^{m-1}/A_n has this covering radius as its diameter.
    """
    w = np.asarray(weights, dtype=float)
    m = w.shape[-1]
    return 0.5 * np.sqrt(np.sum(w, axis=-1) - (m % 2) / np.sum(1.0 / w, axis=-1))


def flat_torus_diameter(spec: FlatTorusSpec) -> float:
    """Diameter of a flat torus of rank 1 or 2, which is the covering radius of
    its period lattice.

    Rank 1 is half the generator.  In rank 2 a Lagrange-reduced basis a, b
    with a.b <= 0 (flip b if needed) gives the obtuse superbase a, b, -(a+b)
    (Conway and Sloane, Low-dimensional lattices VI, Proc. R. Soc. A 1992).
    Its Selling parameters w = (-a.b, |a|^2 + a.b, |b|^2 + a.b) are >= 0, and
    e_0 - e_1, e_2 - e_0 in the weighted A_2 with these weights have the Gram
    matrix of a, b, so the two lattices are isometric and
    root_lattice_covering_radius gives the answer.  A rectangular lattice has
    a zero parameter; the formula's limit there, sqrt(sum w) / 2, is what
    1/inf = 0 gives.
    """
    if spec.rank > 2:
        raise ValueError("flat torus diameter is implemented for rank <= 2 only")
    try:
        frame = spec.euclidean_basis()
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"flat torus Gram matrix is numerically singular ({exc})") from exc
    if spec.rank == 1:
        return 0.5 * float(np.linalg.norm(frame[:, 0]))
    a, b = _greedy_reduce(frame).T
    ab = abs(float(a @ b))
    weights = np.array([ab, float(a @ a) - ab, float(b @ b) - ab])
    with np.errstate(divide="ignore"):
        return float(root_lattice_covering_radius(weights))


def pi1_fiber_diameters(base_r: np.ndarray) -> np.ndarray:
    """Diameters of the first-projection fiber tori, one per row of an (N, n+1)
    radius array: the eta-subtorus, period lattice A_n, with the induced
    diagonal metric deta_i^2 / (4 pi^2 r_i^2)."""
    return root_lattice_covering_radius(torus_metric_weights(base_r)[1])


def pi1_fiber_bound(spec: LevelSetSpec) -> float:
    """Closed-form fiber-diameter bound pi n^{-(n-1)/2} e^{2 pi^2 rho2^2} / rho1.

    Raises ArithmeticError where the bound leaves the doubles: the exponential
    alone overflows from rho2 ~ 6.0.
    """
    n = spec.n
    try:
        bound = math.pi * n ** (-(n - 1) / 2.0) * math.exp(2.0 * PI2 * spec.rho2**2) / spec.rho1
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise ArithmeticError(f"fiber bound pi n^(-(n-1)/2) e^(2 pi^2 rho2^2) / rho1 overflows "
                              f"at rho2 = {spec.rho2:.6g}, rho1 = {spec.rho1:.6g}")
    return bound


# -- the sample-free suprema over the base --------------------------------------

class BaseSuprema(NamedTuple):
    """base_suprema's four facts of (n, rho2), at unit scale."""

    h1: float
    h2: float
    pi1_fiber: float
    pi2_fiber: float


def base_suprema(n: int, rho2: float) -> BaseSuprema:
    """(h1, h2, pi1_fiber, pi2_fiber): the sup over the pi1 resp. pi2 image of
    the distance to the divisor {z_j = 0}, and the sup over the base of the
    pi1 resp. pi2 fiber-torus diameter, at unit scale: rho1 h1, rho2 h2,
    pi1_fiber / rho1 and rho1 pi2_fiber at the images' scales.  Each is
    exact and reads no sample; the offsets are one side of the Hausdorff
    distance.

    Offsets.  That distance is arcsin(|z_j| / |z|) (Bengtsson and Zyczkowski,
    Geometry of Quantum States, CUP 2006, ch. 4) and every set is
    torus-invariant, so take q = x^2 on B = {sum q = 1, sum log q = log c},
    c = e^{-4 pi^2 rho2^2}, m = n+1.  For tau <= 1/m the concave sum log q is,
    on the simplex {sum q = 1, q >= tau}, smallest at its vertices
    (tau, .., tau, 1 - n tau) and largest at the centre, -m log m > log c
    (regularity).  So B meets it iff tau^n (1 - n tau) <= c, a side rising on
    (0, 1/m]: sup_B min q is the root t- < 1/m of t^n (1 - n t) = c, and
    h1 = arcsin(sqrt(t-)).  Alike on {sum q = 1, q <= T}, T in [1/m, 1/n),
    where q >= 1 - n T > 0 and T^n (1 - n T) falls: inf_B max q is the root
    t+ > 1/m.  Under pi2 |z_j|^2 = -log q_j / 4 pi^2 and |z| = rho2, so
    h2 = arcsin(sqrt(-log t+) / (2 pi rho2)).

    Fibers.  At radii rho1 x both fiber lattices are A_n, with the weights
    1 / (4 pi^2 rho1^2 q_i) (pi1) and 4 pi^2 rho1^2 q_i (pi2), so
    root_lattice_covering_radius gives, with S = sum 1/q_i and p = m mod 2,
    sqrt(S - p) / (4 pi rho1) and pi rho1 sqrt(1 - p / S): both rise with S.
    B is compact (every q_i >= c), so S has a maximum on it, and there the
    constraint gradients 1 and 1/q are independent (only the centre, which
    is not on B, makes them parallel): a KKT point.  With
    L = S - lam (sum q - 1) - mu (sum log q - log c), each 1/q_i is a root of
    P^2 + mu P + lam = 0, so q takes two values s < l (one is the centre),
    and mu = -(1/s + 1/l).  If two coordinates a, b equal s, then e_a - e_b
    is tangent to B (sum v = 0, sum v / q = 0), and on it the Lagrangian
    Hessian diag(2 / q^3 + mu / q^2) is 2 (1/s - 1/l) / s^2 > 0, so that
    point is no maximum.  So the maximum is (l, .., l, s), n l + s = 1,
    l^n s = c, l > s: l = t+, s = d = 1 - n t+, S_max = n^2 / (1 - d) + 1/d.

    sqrt(t-) is _small_root's, as in reduction.solve_base at n = 1; t+ =
    (1 - d) / n, d = k e^y, y / n + log1p(-d) = 0, so -log t+ = log n -
    log1p(-d) stays exact at n = 1.  k = n^n c is that product where c is
    normal and n^n a double (n <= 143).  Elsewhere it is (n c^{1/n})^n,
    c^{1/n} = e^{2h} e^{2 (half - h)}, half = log c / 2n exact and h its
    double, so no factor leaves the normal doubles (n c^{1/n} < 1 on a
    regular level set) and k's error is a few times n ulp; the root d
    amplifies it near the threshold, where t- and t+ close in.  As
    1/d = ((1 - d) / n)^n / c, the pi1 supremum is
    c^{-1/2} n^{-n/2} (1 - d)^{n/2} sqrt(1 + n^2 d / (1 - d) - p d) / 4 pi,
    and c^{-1/2} = e^{-log c / 2} is e^b e^{-log c / 2 - b}, b the
    exponent rounded once and the remainder exact, as _small_root forms
    c^{1/2n}: so it is within 8 eps at every depth (6.5 eps at worst at
    n = 1..8 against a 50-digit search), where a rounded log c would cost
    eps |log c|.  It stays finite after d underflows (rho2 ~5.5) and is inf
    where e^{-log c / 2} leaves the doubles (rho2 ~5.997), as
    pi1_fiber_bound does at every rho1.
    Raises EmptyLevelSet unless the level set is regular, and OverflowError
    where log c / 2 leaves the doubles (rho2 ~1e153).
    """
    require_regular(LevelSetSpec(n, 1.0, rho2))
    root, half = _small_root(n, rho2)  # sqrt(t-), log c / 2n exactly
    h = float(half)
    c = math.exp(2.0 * n * h)
    if c >= np.finfo(float).tiny and n ** n <= sys.float_info.max:
        k = n ** n * c
    else:  # (n c^{1/n})^n: from n = 144 on, or where c is subnormal
        base = n * math.exp(2.0 * h)
        k = base ** n * math.exp(2.0 * n * float(half - Fraction(h))) if base else 0.0
    d = k * math.exp(_rising_root(1.0 / n, k))  # 1 - n t+
    if n == 1:  # t+ = 1 - t-: -log t+ ~ t- leaves the doubles before its root does
        t = root * root
        mod = root * math.sqrt(-math.log1p(-t) / t) if t else root
    else:
        mod = math.sqrt(math.log(n) - math.log1p(-d))
    p, grow = (n + 1) % 2, d * n * n / (1.0 - d)  # S = (1 + grow) / d
    b = float(-n * half)  # -log c / 2 = 2 pi^2 rho2^2, rounded once
    pi1 = (math.exp(b) * n ** (-0.5 * n) / (4.0 * math.pi) * math.sqrt(1.0 + grow - p * d)
           * math.exp(0.5 * n * math.log1p(-d) + float(-n * half - Fraction(b)))
           if b < math.log(np.finfo(float).max) else math.inf)
    return BaseSuprema(math.asin(root), math.asin(mod / (TWO_PI * rho2)), pi1,
                       math.pi * math.sqrt(1.0 - p * d / (1.0 + grow)))


# -- the degenerate metric's limit torus -----------------------------------------

def _row_blocks(count: int):
    """(r0, r1) row blocks of about _BLOCK_PAIRS pairs against the columns r0:."""
    r0 = 0
    while r0 < count:
        r1 = min(count, r0 + max(1, _BLOCK_PAIRS // (count - r0)))
        yield r0, r1
        r0 = r1


def chord_eccentricities(points: np.ndarray) -> np.ndarray:
    """Each row's largest Euclidean distance to a row of `points` (N, D):
    d * d added one coordinate at a time, the square root taken after the
    row maximum (sqrt is monotone).  Each pair is met once, in row blocks
    r0:r1 against the columns r0:, and enters the maxima of both its rows:
    fl(a - b)^2 = fl(b - a)^2, so the column maxima are bitwise those of the
    transposed pairs."""
    cols = np.ascontiguousarray(np.asarray(points, dtype=float).T)
    ecc = np.zeros(cols.shape[1])
    for r0, r1 in _row_blocks(len(ecc)):
        acc = 0.0
        for c in cols:
            d = c[None, r0:] - c[r0:r1, None]
            acc = acc + d * d
        ecc[r0:r1] = np.maximum(ecc[r0:r1], np.max(acc, axis=1))
        ecc[r0:] = np.maximum(ecc[r0:], np.max(acc, axis=0))
    return np.sqrt(ecc)


def _l1_lattice_vectors(delta: np.ndarray) -> np.ndarray:
    """v = F_eta w (n+1, ...) for a translate w in delta + Z^n minimizing
    |F_eta w|_1 = sum |w_i| + |sum w_i|, per column delta (n, ...) in
    [0, 1)^n, in the coordinates of delta sorted descending (each use of v is
    symmetric in them).

    Some minimizer has every w_i in {delta_i, delta_i - 1}: a step of a w_i with
    |w_i| >= 1 toward 0 lowers sum |w| by 1 and raises |sum w| by at most 1.
    Shifting j coordinates costs sum delta + j - 2 (their sum) + |sum delta - j|,
    least for the j largest, so n + 1 candidates remain; the first least one
    is kept.  A compare-swap network sorts, elementwise and exactly."""
    n = len(delta)
    v = np.empty((n + 1,) + delta.shape[1:])
    d = v[:n]
    d[...] = delta
    for end in range(n - 1, 0, -1):
        for k in range(end):
            top = np.maximum(d[k], d[k + 1])
            np.minimum(d[k], d[k + 1], out=d[k + 1])
            d[k] = top
    total = np.sum(d, axis=0)
    best, shift, prefix = 2.0 * total, np.zeros_like(total), 0.0  # j = 0
    for j in range(1, n + 1):
        prefix = prefix + d[j - 1]
        cost = total + j - 2.0 * prefix + np.abs(total - j)
        # shift < j, so the larger of it and j where better: no masked store
        shift = np.maximum(shift, (cost < best) * float(j))
        best = np.minimum(best, cost)
    for k in range(n):
        d[k] -= shift > k
    v[n] = shift - total
    return v


def _segment_excess(log_q: np.ndarray, log_c: float) -> np.ndarray:
    """sum q_i^2 / qhat_i per row of log q (a point of the simplex outside K),
    qhat = (1 - lam) q + lam / m on the segment to the centre: the smallest lam
    with sum log qhat >= log c, by bisection on log lam, the upper (inside)
    end kept.  lam = m c^{1/m} < 1 is inside, as every qhat_i >= lam / m."""
    m = log_q.shape[1]
    hi = np.full(len(log_q), math.log(m) + log_c / m)
    lo = hi - 50.0  # below it the excess over sum q = 1 is ~e^-50

    def log_qhat(theta):
        return np.logaddexp(np.log1p(-np.exp(theta))[:, None] + log_q,
                            (theta - math.log(m))[:, None])

    for _ in range(40):  # hi - lo ends below 1e-10
        mid = 0.5 * (lo + hi)
        inside = np.sum(log_qhat(mid), axis=1) >= log_c
        hi, lo = np.where(inside, mid, hi), np.where(inside, lo, mid)
    return np.sum(np.exp(2.0 * log_q - log_qhat(hi)), axis=1)


def limit_torus_bounds(torus_t: np.ndarray, rho2: float) -> tuple[np.ndarray, np.ndarray]:
    """(ecc_lo, ecc_hi), each (N,): per torus row t_i of t (N, n), the largest
    over j of f_lo(i, j) and of f_hi(i, j), bounds on the distance d_F between
    rows i and j under the limit norm |v|_F = min over q in K of |v|_q
    (degenerate_limit), for eta moves v = F_eta w, w a lattice translate of
    t_j - t_i.

    f_lo = min over translates of |v|_1 / (2 pi rho2), exact in O(n^2)
    (_l1_lattice_vectors): |v|_q >= |v|_1 / (2 pi rho2) for every q in the
    simplex (Cauchy-Schwarz), with equality at q* = |v| / |v|_1.  f_hi is |v|_q
    for that minimizer at q = q* when q* is in K, so f_hi = f_lo = d_F, else
    at a point of K on the segment from q* to the centre.

    The pairs are taken coordinate-first in row blocks r0:r1 against the
    columns r0:, each kept as t_j - t_i with i < j (the block's lower part
    is zeroed after the sums), so each pair is met once and enters the
    maxima of row i through the block's row maxima and of row j through its
    column maxima.  No (N, N) array is built.

    Only the pairs K leaves undecided take logs.  With m = n + 1 and
    r = c^(1/m) (1 + 1e-9), c^(1/m) = exp(log c / m), a pair with
    min_i v_i > fl(l1 r), l1 = |v|_1, is certified inside K; every other
    pair takes the exhaustive test sum_i log q*_i < log c, in the same
    operations as on every pair, so the set outside K and every bit of f_hi
    are those of the exhaustive test.  Proof that a certified pair passes it:
    fl(l1 r) >= l1 r (1 - u), u = 2^-53, or, below the normal range, a larger
    double exceeds l1 r itself.  With c^(1/m) normal, |log c / m| < 709, the
    roundings of log c / m, exp and r move log r by less than 1e-13, so in
    exact arithmetic each log q*_i = log v_i - log l1 is at least
    log c / m + 1e-9 - 1e-13, and their sum at least log c + m (1e-9 - 1e-13).
    The computed sum is within m 1.5e-12 + m^2 1.7e-13 of it (each log
    within 4 ulp of a value below 745 in size, one subtraction each, m - 1
    additions in turn of terms below 1,490), less than that margin for
    m < 6,000.  Elsewhere r is 1, which certifies no pair, as min v <= l1.
    A block's pairs outside K share one bisection, which works row by row,
    and their f_hi replace f_lo in a copy of the block before its maxima;
    with none outside K, f_hi is f_lo and shares its maxima."""
    cols = np.ascontiguousarray(np.asarray(torus_t, dtype=float).T)
    m, count = len(cols) + 1, cols.shape[1]
    log_c = -FOUR_PI2 * rho2 * rho2
    root = math.exp(log_c / m)
    ratio = root * (1 + 1e-9) if root >= np.finfo(float).tiny and m < 6000 else 1.0
    ecc_lo, ecc_hi = np.zeros((2, count))
    for r0, r1 in _row_blocks(count):
        diff = cols[:, None, r0:] - cols[:, r0:r1, None]
        v = np.abs(_l1_lattice_vectors(diff - np.floor(diff)))
        l1 = np.triu(np.sum(v, axis=0), 1)  # keep i < j: v and -v give one bound
        lo = hi = l1 / (TWO_PI * rho2)
        # where l1 = 0 (no move, or j <= i) the pair is not kept
        a, b = np.nonzero((np.min(v, axis=0) <= l1 * ratio) & (l1 > 0))
        # a zero move v_i gives q*_i = 0: log q*_i = -inf, outside K
        with np.errstate(divide="ignore"):
            log_q = np.log(v[:, a, b]) - np.log(l1[a, b])
        out = np.sum(log_q, axis=0) < log_c
        if np.any(out):  # none away from the threshold
            a, b = a[out], b[out]
            hi = lo.copy()
            # the pairs go to the bisection as C-order rows, which sets its sums' order
            hi[a, b] = lo[a, b] * np.sqrt(_segment_excess(log_q[:, out].T.copy(), log_c))
        lo_max = np.max(lo, axis=1), np.max(lo, axis=0)
        hi_max = lo_max if hi is lo else (np.max(hi, axis=1), np.max(hi, axis=0))
        for ecc, (row, col) in ((ecc_lo, lo_max), (ecc_hi, hi_max)):
            ecc[r0:r1] = np.maximum(ecc[r0:r1], row)
            ecc[r0:] = np.maximum(ecc[r0:], col)
    return ecc_lo, ecc_hi


class DegenerateLimit(NamedTuple):
    """Per sample i, the eccentricity bounds degenerate_ngh reads: the largest
    f_lo(i, j) and f_hi(i, j) over j and the largest chord |s_i - s_j| / rho2;
    and tau = (n + 2) pi / rho2."""

    ecc_lo: np.ndarray
    ecc_hi: np.ndarray
    ecc_chord: np.ndarray
    tau: float


def degenerate_limit(shape: np.ndarray, torus_t: np.ndarray, rho2: float) -> DegenerateLimit:
    """The degenerate metric g against its limit torus (T^n, d_F), once per
    rho2, from the shape s = r / rho1 (N, n+1) and the torus rows t (N, n).
    For every rho1 and every pair,

        d_F <= rho1 d_g <= d_F + rho1^2 tau,  tau = (n + 2) pi / rho2,
        rho1 d_g >= rho1^2 |s_i - s_j| / rho2,  f_lo <= d_F <= f_hi,

    with f_lo, f_hi as in limit_torus_bounds, whose per-row maxima this keeps
    (the eccentricity bounds degenerate_ngh reads).  So rho1 d_g lies in
    [A_lo, A_hi] = [max(f_lo, rho1^2 |s_i - s_j| / rho2), f_hi + rho1^2 tau]
    and converges to d_F uniformly at rate rho1^2.

    Proof.  With q = s^2 on the base B = {sum q = 1, sum log q = log c},
    c = e^{-4 pi^2 rho2^2}, and eta = F_eta t, rho1^2 g is
    (rho1^2 / rho2)^2 |ds|^2 + |d eta|_q^2, |v|_q = sqrt(sum v_i^2 / q_i) / (2 pi rho2),
    and eta moves lie in V = {sum v = 0}.  Let K = {q in the simplex :
    sum log q >= log c} = conv B and |v|_F = min over q in K of |v|_q.
    Lower: both terms are nonnegative, so a path is at least as long as each
    part.  The radial part is at least rho1^2 / rho2 times the chord, and the
    eta part at least the integral of |eta'|_F, so at least |total move|_F >= d_F.
    Upper: on V the ball {|u|_q <= 1} has the support function
    2 pi rho2 sqrt(Var_q y), concave in q.  Over the simplex the variance is
    largest only with all weight on the extreme entries of y, so over K it is
    largest on B, or on a convex set whose extreme points lie on B.  The union
    of the balls over K is convex (v^2 / q is jointly convex), hence the hull
    of the balls over B, and |v|_F is its gauge: by Caratheodory in V
    (dimension n) a move v costs |v|_F made in at most n + 1 pieces at base
    points.  Radial legs join s_i, those points and s_j inside B: B bounds the
    spherically convex {s in S^n_+ : prod s >= sqrt c} (the geometric mean
    less a multiple of |s| is concave), and a 3-space through two base points
    and an interior point cuts it in a convex region of S^2 within an open
    hemisphere, whose boundary, in B, is shorter than 2 pi.  So each of the
    n + 2 legs is shorter than pi.  At n = 1 B is two points: the level set
    has two components and d_g is infinite between them, so this raises
    ArithmeticError.
    """
    s = np.asarray(shape, dtype=float)
    n = s.shape[1] - 1
    if n < 2:
        raise ArithmeticError("the degenerate distance is infinite at n = 1: the base is "
                              "two points, so the level set has two components")
    return DegenerateLimit(*limit_torus_bounds(torus_t, rho2), chord_eccentricities(s) / rho2,
                           (n + 2) * math.pi / rho2)


def degenerate_ngh(limit: DegenerateLimit, rho1: float) -> NghBounds:
    """Certified normalized-GH interval between the sample under rho1 d_g and
    its torus rows under d_F, pairing i <-> i (degenerate_limit's bracket).

    upper: the pairing's distortion is at most rho1^2 tau, and the diameters
    are at least max A_lo and max f_lo; capped at 1, as d_GH <= max diam / 2.
    lower: the eccentricity bound of gh_bounds with each eccentricity an
    interval (the largest of a maximum of two terms is the larger of their
    largest values), through the same _interval_hausdorff, divided by upper
    bounds of the diameters.  Where every eccentricity is 0 both sides are
    one point, which compare at 0 as in ngh_distance.
    The terms are taken in units of max(1, rho1^2), so neither rho1^2 nor
    rho1^2 tau leaves the doubles; the ratios are scale-free."""
    radial = rho1 * rho1 if rho1 <= 1.0 else 1.0
    flat = 1.0 if rho1 <= 1.0 else 1.0 / rho1 / rho1
    y_lo, y_hi = flat * limit.ecc_lo, flat * limit.ecc_hi
    x_lo = np.maximum(y_lo, radial * limit.ecc_chord)
    x_hi = y_hi + radial * limit.tau
    total = float(np.max(x_lo) + np.max(y_lo))
    if total == 0.0:
        return NghBounds(0.0, 0.0, point_like=True)
    lower = _interval_hausdorff(x_lo, x_hi, y_lo, y_hi) / float(np.max(x_hi) + np.max(y_hi))
    return NghBounds(lower, min(1.0, radial * limit.tau / total))
