"""Helpers shared by the test modules."""

import math
from functools import lru_cache, reduce

import mpmath
import numpy as np

from wsdlab import metgeo
from wsdlab.ambient import torus_metric_weights


def dense_tensors(r) -> dict[str, np.ndarray]:
    """Reference: the metric and the three forms at radii r (m,) as dense
    3m x 3m coordinate-frame matrices, frame ordered (d/dtheta.., d/dr..,
    d/deta..), written entry by entry from their closed forms."""
    r = np.asarray(r, dtype=float)
    m = r.size
    th, rr, et = np.arange(m), np.arange(m, 2 * m), np.arange(2 * m, 3 * m)
    t = {name: np.zeros((3 * m, 3 * m)) for name in ("g", "omega1", "omega2", "omegaD")}
    t["g"][th, th] = 4.0 * math.pi**2 * r**2
    t["g"][rr, rr] = 1.0
    t["g"][et, et] = 1.0 / (4.0 * math.pi**2 * r**2)
    for name, a, b, c in (("omega1", rr, th, 2.0 * math.pi * r),
                          ("omega2", rr, et, 1.0 / (2.0 * math.pi * r)),
                          ("omegaD", th, et, 1.0)):
        t[name][a, b] = c
        t[name][b, a] = -c
    return t


def dense_pullback(tensors: dict, jac_diag) -> dict[str, np.ndarray]:
    """Reference: jac^T T jac of every tensor, for a diagonal Jacobian."""
    jac = np.diag(jac_diag)
    return {name: jac.T @ mat @ jac for name, mat in tensors.items()}


def fresh_stream(seed: int, idx: int, *tag: int) -> np.random.Generator:
    """Reference: numpy's own chain for sample idx's stream, a fresh
    Generator(Philox(SeedSequence((seed % 2**63, idx, *tag)))) per index."""
    entropy = (int(seed) % (1 << 63), int(idx)) + tuple(int(p) for p in tag)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


@lru_cache(maxsize=None)
def divisor_offsets_mp(n: int, rho2: float) -> tuple:
    """Reference: the unit-scale divisor offsets (h1, h2) of metgeo.base_suprema
    as mpmath numbers with 50 digits past the integer part of log c, from
    mpmath's bracketed roots of t^n (1 - n t) = c, c = e^{-4 pi^2 rho2^2} taken
    exactly at the double rho2: t- as s = log t- in [log c / n, (log c + log m) / n],
    and t+ through l = log(1 - n t+) in [log c + n log n, log c + n log m]."""
    with mpmath.workdps(50 + max(0, math.ceil(math.log10(4 * math.pi**2 * rho2 * rho2)))):
        log_c = -4 * mpmath.pi ** 2 * mpmath.mpf(rho2) ** 2
        log_m, log_n = mpmath.log(n + 1), mpmath.log(n)
        s = mpmath.findroot(lambda s: n * s + mpmath.log1p(-n * mpmath.exp(s)) - log_c,
                            (log_c / n, (log_c + log_m) / n), solver="anderson")
        ell = mpmath.findroot(lambda l: l + n * mpmath.log1p(-mpmath.exp(l)) - n * log_n - log_c,
                              (log_c + n * log_n, log_c + n * log_m), solver="anderson")
        neg_log_tp = log_n - mpmath.log1p(-mpmath.exp(ell))
        return (mpmath.asin(mpmath.exp(s / 2)),
                mpmath.asin(mpmath.sqrt(neg_log_tp) / (2 * mpmath.pi * mpmath.mpf(rho2))))


@lru_cache(maxsize=None)
def kkt_log_sums_mp(n: int, rho2: float, digits: int = 50) -> tuple:
    """Reference: log S, S = sum 1/q_i, at every two-value KKT point of S on
    the base B = {sum q = 1, sum log q = log c}, c = e^{-4 pi^2 rho2^2} taken
    exactly at the double rho2, one per j = 1..n: j coordinates s < 1/m and
    m - j coordinates l = (1 - j s) / (m - j), m = n + 1, with log s from
    mpmath's bracketed root of j log s + (m - j) log l = log c, which rises
    in s on (0, 1/m).  `digits` digits past the integer part of log c; logs,
    as S leaves the doubles from rho2 ~5.5.  The solver is Illinois: close
    to the threshold the root sits at the flat end of its bracket, where
    Anderson's method raises instead of converging."""
    m = n + 1
    with mpmath.workdps(digits + max(0, math.ceil(math.log10(4 * math.pi**2 * rho2 * rho2)))):
        log_c = -4 * mpmath.pi ** 2 * mpmath.mpf(rho2) ** 2
        out = []
        for j in range(1, m):
            k = m - j
            sig = mpmath.findroot(
                lambda x: j * x + k * mpmath.log((1 - j * mpmath.exp(x)) / k) - log_c,
                ((log_c + k * mpmath.log(k)) / j, -mpmath.log(m)), solver="illinois")
            s = mpmath.exp(sig)
            out.append(mpmath.log(j / s + k * k / (1 - j * s)))
        return tuple(out)


def fiber_suprema_mp(n: int, rho2: float, digits: int = 50) -> tuple:
    """Reference: metgeo.base_suprema's (pi1_fiber, pi2_fiber) as mpmath
    numbers, root_lattice_covering_radius's closed form at the largest S of
    kkt_log_sums_mp: sqrt(S - p) / (4 pi) and pi sqrt(1 - p / S),
    p = (n + 1) mod 2."""
    log_s = max(kkt_log_sums_mp(n, rho2, digits))
    with mpmath.workdps(digits + 10):
        big = mpmath.exp(log_s)
        p = (n + 1) % 2
        return mpmath.sqrt(big - p) / (4 * mpmath.pi), mpmath.pi * mpmath.sqrt(1 - p / big)


def pi2_fiber_diameters(base_r: np.ndarray) -> np.ndarray:
    """Reference: the second-projection fiber-torus diameter of each row of an
    (N, n+1) radius array, the theta-subtorus with period lattice A_n and
    metric 4 pi^2 r_i^2 dtheta_i^2, by root_lattice_covering_radius."""
    return metgeo.root_lattice_covering_radius(torus_metric_weights(base_r)[0])


def cross_hausdorff(cross) -> float:
    """Reference: the Hausdorff distance of two finite sets from their cross
    distance matrix, the larger of its largest row and column minima."""
    return float(max(np.max(np.min(cross, axis=1)), np.max(np.min(cross, axis=0))))


def gathered_pair_bounds(torus_t, rho2):
    """Reference: metgeo.limit_torus_bounds's pairwise (f_lo, f_hi) as full
    (N, N) matrices, and the count of pairs outside K, with every pair i < j
    gathered as one row t_j - t_i: each sum over a row's coordinates taken in
    turn, and one _segment_excess call over the pairs outside K."""
    count = len(torus_t)
    i, j = np.triu_indices(count, 1)
    diff = torus_t[j] - torus_t[i]
    v = np.abs(metgeo._l1_lattice_vectors((diff - np.floor(diff)).T).T)
    l1 = reduce(np.add, v.T)
    log_c = -4 * math.pi**2 * rho2 * rho2
    lo = l1 / (2 * math.pi * rho2)
    hi = lo.copy()
    far = np.flatnonzero(l1)
    with np.errstate(divide="ignore"):
        log_q = np.log(v[far]) - np.log(l1[far])[:, None]
    out = reduce(np.add, log_q.T) < log_c
    hi[far[out]] = lo[far[out]] * np.sqrt(metgeo._segment_excess(log_q[out], log_c))
    f_lo, f_hi = np.zeros((2, count, count))
    f_lo[i, j] = f_lo[j, i] = lo
    f_hi[i, j] = f_hi[j, i] = hi
    return f_lo, f_hi, np.count_nonzero(out)


def per_phase_hn_matrix(z, rho):
    """Reference: metgeo.hn_matrix with one (N, N) product per phase of the
    group, the minimum kept across phases, and the nearly aligned pairs of
    each phase redone through the projection residual."""
    u = z / np.linalg.norm(z, axis=1)[:, None]
    best = None
    for phase in metgeo._quotient_phases(z.shape[1] - 1):
        v = u * np.exp(2j * math.pi * phase)[None, :]
        g = np.conj(u) @ v.T
        cos = np.clip(np.abs(g), 0.0, 1.0)
        ang = np.arccos(cos)
        ii, jj = np.nonzero(cos > 0.9999)
        if ii.size:
            resid = v[jj] - u[ii] * g[ii, jj][:, None]
            ang[ii, jj] = np.arcsin(np.clip(np.linalg.norm(resid, axis=1), 0.0, 1.0))
        best = ang if best is None else np.minimum(best, ang)
    d = rho * best
    np.fill_diagonal(d, 0.0)
    return 0.5 * (d + d.T)
