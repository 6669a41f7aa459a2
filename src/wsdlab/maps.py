"""Projections to projective space and its finite quotient, the chart
diffeomorphism between level sets, complex structures, and the scaling flow.

Each projection is one formula on sample arrays: base radii (..., n+1) and
torus rows (..., n) with any leading shape give representatives z in C^{n+1}
as a complex (..., n+1) array.  The torus rows enter through
`embedded_angles`, the one map from torus coordinates to ambient angles
(theta = F_theta s, eta = F_eta t, with F_theta rows the primal and F_eta
rows the dual simplex vertices).  The quotient structure (global phase,
finite phase group) only enters through the distances, which live in metgeo
beside its distance kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ambient import (FOUR_PI2, PI2, TWO_PI, AmbientPoint, ambient_tensors_at,
                      convert_parameters_inverse, moment_map)
from .polytope import lattice_maps
from .reduction import LevelSetSpec, _require_regular


@lru_cache(maxsize=32)
def _torus_embeddings(n: int) -> dict[str, np.ndarray]:
    """The theta and eta embeddings: rows are primal resp. dual vertices."""
    maps = lattice_maps(n)
    return {"theta": np.array(maps.dual_t.matrix, dtype=float),
            "eta": np.array(maps.primal_t.matrix, dtype=float)}


def embedded_angles(n: int, torus: np.ndarray, block: str) -> np.ndarray:
    """Ambient angles, before reduction mod 1, of torus rows (..., n):
    theta = F_theta s for block "theta", eta = F_eta t for block "eta".  Each
    row is its own matrix-vector product, so a stack gives each row's bits."""
    x = np.asarray(torus, dtype=float)
    return np.matmul(_torus_embeddings(n)[block], x[..., None])[..., 0]


def _as_complex(z, label: str) -> np.ndarray:
    arr = np.asarray(z, dtype=complex).reshape(-1)
    if arr.size < 2:
        raise ValueError(f"{label} needs at least two components")
    if not np.any(arr != 0):
        raise ValueError(f"{label} must have a nonzero representative")
    return arr


@dataclass(frozen=True)
class CPnPoint:
    """Representative z on the sphere sum |z|^2 = lam, up to the diagonal circle.

    Both charts use it: CP^n and its quotient by the dual-simplex phase group
    differ only in the distance taken between representatives."""

    z: np.ndarray
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "z", _as_complex(self.z, "CPnPoint.z"))
        if not self.lam > 0:
            raise ValueError("lam must be positive")

    @property
    def n(self) -> int:
        return self.z.size - 1

    def norm2(self) -> float:
        return float(np.sum(np.abs(self.z) ** 2))

    def normalization_residual(self) -> float:
        return abs(self.norm2() - self.lam) / self.lam

    def normalized(self) -> "CPnPoint":
        return CPnPoint(self.z * math.sqrt(self.lam / self.norm2()), self.lam)


# -- the two fibrations ------------------------------------------------------

def project_pi1(spec: LevelSetSpec, base_r, torus_s) -> np.ndarray:
    """First projection z_i = r_i e^{2 pi i theta_i}, theta = F_theta s: the
    representatives lie on the sphere sum |z_i|^2 = rho1^2."""
    _require_regular(spec)
    theta = np.mod(embedded_angles(spec.n, torus_s, "theta"), 1.0)
    return np.asarray(base_r, dtype=float) * np.exp(2j * math.pi * theta)


def pi1_image_residual(z, rho2: float) -> np.ndarray:
    """Defect of the image equation prod |z_i|^2 = e^{-4 pi^2 rho2^2} (sum |z_i|^2)^{n+1},
    normalized by (sum |z_i|^2)^{n+1} so the result is scale invariant.

    One value per representative z of shape (..., n+1), off-image probes
    included."""
    sq = np.abs(np.asarray(z, dtype=complex)) ** 2
    scale = np.sum(sq, axis=-1) ** sq.shape[-1]
    return np.abs(np.prod(sq, axis=-1) - math.exp(-4.0 * PI2 * rho2 * rho2) * scale) / scale


def project_pi2(spec: LevelSetSpec, base_r, torus_t) -> np.ndarray:
    """Second projection: |z_i| = sqrt(log(rho1/r_i) / (2 pi^2)), phase
    e^{-2 pi i eta_i}, eta = F_eta t.

    The representatives lie at scale sum |z_i|^2 = rho2^2, the normalization
    under which metgeo.hn_distance defaults to the right scale; the
    unit-sphere representative is this one divided by rho2.  The domain is
    checked once for the whole stack.
    """
    _require_regular(spec)
    r = np.asarray(base_r, dtype=float)
    rho1 = spec.rho1
    if np.any(r > rho1):
        raise ValueError("point outside the fibration domain: some r_i > rho1")
    if np.any(r == rho1):
        # on a regular level set every r_i < rho1: equality means the shape
        # coordinate r_i/rho1 rounded to 1, the others being below ~1e-8
        raise ArithmeticError("a base radius rounded to rho1; the pi2 modulus vanishes")
    mod = np.sqrt(np.log(rho1 / r) / (2.0 * PI2))
    eta = np.mod(embedded_angles(spec.n, torus_t, "eta"), 1.0)
    return mod * np.exp(-2j * math.pi * eta)


def pi2_image_residual(z) -> np.ndarray:
    """Defect of the image equation sum_i e^{-4 pi^2 |z_i|^2} = 1, one value
    per representative z of shape (..., n+1); values of order 1 or more mean
    the point is far off the image (the zero vector scores n)."""
    sq = np.abs(np.asarray(z, dtype=complex)) ** 2
    return np.abs(np.sum(np.exp(-4.0 * PI2 * sq), axis=-1) - 1.0)


# -- the chart diffeomorphism ------------------------------------------------

def phi_map(p: AmbientPoint, rho1: float, rho2: float) -> AmbientPoint:
    """(theta, r, eta) -> (theta, rho1 e^{-2 pi^2 rho2^2 r^2}, -eta)."""
    r_new = rho1 * np.exp(-2.0 * PI2 * rho2 * rho2 * p.r ** 2)
    return AmbientPoint(p.n, p.theta, r_new, -p.eta)


def _phi_jacobian(p: AmbientPoint, rho1: float, rho2: float) -> np.ndarray:
    m = p.n + 1
    r_new = rho1 * np.exp(-2.0 * PI2 * rho2 * rho2 * p.r ** 2)
    jac = np.zeros((3 * m, 3 * m))
    idx = np.arange(m)
    jac[idx, idx] = 1.0
    jac[m + idx, m + idx] = -4.0 * PI2 * rho2 * rho2 * p.r * r_new
    jac[2 * m + idx, 2 * m + idx] = -1.0
    return jac


@dataclass(frozen=True)
class PullbackReport:
    residuals: dict

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())


def phi_pullback_check(p: AmbientPoint, rho1: float, rho2: float) -> PullbackReport:
    """Pull the ambient tensors back through the chart map and compare with the
    closed-form coefficients.

    References: omega1 -> -8 pi^3 rho1^2 rho2^2 r e^{-4 pi^2 rho2^2 r^2} dr^dtheta
    (the radial factor decreases, so the pulled-back area form flips sign),
    omega2 -> 2 pi rho2^2 r dr^deta, the diagonal metric coefficients, the two
    moment-map identities, and the chart complex structure for J2.
    """
    m = p.n + 1
    r = p.r
    q = phi_map(p, rho1, rho2)
    t_img = ambient_tensors_at(q)
    jac = _phi_jacobian(p, rho1, rho2)
    decay = np.exp(-4.0 * PI2 * rho2 * rho2 * r ** 2)

    idx = np.arange(m)
    th, rr, et = idx, m + idx, 2 * m + idx

    ref1 = np.zeros((3 * m, 3 * m))
    c1 = -8.0 * math.pi * PI2 * rho1 ** 2 * rho2 ** 2 * r * decay
    ref1[rr, th] = c1
    ref1[th, rr] = -c1

    ref2 = np.zeros_like(ref1)
    c2 = TWO_PI * rho2 ** 2 * r
    ref2[rr, et] = c2
    ref2[et, rr] = -c2

    refg = np.zeros_like(ref1)
    refg[th, th] = 4.0 * PI2 * rho1 ** 2 * decay
    refg[rr, rr] = 16.0 * PI2 ** 2 * rho1 ** 2 * rho2 ** 4 * r ** 2 * decay
    refg[et, et] = 1.0 / (4.0 * PI2 * rho1 ** 2 * decay)

    def rel(got, ref):
        scale = max(1.0, float(np.max(np.abs(ref))))
        return float(np.max(np.abs(got - ref))) / scale

    residuals = {
        "omega1": rel(jac.T @ t_img.omega1 @ jac, ref1),
        "omega2": rel(jac.T @ t_img.omega2 @ jac, ref2),
        "metric": rel(jac.T @ t_img.g @ jac, refg),
    }

    k1, k2 = convert_parameters_inverse(p.n, rho1, rho2)
    mu1, mu2 = moment_map(q)
    want1 = (-k1) * (1.0 - float(np.sum(decay)))
    residuals["mu1"] = abs((-k1 + mu1) - want1) / max(1.0, abs(k1))
    want2 = math.pi * rho2 ** 2 * (float(r @ r) - 1.0)
    residuals["mu2"] = abs((mu2 - k2) - want2) / max(1.0, abs(k2))

    # J2 on the (r, eta) block: ambient compatible structure at the image,
    # conjugated by the chart Jacobian, against the reference chart tensor
    j_img = np.zeros((2 * m, 2 * m))
    j_img[m + idx, idx] = TWO_PI * q.r
    j_img[idx, m + idx] = -1.0 / (TWO_PI * q.r)
    d2 = np.zeros((2 * m, 2 * m))
    d2[idx, idx] = -4.0 * PI2 * rho2 ** 2 * r * q.r
    d2[m + idx, m + idx] = -1.0
    pulled_j = np.linalg.solve(d2, j_img @ d2)
    ref_j = complex_structure_at(r, rho1, rho2).J
    residuals["J2"] = rel(pulled_j, ref_j)
    residuals["J2_squared"] = float(np.max(np.abs(pulled_j @ pulled_j + np.eye(2 * m))))
    return PullbackReport(residuals)


# -- complex structures on the chart -----------------------------------------

@dataclass(frozen=True)
class ComplexStructureAt:
    """The chart tensor J_{lam1, lam2} on the (r, eta) block, vectors ordered
    (dr_0.., deta_0..)."""

    J: np.ndarray
    lam1: float
    lam2: float
    r: np.ndarray

    def j_squared_residual(self) -> float:
        d = self.J.shape[0]
        return float(np.max(np.abs(self.J @ self.J + np.eye(d))))

    def compatibility_residual(self) -> float:
        """omega(J., J.) = omega for the chart form 2 pi sum r_i dr_i^deta_i
        (the toric normalization of the scaled projective form in these
        coordinates)."""
        m = self.r.size
        w = np.zeros((2 * m, 2 * m))
        idx = np.arange(m)
        w[idx, m + idx] = TWO_PI * self.r
        w[m + idx, idx] = -TWO_PI * self.r
        return float(np.max(np.abs(self.J.T @ w @ self.J - w)))


def complex_structure_at(r, lam1: float, lam2: float) -> ComplexStructureAt:
    """Build J_{lam1,lam2}: dr_i -> 8 pi^3 r_i lam1^2 lam2^2 e^{-4 pi^2 lam2^2 r_i^2} deta_i
    and deta_i -> -e^{4 pi^2 lam2^2 r_i^2} / (8 pi^3 r_i lam1^2 lam2^2) dr_i."""
    r = np.asarray(r, dtype=float).reshape(-1)
    if np.any(r <= 0):
        raise ValueError("complex structure is singular where some r_i = 0")
    if lam1 <= 0 or lam2 <= 0:
        raise ValueError("lam1 and lam2 must be positive")
    m = r.size
    idx = np.arange(m)
    coef = 8.0 * math.pi * PI2 * r * lam1 ** 2 * lam2 ** 2 \
        * np.exp(-4.0 * PI2 * lam2 ** 2 * r ** 2)
    jmat = np.zeros((2 * m, 2 * m))
    jmat[m + idx, idx] = coef
    jmat[idx, m + idx] = -1.0 / coef
    return ComplexStructureAt(jmat, lam1, lam2, r)


def degenerate_metric(r, lam1: float, lam2: float) -> tuple[np.ndarray, np.ndarray]:
    """g = omega(., J.) of complex_structure_at's J on the chart (r, t), eta =
    F_eta t, per row of radii (..., n+1), as the pair (frame, coef) that
    metgeo.knn_edge_squares takes: g = frame^T diag(coef) frame.  The first
    n+1 frame rows are the radial block, whose coefficients scale as lam1^2,
    and the rest the eta block, whose coefficients scale as lam1^-2."""
    r = np.asarray(r, dtype=float)
    gauss = np.exp(-FOUR_PI2 * lam2**2 * r**2)
    c_r = 16.0 * math.pi**4 * lam1**2 * lam2**2 * r**2 * gauss
    c_eta = 1.0 / (gauss * FOUR_PI2 * lam1**2 * lam2**2)
    f = _torus_embeddings(r.shape[-1] - 1)["eta"]
    frame = np.block([[np.eye(len(f)), np.zeros(f.shape)], [np.zeros((len(f),) * 2), f]])
    return frame, np.concatenate([c_r, c_eta], axis=-1)


# -- the scaling flow ---------------------------------------------------------

def alpha_deform(spec: LevelSetSpec, t: float) -> LevelSetSpec:
    """The rescaling t > 0 on level sets: (k1, k2) -> (t^2 k1, k2 - (n+1)/(2 pi) log t)."""
    if not t > 0:
        raise ValueError("t must be positive")
    m = spec.n + 1
    return LevelSetSpec(spec.n, t ** 2 * spec.k1, spec.k2 - m / TWO_PI * math.log(t))


def psi_scale(p: AmbientPoint, t: float) -> AmbientPoint:
    """The rescaling t > 0 on points: r -> t r, angles fixed."""
    if not t > 0:
        raise ValueError("t must be positive")
    return AmbientPoint(p.n, p.theta, t * p.r, p.eta)


def psi_pullback_residuals(p: AmbientPoint, t: float) -> dict:
    """Check psi_t^* omega = omega_t entrywise at p for the three forms:
    omega1 gains t^2, omega2 and omegaD are unchanged."""
    m = p.n + 1
    q = psi_scale(p, t)
    t_img = ambient_tensors_at(q)
    t_base = ambient_tensors_at(p)
    jac = np.eye(3 * m)
    jac[m:2 * m, m:2 * m] *= t
    out = {}
    for name, target in (("omega1", t ** 2 * t_base.omega1),
                         ("omega2", t_base.omega2),
                         ("omegaD", t_base.omegaD)):
        got = jac.T @ getattr(t_img, name) @ jac
        scale = max(1.0, float(np.max(np.abs(target))))
        out[name] = float(np.max(np.abs(got - target))) / scale
    return out
