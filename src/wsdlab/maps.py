"""Projections to projective space and its finite quotient, the chart
diffeomorphism between level sets, complex structures, and the scaling flow.

Projective points of both charts are CPnPoint representatives z in C^{n+1};
the quotient structure (global phase, finite phase group) only enters
through the distances, which live in metgeo beside its distance kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ambient import PI2, TWO_PI, AmbientPoint, ambient_tensors_at
from .reduction import LevelSetSpec, ReducedPoint, _require_regular


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

def project_pi1(p: ReducedPoint) -> CPnPoint:
    """First projection: z_i = r_i e^{2 pi i theta_i}, on the sphere of radius rho1."""
    _require_regular(p.spec)
    amb = p.ambient_point()
    z = amb.r * np.exp(2j * math.pi * amb.theta)
    return CPnPoint(z, p.spec.rho1 ** 2)


def _rep_of(z) -> np.ndarray:
    return z.z if hasattr(z, "z") else np.asarray(z, dtype=complex).reshape(-1)


def pi1_image_residual(z, rho2: float) -> float:
    """Defect of the image equation prod |z_i|^2 = e^{-4 pi^2 rho2^2} (sum |z_i|^2)^{n+1},
    normalized by (sum |z_i|^2)^{n+1} so the result is scale invariant.

    Accepts a CPnPoint or a bare coefficient array (off-image probes included)."""
    sq = np.abs(_rep_of(z)) ** 2
    total = float(np.sum(sq))
    prod = float(np.prod(sq))
    scale = total ** sq.size
    return abs(prod - math.exp(-4.0 * PI2 * rho2 * rho2) * scale) / scale


def project_pi2(p: ReducedPoint) -> CPnPoint:
    """Second projection: |z_i| = sqrt(log(rho1/r_i) / (2 pi^2)), phase e^{-2 pi i eta_i}.

    Representatives are stored at scale lam = rho2^2, the normalization under
    which metgeo.hn_distance defaults to the right scale; the unit-sphere
    representative is this one divided by rho2.
    """
    _require_regular(p.spec)
    amb = p.ambient_point()
    rho1 = p.spec.rho1
    if np.any(amb.r >= rho1):
        raise ValueError("point outside the fibration domain: some r_i >= rho1")
    mod = np.sqrt(np.log(rho1 / amb.r) / (2.0 * PI2))
    z = mod * np.exp(-2j * math.pi * amb.eta)
    return CPnPoint(z, p.spec.rho2 ** 2)


def pi2_image_residual(z) -> float:
    """Defect of the image equation sum_i e^{-4 pi^2 |z_i|^2} = 1.

    Accepts a CPnPoint or a bare array; values of order 1 or more mean the
    point is far off the image (the zero vector scores n)."""
    return abs(float(np.sum(np.exp(-4.0 * PI2 * np.abs(_rep_of(z)) ** 2))) - 1.0)


# -- the chart diffeomorphism ------------------------------------------------

def phi_map(p: AmbientPoint, rho1: float, rho2: float) -> AmbientPoint:
    """(theta, r, eta) -> (theta, rho1 e^{-2 pi^2 rho2^2 r^2}, -eta)."""
    r_new = rho1 * np.exp(-2.0 * PI2 * rho2 * rho2 * p.r ** 2)
    return AmbientPoint(p.n, p.theta, r_new, -p.eta)


def phi_inverse(p: AmbientPoint, rho1: float, rho2: float) -> AmbientPoint:
    """Inverse chart map; defined on {0 < r_i < rho1} only."""
    if np.any(p.r >= rho1):
        raise ValueError("phi_inverse needs all r_i < rho1")
    r_old = np.sqrt(np.log(rho1 / p.r) / (2.0 * PI2 * rho2 * rho2))
    return AmbientPoint(p.n, p.theta, r_old, -p.eta)


def _phi_jacobian(p: AmbientPoint, rho1: float, rho2: float) -> np.ndarray:
    m = p.n + 1
    r_new = rho1 * np.exp(-2.0 * PI2 * rho2 * rho2 * p.r ** 2)
    jac = np.zeros((3 * m, 3 * m))
    idx = np.arange(m)
    jac[idx, idx] = 1.0
    jac[m + idx, m + idx] = -4.0 * PI2 * rho2 * rho2 * p.r * r_new
    jac[2 * m + idx, 2 * m + idx] = -1.0
    return jac


def phi_pullback_form(form_id: str, rho1: float, rho2: float):
    """Coefficient-matrix callable for the pulled-back 2-form, usable with the
    finite-difference closedness check."""

    def coeff(p: AmbientPoint) -> np.ndarray:
        q = phi_map(p, rho1, rho2)
        jac = _phi_jacobian(p, rho1, rho2)
        return jac.T @ getattr(ambient_tensors_at(q), form_id) @ jac

    return coeff


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

    from .ambient import moment_map
    k1 = -math.pi * rho1 ** 2
    k2 = math.pi * rho2 ** 2 - m / TWO_PI * math.log(rho1)
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


# -- the scaling flow ---------------------------------------------------------

@dataclass(frozen=True)
class DeformationParams:
    """The rescaling t > 0 acting by (k1, k2) -> (t^2 k1, k2 - (n+1)/(2 pi) log t)."""

    t: float

    def __post_init__(self):
        if not self.t > 0:
            raise ValueError("t must be positive")

    def on_spec(self, spec: LevelSetSpec) -> LevelSetSpec:
        m = spec.n + 1
        return LevelSetSpec(spec.n, self.t ** 2 * spec.k1,
                            spec.k2 - m / TWO_PI * math.log(self.t))

    def on_point(self, p: AmbientPoint) -> AmbientPoint:
        return AmbientPoint(p.n, p.theta, self.t * p.r, p.eta)


def alpha_deform(spec: LevelSetSpec, t: float) -> LevelSetSpec:
    return DeformationParams(t).on_spec(spec)


def psi_scale(p: AmbientPoint, t: float) -> AmbientPoint:
    return DeformationParams(t).on_point(p)


def psi_pullback_residuals(p: AmbientPoint, t: float) -> dict:
    """Check psi_t^* omega = omega_t entrywise at p for the three forms:
    omega1 gains t^2, omega2 and omegaD are unchanged."""
    if t <= 0:
        raise ValueError("t must be positive")
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
