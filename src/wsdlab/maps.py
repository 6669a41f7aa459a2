"""Projections to projective space and its finite quotient, the chart
diffeomorphism between level sets, complex structures, and the scaling flow.

Each projection is one formula on sample arrays with any leading shape: base
radii (..., n+1) for pi1, the log-shape u = log(r / rho1) (..., n+1) for pi2,
and torus rows (..., n) give representatives z in C^{n+1} as a complex
(..., n+1) array.  Neither takes a spec: the radii or the log-shape carry the
level set, and pi2 reads no rho1 at all.  The torus rows enter through
`embedded_angles`, the one map from torus coordinates to ambient angles
(theta = F_theta s, eta = F_eta t, with F_theta rows the primal and F_eta
rows the dual simplex vertices).  The quotient structure (global phase,
finite phase group) only enters through the distances, which live in metgeo
beside its distance kernels.  The chart map phi and the scaling flow psi_t
move radii alone, with diagonal Jacobians, so their pullback checks multiply
coefficient rows over radius stacks.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .ambient import form_coefficients, moment_map, torus_metric_weights
from .params import (FOUR_PI2, PI2, TWO_PI, LevelSetSpec, convert_parameters,
                     convert_parameters_inverse)
from .polytope import lattice_maps


def embedded_angles(torus: np.ndarray, block: str) -> np.ndarray:
    """Ambient angles, before reduction mod 1, of torus rows (..., n), n read
    from the rows' width: theta = F_theta s for block "theta", eta = F_eta t
    for block "eta", F_theta rows the primal and F_eta rows the dual
    vertices.  Each row is its own matrix-vector product, so a stack gives
    each row's bits."""
    x = np.asarray(torus, dtype=float)
    maps = lattice_maps(x.shape[-1])
    rows = np.array({"theta": maps.dual_t, "eta": maps.primal_t}[block], dtype=float)
    return np.matmul(rows, x[..., None])[..., 0]


def _as_complex(z, label: str) -> np.ndarray:
    arr = np.asarray(z, dtype=complex).reshape(-1)
    if arr.size < 2:
        raise ValueError(f"{label} needs at least two components")
    if not (np.all(np.isfinite(arr)) and np.any(arr != 0)):
        raise ValueError(f"{label} must be a finite, nonzero representative")
    return arr


class CPnPoint(NamedTuple("CPnPoint", [("z", np.ndarray), ("lam", float)])):
    """Representative z on the sphere sum |z|^2 = lam, up to the diagonal circle.

    Both charts use it: CP^n and its quotient by the dual-simplex phase group
    differ only in the distance taken between representatives."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, z, lam):
        z = _as_complex(z, "CPnPoint.z")
        if not 0 < lam < math.inf:
            raise ValueError("lam must be positive and finite")
        return super().__new__(cls, z, lam)

    @property
    def n(self) -> int:
        return self.z.size - 1


# -- the two fibrations ------------------------------------------------------

def project_pi1(base_r, torus_s) -> np.ndarray:
    """First projection z_i = r_i e^{2 pi i theta_i}, theta = F_theta s: the
    representatives lie on the rho1-sphere, or the unit sphere for r / rho1."""
    theta = np.mod(embedded_angles(torus_s, "theta"), 1.0)
    return np.asarray(base_r, dtype=float) * np.exp(2j * math.pi * theta)


def pi1_image_residual(z, rho2: float) -> np.ndarray:
    """Defect of the image equation prod |z_i|^2 = e^{-4 pi^2 rho2^2} (sum |z_i|^2)^{n+1},
    normalized by (sum |z_i|^2)^{n+1} so the result is scale invariant.

    One value per representative z of shape (..., n+1), off-image probes
    included."""
    sq = np.abs(np.asarray(z, dtype=complex)) ** 2
    scale = np.sum(sq, axis=-1) ** sq.shape[-1]
    return np.abs(np.prod(sq, axis=-1) - math.exp(-FOUR_PI2 * rho2 * rho2) * scale) / scale


def project_pi2(u, torus_t) -> np.ndarray:
    """Second projection of the log-shape u = log(r / rho1): |z_i| =
    sqrt(-u_i / (2 pi^2)), phase e^{-2 pi i eta_i}, eta = F_eta t.

    The representatives lie at scale sum |z_i|^2 = rho2^2, so hn_distance
    measures CPnPoint(z, rho2^2) at the image's scale rho2; the unit-sphere
    representative is this one divided by rho2.  The domain is checked once
    for the whole stack.
    """
    u = np.asarray(u, dtype=float)
    if np.any(u > 0):
        raise ValueError("point outside the fibration domain: some log-shape u_i > 0")
    if np.any(u == 0):
        # on a regular level set every u_i < 0: a zero means the largest
        # coordinate's log rounded to 0 (via log_shape: the other squares underflowed)
        raise ArithmeticError("the pi2 modulus vanishes: a log-shape coordinate rounded to 0")
    mod = np.sqrt(-u / (2.0 * PI2))
    eta = np.mod(embedded_angles(torus_t, "eta"), 1.0)
    return mod * np.exp(-2j * math.pi * eta)


def pi2_image_residual(z) -> np.ndarray:
    """Defect of the image equation sum_i e^{-4 pi^2 |z_i|^2} = 1, one value
    per representative z of shape (..., n+1); values of order 1 or more mean
    the point is far off the image (the zero vector scores n)."""
    sq = np.abs(np.asarray(z, dtype=complex)) ** 2
    return np.abs(np.sum(np.exp(-FOUR_PI2 * sq), axis=-1) - 1.0)


# -- the chart diffeomorphism ------------------------------------------------

def _phi_radii(r, rho1: float, rho2: float) -> np.ndarray:
    """phi's radial map r -> rho1 e^{-2 pi^2 rho2^2 r^2}; phi keeps theta and
    negates eta."""
    return rho1 * np.exp(-2.0 * PI2 * rho2 * rho2 * r ** 2)


def _j_entries(c: np.ndarray) -> np.ndarray:
    """The two entries of J on (dr, deta), dr -> c deta and deta -> -dr / c,
    side by side."""
    return np.concatenate([c, -1.0 / c], axis=-1)


def _phi_pullback(r, rho1: float, rho2: float) -> dict[str, np.ndarray]:
    """phi^* of the ambient tensors at radius rows r (..., m), as coefficient
    rows: omega1 on dr^dtheta, omega2 on dr^deta, the metric's theta, r and
    eta blocks side by side, and J2, the ambient compatible structure
    dr -> 2 pi r' deta at the image conjugated by the Jacobian.  phi's
    Jacobian is diagonal, 1 on theta, -1 on eta and dr'/dr on r, so each
    pulled-back entry is a product."""
    image = _phi_radii(r, rho1, rho2)
    jac = -FOUR_PI2 * rho2 * rho2 * r * image
    theta_w, eta_w = torus_metric_weights(image)
    return {"omega1": jac * form_coefficients("omega1", image),
            "omega2": -(jac * form_coefficients("omega2", image)),
            "metric": np.concatenate([theta_w, jac * jac, eta_w], axis=-1),
            "J2": _j_entries(-(TWO_PI * image * jac))}


def _relative_gap(got: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Per row, max |got - ref| over max(1, max |ref|)."""
    scale = np.maximum(1.0, np.max(np.abs(ref), axis=-1))
    return np.max(np.abs(got - ref), axis=-1) / scale


def phi_pullback_check(r, rho1: float, rho2: float) -> dict[str, np.ndarray]:
    """Pull the ambient tensors back through the chart map and compare with the
    closed-form coefficients, per row of a radius stack r (..., m).

    References: omega1 -> -8 pi^3 rho1^2 rho2^2 r e^{-4 pi^2 rho2^2 r^2} dr^dtheta
    (the radial factor decreases, so the pulled-back area form flips sign),
    omega2 -> 2 pi rho2^2 r dr^deta, the diagonal metric coefficients, the
    chart complex structure `complex_structure_at` for J2, and the two
    moment-map identities.
    """
    r = np.asarray(r, dtype=float)
    pulled = _phi_pullback(r, rho1, rho2)
    decay = np.exp(-FOUR_PI2 * rho2 * rho2 * r ** 2)
    refs = {
        "omega1": -8.0 * math.pi * PI2 * rho1 ** 2 * rho2 ** 2 * r * decay,
        "omega2": TWO_PI * rho2 ** 2 * r,
        "metric": np.concatenate([FOUR_PI2 * rho1 ** 2 * decay,
                                  16.0 * PI2 ** 2 * rho1 ** 2 * rho2 ** 4 * r ** 2 * decay,
                                  1.0 / (FOUR_PI2 * rho1 ** 2 * decay)], axis=-1),
        "J2": _j_entries(complex_structure_at(r, rho1, rho2)),
    }
    residuals = {name: _relative_gap(pulled[name], ref) for name, ref in refs.items()}

    k1, k2 = convert_parameters_inverse(r.shape[-1] - 1, rho1, rho2)
    mu1, mu2 = moment_map(_phi_radii(r, rho1, rho2))
    want1 = (-k1) * (1.0 - np.sum(decay, axis=-1))
    residuals["mu1"] = np.abs((-k1 + mu1) - want1) / max(1.0, abs(k1))
    want2 = math.pi * rho2 ** 2 * (np.matmul(r[..., None, :], r[..., None])[..., 0, 0] - 1.0)
    residuals["mu2"] = np.abs((mu2 - k2) - want2) / max(1.0, abs(k2))
    return residuals


# -- complex structures on the chart -----------------------------------------

def complex_structure_at(r, lam1: float, lam2: float) -> np.ndarray:
    """J_{lam1,lam2} on the chart's (r, eta) block, one coefficient row c per
    row of radii (..., m): J dr_i = c_i deta_i and J deta_i = -dr_i / c_i, with
    c_i = 8 pi^3 r_i lam1^2 lam2^2 e^{-4 pi^2 lam2^2 r_i^2}.  So J^2 = -1, and
    J preserves the chart form 2 pi sum r_i dr_i^deta_i, by construction."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ValueError("complex structure is singular where some r_i = 0")
    if lam1 <= 0 or lam2 <= 0:
        raise ValueError("lam1 and lam2 must be positive")
    return 8.0 * math.pi * PI2 * r * lam1 ** 2 * lam2 ** 2 \
        * np.exp(-FOUR_PI2 * lam2 ** 2 * r ** 2)


# -- the scaling flow ---------------------------------------------------------

def alpha_deform(spec: LevelSetSpec, t: float) -> LevelSetSpec:
    """The rescaling t > 0 on level sets: (k1, k2) -> (t^2 k1, k2 - (n+1)/(2 pi) log t),
    taken back to (rho1, rho2)."""
    if not t > 0:
        raise ValueError("t must be positive")
    m = spec.n + 1
    k1, k2 = t ** 2 * spec.k1, spec.k2 - m / TWO_PI * math.log(t)
    return LevelSetSpec(spec.n, *convert_parameters(spec.n, k1, k2))


# psi_t^* omega = t^k omega_t: omega1 gains t^2, omega2 and omegaD are unchanged
_PSI_POWERS = {"omega1": 2, "omega2": 0, "omegaD": 0}


def _psi_pullback(r, t: float) -> dict[str, np.ndarray]:
    """psi_t^* of the three forms at radius rows r, psi_t: r -> t r with the
    angles fixed, as coefficient rows: each dr leg gains a factor t."""
    image = t * r
    return {"omega1": t * form_coefficients("omega1", image),
            "omega2": t * form_coefficients("omega2", image),
            "omegaD": form_coefficients("omegaD", image)}


def psi_pullback_residuals(r, t: float) -> dict[str, np.ndarray]:
    """Check psi_t^* omega = t^k omega entrywise for the three forms, per row
    of a radius stack r (..., m), with k from _PSI_POWERS."""
    if not t > 0:
        raise ValueError("t must be positive")
    r = np.asarray(r, dtype=float)
    pulled = _psi_pullback(r, t)
    return {name: _relative_gap(pulled[name], t ** k * form_coefficients(name, r))
            for name, k in _PSI_POWERS.items()}
