"""Ambient self-dual structure on the doubled torus (C*)^{n+1} x_mu (C*)^{n+1}.

Coordinates are (theta, r, eta), each of length n+1; an angle t stands for
the phase e^{2*pi*i*t}.  Every tensor is diagonal in the (theta_i, r_i, eta_i)
blocks and depends on the radii alone, so it is held as coefficient rows over
radius stacks r (..., n+1): the metric as `torus_metric_weights` (with 1 on
dr^2), each form as `form_coefficients`.  A pullback by a chart with a
diagonal Jacobian multiplies rows.  Only the closedness stencil builds dense
coordinate-frame matrices, frame ordered (d/dtheta_0.., d/dr_0.., d/deta_0..).
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import warnings

import numpy as np

# PI2 is bound here for gate 5's chart-exponent mutant, which imports it from ambient
from .params import FOUR_PI2, PI2, TWO_PI


def moment_map(r) -> tuple[np.ndarray, np.ndarray]:
    """(mu1, mu2) = (-pi * sum r_i^2, -(1/2pi) * log prod r_i) per row of a
    radius stack r (..., m).

    Each row's log product is accumulated with fsum so that radii spread over
    many decades do not lose the cancellation structure.
    """
    r = np.asarray(r, dtype=float)
    rows = r.reshape(-1, r.shape[-1])
    mu1 = -math.pi * np.array([math.fsum(row) for row in rows * rows])
    mu2 = -np.array([math.fsum(map(math.log, row)) for row in rows]) / TWO_PI
    return mu1.reshape(r.shape[:-1]), mu2.reshape(r.shape[:-1])


def torus_metric_weights(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal coefficients of the metric on the two angle blocks at radii r
    of any shape: (4 pi^2 r^2 on dtheta^2, 1 / (4 pi^2 r^2) on deta^2).

    Raises ArithmeticError where 4 pi^2 r^2 leaves the normal doubles: a small
    rho1 or a deep rho2 underflows it for the smallest radii (its reciprocal
    then overflows or divides by 0), a large rho1 overflows it for the largest.
    """
    with np.errstate(over="ignore"):
        theta_w = FOUR_PI2 * r**2
    if theta_w.max(initial=0.0) == math.inf:
        raise ArithmeticError(f"radius squared overflow at r = {float(np.max(r)):.3e}: 4 pi^2 r^2 "
                              "is above the largest double, rho1 is too large for the torus metric")
    if theta_w.min(initial=math.inf) < sys.float_info.min:
        raise ArithmeticError(
            f"radius squared underflow at r = {float(np.min(r)):.3e}: 4 pi^2 r^2 is below "
            "the smallest normal double, rho1 is too small or rho2 too deep for the torus metric")
    return theta_w, 1.0 / theta_w


# each package form as sum_i c_i(r) dx_i ^ dy_i: blocks (x, y), 0 = theta,
# 1 = r, 2 = eta, and the coefficient row c(r).  omega1 = 2pi sum r_i dr_i^dtheta_i,
# omega2 = (1/2pi) sum (1/r_i) dr_i^deta_i, omegaD = sum dtheta_i^deta_i.
FORMS = {
    "omega1": (1, 0, lambda r: TWO_PI * r),
    "omega2": (1, 2, lambda r: 1.0 / (TWO_PI * r)),
    "omegaD": (0, 2, np.ones_like),
}


def form_coefficients(form: str, r) -> np.ndarray:
    """Coefficient row c(r) of one package form at radii r of any shape (..., m)."""
    return FORMS[form][2](np.asarray(r, dtype=float))


def _form_stack(form: str, r: np.ndarray) -> np.ndarray:
    """Coordinate-frame matrices (..., 3m, 3m) of one package form at radii
    r (..., m), frame ordered (d/dtheta_0.., d/dr_0.., d/deta_0..): the dense
    input of the closedness stencil."""
    m = r.shape[-1]
    x, y, coef = FORMS[form]
    i = np.arange(m)
    c = coef(r)
    w = np.zeros(r.shape[:-1] + (3 * m, 3 * m))
    w[..., x * m + i, y * m + i] = c
    w[..., y * m + i, x * m + i] = -c
    return w


def _adapted_frame(r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficient rows of the adapted frame d/dr_i, (1/2pi r_i) d/dtheta_i,
    2pi r_i d/deta_i: its x (radial), y1 (theta) and y2 (eta) blocks."""
    return np.ones_like(r), 1.0 / (TWO_PI * r), TWO_PI * r


def adapted_frame_check(r) -> dict[str, np.ndarray]:
    """Deviation of the adapted frame from its canonical shapes, per row of a
    radius stack r (..., m): g-orthonormal, omega1 = x^y1, omega2 = x^y2 and
    omegaD = y1^y2.

    Every tensor pairs block i of one kind only with block i of another, so
    each canonical entry is a product of coefficient rows, and every other
    entry is exactly 0.
    """
    r = np.asarray(r, dtype=float)
    x, y1, y2 = _adapted_frame(r)
    theta_w, eta_w = torus_metric_weights(r)
    pairings = {
        "gram_orthonormal": (x * x, y1 * theta_w * y1, y2 * eta_w * y2),
        "omega1_block": (x * form_coefficients("omega1", r) * y1,),
        "omega2_block": (x * form_coefficients("omega2", r) * y2,),
        "omegaD_block": (y1 * form_coefficients("omegaD", r) * y2,),
    }
    return {name: np.max(np.abs(np.concatenate(rows, axis=-1) - 1.0), axis=-1)
            for name, rows in pairings.items()}


def leaf_volume(r) -> np.ndarray:
    """Volume prod(2pi r_i) * prod(1/(2pi r_j)) of the doubled torus leaf, per
    row of a radius stack of shape (..., m).

    The two products telescope pairwise; multiplying factor against cofactor
    keeps every partial product O(1) even for radii spread over decades.
    """
    r = np.asarray(r, dtype=float)
    v = np.ones(r.shape[:-1])
    for x in np.moveaxis(r, -1, 0):
        v *= (TWO_PI * x) * (1.0 / (TWO_PI * x))
    return v


def _check_fd_step(r: np.ndarray, h: float) -> None:
    """Check the central-difference step h against the radius rows r (N, m):
    warns when h is large against some row's smallest radius; raises when h
    is not positive or would shift a radius to <= 0."""
    if not h > 0:
        raise ValueError("step must be positive")
    r_min = np.min(r, axis=-1)
    if np.any(h >= 0.1 * r_min):
        warnings.warn("finite-difference step is large relative to min r_i", stacklevel=3)
    if not np.all(r_min - h > 0):
        raise ValueError("all radii must be strictly positive")


def closedness_residuals(form, r, h) -> np.ndarray:
    """Max |(d omega)_{abc}| with coefficient derivatives by central
    differences, per row of a radius stack r (N, m).

    `form` is one of "omega1"/"omega2"/"omegaD", or a callable mapping
    radius rows (B, m) to antisymmetric coordinate-frame matrices
    (B, 3m, 3m).  Either way the coefficients depend on the radii alone, so
    only the m radius axes are differenced: the theta and eta rows of the
    gradient are exactly the 0 a shifted evaluation gives them.  `h` is the
    one step for every row.
    A closed form yields a residual of order h^2 (exactly 0 for coefficients
    constant along the differenced axes).  A non-finite cyclic sum makes the
    row's residual inf, never a pass.
    """
    r = np.asarray(r, dtype=float)
    m = r.shape[-1]
    if callable(form):
        def stack(shifted):  # (B, m, m) radius rows -> (B, m, 3m, 3m) matrices
            return form(shifted.reshape(-1, m)).reshape(shifted.shape[:2] + (3 * m, 3 * m))
    elif form in FORMS:
        stack = functools.partial(_form_stack, form)
    else:
        raise ValueError(f"unknown form {form!r}, expected one of {tuple(FORMS)} or a callable")
    _check_fd_step(r, h)
    dim, delta = 3 * m, h * np.eye(m)
    a, b, c = np.array(list(itertools.combinations(range(dim), 3)), dtype=np.intp).T
    # entry a of each row is that row's radii with r_a shifted by h; only the
    # radius rows of the gradient are nonzero
    base = r[:, None, :]
    grad = np.zeros((len(r), dim, dim, dim))
    grad[:, m:2 * m] = (stack(base + delta) - stack(base - delta)) / (2.0 * h)
    # each cyclic sum D_a w_bc + D_b w_ca + D_c w_ab, added left to right
    # over the triples a < b < c; a non-finite one makes its row inf
    t = grad[:, a, b, c] + grad[:, b, c, a] + grad[:, c, a, b]
    return np.where(np.all(np.isfinite(t), axis=1), np.max(np.abs(t), axis=1), np.inf)
