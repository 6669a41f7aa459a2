"""Ambient self-dual structure on the doubled torus (C*)^{n+1} x_mu (C*)^{n+1}.

Coordinates are (theta, r, eta), each of length n+1; an angle t stands for
the phase e^{2*pi*i*t}.  Tensors are returned as dense matrices in the
coordinate frame ordered (d/dtheta_0.., d/dr_0.., d/deta_0..).
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

# the package's one source of these constants; every other module imports them
TWO_PI = 2.0 * math.pi
PI2 = math.pi**2
FOUR_PI2 = 4.0 * math.pi**2
_TINY = np.finfo(float).tiny  # the smallest normal double


def _angles(v, n):
    a = np.asarray(v, dtype=float).reshape(n + 1)
    return np.mod(a, 1.0)


@dataclass(frozen=True)
class AmbientPoint:
    n: int
    theta: np.ndarray
    r: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        n = int(self.n)
        if n < 1:
            raise ValueError("n must be >= 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "theta", _angles(self.theta, n))
        object.__setattr__(self, "eta", _angles(self.eta, n))
        r = np.asarray(self.r, dtype=float).reshape(n + 1)
        if not np.all(r > 0):
            raise ValueError("all radii must be strictly positive")
        object.__setattr__(self, "r", r)

    @property
    def dim(self) -> int:
        return 3 * (self.n + 1)


def moment_map(p: AmbientPoint) -> tuple[float, float]:
    """(mu1, mu2) = (-pi * sum r_i^2, -(1/2pi) * log prod r_i).

    The log product is accumulated with fsum so that radii spread over many
    decades do not lose the cancellation structure.
    """
    mu1 = -math.pi * math.fsum(float(x) * float(x) for x in p.r)
    mu2 = -math.fsum(math.log(float(x)) for x in p.r) / TWO_PI
    return mu1, mu2


def convert_parameters(n: int, k1: float, k2: float) -> tuple[float, float]:
    """Level-set parameters (k1, k2) to radii parameters (rho1, rho2)."""
    if k1 >= 0:
        raise ValueError("k1 must be negative")
    rho1 = math.sqrt(-k1 / math.pi)
    rad = (n + 1) / FOUR_PI2 * math.log(-k1 / math.pi) + k2 / math.pi
    if rad < 0:
        raise ValueError("parameters outside the (rho1, rho2) chart: negative radicand")
    return rho1, math.sqrt(rad)


def convert_parameters_inverse(n: int, rho1: float, rho2: float) -> tuple[float, float]:
    if rho1 <= 0:
        raise ValueError("rho1 must be positive")
    k1 = -math.pi * rho1 * rho1
    k2 = math.pi * rho2 * rho2 - (n + 1) / TWO_PI * math.log(rho1)
    return k1, k2


def feasibility_threshold(n: int) -> float:
    """Smallest rho2 with a non-empty level set: rho2^2 = (n+1) log(n+1) / 4pi^2."""
    return math.sqrt((n + 1) * math.log(n + 1)) / TWO_PI


def torus_metric_weights(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal coefficients of the metric on the two angle blocks at radii r
    of any shape: (4 pi^2 r^2 on dtheta^2, 1 / (4 pi^2 r^2) on deta^2).

    Raises ArithmeticError when 4 pi^2 r^2 underflows below the normal
    doubles, where it loses digits and then its reciprocal overflows or
    divides by 0; deep rho2 does that to the smallest radii.
    """
    theta_w = FOUR_PI2 * r**2
    if theta_w.min(initial=math.inf) < _TINY:
        raise ArithmeticError(
            f"radius squared underflow at r = {float(np.min(r)):.3e}: 4 pi^2 r^2 is below "
            "the smallest normal double, rho2 is too deep for the torus metric")
    return theta_w, 1.0 / theta_w


def _block_indices(n: int):
    m = n + 1
    return np.arange(m), np.arange(m, 2 * m), np.arange(2 * m, 3 * m)


@dataclass(frozen=True)
class TensorsAt:
    n: int
    g: np.ndarray
    omega1: np.ndarray
    omega2: np.ndarray
    omegaD: np.ndarray


_FORM_IDS = ("omega1", "omega2", "omegaD")


def _form_stack(form: str, r: np.ndarray) -> np.ndarray:
    """Coordinate-frame matrices of one package form at radii r of shape (..., m).

    Returns shape (..., 3m, 3m); the one formula per form that both
    `ambient_tensors_at` and the closedness check evaluate.
    """
    m = r.shape[-1]
    th, rr, et = _block_indices(m - 1)
    w = np.zeros(r.shape[:-1] + (3 * m, 3 * m))
    if form == "omega1":
        w[..., rr, th] = TWO_PI * r
        w[..., th, rr] = -TWO_PI * r
    elif form == "omega2":
        w[..., rr, et] = 1.0 / (TWO_PI * r)
        w[..., et, rr] = -1.0 / (TWO_PI * r)
    else:
        w[..., th, et] = 1.0
        w[..., et, th] = -1.0
    return w


def ambient_tensors_at(p: AmbientPoint) -> TensorsAt:
    """Metric and the three closed 2-forms at p, as coordinate-frame matrices.

    omega1 = 2pi sum r_i dr_i^dtheta_i, omega2 = (1/2pi) sum (1/r_i) dr_i^deta_i,
    g = sum dr^2 + 4pi^2 r^2 dtheta^2 + (1/4pi^2 r^2) deta^2, omegaD = sum dtheta_i^deta_i.
    """
    n, r = p.n, p.r
    m = n + 1
    th, rr, et = _block_indices(n)
    g = np.zeros((3 * m, 3 * m))
    g[th, th], g[et, et] = torus_metric_weights(r)
    g[rr, rr] = 1.0

    omega1, omega2, omegaD = (_form_stack(form, r) for form in _FORM_IDS)
    return TensorsAt(n, g, omega1, omega2, omegaD)


@dataclass(frozen=True)
class FrameReport:
    frame: np.ndarray            # columns are frame vectors in coordinate basis
    residuals: dict

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())


def _canonical_blocks(m: int, dim: int):
    """Target matrices of the three forms in an adapted frame (x | y1 | y2 | z w)."""
    o1 = np.zeros((dim, dim))
    o2 = np.zeros((dim, dim))
    oD = np.zeros((dim, dim))
    x = np.arange(m)
    y1 = np.arange(m, 2 * m)
    y2 = np.arange(2 * m, 3 * m)
    o1[x, y1] = 1.0
    o1[y1, x] = -1.0
    o2[x, y2] = 1.0
    o2[y2, x] = -1.0
    oD[y1, y2] = 1.0
    oD[y2, y1] = -1.0
    extra = dim - 3 * m
    assert extra % 2 == 0
    for k in range(extra // 2):
        a, b = 3 * m + 2 * k, 3 * m + 2 * k + 1
        oD[a, b] = 1.0
        oD[b, a] = -1.0
    return o1, o2, oD


def frame_residuals(tensors: TensorsAt, frame: np.ndarray, m: int) -> dict:
    """Deviation of a candidate adapted frame from the canonical shapes.

    The frame has 3m columns, which must be g-orthonormal.  Block targets
    follow the (x | y1 | y2) ordering.
    """
    gram = frame.T @ tensors.g @ frame
    resid = {"gram_orthonormal": float(np.max(np.abs(gram - np.eye(3 * m))))}
    o1t, o2t, oDt = _canonical_blocks(m, 3 * m)
    for name, mat, target in (
        ("omega1_block", tensors.omega1, o1t),
        ("omega2_block", tensors.omega2, o2t),
        ("omegaD_block", tensors.omegaD, oDt),
    ):
        resid[name] = float(np.max(np.abs(frame.T @ mat @ frame - target)))
    return resid


def ambient_adapted_frame(p: AmbientPoint, tol: float = 1e-9) -> FrameReport:
    """Orthonormal adapted frame (1/2pi r_i) d/dtheta_i, d/dr_i, 2pi r_i d/deta_i.

    Columns are ordered x-block (radial), y1-block (theta), y2-block (eta), so
    the three forms take their canonical shapes.  Raises if any residual
    exceeds tol, naming the worst entry.
    """
    n, r = p.n, p.r
    m = n + 1
    dim = 3 * m
    frame = np.zeros((dim, dim))
    th, rr, et = _block_indices(n)
    frame[rr, np.arange(m)] = 1.0
    frame[th, np.arange(m, 2 * m)] = 1.0 / (TWO_PI * r)
    frame[et, np.arange(2 * m, 3 * m)] = TWO_PI * r
    tensors = ambient_tensors_at(p)
    resid = frame_residuals(tensors, frame, m)
    worst = max(resid, key=resid.get)
    if resid[worst] > tol:
        gram = frame.T @ tensors.g @ frame
        i, j = np.unravel_index(np.argmax(np.abs(gram - np.eye(dim))), gram.shape)
        raise ArithmeticError(
            f"adapted frame failed {worst} = {resid[worst]:.3e} (entry {i},{j})"
        )
    return FrameReport(frame, resid)


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


def _shift(p: AmbientPoint, axis: int, delta: float) -> AmbientPoint:
    m = p.n + 1
    blk, i = divmod(axis, m)
    arrays = [p.theta.copy(), p.r.copy(), p.eta.copy()]
    arrays[blk][i] += delta
    return AmbientPoint(p.n, *arrays)


@functools.cache
def _triples(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays (a, b, c) of every triple a < b < c, in lexicographic order."""
    idx = np.array(list(itertools.combinations(range(dim), 3)), dtype=np.intp).T
    idx.setflags(write=False)
    return idx[0], idx[1], idx[2]


def _fd_steps(r: np.ndarray, h) -> np.ndarray:
    """Central-difference step per radius row of r (N, m): h for every row,
    or by default 1e-5 * min(1, min r).  Warns when a step is large against
    the row's smallest radius; raises when a step is not positive or would
    shift a radius to <= 0."""
    r_min = np.min(r, axis=-1)
    if h is None:
        steps = 1e-5 * np.minimum(1.0, r_min)
    else:
        steps = np.full(r_min.shape, float(h))
    if np.any(steps <= 0):
        raise ValueError("step must be positive")
    if np.any(steps >= 0.1 * r_min):
        warnings.warn("finite-difference step is large relative to min r_i", stacklevel=3)
    if not np.all(r_min - steps > 0):
        raise ValueError("all radii must be strictly positive")
    return steps


def _closedness(plus: np.ndarray, minus: np.ndarray, steps: np.ndarray, axes) -> np.ndarray:
    """The one finite-difference stencil: per-row max |(d omega)_{abc}| from a
    form's matrices at the +/- step shifts of each row, `plus` and `minus` of
    shape (B, len(axes), dim, dim) with entry a shifted along axis axes[a].

    The derivative along every other axis is exactly 0.  Each cyclic sum
    D_a w_bc + D_b w_ca + D_c w_ab is added left to right over the triples
    a < b < c; a non-finite one makes its row's residual inf, never a pass.
    """
    dim = plus.shape[-1]
    grad = np.zeros((len(plus), dim, dim, dim))
    grad[:, axes] = (plus - minus) / (2.0 * steps)[:, None, None, None]
    a, b, c = _triples(dim)
    t = grad[:, a, b, c] + grad[:, b, c, a] + grad[:, c, a, b]
    return np.where(np.all(np.isfinite(t), axis=1), np.max(np.abs(t), axis=1), np.inf)


_FD_BLOCK = 32  # radius rows per slab of the closedness kernel


def closedness_residuals(form: str, r, h=None) -> np.ndarray:
    """Exterior-derivative residual of one package form per row of a radius
    stack r (N, m): row i gives exactly
    `exterior_derivative_residual(form, p, h)` at any AmbientPoint p with
    radii r[i].

    `h` is one step for every row, or None for each row's default
    1e-5 * min(1, min r).  The package forms' coefficients depend on the
    radii alone, so only the m radius axes are differenced: the theta and eta
    rows of the gradient are exactly the 0 a shifted evaluation gives them.
    Rows go through in slabs of _FD_BLOCK, so temporaries stay
    O(_FD_BLOCK * dim^3) whatever N is.
    """
    if form not in _FORM_IDS:
        raise ValueError(f"unknown form {form!r}, expected one of {_FORM_IDS} or a callable")
    r = np.asarray(r, dtype=float)
    steps = _fd_steps(r, h)
    m = r.shape[-1]
    shifts, axes = np.eye(m), np.arange(m, 2 * m)
    out = np.empty(len(r))
    for lo in range(0, len(r), _FD_BLOCK):
        rows = slice(lo, lo + _FD_BLOCK)
        # entry a of each row is that row's radii with r_a shifted by its step
        base, delta = r[rows, None, :], steps[rows, None, None] * shifts
        plus, minus = _form_stack(form, base + delta), _form_stack(form, base - delta)
        out[rows] = _closedness(plus, minus, steps[rows], axes)
    return out


def exterior_derivative_residual(form, p: AmbientPoint, h: float | None = None) -> float:
    """Max |(d omega)_{abc}| with coefficient derivatives by central differences.

    `form` is one of "omega1"/"omega2"/"omegaD", evaluated as the one-row
    call of `closedness_residuals`, or any callable mapping an AmbientPoint to
    an antisymmetric matrix in the coordinate frame, called once per point
    shifted along each of the 3(n+1) axes.  The default step is
    1e-5 * min(1, min r).  A closed form yields a residual of order h^2
    (exactly 0 for coefficients constant along the differenced axes).  A
    non-finite cyclic sum makes the residual inf, never a pass.
    """
    if not callable(form):
        return float(closedness_residuals(form, p.r[None], h)[0])
    steps = _fd_steps(p.r[None], h)
    dim = p.dim
    plus = np.stack([form(_shift(p, a, steps[0])) for a in range(dim)])
    minus = np.stack([form(_shift(p, a, -steps[0])) for a in range(dim)])
    return float(_closedness(plus[None], minus[None], steps, np.arange(dim))[0])
