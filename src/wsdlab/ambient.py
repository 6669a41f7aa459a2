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
from dataclasses import dataclass, field

import numpy as np

# the package's one source of these constants; every other module imports them
TWO_PI = 2.0 * math.pi
PI2 = math.pi**2
FOUR_PI2 = 4.0 * math.pi**2


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


def section_point(n: int, r) -> AmbientPoint:
    """Point on the zero section theta = eta = 0 over the given radii."""
    z = np.zeros(n + 1)
    return AmbientPoint(n, z, r, z)


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
    basis_order: tuple = field(default=())


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
    g[th, th] = FOUR_PI2 * r**2
    g[rr, rr] = 1.0
    g[et, et] = 1.0 / (FOUR_PI2 * r**2)

    omega1, omega2, omegaD = (_form_stack(form, r) for form in _FORM_IDS)

    labels = tuple(
        (blk, i) for blk in ("theta", "r", "eta") for i in range(m)
    )
    return TensorsAt(n, g, omega1, omega2, omegaD, labels)


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

    The first 3m columns must be g-orthonormal; any trailing degenerate pair
    only has to stay g-orthogonal to everything.  Block targets follow the
    (x | y1 | y2 | z w) ordering.
    """
    dim = frame.shape[1]
    gram = frame.T @ tensors.g @ frame
    resid = {}
    core = gram[: 3 * m, : 3 * m] - np.eye(3 * m)
    resid["gram_orthonormal"] = float(np.max(np.abs(core))) if 3 * m else 0.0
    if dim > 3 * m:
        off = gram.copy()
        off[: 3 * m, : 3 * m] = 0.0
        tail = np.arange(3 * m, dim)
        off[tail, tail] = 0.0
        if dim - 3 * m == 2:
            off[3 * m, 3 * m + 1] = 0.0
            off[3 * m + 1, 3 * m] = 0.0
        resid["gram_orthogonal_tail"] = float(np.max(np.abs(off)))
    o1t, o2t, oDt = _canonical_blocks(m, dim)
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


def leaf_volume(p: AmbientPoint) -> float:
    """Volume prod(2pi r_i) * prod(1/(2pi r_j)) of the doubled torus leaf.

    The two products telescope pairwise; multiplying factor against cofactor
    keeps every partial product O(1) even for radii spread over decades.
    """
    v = 1.0
    for x in p.r:
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


def exterior_derivative_residual(form, p: AmbientPoint, h: float | None = None) -> float:
    """Max |(d omega)_{abc}| with coefficient derivatives by central differences.

    `form` is one of "omega1"/"omega2"/"omegaD" or any callable mapping an
    AmbientPoint to an antisymmetric matrix in the coordinate frame.  A closed
    form yields a residual of order h^2 (exactly 0 for coefficients constant
    along the differenced axes).  The named forms are evaluated on all 2*dim
    shifted radius vectors at once; callables are called once per shifted
    point.  Each cyclic sum is added left to right in the order of the former
    per-triple loop, so the residual is bitwise the one that loop gave.  A
    non-finite cyclic sum makes the residual inf, never a pass.
    """
    if h is None:
        h = 1e-5 * min(1.0, float(np.min(p.r)))
    if h <= 0:
        raise ValueError("step must be positive")
    if h >= 0.1 * float(np.min(p.r)):
        warnings.warn("finite-difference step is large relative to min r_i", stacklevel=2)
    if not callable(form) and form not in _FORM_IDS:
        raise ValueError(f"unknown form {form!r}, expected one of {_FORM_IDS} or a callable")
    m = p.n + 1
    dim = p.dim
    # row a holds the radii after shifting axis a; theta and eta rows keep r
    rows, cols = np.arange(m, 2 * m), np.arange(m)
    r_plus = np.tile(p.r, (dim, 1))
    r_plus[rows, cols] += h
    r_minus = np.tile(p.r, (dim, 1))
    r_minus[rows, cols] += -h
    if not np.all(r_minus > 0):
        raise ValueError("all radii must be strictly positive")
    if callable(form):
        plus = np.stack([form(_shift(p, a, h)) for a in range(dim)])
        minus = np.stack([form(_shift(p, a, -h)) for a in range(dim)])
    else:
        plus, minus = _form_stack(form, r_plus), _form_stack(form, r_minus)
    grad = (plus - minus) / (2.0 * h)
    # d(omega)_{abc} = D_a w_bc + D_b w_ca + D_c w_ab, fully antisymmetric
    a, b, c = _triples(dim)
    t = grad[a, b, c] + grad[b, c, a] + grad[c, a, b]
    if not np.all(np.isfinite(t)):
        return math.inf
    return float(np.max(np.abs(t)))


@dataclass(frozen=True)
class AuxiliaryVectors:
    """The four torus-direction fields controlling the degenerate distribution."""

    n: int
    X1: np.ndarray
    X2: np.ndarray
    Y1: np.ndarray
    Y2: np.ndarray
    norm2_X1: float
    norm2_X2: float
    norm2_Y1: float
    norm2_Y2: float
    inner_X: float
    inner_Y: float
    X1_flat: np.ndarray
    X2_flat: np.ndarray
    Y1_flat: np.ndarray
    Y2_flat: np.ndarray
    degenerate: bool

    @property
    def norm_product(self) -> float:
        return self.norm2_X1 * self.norm2_X2


def auxiliary_vectors(p: AmbientPoint, degenerate_tol: float = 1e-9) -> AuxiliaryVectors:
    """X1 = sum d/dtheta_i, X2 = (1/4pi^2) sum r_i^-2 d/dtheta_i and the eta-side
    mirrors Y1 = sum d/deta_i, Y2 = 4pi^2 sum r_i^2 d/deta_i, with their g-data.

    By Cauchy-Schwarz |X1|^2 |X2|^2 >= (n+1)^2 with equality exactly on the
    equal-radii locus; `degenerate` flags that locus (relative tolerance).
    """
    n, r = p.n, p.r
    m = n + 1
    dim = 3 * m
    th, rr, et = _block_indices(n)
    X1 = np.zeros(dim)
    X1[th] = 1.0
    X2 = np.zeros(dim)
    X2[th] = 1.0 / (FOUR_PI2 * r**2)
    Y1 = np.zeros(dim)
    Y1[et] = 1.0
    Y2 = np.zeros(dim)
    Y2[et] = FOUR_PI2 * r**2

    g = ambient_tensors_at(p).g
    n2x1 = float(X1 @ g @ X1)
    n2x2 = float(X2 @ g @ X2)
    n2y1 = float(Y1 @ g @ Y1)
    n2y2 = float(Y2 @ g @ Y2)
    ix = float(X1 @ g @ X2)
    iy = float(Y1 @ g @ Y2)
    s = float(m * m)
    degenerate = (n2x1 * n2x2 - s) <= degenerate_tol * s
    return AuxiliaryVectors(
        n, X1, X2, Y1, Y2, n2x1, n2x2, n2y1, n2y2, ix, iy,
        g @ X1, g @ X2, g @ Y1, g @ Y2, degenerate,
    )
