"""Reduced level sets of the doubled-torus moment map and their induced structure.

The base of a level set lives in shape coordinates x = r / rho1, where the two
constraints read sum x^2 = 1 and sum log x = -2 pi^2 rho2^2.  The sampler
solves them in log coordinates u = log x, where the product constraint is a
hyperplane and the sphere a convex level set, so each sample is the one root
of a convex function along a ray.  A spec holds (n, rho1, rho2) as given, and
the solve finds the shape from rho2 alone and multiplies it by rho1, so the
sampler is exactly covariant under the rescaling family (rho1 -> t rho1 at
fixed rho2): the radii at rho1 are bitwise rho1 times those at rho1 = 1.  The
limit sweeps rely on that and solve each shape once per rho2.

The random numbers behind sample idx come from its own counter-based stream,
Philox keyed by SeedSequence((seed, idx, ...)), and do not depend on the level
set.  `stream_rows` derives every index's key in one SeedSequence-equivalent
array pass and runs Philox4x64-10 over every (index, block) counter in one
more, bitwise equal to a fresh generator per index.  A sweep over many level
sets therefore draws them once (`draw_directions`, `draw_torus`) and hands
the read-only rows to the per-spec solve (`solve_base`) and, as arrays, to
the projections in maps.
A sample is those arrays and nothing more: radii (N, n+1) from `solve_base`
or its one-spec composition `sample_base`, and torus rows (N, 2n) from
`draw_torus`, s in the first n columns and t in the last n.

The induced structure depends on the base radii alone, since both tori act
on it by symmetries.  `induced_structure` maps an (N, n+1) radius array to the
restricted metric and forms as (N, d, d) stacks in one array pass;
`verify_wsd_axioms` and `omega_d_degenerate_block` reduce such stacks and
radii to per-sample arrays.  Each row's results are those of a call with
that row alone.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .ambient import (
    _FORMS,
    _TWO_PI2,
    FOUR_PI2,
    PI2,
    TWO_PI,
    convert_parameters_inverse,
    feasibility_threshold,
    torus_metric_weights,
)

DEGENERACY_GUARD = 1e-8  # relative margin on |X1|^2 |X2|^2 - (n+1)^2


class LevelSetSpec(NamedTuple("LevelSetSpec", [("n", int), ("rho1", float), ("rho2", float)])):
    """The level set of the doubled torus over R^{n+1} with scale rho1 and
    profile width rho2; its moment levels (k1, k2) are derived from them.  A
    named tuple that checks its fields however it is built."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, n, rho1, rho2):
        if int(n) < 1:
            raise ValueError("n must be >= 1")
        if not (math.isfinite(rho1) and math.isfinite(rho2)):
            raise ValueError(f"rho1 and rho2 must be finite, got {rho1}, {rho2}")
        if not rho1 > 0:
            raise ValueError("rho1 must be positive")
        if not rho2 > 0:
            raise ValueError("rho2 must be positive")
        return super().__new__(cls, n, rho1, rho2)

    @property
    def k1(self) -> float:
        return convert_parameters_inverse(self.n, self.rho1, self.rho2)[0]

    @property
    def k2(self) -> float:
        return convert_parameters_inverse(self.n, self.rho1, self.rho2)[1]


class EmptyLevelSet(ValueError):
    """The level set is not regular, so it has no sample to solve for."""


def feasibility(spec: LevelSetSpec) -> str:
    """Classify the level set as "empty", "degenerate", or "regular".

    Non-empty iff (-k1/pi) e^{4 pi k2/(n+1)} >= n+1, with equality the single
    r-orbit where the two moment differentials align.  In logs the statistic
    is 4 pi^2 rho2^2/(n+1) vs log(n+1), which does not depend on the overall
    scale rho1, so it is taken from rho2 alone.  A rho2 whose statistic
    leaves the doubles is far above the threshold, and regular.
    """
    m = spec.n + 1
    try:
        lhs = FOUR_PI2 * spec.rho2**2 / m
    except OverflowError:  # rho2^2 itself leaves the doubles
        lhs = math.inf
    if lhs == math.inf:
        return "regular"
    rhs = math.log(m)
    band = 1e-12 * max(1.0, abs(lhs), abs(rhs))
    if lhs < rhs - band:
        return "empty"
    if lhs <= rhs + band:
        return "degenerate"
    return "regular"


def require_regular(spec: LevelSetSpec) -> None:
    """Raise EmptyLevelSet unless the level set is regular."""
    cls = feasibility(spec)
    if cls != "regular":
        raise EmptyLevelSet(f"n={spec.n} rho2={spec.rho2:.6g} classified {cls!r} "
                            f"(threshold {feasibility_threshold(spec.n):.6g})")


# numpy's SeedSequence constants: a pool of 4 uint32 words, 16-bit xorshift
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_SIZE = 4
_WORD = 0xFFFFFFFF
_HALF = np.uint64(32)  # the uint64 shift between two uint32 words


def _words(value: int) -> list[int]:
    # SeedSequence's little-endian uint32 split of a non-negative int; 0 is [0]
    if value < 0:
        raise ValueError(f"stream entropy must be non-negative, got {value}")
    words = []
    while True:
        words.append(value & _WORD)
        value >>= 32
        if not value:
            return words


def _hasher(const: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
    """SeedSequence's hashmix on uint32 columns: each call hashes under the
    current constant and advances it, so calls must come in numpy's order."""
    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _WORD
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))
    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> np.uint32(16))


def _stream_keys(seed: int, idx: np.ndarray, *tag: int) -> np.ndarray:
    """The (len(idx), 2) uint64 Philox keys that
    SeedSequence((seed % 2**63, idx_i, *tag)).generate_state(2, np.uint64)
    gives, one row per index, from one pass of numpy's mixing algorithm over
    uint32 columns (one column per entropy word).

    Raises ValueError for an index outside [0, 2**32): a larger one would
    take two entropy words, and the column layout gives the index one.
    """
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() > _WORD):
        raise ValueError(f"stream indices must lie in [0, 2**32), got {idx.min()}..{idx.max()}")

    def column(word):
        return np.full(idx.size, word, np.uint32)

    entropy = ([column(w) for w in _words(int(seed) % (1 << 63))] + [idx.astype(np.uint32)]
               + [column(w) for p in tag for w in _words(int(p))])
    entropy += [column(0)] * (_POOL_SIZE - len(entropy))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    out = _hasher(_INIT_B, _MULT_B)
    lo0, hi0, lo1, hi1 = (out(word).astype(np.uint64) for word in pool)
    # generate_state(2, np.uint64) joins its four words little-endian
    return np.stack([lo0 | hi0 << _HALF, lo1 | hi1 << _HALF], axis=1)


# Philox4x64-10 as numpy runs it (Salmon et al., SC 2011): the round
# multipliers of counter words 0 and 2, as a column against (2, ...) arrays
# and split into 32-bit halves, and the Weyl key increments
_PHILOX_MULT = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], np.uint64)[:, None, None]
_LOW_HALF = np.uint64(_WORD)
_MULT_LO, _MULT_HI = _PHILOX_MULT & _LOW_HALF, _PHILOX_MULT >> _HALF
_PHILOX_WEYL = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], np.uint64)[:, None, None]
_PHILOX_ROUNDS = 10
_DOUBLE_SHIFT = np.uint64(11)


def _philox_words(keys: np.ndarray, blocks: int) -> np.ndarray:
    """The (len(keys), 4 blocks) uint64 words numpy's Philox gives under each
    key from counter 0, as Philox(key=k).random_raw(4 * blocks): philox_next
    increments the counter before each block, so block b runs counter b + 1.

    Every (row, block) counter goes through the ten rounds at once.  Words 0
    and 2 (`even`) are one (2, rows, blocks) array, as are 1 and 3 (`odd`);
    the 64 x 64 -> 128 bit products take 32-bit halves, and every wrapping
    product is an array operation, never uint64 scalar arithmetic.
    """
    key = keys.T[:, :, None]
    even = np.zeros((2, len(keys), blocks), np.uint64)
    even[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    odd = np.zeros_like(even)
    for rnd in range(_PHILOX_ROUNDS):
        if rnd:
            key = key + _PHILOX_WEYL
        # the high word of M x from 32-bit halves; u and v stay below
        # (2**32 - 1)**2 + 2**32 - 1 < 2**64, so no partial sum wraps
        x_lo, x_hi = even & _LOW_HALF, even >> _HALF
        u = _MULT_LO * x_hi + (_MULT_LO * x_lo >> _HALF)
        v = _MULT_HI * x_lo + (u & _LOW_HALF)
        hi = _MULT_HI * x_hi + (u >> _HALF) + (v >> _HALF)
        # (w0, w1, w2, w3) <- (hi(M1 w2) ^ w1 ^ k0, lo(M1 w2), hi(M0 w0) ^ w3 ^ k1, lo(M0 w0))
        even, odd = hi[::-1] ^ odd ^ key, (_PHILOX_MULT * even)[::-1]
    return np.stack([even[0], odd[0], even[1], odd[1]], axis=-1).reshape(len(keys), 4 * blocks)


def stream_rows(seed: int, count: int, width: int, low: float, high: float,
                *tag: int) -> np.ndarray:
    """Rows rng.uniform(low, high, width) for idx = 0..count-1, where rng is
    the Philox stream keyed by SeedSequence((seed % 2**63, idx, *tag)), as one
    read-only (count, width) array.

    The keys come from one SeedSequence-equivalent array pass
    (`_stream_keys`) and the raw words from one Philox pass over every row's
    blocks (`_philox_words`); each word becomes low + (high - low) times its
    top 53 bits over 2**53, as numpy's uniform does, so the rows are bitwise
    those of a fresh Generator(Philox(SeedSequence(...))) per index.
    Each row is a pure function of (seed, idx, tag), so rows drawn once serve
    every level set of a sweep; read-only, so no caller can change them under
    a later one.
    """
    raw = _philox_words(_stream_keys(seed, np.arange(count), *tag), -(-width // 4))
    # numpy's next_double and random_uniform on each word, in buffer order
    rows = low + (high - low) * ((raw[:, :width] >> _DOUBLE_SHIFT) * 2.0**-53)
    rows.setflags(write=False)
    return rows


def _log_ray_roots(centre: float, d: np.ndarray) -> np.ndarray:
    """Per row of d, the root t > 0 of logsumexp(2 (centre + t d)) = 0.

    Requires centre < 0 with m e^{2 centre} < 1 and max d > 0.  The function
    is convex and increasing in t on the root's side, so Newton started at
    t = -centre / max d (where the largest term is e^0 and the function is
    >= 0) decreases t monotonically onto the root.  Each row stops on its own
    test, the first step that no longer lowers t, so a row's result does not
    depend on the rest of the batch.
    """
    t = -centre / np.max(d, axis=1)
    live = np.arange(len(d))
    while live.size:
        dl, tl = d[live], t[live]
        a = 2.0 * (centre + tl[:, None] * dl)
        top = np.max(a, axis=1)
        e = np.exp(a - top[:, None])
        s = np.sum(e, axis=1)
        f = top + np.log(s)
        slope = 2.0 * np.sum(e * dl, axis=1) / s
        t_new = tl - f / slope
        down = t_new < tl
        t[live[down]] = t_new[down]
        live = live[down]
    return t


def draw_directions(n: int, count: int, seed: int = 0) -> np.ndarray:
    """The base sampler's ray directions for samples 0..count-1: per index,
    log-uniform weights on [-3, 3] from stream (seed, idx), centred to sum
    zero.  Read-only (count, n+1) rows; for n = 1 the base is enumerated and
    draws nothing, so the rows are empty, (count, 0)."""
    if n == 1:
        d = np.empty((count, 0))
    else:
        logw = stream_rows(seed, count, n + 1, -3.0, 3.0)
        d = logw - np.mean(logw, axis=1, keepdims=True)
    d.setflags(write=False)
    return d


def _rising_root(a: float, k: float) -> float:
    """The smallest root y >= 0 of the concave f(y) = a y + log1p(-k e^y),
    f(0) <= 0 < max f: Newton from 0 rises monotonically onto it, since each
    tangent lies above f, and stops once a step no longer raises y."""
    y = 0.0
    while True:
        e = k * math.exp(y)
        y_new = y - (a * y + math.log1p(-e)) * (1.0 - e) / (a * (1.0 - e) - e)
        if not y_new > y:
            return y
        y = y_new


def _small_root(n: int, rho2: float) -> tuple[float, Fraction]:
    """(sqrt(t-), half): t- < 1/(n+1) the small root of t^n (1 - n t) = c,
    c = e^{-4 pi^2 rho2^2}, the least coordinate square over the base, and
    half = log c / 2n as an exact Fraction (2 pi^2 to 35 digits).  t- =
    c^{1/n} e^y, n y + log1p(-n t-) = 0, and c^{1/2n} = e^h e^{half - h},
    h = half rounded, is formed exactly: the float product -4 pi^2 rho2^2 is
    off by ~1.5 ulp of |log c|.  Where e^h is 0 so is sqrt(t-), returned
    before the residual (> 709 from rho2 ~1e9) overflows."""
    half = -_TWO_PI2 * Fraction(rho2) ** 2 / n
    h = float(half)
    scale = math.exp(h)
    if scale == 0.0:
        return 0.0, half
    y = _rising_root(n, n * math.exp(2.0 * h))
    return scale * math.exp(float(half - Fraction(h)) + 0.5 * y), half


def _radii_underflow(spec: LevelSetSpec) -> ArithmeticError:
    return ArithmeticError(f"base radii underflow at rho2 = {spec.rho2:.6g}: "
                           "a radius rounds to 0 in double precision")


def solve_base(spec: LevelSetSpec, directions: np.ndarray) -> np.ndarray:
    """Radii vectors on the base constraint set, one row r in R^{n+1} per row
    of `directions` (from `draw_directions(spec.n, count, seed)`).

    In log coordinates u = log(r / rho1) the base is the hyperplane
    sum u = L = -2 pi^2 rho2^2 cut by the convex level set logsumexp(2u) = 0.
    Its centre u = L/m (m = n+1) lies strictly inside the sphere exactly when
    the spec is regular, so every sum-zero direction d meets the base once,
    at a ray parameter t > 0 solved per row (`_log_ray_roots`).  For n = 1
    it is (hi, lo) and (lo, hi), alternated: lo = sqrt(t-) from _small_root,
    as in metgeo.base_suprema, and hi = sqrt(1 - lo^2).  Either way the rows are
    rho1 times the shape the solve finds from rho2 alone, so they are bitwise
    spec.rho1 times the rows of the spec with rho1 = 1.

    Raises EmptyLevelSet unless the spec is regular, and ArithmeticError when
    a radius underflows to 0, which happens for rho2 of about 8 and beyond.
    """
    require_regular(spec)
    count = len(directions)
    m = spec.n + 1
    rho1 = spec.rho1
    try:
        log_target = -2.0 * PI2 * spec.rho2**2
    except OverflowError:  # rho2^2 itself leaves the doubles
        log_target = -math.inf
    if log_target == -math.inf:
        raise _radii_underflow(spec)

    if spec.n == 1:
        lo = _small_root(1, spec.rho2)[0]
        hi = math.sqrt(1.0 - lo * lo)
        pts = np.array([[hi, lo], [lo, hi]]) * rho1
        if not np.all(pts > 0):
            raise _radii_underflow(spec)
        return pts[np.arange(count) % 2]

    centre = log_target / m
    # each ray's root lies just below its Newton start -centre / max d, so
    # where a start leaves the doubles the radii round to 0
    with np.errstate(over="ignore"):
        if not np.all(-centre / np.max(directions, axis=1) < math.inf):
            raise _radii_underflow(spec)
    t = _log_ray_roots(centre, directions)
    out = rho1 * np.exp(centre + t[:, None] * directions)
    if not np.all(out > 0):
        raise _radii_underflow(spec)
    return out


def log_shape(shape: np.ndarray) -> np.ndarray:
    """log x of unit-sphere rows x (N, n+1), the largest coordinate's from the
    sphere, log1p(-sum_{j != k} x_j^2) / 2: log x_k rounds to 0 much sooner."""
    u = np.log(shape)
    k = np.argmax(shape, axis=1)[:, None]
    rest = shape * shape
    np.put_along_axis(rest, k, 0.0, axis=1)
    np.put_along_axis(u, k, 0.5 * np.log1p(-np.sum(rest, axis=1))[:, None], axis=1)
    return u


def sample_base(spec: LevelSetSpec, count: int, seed: int = 0) -> np.ndarray:
    """Sample `count` radii vectors on the base constraint set (`solve_base`
    along the directions `draw_directions` gives for `seed`)."""
    return solve_base(spec, draw_directions(spec.n, count, seed))


def draw_torus(n: int, count: int, seed: int = 0) -> np.ndarray:
    """Uniform torus coordinates for samples 0..count-1, from stream
    (seed, idx, 1): read-only (count, 2n) rows, s in the first n columns and
    t in the last n."""
    return stream_rows(seed, count, 2 * n, 0.0, 1.0, 1)


def _raw_pair(r: np.ndarray):
    """Per row of radii r (N, m): the angle-block weights, A = |X1|^2 =
    sum theta_w, B = |X2|^2 = sum eta_w, and the unnormalized degenerate pair
    z = X1 - (m/B) X2 (theta block), w = Y1 - (m/A) Y2 (eta block), i.e. X1, Y1
    minus their g-projections on X2 = sum eta_w d/dtheta, Y2 = sum theta_w d/deta.

    Raises ArithmeticError where P = A B leaves the doubles, or comes within
    DEGENERACY_GUARD of its Cauchy-Schwarz floor (n+1)^2, the equal-radii
    locus where z and w vanish.
    """
    theta_w, eta_w = torus_metric_weights(r)
    m = r.shape[-1]
    with np.errstate(over="ignore"):
        big_a = np.sum(theta_w, axis=-1)
        big_b = np.sum(eta_w, axis=-1)
        big_p = big_a * big_b
    if not np.all(big_p < np.inf):
        raise ArithmeticError(f"|X1|^2 |X2|^2 overflows at radii {float(np.min(r)):.3e} to "
                              f"{float(np.max(r)):.3e}: the radii spread too widely for the pair")
    s = float(m * m)
    if np.any(big_p - s <= DEGENERACY_GUARD * s):
        raise ArithmeticError(
            "degenerate-pair construction ill conditioned: |X1|^2|X2|^2 too close to (n+1)^2")
    z = 1.0 - (m / big_b)[:, None] * eta_w
    w = 1.0 - (m / big_a)[:, None] * theta_w
    return theta_w, eta_w, big_a, big_b, z, w


class InducedStructure(NamedTuple):
    """The metric and the three forms restricted to the reduced tangent frame,
    stacks (N, d, d) with d = 3(n-1) + 2.

    Frame columns are x_i = v_i d/dr, y1_i = v_i/(2 pi r) d/dtheta,
    y2_i = 2 pi r v_i d/deta for i < n-1, then z and w: the v_i are an
    orthonormal basis of {a : <a, r> = 0, <a, 1/r> = 0}, and the degenerate
    pair is scaled to |z|_g = 1 and omegaD(z, w) = 1.
    """

    g: np.ndarray
    omega1: np.ndarray
    omega2: np.ndarray
    omegaD: np.ndarray


def induced_structure(r: np.ndarray) -> InducedStructure:
    """Restricted stacks at each row of base radii r (N, n+1).

    The v_i come from one complete QR of [r, 1/r]; only radii enter, since
    the structure is invariant under both tori.  Every entry is a sum over
    the ambient coordinates with diagonal weights: the frame is split into
    its theta, r and eta rows, and each tensor pairs two of them.  A row's
    stacks equal those of a call with that row alone.
    """
    r = np.asarray(r, dtype=float)
    num, m = r.shape
    mf = m - 2
    d = 3 * mf + 2
    theta_w, eta_w, _, _, z, w = _raw_pair(r)
    z_norm = np.sqrt(np.sum(theta_w * z * z, axis=1))
    pairing = np.sum(z * w, axis=1)

    q = np.linalg.qr(np.stack([r, 1.0 / r], axis=-1), mode="complete").Q
    v = q[..., 2:]  # (N, m, mf)
    two_pi_r = TWO_PI * r
    th, rr, et = (np.zeros((num, m, d)) for _ in range(3))
    rr[..., :mf] = v
    th[..., mf:2 * mf] = v / two_pi_r[..., None]
    et[..., 2 * mf:3 * mf] = v * two_pi_r[..., None]
    th[..., 3 * mf] = z / z_norm[:, None]
    et[..., 3 * mf + 1] = w * (z_norm / pairing)[:, None]

    def pair(a, weight, b):
        return np.swapaxes(a, 1, 2) @ (weight[..., None] * b)

    def form(a, weight, b):
        half = pair(a, weight, b)
        return half - np.swapaxes(half, 1, 2)

    frames = (th, rr, et)  # the block order of ambient._FORMS
    g = pair(th, theta_w, th) + np.swapaxes(rr, 1, 2) @ rr + pair(et, eta_w, et)
    return InducedStructure(g, **{name: form(frames[x], coef(r), frames[y])
                                  for name, (x, y, coef) in _FORMS.items()})


class DegenerateBlock(NamedTuple):
    """Coefficient data of omegaD on the degenerate 2-plane, one entry per row
    of base radii.

    a_solve and a_closed are (N, 4) rows (a11, a12, a21, a22) expressing the
    g-dual basis of (X1, X2) inside their span: the vector a11 X1 + a21 X2
    pairs to (0, 1) against (X1, X2), and a12 X1 + a22 X2 pairs to (1, 0).
    `pairing` is the direct evaluation omegaD(Z, W) on the unnormalized
    degenerate pair; `pairing_closed` its closed form (n+1)((n+1)^2 - P)/P
    with P = |X1|^2 |X2|^2; `pairing_quoted` the quoted reference value
    (n+1)/P, kept for audit only: the construction never satisfies it, since
    that would need P = (n+1)^2 - 1 while P >= (n+1)^2 by Cauchy-Schwarz.
    `restricted_norm` is |pairing| divided by the two squared lengths, the
    coefficient of omegaD on the metric-dual basis of the pair, with closed
    form (n+1)/(P - (n+1)^2).
    """

    a_solve: np.ndarray
    a_closed: np.ndarray
    pairing: np.ndarray
    pairing_closed: np.ndarray
    pairing_quoted: np.ndarray
    restricted_norm_closed: np.ndarray
    norm2_Z: np.ndarray
    norm2_W: np.ndarray

    @property
    def restricted_norm(self) -> np.ndarray:
        return np.abs(self.pairing) / (self.norm2_Z * self.norm2_W)

    @property
    def aij_residual(self) -> np.ndarray:
        """Per sample, the worst solved coefficient's deviation from its
        closed form, relative to that closed form."""
        return np.max(np.abs(self.a_solve - self.a_closed) / np.abs(self.a_closed), axis=1)

    @property
    def norm_residual(self) -> np.ndarray:
        """Per sample, |restricted_norm - closed| / |closed|."""
        return (np.abs(self.restricted_norm - self.restricted_norm_closed)
                / np.abs(self.restricted_norm_closed))


def omega_d_degenerate_block(r: np.ndarray) -> DegenerateBlock:
    """The degenerate-plane coefficients at each row of base radii r (N, n+1),
    with the 4x4 system for the a_ij solved as one batched solve."""
    r = np.asarray(r, dtype=float)
    theta_w, eta_w, big_a, big_b, z, w = _raw_pair(r)
    m = r.shape[1]
    prod = big_a * big_b
    s = float(m * m)

    block = np.zeros((len(r), 4, 4))
    block[:, 0, 0] = block[:, 2, 2] = big_a
    block[:, 1, 1] = block[:, 3, 3] = big_b
    block[:, 0, 1] = block[:, 1, 0] = block[:, 2, 3] = block[:, 3, 2] = m
    rhs = np.broadcast_to([0.0, 1.0, 1.0, 0.0], (len(r), 4))
    sol = np.linalg.solve(block, rhs[..., None])[..., 0]
    denom = s - prod

    return DegenerateBlock(
        a_solve=sol[:, [0, 2, 1, 3]],
        a_closed=np.stack([m / denom, -big_b / denom, -big_a / denom, m / denom], axis=1),
        pairing=np.sum(z * w, axis=1),
        pairing_closed=m * (s - prod) / prod,
        pairing_quoted=m / prod,
        restricted_norm_closed=m / (prod - s),
        norm2_Z=np.sum(theta_w * z * z, axis=1),
        norm2_W=np.sum(eta_w * w * w, axis=1),
    )


class AxiomReport(NamedTuple):
    """Per-sample results of `verify_wsd_axioms`: each residual, the worst of
    them, the kernel dimension and the conditioning are (N,) arrays."""

    residuals: dict
    worst: np.ndarray
    kernel_dim: np.ndarray
    omega_d_restricted_conditioning: np.ndarray
    passed: np.ndarray


def _kernel_mask(sv: np.ndarray) -> np.ndarray:
    """Per row of singular values (descending), the numerical-kernel ones."""
    return ~(sv > 1e-8 * np.maximum(sv[:, :1], 1.0))


def _canonical_blocks(mf: int) -> list[np.ndarray]:
    """Target matrices of the three forms in the adapted frame (x | y1 | y2 | z w)
    of dimension d = 3 mf + 2: omega1 = x^y1, omega2 = x^y2, omegaD = y1^y2 + z^w."""
    d = 3 * mf + 2
    x, y1, y2 = (np.arange(k * mf, (k + 1) * mf) for k in range(3))
    targets = []
    for a, b in ((x, y1), (x, y2), (np.append(y1, d - 2), np.append(y2, d - 1))):
        w = np.zeros((d, d))
        w[a, b], w[b, a] = 1.0, -1.0
        targets.append(w)
    return targets


def verify_wsd_axioms(s: InducedStructure, tol: float = 1e-8) -> AxiomReport:
    """Check the pointwise axioms on restricted stacks; report only.

    (a) the frame Gram is diagonal with the first 3(n-1) entries equal to 1,
    (b) the three forms take their canonical block shapes,
    (c) ker omega1 intersects ker omega2 in the 2 degenerate directions and
        omegaD stays nondegenerate on ker omega1 + ker omega2.

    Kernels whose dimension varies between samples are reduced with masks:
    masked columns are zero, so each sample's result is the one it gives
    alone.
    """
    num, d = s.g.shape[:2]
    mf = (d - 2) // 3
    target = np.broadcast_to(np.eye(d), s.g.shape).copy()
    tail = np.arange(3 * mf, d)
    target[:, tail, tail] = s.g[:, tail, tail]
    residuals = {"frame_orthogonality": np.max(np.abs(s.g - target), axis=(1, 2))}
    for name, canon in zip(("omega1", "omega2", "omegaD"), _canonical_blocks(mf)):
        residuals[f"{name}_block"] = np.max(np.abs(getattr(s, name) - canon), axis=(1, 2))

    stacked = np.concatenate([s.omega1, s.omega2], axis=1)
    kernel_dim = np.sum(_kernel_mask(np.linalg.svd(stacked, compute_uv=False)), axis=1)

    kernels = []
    for form in (s.omega1, s.omega2):
        _, sv, vt = np.linalg.svd(form)
        kernels.append(np.swapaxes(vt, 1, 2) * _kernel_mask(sv)[:, None, :])
    q, sv, _ = np.linalg.svd(np.concatenate(kernels, axis=2), full_matrices=False)
    keep = ~_kernel_mask(sv)
    basis = q * keep[:, None, :]
    restricted = np.swapaxes(basis, 1, 2) @ s.omegaD @ basis
    sv_d = np.linalg.svd(restricted, compute_uv=False)
    rank = np.sum(keep, axis=1)
    smallest = sv_d[np.arange(num), np.maximum(rank - 1, 0)]
    with np.errstate(divide="ignore", invalid="ignore"):
        conditioning = np.where(sv_d[:, 0] > 0, smallest / sv_d[:, 0], 0.0)
    conditioning = np.where(rank > 0, conditioning, 1.0)

    worst = np.max(np.stack(list(residuals.values())), axis=0)
    passed = (worst <= tol) & (kernel_dim == 2) & (conditioning > 1e-9)
    return AxiomReport(residuals, worst, kernel_dim, conditioning, passed)
