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
the read-only rows to the solve and, as arrays, to the projections in maps.
The solve runs one Newton loop over every (level set, direction) ray of a
sweep (`solve_shapes`, which yields each level set's shape in turn);
`solve_base` is its one-spec case, times rho1.
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
from typing import Callable, NamedTuple

import numpy as np

from .ambient import FORMS, torus_metric_weights
from .params import PI2, TWO_PI, LevelSetSpec, require_regular, small_root

DEGENERACY_GUARD = 1e-8  # relative margin on |X1|^2 |X2|^2 - (n+1)^2


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

    The entropy must fit numpy's four-word pool: the seed takes one or two
    words, the index one, each tag at least one.  Raises ValueError for an
    index outside [0, 2**32), as a larger one would take two words, and for
    more than four words in all.
    """
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() > _WORD):
        raise ValueError(f"stream indices must lie in [0, 2**32), got {idx.min()}..{idx.max()}")

    def column(word):
        return np.full(idx.size, word, np.uint32)

    entropy = ([column(w) for w in _words(int(seed) % (1 << 63))] + [idx.astype(np.uint32)]
               + [column(w) for p in tag for w in _words(int(p))])
    if len(entropy) > _POOL_SIZE:
        raise ValueError(f"stream entropy must fit {_POOL_SIZE} words, got {len(entropy)}")
    entropy += [column(0)] * (_POOL_SIZE - len(entropy))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
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


def _log_ray_roots(centres: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Per level set k and row i of d, the root t > 0 of
    logsumexp(2 (centres[k] + t d_i)) = 0, as a (K, N) array.

    Requires every centre < 0 with m e^{2 centre} < 1 and max d_i > 0.  The
    function is convex and increasing in t on the root's side, so Newton
    started at t = -centre / max d (where the largest term is e^0 and the
    function is >= 0) decreases t monotonically onto the root.  One loop runs
    over every (level set, row) ray; each stops on its own test, the first
    step that no longer lowers t, and sums over its own n+1 entries, so a
    ray's result does not depend on the rest of the batch.
    """
    count = len(centres)
    # the live rays' centres, directions and parameters, compacted as rays
    # stop; each step is 2 (centre + t d) and its softmax, formed in place
    cl = np.repeat(centres, len(d))
    dl = np.tile(d, (count, 1))
    t = tl = -cl / np.tile(np.max(d, axis=1), count)
    live = np.arange(len(t))
    while live.size:
        a = tl[:, None] * dl
        a += cl[:, None]
        a *= 2.0
        top = np.max(a, axis=1)
        a -= top[:, None]
        e = np.exp(a, out=a)
        s = np.sum(e, axis=1)
        f = top + np.log(s)
        e *= dl
        slope = 2.0 * np.sum(e, axis=1) / s
        t_new = tl - f / slope
        down = t_new < tl
        live, cl, dl, tl = live[down], cl[down], dl[down], t_new[down]
        t[live] = tl
    return t.reshape(count, len(d))


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


def _radii_underflow(spec: LevelSetSpec) -> ArithmeticError:
    return ArithmeticError(f"base radii underflow at rho2 = {spec.rho2:.6g}: "
                           "a radius rounds to 0 in double precision")


def _log_centre(spec: LevelSetSpec) -> float:
    """L/m, the centre of the base in log coordinates, L = -2 pi^2 rho2^2 and
    m = n+1.  Raises EmptyLevelSet unless the spec is regular, and
    ArithmeticError where L leaves the doubles."""
    require_regular(spec)
    try:
        log_target = -2.0 * PI2 * spec.rho2**2
    except OverflowError:  # rho2^2 itself leaves the doubles
        log_target = -math.inf
    if log_target == -math.inf:
        raise _radii_underflow(spec)
    return log_target / (spec.n + 1)


def solve_shapes(n: int, rho2s, directions: np.ndarray):
    """Yield, for each rho2 of `rho2s` in turn, the base shape of the level
    set (n, 1, rho2): the (N, n+1) rows `solve_base` gives at rho1 = 1, bitwise.

    For n >= 2 every (level set, direction) ray goes through one Newton loop
    (`_log_ray_roots`), on the first request, so a K-point sweep costs one
    loop instead of K.  A level set that `solve_base` refuses raises its
    error when its turn comes, once every shape before it is yielded, so a
    caller that handles each shape before it takes the next reports the
    first failing point in order, with that point's own line, as a loop of
    `solve_base` calls would.
    """
    count = len(directions)
    if n == 1:
        for rho2 in rho2s:
            spec = LevelSetSpec(n, 1.0, rho2)
            _log_centre(spec)  # its checks alone: the base is enumerated
            lo = small_root(1, rho2)[0]
            hi = math.sqrt(1.0 - lo * lo)
            pts = np.array([[hi, lo], [lo, hi]])
            if not np.all(pts > 0):
                raise _radii_underflow(spec)
            yield pts[np.arange(count) % 2]
        return

    # the level sets up to the first one that fails before its solve; each
    # ray's root lies just below its Newton start -centre / max d, so where a
    # start leaves the doubles the radii round to 0
    reach = np.max(directions, axis=1)
    specs, centres, failure = [], [], None
    for rho2 in rho2s:
        try:
            spec = LevelSetSpec(n, 1.0, rho2)
            centre = _log_centre(spec)
            with np.errstate(over="ignore"):
                if not np.all(-centre / reach < math.inf):
                    raise _radii_underflow(spec)
        except (ValueError, ArithmeticError) as exc:
            failure = exc
            break
        specs.append(spec)
        centres.append(centre)
    if specs:
        centres = np.array(centres)
        t = _log_ray_roots(centres, directions)
        shapes = np.exp(centres[:, None, None] + t[:, :, None] * directions)
        for spec, shape in zip(specs, shapes):
            if not np.all(shape > 0):
                raise _radii_underflow(spec)
            yield shape
    if failure is not None:
        raise failure


def solve_base(spec: LevelSetSpec, directions: np.ndarray) -> np.ndarray:
    """Radii vectors on the base constraint set, one row r in R^{n+1} per row
    of `directions` (from `draw_directions(spec.n, count, seed)`).

    In log coordinates u = log(r / rho1) the base is the hyperplane
    sum u = L = -2 pi^2 rho2^2 cut by the convex level set logsumexp(2u) = 0.
    Its centre u = L/m (m = n+1) lies strictly inside the sphere exactly when
    the spec is regular, so every sum-zero direction d meets the base once,
    at a ray parameter t > 0 solved per row (`_log_ray_roots`).  For n = 1
    it is (hi, lo) and (lo, hi), alternated: lo = sqrt(t-) from
    params.small_root, as in params.base_suprema, and hi = sqrt(1 - lo^2).
    Either way the rows are spec.rho1 times the shape the solve finds from
    rho2 alone (`solve_shapes` of the one level set), so they are bitwise
    spec.rho1 times the rows of the spec with rho1 = 1.

    Raises EmptyLevelSet unless the spec is regular, and ArithmeticError when
    a radius underflows to 0, which happens for rho2 of about 8 and beyond.
    """
    out = spec.rho1 * next(solve_shapes(spec.n, (spec.rho2,), directions))
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

    frames = (th, rr, et)  # the block order of ambient.FORMS
    g = pair(th, theta_w, th) + np.swapaxes(rr, 1, 2) @ rr + pair(et, eta_w, et)
    return InducedStructure(g, **{name: form(frames[x], coef(r), frames[y])
                                  for name, (x, y, coef) in FORMS.items()})


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
        pairing_closed=m * ((s - prod) / prod),
        pairing_quoted=m / prod,
        restricted_norm_closed=m / (prod - s),
        norm2_Z=np.sum(theta_w * z * z, axis=1),
        norm2_W=np.sum(eta_w * w * w, axis=1),
    )


class AxiomReport(NamedTuple):
    """Per-sample results of `verify_wsd_axioms`: each residual, the worst of
    them, the kernel dimension and the conditioning are (N,) arrays.

    `omega_d_restricted_conditioning` is the ratio of the smallest to the
    largest singular value of omegaD on ker omega1 + ker omega2 where the
    SVDs ran, and a certified lower bound on that ratio, (1 - eta)/(1 + eta),
    on the rows the block residuals settle (see `verify_wsd_axioms`).
    """

    residuals: dict
    worst: np.ndarray
    kernel_dim: np.ndarray
    omega_d_restricted_conditioning: np.ndarray
    passed: np.ndarray


_KERNEL_RTOL = 1e-8  # a singular value is kernel at <= this times max(sigma_0, 1)
_UNIT_ROUNDOFF = 2.0**-53


def _kernel_mask(sv: np.ndarray) -> np.ndarray:
    """Per row of singular values (descending), the numerical-kernel ones."""
    return ~(sv > _KERNEL_RTOL * np.maximum(sv[:, :1], 1.0))


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


def _svd_checks(omega1: np.ndarray, omega2: np.ndarray,
                omega_d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, dim(ker omega1 cap ker omega2) and the conditioning of omegaD
    on ker omega1 + ker omega2, from five batched SVDs.

    Kernels whose dimension varies between rows are reduced with masks:
    masked columns are zero, so each row's result is the one it gives alone.
    """
    num = len(omega1)
    stacked = np.concatenate([omega1, omega2], axis=1)
    kernel_dim = np.sum(_kernel_mask(np.linalg.svd(stacked, compute_uv=False)), axis=1)

    kernels = []
    for form in (omega1, omega2):
        _, sv, vt = np.linalg.svd(form)
        kernels.append(np.swapaxes(vt, 1, 2) * _kernel_mask(sv)[:, None, :])
    q, sv, _ = np.linalg.svd(np.concatenate(kernels, axis=2), full_matrices=False)
    keep = ~_kernel_mask(sv)
    basis = q * keep[:, None, :]
    restricted = np.swapaxes(basis, 1, 2) @ omega_d @ basis
    sv_d = np.linalg.svd(restricted, compute_uv=False)
    rank = np.sum(keep, axis=1)
    smallest = sv_d[np.arange(num), np.maximum(rank - 1, 0)]
    with np.errstate(divide="ignore", invalid="ignore"):
        conditioning = np.where(sv_d[:, 0] > 0, smallest / sv_d[:, 0], 0.0)
    return kernel_dim, np.where(rank > 0, conditioning, 1.0)


def _certificate(eps: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows whose largest block residual eps settles `_svd_checks` at
    frame dimension d, and the certified conditioning bound on those rows,
    with the constants of the proof in `verify_wsd_axioms`.  A NaN or
    infinite eps certifies nothing."""
    rho = 8.0 * d**3 * _UNIT_ROUNDOFF
    certified = eps <= (_KERNEL_RTOL - 7.0 * rho) / (4.0 * d)
    e = d * eps[certified]
    g = 2.0 * math.sqrt(2.0) * (4.0 * e + 7.0 * rho) + rho
    eta = e * (1.0 + g)**2 + g * (2.0 + g) + 3.0 * rho
    return certified, (1.0 - eta) / (1.0 + eta)


def verify_wsd_axioms(s: InducedStructure, tol: float = 1e-8) -> AxiomReport:
    """Check the pointwise axioms on restricted stacks; report only.

    (a) the frame Gram is diagonal with the first 3(n-1) entries equal to 1,
    (b) the three forms take their canonical block shapes,
    (c) ker omega1 intersects ker omega2 in the 2 degenerate directions and
        omegaD stays nondegenerate on ker omega1 + ker omega2.

    A row passes when its worst residual is < tol, the kernel dimension is 2
    and the conditioning is > 1e-9.  Check (c) runs `_svd_checks` only on the
    rows the block residuals of (b) do not settle; every other row gets
    kernel_dim 2, the count the SVDs would give, and the conditioning bound
    (1 - eta)/(1 + eta), at or below what they would give.  A non-finite
    form entry certifies nothing; its row raises ArithmeticError before any
    SVD runs.

    Proof (Stewart and Sun, Matrix Perturbation Theory, 1990, ch. IV).  Let
    d = 3 mf + 2 (mf = n - 1), u = 2**-53 and C1, C2, CD the canonical blocks
    (`_canonical_blocks`).  Each form is F = C + E, and eps, the largest of
    the three block residuals, bounds every |E_ij| up to a relative u, so
    ||E||_2 <= ||E||_F <= e = d eps for all three (a zero diagonal would give
    sqrt(d (d - 1)) eps, but a caller's stack need not have one).  Let
    rho = 8 d^3 u.  Every matrix below has 2-norm <= 2, so rho covers, per
    step, the backward error of LAPACK's SVD (the exact SVD of X + dX, up to
    factors within rho of orthonormal, ||dX||_2 <= p u ||X||_2 with p <= 4 d^3),
    the rounding of the products basis^T omegaD basis, and the relative
    rounding of e itself.  C1 and C2 are partial isometries: C^T C is the
    orthogonal projector off ker C, so ||C v|| is the distance of a unit v
    from ker C.  Certify a row when gamma = 4 e + 7 rho <= 1e-8.
    1. The stacked [C1; C2] has singular values sqrt 2 (mf), 1 (2 mf) and
       0 (2).  By Weyl's inequality the computed ones of [F1; F2] lie within
       sqrt 2 e + rho <= gamma of those, and the mask's threshold 1e-8
       max(sigma_0, 1) lies in [1e-8, 2e-8]: the two small ones are kernel,
       the rest are not, so kernel_dim = 2.
    2. Each Ck has singular values 1 (2 mf) and 0 (mf + 2), so the mask keeps
       exactly mf + 2 right singular vectors of Fk, and they span the bottom
       singular subspace V of Fk + dFk.  ||Ck V|| <= ||(Fk + dFk) V|| +
       ||Ek + dFk|| <= 2 (e + rho) = s bounds sin theta(V, ker Ck) (Wedin's
       theorem with gap 1), so some orthonormal basis Kk Qk of ker Ck lies
       within sqrt 2 s + rho of the computed kernel columns.
    3. B = [K1 Q1, K2 Q2] has B B^T = P1 + P2, with singular values sqrt 2
       (the z, w plane), 1 (y1, y2: 2 mf) and 0 (x: mf), range W = span(y1,
       y2, z, w) and ||B^T v|| >= ||P_W v||.  The computed concatenation lies
       within sqrt 2 (sqrt 2 s + rho) + rho <= 2 s + 3 rho = gamma of B, so
       the mask keeps exactly 2 mf + 2 columns, and the bottom mf left
       singular vectors U of the perturbed matrix have ||P_W U|| <=
       ||B^T U|| <= 2 gamma: the kept basis lies within g = 2 sqrt 2 gamma +
       rho of G Q, G the coordinate basis of W and Q orthogonal.
    4. G^T CD G is orthogonal, so (G Q)^T CD (G Q) has every singular value
       1.  The computed restriction differs from it by at most e (1 + g)^2
       (from E_D) plus g (2 + g) (from the basis) plus 2 rho (products and
       SVD), so the computed conditioning is >= (1 - eta)/(1 + eta) with
       eta = e (1 + g)^2 + g (2 + g) + 3 rho, the last rho for the quotient.
    For n = 1, d = 2 and C1 = C2 = 0: every singular value in steps 1 and 2
    is <= gamma <= 1e-8, at or below the threshold because of its floor
    max(sigma_0, 1), so both are kernel; ker Ck and W are the whole plane,
    s = 0 and CD = z^w is orthogonal, and steps 3 and 4 hold as stated.
    """
    num, d = s.g.shape[:2]
    mf = (d - 2) // 3
    target = np.broadcast_to(np.eye(d), s.g.shape).copy()
    tail = np.arange(3 * mf, d)
    target[:, tail, tail] = s.g[:, tail, tail]
    residuals = {"frame_orthogonality": np.max(np.abs(s.g - target), axis=(1, 2))}
    for name, canon in zip(("omega1", "omega2", "omegaD"), _canonical_blocks(mf)):
        residuals[f"{name}_block"] = np.max(np.abs(getattr(s, name) - canon), axis=(1, 2))

    eps = np.max([residuals[f"{name}_block"] for name in ("omega1", "omega2", "omegaD")], axis=0)
    certified, bound = _certificate(eps, d)
    kernel_dim = np.full(num, 2)
    conditioning = np.empty(num)
    conditioning[certified] = bound
    rest = ~certified
    if np.any(rest):
        forms = s.omega1[rest], s.omega2[rest], s.omegaD[rest]
        # LAPACK's SVD raises on a NaN and may never return on an infinity
        finite = np.all(np.isfinite(np.concatenate(forms, axis=1)), axis=(1, 2))
        if not np.all(finite):
            row = np.flatnonzero(rest)[np.argmin(finite)]
            raise ArithmeticError(f"non-finite form entry in row {row}: the kernel and "
                                  "conditioning checks need finite forms")
        kernel_dim[rest], conditioning[rest] = _svd_checks(*forms)

    worst = np.max(np.stack(list(residuals.values())), axis=0)
    passed = (worst < tol) & (kernel_dim == 2) & (conditioning > 1e-9)
    return AxiomReport(residuals, worst, kernel_dim, conditioning, passed)
