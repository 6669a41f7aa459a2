"""Reduced level sets of the doubled-torus moment map and their induced structure.

The base of a level set lives in shape coordinates x = r / rho1, where the two
constraints read sum x^2 = 1 and sum log x = -2 pi^2 rho2^2.  The sampler
solves them in log coordinates u = log x, where the product constraint is a
hyperplane and the sphere a convex level set, so each sample is the one root
of a convex function along a ray.  Working in shape coordinates makes the
sampler exactly covariant under the rescaling family (rho1 -> t rho1 at fixed
rho2), which downstream limit sweeps rely on.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ambient import (
    TWO_PI,
    AmbientPoint,
    ambient_adapted_frame,
    ambient_tensors_at,
    auxiliary_vectors,
    convert_parameters,
    convert_parameters_inverse,
)
from .polytope import lattice_maps

DEGENERACY_GUARD = 1e-8  # relative margin on |X1|^2 |X2|^2 - (n+1)^2


@dataclass(frozen=True)
class LevelSetSpec:
    """A level set {mu1 = k1, mu2 = k2} of the doubled torus over R^{n+1}."""

    n: int
    k1: float
    k2: float

    def __post_init__(self):
        if int(self.n) < 1:
            raise ValueError("n must be >= 1")
        if not (math.isfinite(self.k1) and math.isfinite(self.k2)):
            raise ValueError(f"k1 and k2 must be finite, got {self.k1}, {self.k2}")
        if not self.k1 < 0:
            raise ValueError("k1 must be negative")

    @classmethod
    def from_rho(cls, n: int, rho1: float, rho2: float) -> "LevelSetSpec":
        return cls(n, *convert_parameters_inverse(n, rho1, rho2))

    @property
    def rho1(self) -> float:
        return math.sqrt(-self.k1 / math.pi)

    @property
    def rho2(self) -> float:
        return convert_parameters(self.n, self.k1, self.k2)[1]

    @property
    def classification(self) -> str:
        return feasibility(self)


def feasibility(spec: LevelSetSpec, rel_tol: float = 1e-12) -> str:
    """Classify the level set as "empty", "degenerate", or "regular".

    Non-empty iff (-k1/pi) e^{4 pi k2/(n+1)} >= n+1, with equality the single
    r-orbit where the two moment differentials align.  The comparison happens
    in logs, so the statistic is 4 pi^2 rho2^2/(n+1) vs log(n+1) and does not
    depend on the overall scale rho1.
    """
    m = spec.n + 1
    lhs = math.log(-spec.k1 / math.pi) + 4.0 * math.pi * spec.k2 / m
    rhs = math.log(m)
    band = rel_tol * max(1.0, abs(lhs), abs(rhs))
    if lhs < rhs - band:
        return "empty"
    if lhs <= rhs + band:
        return "degenerate"
    return "regular"


def _stream(seed: int, *path: int) -> np.random.Generator:
    # counter-based per-index streams: determinism independent of draw order
    entropy = (int(seed) % (1 << 63),) + tuple(int(p) for p in path)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def _require_regular(spec: LevelSetSpec) -> None:
    cls = feasibility(spec)
    if cls != "regular":
        raise ValueError(f"level set is {cls}; a regular spec is required")


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


def sample_base(spec: LevelSetSpec, count: int, seed: int = 0) -> np.ndarray:
    """Sample `count` radii vectors on the base constraint set, rows r in R^{n+1}.

    In log coordinates u = log(r / rho1) the base is the hyperplane
    sum u = L = -2 pi^2 rho2^2 cut by the convex level set logsumexp(2u) = 0.
    Its centre u = L/m (m = n+1) lies strictly inside the sphere exactly when
    the spec is regular, so every sum-zero direction d meets the base once,
    at a ray parameter t > 0 solved per row (`_log_ray_roots`).  Each sample
    index draws its direction from its own RNG stream, log-uniform weights
    centred to sum zero.  For n = 1 the base is the finite solution set of a
    quadratic and is enumerated exactly instead.

    Raises ArithmeticError when a radius underflows to 0, which happens for
    rho2 of about 8 and beyond.
    """
    _require_regular(spec)
    m = spec.n + 1
    rho1 = spec.rho1
    log_target = -2.0 * math.pi**2 * spec.rho2**2

    if spec.n == 1:
        # x^2 are the roots of q^2 - q + e^{2 log_target} = 0; the small root
        # comes from Vieta (q_hi q_lo = e^{2 lt}) to dodge the 1 - sqrt(1-eps)
        # cancellation when the product constraint is tiny
        disc = 1.0 - 4.0 * math.exp(2.0 * log_target)
        q_hi = (1.0 + math.sqrt(disc)) / 2.0
        hi = math.sqrt(q_hi)
        lo = math.exp(log_target) / hi
        pts = np.array([[hi, lo], [lo, hi]]) * rho1
        return pts[np.arange(count) % 2]

    logw = np.array([_stream(seed, idx).uniform(-3.0, 3.0, m)
                     for idx in range(count)]).reshape(count, m)
    d = logw - np.mean(logw, axis=1, keepdims=True)
    centre = log_target / m
    t = _log_ray_roots(centre, d)
    out = rho1 * np.exp(centre + t[:, None] * d)
    if not np.all(out > 0):
        raise ArithmeticError(f"base radii underflow at rho2 = {spec.rho2:.6g}: "
                              "a radius rounds to 0 in double precision")
    return out


@lru_cache(maxsize=32)
def _torus_embeddings(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(theta embedding, eta embedding): rows are primal resp. dual vertices."""
    maps = lattice_maps(n)
    f_theta = np.array(maps.dual_t.matrix, dtype=float)
    f_eta = np.array(maps.primal_t.matrix, dtype=float)
    return f_theta, f_eta


@dataclass(frozen=True)
class ReducedPoint:
    """Point of the reduced manifold: base radii plus torus coordinates.

    torus_s and torus_t live in R^n; the embedded angles are theta = F_theta s
    and eta = F_eta t (mod 1) relative to the zero section, with F_theta rows
    the primal simplex vertices and F_eta rows the dual simplex vertices.
    """

    spec: LevelSetSpec
    base_r: np.ndarray
    torus_s: np.ndarray
    torus_t: np.ndarray

    def __post_init__(self):
        m = self.spec.n + 1
        r = np.asarray(self.base_r, dtype=float).reshape(m)
        if not np.all(r > 0):
            raise ValueError("base radii must be positive")
        object.__setattr__(self, "base_r", r)
        object.__setattr__(self, "torus_s",
                           np.asarray(self.torus_s, dtype=float).reshape(self.spec.n))
        object.__setattr__(self, "torus_t",
                           np.asarray(self.torus_t, dtype=float).reshape(self.spec.n))

    def ambient_point(self) -> AmbientPoint:
        f_theta, f_eta = _torus_embeddings(self.spec.n)
        return AmbientPoint(self.spec.n, f_theta @ self.torus_s, self.base_r,
                            f_eta @ self.torus_t)

    def moment_residual(self) -> tuple[float, float]:
        """Relative deviations of (mu1, mu2) from (k1, k2)."""
        from .ambient import moment_map
        mu1, mu2 = moment_map(self.ambient_point())
        r1 = abs(mu1 - self.spec.k1) / abs(self.spec.k1)
        r2 = abs(mu2 - self.spec.k2) / max(1.0, abs(self.spec.k2))
        return r1, r2


def sample_points(spec: LevelSetSpec, count: int, seed: int = 0) -> list[ReducedPoint]:
    """Sample reduced points: base radii plus uniform torus coordinates."""
    base = sample_base(spec, count, seed)
    pts = []
    for idx in range(count):
        rng = _stream(seed, idx, 1)
        pts.append(ReducedPoint(spec, base[idx],
                                rng.uniform(0.0, 1.0, spec.n),
                                rng.uniform(0.0, 1.0, spec.n)))
    return pts


def _degenerate_pair(p: AmbientPoint) -> tuple[np.ndarray, np.ndarray, object]:
    aux = auxiliary_vectors(p)
    m = p.n + 1
    s = float(m * m)
    prod = aux.norm_product
    if prod - s <= DEGENERACY_GUARD * s:
        raise ArithmeticError(
            "degenerate-pair construction ill conditioned: |X1|^2|X2|^2 too close to (n+1)^2")
    z_vec = aux.X1 - (aux.inner_X / aux.norm2_X2) * aux.X2
    w_vec = aux.Y1 - (aux.inner_Y / aux.norm2_Y2) * aux.Y2
    return z_vec, w_vec, aux


@dataclass(frozen=True)
class TangentFrame:
    """Spanning frame of the reduced tangent space at a point.

    Columns of `matrix` are ordered v_1..v_m, u1_1..u1_m, w2_1..w2_m, Z, W with
    m = n-1; all vectors are expressed in the ambient coordinate frame.
    """

    point: ReducedPoint
    vs: np.ndarray      # (m, n+1) rows: the radial directions
    matrix: np.ndarray
    Z: np.ndarray
    W: np.ndarray
    residuals: dict

    @property
    def rank(self) -> int:
        return self.vs.shape[0]


def reduced_tangent_frame(p: ReducedPoint, seed: int = 0) -> TangentFrame:
    """Frame of T X~: radial v_i, their omega-duals u1_i, w2_i, degenerate pair.

    The v_i are an orthonormal basis of {a : <a, r> = 0, <a, 1/r> = 0} inside
    the dr-block, completed by Gram-Schmidt on seeded Gaussian draws; u1_i and
    w2_i are their images under dr_j -> dtheta_j/(2 pi r_j) and
    dr_j -> 2 pi r_j deta_j.  The degenerate pair is X1, Y1 minus their
    projections on X2, Y2.
    """
    _require_regular(p.spec)
    amb = p.ambient_point()
    n = p.spec.n
    m = n + 1
    mf = n - 1
    r = amb.r
    dim = 3 * m

    z_vec, w_vec, aux = _degenerate_pair(amb)

    # orthonormal basis of the radial subspace orthogonal to r and 1/r
    span = np.vstack([r, 1.0 / r]).T
    q_span, _ = np.linalg.qr(span)
    rng = _stream(seed, 0, 2)
    vs = np.zeros((mf, m))
    got = 0
    guard = 0
    while got < mf:
        guard += 1
        if guard > 100 * (mf + 1):
            raise ArithmeticError("radial completion failed: projected draws degenerate")
        a = rng.standard_normal(m)
        a -= q_span @ (q_span.T @ a)
        a -= vs[:got].T @ (vs[:got] @ a)
        norm = math.sqrt(float(a @ a))
        if norm < 1e-8:
            continue
        vs[got] = a / norm
        got += 1

    cols = np.zeros((dim, 3 * mf + 2))
    th = slice(0, m)
    rr = slice(m, 2 * m)
    et = slice(2 * m, 3 * m)
    for i in range(mf):
        cols[rr, i] = vs[i]
        cols[th, mf + i] = vs[i] / (TWO_PI * r)
        cols[et, 2 * mf + i] = TWO_PI * r * vs[i]
    cols[:, 3 * mf] = z_vec
    cols[:, 3 * mf + 1] = w_vec

    g = ambient_tensors_at(amb).g
    dmu1 = np.zeros(dim)
    dmu1[rr] = -TWO_PI * r
    dmu2 = np.zeros(dim)
    dmu2[rr] = -1.0 / (TWO_PI * r)
    x2n = math.sqrt(aux.norm2_X2)
    y2n = math.sqrt(aux.norm2_Y2)
    col_norms = np.sqrt(np.einsum("ij,ij->j", cols, g @ cols))
    resid = {
        "orth_X2": float(np.max(np.abs(cols.T @ aux.X2_flat) / (col_norms * x2n))),
        "orth_Y2": float(np.max(np.abs(cols.T @ aux.Y2_flat) / (col_norms * y2n))),
        "dmu1": float(np.max(np.abs(cols.T @ dmu1)) / np.linalg.norm(dmu1)),
        "dmu2": float(np.max(np.abs(cols.T @ dmu2)) / np.linalg.norm(dmu2)),
    }
    return TangentFrame(p, vs, cols, z_vec, w_vec, resid)


@dataclass(frozen=True)
class WsdStructureAt:
    """Tensors restricted to an adapted frame (x_i | y1_i | y2_i [| z w])."""

    n: int
    dim: int
    rank: int            # number of x_i (= y1_i = y2_i) vectors
    degenerate_dim: int  # 0 for the ambient structure, 2 for reduced ones
    g: np.ndarray
    omega1: np.ndarray
    omega2: np.ndarray
    omegaD: np.ndarray
    adapted_frame: np.ndarray


def induced_structure_at(p: ReducedPoint, seed: int = 0) -> WsdStructureAt:
    """Restrict the ambient tensors to the tangent frame, frame normalized.

    The degenerate pair is rescaled so that z has unit length and
    omegaD(z, w) = 1; everything else in the frame is already orthonormal by
    construction.
    """
    frame = reduced_tangent_frame(p, seed=seed)
    amb = p.ambient_point()
    t = ambient_tensors_at(amb)
    mf = frame.rank

    z_raw, w_raw = frame.Z, frame.W
    z_norm = math.sqrt(float(z_raw @ t.g @ z_raw))
    pairing = float(z_raw @ t.omegaD @ w_raw)
    z = z_raw / z_norm
    w = w_raw * (z_norm / pairing)

    cols = frame.matrix.copy()
    cols[:, 3 * mf] = z
    cols[:, 3 * mf + 1] = w
    return WsdStructureAt(
        n=p.spec.n,
        dim=3 * mf + 2,
        rank=mf,
        degenerate_dim=2,
        g=cols.T @ t.g @ cols,
        omega1=cols.T @ t.omega1 @ cols,
        omega2=cols.T @ t.omega2 @ cols,
        omegaD=cols.T @ t.omegaD @ cols,
        adapted_frame=cols,
    )


def ambient_structure_at(p: AmbientPoint) -> WsdStructureAt:
    """The ambient self-dual structure in its adapted frame (no degenerate pair)."""
    rep = ambient_adapted_frame(p)
    t = ambient_tensors_at(p)
    f = rep.frame
    return WsdStructureAt(
        n=p.n,
        dim=3 * (p.n + 1),
        rank=p.n + 1,
        degenerate_dim=0,
        g=f.T @ t.g @ f,
        omega1=f.T @ t.omega1 @ f,
        omega2=f.T @ t.omega2 @ f,
        omegaD=f.T @ t.omegaD @ f,
        adapted_frame=f,
    )


@dataclass(frozen=True)
class DegenerateBlock:
    """Coefficient data of omegaD on the degenerate 2-plane at a point.

    a11..a22 express the g-dual basis of (X1, X2) inside their span: the
    vector a11 X1 + a21 X2 pairs to (0, 1) against (X1, X2), and
    a12 X1 + a22 X2 pairs to (1, 0).  `pairing` is the direct evaluation
    omegaD(Z, W) on the unnormalized degenerate pair; `pairing_closed` its
    closed form (n+1)((n+1)^2 - P)/P with P = |X1|^2 |X2|^2; `pairing_quoted`
    the quoted reference value (n+1)/P, kept for audit only: the construction
    never satisfies it, since that would need P = (n+1)^2 - 1 while
    P >= (n+1)^2 by Cauchy-Schwarz. `restricted_norm` is |pairing| divided by
    the two squared lengths, the coefficient of omegaD on the metric-dual
    basis of the pair, with closed form (n+1)/(P - (n+1)^2).
    """

    a_solve: tuple[float, float, float, float]
    a_closed: tuple[float, float, float, float]
    pairing: float
    pairing_closed: float
    pairing_quoted: float
    restricted_norm: float
    restricted_norm_closed: float
    norm2_Z: float
    norm2_W: float


def omega_d_degenerate_block(p: ReducedPoint) -> DegenerateBlock:
    _require_regular(p.spec)
    amb = p.ambient_point()
    z_vec, w_vec, aux = _degenerate_pair(amb)
    t = ambient_tensors_at(amb)
    m = p.spec.n + 1
    big_a = aux.norm2_X1
    big_b = aux.norm2_X2
    prod = big_a * big_b
    s = float(m * m)

    gram = np.array([[big_a, float(m)], [float(m), big_b]])
    block = np.zeros((4, 4))
    block[:2, :2] = gram
    block[2:, 2:] = gram
    sol = np.linalg.solve(block, np.array([0.0, 1.0, 1.0, 0.0]))
    a_solve = (sol[0], sol[2], sol[1], sol[3])  # (a11, a12, a21, a22)

    denom = s - prod
    a_closed = (m / denom, -big_b / denom, -big_a / denom, m / denom)

    pairing = float(z_vec @ t.omegaD @ w_vec)
    n2z = float(z_vec @ t.g @ z_vec)
    n2w = float(w_vec @ t.g @ w_vec)
    return DegenerateBlock(
        a_solve=a_solve,
        a_closed=a_closed,
        pairing=pairing,
        pairing_closed=m * (s - prod) / prod,
        pairing_quoted=m / prod,
        restricted_norm=abs(pairing) / (n2z * n2w),
        restricted_norm_closed=m / (prod - s),
        norm2_Z=n2z,
        norm2_W=n2w,
    )


def _null_space(mat: np.ndarray, rel_cut: float = 1e-8) -> np.ndarray:
    """Columns spanning the (numerical) kernel of mat."""
    _, sv, vt = np.linalg.svd(mat)
    top = sv[0] if sv.size else 0.0
    keep = np.sum(sv > rel_cut * max(top, 1.0))
    return vt[keep:].T


@dataclass(frozen=True)
class AxiomReport:
    residuals: dict
    kernel_dim: int
    expected_kernel_dim: int
    omega_d_restricted_conditioning: float
    passed: bool

    @property
    def worst(self) -> tuple[str, float]:
        key = max(self.residuals, key=self.residuals.get)
        return key, self.residuals[key]


def verify_wsd_axioms(s: WsdStructureAt, tol: float = 1e-8) -> AxiomReport:
    """Check the pointwise axioms on a restricted structure; report only.

    (a) the frame Gram is diagonal with the first 3m entries equal to 1,
    (b) the three forms take their canonical block shapes,
    (c) ker omega1 intersects ker omega2 in degenerate_dim directions and
        omegaD stays nondegenerate on ker omega1 + ker omega2.
    """
    from .ambient import _canonical_blocks

    mf, d = s.rank, s.dim
    gram = s.g
    diag_target = np.diag(np.concatenate([np.ones(3 * mf), np.diag(gram)[3 * mf:]]))
    residuals = {"frame_orthogonality": float(np.max(np.abs(gram - diag_target)))}

    o1t, o2t, oDt = _canonical_blocks(mf, d)
    residuals["omega1_block"] = float(np.max(np.abs(s.omega1 - o1t)))
    residuals["omega2_block"] = float(np.max(np.abs(s.omega2 - o2t)))
    residuals["omegaD_block"] = float(np.max(np.abs(s.omegaD - oDt)))

    stacked = np.vstack([s.omega1, s.omega2])
    kernel_dim = _null_space(stacked).shape[1]

    k1 = _null_space(s.omega1)
    k2 = _null_space(s.omega2)
    union = np.hstack([k1, k2]) if k1.size or k2.size else np.zeros((d, 0))
    if union.shape[1]:
        q, sv, _ = np.linalg.svd(union, full_matrices=False)
        basis = q[:, sv > 1e-8 * max(sv[0], 1.0)]
        restricted = basis.T @ s.omegaD @ basis
        sv_d = np.linalg.svd(restricted, compute_uv=False)
        conditioning = float(sv_d[-1] / sv_d[0]) if sv_d[0] > 0 else 0.0
    else:
        conditioning = 1.0

    passed = (max(residuals.values()) <= tol
              and kernel_dim == s.degenerate_dim
              and conditioning > 1e-9)
    return AxiomReport(residuals, kernel_dim, s.degenerate_dim, conditioning, passed)


def perturbed_structure(s: WsdStructureAt, which: str, i: int, j: int,
                        amount: float) -> WsdStructureAt:
    """Copy of s with one antisymmetric (or symmetric for g) entry nudged."""
    mat = getattr(s, which).copy()
    mat[i, j] += amount
    if which == "g":
        mat[j, i] += amount
    else:
        mat[j, i] -= amount
    return dataclasses.replace(s, **{which: mat})
