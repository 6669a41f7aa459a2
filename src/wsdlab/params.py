"""Facts of the parameters (n, rho1, rho2) alone, in the standard library.

The family's two parameters and the facts they fix with no sample: the
shared constants, the change to the moment levels (k1, k2) and back, the
feasibility threshold and the regularity check (`LevelSetSpec`,
`feasibility`, `require_regular`), the closed-form fiber bound
(`pi1_fiber_bound`) and the four suprema over the base (`base_suprema`),
each solved from one scalar root.  Every number here is a `math` or
`Fraction` computation, so the layers above import their constants and specs
from here, and `limit-kahler`, whose columns are all such facts, runs
without numpy.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import NamedTuple

# the package's one source of these constants; every other module imports them
TWO_PI = 2.0 * math.pi
PI2 = math.pi**2
FOUR_PI2 = 4.0 * math.pi**2
# 2 pi^2 to 35 digits, for exponents such as log c / 2n formed exactly
_TWO_PI2 = Fraction("19.739208802178717237668981999752302")


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


def small_root(n: int, rho2: float) -> tuple[float, Fraction]:
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


def pi1_fiber_bound(spec: LevelSetSpec) -> float:
    """Closed-form fiber-diameter bound pi n^{-(n-1)/2} e^{2 pi^2 rho2^2} / rho1.

    Raises ArithmeticError where the bound leaves the doubles: the exponential
    alone overflows from rho2 ~ 6.0.
    """
    n = spec.n
    try:
        bound = math.pi * n ** (-(n - 1) / 2.0) * math.exp(2.0 * PI2 * spec.rho2**2) / spec.rho1
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise ArithmeticError(f"fiber bound pi n^(-(n-1)/2) e^(2 pi^2 rho2^2) / rho1 overflows "
                              f"at rho2 = {spec.rho2:.6g}, rho1 = {spec.rho1:.6g}")
    return bound


class BaseSuprema(NamedTuple):
    """base_suprema's four facts of (n, rho2), at unit scale."""

    h1: float
    h2: float
    pi1_fiber: float
    pi2_fiber: float


def base_suprema(n: int, rho2: float) -> BaseSuprema:
    """(h1, h2, pi1_fiber, pi2_fiber): the sup over the pi1 resp. pi2 image of
    the distance to the divisor {z_j = 0}, and the sup over the base of the
    pi1 resp. pi2 fiber-torus diameter, at unit scale: rho1 h1, rho2 h2,
    pi1_fiber / rho1 and rho1 pi2_fiber at the images' scales.  Each is
    exact and reads no sample; the offsets are one side of the Hausdorff
    distance.

    Offsets.  That distance is arcsin(|z_j| / |z|) (Bengtsson and Zyczkowski,
    Geometry of Quantum States, CUP 2006, ch. 4) and every set is
    torus-invariant, so take q = x^2 on B = {sum q = 1, sum log q = log c},
    c = e^{-4 pi^2 rho2^2}, m = n+1.  For tau <= 1/m the concave sum log q is,
    on the simplex {sum q = 1, q >= tau}, smallest at its vertices
    (tau, .., tau, 1 - n tau) and largest at the centre, -m log m > log c
    (regularity).  So B meets it iff tau^n (1 - n tau) <= c, a side rising on
    (0, 1/m]: sup_B min q is the root t- < 1/m of t^n (1 - n t) = c, and
    h1 = arcsin(sqrt(t-)).  Alike on {sum q = 1, q <= T}, T in [1/m, 1/n),
    where q >= 1 - n T > 0 and T^n (1 - n T) falls: inf_B max q is the root
    t+ > 1/m.  Under pi2 |z_j|^2 = -log q_j / 4 pi^2 and |z| = rho2, so
    h2 = arcsin(sqrt(-log t+) / (2 pi rho2)).

    Fibers.  At radii rho1 x both fiber lattices are A_n, with the weights
    1 / (4 pi^2 rho1^2 q_i) (pi1) and 4 pi^2 rho1^2 q_i (pi2), so
    metgeo.root_lattice_covering_radius gives, with S = sum 1/q_i and
    p = m mod 2, sqrt(S - p) / (4 pi rho1) and pi rho1 sqrt(1 - p / S): both
    rise with S.
    B is compact (every q_i >= c), so S has a maximum on it, and there the
    constraint gradients 1 and 1/q are independent (only the centre, which
    is not on B, makes them parallel): a KKT point.  With
    L = S - lam (sum q - 1) - mu (sum log q - log c), each 1/q_i is a root of
    P^2 + mu P + lam = 0, so q takes two values s < l (one is the centre),
    and mu = -(1/s + 1/l).  If two coordinates a, b equal s, then e_a - e_b
    is tangent to B (sum v = 0, sum v / q = 0), and on it the Lagrangian
    Hessian diag(2 / q^3 + mu / q^2) is 2 (1/s - 1/l) / s^2 > 0, so that
    point is no maximum.  So the maximum is (l, .., l, s), n l + s = 1,
    l^n s = c, l > s: l = t+, s = d = 1 - n t+, S_max = n^2 / (1 - d) + 1/d.

    sqrt(t-) is small_root's, as in reduction.solve_base at n = 1; t+ =
    (1 - d) / n, d = k e^y, y / n + log1p(-d) = 0, so -log t+ = log n -
    log1p(-d) stays exact at n = 1.  k = n^n c is that product where c is
    normal and n^n a double (n <= 143).  Elsewhere it is (n c^{1/n})^n,
    c^{1/n} = e^{2h} e^{2 (half - h)}, half = log c / 2n exact and h its
    double, so no factor leaves the normal doubles (n c^{1/n} < 1 on a
    regular level set) and k's error is a few times n ulp; the root d
    amplifies it near the threshold, where t- and t+ close in.  As
    1/d = ((1 - d) / n)^n / c, the pi1 supremum is
    c^{-1/2} n^{-n/2} (1 - d)^{n/2} sqrt(1 + n^2 d / (1 - d) - p d) / 4 pi,
    and c^{-1/2} = e^{-log c / 2} is e^b e^{-log c / 2 - b}, b the
    exponent rounded once and the remainder exact, as small_root forms
    c^{1/2n}: so it is within 8 eps at every depth (6.5 eps at worst at
    n = 1..8 against a 50-digit search), where a rounded log c would cost
    eps |log c|.  It stays finite after d underflows (rho2 ~5.5) and is inf
    where e^{-log c / 2} leaves the doubles (rho2 ~5.997), as
    pi1_fiber_bound does at every rho1.
    Raises EmptyLevelSet unless the level set is regular, and OverflowError
    where log c / 2 leaves the doubles (rho2 ~1e153).
    """
    require_regular(LevelSetSpec(n, 1.0, rho2))
    root, half = small_root(n, rho2)  # sqrt(t-), log c / 2n exactly
    h = float(half)
    c = math.exp(2.0 * n * h)
    if c >= sys.float_info.min and n ** n <= sys.float_info.max:
        k = n ** n * c
    else:  # (n c^{1/n})^n: from n = 144 on, or where c is subnormal
        base = n * math.exp(2.0 * h)
        k = base ** n * math.exp(2.0 * n * float(half - Fraction(h))) if base else 0.0
    d = k * math.exp(_rising_root(1.0 / n, k))  # 1 - n t+
    if n == 1:  # t+ = 1 - t-: -log t+ ~ t- leaves the doubles before its root does
        t = root * root
        mod = root * math.sqrt(-math.log1p(-t) / t) if t else root
    else:
        mod = math.sqrt(math.log(n) - math.log1p(-d))
    p, grow = (n + 1) % 2, d * n * n / (1.0 - d)  # S = (1 + grow) / d
    b = float(-n * half)  # -log c / 2 = 2 pi^2 rho2^2, rounded once
    pi1 = (math.exp(b) * n ** (-0.5 * n) / (4.0 * math.pi) * math.sqrt(1.0 + grow - p * d)
           * math.exp(0.5 * n * math.log1p(-d) + float(-n * half - Fraction(b)))
           if b < math.log(sys.float_info.max) else math.inf)
    return BaseSuprema(math.asin(root), math.asin(mod / (TWO_PI * rho2)), pi1,
                       math.pi * math.sqrt(1.0 - p * d / (1.0 + grow)))
