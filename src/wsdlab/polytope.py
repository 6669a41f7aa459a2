"""Exact lattice-polytope layer: the reflexive simplex pair and its torus maps.

Everything in this module runs over Python ints alone, with no floats and
no rationals.  The duality identities, the kernel orders and the property-SD
verdict are exact facts about the lattices, checked exactly.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache
from typing import NamedTuple, Sequence

MAX_DIM = 8
MAX_SD_DIM = 6

IntMatrix = tuple[tuple[int, ...], ...]


class Polytope(NamedTuple("Polytope", [("vertices", IntMatrix)])):
    """Lattice polytope given by its vertex list (rows are vertices): a named
    tuple that checks the list when built, so immutable, hashable and equal
    by its vertices."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, vertices):
        verts = tuple(tuple(int(x) for x in v) for v in vertices)
        if not verts:
            raise ValueError("polytope needs at least one vertex")
        dim = len(verts[0])
        if dim < 1 or dim > MAX_DIM:
            raise ValueError(f"ambient dimension {dim} outside desk scale 1..{MAX_DIM}")
        if any(len(v) != dim for v in verts):
            raise ValueError("vertices have inconsistent dimension")
        if len(set(verts)) != len(verts):
            raise ValueError("vertices must be distinct")
        return super().__new__(cls, verts)

    @property
    def dim(self) -> int:
        return len(self.vertices[0])

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def affine_rank(self) -> int:
        """Dimension of the affine span of the vertex set."""
        v0 = self.vertices[0]
        return _eliminate([[x - y for x, y in zip(v, v0)] for v in self.vertices[1:]])[0]


def _simplex_vertices(n: int) -> tuple[IntMatrix, IntMatrix]:
    """Vertex lists of the reflexive simplex pair in R^n, at any n >= 1.

    The primal simplex has vertices (n,-1,..,-1) and its coordinate
    permutations plus the all-minus-ones vertex; the dual has the standard
    basis vectors plus the all-minus-ones vertex.
    """
    last = (-1,) * n
    primal = tuple(tuple(n if j == i else -1 for j in range(n)) for i in range(n))
    dual = tuple(tuple(int(j == i) for j in range(n)) for i in range(n))
    return primal + (last,), dual + (last,)


def simplex_pair(n: int) -> tuple[Polytope, Polytope]:
    """Reflexive simplex in R^n together with its polar dual, at desk scale
    n <= MAX_DIM."""
    if n < 1 or n > MAX_DIM:
        raise ValueError(f"n must be in 1..{MAX_DIM}")
    primal, dual = _simplex_vertices(n)
    return Polytope(primal), Polytope(dual)


class LatticeMaps(NamedTuple):
    """Integer matrices acting on tori coordinatewise (columns index the domain)."""

    primal: IntMatrix         # columns are dual simplex vertices
    dual: IntMatrix           # columns are primal simplex vertices
    primal_t: IntMatrix       # rows are dual simplex vertices
    dual_t: IntMatrix         # rows are primal simplex vertices


@lru_cache(maxsize=None)
def lattice_maps(n: int) -> LatticeMaps:
    """The four lattice maps attached to the simplex pair in dimension n,
    at any n >= 1 (tuples only, so one cached instance per n is shared).

    primal sends the i-th domain coordinate to the i-th dual-simplex vertex
    (x -> (x_1 - x_{n+1}, ..., x_n - x_{n+1})); dual does the same with the
    primal vertices.  Transposes embed R^n back into R^{n+1}.
    """
    p, d = _simplex_vertices(n)
    return LatticeMaps(tuple(zip(*d)), tuple(zip(*p)), d, p)


# ---------------------------------------------------------------------------
# Smith normal form over the integers.


def _smallest_entry(a: list[list[int]], t: int) -> tuple[int, int] | None:
    """(i, j) of the nonzero entry of least absolute value in rows and
    columns t onward, the first in row order among equals; None if that
    block is 0."""
    best = min(((abs(x), i, j) for i, row in enumerate(a[t:], t)
                for j, x in enumerate(row[t:], t) if x), default=None)
    return None if best is None else best[1:]


def smith_normal_form(mat: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The nonzero invariant factors d_1 | d_2 | ... of an integer matrix,
    one per unit of its rank.  Unimodular row and column operations bring it
    to a diagonal; the fold diag(x, y) ~ diag(gcd, lcm) (Newman, Integral
    Matrices, 1972) then makes that diagonal a divisor chain."""
    a = [[int(x) for x in row] for row in mat]
    m, n = len(a), len(a[0])
    t = 0
    while t < min(m, n):
        pivot = _smallest_entry(a, t)
        if pivot is None:
            break
        while True:
            i, j = pivot
            if i != t:
                a[t], a[i] = a[i], a[t]
            if j != t:
                for row in a:
                    row[t], row[j] = row[j], row[t]
            p = a[t][t]
            dirty = False
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    q = a[i][t] // p
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t] != 0:
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    q = a[t][j] // p
                    for row in a:
                        row[j] -= q * row[t]
                    if a[t][j] != 0:
                        dirty = True
            if not dirty:
                break
            # remainders appeared, re-pick a smaller pivot in the block
            pivot = _smallest_entry(a, t)
        t += 1
    # the block from t onward is 0, so the pivots so far are the diagonal
    d = [abs(a[i][i]) for i in range(t)]
    for i in range(t):
        for j in range(i + 1, t):
            g = math.gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    return tuple(d)


# ---------------------------------------------------------------------------
# Kernels of torus homomorphisms.


class SubgroupData(NamedTuple):
    """Kernel of a torus homomorphism: subtorus rank plus component group."""

    connected_rank: int
    torsion_invariants: tuple[int, ...]

    @property
    def component_group_order(self) -> int:
        return math.prod(self.torsion_invariants) if self.torsion_invariants else 1

    @property
    def is_finite(self) -> bool:
        return self.connected_rank == 0

    @property
    def group_order(self):
        """Order of the whole kernel; math.inf when a subtorus factor is present."""
        return self.component_group_order if self.is_finite else math.inf


def kernel_data(mat: Sequence[Sequence[int]]) -> SubgroupData:
    """Structure of ker(x -> Mx) on the torus, from the invariant factors."""
    factors = smith_normal_form(mat)
    return SubgroupData(len(mat[0]) - len(factors), tuple(d for d in factors if d > 1))


# ---------------------------------------------------------------------------
# Exact elimination over the integers (Bareiss).


def _eliminate(rows) -> tuple[int, int, list[int] | None]:
    """Gauss-Jordan elimination over Q, fraction free: (rank, det, null vector).

    Entries are integers, each read through operator.index, so a rational
    or a float raises TypeError instead of being truncated.  Bareiss's
    fraction-free Gauss-Jordan runs on Python ints: every row other than the
    pivot row becomes (p x - f y) / p_prev, with p the pivot, f the row's
    entry in the pivot column, y the pivot row and p_prev the previous
    pivot; the division is exact, since each entry is then a minor of the
    matrix.  At the end every pivot row is the reduced row-echelon row times
    the last pivot.

    The null vector comes from the first column without a pivot (None when
    every column has one).  It holds ints: the last pivot at that free
    column and minus each pivot row's free-column entry at the row's pivot
    column, the rational null vector with 1 at the free column times the
    last pivot.  On square input det is the determinant: the last pivot
    signed by the row swaps, or 0 when some column has no pivot.  On
    non-square input det means nothing, and no caller reads it.
    """
    a = [[operator.index(x) for x in row] for row in rows]
    if not a:
        return 0, 1, None
    m, n = len(a), len(a[0])
    sign, prev = 1, 1
    pivots = []
    for col in range(n):
        rank = len(pivots)
        piv = next((i for i in range(rank, m) if a[i][col] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            sign = -sign
        top = a[rank]
        p = top[col]
        for i in range(m):
            if i != rank:
                f = a[i][col]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], top)]
        prev = p
        pivots.append(col)
    rank = len(pivots)
    det = sign * prev if rank == n else 0
    free = next((c for c in range(n) if c not in pivots), None)
    if free is None:
        return rank, det, None
    null = [0] * n
    null[free] = prev
    for r, pc in enumerate(pivots):
        null[pc] = -a[r][free]
    return rank, det, null


def _primitive(vec: Sequence[int]) -> tuple[int, ...]:
    g = math.gcd(*vec)
    return tuple(x // g for x in vec)


# ---------------------------------------------------------------------------
# Exact facet enumeration.


class Facet(NamedTuple):
    normal: tuple[int, ...]   # primitive inward data: <normal, x> <= offset on P
    offset: int


def enumerate_facets(p: Polytope) -> tuple[Facet, ...]:
    """All facets of a full-dimensional polytope, by exhaustive hyperplane search.

    Exhaustive over vertex subsets of size dim, so only suitable at desk
    scale (dim <= 6 with a few dozen vertices, or a simplex up to dim 8),
    which is all this package needs.  A subset counts only when its rows
    (v, -1) have rank dim, i.e. its vertices are affinely independent: then
    the null vector (c, b) has c != 0, and a supporting hyperplane through
    dim such vertices is a facet.  Every facet holds dim such vertices, so
    skipping the dependent subsets loses none.
    """
    n = p.dim
    verts = p.vertices
    if p.affine_rank() != n:
        raise ValueError("polytope is not full-dimensional")
    facets = set()
    for subset in itertools.combinations(range(len(verts)), n):
        rows = [list(verts[i]) + [-1] for i in subset]
        rank, _, null = _eliminate(rows)
        if rank < n:
            continue
        cb = _primitive(null)
        c, b = cb[:n], cb[n]
        vals = [sum(ci * vi for ci, vi in zip(c, v)) for v in verts]
        if all(val <= b for val in vals):
            pass
        elif all(val >= b for val in vals):
            c, b = tuple(-x for x in c), -b
        else:
            continue
        facets.add(Facet(c, b))
    return tuple(sorted(facets))


# ---------------------------------------------------------------------------
# The duality identities and property SD.


class DualityReport(NamedTuple):
    composite: IntMatrix
    identities: tuple[tuple[str, bool, str], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.identities)


def _matmul_int(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def verify_duality_identities(n: int) -> DualityReport:
    """Exact check of the composite-map identities for the simplex pair."""
    maps = lattice_maps(n)
    composite = _matmul_int(maps.primal, maps.dual_t)
    other = _matmul_int(maps.dual, maps.primal_t)
    ident: list[tuple[str, bool, str]] = []

    target = tuple(
        tuple((n + 1) if i == j else 0 for j in range(n)) for i in range(n)
    )
    ident.append(
        (
            "composite_is_scaled_identity",
            composite == target,
            f"primal . dual^T = {composite}",
        )
    )
    ident.append(
        (
            "transposed_composite_is_scaled_identity",
            other == target,
            f"dual . primal^T = {other}",
        )
    )

    kd = kernel_data(composite)
    order = kd.group_order
    ident.append(
        (
            "composite_kernel_order",
            order == (n + 1) ** n,
            f"kernel order {order}, expected {(n + 1) ** n}",
        )
    )
    det = abs(_eliminate(composite)[1])
    ident.append(
        (
            "determinant_matches_kernel_order",
            det == (n + 1) ** n and det == order,
            f"|det| = {det}",
        )
    )
    kd_t = kernel_data(tuple(zip(*composite)))
    ident.append(
        (
            "torsion_is_n_plus_1_uniform",
            kd.torsion_invariants == tuple([n + 1] * n) == kd_t.torsion_invariants,
            f"invariants {kd.torsion_invariants}",
        )
    )
    return DualityReport(composite, tuple(ident))


class SdVerdict(NamedTuple):
    holds: bool
    diagnostic: str


def has_property_sd(p: Polytope) -> SdVerdict:
    """Self-duality test: integral polar dual, matching vertex counts, finite
    kernel, all read from the facets <c, x> <= b of p.  The polar of a
    full-dimensional polytope with the origin strictly inside is again one,
    so the spans' dimensions always match.

    The origin is strictly inside iff every offset b is positive, and then
    each facet gives one dual vertex -c / b.  That vertex is integral iff
    b = 1: (c, b) is primitive, so a b dividing every entry of c divides
    gcd(c, b) = 1.  Hence the dual is a lattice polytope iff every offset is
    1 (Batyrev's reflexive polytopes), and its vertices are then the -c.

    The kernel clause composes the vertex maps of p and its dual with both
    vertex lists in lexicographic order; for simplices this reproduces the
    usual vertex/opposite-facet pairing.  For other polytopes the finiteness
    verdict can in principle depend on that identification.
    """
    if p.dim > MAX_SD_DIM and p.vertex_count != p.dim + 1:
        raise ValueError(f"property SD check limited to dim <= {MAX_SD_DIM} "
                         "for polytopes other than simplices")
    facets = enumerate_facets(p)
    if any(f.offset <= 0 for f in facets):
        return SdVerdict(False, "origin is not strictly interior, "
                         "polar dual is unbounded or degenerate")

    notes = []
    if any(f.offset != 1 for f in facets):
        notes.append("dual has non-integer vertices")
    if len(facets) != p.vertex_count:
        notes.append(f"vertex counts differ ({p.vertex_count} vs {len(facets)})")
    if notes:
        return SdVerdict(False, "; ".join(notes))

    u = tuple(sorted(tuple(-c for c in f.normal) for f in facets))
    kd = kernel_data(_matmul_int(tuple(zip(*u)), tuple(sorted(p.vertices))))
    diag = "property SD holds" if kd.is_finite else \
        "composite kernel has positive-dimensional part"
    return SdVerdict(kd.is_finite, f"{diag} (kernel order {kd.group_order})")
