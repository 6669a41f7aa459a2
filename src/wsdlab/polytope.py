"""Exact lattice-polytope layer: the reflexive simplex pair and its torus maps.

Everything in this module runs over Python ints and Fractions.  No floats:
the duality identities and kernel orders feed the quotient groups used by
the projection layer, and those must be exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

MAX_DIM = 8
MAX_SD_DIM = 6

IntMatrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Polytope:
    """Lattice polytope given by its vertex list (rows are vertices)."""

    vertices: IntMatrix

    def __post_init__(self):
        verts = tuple(tuple(int(x) for x in v) for v in self.vertices)
        if not verts:
            raise ValueError("polytope needs at least one vertex")
        dim = len(verts[0])
        if dim < 1 or dim > MAX_DIM:
            raise ValueError(f"ambient dimension {dim} outside desk scale 1..{MAX_DIM}")
        if any(len(v) != dim for v in verts):
            raise ValueError("vertices have inconsistent dimension")
        if len(set(verts)) != len(verts):
            raise ValueError("vertices must be distinct")
        object.__setattr__(self, "vertices", verts)

    @property
    def dim(self) -> int:
        return len(self.vertices[0])

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def affine_rank(self) -> int:
        """Dimension of the affine span of the vertex set."""
        v0 = self.vertices[0]
        rows = [[Fraction(x - y) for x, y in zip(v, v0)] for v in self.vertices[1:]]
        return _eliminate(rows)[0]


def simplex_pair(n: int) -> tuple[Polytope, Polytope]:
    """Reflexive simplex in R^n together with its polar dual.

    The primal simplex has vertices (n,-1,..,-1) and its coordinate
    permutations plus the all-minus-ones vertex; the dual has the standard
    basis vectors plus the all-minus-ones vertex.
    """
    if n < 1 or n > MAX_DIM:
        raise ValueError(f"n must be in 1..{MAX_DIM}")
    primal = []
    for i in range(n):
        v = [-1] * n
        v[i] = n
        primal.append(tuple(v))
    primal.append(tuple([-1] * n))
    dual = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    dual.append(tuple([-1] * n))
    return Polytope(tuple(primal)), Polytope(tuple(dual))


@dataclass(frozen=True)
class LatticeMap:
    """Integer matrix acting on tori coordinatewise (columns index the domain)."""

    matrix: IntMatrix
    role: str = ""

    def __post_init__(self):
        mat = tuple(tuple(int(x) for x in row) for row in self.matrix)
        if not mat or not mat[0]:
            raise ValueError("empty matrix")
        w = len(mat[0])
        if any(len(r) != w for r in mat):
            raise ValueError("ragged matrix")
        object.__setattr__(self, "matrix", mat)

    @property
    def rows(self) -> int:
        return len(self.matrix)

    @property
    def cols(self) -> int:
        return len(self.matrix[0])

    def transpose(self, role: str = "") -> "LatticeMap":
        t = tuple(zip(*self.matrix))
        return LatticeMap(tuple(tuple(r) for r in t), role or self.role + "_t")


@dataclass(frozen=True)
class LatticeMaps:
    primal: LatticeMap        # columns are dual simplex vertices
    dual: LatticeMap          # columns are primal simplex vertices
    primal_t: LatticeMap
    dual_t: LatticeMap


def lattice_maps(n: int) -> LatticeMaps:
    """The four lattice maps attached to the simplex pair in dimension n.

    primal sends the i-th domain coordinate to the i-th dual-simplex vertex
    (x -> (x_1 - x_{n+1}, ..., x_n - x_{n+1})); dual does the same with the
    primal vertices.  Transposes embed R^n back into R^{n+1}.
    """
    p, d = simplex_pair(n)
    primal = LatticeMap(tuple(zip(*d.vertices)), role="primal")
    dual = LatticeMap(tuple(zip(*p.vertices)), role="dual")
    return LatticeMaps(primal, dual, primal.transpose("primal_t"), dual.transpose("dual_t"))


# ---------------------------------------------------------------------------
# Smith normal form over the integers, with unimodular transforms tracked.


def _swap_rows(a, i, j):
    a[i], a[j] = a[j], a[i]


def _add_row(a, dst, src, k):
    a[dst] = [x + k * y for x, y in zip(a[dst], a[src])]


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ M @ V == D with U, V unimodular and D diagonal, d_i | d_{i+1}."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix
    rank: int

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.d[i][i] for i in range(min(len(self.d), len(self.d[0]))))


def smith_normal_form(mat: Sequence[Sequence[int]]) -> SmithDecomposition:
    a = [[int(x) for x in row] for row in mat]
    m, n = len(a), len(a[0])
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    # work on columns of V via rows of V^T
    vt = [[int(i == j) for j in range(n)] for i in range(n)]

    def col_op(dst, src, k):
        for row in a:
            row[dst] += k * row[src]
        _add_row(vt, dst, src, k)

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        _swap_rows(vt, i, j)

    t = 0
    while t < min(m, n):
        # pick the entry of minimal absolute value as pivot
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        while True:
            i, j = pivot
            if i != t:
                _swap_rows(a, t, i)
                _swap_rows(u, t, i)
            if j != t:
                col_swap(t, j)
            p = a[t][t]
            dirty = False
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    q = a[i][t] // p
                    _add_row(a, i, t, -q)
                    _add_row(u, i, t, -q)
                    if a[i][t] != 0:
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    q = a[t][j] // p
                    col_op(j, t, -q)
                    if a[t][j] != 0:
                        dirty = True
            if dirty:
                # remainders appeared, re-pick a smaller pivot in the block
                pivot = None
                for i in range(t, m):
                    for j in range(t, n):
                        if a[i][j] != 0 and (
                            pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])
                        ):
                            pivot = (i, j)
                continue
            # pivot must divide the whole remaining block
            p = a[t][t]
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            _add_row(a, t, offender, 1)
            _add_row(u, t, offender, 1)
            pivot = (t, t)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    rank = sum(1 for i in range(min(m, n)) if a[i][i] != 0)
    v = [list(r) for r in zip(*vt)]
    return SmithDecomposition(
        tuple(tuple(r) for r in u),
        tuple(tuple(r) for r in a),
        tuple(tuple(r) for r in v),
        rank,
    )


# ---------------------------------------------------------------------------
# Kernels of torus homomorphisms.


@dataclass(frozen=True)
class SubgroupData:
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


def _as_matrix(m) -> IntMatrix:
    if isinstance(m, LatticeMap):
        return m.matrix
    return tuple(tuple(int(x) for x in row) for row in m)


def kernel_data(m) -> SubgroupData:
    """Structure of ker(x -> Mx) on the torus, from the Smith normal form."""
    mat = _as_matrix(m)
    snf = smith_normal_form(mat)
    cols = len(mat[0])
    torsion = tuple(d for d in snf.diagonal[: snf.rank] if d > 1)
    return SubgroupData(cols - snf.rank, torsion)


def finite_coset_representatives(m) -> tuple[tuple[Fraction, ...], ...]:
    """One representative in [0,1)^cols per connected component of the kernel."""
    mat = _as_matrix(m)
    snf = smith_normal_form(mat)
    cols = len(mat[0])
    diag = snf.diagonal
    ranges = [range(diag[i]) for i in range(snf.rank)]
    reps = []
    for combo in itertools.product(*ranges) if ranges else [()]:
        y = [Fraction(combo[i], diag[i]) for i in range(snf.rank)]
        y += [Fraction(0)] * (cols - snf.rank)
        x = [
            sum(Fraction(snf.v[i][j]) * y[j] for j in range(cols)) % 1
            for i in range(cols)
        ]
        reps.append(tuple(x))
    return tuple(reps)


def connected_kernel_generators(m) -> tuple[tuple[int, ...], ...]:
    """Primitive integer vectors spanning the identity component of the kernel."""
    mat = _as_matrix(m)
    snf = smith_normal_form(mat)
    cols = len(mat[0])
    return tuple(
        tuple(snf.v[i][j] for i in range(cols)) for j in range(snf.rank, cols)
    )


# ---------------------------------------------------------------------------
# Exact rational linear algebra helpers.


def _eliminate(rows) -> tuple[int, Fraction, list[Fraction] | None]:
    """Gauss-Jordan elimination over Q: (rank, determinant, a null vector).

    The determinant is the product of the pivots signed by the row swaps; it
    is 0 when some column has no pivot, and means nothing unless the input is
    square.  The null vector comes from the first column without a pivot, or
    is None when every column has one.
    """
    a = [list(map(Fraction, r)) for r in rows]
    if not a:
        return 0, Fraction(1), None
    m, n = len(a), len(a[0])
    det = Fraction(1)
    pivots = []
    for col in range(n):
        rank = len(pivots)
        piv = next((i for i in range(rank, m) if a[i][col] != 0), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            det = -det
        det *= a[rank][col]
        inv = 1 / a[rank][col]
        a[rank] = [x * inv for x in a[rank]]
        for i in range(m):
            if i != rank and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        pivots.append(col)
    free = next((c for c in range(n) if c not in pivots), None)
    if free is None:
        return len(pivots), det, None
    null = [Fraction(0)] * n
    null[free] = Fraction(1)
    for r, pc in enumerate(pivots):
        null[pc] = -a[r][free]
    return len(pivots), det, null


def _primitive(vec: Sequence[Fraction]) -> tuple[int, ...]:
    den = math.lcm(*(f.denominator for f in vec))
    ints = [int(f * den) for f in vec]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


# ---------------------------------------------------------------------------
# Polar duality via exact facet enumeration.


@dataclass(frozen=True)
class Facet:
    normal: tuple[int, ...]   # primitive inward data: <normal, x> <= offset on P
    offset: int
    vertex_ids: tuple[int, ...]


class DegenerateDualError(ValueError):
    """Raised when the origin is not strictly interior, so polar duality breaks."""


def enumerate_facets(p: Polytope) -> tuple[Facet, ...]:
    """All facets of a full-dimensional polytope, by exhaustive hyperplane search.

    Exhaustive over vertex subsets of size dim, so only suitable at desk
    scale (dim <= 6, a few dozen vertices), which is all this package needs.
    """
    n = p.dim
    verts = p.vertices
    if p.affine_rank() != n:
        raise ValueError("polytope is not full-dimensional")
    facets: dict[tuple, Facet] = {}
    for subset in itertools.combinations(range(len(verts)), n):
        rows = [list(verts[i]) + [-1] for i in subset]
        null = _eliminate(rows)[2]
        if null is None:
            continue
        if all(x == 0 for x in null[:n]):
            continue
        cb = _primitive(null)
        c, b = cb[:n], cb[n]
        vals = [sum(ci * vi for ci, vi in zip(c, v)) for v in verts]
        if all(val <= b for val in vals):
            pass
        elif all(val >= b for val in vals):
            c, b = tuple(-x for x in c), -b
            vals = [-v for v in vals]
        else:
            continue
        on = tuple(i for i, val in enumerate(vals) if val == b)
        touching = [verts[i] for i in on]
        v0 = touching[0]
        rank = _eliminate([[x - y for x, y in zip(v, v0)] for v in touching[1:]])[0]
        if rank != n - 1:
            continue
        facets[(c, b)] = Facet(c, b, on)
    return tuple(sorted(facets.values(), key=lambda f: (f.normal, f.offset)))


def dual_polytope(p: Polytope) -> tuple[tuple[Fraction, ...], ...]:
    """Vertices of the polar dual {y : <y, x> >= -1 on p}, one per facet of p.

    Requires the origin strictly inside p; otherwise the polar body is
    unbounded or degenerate and DegenerateDualError is raised.
    """
    facets = enumerate_facets(p)
    if any(f.offset <= 0 for f in facets):
        raise DegenerateDualError(
            "origin is not strictly interior, polar dual is unbounded or degenerate"
        )
    verts = tuple(
        tuple(Fraction(-c, f.offset) for c in f.normal) for f in facets
    )
    return tuple(sorted(verts))


# ---------------------------------------------------------------------------
# The duality identities and property SD.


@dataclass(frozen=True)
class DualityReport:
    n: int
    composite: IntMatrix
    identities: tuple[tuple[str, bool, str], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.identities)

    @property
    def failures(self) -> tuple[str, ...]:
        return tuple(name for name, ok, _ in self.identities if not ok)


def _matmul_int(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def verify_duality_identities(n: int) -> DualityReport:
    """Exact check of the composite-map identities for the simplex pair."""
    maps = lattice_maps(n)
    composite = _matmul_int(maps.primal.matrix, maps.dual_t.matrix)
    other = _matmul_int(maps.dual.matrix, maps.primal_t.matrix)
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
    det = abs(int(_eliminate(composite)[1]))
    ident.append(
        (
            "determinant_matches_kernel_order",
            det == (n + 1) ** n and det == order,
            f"|det| = {det}",
        )
    )
    kd_t = kernel_data(tuple(tuple(r) for r in zip(*composite)))
    ident.append(
        (
            "torsion_is_n_plus_1_uniform",
            kd.torsion_invariants == tuple([n + 1] * n) == kd_t.torsion_invariants,
            f"invariants {kd.torsion_invariants}",
        )
    )
    return DualityReport(n, composite, tuple(ident))


@dataclass(frozen=True)
class SdVerdict:
    holds: bool
    diagnostic: str
    dual_vertices: tuple = ()
    clauses: dict = field(default_factory=dict)
    kernel_order: object = None


def has_property_sd(p: Polytope) -> SdVerdict:
    """Self-duality test: integral polar dual, matching counts, finite kernel.

    Clause 3 composes the vertex maps of p and its dual with both vertex
    lists in lexicographic order; for simplices this reproduces the usual
    vertex/opposite-facet pairing.  For other polytopes the finiteness
    verdict can in principle depend on that identification.
    """
    if p.dim > MAX_SD_DIM:
        raise ValueError(f"property SD check limited to dim <= {MAX_SD_DIM}")
    if p.affine_rank() != p.dim:
        raise ValueError("polytope is not full-dimensional")
    try:
        dual = dual_polytope(p)
    except DegenerateDualError as exc:
        return SdVerdict(False, str(exc))

    clauses: dict[str, bool] = {}
    notes = []

    integral = all(f.denominator == 1 for v in dual for f in v)
    clauses["dual_integral"] = integral
    if not integral:
        notes.append("dual has non-integer vertices")

    counts = len(dual) == p.vertex_count
    v0 = dual[0]
    dual_rank = _eliminate([[x - y for x, y in zip(v, v0)] for v in dual[1:]])[0]
    dims = dual_rank == p.affine_rank()
    clauses["counts_and_dims_match"] = counts and dims
    if not counts:
        notes.append(f"vertex counts differ ({p.vertex_count} vs {len(dual)})")
    if not dims:
        notes.append(f"span dimensions differ ({p.affine_rank()} vs {dual_rank})")

    kernel_order = None
    if integral and counts and dims:
        u_sorted = sorted(tuple(int(f) for f in v) for v in dual)
        v_sorted = sorted(p.vertices)
        comp = tuple(
            tuple(
                sum(u[a] * v[b] for u, v in zip(u_sorted, v_sorted))
                for b in range(p.dim)
            )
            for a in range(p.dim)
        )
        kd = kernel_data(comp)
        kernel_order = kd.group_order
        clauses["kernel_finite"] = kd.is_finite
        if not kd.is_finite:
            notes.append("composite kernel has positive-dimensional part")
    else:
        clauses["kernel_finite"] = None

    holds = bool(clauses["dual_integral"] and clauses["counts_and_dims_match"] and clauses["kernel_finite"])
    diag = "property SD holds" if holds else "; ".join(notes) or "clause evaluation incomplete"
    if kernel_order is not None:
        diag += f" (kernel order {kernel_order})"
    return SdVerdict(holds, diag, dual, clauses, kernel_order)
