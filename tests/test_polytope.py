import ast
import itertools
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from wsdlab import polytope
from wsdlab.polytope import (
    DualityReport,
    Facet,
    Polytope,
    SubgroupData,
    _eliminate,
    enumerate_facets,
    has_property_sd,
    kernel_data,
    lattice_maps,
    simplex_pair,
    smith_normal_form,
    verify_duality_identities,
)


def brute_kernel_count(mat, denom):
    """Count kernel points on the (1/denom)-grid of the torus by enumeration.

    Independent of the Smith-form route: walks all denom^cols grid points and
    tests membership directly.  Only usable for small matrices.
    """
    rows = len(mat)
    cols = len(mat[0])
    count = 0
    idx = [0] * cols
    total = denom**cols
    for k in range(total):
        x = k
        for j in range(cols):
            idx[j] = x % denom
            x //= denom
        ok = True
        for i in range(rows):
            s = sum(mat[i][j] * idx[j] for j in range(cols))
            if s % denom != 0:
                ok = False
                break
        if ok:
            count += 1
    return count


def test_simplex_pair_small_cases():
    p1, d1 = simplex_pair(1)
    assert p1.vertices == ((1,), (-1,))
    assert d1.vertices == ((1,), (-1,))
    p2, d2 = simplex_pair(2)
    assert p2.vertices == ((2, -1), (-1, 2), (-1, -1))
    assert d2.vertices == ((1, 0), (0, 1), (-1, -1))


@pytest.mark.parametrize("n", range(1, 7))
def test_simplex_pair_structure(n):
    p, d = simplex_pair(n)
    assert p.vertex_count == d.vertex_count == n + 1
    assert p.affine_rank() == d.affine_rank() == n
    # vertex sums vanish coordinatewise: both simplices are balanced
    for poly in (p, d):
        assert all(sum(col) == 0 for col in zip(*poly.vertices))


def test_polytope_rejects_bad_input():
    for vertices, message in [((), "polytope needs at least one vertex"),
                              (((),), "ambient dimension 0 outside desk scale 1..8"),
                              (((0,) * 9,), "ambient dimension 9 outside desk scale 1..8"),
                              (((1, 0), (0,)), "vertices have inconsistent dimension"),
                              (((1, 0), (1, 0)), "vertices must be distinct")]:
        with pytest.raises(ValueError) as info:
            Polytope(vertices)
        assert str(info.value) == message


def test_polytope_is_a_validating_named_tuple():
    # immutable, hashable and equal by its vertex list, order included; as a
    # named tuple it also equals the plain tuple of its one field
    p = Polytope([[2, -1], [-1, 2], [-1, -1]])
    q = Polytope(((2, -1), (-1, 2), (-1, -1)))
    assert p.vertices == ((2, -1), (-1, 2), (-1, -1))
    assert p == q == simplex_pair(2)[0] and hash(p) == hash(q) and p is not q
    assert p != Polytope(p.vertices[::-1])
    assert p == (p.vertices,) and isinstance(p, tuple)
    assert (p.dim, p.vertex_count, p.affine_rank()) == (2, 3, 2)
    assert repr(p) == "Polytope(vertices=((2, -1), (-1, 2), (-1, -1)))"
    with pytest.raises(AttributeError):
        p.vertices = ()
    with pytest.raises(AttributeError):
        p.extra = 1


def test_exact_layer_records_are_named_tuples():
    # every other record of the exact layer: fields and properties read as
    # before, setting an attribute raises, and a record equals (and hashes
    # like) the plain tuple of its fields
    kd = kernel_data(lattice_maps(2).dual)
    assert (kd.connected_rank, kd.torsion_invariants) == (1, (3,))
    assert (kd.component_group_order, kd.is_finite, kd.group_order) == (3, False, math.inf)
    finite = SubgroupData(0, (2, 4))
    assert (finite.component_group_order, finite.is_finite, finite.group_order) == (8, True, 8)
    assert SubgroupData(2, ()).component_group_order == 1
    facets = enumerate_facets(Polytope(((1, 0), (0, 1), (-1, -1))))
    assert facets == (Facet((-2, 1), 1), Facet((1, -2), 1), Facet((1, 1), 1))
    rep = verify_duality_identities(2)
    assert rep.passed and not DualityReport(rep.composite, (("x", False, ""),)).passed
    sd = has_property_sd(simplex_pair(2)[0])
    assert (sd.holds, sd.diagnostic) == (True, "property SD holds (kernel order 9)")
    for record in (kd, finite, facets[0], rep, sd):
        assert record == tuple(record) and hash(record) == hash(tuple(record))
        assert tuple(record) == tuple(getattr(record, name) for name in record._fields)
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = 1


def test_lattice_maps_match_hand_matrices():
    m = lattice_maps(2)
    assert m.primal == ((1, 0, -1), (0, 1, -1))
    assert m.dual == ((2, -1, -1), (-1, 2, -1))
    assert m.primal_t == ((1, 0), (0, 1), (-1, -1))
    m1 = lattice_maps(1)
    assert m1.primal == ((1, -1),)
    assert m1.dual == ((1, -1),)


@pytest.mark.parametrize("n", range(1, 7))
def test_duality_identities(n):
    rep = verify_duality_identities(n)
    assert rep.passed, rep.identities
    assert rep.composite == tuple(
        tuple((n + 1) if i == j else 0 for j in range(n)) for i in range(n)
    )


def test_kernel_data_examples():
    m = lattice_maps(2)
    kd = kernel_data(m.primal)
    assert (kd.connected_rank, kd.torsion_invariants) == (1, ())
    kd = kernel_data(m.dual)
    assert (kd.connected_rank, kd.torsion_invariants) == (1, (3,))
    assert kd.component_group_order == 3
    assert kd.group_order == math.inf
    kd = kernel_data(((0,),))
    assert (kd.connected_rank, kd.torsion_invariants) == (1, ())
    # any integer rows will do, since the Smith form reads each entry with int()
    forms = (tuple(tuple(r) for r in m.dual), [list(r) for r in m.dual], np.array(m.dual))
    assert all(kernel_data(rows) == SubgroupData(1, (3,)) for rows in forms)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kernel_data_against_grid_enumeration(n):
    """Grid-count oracle: on a (1/L)-grid a kernel with connected rank c and
    component order t meets the grid in t * L^c points, provided every torsion
    invariant divides L."""
    maps = lattice_maps(n)
    for lm in (maps.primal, maps.dual):
        kd = kernel_data(lm)
        L = 12
        assert all(L % t == 0 for t in kd.torsion_invariants)
        expected = kd.component_group_order * L**kd.connected_rank
        assert brute_kernel_count(lm, L) == expected


@pytest.mark.parametrize("n", [1, 2, 3])
def test_composite_kernel_order_brute_force(n):
    """The composite map kernel has order (n+1)^n; enumerate it directly on
    the (1/(n+1))-grid, where the whole kernel lives."""
    maps = lattice_maps(n)
    comp = tuple(
        tuple(
            sum(maps.primal[i][k] * maps.dual_t[k][j] for k in range(n + 1))
            for j in range(n)
        )
        for i in range(n)
    )
    assert brute_kernel_count(comp, n + 1) == (n + 1) ** n
    kd = kernel_data(comp)
    assert kd.group_order == (n + 1) ** n


def test_connected_generators_span_real_kernel():
    # one connected direction, and the diagonal lies in the kernel, so it spans it
    m = lattice_maps(3).primal
    assert kernel_data(m).connected_rank == 1
    assert all(sum(row) == 0 for row in m)


def polar_vertices(p):
    """The polar dual's vertices -c / b, one per facet <c, x> <= b of p."""
    return sorted(tuple(-c for c in f.normal) for f in enumerate_facets(p))


def test_dual_polytope_of_simplices():
    # each simplex of the pair is the other's polar dual: every facet sits at
    # lattice distance 1, and the facets' -normals are the other's vertices
    for n in range(1, 5):
        for p, d in (simplex_pair(n), simplex_pair(n)[::-1]):
            assert {f.offset for f in enumerate_facets(p)} == {1}
            assert polar_vertices(p) == sorted(d.vertices)


def test_facet_enumeration_square():
    sq = Polytope(((1, 1), (-1, 1), (-1, -1), (1, -1)))
    facets = enumerate_facets(sq)
    assert len(facets) == 4 and all(f.offset == 1 for f in facets)
    assert polar_vertices(sq) == [(-1, 0), (0, -1), (0, 1), (1, 0)]


def _unit_hyperplanes(pairs):
    """{(unit normal, offset)} for the half-spaces <normal, x> <= offset, rounded
    so that equal hyperplanes compare equal."""
    out = set()
    for normal, offset in pairs:
        scale = np.linalg.norm(normal)
        out.add(tuple(np.round(np.append(normal, offset) / scale, 9) + 0.0))
    return out


def assert_facets_match_qhull(points):
    """enumerate_facets' facets equal scipy's ConvexHull facets; Qhull splits a
    non-simplicial facet into simplices, each with the facet's equation."""
    facets = enumerate_facets(Polytope(points))
    hull = ConvexHull(np.array(points, dtype=float))
    assert len(facets) == len({tuple(f.normal) for f in facets})
    ours = _unit_hyperplanes((np.array(f.normal, dtype=float), f.offset) for f in facets)
    # Qhull's equations read <normal, x> + offset <= 0 on the hull
    theirs = _unit_hyperplanes((eq[:-1], -eq[-1]) for eq in hull.equations)
    assert ours == theirs


def cube(n):
    return tuple(itertools.product((-1, 1), repeat=n))


def cross_polytope(n):
    return tuple(tuple(s * (j == i) for j in range(n)) for i in range(n) for s in (1, -1))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("shape", [cube, cross_polytope])
def test_facets_match_convex_hull_oracle(shape, n):
    # the 4-cube's facets hold coplanar four-vertex subsets, the dependent
    # subsets the facet search skips
    assert_facets_match_qhull(shape(n))
    assert len(enumerate_facets(Polytope(shape(n)))) == (2 * n if shape is cube else 2 ** n)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(2, 4))
def test_facets_of_integer_hulls_match_convex_hull_oracle(data, n):
    points = data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n),
                                min_size=n + 1, max_size=n + 6, unique=True))
    assume(Polytope(points).affine_rank() == n)
    assert_facets_match_qhull(points)


@pytest.mark.parametrize("n", range(1, 9))
def test_simplices_have_property_sd(n):
    p, _ = simplex_pair(n)
    verdict = has_property_sd(p)
    assert verdict.holds, verdict.diagnostic
    assert verdict.diagnostic == f"property SD holds (kernel order {(n + 1) ** n})"
    # and the roles are symmetric
    _, d = simplex_pair(n)
    assert has_property_sd(d).holds


def test_property_sd_square_diagnostic():
    sq = Polytope(((1, 1), (-1, 1), (-1, -1), (1, -1)))
    verdict = has_property_sd(sq)
    assert verdict.holds
    assert verdict.diagnostic == "property SD holds (kernel order 8)"
    assert polar_vertices(sq) == sorted([(1, 0), (-1, 0), (0, 1), (0, -1)])


def test_property_sd_rejects_origin_on_boundary():
    tri = Polytope(((0, 0), (1, 0), (0, 1)))
    verdict = has_property_sd(tri)
    assert not verdict.holds
    assert "interior" in verdict.diagnostic


def test_property_sd_scaled_simplex_fails_integrality():
    # doubling the primal simplex halves the dual, which stops being integral
    p, _ = simplex_pair(2)
    big = Polytope(tuple(tuple(2 * x for x in v) for v in p.vertices))
    verdict = has_property_sd(big)
    assert not verdict.holds
    assert "non-integer" in verdict.diagnostic


@st.composite
def point_sets_around_the_origin(draw):
    """Full-dimensional integer point sets of dim 1-3 with the origin strictly
    inside: drawn points plus minus their sum, so the origin is the mean of
    them all, a combination with positive weights, hence interior."""
    n = draw(st.integers(1, 3))
    bound = draw(st.sampled_from([1, 2, 5]))
    points = draw(st.lists(st.tuples(*[st.integers(-bound, bound)] * n),
                           min_size=n, max_size=n + 3, unique=True))
    points = list(dict.fromkeys(points + [tuple(-sum(col) for col in zip(*points))]))
    assume(Polytope(points).affine_rank() == n)
    return Polytope(points)


@settings(max_examples=150, deadline=None)
@given(p=point_sets_around_the_origin())
@example(p=simplex_pair(3)[0])
@example(p=Polytope(((4, -2), (-2, 4), (-2, -2))))
def test_dual_is_integral_exactly_when_every_facet_sits_at_distance_one(p):
    # the polar dual's vertices as rationals -c / b, built here only as the
    # reference: each is the vertex of {y : <y, x> >= -1 on p} that is dual
    # to its facet, and some is non-integral exactly when some offset is not 1
    facets = enumerate_facets(p)
    assert all(f.offset > 0 for f in facets)
    dual = [tuple(Fraction(-c, f.offset) for c in f.normal) for f in facets]
    for y in dual:
        vals = [sum(a * b for a, b in zip(y, v)) for v in p.vertices]
        assert min(vals) == -1 and vals.count(-1) >= p.dim
    non_integral = any(x.denominator != 1 for y in dual for x in y)
    assert non_integral == any(f.offset != 1 for f in facets)
    assert ("non-integer" in has_property_sd(p).diagnostic) == non_integral


def test_property_sd_dimension_guard_still_limits_other_polytopes():
    # the exhaustive facet search stays limited for other polytopes past dim 6
    with pytest.raises(ValueError, match="simplices"):
        has_property_sd(Polytope(cross_polytope(7)))


def test_not_full_dimensional_rejected():
    flat = Polytope(((0, 0), (1, 0), (2, 0)))
    with pytest.raises(ValueError, match="not full-dimensional"):
        has_property_sd(flat)


def test_exact_layer_imports_no_numpy_and_holds_no_float():
    # the module's ints-only rule: standard-library imports only, no
    # fractions import, no float literal and no float(...) call
    tree = ast.parse(Path(polytope.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or "").split(".")[0])
    assert imported <= sys.stdlib_module_names, imported - sys.stdlib_module_names
    assert "fractions" not in imported
    floats = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Constant) and isinstance(node.value, float)
              or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"]
    assert floats == []


def fraction_gauss_jordan(rows):
    """Reference elimination: textbook Gauss-Jordan over Fractions, pivoting on
    the first nonzero entry at or below the current rank, returning (rank,
    product of the pivots signed by the swaps or 0 when some column has no
    pivot, null vector from the first column without a pivot)."""
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


# zeros a third of the time, so pivots are often found below the diagonal
_ENTRIES = st.one_of(st.just(0), st.integers(-6, 6), st.integers(-24, 24))


@st.composite
def integer_matrices(draw, max_rows=6, max_cols=6):
    """Integer matrices of any shape up to max_rows x max_cols; in half of
    them the later rows are often zero, copies or combinations of earlier
    ones, so rank deficiency is common."""
    m, n = draw(st.integers(1, max_rows)), draw(st.integers(1, max_cols))
    rows = [draw(st.lists(_ENTRIES, min_size=n, max_size=n)) for _ in range(m)]
    for i in range(1, m if draw(st.booleans()) else 1):
        kind = draw(st.sampled_from(["free", "zero", "copy", "combination"]))
        j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
        if kind == "zero":
            rows[i] = [0] * n
        elif kind == "copy":
            rows[i] = list(rows[j])
        elif kind == "combination":
            c = draw(_ENTRIES)
            rows[i] = [x + c * y for x, y in zip(rows[j], rows[k])]
    return rows


@settings(max_examples=200, deadline=None)
@given(rows=integer_matrices())
def test_eliminate_matches_fraction_gauss_jordan(rows):
    # the null vector is all ints, a nonzero multiple of the reference's
    rank, det, null = _eliminate(rows)
    want_rank, want_det, want_null = fraction_gauss_jordan(rows)
    assert rank == want_rank
    if len(rows) == len(rows[0]):
        assert det == want_det
    assert type(det) is int
    assert (null is None) == (want_null is None)
    if null is not None:
        assert all(type(x) is int for x in null)
        scale = next(Fraction(x, y) for x, y in zip(null, want_null) if y)
        assert scale != 0 and null == [scale * y for y in want_null]
        assert all(sum(x * y for x, y in zip(row, null)) == 0 for row in rows)


def test_eliminate_edge_shapes():
    assert _eliminate([]) == (0, 1, None)
    assert _eliminate([[0, 0]]) == (0, 0, [1, 0])
    assert _eliminate([[3, 2], [6, 6]]) == (2, 6, None)
    # a row swap flips the sign
    assert _eliminate([[0, 2], [5, 4]])[1] == -10
    # entries are integers only: a Fraction is refused, never truncated
    with pytest.raises(TypeError):
        _eliminate([[Fraction(1, 2), 1], [1, 1]])


def laplace_det(rows):
    """Reference determinant: Laplace expansion along the first row."""
    if not rows:
        return 1
    return sum((-1) ** j * x * laplace_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, x in enumerate(rows[0]) if x)


@settings(max_examples=200, deadline=None)
@given(rows=integer_matrices(max_rows=4, max_cols=5))
@example(rows=[[2, -1, -1], [-1, 2, -1]])
@example(rows=[[1, 0, -1], [0, 1, -1]])
@example(rows=[[6, 4], [4, 6]])
@example(rows=[[0, 0], [0, 0]])
@example(rows=[[3]])
@example(rows=[[4, 0], [0, 6]])
@example(rows=[[2, 0, 0], [0, 3, 0], [0, 0, 5]])
@example(rows=[[6, 0, 0], [0, 10, 0], [0, 0, 15]])
@example(rows=[[0, 0], [0, 4]])
def test_smith_invariant_factors_are_the_determinantal_divisor_ratios(rows):
    # d_k, the gcd of the k x k minors, is the product of the first k
    # invariant factors, and 0 past the rank
    factors = smith_normal_form(rows)
    assert all(d > 0 for d in factors)
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
    m, n = len(rows), len(rows[0])
    for k in range(1, min(m, n) + 1):
        divisor = math.gcd(*(laplace_det([[rows[i][j] for j in cols] for i in picked])
                             for picked in itertools.combinations(range(m), k)
                             for cols in itertools.combinations(range(n), k)))
        assert divisor == (math.prod(factors[:k]) if k <= len(factors) else 0)
