import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import dense_tensors, divisor_offsets_mp, fresh_stream
from wsdlab.ambient import moment_map
from wsdlab.params import (FOUR_PI2, EmptyLevelSet, LevelSetSpec, convert_parameters, feasibility,
                           feasibility_threshold)
from wsdlab.reduction import (
    InducedStructure,
    _canonical_blocks,
    _certificate,
    _philox_words,
    _stream_keys,
    _svd_checks,
    draw_directions,
    draw_torus,
    induced_structure,
    log_shape,
    omega_d_degenerate_block,
    sample_base,
    solve_base,
    solve_shapes,
    stream_rows,
    verify_wsd_axioms,
)

PI = math.pi


def test_spec_construction_and_properties():
    s = LevelSetSpec(2, 1.3, 0.6)
    assert (s.rho1, s.rho2) == (1.3, 0.6)
    assert s.k1 < 0
    back = convert_parameters(2, s.k1, s.k2)
    assert abs(back[0] - 1.3) < 1e-12
    assert abs(back[1] - 0.6) < 1e-12
    for rho1 in (0.0, -1.0):
        with pytest.raises(ValueError, match="positive"):
            LevelSetSpec(2, rho1, 0.6)
    with pytest.raises(ValueError):
        LevelSetSpec(0, 1.0, 0.6)


@pytest.mark.parametrize("rho2", [0.0, -0.0, -1e-300, -0.6])
def test_spec_rejects_non_positive_rho2(rho2):
    with pytest.raises(ValueError, match="rho2 must be positive"):
        LevelSetSpec(2, 1.0, rho2)


@pytest.mark.parametrize("rho1,rho2", [(1.0, math.nan), (1.0, math.inf), (1.0, -math.inf),
                                       (math.inf, 0.6), (math.nan, 0.6)])
def test_spec_rejects_non_finite_parameters(rho1, rho2):
    with pytest.raises(ValueError, match="finite"):
        LevelSetSpec(2, rho1, rho2)


@pytest.mark.parametrize("k1,k2", [(-1.0, math.nan), (-1.0, math.inf), (-1.0, -math.inf),
                                   (-math.inf, 0.0), (math.nan, 0.0)])
def test_spec_rejects_non_finite_levels(k1, k2):
    # no non-finite level gives a spec: the conversion or the spec refuses it
    with pytest.raises(ValueError, match="finite|radicand"):
        LevelSetSpec(2, *convert_parameters(2, k1, k2))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 6), data=st.data(), decades=st.floats(-100.0, 100.0),
       seed=st.integers(0, (1 << 31) - 1), count=st.integers(1, 12))
def test_solve_base_is_exactly_rho1_covariant(n, data, decades, seed, count):
    # the spec keeps its parameters as given, and the radii at rho1 are
    # bitwise rho1 times those at rho1 = 1: one shape solve serves every rho1
    rho2 = data.draw(st.floats(1.0001 * feasibility_threshold(n), 2.5))
    rho1 = 10.0**decades
    spec = LevelSetSpec(n, rho1, rho2)
    assert spec.rho1 == rho1 and spec.rho2 == rho2
    directions = draw_directions(n, count, seed)
    shape = solve_base(LevelSetSpec(n, 1.0, rho2), directions)
    assert np.array_equal(solve_base(spec, directions), rho1 * shape)


@st.composite
def _sweeps(draw):
    """(n, rho2s): 1 to 8 level sets from 1.0001x the threshold to 2.5, in
    any order and with repeats."""
    n = draw(st.integers(2, 6))
    levels = draw(st.lists(st.floats(1.0001 * feasibility_threshold(n), 2.5),
                           min_size=1, max_size=8))
    return n, draw(st.lists(st.sampled_from(levels), min_size=1, max_size=8))


@settings(max_examples=60, deadline=None)
@given(sweep=_sweeps(), seed=st.integers(0, (1 << 31) - 1), count=st.integers(1, 300))
@example(sweep=(2, [2.5, 1.0001 * feasibility_threshold(2), 2.5]), seed=0, count=300)
@example(sweep=(6, [1.0001 * feasibility_threshold(6)]), seed=1, count=1)
def test_stacked_solve_is_the_per_level_set_solve(sweep, seed, count):
    # one Newton loop runs over every (level set, direction) ray, each ray
    # on its own stopping test and its own sums: the slice of each level set
    # is solve_base's shape, bitwise, and a row is the same in any sub-batch
    n, rho2s = sweep
    directions = draw_directions(n, count, seed)
    shapes = np.array(list(solve_shapes(n, rho2s, directions)))
    assert shapes.shape == (len(rho2s), count, n + 1)
    for rho2, shape in zip(rho2s, shapes):
        assert np.array_equal(shape, solve_base(LevelSetSpec(n, 1.0, rho2), directions))
    rows = np.flatnonzero(np.random.default_rng(seed).random(count) < 0.5)
    part = np.array(list(solve_shapes(n, rho2s[::-1], directions[rows])))
    assert np.array_equal(part, shapes[::-1][:, rows])


def _in_turn(shapes):
    """The items of an iterable of shapes up to its first failure, and that
    failure as (type, message), or None."""
    got = []
    try:
        for shape in shapes:
            got.append(shape)
    except (ValueError, ArithmeticError) as exc:
        return got, (type(exc), str(exc))
    return got, None


# rho2 as a multiple of the threshold, or past where the radii underflow: at
# 30 they round to 0 after the solve, and at 1e200 rho2^2 leaves the doubles
_POINTS = {"good": 1.5, "near": 1.0001, "threshold": 1.0, "below": 0.5,
           "underflow": 30.0, "huge": 1e200}


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 6), kinds=st.lists(st.sampled_from(sorted(_POINTS)), min_size=1,
                                           max_size=6),
       seed=st.integers(0, (1 << 31) - 1), count=st.integers(1, 20))
@example(n=2, kinds=["underflow", "good", "threshold"], seed=0, count=20)
@example(n=2, kinds=["good", "threshold", "underflow"], seed=0, count=20)
@example(n=3, kinds=["near", "huge", "below"], seed=0, count=5)
def test_stacked_solve_fails_at_the_first_failing_level_set(n, kinds, seed, count):
    # the level sets before the first one solve_base refuses yield their shapes,
    # and then that one raises solve_base's error, whatever fails after it
    thr = feasibility_threshold(n)
    rho2s = [_POINTS[k] if _POINTS[k] > 2.5 else thr * _POINTS[k] for k in kinds]
    directions = draw_directions(n, count, seed)
    got, failure = _in_turn(solve_shapes(n, rho2s, directions))
    want, want_failure = _in_turn(solve_base(LevelSetSpec(n, 1.0, rho2), directions)
                                  for rho2 in rho2s)
    assert failure == want_failure
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_nan_rho2_is_not_classified():
    # nan compares false against the threshold, so it must never get that far
    with pytest.raises(ValueError, match="finite"):
        feasibility(LevelSetSpec(2, 1.0, math.nan))


def test_feasibility_trichotomy():
    thr = feasibility_threshold(2)  # 0.288937, five-digit roundings land below it
    assert feasibility(LevelSetSpec(2, 1.0, thr)) == "degenerate"
    assert feasibility(LevelSetSpec(2, 0.05, thr)) == "degenerate"  # rho1-independent
    assert feasibility(LevelSetSpec(2, 1.0, 0.5)) == "regular"
    assert feasibility(LevelSetSpec(2, 1.0, 0.1)) == "empty"
    for n in (1, 2, 3, 4):
        t = feasibility_threshold(n)
        assert feasibility(LevelSetSpec(n, 2.0, t * 1.001)) == "regular"
        assert feasibility(LevelSetSpec(n, 2.0, t * 0.999)) == "empty"


def _feasibility_by_the_statistic(n, rho2, rel_tol=1e-12):
    # the classification as written before huge rho2 was handled; its
    # statistic overflows (inf or OverflowError) above rho2 of about 1e153
    m = n + 1
    lhs = FOUR_PI2 * rho2**2 / m
    rhs = math.log(m)
    band = rel_tol * max(1.0, abs(lhs), abs(rhs))
    if lhs < rhs - band:
        return "empty"
    if lhs <= rhs + band:
        return "degenerate"
    return "regular"


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 8), data=st.data())
def test_feasibility_is_unchanged_wherever_its_statistic_is_finite(n, data):
    thr = feasibility_threshold(n)
    rho2 = data.draw(st.one_of(
        st.floats(min_value=5e-324, allow_infinity=False),
        st.floats(min_value=thr * (1 - 1e-11), max_value=thr * (1 + 1e-11)),
        st.floats(min_value=1e152, max_value=1e154)))
    try:
        statistic = FOUR_PI2 * rho2**2 / (n + 1)
    except OverflowError:
        statistic = math.inf
    expected = "regular" if statistic == math.inf else _feasibility_by_the_statistic(n, rho2)
    assert feasibility(LevelSetSpec(n, 1.0, rho2)) == expected


@pytest.mark.parametrize("rho2", [1e154, 1e200, 1e308, 1.7976931348623157e308])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_huge_rho2_is_regular_and_its_radii_underflow(n, rho2):
    # far above the threshold, where 4 pi^2 rho2^2 leaves the doubles: the
    # set is regular, and the sampler names the radii underflow
    spec = LevelSetSpec(n, 1.0, rho2)
    assert feasibility(spec) == "regular"
    line = f"base radii underflow at rho2 = {rho2:.6g}:"
    with pytest.raises(ArithmeticError, match=re.escape(line)):
        solve_base(spec, draw_directions(n, 3, 0))


def test_feasibility_k_coordinates():
    # same rule stated on (k1, k2): empty iff (-k1/pi) e^{4 pi k2/(n+1)} < n+1
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        k1 = -float(np.exp(rng.uniform(-3, 3)))
        k2 = float(rng.uniform(-2, 2))
        lhs = (-k1 / PI) * math.exp(4 * PI * k2 / (n + 1))
        try:
            rho = convert_parameters(n, k1, k2)
        except ValueError:  # rho2^2 < 0: below the threshold
            assert lhs < n + 1
            continue
        got = feasibility(LevelSetSpec(n, *rho))
        if lhs < (n + 1) * (1 - 1e-9):
            assert got == "empty"
        elif lhs > (n + 1) * (1 + 1e-9):
            assert got == "regular"


def test_sample_base_constraints_bulk():
    s = LevelSetSpec(3, 0.7, 0.9)
    pts = sample_base(s, 1000, seed=5)
    assert pts.shape == (1000, 4)
    ssq = np.sum(pts**2, axis=1)
    assert np.max(np.abs(ssq - s.rho1**2)) < 1e-10 * s.rho1**2
    logprod = np.sum(np.log(pts), axis=1)
    assert np.max(np.abs(logprod + 2 * PI * s.k2)) < 1e-10 * max(1.0, abs(2 * PI * s.k2))
    assert np.all(pts > 0)


def test_sample_base_determinism_and_stream_independence():
    s = LevelSetSpec(2, 1.0, 0.6)
    a = sample_base(s, 8, seed=11)
    b = sample_base(s, 8, seed=11)
    assert np.array_equal(a, b)
    c = sample_base(s, 20, seed=11)
    assert np.array_equal(a, c[:8])  # per-index streams: prefix property
    d = sample_base(s, 8, seed=12)
    assert not np.array_equal(a, d)


def test_sample_base_scale_covariance():
    # same seed, rho1 doubled: shapes r/rho1 must match bitwise
    lo = LevelSetSpec(2, 0.5, 0.6)
    hi = LevelSetSpec(2, 1.0, 0.6)
    a = sample_base(lo, 12, seed=3) / lo.rho1
    b = sample_base(hi, 12, seed=3) / hi.rho1
    assert np.array_equal(a, b)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 6), data=st.data(), seed=st.integers(0, (1 << 31) - 1),
       rho1=st.floats(1e-3, 1e3), count=st.integers(1, 24))
def test_sample_base_properties(n, data, seed, rho1, count):
    rho2 = data.draw(st.floats(1.0001 * feasibility_threshold(n), 4.0))
    unit = LevelSetSpec(n, 1.0, rho2)
    x = sample_base(unit, count, seed=seed)
    assert x.shape == (count, n + 1)
    assert np.all(np.isfinite(x)) and np.all(x > 0)
    # unit rho1: the rows are the shapes, on sum x^2 = 1 and sum log x = -2 pi k2
    assert np.max(np.abs(np.sum(x**2, axis=1) - 1.0)) <= 1e-12
    level = -2 * PI * unit.k2
    assert np.max(np.abs(np.sum(np.log(x), axis=1) - level)) <= 1e-12 * abs(level)
    head = data.draw(st.integers(1, count))
    assert np.array_equal(sample_base(unit, head, seed=seed), x[:head])
    # the shape depends on rho2 alone
    scaled = LevelSetSpec(n, rho1, rho2)
    assert np.array_equal(sample_base(scaled, count, seed=seed), scaled.rho1 * x)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, (1 << 63) - 1), count=st.integers(0, 12))
def test_drawn_rows_equal_fresh_per_index_draws(n, seed, count):
    # the reference draws each index from a fresh stream, in the order the
    # one-point samplers used: n values of s then n of t
    m = n + 1
    torus = [np.concatenate([rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n)])
             for rng in (fresh_stream(seed, idx, 1) for idx in range(count))]
    assert np.array_equal(draw_torus(n, count, seed), np.array(torus).reshape(count, 2 * n))
    directions = draw_directions(n, count, seed)
    if n == 1:  # the base is enumerated: nothing to draw
        assert directions.shape == (count, 0)
        return
    logw = np.array([fresh_stream(seed, idx).uniform(-3.0, 3.0, m)
                     for idx in range(count)]).reshape(count, m)
    assert np.array_equal(directions, logw - np.mean(logw, axis=1, keepdims=True))


@settings(max_examples=80, deadline=None)
@given(seed=st.one_of(st.integers(0, (1 << 32) - 1), st.integers(1 << 32, (1 << 63) - 1),
                      st.integers(-(1 << 63), -1)),
       tag=st.sampled_from([(), (1,), (11,)]),
       idx=st.lists(st.integers(0, (1 << 32) - 1), max_size=12))
def test_stream_keys_equal_seed_sequence(seed, tag, idx):
    # one array pass gives each index the key numpy's own SeedSequence
    # derives for it; seeds >= 2**32 take two entropy words, negative ones
    # enter as seed % 2**63
    idx = np.array([0, 1, (1 << 32) - 1] + idx, dtype=np.int64)
    keys = _stream_keys(seed, idx, *tag)
    ref = [np.random.SeedSequence((seed % (1 << 63), int(i), *tag)).generate_state(2, np.uint64)
           for i in idx]
    assert keys.dtype == np.uint64 and keys.shape == (len(idx), 2)
    assert np.array_equal(keys, np.array(ref))


def test_stream_keys_reject_indices_outside_one_word():
    # an index of 2**32 would take two entropy words; the key layout has one
    for idx in ([1 << 32], [0, 1 << 32], [-1]):
        with pytest.raises(ValueError, match=r"stream indices must lie in \[0, 2\*\*32\)"):
            _stream_keys(5, np.array(idx, dtype=np.int64))
    assert _stream_keys(5, np.array([], dtype=np.int64)).shape == (0, 2)


def test_stream_keys_reject_entropy_past_the_pool():
    # a two-word seed, the index and a tag fill numpy's four-word pool, as do
    # a one-word seed, the index and two tags; a fifth word would need
    # SeedSequence's extra mixing rounds, which the column pass does not run
    idx = np.arange(3)
    for seed, tag in ((1 << 40, (1,)), (5, (1, 2))):
        ref = [np.random.SeedSequence((seed, i, *tag)).generate_state(2, np.uint64) for i in idx]
        assert np.array_equal(_stream_keys(seed, idx, *tag), np.array(ref))
    for seed, tag in ((1 << 40, (1, 2)), (5, (1 << 40, 1)), (5, (1, 2, 3))):
        with pytest.raises(ValueError, match="stream entropy must fit 4 words, got 5"):
            _stream_keys(seed, idx, *tag)


_UINT64 = st.one_of(st.sampled_from([0, 1, (1 << 32) - 1, 1 << 32, (1 << 64) - 1]),
                    st.integers(0, (1 << 64) - 1))


@settings(max_examples=80, deadline=None)
@given(keys=st.lists(st.tuples(_UINT64, _UINT64), min_size=1, max_size=6),
       blocks=st.integers(1, 4))
def test_philox_words_equal_numpy_philox(keys, blocks):
    # every key word over the whole uint64 range, so each carry between the
    # 32-bit halves of a round product occurs; under errstate(all="raise"), as
    # the CLI runs with over="raise", a wrapping uint64 scalar product would raise
    keys = np.array(keys, dtype=np.uint64)
    with np.errstate(all="raise"):
        words = _philox_words(keys, blocks)
    ref = [np.random.Philox(key=k).random_raw(4 * blocks) for k in keys]
    assert words.dtype == np.uint64 and np.array_equal(words, np.array(ref))


def test_stream_rows_at_a_large_count_equal_fresh_streams():
    # 70,000 rows of two Philox blocks each, read at both ends and past 2**16
    seed = (1 << 63) + 17
    with np.errstate(all="raise"):
        rows = stream_rows(seed, 70_000, 5, -3.0, 3.0)
    for idx in (0, 1, 1 << 16, 69_999):
        assert np.array_equal(rows[idx], fresh_stream(seed, idx).uniform(-3.0, 3.0, 5))


def test_draw_torus_memory_stays_near_its_rows():
    # 100,000 rows of width 4 are 3.2 MB; the keys and the ten Philox rounds
    # over (2, N, 1) word arrays take the rest, with no per-row temporaries
    draw_torus(2, 10, 0)
    tracemalloc.start()
    try:
        draw_torus(2, 100_000, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 26e6


def test_drawn_rows_are_read_only():
    directions, torus = draw_directions(3, 6, seed=2), draw_torus(3, 6, seed=2)
    for rows in (directions, torus, draw_directions(1, 6, seed=2)):
        assert not rows.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rows[0] = 0.0
    # one draw serves every level set: the solve returns fresh radii and the
    # rows it read stay as drawn
    before = directions.copy()
    for rho1 in (1.0, 10.0):
        spec = LevelSetSpec(3, rho1, 0.7)
        assert np.array_equal(solve_base(spec, directions), sample_base(spec, 6, seed=2))
    assert np.array_equal(directions, before)


def test_sample_base_underflow_is_arithmetic_error():
    with pytest.raises(ArithmeticError, match="base radii underflow"):
        sample_base(LevelSetSpec(2, 1.0, 30.0), 3)


@pytest.mark.parametrize("n,rho2", [(1, 0.7), (1, 4.0), (2, 0.7), (2, 2.5), (4, 2.5), (4, 6.0)])
def test_log_shape_takes_the_largest_coordinate_from_the_sphere(n, rho2):
    # log x_k rounds to 0 once the other squares fall below ~1e-16 (rho2 2.5
    # at n = 2); from the sphere, u_k = log1p(-sum_{j != k} x_j^2) / 2 keeps
    # its digits, and every other coordinate keeps np.log's bits
    x = sample_base(LevelSetSpec(n, 1.0, rho2), 12, seed=3)
    u = log_shape(x)
    top = np.argmax(x, axis=1)
    rest = np.ones(x.shape, dtype=bool)
    rest[np.arange(len(x)), top] = False
    assert np.array_equal(u[rest], np.log(x)[rest])
    with mpmath.workdps(50):
        for row, k, got in zip(x, top, u[~rest]):
            others = mpmath.fsum(mpmath.mpf(float(v)) ** 2 for j, v in enumerate(row) if j != k)
            want = mpmath.log1p(-others) / 2
            assert got < 0 and abs(got - want) <= 4e-16 * abs(want)


def test_sample_base_n1_enumeration():
    s = LevelSetSpec(1, 2.0, 0.8)
    pts = sample_base(s, 6, seed=0)
    assert pts.shape == (6, 2)
    # exactly two distinct solutions, swapped coordinates, cycled
    assert np.array_equal(pts[0], pts[2])
    assert np.array_equal(pts[1], [pts[0][1], pts[0][0]])
    assert abs(pts[0] @ pts[0] - s.rho1**2) < 1e-12 * s.rho1**2
    prod_target = math.exp(-2 * PI * s.k2)
    assert abs(pts[0][0] * pts[0][1] - prod_target) < 1e-12 * prod_target
    assert pts[0][0] != pts[0][1]
    # the pair is (sqrt(t+), sqrt(t-)), t- < t+ = 1 - t- the roots of
    # t (1 - t) = c: both within 4 eps of a 50-digit root, from next to the
    # threshold, where t- and t+ nearly meet, to where sqrt(t-) is subnormal
    thr = feasibility_threshold(1)
    for rho2 in (1.0001 * thr, 1.01 * thr, 1.88, 4.0, 5.7, 6.0):
        hi, lo = sample_base(LevelSetSpec(1, 1.0, rho2), 1)[0]
        with mpmath.workdps(50):
            want = mpmath.sin(divisor_offsets_mp(1, rho2)[0])
            for got, root in ((lo, want), (hi, mpmath.sqrt(1 - want * want))):
                assert abs(got - root) <= 4 * np.finfo(float).eps * root, rho2


def test_sample_base_rejects_nonregular():
    # the one regularity check, with the threshold the CLI prints
    with pytest.raises(EmptyLevelSet, match=r"classified 'empty' \(threshold 0.288937\)"):
        sample_base(LevelSetSpec(2, 1.0, 0.1), 3)
    with pytest.raises(EmptyLevelSet, match=r"classified 'degenerate' \(threshold 0.288937\)"):
        sample_base(LevelSetSpec(2, 1.0, feasibility_threshold(2)), 3)


def test_sample_base_threshold_concentration():
    thr2 = feasibility_threshold(2) ** 2
    dists = []
    for eps in (1e-4, 1e-6):
        s = LevelSetSpec(2, 1.0, math.sqrt(thr2 + eps))
        pts = sample_base(s, 40, seed=2)
        center = s.rho1 / math.sqrt(3.0)
        assert np.max(np.abs(pts - center)) < 6.0 * math.sqrt(eps)
        diff = pts[:, None, :] - pts[None, :, :]
        dists.append(np.max(np.linalg.norm(diff, axis=-1)))
    # pairwise spread shrinks like sqrt(eps): factor 10 per 100x in eps
    ratio = dists[0] / dists[1]
    assert 4.0 < ratio < 25.0


def test_sampled_points_hit_level_set():
    for n, rho2 in ((2, 0.5), (3, 0.8)):
        s = LevelSetSpec(n, 1.1, rho2)
        mu1, mu2 = moment_map(sample_base(s, 50, seed=9))
        assert np.all(np.abs(mu1 - s.k1) < 1e-9 * abs(s.k1))
        assert np.all(np.abs(mu2 - s.k2) < 1e-9 * max(1.0, abs(s.k2)))


def test_tangent_frame_shape_and_orthogonality():
    s = LevelSetSpec(2, 1.0, 0.6)
    st = induced_structure(sample_base(s, 3, seed=4))
    for stack in st:
        assert stack.shape == (3, 5, 5)  # 3(n-1)+2 = 5 tangent directions
    # g-orthonormal but for |w|, which omegaD(z, w) = 1 fixes
    off = st.g - np.eye(5)
    off[:, 4, 4] = 0.0
    assert np.max(np.abs(off)) < 1e-12
    assert np.all(st.g[:, 4, 4] > 1.0)


def test_tangent_frame_n1_degenerate_pair_only():
    s = LevelSetSpec(1, 1.0, 0.7)
    st = induced_structure(sample_base(s, 2, seed=1))
    assert st.g.shape == (2, 2, 2)
    # no radial directions: omega1 and omega2 vanish, z and w sit in different blocks
    assert np.all(st.omega1 == 0.0) and np.all(st.omega2 == 0.0)
    assert np.all(st.g[:, 0, 1] == 0.0)
    assert np.max(np.abs(st.g[:, 0, 0] - 1.0)) < 1e-15
    assert np.max(np.abs(st.omegaD[:, 0, 1] - 1.0)) < 1e-15


def test_tangent_frame_near_degenerate_guard():
    s = LevelSetSpec(2, 1.0, 0.6)
    r = s.rho1 / math.sqrt(3.0)
    good = sample_base(s, 2, seed=0)
    with pytest.raises(ArithmeticError, match="ill conditioned"):
        induced_structure(np.vstack([good, [r, r, r]]))


def test_induced_structure_blocks():
    s = LevelSetSpec(2, 1.0, 0.55)
    st = induced_structure(sample_base(s, 1, seed=7))
    # omega1 on span(v, u1) is the unit pairing, omegaD pairs u1 with w2 and z with w
    assert abs(st.omega1[0, 0, 1] - 1.0) < 1e-9
    assert abs(st.omegaD[0, 1, 2] - 1.0) < 1e-9
    assert abs(st.omegaD[0, 3, 4] - 1.0) < 1e-12
    assert abs(st.g[0, 3, 3] - 1.0) < 1e-12  # z normalized
    rep = verify_wsd_axioms(st, tol=1e-8)
    assert rep.passed.tolist() == [True]
    assert rep.kernel_dim.tolist() == [2]


def test_induced_structure_bulk_axioms():
    for n, rho2 in ((2, 0.5), (3, 0.75)):
        rep = verify_wsd_axioms(induced_structure(sample_base(LevelSetSpec(n, 1.0, rho2), 25, seed=13)),
                                tol=1e-8)
        assert np.all(rep.passed), (n, rep.residuals)
        assert np.all(rep.kernel_dim == 2)
        assert np.max(rep.worst) < 1e-8


def _reference_frame(r, rng):
    """The frame and restricted tensors at radii r from dense ambient
    matrices, the radial directions completed by Gram-Schmidt on random draws."""
    n = len(r) - 1
    m, mf = n + 1, n - 1
    v = np.linalg.qr(np.column_stack([r, 1.0 / r, rng.standard_normal((m, mf))]))[0][:, 2:]
    t = dense_tensors(r)
    g = t["g"]
    x1, x2, y1, y2 = (np.zeros(3 * m) for _ in range(4))
    x1[:m], x2[:m] = 1.0, np.diag(g)[2 * m:]
    y1[2 * m:], y2[2 * m:] = 1.0, np.diag(g)[:m]
    z = x1 - (x1 @ g @ x2) / (x2 @ g @ x2) * x2
    w = y1 - (y1 @ g @ y2) / (y2 @ g @ y2) * y2
    z_norm = math.sqrt(z @ g @ z)
    cols = np.zeros((3 * m, 3 * mf + 2))
    cols[m:2 * m, :mf] = v
    cols[:m, mf:2 * mf] = v / (2 * PI * r[:, None])
    cols[2 * m:, 2 * mf:3 * mf] = v * (2 * PI * r[:, None])
    cols[:, -2] = z / z_norm
    cols[:, -1] = w * z_norm / (z @ t["omegaD"] @ w)
    return cols, {name: cols.T @ mat @ cols for name, mat in t.items()}


def test_restricted_singular_values_invariant_under_v_basis_change():
    # random completions of the radial directions give other frames, but
    # restricted tensors with the singular values of the QR frame's
    rng = np.random.default_rng(21)
    for n, rho2 in ((2, 0.6), (3, 0.8), (4, 1.0), (6, 1.2)):
        r = sample_base(LevelSetSpec(n, 1.0, rho2), 3, seed=21)
        st = induced_structure(r)
        for i in range(len(r)):
            (fa, ta), (fb, tb) = (_reference_frame(r[i], rng) for _ in range(2))
            if n > 2:
                assert not np.allclose(fa, fb)
            for name in ("g", "omega1", "omega2", "omegaD"):
                va = np.linalg.svd(getattr(st, name)[i], compute_uv=False)
                for ref in (ta, tb):
                    vb = np.linalg.svd(ref[name], compute_uv=False)
                    assert np.max(np.abs(va - vb) / np.maximum(1.0, va)) < 1e-9


def _antisym_nudge(stack, i, j, amount):
    out = stack.copy()
    out[:, i, j] += amount
    out[:, j, i] -= amount
    return out


@pytest.mark.parametrize("n", [2, 3])
def test_negative_control_frame_orthogonality(n):
    st = induced_structure(sample_base(LevelSetSpec(n, 1.0, 0.5), 6, seed=3))
    assert np.all(verify_wsd_axioms(st).passed)
    g = st.g.copy()
    g[:, 0, 1] += 1e-6
    g[:, 1, 0] += 1e-6
    rep = verify_wsd_axioms(st._replace(g=g))
    assert not np.any(rep.passed)
    assert np.all(rep.residuals["frame_orthogonality"] >= 1e-6 * (1 - 1e-9))


def test_axiom_verifier_detects_corruption():
    # one negative control per block shape: each form's own residual flags it
    st = induced_structure(sample_base(LevelSetSpec(2, 1.0, 0.5), 6, seed=3))
    for name in ("omega1", "omega2", "omegaD"):
        bad = st._replace(**{name: _antisym_nudge(getattr(st, name), 0, 1, 1e-3)})
        rep = verify_wsd_axioms(bad, tol=1e-8)
        assert not np.any(rep.passed)
        assert np.all(np.abs(rep.residuals[f"{name}_block"] - 1e-3) < 1e-6)
        others = [k for k in rep.residuals if k not in (f"{name}_block", "frame_orthogonality")]
        assert all(np.all(rep.residuals[k] < 1e-8) for k in others)


@pytest.mark.parametrize("n", [2, 3])
def test_negative_control_kernel_dimension(n):
    # pairing z with w in omega1 and omega2 removes the degenerate plane from
    # their common kernel; a loose tol leaves the kernel test alone to fail
    st = induced_structure(sample_base(LevelSetSpec(n, 1.0, 0.5), 6, seed=3))
    d = st.g.shape[1]
    bad = st._replace(omega1=_antisym_nudge(st.omega1, d - 2, d - 1, 1.0),
                      omega2=_antisym_nudge(st.omega2, d - 2, d - 1, 1.0))
    rep = verify_wsd_axioms(bad, tol=10.0)
    assert np.all(rep.kernel_dim == 0)
    assert not np.any(rep.passed)
    assert np.all(verify_wsd_axioms(st, tol=10.0).passed)


@pytest.mark.parametrize("n", [2, 3])
def test_negative_control_omega_d_conditioning(n):
    # removing the z-w pairing leaves omegaD degenerate on ker omega1 + ker omega2
    st = induced_structure(sample_base(LevelSetSpec(n, 1.0, 0.5), 6, seed=3))
    d = st.g.shape[1]
    omega_d = st.omegaD.copy()
    omega_d[:, d - 2, d - 1] = omega_d[:, d - 1, d - 2] = 0.0
    rep = verify_wsd_axioms(st._replace(omegaD=omega_d), tol=10.0)
    assert np.all(rep.kernel_dim == 2)
    assert np.all(rep.omega_d_restricted_conditioning < 1e-9)
    assert not np.any(rep.passed)
    assert np.all(verify_wsd_axioms(st).omega_d_restricted_conditioning > 0.9)


def test_axiom_pass_is_strict_at_tol():
    # a row passes at worst < tol, the CLI's rule, so the worst row fails at
    # a tol equal to its own residual
    stacks = induced_structure(sample_base(LevelSetSpec(2, 1.0, 0.5), 6, seed=3))
    rep = verify_wsd_axioms(stacks)
    top = float(np.max(rep.worst))
    at_top = verify_wsd_axioms(stacks, tol=top)
    assert not at_top.passed[np.argmax(rep.worst)]
    assert np.array_equal(at_top.passed, rep.worst < top)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 6), count=st.integers(1, 6), seed=st.integers(0, (1 << 32) - 1),
       tol=st.sampled_from([1e-8, 10.0]))
def test_certificate_agrees_with_the_svd_oracle(n, count, seed, tol):
    # canonical blocks plus antisymmetric errors whose largest entry is
    # log-uniform in [1e-17, 1], one size per row: the certified rows get the
    # SVDs' kernel_dim and verdict, and a conditioning at or below theirs
    rng = np.random.default_rng(seed)
    d = 3 * (n - 1) + 2
    size = 10.0 ** rng.uniform(-17.0, 0.0, count)
    forms = []
    for canon in _canonical_blocks(n - 1):
        e = rng.standard_normal((count, d, d))
        e -= np.swapaxes(e, 1, 2)
        forms.append(canon + e * (size / np.max(np.abs(e), axis=(1, 2)))[:, None, None])
    stacks = InducedStructure(np.broadcast_to(np.eye(d), (count, d, d)), *forms)
    rep = verify_wsd_axioms(stacks, tol=tol)
    kernel_dim, conditioning = _svd_checks(*forms)
    certified, _ = _certificate(_block_eps(stacks), d)
    assert np.array_equal(rep.kernel_dim, kernel_dim)
    assert np.array_equal(rep.passed, (rep.worst < tol) & (kernel_dim == 2) & (conditioning > 1e-9))
    got = rep.omega_d_restricted_conditioning
    assert np.all(got[certified] <= conditioning[certified])
    assert np.array_equal(got[~certified], conditioning[~certified])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rows_are_never_certified(bad):
    stacks = induced_structure(sample_base(LevelSetSpec(2, 1.0, 0.5), 3, seed=3))
    omega1 = stacks.omega1.copy()
    omega1[1, 0, 1], omega1[1, 1, 0] = bad, -bad
    stacks = stacks._replace(omega1=omega1)
    certified, _ = _certificate(_block_eps(stacks), stacks.g.shape[1])
    assert certified.tolist() == [True, False, True]
    if np.isnan(bad):
        # the row is refused before the SVDs, which would raise on it; an
        # infinite one is checked in a subprocess (test_cli), as the SVD
        # need not return on it
        with pytest.raises(ArithmeticError, match="non-finite form entry in row 1"):
            verify_wsd_axioms(stacks)


# the closed forms fall to 1e-25 and below at n = 2, rho2 = 2.5, so a
# residual floored at 1 there would pass any pairing
@pytest.mark.parametrize("n,rho2", [(2, 0.5), (3, 0.5), (2, 2.5)])
def test_negative_control_aij_consistency(n, rho2):
    blk = omega_d_degenerate_block(sample_base(LevelSetSpec(n, 1.0, rho2), 20, seed=0))
    assert np.max(blk.aij_residual) < 1e-14
    # the a11 and a22 entries, (n+1)/((n+1)^2 - P), are the ones that vanish at depth
    bad = blk._replace(a_solve=blk.a_solve * [1 + 1e-6, 1, 1, 1 + 1e-6])
    assert np.all(bad.aij_residual > 1e-10)


@pytest.mark.parametrize("n,rho2", [(2, 0.5), (3, 0.5), (2, 2.5)])
def test_negative_control_restricted_norm(n, rho2):
    blk = omega_d_degenerate_block(sample_base(LevelSetSpec(n, 1.0, rho2), 20, seed=0))
    assert np.max(blk.norm_residual) < 1e-14
    bad = blk._replace(pairing=blk.pairing * (1 + 1e-6))
    assert np.all(bad.norm_residual > 1e-9)


def _block_eps(stacks):
    """Per row, the largest of the three block residuals."""
    canon = _canonical_blocks((stacks.g.shape[1] - 2) // 3)
    return np.max([np.max(np.abs(f - c), axis=(1, 2))
                   for f, c in zip(stacks[1:], canon)], axis=0)


# a batch at n = 2, rho2 = 1.2 whose rows the certificate partly settles
_MIXED = {"spec": (2, 1.2), "seed": 0, "count": 8}


def test_pinned_batch_mixes_certified_and_svd_rows():
    n, rho2 = _MIXED["spec"]
    stacks = induced_structure(sample_base(LevelSetSpec(n, 1.0, rho2), _MIXED["count"],
                                           seed=_MIXED["seed"]))
    certified, _ = _certificate(_block_eps(stacks), stacks.g.shape[1])
    assert 0 < np.sum(certified) < len(certified)


@settings(max_examples=60, deadline=None)
@given(spec=st.integers(1, 6).flatmap(
           lambda n: st.tuples(st.just(n), st.floats(1.01 * feasibility_threshold(n), 2.5))),
       seed=st.integers(0, (1 << 31) - 1), count=st.integers(1, 8))
@example(**_MIXED)
def test_rows_equal_single_row_calls(spec, seed, count):
    # deep rho2 included: there the kernel dimensions differ between samples,
    # and a batch holds rows the certificate settles next to rows it does not
    n, rho2 = spec
    r = sample_base(LevelSetSpec(n, 1.0, rho2), count, seed=seed)
    stacks = induced_structure(r)
    rep = verify_wsd_axioms(stacks)
    blk = omega_d_degenerate_block(r)
    for i in range(count):
        one = induced_structure(r[i:i + 1])
        for a, b in zip(stacks, one):
            assert np.array_equal(a[i:i + 1], b)
        rep1 = verify_wsd_axioms(one)
        for name, res in rep.residuals.items():
            assert np.array_equal(res[i:i + 1], rep1.residuals[name])
        assert np.array_equal(rep.kernel_dim[i:i + 1], rep1.kernel_dim)
        assert np.array_equal(rep.omega_d_restricted_conditioning[i:i + 1],
                              rep1.omega_d_restricted_conditioning)
        assert np.array_equal(rep.passed[i:i + 1], rep1.passed)
        blk1 = omega_d_degenerate_block(r[i:i + 1])
        for a, b in zip(blk, blk1):
            assert np.array_equal(a[i:i + 1], b)


def test_degenerate_block_hand_values():
    # base point r = (1, 2): A = 20 pi^2, B = 5/(16 pi^2), P = 6.25, s = 4
    blk = omega_d_degenerate_block(np.array([[1.0, 2.0]]))
    assert abs(blk.pairing[0] + 0.72) < 1e-12
    assert abs(blk.pairing_closed[0] + 0.72) < 1e-12
    assert abs(blk.pairing_quoted[0] - 0.32) < 1e-12
    assert abs(blk.restricted_norm[0] - 2.0 / 2.25) < 1e-12
    p_val = 6.25
    denom = 4.0 - p_val
    assert abs(blk.a_closed[0, 0] - 2.0 / denom) < 1e-12
    assert abs(blk.a_closed[0, 1] + (5.0 / (16 * PI**2)) / denom) < 1e-12
    assert abs(blk.a_closed[0, 2] + 20.0 * PI**2 / denom) < 1e-12


def test_degenerate_block_code_path_agreement():
    rng = np.random.default_rng(29)
    for _ in range(60):
        n = int(rng.integers(1, 5))
        r = np.exp(rng.uniform(-1.2, 1.2, (1, n + 1)))
        blk = omega_d_degenerate_block(r)
        scale = max(abs(blk.pairing[0]), 1e-12)
        assert abs(blk.pairing[0] - blk.pairing_closed[0]) < 1e-10 * scale
        assert np.all(np.abs(blk.a_solve - blk.a_closed) < 1e-10 * np.abs(blk.a_closed))
        assert blk.norm_residual[0] < 1e-9
        assert blk.pairing[0] < 0 < blk.pairing_quoted[0]  # direct value sits on the other side
        # Cauchy-Schwarz: P > (n+1)^2 off the equal-radii locus
        assert blk.restricted_norm_closed[0] > 0
        assert blk.norm2_Z[0] * blk.norm2_W[0] > 0


@st.composite
def _radii_near_the_largest_product(draw):
    """Radii r (N, m) with P = sum r^2 sum 1/r^2 = |X1|^2 |X2|^2 in [max/100,
    max), max the largest double: each row is e^{lam u}, u spanning [-1, 1],
    and lam solved by bisection on log P = logsumexp(2 lam u) +
    logsumexp(-2 lam u), which rises in lam (P = sum_ij cosh(2 lam (u_i - u_j)))."""
    m = draw(st.integers(2, 7))
    top = math.log(np.finfo(float).max)
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        u = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m)))
        u[:2] = -1.0, 1.0  # the span; the other coordinates lie between
        u = u[np.argsort(draw(st.permutations(range(m))))]
        target = draw(st.floats(top - math.log(100.0) + 1e-9, top - 1e-9))

        def log_p(lam):
            return float(np.logaddexp.reduce(2 * lam * u) + np.logaddexp.reduce(-2 * lam * u))
        lo, hi = 0.0, top
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if log_p(mid) < target else (lo, mid)
        rows.append(np.exp(lo * u))
    return np.array(rows)


# 100 examples, about 0.6 s
@settings(max_examples=100, deadline=None)
@given(r=_radii_near_the_largest_product())
def test_degenerate_block_stays_finite_near_the_largest_product(r):
    # P within a factor 100 of the largest double: the closed pairing
    # m (m^2 - P) / P divides before it multiplies, so no float overflows
    # where the CLI raises on one, and it is ~ -m as P / m^2 is huge
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        blk = omega_d_degenerate_block(r)
        norm = blk.restricted_norm
        residuals = blk.aij_residual, blk.norm_residual
    m = r.shape[1]
    big_p = m / blk.pairing_quoted
    assert np.all(big_p >= np.finfo(float).max / 101)
    assert np.allclose(blk.pairing_closed, -m, rtol=1e-12, atol=0)
    for arr in (norm, *residuals, *blk):
        assert np.all(np.isfinite(arr))


def test_degenerate_block_guard():
    with pytest.raises(ArithmeticError, match="ill conditioned"):
        omega_d_degenerate_block(np.array([[1.0, 1.0, 1.0]]))
