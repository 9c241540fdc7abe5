import random
import tracemalloc
from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rlcc import composed, ctrw, geometry as geo, rm
from rlcc.pcpp import PcppParams
from rlcc.stats import chi_square_pvalue
from rlcc.gf import Field, LaneLayout

from reference import (
    add_ref,
    colinear_ref,
    line_points,
    mul_ref,
    plane_point_ref,
    plane_points,
    pow_ref,
    scale_point_ref,
    sub_ref,
)


def t2_layout(ctx):
    """Composed layout over GF(8) = GF(2)^3, whose keys hold GF(8)^3 planes."""
    return composed.ComposedLayout(rm.RmParams(ctx, 3, 1), PcppParams(4))


def brute_line_set(ctx, anchor, direction):
    # independent of line_points' position bookkeeping
    out = set()
    for t in range(ctx.n):
        out.add(tuple(ctx.add(a, ctx.mul(t, d)) for a, d in zip(anchor, direction)))
    return out


def test_axis_line_order(gf4):
    assert line_points(gf4, (0, 0), (1, 0)) == [(0, 0), (1, 0), (2, 0), (3, 0)]


def test_line_position_zero_is_anchor(gf8, rng):
    for _ in range(50):
        anchor = geo.sample_point(gf8, rng)
        direction = geo.sample_point(gf8, rng)
        if geo.is_zero(direction):
            continue
        assert line_points(gf8, anchor, direction)[0] == anchor


def test_all_gf4_squared_lines_distinct_and_complete():
    ctx = Field(2, 2)
    reps = 0
    for anchor in product(range(4), repeat=2):
        for direction in product(range(4), repeat=2):
            if geo.is_zero(direction):
                continue
            reps += 1
            pts = line_points(ctx, anchor, direction)
            assert len(pts) == 4
            assert len(set(pts)) == 4
            assert set(pts) == brute_line_set(ctx, anchor, direction)
    assert reps == 240


def test_zero_direction_rejected(gf4):
    with pytest.raises(ValueError):
        line_points(gf4, (0, 0), (0, 0))
    with pytest.raises(ValueError):
        geo.PlaneRep.make(gf4, (0, 0), (1, 0), (2, 0))  # dependent directions


def test_colinearity_reads_every_coordinate(gf4, gf8):
    # dimension 3 over GF(2^2), and dimension 2 over GF(2^3): vector
    # lengths other than the field's m
    assert not geo.is_colinear(gf4, (1, 0, 0), (1, 0, 1))
    plane = geo.PlaneRep.make(gf4, (0, 0, 0), (1, 0, 0), (1, 0, 1))
    assert plane.dir2 == (1, 0, 1)
    assert geo.is_colinear(gf4, (1, 0, 1), (2, 0, 2))
    assert not geo.is_colinear(gf8, (1, 0), (0, 1))
    assert geo.is_colinear(gf8, (1, 2), (2, gf8.mul(2, 2)))


def test_plane_grid_gf4_cubed():
    ctx = Field(2, 2)  # points live in F^2 here; use a 3-dim field for e1,e2
    ctx3 = Field(2, 3)
    plane = geo.PlaneRep.make(ctx3, (0, 0, 0), (1, 0, 0), (0, 1, 0))
    pts = plane_points(ctx3, plane)
    assert len(pts) == ctx3.n**2
    assert pts[0] == (0, 0, 0)
    assert all(p[2] == 0 for p in pts)
    assert len(set(pts)) == ctx3.n**2


def test_plane_points_distinct_random(gf8, rng):
    for _ in range(100):
        anchor = geo.sample_point(gf8, rng)
        d1 = geo.sample_point(gf8, rng)
        d2 = geo.sample_point(gf8, rng)
        if geo.is_zero(d1) or geo.is_zero(d2) or geo.is_colinear(gf8, d1, d2):
            continue
        plane = geo.PlaneRep.make(gf8, anchor, d1, d2)
        pts = plane_points(gf8, plane)
        assert len(set(pts)) == gf8.n**2
        # anchor line shows up as column k = 0
        line = line_points(gf8, plane.anchor, plane.dir1)
        assert [pts[t * gf8.n] for t in range(gf8.n)] == line


def test_plane_matches_bruteforce_tiny():
    ctx = Field(2, 2)
    plane = geo.PlaneRep.make(ctx, (1, 2), (1, 0), (0, 1))
    expected = {
        tuple(
            ctx.add(a, ctx.add(ctx.mul(t, d1), ctx.mul(s, d2)))
            for a, d1, d2 in zip((1, 2), (1, 0), (0, 1))
        )
        for t in range(4)
        for s in range(4)
    }
    assert set(plane_points(ctx, plane)) == expected


# one Field per (p, m): GF(17^4) takes about a second to tabulate
_field = lru_cache(maxsize=None)(Field)


# GF(13^4) and GF(2^10) read a lane sum in two fields; the references
# work on digit vectors and share no code with the log tables
@settings(derandomize=True, max_examples=35, deadline=None)
@given(
    st.sampled_from([(2, 2), (2, 3), (3, 3), (17, 3), (13, 4), (2, 10)]),
    st.integers(0, 2**32),
)
def test_scalar_arithmetic_matches_digit_references(pm, seed):
    ctx = _field(*pm)
    r = random.Random(seed)
    elements = [0, 1, ctx.p - 1, ctx.n - 1] + [r.randrange(ctx.n) for _ in range(4)]
    for a, b in product(elements, repeat=2):
        assert ctx.add(a, b) == add_ref(ctx, a, b)
        assert ctx.sub(a, b) == sub_ref(ctx, a, b)
        assert ctx.mul(a, b) == mul_ref(ctx, a, b)
    # exponents past the multiplicative order n - 1 wrap around it
    exponents = (0, 1, 2, ctx.n - 2, ctx.n - 1, r.randrange(2 * ctx.n))
    for a in elements:
        if a:
            assert mul_ref(ctx, a, ctx.inv(a)) == 1
        for e in exponents:
            assert ctx.pow(a, e) == pow_ref(ctx, a, e)

    def point(dim):
        # each coordinate zero with probability 1/3
        return tuple(r.randrange(ctx.n) if r.randrange(3) else 0 for _ in range(dim))

    for dim in (2, 3, ctx.m):
        a, u, v = (point(dim) for _ in range(3))
        zero = (0,) * dim
        plane = geo.PlaneRep(a, u, v)
        for j, k in product((0, 1, r.randrange(ctx.n)), repeat=2):
            assert geo.plane_point_at(ctx, plane, j, k) == plane_point_ref(ctx, plane, j, k)
        if geo.is_zero(u):
            u = (1,) + u[1:]
        lam = r.randrange(1, ctx.n)
        # a multiple, a multiple moved in one coordinate, one with a zero
        # where u has none or the reverse, v, and the zero vector
        scaled = scale_point_ref(ctx, lam, u)
        moved = (add_ref(ctx, scaled[0], 1),) + scaled[1:]
        flipped = scaled[:-1] + (0 if u[-1] else 1,)
        for other in (scaled, moved, flipped, v, zero):
            assert geo.is_colinear(ctx, u, other) == colinear_ref(ctx, u, other)
        assert geo.is_colinear(ctx, u, scaled)
        with pytest.raises(ValueError):
            geo.is_colinear(ctx, zero, u)


# (2, 10), (17, 4) and (31, 3) reduce their lanes in two groups; GF(31^3)
# and GF(17^4) have radix 91 and 49
@settings(derandomize=True, max_examples=24, deadline=None)
@given(
    st.sampled_from([(2, 2), (2, 3), (3, 3), (17, 3), (2, 10), (3, 5), (17, 4), (31, 3)]),
    st.integers(0, 2**32),
)
def test_points_at_matches_scalar_points(pm, seed):
    ctx = _field(*pm)
    r = random.Random(seed)
    while True:
        d1, d2 = geo.sample_point(ctx, r), geo.sample_point(ctx, r)
        if not (geo.is_zero(d1) or geo.is_zero(d2) or geo.is_colinear(ctx, d1, d2)):
            break
    # a zero coordinate in each direction reads the log(0) tail
    d1 = d1[:-1] + (0,) if any(d1[:-1]) else d1
    d2 = (0,) + d2[1:] if any(d2[1:]) else d2
    plane = geo.PlaneRep(geo.sample_point(ctx, r), d1, d2)
    # plane positions (jj, kk), zero parameters among them
    jj = np.array([[0, r.randrange(ctx.n)], [r.randrange(ctx.n), ctx.n - 1], [0, 1]])
    kk = np.array([[0, 0], [r.randrange(ctx.n), r.randrange(ctx.n)], [r.randrange(ctx.n), 0]])
    coords = geo.points_at(ctx, plane.anchor, (d1, d2), (jj, kk))
    assert coords.shape == (ctx.m, 3, 2)
    # int64 point codes exist only while n^m < 2^63: not in GF(2^10)^10
    # or GF(17^4)^4
    has_codes = ctx.n**ctx.m < 2**63
    codes = geo.plane_codes_at(ctx, plane, jj, kk)
    for idx in np.ndindex(jj.shape):
        pt = plane_point_ref(ctx, plane, int(jj[idx]), int(kk[idx]))
        assert tuple(coords[(slice(None),) + idx].tolist()) == pt
        assert codes[idx] == geo.point_code(ctx, pt) or not has_codes
    # one direction: a whole line in position order, in fields up to
    # S1's; the lines below check larger ones at chosen positions
    if ctx.n <= 17**3:
        coords = geo.points_at(ctx, plane.anchor, (d1,), (np.arange(ctx.n),))
        pts = line_points(ctx, plane.anchor, d1)
        assert [tuple(c) for c in coords.T.tolist()] == pts
        want = [geo.point_code(ctx, p) for p in pts]
        assert geo.codes_of(ctx, coords).tolist() == want or not has_codes
    # one direction per line with array anchors, shaped (m, lines, 1)
    # against positions as line_sampling_exp passes them; the last line
    # starts at the origin
    lines = [(geo.sample_point(ctx, r), geo.sample_point(ctx, r)) for _ in range(3)]
    lines[-1] = ((0,) * ctx.m, lines[-1][1])
    xs, ys = (np.array(a).T[:, :, None] for a in zip(*lines))
    ts = np.array([0, 1, r.randrange(ctx.n), ctx.n - 1])
    coords = geo.points_at(ctx, xs, (ys,), (ts,))
    assert coords.shape == (ctx.m, 3, 4)
    for line_idx, (x, y) in enumerate(lines):
        for t_idx, t in enumerate(ts.tolist()):
            pt = plane_point_ref(ctx, geo.PlaneRep(x, y, y), t, 0)
            assert tuple(coords[:, line_idx, t_idx].tolist()) == pt
    # array anchors and directions, one (d+1) x (d+1) subgrid per key;
    # degenerate direction pairs are allowed here
    keys = [tuple(geo.sample_point(ctx, r) for _ in range(3)) for _ in range(5)]
    keys[0] = (keys[0][0], (0,) * ctx.m, keys[0][2])
    anchors, us, vs = (np.array(a).T[:, :, None, None] for a in zip(*keys))
    js = np.arange(3)
    coords = geo.points_at(ctx, anchors, (us, vs), (js[:, None], js))
    assert coords.shape == (ctx.m, 5, 3, 3)
    for key_idx, (a, u, v) in enumerate(keys):
        for j, k in product(range(3), repeat=2):
            pt = plane_point_ref(ctx, geo.PlaneRep(a, u, v), j, k)
            assert tuple(coords[:, key_idx, j, k].tolist()) == pt


# (p, m, dim): one word of three one-field coordinates at S1's GF(17^3);
# GF(31^3) (two fields a coordinate, two coordinates a word), GF(3^5)
# (one field, four a word), and GF(17^4), S2's GF(13^4) (two fields, two
# coordinates a word) and GF(2^10) (two fields, three a word) span two
# words.  dim keeps n^dim below 2^63, so codes are exact
PACKED_CASES = [
    (2, 3, 3), (17, 3, 3), (31, 3, 3), (3, 5, 5), (17, 4, 3), (2, 10, 6), (13, 4, 4),
]


@pytest.mark.parametrize("case", PACKED_CASES)
def test_plane_codes_at_matches_scalar_codes(case):
    p, m, dim = case
    ctx = _field(p, m)
    r = random.Random(100 * p + 10 * m + dim)

    def point():
        return tuple(r.randrange(1, ctx.n) for _ in range(dim))

    # a zero coordinate in the anchor and in each direction
    anchor, d1, d2 = point(), point(), point()
    plane = geo.PlaneRep(anchor[:1] + (0,) + anchor[2:], (0,) + d1[1:], d2[:-1] + (0,))

    def scalar_codes(jj, kk):
        jj, kk = np.broadcast_arrays(jj, kk)
        return [
            geo.point_code(ctx, plane_point_ref(ctx, plane, j, k))
            for j, k in zip(jj.flat, kk.flat)
        ]

    # a whole grid in small fields, else a grid over sampled parameters
    # with 0 and n - 1 among them
    if ctx.n <= 27:
        js = np.arange(ctx.n)
    else:
        js = np.array([0, ctx.n - 1] + r.sample(range(1, ctx.n - 1), 14))
    grid = geo.plane_codes_at(ctx, plane, js[:, None], js)
    assert grid.shape == (len(js), len(js))
    grid = grid.copy()
    # the anchor line, with scalar kk = 0, right after the grid call
    line = geo.plane_codes_at(ctx, plane, js, 0)
    assert line.tolist() == scalar_codes(js, 0)
    assert grid.reshape(-1).tolist() == scalar_codes(js[:, None], js)
    jj, kk = (np.array([r.randrange(ctx.n) for _ in range(40)]) for _ in range(2))
    codes = geo.plane_codes_at(ctx, plane, jj, kk)
    assert codes.tolist() == scalar_codes(jj, kk)


def test_s1_plane_codes_reuse_their_scratch():
    # a warmed S1 call over 20,000 sampled positions, and the density
    # mask of its codes, each allocate less than 64 KB; with fresh
    # 160 KB temporaries a soundness trial took about 890 page faults
    ctx = _field(17, 3)
    r = random.Random(20)
    plane = geo.PlaneRep.make(
        ctx, geo.sample_point(ctx, r), geo.sample_point(ctx, r), (1, 0, 1)
    )
    jj, kk = np.random.default_rng(20).integers(0, ctx.n, size=(2, 20_000))
    corruption = ctrw.PointCorruption(rm.RmParams(ctx, 3, 32), seed=20, density=0.1)
    codes = geo.plane_codes_at(ctx, plane, jj, kk).copy()
    corruption.corrupt_mask(codes)
    for step in (
        lambda: geo.plane_codes_at(ctx, plane, jj, kk),
        lambda: corruption.corrupt_mask(codes),
    ):
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


def test_points_at_takes_at_most_two_directions(gf8):
    with pytest.raises(ValueError, match="at most two"):
        geo.points_at(gf8, (1, 2, 3), ((1, 0, 0),) * 3, (1, 2, 3))


def test_lane_tables_stay_small():
    # points_at's lanes are split into fields of at most 2^17 reduce
    # entries, so no field of a sweep over m = 2..6 allocates a huge table
    for ctx in (_field(17, 3), _field(17, 4), _field(2, 12)):
        lanes = LaneLayout(ctx, 3 * (ctx.p - 1))
        log, table = lanes.zero_ended(2)
        assert len(lanes.reduce) <= 1 << 17
        assert log.nbytes + table.nbytes + lanes.reduce.nbytes <= 1 << 20


def test_sample_h_direction_support(gf4, rng):
    seen = set()
    for _ in range(200):
        v = geo.sample_h_direction(gf4, rng)
        assert all(c in (0, 1) for c in v)
        assert not geo.is_zero(v)
        seen.add(v)
    assert len(seen) == 3  # every nonzero H^2 vector shows up


def test_sample_h_direction_chi_square_uniformity():
    # 15 cells: the nonzero H^m vectors at p=2, m=4
    ctx = Field(2, 4)
    rng = random.Random(99)
    counts = {}
    draws = 100_000
    for _ in range(draws):
        v = geo.sample_h_direction(ctx, rng)
        counts[v] = counts.get(v, 0) + 1
    cells = list(counts.values())
    assert len(cells) == 15
    assert chi_square_pvalue(cells, 15) >= 1e-3


def test_point_code_roundtrip(gf8, rng):
    for _ in range(200):
        pt = geo.sample_point(gf8, rng)
        assert geo.point_from_code(gf8, geo.point_code(gf8, pt)) == pt


def test_normalize_direction(gf4):
    assert geo.normalize_direction(gf4, (2, 0)) == (1, 0)
    assert geo.normalize_direction(gf4, (1, 3)) == (1, 3)


def test_plane_key_invariant_under_rescaling(gf8, rng):
    layout = t2_layout(gf8)
    for _ in range(1000):
        anchor = geo.sample_point(gf8, rng)
        d1 = geo.sample_point(gf8, rng)
        # line keys take dir2 from H^m
        d2 = geo.sample_h_direction(gf8, rng)
        if geo.is_zero(d1) or geo.is_colinear(gf8, d1, d2):
            continue
        c = rng.randrange(1, gf8.n)
        p1 = geo.PlaneRep.make(gf8, anchor, d1, d2)
        p2 = geo.PlaneRep.make(gf8, anchor, scale_point_ref(gf8, c, d1), d2)
        k1 = layout.key_of(composed.LINE_REGION, p1)
        assert k1 == layout.key_of(composed.LINE_REGION, p2)
        key_idx, key_plane = k1
        assert layout.key_plane(composed.LINE_REGION, key_idx)[0] == key_plane


def test_plane_key_lambda_translates(gf8, rng):
    for _ in range(100):
        d1 = geo.sample_point(gf8, rng)
        if geo.is_zero(d1):
            continue
        norm = geo.normalize_direction(gf8, d1)
        lam = next(c for c in d1 if c)
        # anchor + t*d1 = anchor + (t*lam) * norm: same line, rescaled parameter
        t = gf8.rand_element(rng)
        lhs = scale_point_ref(gf8, t, d1)
        rhs = scale_point_ref(gf8, gf8.mul(t, lam), norm)
        assert lhs == rhs


def test_projective_rank_roundtrip(gf8):
    total = geo.projective_count(gf8)
    assert total == (gf8.n**3 - 1) // (gf8.n - 1)
    seen = set()
    for r in range(total):
        v = geo.projective_unrank(gf8, r)
        assert geo.projective_rank(gf8, v) == r
        seen.add(v)
    assert len(seen) == total


def test_point_keys_keep_raw_directions(gf8):
    layout = t2_layout(gf8)
    plane = geo.PlaneRep.make(gf8, (1, 2, 3), (1, 1, 0), (0, 1, 1))
    key_idx, key_plane = layout.key_of(composed.POINT_REGION, plane)
    assert key_plane == plane
    assert key_plane.dir1 == (1, 1, 0)
    assert layout.key_plane(composed.POINT_REGION, key_idx)[0] == plane


def test_h_plane_flags(gf8):
    # an H-plane has both directions in H^m: every coordinate code < p
    hp = geo.PlaneRep.make(gf8, (0, 0, 0), (1, 1, 0), (0, 0, 1))
    assert all(c < gf8.p for c in hp.dir1 + hp.dir2)
    fp = geo.PlaneRep.make(gf8, (0, 0, 0), (2, 1, 0), (0, 0, 1))
    assert not all(c < gf8.p for c in fp.dir1)
    assert all(c < gf8.p for c in fp.dir2)
