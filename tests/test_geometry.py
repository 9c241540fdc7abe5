import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rlcc import composed, geometry as geo, rm
from rlcc.pcpp import PcppParams
from rlcc.stats import chi_square_pvalue
from rlcc.gf import Field


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
    assert geo.line_points(gf4, (0, 0), (1, 0)) == [(0, 0), (1, 0), (2, 0), (3, 0)]


def test_line_position_zero_is_anchor(gf8, rng):
    for _ in range(50):
        anchor = geo.sample_point(gf8, rng)
        direction = geo.sample_point(gf8, rng)
        if geo.is_zero(direction):
            continue
        assert geo.line_points(gf8, anchor, direction)[0] == anchor


def test_all_gf4_squared_lines_distinct_and_complete():
    ctx = Field(2, 2)
    reps = 0
    for anchor in product(range(4), repeat=2):
        for direction in product(range(4), repeat=2):
            if geo.is_zero(direction):
                continue
            reps += 1
            pts = geo.line_points(ctx, anchor, direction)
            assert len(pts) == 4
            assert len(set(pts)) == 4
            assert set(pts) == brute_line_set(ctx, anchor, direction)
    assert reps == 240


def test_zero_direction_rejected(gf4):
    with pytest.raises(ValueError):
        geo.line_points(gf4, (0, 0), (0, 0))
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
    pts = geo.plane_points(ctx3, plane)
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
        pts = geo.plane_points(gf8, plane)
        assert len(set(pts)) == gf8.n**2
        # anchor line shows up as column k = 0
        line = geo.line_points(gf8, plane.anchor, plane.dir1)
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
    assert set(geo.plane_points(ctx, plane)) == expected


@settings(derandomize=True, max_examples=20, deadline=None)
@given(
    st.sampled_from([(2, 2), (2, 3), (3, 3), (17, 3)]),
    st.integers(0, 2**32),
)
def test_points_at_matches_scalar_points(pm, seed):
    ctx = Field(*pm)
    r = random.Random(seed)
    while True:
        d1, d2 = geo.sample_point(ctx, r), geo.sample_point(ctx, r)
        if not (geo.is_zero(d1) or geo.is_zero(d2) or geo.is_colinear(ctx, d1, d2)):
            break
    plane = geo.PlaneRep.make(ctx, geo.sample_point(ctx, r), d1, d2)
    # plane positions (jj, kk)
    jj = np.array([[0, r.randrange(ctx.n)], [r.randrange(ctx.n), ctx.n - 1]])
    kk = np.array([[0, 0], [r.randrange(ctx.n), r.randrange(ctx.n)]])
    coords = geo.points_at(ctx, plane.anchor, (d1, d2), (jj, kk))
    assert coords.shape == (ctx.m, 2, 2)
    codes = geo.plane_codes_at(ctx, plane, jj, kk)
    for idx in np.ndindex(jj.shape):
        pt = geo.plane_point_at(ctx, plane, int(jj[idx]), int(kk[idx]))
        assert tuple(coords[(slice(None),) + idx].tolist()) == pt
        assert codes[idx] == geo.point_code(ctx, pt)
    # one direction: a whole line in position order
    coords = geo.points_at(ctx, plane.anchor, (d1,), (np.arange(ctx.n),))
    pts = geo.line_points(ctx, plane.anchor, d1)
    assert [tuple(c) for c in coords.T.tolist()] == pts
    assert geo.codes_of(ctx, coords).tolist() == [geo.point_code(ctx, p) for p in pts]
    # array anchors and directions, one (d+1) x (d+1) subgrid per key;
    # degenerate direction pairs are allowed here
    keys = [tuple(geo.sample_point(ctx, r) for _ in range(3)) for _ in range(5)]
    anchors, us, vs = (np.array(a).T[:, :, None, None] for a in zip(*keys))
    js = np.arange(3)
    coords = geo.points_at(ctx, anchors, (us, vs), (js[:, None], js))
    assert coords.shape == (ctx.m, 5, 3, 3)
    for key_idx, (a, u, v) in enumerate(keys):
        for j, k in product(range(3), repeat=2):
            pt = geo.plane_point_at(ctx, geo.PlaneRep(a, u, v), j, k)
            assert tuple(coords[:, key_idx, j, k].tolist()) == pt


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
        p2 = geo.PlaneRep.make(gf8, anchor, geo.scale_point(gf8, c, d1), d2)
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
        lhs = geo.scale_point(gf8, t, d1)
        rhs = geo.scale_point(gf8, gf8.mul(t, lam), norm)
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
