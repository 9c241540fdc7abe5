import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rlcc import geometry as geo
from rlcc.ctrw import plane_codes_at
from rlcc.rm import RmParams
from rlcc.stats import chi_square_pvalue
from rlcc.gf import Field


def brute_line_set(ctx, anchor, direction):
    # independent of line_points' position bookkeeping
    out = set()
    for t in range(ctx.n):
        out.add(tuple(ctx.add(a, ctx.mul(t, d)) for a, d in zip(anchor, direction)))
    return out


def test_axis_line_order(gf4):
    line = geo.LineRep((0, 0), (1, 0))
    assert geo.line_points(gf4, line) == [(0, 0), (1, 0), (2, 0), (3, 0)]


def test_line_position_zero_is_anchor(gf8, rng):
    for _ in range(50):
        anchor = geo.sample_point(gf8, rng)
        direction = geo.sample_point(gf8, rng)
        if geo.is_zero(direction):
            continue
        assert geo.line_points(gf8, geo.LineRep(anchor, direction))[0] == anchor


def test_all_gf4_squared_lines_distinct_and_complete():
    ctx = Field(2, 2)
    reps = 0
    for anchor in product(range(4), repeat=2):
        for direction in product(range(4), repeat=2):
            if geo.is_zero(direction):
                continue
            reps += 1
            pts = geo.line_points(ctx, geo.LineRep(anchor, direction))
            assert len(pts) == 4
            assert len(set(pts)) == 4
            assert set(pts) == brute_line_set(ctx, anchor, direction)
    assert reps == 240


def test_zero_direction_rejected(gf4):
    with pytest.raises(ValueError):
        geo.line_points(gf4, geo.LineRep((0, 0), (0, 0)))
    with pytest.raises(ValueError):
        geo.PlaneRep.make(gf4, (0, 0), (1, 0), (2, 0))  # dependent directions


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
        line = geo.line_points(gf8, plane.anchor_line())
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
def test_plane_coords_at_matches_plane_point_at(pm, seed):
    ctx = Field(*pm)
    r = random.Random(seed)
    while True:
        d1, d2 = geo.sample_point(ctx, r), geo.sample_point(ctx, r)
        if not (geo.is_zero(d1) or geo.is_zero(d2) or geo.is_colinear(ctx, d1, d2)):
            break
    plane = geo.PlaneRep.make(ctx, geo.sample_point(ctx, r), d1, d2)
    jj = np.array([[0, r.randrange(ctx.n)], [r.randrange(ctx.n), ctx.n - 1]])
    kk = np.array([[0, 0], [r.randrange(ctx.n), r.randrange(ctx.n)]])
    coords = geo.plane_coords_at(ctx, plane, jj, kk)
    assert coords.shape == (ctx.m, 2, 2)
    codes = plane_codes_at(RmParams(ctx, ctx.m, 1), plane, jj, kk)
    for idx in np.ndindex(jj.shape):
        pt = geo.plane_point_at(ctx, plane, int(jj[idx]), int(kk[idx]))
        assert tuple(coords[(slice(None),) + idx].tolist()) == pt
        assert codes[idx] == geo.point_code(ctx, pt)


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
    assert chi_square_pvalue(cells, [draws / 15] * 15) >= 1e-3


def test_h_vector_index_roundtrip(gf27):
    for idx in range(gf27.p**gf27.m):
        v = geo.h_vector_from_index(gf27, idx)
        assert geo.h_vector_index(gf27, v) == idx


def test_point_code_roundtrip(gf8, rng):
    for _ in range(200):
        pt = geo.sample_point(gf8, rng)
        assert geo.point_from_code(gf8, geo.point_code(gf8, pt)) == pt


def test_normalize_direction(gf4):
    # dir = (w, 0) normalizes to (1, 0) with lam = w
    norm, lam = geo.normalize_direction(gf4, (2, 0))
    assert norm == (1, 0)
    assert lam == 2
    assert geo.scale_point(gf4, lam, norm) == (2, 0)
    norm, lam = geo.normalize_direction(gf4, (1, 3))
    assert (norm, lam) == ((1, 3), 1)


def test_plane_key_invariant_under_rescaling(gf8, rng):
    for _ in range(1000):
        anchor = geo.sample_point(gf8, rng)
        d1 = geo.sample_point(gf8, rng)
        d2 = geo.sample_point(gf8, rng)
        if geo.is_zero(d1) or geo.is_zero(d2) or geo.is_colinear(gf8, d1, d2):
            continue
        c = gf8.rand_nonzero(rng)
        p1 = geo.PlaneRep.make(gf8, anchor, d1, d2)
        p2 = geo.PlaneRep.make(gf8, anchor, geo.scale_point(gf8, c, d1), d2)
        k1, _ = geo.canonical_plane_key(gf8, p1, geo.REGION_LINE)
        k2, _ = geo.canonical_plane_key(gf8, p2, geo.REGION_LINE)
        assert k1 == k2


def test_plane_key_lambda_translates(gf8, rng):
    for _ in range(100):
        d1 = geo.sample_point(gf8, rng)
        if geo.is_zero(d1):
            continue
        norm, lam = geo.normalize_direction(gf8, d1)
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
    plane = geo.PlaneRep.make(gf8, (1, 2, 3), (1, 1, 0), (0, 1, 1))
    key, lam = geo.canonical_plane_key(gf8, plane, geo.REGION_POINT)
    assert lam == 1
    assert key.dir1 == (1, 1, 0)


def test_h_plane_flags(gf8):
    hp = geo.PlaneRep.make(gf8, (0, 0, 0), (1, 1, 0), (0, 0, 1))
    assert hp.is_h_plane
    fp = geo.PlaneRep.make(gf8, (0, 0, 0), (2, 1, 0), (0, 0, 1))
    assert fp.h_flags == (False, True)
    assert not fp.is_h_plane


def test_serialization(gf4):
    plane = geo.PlaneRep.make(gf4, (0, 1), (1, 0), (0, 1))
    assert geo.serialize_point((0, 1)) == "0,1"
    assert geo.serialize_plane(plane) == "0,1|1,0|0,1"
