import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rlcc import rm
from rlcc.geometry import PlaneRep, plane_point_at, sample_point
from rlcc.gf import Field

# derandomized, so reruns draw the same examples
CROSS_CHECK = settings(derandomize=True, max_examples=20, deadline=None)

field = lru_cache(maxsize=None)(Field)


def brute_evaluate(ctx, basis, coeffs, point):
    # direct sum over monomials, no shared code with rm.evaluate's fast paths
    acc = 0
    for c, exps in zip(coeffs, basis):
        term = c
        for x, e in zip(point, exps):
            for _ in range(e):
                term = ctx.mul(term, x)
        acc = ctx.add(acc, term)
    return acc


def random_plane(ctx, rng):
    from rlcc.geometry import is_colinear, is_zero

    while True:
        anchor = sample_point(ctx, rng)
        d1 = sample_point(ctx, rng)
        d2 = sample_point(ctx, rng)
        if is_zero(d1) or is_zero(d2) or is_colinear(ctx, d1, d2):
            continue
        return PlaneRep.make(ctx, anchor, d1, d2)


def test_monomial_basis_examples():
    assert rm.monomial_basis(2, 1) == ((0, 0), (0, 1), (1, 0))
    assert len(rm.monomial_basis(3, 4)) == 35
    assert len(rm.monomial_basis(3, 1)) == 4
    for dim, d in [(2, 3), (3, 2), (4, 2)]:
        basis = rm.monomial_basis(dim, d)
        assert len(basis) == comb(d + dim, dim)
        assert all(sum(t) <= d for t in basis)
        assert len(set(basis)) == len(basis)


def test_encode_validates_length(gf4):
    params = rm.RmParams(gf4, 2, 1)
    with pytest.raises(ValueError):
        rm.encode(params, [0, 1])
    with pytest.raises(ValueError):
        rm.encode(params, [0, 1, 9])


def test_zero_and_constant_messages(gf8):
    params = rm.RmParams(gf8, 3, 1)
    zero = rm.eval_table(params, rm.encode(params, [0, 0, 0, 0]))
    assert not zero.any()
    const = rm.eval_table(params, rm.encode(params, [5, 0, 0, 0]))
    assert (const == 5).all()


def test_evaluate_matches_bruteforce(gf27, rng):
    params = rm.RmParams(gf27, 3, 4)
    coeffs = tuple(rng.randrange(gf27.n) for _ in range(params.k))
    for _ in range(60):
        pt = sample_point(gf27, rng)
        assert rm.evaluate(params, coeffs, pt) == brute_evaluate(
            gf27, params.basis, coeffs, pt
        )


# (p, m, dim, d): T1, T2 and T3 sit below evaluate's d = 8 cutoff; above
# it are the S1 bivariate code, the S1 trivariate code that gives the
# oracle its point values, and GF(3^4), whose digits do not fit 21-bit lanes
EVAL_CASES = [
    (2, 2, 2, 1), (2, 3, 3, 1), (3, 3, 3, 4), (17, 3, 2, 32), (17, 3, 3, 32),
    (3, 4, 2, 8),
]


@pytest.mark.parametrize("case", EVAL_CASES)
@CROSS_CHECK
@given(data=st.data())
def test_evaluate_matches_bruteforce_across_cutoff(case, data):
    p, m, dim, d = case
    ctx = field(p, m)
    params = rm.RmParams(ctx, dim, d)
    # zero coefficients and zero coordinates kill terms; uniform draws at
    # S1 almost never make one, so they are forced here
    r = random.Random(data.draw(st.integers(0, 2**32)))
    zero_rate = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
    coeffs = [0 if r.random() < zero_rate else r.randrange(ctx.n) for _ in range(params.k)]
    element = st.one_of(st.just(0), st.integers(0, ctx.n - 1))
    point = data.draw(st.tuples(*[element] * dim))
    want = brute_evaluate(ctx, params.basis, coeffs, point)
    # coefficients arrive as a tuple, an int64 array, or a read-only int32
    # view of one copy in a proof block
    block = np.array(coeffs * 2, dtype=np.int32)
    block.flags.writeable = False
    for form in (tuple(coeffs), np.array(coeffs, dtype=np.int64), block[params.k :]):
        assert rm.evaluate(params, form, point) == want
    column = np.array(point, dtype=np.int64).reshape(-1, 1)
    assert rm.evaluate_many(params, coeffs, column)[0] == want


def test_evaluate_without_log_tables(rng):
    # 2^21 elements is past the table limit: only the scalar loop runs there
    ctx = field(2, 21)
    params = rm.RmParams(ctx, 2, 8)
    coeffs = [rng.randrange(ctx.n) for _ in range(params.k)]
    for _ in range(5):
        point = sample_point(ctx, rng)[:2]
        assert rm.evaluate(params, coeffs, point) == brute_evaluate(
            ctx, params.basis, coeffs, point
        )


def brute_matmul(ctx, a, b):
    out = []
    for row in a:
        out.append([])
        for j in range(len(b[0])):
            acc = 0
            for x, b_row in zip(row, b):
                acc = ctx.add(acc, ctx.mul(x, b_row[j]))
            out[-1].append(acc)
    return out


@CROSS_CHECK
@given(
    st.sampled_from([(2, 3, 1), (3, 3, 4), (17, 3, 32)]),
    st.integers(1, 3),
    st.randoms(use_true_random=False),
)
def test_batched_interpolate_matches_per_grid_and_bruteforce(case, batch, r):
    p, m, d = case
    ctx = field(p, m)
    params2d = rm.RmParams(ctx, 2, d)
    lattice = np.array(params2d.basis, dtype=np.int64).T
    # about 30% of the values are zero, which the log-domain product masks
    values = np.array(
        [
            [r.randrange(ctx.n) if r.random() < 0.7 else 0 for _ in params2d.basis]
            for _ in range(batch)
        ],
        dtype=np.int64,
    )
    got = rm.interpolate_lattice(params2d, values)
    assert got.shape == values.shape
    for row, tri in zip(values, got):
        assert np.array_equal(tri, rm.interpolate_lattice(params2d, row))
        # the lattice point (e_a, e_b) is the grid position (a, b)
        assert np.array_equal(rm.evaluate_many(params2d, tri, lattice), row)
        want = [brute_evaluate(ctx, params2d.basis, tri.tolist(), pt) for pt in lattice.T]
        assert row.tolist() == want


@pytest.mark.parametrize("p, m, d", [(2, 3, 1), (3, 3, 4), (17, 3, 32)])
def test_inverse_vandermonde_inverts_vandermonde(p, m, d):
    # the Newton operators compose to V^-1 for V[i][j] = e_i^j, checked
    # against that definition under the scalar product
    ctx = field(p, m)
    vander = [[ctx.pow(i, j) for j in range(d + 1)] for i in range(d + 1)]
    diff, newton = rm._newton_operators(ctx, d)
    minv = brute_matmul(ctx, newton.tolist(), diff.tolist())
    identity = np.eye(d + 1, dtype=np.int64).tolist()
    assert brute_matmul(ctx, vander, minv) == identity
    assert brute_matmul(ctx, minv, vander) == identity


# inner dimensions on both sides of fmatmul's digit-plane cutoff
FMATMUL_INNER = [1, 2, rm._DIGIT_INNER - 1, rm._DIGIT_INNER, 40]


@CROSS_CHECK
@given(
    st.sampled_from([(2, 3), (3, 2), (5, 2), (2, 4), (17, 3)]),
    st.sampled_from(FMATMUL_INNER),
    st.integers(1, 4),
    st.integers(1, 4),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_fmatmul_matches_scalar_product_across_cutoff(pm, inner, rows, cols, batched, r):
    ctx = field(*pm)

    def draw(shape):
        # about 30% zeros, which the log-domain path masks
        flat = [r.randrange(ctx.n) if r.random() < 0.7 else 0 for _ in range(np.prod(shape))]
        return np.array(flat, dtype=np.int64).reshape(shape)

    lead = (2,) if batched else ()
    a = draw(lead + (rows, inner))
    b = draw(lead + (inner, cols))
    got = rm.fmatmul(ctx, a, b)
    assert got.shape == lead + (rows, cols)
    for w in range(2 if batched else 1):
        aw, bw, gw = (a[w], b[w], got[w]) if batched else (a, b, got)
        assert gw.tolist() == brute_matmul(ctx, aw.tolist(), bw.tolist())


# fmatmul's digit path: S1's GF(17^3), p = 2 (where centred digits are
# 0 and 1 only) with few and many digits, and small odd p
DIGIT_FIELDS = [(17, 3), (2, 3), (3, 4), (5, 2), (2, 8)]
# inner dimensions tested stop here: GF(5^2) packs both digits up to 2^23
DIGIT_INNER_CAP = 1 << 16


def digit_inners(ctx):
    """The digit path's least inner dimension, and the last one with as
    many of b's digits per float64 as at 16 and the first with fewer
    (or the cap)."""
    lanes = rm._lane_layout(ctx, rm._DIGIT_INNER)[1]
    last = rm._DIGIT_INNER
    while last < DIGIT_INNER_CAP and rm._lane_layout(ctx, last + 1)[1] == lanes:
        last += 1
    return [rm._DIGIT_INNER, last, last + 1]


def assert_fmatmul_matches_scalar(ctx, a, b, lead_a, lead_b):
    """fmatmul of a and b, each given a leading batch axis of two
    differing copies when asked, against the scalar product."""
    if lead_a:
        a = np.stack([a, a[::-1]])
    if lead_b:
        b = np.stack([b, b[:, ::-1]])
    got = rm.fmatmul(ctx, a, b)
    for w in range(2 if lead_a or lead_b else 1):
        aw, bw = (a[w] if lead_a else a), (b[w] if lead_b else b)
        gw = got[w] if got.ndim == 3 else got
        assert gw.tolist() == brute_matmul(ctx, aw.tolist(), bw.tolist())


@pytest.mark.parametrize("pm", DIGIT_FIELDS)
@CROSS_CHECK
@given(data=st.data())
def test_fmatmul_digit_path_matches_scalar_product(pm, data):
    ctx = field(*pm)
    inner = data.draw(
        st.one_of(st.sampled_from(digit_inners(ctx)), st.integers(rm._DIGIT_INNER, 600))
    )
    # small products at the largest inner dimensions keep the scalar reference quick
    top = 3 if inner <= 600 else 1
    rows, cols = data.draw(st.integers(1, top)), data.draw(st.integers(1, top))
    seed = data.draw(st.integers(0, 2**32 - 1))
    gen = np.random.default_rng(seed)
    a = gen.integers(0, ctx.n, (rows, inner)) * (gen.random((rows, inner)) < 0.8)
    b = gen.integers(0, ctx.n, (inner, cols)) * (gen.random((inner, cols)) < 0.8)
    assert_fmatmul_matches_scalar(ctx, a, b, data.draw(st.booleans()), data.draw(st.booleans()))


@pytest.mark.parametrize("pm", DIGIT_FIELDS)
@settings(derandomize=True, max_examples=8, deadline=None)
@given(data=st.data())
def test_fmatmul_digit_path_exact_at_worst_magnitude(pm, data):
    # every centred digit of every operand is +-floor(p/2), one sign
    # pattern per row of a and column of b, so every digit block's
    # entries reach the +-inner * floor(p/2)^2 that sizes the lanes
    ctx = field(*pm)
    half = ctx.p // 2
    inner = data.draw(st.sampled_from(digit_inners(ctx)))
    # digit h centres to +h and p - h to -h; at p = 2 only +1 exists
    digit = st.sampled_from(sorted({half, ctx.p - half}))

    def code():
        return sum(data.draw(digit) * ctx.p**i for i in range(ctx.m))

    a = np.repeat(np.array([[code()], [code()]]), inner, axis=1)
    b = np.repeat(np.array([[code(), code()]]), inner, axis=0)
    assert_fmatmul_matches_scalar(ctx, a, b, data.draw(st.booleans()), data.draw(st.booleans()))


def test_lane_layout_packs_s1_horner_product_in_one_float():
    # S1's Horner product: inner 561 = (d+2 choose 2) at d = 32; its
    # centred digit products stay within 561 * 8^2 = 35,904, so 17-bit
    # lanes hold all three of b's digits in one float64
    assert rm._lane_layout(field(17, 3), 561) == (17, 3)
    assert rm._lane_layout(field(17, 3), 1024) == (18, 2)
    assert rm._lane_layout(field(2, 8), 32) == (7, 7)


# (p, m) fields for evaluate_many; degrees reach the digit-plane fmatmul
# (16 or more monomials in the other coordinates) where the field allows
EVAL_MANY_FIELDS = [(2, 3), (3, 2), (5, 2), (2, 4), (17, 3)]


@pytest.mark.parametrize("pm", EVAL_MANY_FIELDS)
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("high", [False, True])
@CROSS_CHECK
@given(data=st.data())
def test_evaluate_many_matches_bruteforce(pm, dim, high, data):
    ctx = field(*pm)
    top = min(ctx.n - 1, 16 if dim == 2 else 6)
    d = top if high else data.draw(st.integers(0, min(top, 3)))
    params = rm.RmParams(ctx, dim, d)
    coeffs = data.draw(
        st.lists(st.integers(0, ctx.n - 1), min_size=params.k, max_size=params.k)
    )
    coord = st.one_of(st.just(0), st.integers(0, ctx.n - 1))
    points = data.draw(
        st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=6)
    )
    got = rm.evaluate_many(params, coeffs, np.array(points, dtype=np.int64).T)
    assert got.tolist() == [
        brute_evaluate(ctx, params.basis, coeffs, pt) for pt in points
    ]


def test_evaluate_many_matches_scalar(gf27, rng):
    params = rm.RmParams(gf27, 3, 4)
    coeffs = tuple(rng.randrange(gf27.n) for _ in range(params.k))
    pts = [sample_point(gf27, rng) for _ in range(200)]
    pts.append((0, 0, 0))
    coords = np.array(pts, dtype=np.int64).T
    fast = rm.evaluate_many(params, coeffs, coords)
    for i, pt in enumerate(pts):
        assert fast[i] == brute_evaluate(gf27, params.basis, coeffs, pt)


def test_encode_injective_tiny(gf4):
    params = rm.RmParams(gf4, 2, 1)
    seen = set()
    for msg in product(range(4), repeat=params.k):
        seen.add(tuple(rm.eval_table(params, rm.encode(params, msg)).tolist()))
    assert len(seen) == 4**params.k


def test_distance_law_tiny(gf4):
    # min weight = (1 - d/n) * n^dim for every tiny configuration
    for dim, d in [(2, 1), (2, 2)]:
        params = rm.RmParams(gf4, dim, d)
        w = rm.min_nonzero_weight(params)
        assert w == (gf4.n - d) * gf4.n ** (dim - 1)


def test_restriction_constant_and_coordinate(gf8):
    params = rm.RmParams(gf8, 3, 1)
    plane = PlaneRep.make(gf8, (0, 0, 0), (1, 0, 0), (0, 1, 0))
    const = rm.encode(params, [6, 0, 0, 0])
    assert rm.restrict_to_plane(params, const, plane) == (6, 0, 0)
    # basis order is [(0,0,0), (0,0,1), (0,1,0), (1,0,0)]: x1 is the last slot
    x1 = rm.encode(params, [0, 0, 0, 1])
    assert rm.restrict_to_plane(params, x1, plane) == (0, 0, 1)  # the t monomial


def test_restriction_agrees_with_direct_evaluation(gf8, rng):
    params = rm.RmParams(gf8, 3, 1)
    for _ in range(100):
        coeffs = tuple(rng.randrange(gf8.n) for _ in range(params.k))
        plane = random_plane(gf8, rng)
        tri = rm.restrict_to_plane(params, coeffs, plane)
        for t in range(gf8.n):
            for s in range(gf8.n):
                pt = plane_point_at(gf8, plane, t, s)
                assert rm.evaluate(params.bivariate(), tri, (t, s)) == brute_evaluate(
                    gf8, params.basis, coeffs, pt
                )


def test_restriction_degree4(gf27, rng):
    params = rm.RmParams(gf27, 3, 4)
    for _ in range(5):
        coeffs = tuple(rng.randrange(gf27.n) for _ in range(params.k))
        plane = random_plane(gf27, rng)
        tri = rm.restrict_to_plane(params, coeffs, plane)
        for _ in range(40):
            t, s = rng.randrange(gf27.n), rng.randrange(gf27.n)
            pt = plane_point_at(gf27, plane, t, s)
            assert rm.evaluate(params.bivariate(), tri, (t, s)) == brute_evaluate(
                gf27, params.basis, coeffs, pt
            )


def test_restriction_every_element_a_node(gf4, rng):
    # d = n - 1: the lattice nodes are all of F
    params = rm.RmParams(gf4, 3, 3)
    planes = 0
    while planes < 10:
        anchor, d1, d2 = ([rng.randrange(gf4.n) for _ in range(3)] for _ in range(3))
        try:
            plane = PlaneRep.make(gf4, anchor, d1, d2)
        except ValueError:
            continue
        planes += 1
        coeffs = tuple(rng.randrange(gf4.n) for _ in range(params.k))
        tri = rm.restrict_to_plane(params, coeffs, plane)
        for t, s in product(range(gf4.n), repeat=2):
            pt = plane_point_at(gf4, plane, t, s)
            assert brute_evaluate(gf4, params.bivariate().basis, tri, (t, s)) == (
                brute_evaluate(gf4, params.basis, coeffs, pt)
            )


@pytest.mark.parametrize("kind", ["point", "line"])
@settings(derandomize=True, max_examples=2, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_restriction_s1_key_planes(kind, seed):
    # S1 composed-code planes: point keys have both directions in H^3,
    # line keys a normalized F-direction dir1
    from rlcc import composed
    from rlcc.pcpp import PcppParams

    r = random.Random(seed)
    ctx = field(17, 3)
    params = rm.RmParams(ctx, 3, 32)
    layout = composed.ComposedLayout(params, PcppParams(4))
    count = layout.point_keys if kind == "point" else layout.line_keys
    plane = None
    while plane is None:
        plane, _ = layout.key_plane(kind, r.randrange(count))
    if kind == "line":
        assert not all(c < ctx.p for c in plane.dir1)
    coeffs = [r.randrange(ctx.n) for _ in range(params.k)]
    tri = rm.restrict_to_plane(params, coeffs, plane)
    bivariate = params.bivariate()
    for t, s in [(0, 0), (1, 0)] + [(r.randrange(ctx.n), r.randrange(ctx.n)) for _ in range(2)]:
        pt = plane_point_at(ctx, plane, t, s)
        assert brute_evaluate(ctx, bivariate.basis, tri, (t, s)) == brute_evaluate(
            ctx, params.basis, coeffs, pt
        )


def test_low_degree_membership(gf8, rng):
    params2d = rm.RmParams(gf8, 2, 1)
    coeffs = tuple(rng.randrange(gf8.n) for _ in range(3))
    table = rm.grid_table(params2d, coeffs).tolist()
    ok, tri = rm.is_low_degree_on_plane(params2d, table)
    assert ok and tri == coeffs
    # all-zero accepts with zero coefficients
    ok, tri = rm.is_low_degree_on_plane(params2d, [0] * 64)
    assert ok and tri == (0, 0, 0)
    # one flip off the interpolation lattice is caught: outside the 2x2
    # node grid, and at (e_1, e_1), on that grid but off the d = 1 lattice
    for pos in (5 * gf8.n + 7, gf8.n + 1):
        bad = list(table)
        bad[pos] = (bad[pos] + 1) % gf8.n
        ok, _ = rm.is_low_degree_on_plane(params2d, bad)
        assert not ok
    # the t*s function has total degree 2; it vanishes on the lattice, so
    # the fit is zero and the full-plane check rejects it
    grid = [gf8.mul(j, k) for j in range(gf8.n) for k in range(gf8.n)]
    ok, _ = rm.is_low_degree_on_plane(params2d, grid)
    assert not ok


def test_exact_membership_agrees_with_bruteforce_zero_distance(gf4, rng):
    params2d = rm.RmParams(gf4, 2, 1)
    for _ in range(30):
        values = [rng.randrange(4) for _ in range(16)]
        ok, _ = rm.is_low_degree_on_plane(params2d, values)
        _, dist = rm.nearest_codeword_bruteforce(params2d, values)
        assert ok == (dist == 0)


def test_dist_weighted_examples():
    x = [1, 0, 0, 0]
    y = [0, 0, 0, 0]
    assert rm.dist_weighted(x, y, [0]) == Fraction(1, 2) + Fraction(1, 8)
    assert rm.dist_weighted(x, x, [0]) == 0
    assert rm.dist_weighted(x, y, [0, 1, 2, 3]) == rm.dist_plain(x, y)
    with pytest.raises(ValueError):
        rm.dist_weighted(x, y, [])
    with pytest.raises(ValueError):
        rm.dist_weighted(x, [0], [0])


def test_dist_weighted_is_metric(rng):
    for _ in range(200):
        ln = rng.randrange(4, 12)
        a_set = [i for i in range(ln) if rng.random() < 0.4] or [0]
        x = [rng.randrange(3) for _ in range(ln)]
        y = [rng.randrange(3) for _ in range(ln)]
        z = [rng.randrange(3) for _ in range(ln)]
        dxy = rm.dist_weighted(x, y, a_set)
        dyz = rm.dist_weighted(y, z, a_set)
        dxz = rm.dist_weighted(x, z, a_set)
        assert dxy == rm.dist_weighted(y, x, a_set)
        assert dxz <= dxy + dyz
        assert (dxy == 0) == (x == y)


def test_augment_point_kind(gf4):
    values = list(range(16))
    aug = rm.augment(gf4, values, rm.POINT_KIND, (2, 3))
    assert aug.length == 32
    assert [aug.read(i) for i in range(16)] == values
    assert all(aug.read(16 + i) == values[2 * 4 + 3] for i in range(16))
    with pytest.raises(ValueError):
        rm.augment(gf4, values, rm.POINT_KIND, (4, 0))


def test_augment_line_kind(gf4):
    values = list(range(16))
    aug = rm.augment(gf4, values, rm.LINE_KIND)
    line = [values[t * 4] for t in range(4)]
    tail = [aug.read(16 + i) for i in range(16)]
    assert tail == line * 4


def test_augment_shared_coordinate_distance(gf4, rng):
    # Hamming distance of augmented views = base distance + implied tail distance
    for _ in range(20):
        v1 = [rng.randrange(4) for _ in range(16)]
        v2 = [rng.randrange(4) for _ in range(16)]
        sel = (rng.randrange(4), rng.randrange(4))
        a1 = rm.augment(gf4, v1, rm.POINT_KIND, sel).materialize()
        a2 = rm.augment(gf4, v2, rm.POINT_KIND, sel).materialize()
        base_diff = sum(1 for a, b in zip(v1, v2) if a != b)
        tail_diff = 16 * (v1[sel[0] * 4 + sel[1]] != v2[sel[0] * 4 + sel[1]])
        assert sum(1 for a, b in zip(a1, a2) if a != b) == base_diff + tail_diff


def test_wrong_point_value_forces_farness(gf4, rng):
    # close to Q on the plane but wrong at x: the augmented word sits at
    # least (rho - delta')/2 away from the whole augmented language
    params2d = rm.RmParams(gf4, 2, 1)
    rho = params2d.rho
    for i in range(25):
        coeffs = tuple(rng.randrange(4) for _ in range(3))
        table = rm.grid_table(params2d, coeffs).tolist()
        jx, kx = rng.randrange(4), rng.randrange(4)
        pos = jx * 4 + kx
        word = list(table)
        word[pos] = (word[pos] + 1 + rng.randrange(3)) % 4  # wrong at x
        flip = rng.randrange(16)  # delta' = 1/16 extra noise off x
        if flip != pos:
            word[flip] = (word[flip] + 1) % 4
        delta_p = Fraction(sum(1 for a, b in zip(word, table) if a != b), 16)
        aug = rm.augment(gf4, word, rm.POINT_KIND, (jx, kx))
        _, dist = rm.nearest_augmented_bruteforce(params2d, aug)
        assert dist >= (rho - delta_p) / 2


def test_nearest_codeword_bruteforce_examples(gf4, rng):
    params2d = rm.RmParams(gf4, 2, 1)
    coeffs = (2, 1, 3)
    table = rm.eval_table(params2d, coeffs).tolist()
    found, dist = rm.nearest_codeword_bruteforce(params2d, table)
    assert found == coeffs and dist == 0
    flipped = list(table)
    flipped[9] = (flipped[9] + 2) % 4
    found, dist = rm.nearest_codeword_bruteforce(params2d, flipped)
    assert found == coeffs and dist == Fraction(1, 16)


def test_budget_guard(gf27):
    with pytest.raises(ValueError):
        rm.nearest_codeword_bruteforce(rm.RmParams(gf27, 2, 4), [0] * 729)


def test_interpolation_needs_enough_nodes(gf4):
    with pytest.raises(ValueError):
        rm.RmParams(gf4, 2, 4)  # d >= n rejected outright
