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


# (p, m, dim, d): T1, T2 and T3 sit below evaluate's d = 8 cutoff, the
# S1 bivariate code above it
EVAL_CASES = [(2, 2, 2, 1), (2, 3, 3, 1), (3, 3, 3, 4), (17, 3, 2, 32)]


@pytest.mark.parametrize("case", EVAL_CASES)
@CROSS_CHECK
@given(data=st.data())
def test_evaluate_matches_bruteforce_across_cutoff(case, data):
    p, m, dim, d = case
    ctx = field(p, m)
    params = rm.RmParams(ctx, dim, d)
    coeffs = data.draw(
        st.lists(st.integers(0, ctx.n - 1), min_size=params.k, max_size=params.k)
    )
    point = data.draw(st.tuples(*[st.integers(0, ctx.n - 1)] * dim))
    want = brute_evaluate(ctx, params.basis, coeffs, point)
    assert rm.evaluate(params, coeffs, point) == want
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
    size = d + 1
    # about 30% of the entries are zero, which the log-domain product masks
    grids = np.array(
        [
            [[r.randrange(ctx.n) if r.random() < 0.7 else 0 for _ in range(size)]
             for _ in range(size)]
            for _ in range(batch)
        ],
        dtype=np.int64,
    )
    got = rm.interpolate_grid(params2d, grids)
    minv = rm._inverse_vandermonde(ctx, d).tolist()
    minv_t = [list(col) for col in zip(*minv)]
    for w in range(batch):
        assert np.array_equal(got[w], rm.interpolate_grid(params2d, grids[w]))
        want = brute_matmul(ctx, brute_matmul(ctx, minv, grids[w].tolist()), minv_t)
        assert got[w].tolist() == want


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
    plane = None
    while plane is None:
        if kind == "point":
            plane, _ = layout.point_key_plane(r.randrange(layout.point_keys))
        else:
            plane, _ = layout.line_key_plane(r.randrange(layout.line_keys))
    if kind == "line":
        assert not plane.h_flags[0]
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
    ok, tri = rm.is_low_degree_on_plane(params2d, table, "exact")
    assert ok and tri == coeffs
    # all-zero accepts with zero coefficients
    ok, tri = rm.is_low_degree_on_plane(params2d, [0] * 64, "exact")
    assert ok and tri == (0, 0, 0)
    # one flip off the interpolation subgrid is caught in exact mode
    bad = list(table)
    pos = 5 * gf8.n + 7  # outside the 2x2 node grid
    bad[pos] = (bad[pos] + 1) % gf8.n
    ok, _ = rm.is_low_degree_on_plane(params2d, bad, "exact")
    assert not ok
    # the t*s function has total degree 2: rejected at the fit stage
    grid = [gf8.mul(j, k) for j in range(gf8.n) for k in range(gf8.n)]
    ok, _ = rm.is_low_degree_on_plane(params2d, grid, "exact")
    assert not ok


def test_low_degree_sampled_mode(gf8, rng):
    params2d = rm.RmParams(gf8, 2, 1)
    coeffs = (3, 1, 0)
    table = rm.grid_table(params2d, coeffs).tolist()
    ok, _ = rm.is_low_degree_on_plane(params2d, table, ("sampled", 10), rng)
    assert ok
    bad = list(table)
    for i in range(0, 64, 2):  # heavy corruption so sampling catches it
        bad[i] = (bad[i] + 1) % gf8.n
    caught = sum(
        not rm.is_low_degree_on_plane(params2d, bad, ("sampled", 10), random.Random(i))[0]
        for i in range(50)
    )
    assert caught >= 45


def test_exact_membership_agrees_with_bruteforce_zero_distance(gf4, rng):
    params2d = rm.RmParams(gf4, 2, 1)
    for _ in range(30):
        values = [rng.randrange(4) for _ in range(16)]
        ok, _ = rm.is_low_degree_on_plane(params2d, values, "exact")
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
