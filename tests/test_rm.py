import random
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from rlcc import rm
from rlcc.geometry import PlaneRep, plane_point_at, sample_point, spans_plane
from rlcc.gf import Field, LaneLayout

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


# (p, m, dim, d): T1 and T2 sit below evaluate's d = 3 cutoff, with
# GF(27) at d = 2, and GF(4) at d = 3 sits on it; above it are T3, the
# S1 bivariate code, the S1 trivariate code that gives the oracle its
# point values (three lanes of 14 and 17 bits in one int64), GF(3^4)
# (two fields of two lanes), GF(17^4) and S2's GF(13^4) (four one-lane
# fields) and GF(2^10) (four fields in two words).  GF(257^2) at d = 36
# has k (p - 1) >= 2^21, so its lanes are 22 bits wide
EVAL_CASES = [
    (2, 2, 2, 1), (2, 3, 3, 1), (3, 3, 3, 4), (17, 3, 2, 32), (17, 3, 3, 32),
    (3, 4, 2, 8), (17, 4, 2, 32), (2, 10, 2, 8), (257, 2, 3, 36), (13, 4, 2, 32),
    (3, 3, 2, 2), (2, 2, 2, 3),
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


@pytest.mark.parametrize("case", EVAL_CASES)
def test_evaluate_at_every_zero_pattern(case):
    # the origin, each coordinate zero alone, and no zero coordinate, with
    # a fifth of the coefficients zero; then every coefficient n - 1 at
    # the all-ones point, where each lane adds its largest digit k times
    p, m, dim, d = case
    ctx = field(p, m)
    params = rm.RmParams(ctx, dim, d)
    r = random.Random(p * 100 + dim * 10 + d)
    coeffs = [0 if r.random() < 0.2 else r.randrange(ctx.n) for _ in range(params.k)]
    points = [(0,) * dim]
    for zero in list(range(dim)) + [None]:
        for _ in range(2):
            points.append(tuple(0 if c == zero else r.randrange(1, ctx.n) for c in range(dim)))
    for point in points:
        assert rm.evaluate(params, coeffs, point) == brute_evaluate(
            ctx, params.basis, coeffs, point
        )
    full = [ctx.n - 1] * params.k
    assert rm.evaluate(params, full, (1,) * dim) == brute_evaluate(
        ctx, params.basis, full, (1,) * dim
    )


# the worst magnitudes of evaluate's product: every coordinate and every
# coefficient is the element of log n - 2, so each term's log sum reaches
# 2n - 4, one below the zero-ended table's zero entry, and E . lambda
# reaches d (n - 2).  The S1 codes, the largest EVAL_CASES entry, and
# GF(257^2) at d = 255, whose d (n - 2) = 16,841,985 is past 2^24, where
# a float32 product rounds
WORST_CASES = [(17, 3, 2, 32), (17, 3, 3, 32), (257, 2, 3, 36), (257, 2, 2, 255)]


def pow_evaluate(ctx, basis, coeffs, point):
    # one Field.pow per coordinate: brute_evaluate's repeated products
    # would take seconds at d = 255
    acc = 0
    for c, exps in zip(coeffs, basis):
        for x, e in zip(point, exps):
            c = ctx.mul(c, ctx.pow(x, e))
        acc = ctx.add(acc, c)
    return acc


@pytest.mark.parametrize("case", WORST_CASES)
def test_evaluate_at_worst_magnitudes(case):
    p, m, dim, d = case
    ctx = field(p, m)
    params = rm.RmParams(ctx, dim, d)
    w = int(ctx.tables[0][ctx.n - 2])
    assert ctx.tables[1][w] == ctx.n - 2
    coeffs = np.full(params.k, w, dtype=np.int64)
    # every zero pattern, the origin and no zero coordinate included
    for zero in product([False, True], repeat=dim):
        point = tuple(0 if z else w for z in zero)
        assert rm.evaluate(params, coeffs, point) == pow_evaluate(
            ctx, params.basis, coeffs.tolist(), point
        ), point


def test_point_tables_stay_small():
    # evaluate's cached tables at S1, the bivariate verifier code and the
    # trivariate oracle code together: the float64 exponent matrices,
    # shared by equal parameters, and each code's float64 logs and
    # zero-ended log and table
    ctx = field(17, 3)
    total = 0
    for dim in (2, 3):
        params = rm.RmParams(ctx, dim, 32)
        exps, lam, _, log, table = params._point_tables
        assert exps is rm._exponent_matrix(dim, 32, np.float64)
        assert exps.shape == (params.k, dim)
        total += exps.nbytes + lam.nbytes + log.nbytes + table.nbytes
    assert total <= 512 * 1024
    # and a warmed bivariate call allocates little
    params = rm.RmParams(ctx, 2, 32)
    r = random.Random(32)
    coeffs = np.array([r.randrange(ctx.n) for _ in range(params.k)], dtype=np.int64)
    rm.evaluate(params, coeffs, (3, 5))
    tracemalloc.start()
    try:
        rm.evaluate(params, coeffs, (7, 11))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


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
        points = lattice.T.tolist()
        assert [rm.evaluate(params2d, tri, pt) for pt in points] == row.tolist()
        want = [brute_evaluate(ctx, params2d.basis, tri.tolist(), pt) for pt in points]
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


@pytest.mark.parametrize("p, m, d", [(2, 3, 3), (3, 2, 4), (17, 3, 32)])
def test_substitution_maps_f_to_f_at_an_affine_point(p, m, d):
    # the coefficient map of f(x) -> f(r x + c), at r = 0 and c = 0 too,
    # checked by evaluating both sides at zero and at sampled codes
    ctx = field(p, m)
    rng = random.Random(d)
    basis = [(e,) for e in range(d + 1)]
    f = [rng.randrange(ctx.n) for _ in basis]
    xs = [0, 1] + [rng.randrange(ctx.n) for _ in range(6)]
    for r, c in ((0, 0), (0, ctx.n - 1), (1, 0), (1, 2), (ctx.n - 1, 0), (2, ctx.n - 2)):
        sub = rm._substitution(ctx, d, c, r).tolist()
        g = [row[0] for row in brute_matmul(ctx, sub, [[x] for x in f])]
        for x in xs:
            at = ctx.add(ctx.mul(r, x), c)
            assert brute_evaluate(ctx, basis, g, (x,)) == brute_evaluate(ctx, basis, f, (at,))


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
        # about 30% zeros, which both paths read through the log table's
        # zero sentinel (the digit path when it multiplies b by X^i)
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


# fmatmul's digit path: S1's GF(17^3), p = 2 (digits 0 and 1 only) with
# few and many digits, small odd p, and S2's GF(13^4)
DIGIT_FIELDS = [(17, 3), (2, 3), (3, 4), (5, 2), (2, 8), (13, 4)]
# inner dimensions tested stop here: GF(5^2) packs both digits up to 2^21
DIGIT_INNER_CAP = 1 << 16


def float_layout(ctx, inner):
    """(field width, digits per float64) of the stacked X^i b's lanes in
    fmatmul's digit path at this inner dimension: a lane sums m * inner
    products of two digits below p."""
    lanes = LaneLayout(ctx, ctx.m * inner * (ctx.p - 1) ** 2, np.float64)
    return lanes.width, min(ctx.m, lanes.per * lanes.group)


@lru_cache(maxsize=None)
def digit_inners(ctx):
    """The digit path's least inner dimension, and the last one with as
    many of b's digits per float64 as at that one and the first with
    fewer (or the cap)."""
    lanes = float_layout(ctx, rm._DIGIT_INNER)[1]
    last = rm._DIGIT_INNER
    while last < DIGIT_INNER_CAP and float_layout(ctx, last + 1)[1] == lanes:
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


@lru_cache(maxsize=None)
def heaviest_times_powers(ctx):
    """The code b that maximises, over digits j, sum_i digit_j(X^i b)
    for i < m: one lane of the stacked X^i b's sums that for a whole
    column of b."""
    exp_t, log_t, digits = ctx.tables
    log_b = log_t[np.arange(ctx.n)]
    lanes = sum(digits[np.take(exp_t, log_b + log_t[ctx.p**i], mode="clip")] for i in range(ctx.m))
    return int(lanes.max(axis=1).argmax())


@pytest.mark.parametrize("pm", DIGIT_FIELDS)
@settings(derandomize=True, max_examples=8, deadline=None)
@given(data=st.data())
def test_fmatmul_digit_path_exact_at_worst_magnitude(pm, data):
    # every digit of a is p - 1, and each column of b repeats n - 1 (every
    # digit p - 1) or the code whose X^i multiples sum the most into one
    # digit, so the lanes reach the largest sums any operands give
    ctx = field(*pm)
    inner = data.draw(st.sampled_from(digit_inners(ctx)))
    code = st.sampled_from([ctx.n - 1, heaviest_times_powers(ctx)])
    a = np.full((2, inner), ctx.n - 1)
    b = np.repeat(np.array([[data.draw(code), data.draw(code)]]), inner, axis=0)
    assert_fmatmul_matches_scalar(ctx, a, b, data.draw(st.booleans()), data.draw(st.booleans()))


def test_s1_digit_product_is_one_float64_word(monkeypatch):
    # S1's products have inner d + 1 = 33: a lane sums 3 * 33 * 16^2 =
    # 25,344 below 2^15, so three 15-bit lanes fill one float64 word and a
    # product is one BLAS call; S2's GF(13^4) at inner 33 sums
    # 4 * 33 * 12^2 = 19,008, and four 15-bit fields exceed 53 bits
    assert float_layout(field(17, 3), 33) == (15, 3)
    assert float_layout(field(13, 4), 33) == (15, 3)
    made = []

    def record(*args):
        made.append(LaneLayout(*args))
        return made[-1]

    monkeypatch.setattr(rm, "LaneLayout", record)
    # the digit path builds its layout once per field and inner dimension
    rm._digit_tables.cache_clear()
    for pm, words in [((17, 3), 1), ((13, 4), 2)]:
        ctx = field(*pm)
        a = np.arange(33 * 33).reshape(33, 33) % ctx.n
        rm.fmatmul(ctx, a, a)
        assert (made[-1].words, made[-1].fields, made[-1].width) == (words, ctx.m, 15)


def test_fmatmul_results_outlive_the_next_product():
    # PlaneRestrictor.restrict keeps a product while it computes the
    # next one, so a product must not be a view of shared scratch
    ctx = field(17, 3)
    gen = np.random.default_rng(24)
    a, b, c = (gen.integers(0, ctx.n, (33, 33)) for _ in range(3))
    first = rm.fmatmul(ctx, a, b)
    kept = first.copy()
    second = rm.fmatmul(ctx, c, a)
    assert np.array_equal(first, kept)
    assert first.tolist() == brute_matmul(ctx, a.tolist(), b.tolist())
    assert second.tolist() == brute_matmul(ctx, c.tolist(), a.tolist())


def test_lane_codes_read_random_lane_sums():
    # LaneLayout.codes, LaneLayout.code and the digit formula agree on
    # random lane sums of fmatmul's float64 layouts, at the least inner
    # dimension of the digit path, at S1's and at the cap; some of these
    # read grouped lanes (p = 2) and some lanes past the reduce table
    grouped = unreduced = 0
    for pm in DIGIT_FIELDS:
        ctx = field(*pm)
        for inner in (rm._DIGIT_INNER, 33, DIGIT_INNER_CAP):
            lanes = LaneLayout(ctx, ctx.m * inner * (ctx.p - 1) ** 2, np.float64)
            grouped += lanes.group > 1
            unreduced += lanes.reduce is None
            gen = np.random.default_rng(inner * ctx.n)
            sums = gen.integers(0, lanes.radix, (ctx.m, 200))
            words = np.zeros((lanes.words, 200), dtype=np.int64)
            for i, lane in enumerate(sums):
                f, t = divmod(i, lanes.group)
                words[f // lanes.per] += lane * lanes.radix**t << f % lanes.per * lanes.width
            want = (sums % ctx.p * ctx.p ** np.arange(ctx.m)[:, None]).sum(axis=0)
            assert lanes.codes(words).tolist() == want.tolist()
            assert [lanes.code(w.tolist()) for w in words.T] == want.tolist()
    assert grouped and unreduced


def test_batched_fmatmul_takes_the_digit_path(monkeypatch):
    # a leading batch axis on either operand goes through the same digit
    # tables as a 2-D product
    ctx = field(17, 3)
    calls = []
    tables = rm._digit_tables
    monkeypatch.setattr(rm, "_digit_tables", lambda *args: calls.append(args) or tables(*args))
    gen = np.random.default_rng(25)
    a, b = gen.integers(0, ctx.n, (2, 3, 33)), gen.integers(0, ctx.n, (33, 4))
    for x, y in [(a, b), (a[0], np.stack([b, b[::-1]])), (a, np.stack([b, b[::-1]]))]:
        got = rm.fmatmul(ctx, x, y)
        assert got.shape == (2, 3, 4)
        for w in range(2):
            xw, yw = (x[w] if x.ndim == 3 else x), (y[w] if y.ndim == 3 else y)
            assert got[w].tolist() == brute_matmul(ctx, xw.tolist(), yw.tolist())
    assert calls == [(ctx, 33)] * 3


# (p, m) fields for the restriction cross-check; at the high degree the
# slices' contractions and the substitutions reach fmatmul's digit path
# (16 or more nodes) where the field allows
RESTRICT_FIELDS = [(2, 3), (3, 2), (5, 2), (2, 4), (17, 3)]


def draw_plane(ctx, dim, r):
    """A plane whose coordinates are often 0 or in H, so that pivots,
    transposition and zero affine forms all come up."""
    def coord():
        return r.choice([0, r.randrange(ctx.p), r.randrange(ctx.n)])

    while True:
        anchor, u, v = ([coord() for _ in range(dim)] for _ in range(3))
        if spans_plane(ctx, u, v):
            return PlaneRep.make(ctx, anchor, u, v)


def draw_coeffs(params, r, zero_rate):
    return [0 if r.random() < zero_rate else r.randrange(params.ctx.n) for _ in range(params.k)]


@pytest.mark.parametrize("pm", RESTRICT_FIELDS)
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("high", [False, True])
@CROSS_CHECK
@given(data=st.data())
def test_evaluate_many_matches_bruteforce(pm, dim, high, data):
    # P at many points of a plane, read through its restriction
    # Q(s, t) = P(a + s u + t v), against a direct monomial sum; and the
    # restriction against the scalar reference on the degree lattice
    ctx = field(*pm)
    top = min(ctx.n - 1, 16 if dim == 2 else 6)
    d = top if high else data.draw(st.integers(0, min(top, 3)))
    params = rm.RmParams(ctx, dim, d)
    r = random.Random(data.draw(st.integers(0, 2**32)))
    coeffs = draw_coeffs(params, r, data.draw(st.sampled_from([0.0, 0.5, 0.9])))
    plane = draw_plane(ctx, dim, r)
    got = rm.restrict_to_plane(params, coeffs, plane)
    assert got == reference.restriction(params, coeffs, plane)
    coord = st.one_of(st.just(0), st.integers(0, ctx.n - 1))
    points = data.draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=6))
    basis2 = params.bivariate().basis
    for s, t in points:
        want = brute_evaluate(ctx, params.basis, coeffs, plane_point_at(ctx, plane, s, t))
        assert brute_evaluate(ctx, basis2, got, (s, t)) == want


# (p, m, dim, d): the S1 restriction in GF(17^3) and GF(31^3), a
# bivariate code at d = 100, a 4-variate one, GF(4) at d = n - 1 (every
# element a node) and S2's GF(13^4) at dim 4
RESTRICT_CASES = [
    (17, 3, 3, 32), (31, 3, 3, 32), (17, 3, 2, 100), (17, 3, 4, 10),
    (2, 2, 3, 3), (13, 4, 4, 16),
]


def edge_planes(ctx, dim, r):
    """(name, plane) pairs that random planes almost never give."""
    def elem():
        return r.randrange(ctx.n)

    def vec():
        return [elem() for _ in range(dim)]

    unit = [[int(i == j) for i in range(dim)] for j in range(dim)]
    planes = [
        ("random", vec(), vec(), vec()),
        # anchor 0: every other coordinate's affine form is 0 at the
        # lattice origin, and on a coordinate plane 0 everywhere
        ("zero anchor", [0] * dim, vec(), vec()),
        ("coordinate plane", [0] * (dim - 1) + [elem()], unit[0], unit[1]),
        # dir1 is 0 at the first pivot: R is transposed
        ("u_p1 = 0", vec(), [0, 1] + vec()[2:], [1, 0] + vec()[2:]),
        # a line key: dir1 normalized, with coordinates outside H
        ("line key", vec(), [1] + [r.randrange(ctx.p, ctx.n) for _ in range(dim - 1)], vec()),
    ]
    if dim > 2:
        # the first minor (0, 1) is singular, so the pivots are (0, 2)
        u = [1, 1] + [elem() for _ in range(dim - 2)]
        v = [2 % ctx.p, 2 % ctx.p] + [elem() for _ in range(dim - 2)]
        v[2] = ctx.add(ctx.mul(2 % ctx.p, u[2]), 1)
        planes.append(("singular first minor", vec(), u, v))
    return [(name, PlaneRep.make(ctx, a, u, v)) for name, a, u, v in planes]


@pytest.mark.parametrize("case", RESTRICT_CASES)
def test_restriction_matches_reference_on_edge_planes(case):
    p, m, dim, d = case
    ctx = field(p, m)
    params = rm.RmParams(ctx, dim, d)
    r = random.Random(561 * dim + p)
    exps = np.array(params.basis)
    dense = draw_coeffs(params, r, 0.2)
    # whole slices zero (odd exponents of the last coordinate), and
    # slices that all vanish on the lattice row y_0 = e_0 = 0
    patterns = [
        ("dense", dense),
        ("odd slices zero", np.where(exps[:, -1] % 2 == 1, 0, dense)),
        ("y_0 divides", np.where(exps[:, 0] == 0, 0, dense)),
    ]
    restrictor = rm.PlaneRestrictor(params, dense)
    for i, (name, plane) in enumerate(edge_planes(ctx, dim, r)):
        want = reference.restriction(params, dense, plane)
        assert tuple(restrictor.restrict(plane).tolist()) == want, name
        pattern, coeffs = patterns[i % len(patterns)]
        assert rm.restrict_to_plane(params, coeffs, plane) == reference.restriction(
            params, coeffs, plane
        ), (name, pattern)


def test_restriction_rejects_directions_that_span_no_plane(gf27):
    # no direction minor is invertible, so there are no pivots
    params = rm.RmParams(gf27, 3, 4)
    coeffs = [1] * params.k
    u = (1, 2, 3)
    for v in (tuple(gf27.mul(5, x) for x in u), (0, 0, 0)):
        with pytest.raises(ValueError, match="span a plane"):
            rm.restrict_to_plane(params, coeffs, PlaneRep((1, 1, 1), u, v))


def test_s1_restriction_reuses_its_scratch():
    # a restriction allocates less than one 561 x 561 int64 table, the
    # other coordinates' monomials at every lattice point: the first one
    # of a fresh message, which builds its slices, as well as a warmed one
    ctx = field(17, 3)
    params = rm.RmParams(ctx, 3, 32)
    r = random.Random(17)

    def message():
        return np.array([r.randrange(ctx.n) for _ in range(params.k)], dtype=np.int64)

    rm.restrict_to_plane(params, message(), random_plane(ctx, r))
    restrictor = rm.PlaneRestrictor(params, message())
    for step in ("cold", "warm"):
        plane = random_plane(ctx, r)
        tracemalloc.start()
        try:
            restrictor.restrict(plane)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 561 * 561 * 8, step


# (p, m, dim, d): the grid contraction's inner dimension d + 1 on both
# sides of _DIGIT_INNER, for dim 2 to 4
GRID_CASES = [(2, 4, 2, 15), (17, 2, 2, 20), (3, 3, 3, 4), (2, 4, 4, 3)]


@pytest.mark.parametrize("case", GRID_CASES)
@pytest.mark.parametrize("fill", ["random", "zero", "constant"])
def test_eval_table_matches_pointwise_evaluators(case, fill):
    p, m, dim, d = case
    ctx = field(p, m)
    params = rm.RmParams(ctx, dim, d)
    r = random.Random(p * 1000 + dim * 100 + d)
    coeffs = {
        "random": [r.randrange(ctx.n) for _ in range(params.k)],
        "zero": [0] * params.k,
        "constant": [ctx.n - 1] + [0] * (params.k - 1),
    }[fill]
    table = rm.eval_table(params, coeffs)
    # coordinate i of point code c is digit i of c in base n
    for c in [0, params.length - 1] + r.sample(range(params.length), 40):
        point = [c // ctx.n**i % ctx.n for i in range(dim)]
        assert table[c] == brute_evaluate(ctx, params.basis, coeffs, point)
        assert table[c] == rm.evaluate(params, coeffs, point)


@pytest.mark.parametrize("case", [(3, 3, 3, 4), (2, 4, 4, 3)])
def test_eval_table_peak_memory(case):
    # a warmed table peaks below 32 tables' bytes; a direct sum over
    # every monomial at every point took 90 and 169
    p, m, dim, d = case
    ctx = field(p, m)
    params = rm.RmParams(ctx, dim, d)
    r = random.Random(d)
    coeffs = [r.randrange(ctx.n) for _ in range(params.k)]
    rm.eval_table(params, coeffs)
    tracemalloc.start()
    try:
        rm.eval_table(params, coeffs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * params.length * 8


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
    table = rm.grid_values(params2d, coeffs).reshape(-1).tolist()
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
        _, dist = reference.nearest_codeword_bruteforce(params2d, values)
        assert ok == (dist == 0)


def test_dist_weighted_examples():
    x = [1, 0, 0, 0]
    y = [0, 0, 0, 0]
    assert reference.dist_weighted(x, y, [0]) == Fraction(1, 2) + Fraction(1, 8)
    assert reference.dist_weighted(x, x, [0]) == 0
    assert reference.dist_weighted(x, y, [0, 1, 2, 3]) == reference.dist_plain(x, y)
    with pytest.raises(ValueError):
        reference.dist_weighted(x, y, [])
    with pytest.raises(ValueError):
        reference.dist_weighted(x, [0], [0])


def test_dist_weighted_is_metric(rng):
    for _ in range(200):
        ln = rng.randrange(4, 12)
        a_set = [i for i in range(ln) if rng.random() < 0.4] or [0]
        x = [rng.randrange(3) for _ in range(ln)]
        y = [rng.randrange(3) for _ in range(ln)]
        z = [rng.randrange(3) for _ in range(ln)]
        dxy = reference.dist_weighted(x, y, a_set)
        dyz = reference.dist_weighted(y, z, a_set)
        dxz = reference.dist_weighted(x, z, a_set)
        assert dxy == reference.dist_weighted(y, x, a_set)
        assert dxz <= dxy + dyz
        assert (dxy == 0) == (x == y)


def test_augment_point_kind(gf4):
    values = list(range(16))
    aug = reference.augment(gf4, values, rm.POINT_KIND, (2, 3))
    assert aug.length == 32
    assert [aug.read(i) for i in range(16)] == values
    assert all(aug.read(16 + i) == values[2 * 4 + 3] for i in range(16))
    with pytest.raises(ValueError):
        reference.augment(gf4, values, rm.POINT_KIND, (4, 0))


def test_augment_line_kind(gf4):
    values = list(range(16))
    aug = reference.augment(gf4, values, rm.LINE_KIND)
    line = [values[t * 4] for t in range(4)]
    tail = [aug.read(16 + i) for i in range(16)]
    assert tail == line * 4


def test_augment_shared_coordinate_distance(gf4, rng):
    # Hamming distance of augmented views = base distance + implied tail distance
    for _ in range(20):
        v1 = [rng.randrange(4) for _ in range(16)]
        v2 = [rng.randrange(4) for _ in range(16)]
        sel = (rng.randrange(4), rng.randrange(4))
        a1 = reference.augment(gf4, v1, rm.POINT_KIND, sel).materialize()
        a2 = reference.augment(gf4, v2, rm.POINT_KIND, sel).materialize()
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
        table = rm.grid_values(params2d, coeffs).reshape(-1).tolist()
        jx, kx = rng.randrange(4), rng.randrange(4)
        pos = jx * 4 + kx
        word = list(table)
        word[pos] = (word[pos] + 1 + rng.randrange(3)) % 4  # wrong at x
        flip = rng.randrange(16)  # delta' = 1/16 extra noise off x
        if flip != pos:
            word[flip] = (word[flip] + 1) % 4
        delta_p = Fraction(sum(1 for a, b in zip(word, table) if a != b), 16)
        aug = reference.augment(gf4, word, rm.POINT_KIND, (jx, kx))
        _, dist = reference.nearest_augmented_bruteforce(params2d, aug)
        assert dist >= (rho - delta_p) / 2


def test_nearest_codeword_bruteforce_examples(gf4, rng):
    params2d = rm.RmParams(gf4, 2, 1)
    coeffs = (2, 1, 3)
    table = rm.eval_table(params2d, coeffs).tolist()
    found, dist = reference.nearest_codeword_bruteforce(params2d, table)
    assert found == coeffs and dist == 0
    flipped = list(table)
    flipped[9] = (flipped[9] + 2) % 4
    found, dist = reference.nearest_codeword_bruteforce(params2d, flipped)
    assert found == coeffs and dist == Fraction(1, 16)


def test_budget_guard(gf27):
    with pytest.raises(ValueError):
        reference.nearest_codeword_bruteforce(rm.RmParams(gf27, 2, 4), [0] * 729)


def test_interpolation_needs_enough_nodes(gf4):
    with pytest.raises(ValueError):
        rm.RmParams(gf4, 2, 4)  # d >= n rejected outright
