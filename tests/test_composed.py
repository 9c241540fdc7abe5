import gc
import random
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rlcc import composed, harness, rm
from rlcc.geometry import (
    PlaneRep,
    codes_of,
    plane_point_at,
    point_code,
    point_from_code,
    points_at,
    sample_point,
    spans_plane,
)
from rlcc.gf import Field
from rlcc.pcpp import BOT, PcppParams, QueryCounter, build_proof


@pytest.fixture(scope="module")
def t1():
    ctx = Field(2, 2)
    layout = composed.ComposedLayout(rm.RmParams(ctx, 2, 1), PcppParams(4))
    message = [1, 2, 3]
    word = composed.materialize(layout, message)
    return layout, message, word


@pytest.fixture(scope="module")
def t2():
    ctx = Field(2, 3)
    layout = composed.ComposedLayout(rm.RmParams(ctx, 3, 1), PcppParams(4))
    message = [3, 1, 4, 5]
    word = composed.materialize(layout, message)
    return layout, message, word


def test_layout_counts_t1_t2(t1, t2):
    layout1 = t1[0]
    assert layout1.point_keys == 16 * 16
    assert layout1.line_keys == 16 * 5 * 4
    assert layout1.proof_len == 27
    assert layout1.repetitions == 972
    assert layout1.length == 972 * 16 + (256 + 320) * 27
    layout2 = t2[0]
    assert layout2.point_keys == 512 * 64
    assert layout2.line_keys == 512 * 73 * 8
    assert layout2.repetitions == 17496
    assert layout2.length == 17496 * 512 + 331776 * 27
    assert layout2.repetitions >= 1 and layout1.repetitions >= 1


def test_dimension_mismatch_rejected():
    ctx = Field(2, 3)
    with pytest.raises(ValueError):
        composed.ComposedLayout(rm.RmParams(ctx, 2, 1), PcppParams(4))


def test_address_decode_bijection(t2, rng):
    layout = t2[0]
    borders = [
        0,
        layout.rm_length - 1,
        layout.rm_length,
        layout.line_region_base - 1,
        layout.line_region_base,
        layout.length - 1,
    ]
    addrs = borders + [rng.randrange(layout.length) for _ in range(20000)]
    for addr in addrs:
        region, a, b = layout.decode(addr)
        if region == composed.RM_REGION:
            back = layout.rm_address(a, b)
        else:
            back = layout.block_address(region, a) + b
        assert back == addr
    with pytest.raises(IndexError):
        layout.decode(layout.length)


def test_key_field_roundtrips(t2):
    layout = t2[0]
    for key_idx in (0, 1, 777, layout.point_keys - 1):
        a, d1, d2 = layout.key_fields(composed.POINT_REGION, key_idx)
        assert layout.key_index(composed.POINT_REGION, a, d1, d2) == key_idx
        assert layout.point_key_index(a, d1, d2) == key_idx
    for key_idx in (0, 5, 4242, layout.line_keys - 1):
        a, r, d2 = layout.key_fields(composed.LINE_REGION, key_idx)
        assert layout.key_index(composed.LINE_REGION, a, r, d2) == key_idx


def test_zero_message_reads_zero(t1):
    layout = t1[0]
    oracle = composed.CanonicalOracle(layout, [0, 0, 0])
    rng = random.Random(9)
    for _ in range(500):
        assert oracle.read(rng.randrange(layout.length)) == 0


def test_rm_copies_agree(t2, rng):
    layout, _, word = t2
    for _ in range(300):
        pcode = rng.randrange(layout.rm_points)
        j = rng.randrange(layout.repetitions)
        assert word[layout.rm_address(j, pcode)] == word[pcode]


def test_lazy_oracle_matches_materialized(t2, rng):
    layout, message, word = t2
    oracle = composed.CanonicalOracle(layout, message)
    for _ in range(10_000):
        addr = rng.randrange(layout.length)
        assert oracle.read(addr) == int(word[addr])


def test_lazy_oracle_memos_stay_bounded(t2, monkeypatch):
    # tiny bounds, so both memos evict all the time
    monkeypatch.setattr(composed, "POINT_MEMO", 8)
    monkeypatch.setattr(composed, "PROOF_MEMO", 4)
    layout, message, word = t2
    oracle = composed.CanonicalOracle(layout, message)
    rng = random.Random(17)
    # a few hot addresses come back after their entries were evicted
    hot = [rng.randrange(layout.rm_length) for _ in range(3)]
    hot += [layout.rm_length + rng.randrange(layout.length - layout.rm_length) for _ in range(3)]
    for i in range(3000):
        addr = hot[i % len(hot)] if i % 5 == 0 else rng.randrange(layout.length)
        assert oracle.read(addr) == int(word[addr])
        assert oracle._points.cache_info().currsize <= 8
        assert oracle._proofs.cache_info().currsize <= 4
    assert oracle._points.cache_info().misses > 8
    assert oracle._proofs.cache_info().misses > 4


def test_dropped_oracle_is_freed_without_the_cycle_collector(t1):
    layout, message, _ = t1
    oracle = composed.CanonicalOracle(layout, message)
    oracle.read(0)
    oracle.read(layout.point_region_base)
    ref = weakref.ref(oracle)
    gc.disable()
    try:
        del oracle
        assert ref() is None
    finally:
        gc.enable()


# every size decode and the region bases read, cached per layout
CACHED_SIZES = (
    "proof_len", "rm_points", "h_count", "point_keys", "line_keys",
    "predicate_count", "repetitions", "rm_length", "point_region_base",
    "line_region_base", "length",
)


@pytest.mark.parametrize("preset", [(2, 2, 1), (2, 3, 1), (17, 3, 32)])
def test_cached_layout_sizes(preset):
    p, m, d = preset
    ctx = Field(p, m)
    layout = composed.ComposedLayout(rm.RmParams(ctx, m, d), PcppParams(4))
    fresh = composed.ComposedLayout(rm.RmParams(ctx, m, d), PcppParams(4))
    for name in CACHED_SIZES:
        recompute = vars(composed.ComposedLayout)[name].func
        assert getattr(layout, name) == recompute(layout) == recompute(fresh)
        assert name in vars(layout)
    # cached values live outside the dataclass fields: equality, hashing
    # and the repr see only (rm, pcpp)
    assert layout == fresh and hash(layout) == hash(fresh)
    assert repr(layout) == repr(fresh)
    assert layout != composed.ComposedLayout(rm.RmParams(ctx, m, d), PcppParams(5))
    with pytest.raises(AttributeError):
        layout.length = 0


def test_degenerate_blocks_are_zero(t1):
    layout, message, word = t1
    zero_count = 0
    for key_idx in range(layout.point_keys):
        plane, _ = layout.key_plane(composed.POINT_REGION, key_idx)
        lo = layout.block_address(composed.POINT_REGION, key_idx)
        if plane is None:
            zero_count += 1
            assert not word[lo : lo + layout.proof_len].any()
    # GF(4), H = GF(2): per anchor 16 (dir1, dir2) pairs, 7 degenerate
    # (dir1 = 0: 4, plus dir1 nonzero with dir2 in {0, dir1}: 3*2 = 6 -> 10)
    assert zero_count == 16 * (4 + 3 * 2)


def _scalar_lattices(layout, region, d):
    """Reference for lattice_codes, one (dir1, dir2) pair at a time: the
    scalar key plane of the pair at anchor 0, its plane_point_at offsets
    at the degree-d lattice points (j, k) in monomial_basis(2, d) order,
    added to every anchor's base-p digits mod p, then point codes.
    Returns the live mask over pairs and the codes, shape (anchor, pair,
    lattice point), zero at degenerate pairs."""
    ctx, p, m = layout.ctx, layout.ctx.p, layout.ctx.m
    dir1_count = layout.key_tables[region].dir1_count
    lattice = rm.monomial_basis(2, d)
    # digits[a, i, c]: base-p digit c of coordinate i of anchor a
    digits = np.array(
        [
            [ctx.coeffs_of(c) for c in point_from_code(ctx, a)]
            for a in range(layout.rm_points)
        ],
        dtype=np.int64,
    )
    live = np.zeros((dir1_count, layout.h_count), dtype=bool)
    codes = np.zeros((layout.rm_points,) + live.shape + (len(lattice),), dtype=np.int64)
    for d1 in range(dir1_count):
        for d2 in range(layout.h_count):
            plane, _ = layout.key_plane(region, layout.key_index(region, 0, d1, d2))
            if plane is None:
                continue
            origin = PlaneRep((0,) * m, plane.dir1, plane.dir2)
            offsets = np.array(
                [
                    [ctx.coeffs_of(c) for c in plane_point_at(ctx, origin, j, k)]
                    for j, k in lattice
                ],
                dtype=np.int64,
            )
            # coords[a, l, i]: coordinate i of lattice point l of anchor a
            coords = (digits[:, None] + offsets) % p @ (p ** np.arange(m))
            live[d1, d2] = True
            codes[:, d1, d2] = coords @ (ctx.n ** np.arange(m))
    return live.reshape(-1), codes.reshape(layout.rm_points, live.size, -1)


# T1, T2 and GF(3^2): with p = 3, v = 2u is a colinear H-pair
@pytest.mark.parametrize("p, m", [(2, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("region", [composed.POINT_REGION, composed.LINE_REGION])
def test_lattice_codes_match_scalar_key_planes(p, m, region):
    ctx = Field(p, m)
    layouts = {
        d: composed.ComposedLayout(rm.RmParams(ctx, m, d), PcppParams(4))
        for d in (1, 2)
    }
    # key planes do not depend on d, and graded-lex order puts the d = 1
    # lattice first in the d = 2 one, so one scalar pass serves both degrees
    ref_live, ref_codes = _scalar_lattices(layouts[2], region, 2)
    for d, layout in layouts.items():
        # key i below the pair count is (dir1, dir2) pair i at anchor 0
        planes = [layout.key_plane(region, i)[0] for i in range(len(ref_live))]
        live = np.flatnonzero(ref_live)
        assert [i for i, plane in enumerate(planes) if plane is not None] == live.tolist()
        ref = ref_codes[:, live, : layout.rm.bivariate().k]
        got = composed.lattice_codes(layout, [planes[i] for i in live])
        assert np.array_equal(got, ref)
        # a chunk is any run of live pairs, down to one
        for i in (0, len(live) // 2, len(live) - 1):
            got = composed.lattice_codes(layout, [planes[live[i]]])
            assert np.array_equal(got, ref[:, i : i + 1])
    if p == 3 and region == composed.POINT_REGION:
        # u = (1, 0) has H-index 1 and v = 2u = (2, 0) has H-index 2
        assert not ref_live[layouts[1].key_index(region, 0, 1, 2)]
        assert planes[layouts[1].key_index(region, 0, 1, 2)] is None


@pytest.mark.parametrize("p, m, d", [(2, 2, 1), (3, 2, 2)])
def test_materialize_does_not_depend_on_the_chunk_size(p, m, d, monkeypatch):
    ctx = Field(p, m)
    layout = composed.ComposedLayout(rm.RmParams(ctx, m, d), PcppParams(4))
    r = random.Random(26)
    message = [r.randrange(ctx.n) for _ in range(layout.rm.k)]
    word = composed.materialize(layout, message)
    # one pair a chunk, then every region in one chunk
    for chunk in (1, layout.predicate_count):
        monkeypatch.setattr(composed, "CHUNK", chunk)
        assert np.array_equal(composed.materialize(layout, message), word)


def test_materialize_working_memory_is_bounded(t2):
    # chunked: about 1 MB above the 36 MB word at T2, where interpolating
    # a whole region at once held 87 MB of temporaries
    layout, message, word = t2
    tracemalloc.start()
    try:
        composed.materialize(layout, message)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= word.nbytes + 8 * 2**20


# T2, and GF(3^2) at d = 2, where the lattice is not the whole node grid
@pytest.mark.parametrize("p, m, d", [(2, 3, 1), (3, 2, 2)])
def test_materialized_triangles_are_the_key_plane_restrictions(p, m, d):
    # no interpolation: every live key's triangle, evaluated over its whole
    # plane, must give the RM table at that plane's points
    ctx = Field(p, m)
    layout = composed.ComposedLayout(rm.RmParams(ctx, m, d), PcppParams(4))
    r = random.Random(15)
    message = [r.randrange(ctx.n) for _ in range(layout.rm.k)]
    word = composed.materialize(layout, message)
    table = rm.eval_table(layout.rm, message)
    n = ctx.n
    tt, ss = np.divmod(np.arange(n * n), n)
    # monomials[i, g] = t^a s^b for basis entry i = (a, b) at grid position g
    monomials = np.array(
        [
            [ctx.mul(ctx.pow(t, a), ctx.pow(s, b)) for t, s in zip(tt.tolist(), ss.tolist())]
            for a, b in layout.rm.bivariate().basis
        ],
        dtype=np.int64,
    )
    anchors = np.arange(layout.rm_points, dtype=np.int64)
    anchor_coords = [c[:, None] for c in point_from_code(ctx, anchors)]
    for region in (composed.POINT_REGION, composed.LINE_REGION):
        keys = layout.key_tables[region]
        for d1 in range(keys.dir1_count):
            u = keys.dir1_of(d1)
            for d2 in range(layout.h_count):
                v = ctx.coeffs_of(d2)
                if not spans_plane(ctx, u, v):
                    continue
                starts = layout.block_address(
                    region, layout.key_index(region, anchors, d1, d2)
                )
                blocks = word[starts[:, None] + np.arange(layout.proof_len)]
                copies = blocks.reshape(len(anchors), -1, layout.rm.bivariate().k)
                assert (copies == copies[:, :1]).all()
                got = rm.fmatmul(ctx, copies[:, 0].astype(np.int64), monomials)
                codes = codes_of(ctx, points_at(ctx, anchor_coords, (u, v), (tt, ss)))
                assert np.array_equal(got, table[codes])


@pytest.mark.parametrize(
    "p, m, d, message", [(2, 2, 1, [1, 2, 3]), (3, 2, 2, [1, 5, 0, 8, 2, 7])]
)
def test_materialized_word_matches_lazy_oracle_everywhere(p, m, d, message):
    ctx = Field(p, m)
    layout = composed.ComposedLayout(rm.RmParams(ctx, m, d), PcppParams(4))
    word = composed.materialize(layout, message)
    oracle = composed.CanonicalOracle(layout, message)
    assert word.tolist() == [oracle.read(addr) for addr in range(layout.length)]


@pytest.mark.parametrize("region", [composed.POINT_REGION, composed.LINE_REGION])
def test_s1_proof_block_is_build_proof_of_the_restriction(region):
    # the oracle tiles the int32 triangle of its own restrictor;
    # build_proof of the one-off restriction is the definition
    layout = composed.ComposedLayout(harness.make_config(preset="S1").rm, PcppParams(4))
    r = random.Random(22)
    message = [r.randrange(layout.ctx.n) for _ in range(layout.rm.k)]
    oracle = composed.CanonicalOracle(layout, message)
    count = layout.point_keys if region == composed.POINT_REGION else layout.line_keys
    checked = 0
    while checked < 3:
        key = r.randrange(count)
        plane, _ = layout.key_plane(region, key)
        if plane is None:
            continue
        tri = rm.PlaneRestrictor(layout.rm, message).restrict(plane).tolist()
        block = oracle.proof_block(region, key)
        assert block.dtype == np.int32 and not block.flags.writeable
        assert block.tolist() == list(build_proof(layout.rm.bivariate(), layout.pcpp, tri))
        checked += 1


def test_overlay_empty_is_identity(t1, rng):
    layout, message, word = t1
    oracle = composed.CanonicalOracle(layout, message)
    overlay = composed.Overlay(layout, seed=4)
    wrapped = composed.OverlayOracle(oracle, overlay)
    for _ in range(300):
        addr = rng.randrange(layout.length)
        assert wrapped.read(addr) == int(word[addr])
    assert overlay.expected_fraction() == 0


def test_overlay_targeted_all_copies(t1):
    layout, message, word = t1
    overlay = composed.Overlay(layout, seed=4)
    overlay.add_targeted_point((0, 1), delta=1)
    arr = word.copy()
    overlay.apply_to_array(arr)
    pcode = point_code(layout.ctx, (0, 1))
    diff = np.flatnonzero(arr != word)
    expect = [layout.rm_address(j, pcode) for j in range(layout.repetitions)]
    assert diff.tolist() == expect
    # scalar reads agree with the array application
    oracle = composed.CanonicalOracle(layout, message)
    wrapped = composed.OverlayOracle(oracle, overlay)
    for addr in (expect[0], expect[-1], 3, layout.length - 1):
        assert wrapped.read(addr) == int(arr[addr])


def test_overlay_region_random_binomial(t2):
    layout, message, word = t2
    overlay = composed.Overlay(layout, seed=77)
    overlay.add_region_random(0.1, regions=(composed.RM_REGION,))
    arr = word.copy()
    counts = overlay.apply_to_array(arr)
    frac = counts[composed.RM_REGION] / layout.rm_length
    se = (0.1 * 0.9 / layout.rm_length) ** 0.5
    assert abs(frac - 0.1) <= 3 * se
    # untouched regions stay intact
    assert (arr[layout.point_region_base :] == word[layout.point_region_base :]).all()
    # scalar path agrees with the bulk path on a sample
    oracle = composed.CanonicalOracle(layout, message)
    wrapped = composed.OverlayOracle(oracle, overlay)
    rng = random.Random(1)
    for _ in range(2000):
        addr = rng.randrange(layout.length)
        assert wrapped.read(addr) == int(arr[addr])


def test_overlay_rates_zero_and_one(t1):
    layout, message, word = t1
    oracle = composed.CanonicalOracle(layout, message)
    for rate, expect in ((0.0, 0), (1.0, layout.rm_length)):
        overlay = composed.Overlay(layout, seed=5)
        overlay.add_region_random(rate, regions=(composed.RM_REGION,))
        arr = word.copy()
        assert overlay.apply_to_array(arr)[composed.RM_REGION] == expect
        assert int((arr != word).sum()) == expect
        wrapped = composed.OverlayOracle(oracle, overlay)
        for addr in range(0, layout.rm_length, 97):
            assert wrapped.read(addr) == int(arr[addr])


@pytest.fixture(scope="module")
def span_oracles(t1, t2):
    """Lazy honest words at T1, T2 and S1, keyed by preset."""
    s1 = composed.ComposedLayout(harness.make_config(preset="S1").rm, PcppParams(4))
    rng = random.Random(33)
    s1_message = [s1.ctx.rand_element(rng) for _ in range(s1.rm.k)]
    return {
        "T1": composed.CanonicalOracle(t1[0], t1[1]),
        "T2": composed.CanonicalOracle(t2[0], t2[1]),
        "S1": composed.CanonicalOracle(s1, s1_message),
    }


@pytest.mark.parametrize("preset", ["T1", "T2", "S1"])
@settings(derandomize=True, max_examples=15, deadline=None)
@given(data=st.data())
def test_overlay_span_reads_match_symbol_reads(span_oracles, preset, data):
    # whole-word keyed noise plus targeted RM flips, read as spans of
    # one proof block and symbol by symbol
    oracle = span_oracles[preset]
    layout = oracle.layout
    ctx = layout.ctx
    overlay = composed.Overlay(layout, data.draw(st.integers(0, 2**63 - 1)))
    overlay.add_region_random(data.draw(st.sampled_from((0.0, 0.01, 0.3, 1.0))))
    point = tuple(data.draw(st.integers(0, ctx.n - 1)) for _ in range(ctx.m))
    overlay.add_targeted_point(point)
    word = composed.OverlayOracle(oracle, overlay)
    keys = {composed.POINT_REGION: layout.point_keys, composed.LINE_REGION: layout.line_keys}
    region = data.draw(st.sampled_from(sorted(keys)))
    key_idx = data.draw(st.integers(0, keys[region] - 1))
    block = layout.block_address(region, key_idx)
    size = layout.proof_len
    lo = block + data.draw(st.integers(0, size - 1))
    hi = data.draw(st.integers(lo + 1, block + size))
    symbols = [word.read(a) for a in range(lo, hi)]
    assert word.read_span(lo, hi).tolist() == symbols
    # the verifier's adapter reads the word's spans
    span = composed.span_reader(word.read, block)(lo - block, hi - block)
    assert isinstance(span, np.ndarray) and span.tolist() == symbols
    # a span that leaves the block raises
    with pytest.raises(ValueError, match="one proof block"):
        word.read_span(lo, block + size + data.draw(st.integers(1, size)))


def test_span_reader_of_a_plain_reader(t1):
    layout, _, word = t1
    read = lambda a: int(word[a])
    base = layout.point_region_base
    assert composed.span_reader(read, base)(5, 12) == word[base + 5 : base + 12].tolist()


def test_honest_s1_correction_reads_its_budget():
    # an honest, noiseless S1 Algorithm-2 call reads exactly the verifier
    # budget on each of the m + 1 walk planes, plus the final symbol
    layout = composed.ComposedLayout(harness.make_config(preset="S1").rm, PcppParams(4))
    ctx = layout.ctx
    rng = random.Random(34)
    oracle = composed.CanonicalOracle(
        layout, [ctx.rand_element(rng) for _ in range(layout.rm.k)]
    )
    pcode = point_code(ctx, sample_point(ctx, rng))
    counter = QueryCounter()
    out = composed.correct_rm(
        layout, oracle.read, layout.rm_address(2, pcode), rng, counter
    )
    assert out == oracle.point_value(pcode)
    report = composed.block_length_report(layout)
    walk = ctx.m + 1
    assert (counter.word, counter.proof) == (
        walk * report["verifier_word_queries"] + 1,
        walk * report["verifier_proof_queries"],
    ) == (33, 9008)


def test_correct_rm_completeness_exhaustive_t1(t1):
    layout, _, word = t1
    read = lambda a: int(word[a])
    for addr in range(layout.rm_length):
        rng = random.Random(addr)
        out = composed.correct_rm(layout, read, addr, rng)
        assert out == int(word[addr])


def test_correct_proof_completeness_exhaustive_t1(t1):
    layout, _, word = t1
    read = lambda a: int(word[a])
    for addr in range(layout.rm_length, layout.length):
        rng = random.Random(addr)
        out = composed.correct_proof(layout, read, addr, rng)
        assert out == int(word[addr])


def test_correct_rm_region_check(t1):
    layout, _, word = t1
    read = lambda a: int(word[a])
    with pytest.raises(ValueError):
        composed.correct_rm(layout, read, layout.rm_length, random.Random(0))
    with pytest.raises(ValueError):
        composed.correct_proof(layout, read, 0, random.Random(0))


def test_correct_rm_output_discipline(t1):
    # with every copy flipped at x, any non-abort output equals the read
    # value, so outputs stay in {flipped value, BOT}: never the clean symbol
    layout, message, word = t1
    oracle = composed.CanonicalOracle(layout, message)
    pcode = point_code(layout.ctx, (1, 0))
    truth = oracle.point_value(pcode)
    flipped = (truth + 2) % layout.ctx.n
    overlay = composed.Overlay(layout, seed=5)
    overlay.add_targeted_point((1, 0), delta=2)
    wrapped = composed.OverlayOracle(oracle, overlay)
    outs = set()
    for i in range(60):
        rng = random.Random(i)
        out = composed.correct_rm(
            layout, wrapped.read, layout.rm_address(i % layout.repetitions, pcode), rng
        )
        outs.add("BOT" if out is BOT else out)
    assert outs <= {"BOT", flipped}


def test_correct_proof_heavy_word_corruption_aborts(t2):
    # whole RM region replaced by far garbage: the walk checks collapse
    layout, message, word = t2
    arr = word.copy()
    npr = np.random.Generator(np.random.PCG64(3))
    arr[: layout.rm_length] = npr.integers(0, 8, size=layout.rm_length)
    read = lambda a: int(arr[a])
    bots = 0
    runs = 120
    for i in range(runs):
        rng = random.Random(i)
        addr = layout.rm_length + rng.randrange(layout.length - layout.rm_length)
        if composed.correct_proof(layout, read, addr, rng) is BOT:
            bots += 1
    assert bots / runs >= 0.5  # far-acceptance of the verifier is below 1/2


def test_markov_copy_conditioning(t2):
    # corrupt half the copies heavily: trials that sample a clean copy
    # succeed more often, which is the repetition/Markov effect
    layout, message, word = t2
    arr = word.copy()
    half = layout.repetitions // 2
    npr = np.random.Generator(np.random.PCG64(8))
    cut = half * layout.rm_points
    noise_mask = npr.random(cut) < 0.25
    arr[:cut][noise_mask] = (arr[:cut][noise_mask] + 1 + npr.integers(0, 7, size=int(noise_mask.sum()))) % 8
    read = lambda a: int(arr[a])
    x = (3, 5, 1)
    pcode = point_code(layout.ctx, x)
    truth = int(word[pcode])
    good = {True: [0, 0], False: [0, 0]}  # keyed by sampled-copy-clean
    for i in range(400):
        seed = f"markov/{i}"
        sampled_copy = random.Random(seed).randrange(layout.repetitions)
        clean = sampled_copy >= half
        out = composed.correct_rm(
            layout, read, layout.rm_address(0, pcode), random.Random(seed)
        )
        good[clean][0] += (out is BOT) or out == truth
        good[clean][1] += 1
    rate_clean = good[True][0] / good[True][1]
    rate_dirty = good[False][0] / good[False][1]
    assert rate_clean >= rate_dirty - 0.05
    assert rate_clean == 1.0  # clean copies always return truth or abort


def test_block_length_report(t2):
    layout = t2[0]
    rep = composed.block_length_report(layout)
    assert rep["N"] == layout.length
    assert rep["rate"] == Fraction(4, layout.length)
    assert rep["distance_lower_bound"] == Fraction(7, 16)
    assert rep["B_paper"] == 2 * 512 * 64 * 64
    assert rep["N_paper_bound"] == 512 + 2 * rep["B_paper"] * 27


def test_sweep_exponent_decreases():
    pcpp = PcppParams(4)
    rows = []
    for p, m in [(2, 2), (2, 3)]:
        ctx = Field(p, m)
        d = max(1, round(ctx.n / 4))
        rows.append(
            composed.block_length_report(
                composed.ComposedLayout(rm.RmParams(ctx, m, d), pcpp)
            )
        )
    assert rows[0]["exponent_paper"] > rows[1]["exponent_paper"]
