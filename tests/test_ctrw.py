import random
from fractions import Fraction

import numpy as np
import pytest

from rlcc import ctrw, rm
from rlcc.geometry import (
    is_colinear,
    is_zero,
    plane_codes_at,
    plane_point_at,
    point_code,
    sample_point,
)
from rlcc.gf import Field
from rlcc.stats import chi_square_pvalue

from reference import line_points, plane_points, violation_check_exact


def test_walk_transcript_shape(gf8, rng):
    params = rm.RmParams(gf8, 3, 1)
    x = sample_point(gf8, rng)
    tr = ctrw.walk_sample(params, x, rng)
    assert len(tr.planes) == 4
    assert len(tr.resamples_steps) == 3
    assert tr.planes[0].anchor == x
    # P0 is an H-plane: both directions in H^m
    assert all(c < gf8.p for c in tr.planes[0].dir1 + tr.planes[0].dir2)


def test_walk_invariants(gf8, rng):
    params = rm.RmParams(gf8, 3, 1)
    for _ in range(50):
        x = sample_point(gf8, rng)
        tr = ctrw.walk_sample(params, x, rng)
        for i in range(1, 4):
            prev, plane = tr.planes[i - 1], tr.planes[i]
            # the line of step i, plane i's anchor line, lies in P_{i-1}
            prev_points = set(plane_points(gf8, prev))
            assert plane.anchor in prev_points
            assert plane_point_at(gf8, plane, 1, 0) in prev_points
            assert not is_zero(plane.dir1)
            # a fresh H^m second direction off the line
            assert all(c < gf8.p for c in plane.dir2)
            assert not is_colinear(gf8, plane.dir1, plane.dir2)


def test_walk_deterministic(gf8):
    params = rm.RmParams(gf8, 3, 1)
    t1 = ctrw.walk_sample(params, (1, 2, 3), random.Random(42))
    t2 = ctrw.walk_sample(params, (1, 2, 3), random.Random(42))
    assert t1 == t2


def test_walk_x1_in_p0(gf4, rng):
    params = rm.RmParams(gf4, 2, 1)
    tr = ctrw.walk_sample(params, (0, 0), rng)
    assert tr.planes[1].anchor in set(plane_points(gf4, tr.planes[0]))


def test_line_and_plane_codes_match_scalar(gf8, rng):
    params = rm.RmParams(gf8, 3, 1)
    tr = ctrw.walk_sample(params, sample_point(gf8, rng), rng)
    plane = tr.planes[1]
    # the line of step 1 is plane 1's anchor line, grid column k = 0
    codes = plane_codes_at(gf8, plane, np.arange(gf8.n), 0)
    line = line_points(gf8, plane.anchor, plane.dir1)
    assert codes.tolist() == [point_code(gf8, p) for p in line]
    pcodes = ctrw.plane_codes(params, plane)
    assert pcodes.tolist() == [point_code(gf8, p) for p in plane_points(gf8, plane)]


def test_ctrw_accept_on_codewords(gf8, rng):
    params = rm.RmParams(gf8, 3, 1)
    for _ in range(20):
        coeffs = tuple(rng.randrange(gf8.n) for _ in range(params.k))
        word = rm.eval_table(params, coeffs)
        verdict = ctrw.ctrw_accept(params, word, sample_point(gf8, rng), rng)
        assert verdict == ctrw.ACCEPT


def test_ctrw_accepts_zero_word(gf8, rng):
    params = rm.RmParams(gf8, 3, 1)
    word = np.zeros(gf8.n**3, dtype=np.int64)
    verdict = ctrw.ctrw_accept(params, word, (0, 0, 0), rng)
    assert verdict == ctrw.ACCEPT


def test_ctrw_rejects_blotted_plane(gf8):
    # codeword with one plane fully randomized; the walk is forced
    # through it by starting at its anchor with its directions
    params = rm.RmParams(gf8, 3, 1)
    rejections = 0
    runs = 200
    for i in range(runs):
        rng = random.Random(i)
        coeffs = tuple(rng.randrange(gf8.n) for _ in range(params.k))
        word = rm.eval_table(params, coeffs).copy()
        x = sample_point(gf8, rng)
        tr = ctrw.walk_sample(params, x, rng)
        blot = tr.planes[0]
        codes = ctrw.plane_codes(params, blot)
        word[codes] = [rng.randrange(gf8.n) for _ in range(len(codes))]
        # replay the same walk randomness so P_0 is the blotted plane
        verdict = ctrw.ctrw_accept(params, word, x, random.Random(i))
        rejections += verdict == ctrw.REJECT
    assert rejections / runs >= 0.999


def test_point_corruption_support_and_reads(gf8, rng):
    params = rm.RmParams(gf8, 3, 1)
    corr = ctrw.PointCorruption(params, seed=7, density=0.25)
    corr.target_point((1, 1, 1), delta=3)
    codes = np.arange(gf8.n**3, dtype=np.int64)
    mask = corr.corrupt_mask(codes)
    # scalar and vector predicates agree, targeted point always corrupt
    for c in range(gf8.n**3):
        assert corr.is_corrupt_code(c) == bool(mask[c])
    assert corr.is_corrupt_code(point_code(gf8, (1, 1, 1)))
    # reads differ from base exactly on the support
    for c in range(gf8.n**3):
        assert (corr.read(2, c) != 2) == bool(mask[c])
    # density lands near the nominal rate
    realized = mask.mean()
    assert abs(realized - 0.25) <= 3 * (0.25 * 0.75 / len(codes)) ** 0.5 + 1e-3


def test_point_corruption_density_zero_and_one(gf8):
    params = rm.RmParams(gf8, 3, 1)
    codes = np.arange(gf8.n**3, dtype=np.int64)
    for density, expect in ((0.0, False), (1.0, True)):
        corr = ctrw.PointCorruption(params, seed=11, density=density)
        mask = corr.corrupt_mask(codes)
        assert (mask == expect).all()
        assert all(corr.is_corrupt_code(c) == expect for c in range(len(codes)))
        assert all((corr.read(2, c) != 2) == expect for c in range(len(codes)))


def test_corrupt_mask_keeps_its_input_and_flags_targets(gf8):
    params = rm.RmParams(gf8, 3, 1)
    corr = ctrw.PointCorruption(params, seed=5, density=0.3)
    # a target that the keyed noise alone leaves clean
    target = next(
        pt for pt in ((1, 2, c) for c in range(gf8.n))
        if not corr.is_corrupt_code(point_code(gf8, pt))
    )
    corr.target_point(target)
    codes = np.random.default_rng(5).integers(0, gf8.n**3, size=300)
    codes[[17, 250]] = point_code(gf8, target)
    before = codes.copy()
    mask = corr.corrupt_mask(codes)
    assert (codes == before).all()
    assert mask[17] and mask[250]
    assert mask.tolist() == [corr.is_corrupt_code(c) for c in codes.tolist()]


def test_violation_check_exact_matches_planted(gf4):
    # both verdict paths agree on tiny parameters where both apply
    params = rm.RmParams(gf4, 2, 1)
    alpha = params.rho / 8
    agree = 0
    for i in range(30):
        rng = random.Random(i)
        coeffs = tuple(rng.randrange(4) for _ in range(params.k))
        corr = ctrw.PointCorruption(params, seed=i, density=0.15)
        x = sample_point(gf4, rng)
        corr.target_point(x, delta=1 + rng.randrange(3))
        base = rm.eval_table(params, coeffs)
        table = np.array(
            [corr.read(int(v), code) for code, v in enumerate(base)], dtype=np.int64
        )
        tr = ctrw.walk_sample(params, x, rng)
        exact = violation_check_exact(params, table, tr, alpha)
        planted = ctrw.violation_check_planted(params, corr, tr, alpha, rng)
        # the planted path is conservative: it may miss violations the
        # exact path finds, but must never claim one that is not there
        if planted.violated:
            assert exact.violated
        for pb_e, pb_p in zip(exact.distances, planted.distances):
            assert pb_p.lower <= pb_e.lower <= pb_p.upper
        agree += planted.violated == exact.violated
    assert agree >= 25


def test_linearity_reduction(gf4):
    # verdicts on (w, c*) match verdicts on (w - c*, 0): the exact path
    # is shift-invariant because the code is linear
    params = rm.RmParams(gf4, 2, 1)
    alpha = params.rho / 8
    for i in range(20):
        rng = random.Random(1000 + i)
        coeffs = tuple(rng.randrange(4) for _ in range(params.k))
        cw = rm.eval_table(params, coeffs)
        noise = np.array(
            [rng.randrange(4) if rng.random() < 0.2 else 0 for _ in range(16)],
            dtype=np.int64,
        )
        word = np.array(
            [gf4.add(int(a), int(b)) for a, b in zip(cw, noise)], dtype=np.int64
        )
        x = sample_point(gf4, rng)
        tr = ctrw.walk_sample(params, x, rng)
        v1 = violation_check_exact(params, word, tr, alpha)
        v2 = violation_check_exact(params, noise, tr, alpha)
        assert v1.violated == v2.violated
        assert [b.lower for b in v1.distances] == [b.lower for b in v2.distances]


def test_mixing_bound_tiny(gf8):
    params = rm.RmParams(gf8, 3, 1)
    rng = random.Random(5)
    corr = ctrw.PointCorruption(params, seed=11, density=0.1)
    rep = ctrw.mixing_exp(params, corr, 2000, rng)
    assert rep["ok"]
    assert rep["bound"] == 0.1 + 2 / gf8.p
    empty = ctrw.PointCorruption(params, seed=1, density=0.0)
    rep = ctrw.mixing_exp(params, empty, 200, rng)
    assert rep["estimate"] == 0.0
    full = ctrw.PointCorruption(params, seed=1, density=1.0)
    rep = ctrw.mixing_exp(params, full, 200, rng)
    assert rep["estimate"] == 1.0


def test_step_resample_rate(gf8):
    params = rm.RmParams(gf8, 3, 1)
    rng = random.Random(17)
    total = 0
    steps = 0
    for _ in range(2000):
        tr = ctrw.walk_sample(params, sample_point(gf8, rng), rng)
        total += sum(tr.resamples_steps)
        steps += gf8.m
    rate = total / steps
    bound = 3 / gf8.n
    assert rate <= bound + 3 * (bound * (1 - bound) / steps) ** 0.5


def test_matrix_product_exhaustive_p2m2():
    rep = ctrw.matrix_product_check(2, 2, "exhaustive")
    assert rep["singular_fraction"] == Fraction(10, 16)
    assert rep["invertible_count"] == 6
    assert rep["uniform_exact"]
    assert rep["hits_per_product"] == 6
    assert rep["pairs"] == 96
    assert rep["sum_bound"] == Fraction(3, 4)
    assert rep["singular_ok"]
    assert rep["exact_singular_formula"] == Fraction(10, 16)


def test_matrix_product_sampled_p3m2():
    rng = random.Random(23)
    rep = ctrw.matrix_product_check(3, 2, "sampled", trials=200_000, rng=rng)
    assert rep["uniform_ok"]
    exact = 1 - Fraction((9 - 1) * (9 - 3), 81)
    se = float(exact * (1 - exact) / 200_000) ** 0.5
    assert abs(float(rep["singular_fraction"]) - float(exact)) <= 4 * se


def test_matrix_product_sampled_detects_a_biased_product(monkeypatch):
    # S1's field, 1000 draws: about 940 kept, so the chi-square runs on
    # the product's (0, 0) entry, 17 cells of about 55 draws each
    def check(trials):
        return ctrw.matrix_product_check(17, 3, "sampled", trials, random.Random(5))

    rep = check(1000)
    assert rep["uniform_entries"] == 1 and rep["uniform_ok"]
    honest = ctrw._mat_mul

    def biased(a, b, p, m):
        # (0, 0) never reads p - 1: one cell in p empties into cell 0
        prod = honest(a, b, p, m)
        head = (prod[0][0] % (p - 1),) + prod[0][1:]
        return (head,) + prod[1:]

    monkeypatch.setattr(ctrw, "_mat_mul", biased)
    rep = check(1000)
    assert rep["uniform_entries"] == 1 and not rep["uniform_ok"]
    # too few draws for 5 per cell even on one entry: nothing is tested
    monkeypatch.setattr(ctrw, "_mat_mul", honest)
    rep = check(60)
    assert rep["uniform_entries"] == 0 and rep["chi2_pvalue"] is None
    assert not rep["uniform_ok"]


def test_matrix_chi_square_matches_the_enumerating_formula():
    # the 3^9 products of T3, most never drawn: the statistic over the
    # drawn cells plus the empty ones equals the sum over every cell
    from scipy.stats import chi2

    cells, draws = 3**9, 5000
    rng = random.Random(12)
    hist = {}
    for _ in range(draws):
        c = rng.randrange(cells)
        hist[c] = hist.get(c, 0) + 1
    e = draws / cells
    stat = sum((hist.get(c, 0) - e) ** 2 / e for c in range(cells))
    got = chi_square_pvalue(list(hist.values()), cells)
    assert got == pytest.approx(chi2.sf(stat, cells - 1), rel=1e-9)


def test_line_sampling_trivial_sets(gf8):
    rep = ctrw.line_sampling_exp(gf8, [], [Fraction(1, 4)])
    assert rep["rows"][0]["tail_fraction"] == 0
    rep = ctrw.line_sampling_exp(gf8, range(64), [Fraction(1, 4)])
    assert rep["rows"][0]["tail_fraction"] == 0
    assert rep["ok"]


def test_line_sampling_montecarlo_mode(gf27):
    rng = random.Random(12)
    rep = ctrw.line_sampling_exp(
        gf27, range(27 * 27 // 4), [Fraction(1, 4)], "montecarlo", 3000, rng
    )
    assert rep["pairs"] == 3000
    assert rep["ok"]
    with pytest.raises(ValueError):
        ctrw.line_sampling_exp(gf27, range(4), [Fraction(1, 4)], "exhaustive")


def test_line_sampling_density_quarter(gf8):
    rep = ctrw.line_sampling_exp(
        gf8, range(16), [Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)]
    )
    assert rep["mu"] == Fraction(1, 4)
    assert rep["pairs"] == 4096
    assert rep["ok"]
    by_eps = {row["eps"]: row for row in rep["rows"]}
    assert by_eps[Fraction(1, 4)]["bound"] == Fraction(1, 2)
    assert by_eps[Fraction(1, 2)]["bound"] == Fraction(1, 8)


class _TableCorruption(ctrw.PointCorruption):
    """Corruption whose support is an explicit difference table."""

    def __init__(self, params, table):
        super().__init__(params, 0, 0.0)
        self._table = np.asarray(table, dtype=np.int64)

    def is_corrupt_code(self, code):
        return bool(self._table[code])

    def corrupt_mask(self, codes):
        return self._table[codes] != 0


def test_event_bookkeeping_dense_regime(gf8):
    # the peeling argument assumes the start plane carries a dense
    # nonzero pattern; plant that with a nonzero-codeword difference
    # word and check the measured bounds it implies:
    #   P[all F_i] >= (1 - 4/|F|)^t - sum eps_i  (within 3 stderr)
    #   P[line sparse | prefix of F's] <= 4/|F|  (within 3 stderr)
    params = rm.RmParams(gf8, 3, 1)
    alpha = params.rho / 8
    steps = 3
    trials = 2000
    premise = 0
    tally = ctrw.PeelingTally(steps)
    master = random.Random(424242)
    for i in range(trials):
        rng = random.Random(master.randrange(2**63))
        coeffs = [0] * params.k
        while all(c == 0 for c in coeffs):
            coeffs = [gf8.rand_element(rng) for _ in range(params.k)]
        corr = _TableCorruption(params, rm.eval_table(params, tuple(coeffs)))
        tr = ctrw.walk_sample(params, sample_point(gf8, rng), rng)
        verdict = ctrw.violation_check_planted(params, corr, tr, alpha, rng)
        ev = ctrw.step_events(params, verdict, alpha)
        if not ev.p0_dense:
            continue
        premise += 1
        tally.add(ev)
    assert premise >= trials // 2
    freq = tally.f_all / premise
    bound = float((1 - Fraction(4, gf8.n)) ** steps) - sum(tally.eps) / premise
    assert freq >= bound - 3 * (freq * (1 - freq) / premise + 1e-9) ** 0.5
    cond = sum(tally.sparse) / sum(tally.prefix)
    line_bound = 4 / gf8.n
    assert cond <= line_bound + 3 * (line_bound * (1 - line_bound) / sum(tally.prefix)) ** 0.5


def test_step_events_densities(gf8):
    params = rm.RmParams(gf8, 3, 1)
    rng = random.Random(3)
    alpha = params.rho / 8
    # a full nonzero codeword difference: every plane is dense, E_i never
    coeffs = rm.encode(params, (1, 0, 0, 0))
    corr = _TableCorruption(params, rm.eval_table(params, coeffs))
    tr = ctrw.walk_sample(params, sample_point(gf8, rng), rng)
    ev = ctrw.step_events(
        params, ctrw.violation_check_planted(params, corr, tr, alpha, rng), alpha
    )
    assert ev.p0_dense
    assert all(ev.f_flags)
    assert not any(ev.e_flags)


def test_step_events_agree_with_sampled_verdict(gf8, monkeypatch):
    # planes are sampled, so a second estimate could disagree: the
    # events must be read off the verdict's own bounds and line counts
    monkeypatch.setattr(ctrw, "PLANE_EXACT_LIMIT", 16)
    monkeypatch.setattr(ctrw, "DEFAULT_PLANE_SAMPLES", 500)
    params = rm.RmParams(gf8, 3, 1)
    alpha = params.rho / 8
    thresh = params.rho - 2 * alpha
    seen = set()
    for i in range(40):
        rng = random.Random(i)
        corr = ctrw.PointCorruption(params, seed=i, density=0.8)
        x = sample_point(gf8, rng)
        corr.target_point(x, delta=1 + rng.randrange(gf8.n - 1))
        tr = ctrw.walk_sample(params, x, rng)
        verdict = ctrw.violation_check_planted(params, corr, tr, alpha, rng)
        ev = ctrw.step_events(params, verdict, alpha)
        dense = []
        for bound in verdict.distances:
            assert not bound.plane_bound.exact
            lo, hi = bound.plane_bound.as_fractions()
            dense.append(True if lo >= thresh else False if hi < thresh else None)
        assert ev.p0_dense == (dense[0] is True)
        assert ev.plane_dense == dense[1:]
        assert ev.line_counts == [bound.line_count for bound in verdict.distances[1:]]
        for cnt, plane in zip(ev.line_counts, tr.planes[1:]):
            line = line_points(gf8, plane.anchor, plane.dir1)
            codes = np.array([point_code(gf8, p) for p in line])
            assert cnt == int(corr.corrupt_mask(codes).sum())
        seen.update(dense)
    # both decided and undecided planes occur
    assert {True, None} <= seen
