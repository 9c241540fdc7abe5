"""Acceptance suite: one test per quantitative criterion.

Each test prints a single PASS/FAIL line (run with -s to see them all
live).  Tolerances are pinned here: exact equals exact, Monte-Carlo
assertions get three standard errors of slack.

Run time is dominated by the large-field criteria; the full suite is
sized for a workstation, not CI-per-commit.
"""

import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from rlcc import composed, ctrw, harness, rm
from rlcc.geometry import (
    is_zero,
    point_code,
    sample_point,
)
from rlcc.gf import Field
from rlcc.pcpp import BOT, PcppParams
from rlcc.stats import freq_meets_floor, stderr

from reference import (
    augment,
    dist_plain,
    dist_weighted,
    enumerate_codewords,
    line_points,
)


def report(num, ok, detail):
    print(f"CRITERION {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# -- 1 -----------------------------------------------------------------------


def test_c01_field_and_geometry_exhaustives():
    for p, m in [(2, 2), (2, 3), (3, 3)]:
        f = Field(p, m)
        n = f.n
        for a, b in product(range(n), repeat=2):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
        for a, b, c in product(range(n), repeat=3):
            assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        for a in range(1, n):
            assert f.mul(a, f.inv(a)) == 1
    gf4 = Field(2, 2)
    line_count = 0
    for anchor in product(range(4), repeat=2):
        for direction in product(range(4), repeat=2):
            if is_zero(direction):
                continue
            line_count += 1
            pts = line_points(gf4, anchor, direction)
            assert len(set(pts)) == 4
            brute = {
                tuple(
                    gf4.add(a, gf4.mul(t, d)) for a, d in zip(anchor, direction)
                )
                for t in range(4)
            }
            assert set(pts) == brute
    report(1, line_count == 240, f"field axioms exhaustive; {line_count} line reps checked")


# -- 2 -----------------------------------------------------------------------


def test_c02_rm_minimum_weight_exact():
    params = rm.RmParams(Field(2, 3), 3, 1)
    w = rm.min_nonzero_weight(params)
    report(2, w == 448, f"min weight over 4096 codewords = {w}, expected 448 = (1-1/8)*512")


# -- 3 -----------------------------------------------------------------------


def test_c03_matrix_product_claim_exhaustive():
    rep = ctrw.matrix_product_check(2, 2, "exhaustive")
    ok = (
        rep["uniform_exact"]
        and rep["hits_per_product"] == 6
        and rep["pairs"] == 96
        and rep["singular_fraction"] == Fraction(10, 16)
        and rep["singular_fraction"] <= rep["sum_bound"] == Fraction(3, 4)
        and rep["sum_bound"] <= rep["claim_bound"] * 1  # 2/|H| = 1
    )
    report(3, ok, f"H*T conditional distribution exact, singular = {rep['singular_fraction']}")


# -- 4 -----------------------------------------------------------------------


def test_c04_line_sampling_exhaustive():
    ctx = Field(2, 3)
    rep = ctrw.line_sampling_exp(
        ctx, range(16), [Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)]
    )
    detail = "; ".join(
        f"eps={row['eps']}: tail {row['tail_fraction']} <= {min(row['bound'], 1)}"
        for row in rep["rows"]
    )
    report(4, rep["ok"] and rep["pairs"] == 4096, detail)


# -- 5 -----------------------------------------------------------------------


def test_c05_ctrw_perfect_completeness():
    accepted = trials = 0
    for preset, count in (("T2", 1000), ("T3", 1000)):
        cfg = harness.make_config(preset=preset, kind="completeness", trials=count, seed=501)
        rep = harness.run_experiment(cfg)
        accepted += rep["accepted"]
        trials += count
    # exhaustive over every start for 10 random codewords at T2
    ctx = Field(2, 3)
    params = rm.RmParams(ctx, 3, 1)
    rng = random.Random(502)
    exhaustive_ok = True
    for _ in range(10):
        coeffs = tuple(ctx.rand_element(rng) for _ in range(params.k))
        word = rm.eval_table(params, coeffs)
        for pcode in range(ctx.n**3):
            x = tuple((pcode // ctx.n**i) % ctx.n for i in range(3))
            verdict = ctrw.ctrw_accept(params, word, x, rng)
            exhaustive_ok = exhaustive_ok and verdict == ctrw.ACCEPT
    ok = accepted == trials and exhaustive_ok
    report(5, ok, f"{accepted}/{trials} random pairs accepted; exhaustive starts x10 codewords: {exhaustive_ok}")


# -- 6 -----------------------------------------------------------------------


def test_c06_endpoint_mixing_s1():
    cfg = harness.make_config(preset="S1", kind="mixing", trials=10_000, seed=601)
    rep = harness.run_experiment(cfg)
    bound = float(Fraction(1, 10) + Fraction(2, 17))
    ok = rep["ok"] and abs(rep["bound"] - bound) < 1e-12
    report(
        6,
        ok,
        f"endpoint corruption rate {rep['estimate']:.6f} <= {bound:.6f} + 3*{rep['stderr']:.6f}",
    )


# -- 7 -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def s1_soundness_report():
    cfg = harness.make_config(preset="S1", kind="soundness", trials=2000, seed=701)
    return harness.run_experiment(cfg)


def test_c07_robust_soundness_s1(s1_soundness_report):
    rep = s1_soundness_report
    ok = rep["ok"] and rep["sigma_decimal"] == "0.705461"
    report(
        7,
        ok,
        f"violation freq {rep['frequency']:.4f} >= sigma {rep['sigma_decimal']} - 3*{rep['stderr']:.4f}"
        f" (P0 witness in {rep['p0_witness']}/{rep['trials']})",
    )


# -- 8 -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def t2_materialized():
    ctx = Field(2, 3)
    layout = composed.ComposedLayout(rm.RmParams(ctx, 3, 1), PcppParams(4))
    message = [5, 2, 7, 1]
    word = composed.materialize(layout, message)
    return layout, message, word


def test_c08_algorithm2_contract(t2_materialized, s1_soundness_report, tmp_path):
    # (a) completeness on materialized T2.  Algorithm 2's execution
    # depends on the queried address only through its base point (the
    # copy index is discarded after decoding), so exhaustiveness over
    # addresses factors into: every base point with full runs, the
    # address -> (copy, point) bijection over the whole region, and a
    # large random sample of full per-address runs.
    layout, message, word = t2_materialized
    read = lambda a: int(word[a])
    ok_a = True
    for pcode in range(layout.rm_points):
        for rep_i in range(2):
            rng = random.Random(f"c8a/{pcode}/{rep_i}")
            addr = layout.rm_address(rng.randrange(layout.repetitions), pcode)
            out = composed.correct_rm(layout, read, addr, rng)
            ok_a = ok_a and out == int(word[pcode])
    addrs = np.arange(layout.rm_length, dtype=np.int64)
    copies, pcodes = np.divmod(addrs, layout.rm_points)
    ok_a = ok_a and bool(
        (copies * layout.rm_points + pcodes == addrs).all()
        and copies.max() == layout.repetitions - 1
        and pcodes.max() == layout.rm_points - 1
    )
    rng = random.Random("c8a/random")
    for _ in range(10_000):
        addr = rng.randrange(layout.rm_length)
        out = composed.correct_rm(layout, read, addr, rng)
        ok_a = ok_a and out == int(word[addr % layout.rm_points])
    # (b) S1 with the queried point flipped in every copy
    cal_cfg = harness.make_config(
        preset="S1", kind="calibrate", trials=300, seed=801,
        sidecar=str(tmp_path / "cal_s1.json"),
    )
    cal = harness.calibrate_pcpp(cal_cfg)
    sigma_pcpp = cal["sigma_pcpp_measured"]
    sigma_rw = s1_soundness_report["frequency"]
    floor = sigma_rw * (1 - sigma_pcpp) / 2
    cfg = harness.make_config(
        preset="S1", kind="alg2", trials=2000, seed=802, pcpp_qv=cal["q_v"]
    )
    rep = harness.alg2_experiment(cfg, target_floor=floor)
    ok_b = rep["ok"] and sigma_pcpp <= 0.5
    report(
        8,
        ok_a and ok_b,
        f"(a) T2 completeness exact; (b) S1 freq {rep['frequency']:.4f} >= "
        f"{floor:.4f} - 3*{rep['stderr']:.4f} with q_v={cal['q_v']}, "
        f"sigma_pcpp={sigma_pcpp:.3f}",
    )


# -- 9 -----------------------------------------------------------------------


def test_c09_algorithm3_contract(t2_materialized):
    layout, message, word = t2_materialized
    read = lambda a: int(word[a])
    # (a) completeness over 10^3 random proof-region addresses
    ok_a = True
    rng = random.Random("c9a")
    for _ in range(1000):
        addr = layout.rm_length + rng.randrange(layout.length - layout.rm_length)
        out = composed.correct_proof(layout, read, addr, rng)
        ok_a = ok_a and out == int(word[addr])
    # (b) 5% proof-region corruption
    overlay = composed.Overlay(layout, seed=903)
    overlay.add_region_random(
        0.05, regions=(composed.POINT_REGION, composed.LINE_REGION)
    )
    corrupted = word.copy()
    counts = overlay.apply_to_array(corrupted)
    cread = lambda a: int(corrupted[a])
    good = 0
    trials = 2000
    for i in range(trials):
        rng = random.Random(f"c9b/{i}")
        addr = layout.rm_length + rng.randrange(layout.length - layout.rm_length)
        out = composed.correct_proof(layout, cread, addr, rng)
        good += (out is BOT) or out == int(word[addr])
    freq = good / trials
    se = stderr(freq, trials)
    ok_b = freq >= 0.9 - 3 * se
    proof_frac = (counts[composed.POINT_REGION] + counts[composed.LINE_REGION]) / (
        layout.length - layout.rm_length
    )
    report(
        9,
        ok_a and ok_b,
        f"(a) 1000/1000 exact: {ok_a}; (b) freq {freq:.4f} >= 0.9 - 3*{se:.4f} "
        f"at measured proof corruption {proof_frac:.4f}",
    )


# -- 10 ----------------------------------------------------------------------


def test_c10_augmented_distance_equivalence():
    ctx = Field(2, 2)
    params2d = rm.RmParams(ctx, 2, 1)
    rng = random.Random(1001)
    checked = 0
    for _ in range(100):
        w = [rng.randrange(4) for _ in range(16)]
        jx, kx = rng.randrange(4), rng.randrange(4)
        pos = jx * 4 + kx
        best_weighted = None
        best_plain = None
        for coeffs, table in enumerate_codewords(params2d):
            dw = dist_weighted(w, table.tolist(), [pos])
            aug_w = augment(ctx, w, rm.POINT_KIND, (jx, kx)).materialize()
            aug_c = augment(
                ctx, table.tolist(), rm.POINT_KIND, (jx, kx)
            ).materialize()
            dp = dist_plain(aug_w, aug_c)
            assert dw == dp  # per-codeword identity, hence equal minima
            best_weighted = dw if best_weighted is None else min(best_weighted, dw)
            best_plain = dp if best_plain is None else min(best_plain, dp)
        assert best_weighted == best_plain
        checked += 1
    report(10, checked == 100, f"dist_x(w, RM) = dist(w^(x), RM^(x)) exactly for {checked} random words")


# -- 11 ----------------------------------------------------------------------


def test_c11_block_length_accounting():
    pcpp = PcppParams(4)
    checks = []
    for p, m, d, keys in [
        (2, 2, 1, (256, 320)),
        (2, 3, 1, (32768, 299008)),
    ]:
        layout = composed.ComposedLayout(rm.RmParams(Field(p, m), m, d), pcpp)
        pk, lk = keys
        b = pk + lk
        r = -(-b * layout.proof_len // layout.rm_points)
        n_hand = r * layout.rm_points + b * layout.proof_len
        checks.append(
            layout.point_keys == pk
            and layout.line_keys == lk
            and layout.repetitions == r
            and layout.length == n_hand
        )
    rows = {}
    for p in (2, 17):
        per_m = []
        for m in (2, 3):
            ctx = Field(p, m)
            d = max(1, round(ctx.n / 4))
            rep = composed.block_length_report(
                composed.ComposedLayout(rm.RmParams(ctx, m, d), pcpp)
            )
            assert abs(float(rep["rate"]) * rep["N"] - rep["k"]) < 1
            assert rep["B_actual"] != rep["B_paper"]  # the documented divergence
            per_m.append(rep["exponent_paper"])
        rows[p] = per_m
    descending = all(v[0] > v[1] for v in rows.values())
    report(
        11,
        all(checks) and descending,
        f"N hand-expansion exact at T1/T2; paper-bound exponent m=2 -> m=3: "
        + "; ".join(f"p={p}: {v[0]:.2f} -> {v[1]:.2f}" for p, v in rows.items()),
    )


# -- 12 ----------------------------------------------------------------------


def test_c12_algorithm2_answers_on_clean_reads():
    # With keyed noise in the RM region only, an honest S1 Algorithm-2
    # call reads Q = 33 word symbols (every proof read is clean).  When
    # none of them is corrupted, completeness is exact and the output is
    # the truth, so the truth frequency is at least (1 - eta)^Q.  A
    # corrector that aborts whenever it may fails here.
    cfg = harness.make_config(preset="S1", kind="alg2", pcpp_qv=4, seed=1201)
    layout = composed.ComposedLayout(cfg.rm, cfg.pcpp())
    ctx = layout.ctx
    eta = cfg.delta / 64
    rng0 = random.Random("c12/message")
    oracle = composed.CanonicalOracle(
        layout, [ctx.rand_element(rng0) for _ in range(layout.rm.k)]
    )
    queries = (ctx.m + 1) * 2 * cfg.pcpp().q_v + 1
    trials = 60
    truth = wrong = 0
    for i in range(trials):
        rng = random.Random(f"c12/{i}")
        x = sample_point(ctx, rng)
        overlay = composed.Overlay(layout, rng.randrange(2**63))
        overlay.add_region_random(eta, regions=(composed.RM_REGION,))
        word = composed.OverlayOracle(oracle, overlay)
        pcode = point_code(ctx, x)
        addr = layout.rm_address(rng.randrange(layout.repetitions), pcode)
        out = composed.correct_rm(layout, word.read, addr, rng)
        truth += out == oracle.point_value(pcode)
        wrong += out is not BOT and out != oracle.point_value(pcode)
    floor = (1 - eta) ** queries
    ok, details = freq_meets_floor(truth, trials, floor)
    report(
        12,
        ok,
        f"truth {truth}/{trials} >= (1 - {eta})^{queries} = {floor:.4f} - "
        f"{details['slack']:.4f} ({wrong} wrong, {trials - truth - wrong} aborts)",
    )
