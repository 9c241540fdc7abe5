import json
import random
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from rlcc import harness, stats
from rlcc.gf import Field
from rlcc.pcpp import PcppParams
from rlcc.rm import RmParams
from rlcc.stats import DensityBound, wilson_interval


def test_formula_sigma_rw_s1():
    out = harness.formula_eval("sigma_rw", h=17, m=3, d=32, delta=Fraction(1, 10))
    assert out["decimal"] == "0.705461"
    assert not out["vacuous"]
    n = 17**3
    rho = 1 - Fraction(32, n)
    expect = (1 - Fraction(4, n)) ** 3 - (Fraction(1, 10) + Fraction(2, 17)) / (
        rho - rho / 4
    )
    assert out["value"] == expect


def test_formula_vacuous_flagged():
    out = harness.formula_eval("sigma_rw", h=2, m=2, d=1, delta=Fraction(1, 10))
    assert out["vacuous"]  # (1 - 4/4)^2 = 0 minus a positive term


def test_formula_rho_equals_two_alpha():
    with pytest.raises(ZeroDivisionError):
        harness.formula_eval(
            "sigma_rw", h=2, m=3, d=1, delta=0.1, alpha=(1 - Fraction(1, 8)) / 2
        )


def test_presets_and_preconditions():
    cfg = harness.make_config(preset="S1", kind="soundness", trials=10)
    assert (cfg.p, cfg.m, cfg.d, cfg.delta) == (17, 3, 32, 0.1)
    assert harness.check_preconditions(cfg) == []
    bad = harness.make_config(p=2, m=3, d=1, kind="soundness", delta=0.9)
    assert any("rho/2" in v for v in harness.check_preconditions(bad))
    with pytest.raises(harness.ConfigError):
        harness.run_experiment(bad)
    bad.allow_unsound = True
    bad.trials = 5
    rep = harness.run_experiment(bad)
    assert rep.get("UNSOUND") is True


def test_unknown_keys_rejected():
    # the paper's constants are not keys either: every walk takes m
    # steps, alpha = rho/8, R = 9, mu = 1/4, and calibration's q_v cap
    for key in (
        "banana", "steps", "alpha_num", "alpha_den", "pcpp_r",
        "mu_num", "mu_den", "qv_cap", "plane_samples",
    ):
        with pytest.raises(harness.ConfigError, match="unknown config keys"):
            harness.make_config(kind="soundness", **{key: 1})
    with pytest.raises(harness.ConfigError):
        harness.make_config(preset="XX")


def test_keys_must_agree_with_the_preset():
    with pytest.raises(harness.ConfigError, match="preset S1"):
        harness.make_config(preset="S1", delta=0.05, d=5)
    cfg = harness.make_config(preset="S1", p=17, delta=0.1, seed=3)
    assert (cfg.p, cfg.d, cfg.delta, cfg.seed) == (17, 32, 0.1, 3)


def test_config_has_only_the_keys_a_caller_varies():
    assert [f.name for f in fields(harness.ExperimentConfig)] == [
        "kind", "preset", "p", "m", "d", "delta", "trials", "seed",
        "pcpp_qv", "allow_unsound", "sidecar", "json_path", "csv_path",
    ]
    assert harness.make_config(preset="T2").qv_cap == 24


def test_s1_calibration_key_unchanged(tmp_path):
    # entries written before alpha and R became constants still hit
    side = tmp_path / "cal.json"
    side.write_text(json.dumps({"caf40218e59c1cf4": {"q_v": 7, "trials": 300}}))
    cfg = harness.make_config(preset="S1", kind="calibrate", sidecar=str(side))
    entry = harness.calibrate_pcpp(cfg)
    assert entry["cached"] and entry["q_v"] == 7


def test_config_file_parsing(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# comment\npreset = T2\nkind = completeness\ntrials = 12\nseed = 5\n"
        "allow_unsound = false\n"
    )
    opts = harness.parse_config_file(path)
    cfg = harness.make_config(**opts)
    assert (cfg.p, cfg.m, cfg.d, cfg.trials, cfg.seed) == (2, 3, 1, 12, 5)
    assert cfg.allow_unsound is False
    (tmp_path / "bad.cfg").write_text("no equals sign here\n")
    with pytest.raises(harness.ConfigError):
        harness.parse_config_file(tmp_path / "bad.cfg")


def test_completeness_experiment_small():
    cfg = harness.make_config(preset="T2", kind="completeness", trials=25, seed=3)
    rep = harness.run_experiment(cfg)
    assert rep["ok"] and rep["accepted"] == 25


def test_report_determinism(tmp_path):
    reports = []
    for _ in range(2):
        cfg = harness.make_config(
            preset="T2", kind="mixing", trials=300, seed=11,
            json_path=str(tmp_path / "r.json"),
        )
        rep = harness.run_experiment(cfg)
        harness.emit(rep, cfg)
        data = json.loads((tmp_path / "r.json").read_text())
        data.pop("wall_clock", None)
        reports.append(json.dumps(data, sort_keys=True))
    assert reports[0] == reports[1]


def test_mixing_experiment_t2():
    cfg = harness.make_config(preset="T2", kind="mixing", trials=2000, seed=2, delta=0.1)
    rep = harness.run_experiment(cfg)
    assert rep["ok"]
    assert rep["bound"] == 0.1 + 1.0


def test_sampling_experiment_exhaustive():
    cfg = harness.make_config(preset="T2", kind="sampling", seed=2, trials=0)
    rep = harness.run_experiment(cfg)
    assert rep["ok"] and rep["mode"] == "exhaustive"
    assert rep["mu"] == Fraction(1, 4)


def test_matrix_experiment_exhaustive():
    # the exhaustive check enumerates every case, so it needs no trials
    cfg = harness.make_config(p=2, m=2, kind="matrix", seed=2, d=1, trials=0)
    rep = harness.run_experiment(cfg)
    assert rep["ok"] and rep["uniform_exact"]


@pytest.mark.parametrize(
    "kind, opts",
    [
        ("completeness", {"preset": "T2"}),
        ("soundness", {"preset": "T2"}),
        ("mixing", {"preset": "T2"}),
        ("alg2", {"preset": "T2"}),
        ("calibrate", {"preset": "T2"}),
        ("sampling", {"p": 3, "m": 3, "d": 4}),  # |F| > 16: Monte-Carlo lines
        ("matrix", {"p": 3, "m": 3}),  # too many matrices: sampled
    ],
)
def test_runs_that_average_over_trials_need_one(kind, opts, tmp_path):
    cfg = harness.make_config(
        kind=kind, trials=0, sidecar=str(tmp_path / "calibration.json"), **opts
    )
    with pytest.raises(harness.ConfigError, match="trials >= 1"):
        harness.run_experiment(cfg)


def test_soundness_experiment_t3_small():
    cfg = harness.make_config(
        preset="T3", kind="soundness", trials=60, seed=6, delta=0.1
    )
    rep = harness.run_experiment(cfg)
    # T3 sigma is negative (vacuous), so the assertion passes trivially,
    # but the diagnostics must be present and consistent
    assert rep["violations"] <= rep["trials"]
    assert len(rep["epsilon_counts"]) == 3
    assert rep["frequency"] >= float(rep["sigma_formula"])


def test_csv_dump(tmp_path):
    cfg = harness.make_config(
        preset="T3", kind="soundness", trials=10, seed=6, delta=0.1,
        csv_path=str(tmp_path / "trials.csv"),
    )
    harness.run_experiment(cfg)
    lines = (tmp_path / "trials.csv").read_text().strip().splitlines()
    assert len(lines) == 11
    assert set(lines[0].split(",")) == {"trial", "violated", "witness", "resamples"}


def test_calibration_and_sidecar(tmp_path):
    cfg = harness.make_config(
        p=2, m=2, d=1, kind="calibrate", trials=250, seed=9,
        sidecar=str(tmp_path / "cal.json"),
    )
    entry = harness.calibrate_pcpp(cfg)
    assert not entry["cached"]
    assert entry["sigma_pcpp_measured"] <= 0.5
    hist = entry["history"]
    # more rounds can only shrink far-acceptance (independent rounds)
    qs = sorted(hist)
    assert all(hist[qs[i + 1]] <= hist[qs[i]] + 0.1 for i in range(len(qs) - 1))
    again = harness.calibrate_pcpp(cfg)
    assert again["cached"] and again["q_v"] == entry["q_v"]


def test_calibration_doubling_halves(tmp_path):
    # acceptance(2q) is at most acceptance(q)^2 up to noise
    cfg = harness.make_config(
        p=2, m=3, d=1, kind="calibrate", trials=400, seed=10,
        sidecar=str(tmp_path / "cal.json"),
    )
    rm2d = cfg.rm.bivariate()
    rng = random.Random(5)
    families = harness._far_families(rm2d, PcppParams(1, cfg.alpha), rng)
    a1, _ = harness.measure_far_acceptance(
        rm2d, PcppParams(2, cfg.alpha), families, 400, random.Random(1)
    )
    a2, _ = harness.measure_far_acceptance(
        rm2d, PcppParams(4, cfg.alpha), families, 400, random.Random(2)
    )
    if a1 <= 0.5:
        assert a2 <= a1 / 2 + 0.1


def test_dec6_rendering():
    assert harness._dec6(Fraction(1, 2)) == "0.500000"
    assert harness._dec6(Fraction(-1, 3)) == "-0.333333"
    assert harness._dec6(Fraction(37, 170)) == "0.217647"


def test_config_shares_one_field():
    a = harness.make_config(preset="S1")
    b = harness.make_config(preset="S1", seed=9)
    assert a.ctx is b.ctx is a.rm.ctx


@settings(derandomize=True, max_examples=50, deadline=None)
@given(st.integers(1, 10**6).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n))))
@example((1234, 20000))  # limit_denominator moved both endpoints inward here
def test_density_bound_rounds_outward(case):
    bound = DensityBound.from_sample(*case)
    lo, hi = bound.as_fractions()
    grid = Fraction(1, 10**12)
    assert lo <= Fraction(bound.lo) < lo + grid
    assert hi - grid < Fraction(bound.hi) <= hi


def test_config_hash_ignores_output_paths(tmp_path):
    def config(seed, name):
        return harness.make_config(
            preset="T2", kind="mixing", trials=300, seed=seed,
            json_path=str(tmp_path / f"{name}.json"),
            csv_path=str(tmp_path / f"{name}.csv"),
        )

    assert config(11, "a").digest() == config(11, "b").digest()
    assert config(11, "a").digest() != config(12, "a").digest()


def test_frequency_floor_and_ceiling_mirror():
    # 50 of 100: stderr 0.05, slack 0.15
    assert stats.freq_meets_ceiling(50, 100, 0.4)[0]
    assert not stats.freq_meets_ceiling(50, 100, 0.3)[0]
    assert stats.freq_meets_floor(50, 100, 0.6)[0]
    assert not stats.freq_meets_floor(50, 100, 0.7)[0]
    _, details = stats.freq_meets_ceiling(50, 100, 0.4)
    assert details["slack"] == pytest.approx(0.15)
    assert (details["freq"], details["ceiling"], details["trials"]) == (0.5, 0.4, 100)
    assert "degenerate" not in details


def test_frequency_checks_flag_zero_slack():
    # at p_hat 0 or 1 the 3-SE slack is zero: the details say so, and the
    # gates compare p_hat with the bound exactly
    assert stats.freq_meets_floor(20, 20, 1.0) == (
        True,
        {"freq": 1.0, "floor": 1.0, "slack": 0.0, "trials": 20, "degenerate": True},
    )
    assert not stats.freq_meets_floor(0, 20, 0.01)[0]
    ok, details = stats.freq_meets_ceiling(0, 20, 0.0)
    assert ok and details["degenerate"] is True
    assert not stats.freq_meets_ceiling(20, 20, 0.99)[0]
    assert "degenerate" not in stats.freq_meets_floor(19, 20, 0.9)[1]


def test_reports_flag_zero_slack():
    # a report whose ok comes from a frequency check at p_hat 0 or 1
    # carries the check's degenerate flag
    sound = harness.run_experiment(
        harness.make_config(preset="T3", kind="soundness", trials=20, seed=6)
    )
    assert sound["violations"] == 20 and sound["degenerate"] is True
    mixed = harness.run_experiment(
        harness.make_config(
            preset="T1", kind="soundness", trials=20, seed=6, delta=0.3,
            allow_unsound=True,
        )
    )
    assert mixed["violations"] == 19 and "degenerate" not in mixed
    cfg = harness.make_config(preset="T2", kind="alg2", trials=10, seed=3)
    alg2 = harness.alg2_experiment(cfg, target_floor=0.5)
    assert alg2["good"] == 10 and alg2["ok"] and alg2["degenerate"] is True
    # without a floor no check runs, so there is nothing to flag
    assert "degenerate" not in harness.alg2_experiment(cfg)
    mixing = [
        harness.run_experiment(
            harness.make_config(preset="T2", kind="mixing", trials=5, seed=s)
        )
        for s in (0, 1)
    ]
    assert [(r["hits"], r.get("degenerate")) for r in mixing] == [(0, True), (1, None)]


def test_s1_calibration_pinned(tmp_path):
    # a small S1 calibration's history and per-family acceptances, exactly:
    # a change to the draws or to the arithmetic moves them
    cfg = harness.make_config(
        preset="S1", kind="calibrate", trials=40, seed=801,
        sidecar=str(tmp_path / "cal.json"),
    )
    entry = harness.calibrate_pcpp(cfg)
    assert entry["q_v"] == 7
    assert entry["history"] == {
        1: 31 / 40, 2: 22 / 40, 3: 19 / 40, 4: 18 / 40, 5: 13 / 40, 6: 12 / 40,
        7: 9 / 40,
    }
    assert entry["per_family"] == {
        "noisy-base/honest-proof": 2 / 40,
        "noisy-base/forged-proof": 0.0,
        "honest-word/mixed-proof": 9 / 40,
        "tail-flip/honest-proof": 0.0,
        "tail-flip/shifted-proof": 0.0,
    }
