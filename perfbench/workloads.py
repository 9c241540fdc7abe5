"""The four benchmark workloads, driven through rlcc's public API.

Each workload derives every input from the benchmark seed.  The worker
calls ``setup`` several times (keeping the last state), then ``unit(i)``
in a timed loop; a unit returns how many trials it completed and whether
its outputs were correct.  ``encode`` runs once and returns the (start,
end) ``clock`` readings of each encoding it timed.  It runs before
set-up when the workload needs its output (``encode_first``), otherwise
after the loop so that its memory stays out of the workload's peak.
``summary`` gives the exact outcome counts and the end-of-run
correctness checks.

``tail_percentile`` is fixed per workload, so that it does not move with
the unit count: the highest of p99.9/p99/p95/p90/p50 with at least ten
samples beyond it at the baseline unit count, or the maximum (100) where
a run has fewer than 20 units.

Calls into rlcc go through module attributes (``composed.correct_rm``,
not a name imported here), so that the traced run's wrappers see them.
"""

from __future__ import annotations

import random
from pathlib import Path

import numpy as np

from rlcc import composed, geometry, harness, rm
from rlcc.gf import Field
from rlcc.pcpp import BOT, PcppParams, query_budget
from speed import clock

S1_SIGMA_DECIMAL = "0.705461"


def _outcome(out, truth) -> str:
    if out is BOT:
        return "abort"
    return "good" if out == truth else "wrong"


def _budget(layout) -> dict:
    word, proof = query_budget(layout.rm.bivariate(), layout.pcpp)
    return {
        "word": word,
        "proof": proof,
        "paper_bound": (layout.ctx.m + 3) * (word + proof),
    }


def s1_block_encodes(seed: int, label: str, blocks: int = 31) -> list:
    """(start, end) ``clock`` readings of encoding each of ``blocks`` S1
    proof blocks.

    The S1 word is never materialized; the lazy oracle encodes a proof
    block (plane restriction plus canonical proof) the first time a key
    is read, so this is the S1 write side.  Keys are fresh, non-degenerate
    point-proof keys drawn from the seed.
    """
    config = harness.make_config(preset="S1", pcpp_qv=4)
    layout = composed.ComposedLayout(config.rm, config.pcpp())
    rng = random.Random(f"perfbench/{label}/{seed}/encode")
    ctx = layout.ctx
    oracle = composed.CanonicalOracle(
        layout, [ctx.rand_element(rng) for _ in range(layout.rm.k)]
    )
    intervals = []
    while len(intervals) < blocks:
        key = layout.point_key_index(
            rng.randrange(layout.rm_points),
            rng.randrange(1, layout.h_count),
            rng.randrange(1, layout.h_count),
        )
        if layout.point_key_plane(key)[0] is None:
            continue
        t0 = clock()
        oracle.proof_block(composed.POINT_REGION, key)
        intervals.append((t0, clock()))
    return intervals


class Soundness:
    """harness.run_experiment(kind=soundness) at S1: the c07 path."""

    name = "s1-soundness"
    trials_per_unit = 8
    encode_first = False
    tail_percentile = 100.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.violations = 0
        self.p0_witness = 0
        self.trials = 0
        self.bad_reports = 0

    def encode(self) -> list:
        return s1_block_encodes(self.seed, self.name)

    def setup(self):
        config = harness.make_config(
            preset="S1", kind="soundness", trials=self.trials_per_unit,
            seed=self.seed,
        )
        self.broken = harness.check_preconditions(config)
        self.sigma = harness.formula_eval(
            "sigma_rw", h=config.p, m=config.m, d=config.d,
            delta=config.delta, alpha=config.alpha,
        )["decimal"]

    def unit(self, i: int):
        config = harness.make_config(
            preset="S1", kind="soundness", trials=self.trials_per_unit,
            seed=self.seed * 1_000_000 + i,
        )
        report = harness.run_experiment(config)
        self.trials += report["trials"]
        self.violations += report["violations"]
        self.p0_witness += report["p0_witness"]
        ok = bool(report["ok"]) and report["sigma_decimal"] == S1_SIGMA_DECIMAL
        self.bad_reports += not ok
        return report["trials"], ok

    def params(self) -> dict:
        return {"preset": "S1", "trials_per_unit": self.trials_per_unit}

    def summary(self):
        outcomes = {
            "trials": self.trials,
            "violations": self.violations,
            "p0_witness": self.p0_witness,
            "reports_not_ok": self.bad_reports,
        }
        checks = {
            "preconditions_hold": not self.broken,
            "sigma_decimal": self.sigma == S1_SIGMA_DECIMAL,
        }
        return outcomes, checks, {}


class Alg2Walk:
    """composed.correct_rm on the lazy S1 oracle under RM-region noise.

    Noise sits in the RM region only and x is not flipped, so most
    trials run every one of the m+1 verifier calls.  The rate is delta/64:
    at delta/4 the ~36 word reads of a walk hit a corrupted symbol so
    often that most trials abort before the last verifier call.
    """

    name = "s1-alg2-walk"
    q_v = 4
    noise_share = 64
    encode_first = False
    tail_percentile = 100.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.outcomes = {"good": 0, "abort": 0, "wrong": 0}
        self.calls_hist = {}
        self.verifier_calls = 0
        self.verifier_accepts = 0
        inner = composed.verify_proximity

        def counting(*args, **kwargs):
            self.verifier_calls += 1
            accepted = inner(*args, **kwargs)
            self.verifier_accepts += bool(accepted)
            return accepted

        # one counter per verifier call; wraps the traced function when
        # the tracer is installed first
        composed.verify_proximity = counting

    def encode(self) -> list:
        return s1_block_encodes(self.seed, self.name)

    def setup(self):
        config = harness.make_config(
            preset="S1", kind="alg2", pcpp_qv=self.q_v, seed=self.seed
        )
        layout = composed.ComposedLayout(config.rm, config.pcpp())
        ctx = layout.ctx
        rng = random.Random(f"perfbench/{self.name}/{self.seed}/message")
        message = [ctx.rand_element(rng) for _ in range(layout.rm.k)]
        self.layout = layout
        self.oracle = composed.CanonicalOracle(layout, message)
        self.rate = config.delta / self.noise_share

    def unit(self, i: int):
        layout = self.layout
        ctx = layout.ctx
        rng = random.Random(f"perfbench/{self.name}/{self.seed}/{i}")
        x = geometry.sample_point(ctx, rng)
        overlay = composed.Overlay(layout, rng.randrange(2**63))
        overlay.add_region_random(self.rate, regions=(composed.RM_REGION,))
        word = composed.OverlayOracle(self.oracle, overlay)
        pcode = composed.point_code(ctx, x)
        addr = layout.rm_address(rng.randrange(layout.repetitions), pcode)
        truth = self.oracle.point_value(pcode)
        before = self.verifier_calls
        out = composed.correct_rm(layout, word.read, addr, rng)
        calls = self.verifier_calls - before
        self.calls_hist[calls] = self.calls_hist.get(calls, 0) + 1
        kind = _outcome(out, truth)
        self.outcomes[kind] += 1
        return 1, kind != "wrong"

    def params(self) -> dict:
        return {
            "preset": "S1",
            "q_v": self.q_v,
            "rm_noise_rate": self.rate,
            "trials_per_unit": 1,
        }

    def summary(self):
        walk_calls = self.layout.ctx.m + 1
        trials = sum(self.calls_hist.values())
        reached = self.calls_hist.get(walk_calls, 0)
        outcomes = dict(self.outcomes)
        outcomes["verifier_calls_per_trial"] = {
            str(k): v for k, v in sorted(self.calls_hist.items())
        }
        outcomes["reached_all_verifier_calls"] = reached
        outcomes["verifier_calls"] = self.verifier_calls
        outcomes["verifier_accepts"] = self.verifier_accepts
        checks = {"most_trials_reach_all_verifier_calls": 2 * reached > trials}
        return outcomes, checks, {"query_budget": _budget(self.layout)}


class Calibrate:
    """harness.calibrate_pcpp at S1, a fresh sidecar on every call."""

    name = "s1-calibrate"
    trials_per_level = 300
    encode_first = False
    tail_percentile = 100.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.calls = []

    def encode(self) -> list:
        return s1_block_encodes(self.seed, self.name)

    def _config(self, seed: int, sidecar: Path):
        return harness.make_config(
            preset="S1", kind="calibrate", trials=self.trials_per_level,
            seed=seed, sidecar=str(sidecar),
        )

    def setup(self):
        # what a calibration run pays before calibrate_pcpp: the config and
        # its field; each unit builds its own config for a fresh sidecar
        config = self._config(self.seed, self.workdir / "setup.json")
        config.rm.bivariate()
        self.qv_cap = config.qv_cap

    def unit(self, i: int):
        sidecar = self.workdir / f"calibration-{i}.json"
        config = self._config(self.seed * 1_000_000 + i, sidecar)
        entry = harness.calibrate_pcpp(config)
        families = len(entry.get("per_family", {}))
        verifier_runs = len(entry.get("history", {})) * families * config.trials
        self.calls.append(
            {
                "q_v": entry["q_v"],
                "sigma_pcpp_measured": entry["sigma_pcpp_measured"],
                "cached": entry["cached"],
                "history": entry.get("history"),
                "verifier_runs": verifier_runs,
            }
        )
        ok = (
            entry["cached"] is False
            and entry["q_v"] <= config.qv_cap
            and entry["sigma_pcpp_measured"] <= 0.5
        )
        return verifier_runs, ok

    def params(self) -> dict:
        return {
            "preset": "S1",
            "trials_per_level": self.trials_per_level,
            "qv_cap": self.qv_cap,
            "trial": "one verifier run on one far family at one q_v level",
        }

    def summary(self):
        outcomes = {"calls": self.calls}
        checks = {"fresh_sidecars": all(c["cached"] is False for c in self.calls)}
        return outcomes, checks, {}


class T2EncodeCorrect:
    """materialize the T2 word, corrupt 5% of the proof regions, then a
    stream of Algorithm 3 and Algorithm 2 corrections on the array."""

    name = "t2-encode-correct"
    proof_noise = 0.05
    sampled_blocks = 64
    pairs_per_unit = 8
    encode_first = True
    tail_percentile = 99.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.outcomes = {
            "alg3": {"good": 0, "abort": 0, "wrong": 0},
            "alg2": {"good": 0, "abort": 0, "wrong": 0},
        }
        self.cross = {}
        self.corrupted = None

    def _build(self):
        ctx = Field(2, 3)
        layout = composed.ComposedLayout(rm.RmParams(ctx, 3, 1), PcppParams(4))
        rng = random.Random(f"perfbench/{self.name}/{self.seed}/message")
        message = [ctx.rand_element(rng) for _ in range(layout.rm.k)]
        return layout, message

    def encode(self) -> list:
        layout, message = self._build()
        t0 = clock()
        self.word = composed.materialize(layout, message)
        interval = (t0, clock())
        self._cross_check(layout, message)
        return [interval]

    def _cross_check(self, layout, message):
        """The materialized word against two independent code paths."""
        word = self.word
        table = rm.eval_table(layout.rm, tuple(message))
        self.cross["rm_region_equals_eval_table"] = bool(
            np.array_equal(
                word[: layout.rm_length], np.tile(table, layout.repetitions)
            )
        )
        oracle = composed.CanonicalOracle(layout, message)
        rng = random.Random(f"perfbench/{self.name}/{self.seed}/blocks")
        size = layout.proof_len
        for region, count, base in (
            (composed.POINT_REGION, layout.point_keys, layout.point_region_base),
            (composed.LINE_REGION, layout.line_keys, layout.line_region_base),
        ):
            same = True
            for _ in range(self.sampled_blocks):
                key = rng.randrange(count)
                lo = base + key * size
                same = same and bool(
                    np.array_equal(
                        word[lo : lo + size], oracle.proof_block(region, key)
                    )
                )
            self.cross[f"{region}_blocks_equal_lazy_oracle"] = same

    def setup(self):
        layout, _ = self._build()
        overlay = composed.Overlay(
            layout, random.Random(f"perfbench/{self.name}/{self.seed}/overlay").randrange(2**63)
        )
        overlay.add_region_random(
            self.proof_noise, regions=(composed.POINT_REGION, composed.LINE_REGION)
        )
        # one buffer for every set-up: the copy is the benchmark's, not
        # rlcc's, and its first-touch page faults would swamp the figure
        if self.corrupted is None:
            self.corrupted = np.empty_like(self.word)
        np.copyto(self.corrupted, self.word)
        self.counts = overlay.apply_to_array(self.corrupted)
        self.layout = layout

    def unit(self, i: int):
        layout = self.layout
        word = self.word
        corrupted = self.corrupted

        def read(a):
            return int(corrupted[a])

        rng = random.Random(f"perfbench/{self.name}/{self.seed}/{i}")
        ok = True
        for _ in range(self.pairs_per_unit):
            for alg, correct, lo, hi in (
                ("alg3", composed.correct_proof, layout.rm_length, layout.length),
                ("alg2", composed.correct_rm, 0, layout.rm_length),
            ):
                addr = lo + rng.randrange(hi - lo)
                kind = _outcome(correct(layout, read, addr, rng), int(word[addr]))
                self.outcomes[alg][kind] += 1
                ok = ok and kind != "wrong"
        return 2 * self.pairs_per_unit, ok

    def params(self) -> dict:
        return {
            "preset": "T2",
            "q_v": 4,
            "proof_noise_rate": self.proof_noise,
            "trials_per_unit": 2 * self.pairs_per_unit,
            "unit": f"{self.pairs_per_unit} x (one correct_proof, one correct_rm)",
            "word_symbols": int(self.word.size),
        }

    def summary(self):
        outcomes = dict(self.outcomes)
        outcomes["corrupted_symbols"] = {k: int(v) for k, v in self.counts.items()}
        return outcomes, dict(self.cross), {"query_budget": _budget(self.layout)}


WORKLOADS = {
    w.name: w for w in (Soundness, Alg2Walk, Calibrate, T2EncodeCorrect)
}
