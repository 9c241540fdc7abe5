"""Experiment orchestration: presets, seed discipline, reports.

Every experiment is deterministic given its master seed: trial i draws
its randomness from a generator keyed by (seed, experiment name, i).
Reports embed the configuration hash and the package version, so a
rerun with the same config file is byte-identical apart from the
wall-clock field.

A config holds only what a caller varies.  The rest are the paper's
constants: every walk takes m steps, alpha = rho/8, the proofs repeat
R = 9 times (``PcppParams.repetitions``), and the line-sampling set has
density mu = 1/4.  A config whose field or code cannot be built
(p not prime, d >= |F|) is a ConfigError.

Theorem preconditions (|F| >= 2md, delta <= rho/2) gate every
soundness run; an explicit override marks the report UNSOUND instead of
refusing.  A run that would fail or not finish on its field
(``check_runnable``) is a ConfigError before it starts.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import __version__, composed, ctrw
from .gf import _TABLE_LIMIT, Field
from .geometry import sample_point
from .pcpp import BOT, PcppParams, build_proof, verify_proximity
from .prf import KeyedNoise, chain
from .rm import ENUM_BUDGET, POINT_KIND, RmParams, encode, eval_table, evaluate
from .stats import check_fields, freq_meets_floor, stderr, wilson_interval

PRESETS = {
    "T1": {"p": 2, "m": 2, "d": 1},
    "T2": {"p": 2, "m": 3, "d": 1},
    "T3": {"p": 3, "m": 3, "d": 4},
    "S1": {"p": 17, "m": 3, "d": 32, "delta": 0.1},
}


# one Field per (p, m): building one costs its numpy tables, and a Field
# is immutable, so every config shares it
_shared_field = lru_cache(maxsize=None)(Field)


@dataclass
class ExperimentConfig:
    kind: str = "completeness"
    preset: str | None = None
    p: int = 2
    m: int = 3
    d: int = 1
    delta: float = 0.1
    trials: int = 1000
    seed: int = 1
    pcpp_qv: int | None = None  # None: q_v = 4
    allow_unsound: bool = False
    sidecar: str = "calibration.json"
    json_path: str | None = None
    csv_path: str | None = None
    # calibration tries q_v = 1 .. qv_cap
    qv_cap: ClassVar[int] = 24

    def __post_init__(self):
        if self.preset:
            if self.preset not in PRESETS:
                raise ConfigError(f"unknown preset {self.preset!r}")
            for key, val in PRESETS[self.preset].items():
                setattr(self, key, val)

    @property
    def ctx(self) -> Field:
        return _shared_field(self.p, self.m)

    @property
    def rm(self) -> RmParams:
        return RmParams(self.ctx, self.m, self.d)

    @property
    def alpha(self) -> Fraction:
        return self.rm.rho / 8

    def pcpp(self) -> PcppParams:
        q_v = 4 if self.pcpp_qv is None else self.pcpp_qv
        return PcppParams(q_v, rho_prox=self.alpha)

    def digest(self) -> str:
        """Hash of the experiment the config describes; where its report
        is written does not count."""
        blob = json.dumps(
            {
                f.name: getattr(self, f.name)
                for f in fields(self)
                if f.name not in ("json_path", "csv_path")
            },
            sort_keys=True,
            default=str,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


class ConfigError(ValueError):
    pass


def parse_config_file(path) -> dict:
    """Line-oriented ``key = value`` parser; '#' starts a comment.  A file
    is the one outside input argparse does not check, so each value is
    read as its field's type, within its range (_parse_value)."""
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line: {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        out[key] = _parse_value(key, val)
    return out


def _parse_value(key: str, text: str):
    """A config-file value as its field's type.  Text fields, and keys
    that are no field (make_config rejects them), keep the text."""
    kinds = {f.name: f.type.removesuffix(" | None") for f in fields(ExperimentConfig)}
    kind = kinds.get(key, "str")
    bools = {"true": True, "false": False}
    read = {"int": int, "float": float, "bool": lambda t: bools[t.lower()]}.get(kind)
    if read is None:
        return text
    try:
        value = read(text)
    except (KeyError, ValueError):
        raise ConfigError(f"{key} = {text!r} is not a valid {kind}") from None
    if key == "pcpp_qv" and value < 1:
        raise ConfigError(f"pcpp_qv = {value} must be >= 1")
    if key == "delta" and not 0 <= value <= 1:
        raise ConfigError(f"delta = {value} must lie in [0, 1]")
    return value


def make_config(**kwargs) -> ExperimentConfig:
    """A checked config.  A key the preset also sets must repeat the
    preset's value."""
    known = {f.name for f in fields(ExperimentConfig)}
    bad = set(kwargs) - known
    if bad:
        raise ConfigError(f"unknown config keys: {sorted(bad)}")
    preset = PRESETS.get(kwargs.get("preset"), {})
    clash = {k: v for k, v in kwargs.items() if k in preset and v != preset[k]}
    if clash:
        raise ConfigError(f"preset {kwargs['preset']} sets {preset}, not {clash}")
    try:
        config = ExperimentConfig(**kwargs)
        config.rm  # builds the field and the code, which check p, m and d
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return config


def check_preconditions(config: ExperimentConfig):
    """Theorem hypotheses; returns the list of violated inequalities."""
    rm = config.rm
    n = rm.ctx.n
    out = []
    if not n >= 2 * config.m * config.d:
        out.append(f"|F| >= 2md violated: {n} < {2 * config.m * config.d}")
    if not Fraction(config.delta).limit_denominator(10**9) <= rm.rho / 2:
        out.append(f"delta <= rho/2 violated: {config.delta} > {float(rm.rho / 2)}")
    return out


def trial_rng(seed: int, label: str, index: int) -> random.Random:
    return random.Random(f"{seed}/{label}/{index}")


# ---------------------------------------------------------------------------
# Exact formula evaluation


def formula_eval(name: str, **params):
    """Exact rational value of a named bound, with a 6-place rendering."""
    if name == "sigma_rw":
        h = params["h"]
        m = params["m"]
        d = params["d"]
        delta = Fraction(params["delta"]).limit_denominator(10**9)
        n = h**m
        rho = 1 - Fraction(d, n)
        alpha = params.get("alpha") or rho / 8
        if rho == 2 * alpha:
            raise ZeroDivisionError("rho = 2*alpha makes the bound undefined")
        value = (1 - Fraction(4, n)) ** m - (delta + Fraction(2, h)) / (
            rho - 2 * alpha
        )
    else:
        raise ValueError(f"unknown formula {name!r}")
    return {"value": value, "decimal": _dec6(value), "vacuous": value <= 0}


def _dec6(x: Fraction) -> str:
    sign = "-" if x < 0 else ""
    x = abs(x)
    scaled = (x * 10**6 + Fraction(1, 2)).__floor__()
    return f"{sign}{scaled // 10**6}.{scaled % 10**6:06d}"


# ---------------------------------------------------------------------------
# Reporting


def finish_report(config: ExperimentConfig, body: dict) -> dict:
    report = {
        "kind": config.kind,
        "config_hash": config.digest(),
        "seed": config.seed,
        "version": __version__,
        "field": config.ctx.descriptor,
        "preconditions": check_preconditions(config),
    }
    if report["preconditions"] and config.allow_unsound:
        report["UNSOUND"] = True
    report.update(body)
    return report


def emit(report: dict, config: ExperimentConfig, csv_rows=None):
    if config.json_path:
        Path(config.json_path).write_text(render_json(report))
    if config.csv_path and csv_rows:
        header = sorted(csv_rows[0])
        lines = [",".join(header)]
        for row in csv_rows:
            lines.append(",".join(str(row.get(h, "")) for h in header))
        Path(config.csv_path).write_text("\n".join(lines) + "\n")
    return report


def render_json(report: dict) -> str:
    def default(obj):
        if isinstance(obj, Fraction):
            return {"fraction": f"{obj.numerator}/{obj.denominator}", "value": float(obj)}
        if isinstance(obj, (np.integer,)):
            return int(obj)
        if isinstance(obj, (np.floating,)):
            return float(obj)
        if obj is BOT:
            return "!"
        return str(obj)

    return json.dumps(report, indent=2, sort_keys=True, default=default)


# ---------------------------------------------------------------------------
# Experiments


def completeness_experiment(config: ExperimentConfig) -> dict:
    """Acceptance frequency of the walk test on honest codewords."""
    rm = config.rm
    ctx = rm.ctx
    accept = 0
    for i in range(config.trials):
        rng = trial_rng(config.seed, "complete", i)
        msg = [ctx.rand_element(rng) for _ in range(rm.k)]
        word = eval_table(rm, encode(rm, msg))
        x = sample_point(ctx, rng)
        accept += ctrw.ctrw_accept(rm, word, x, rng) == ctrw.ACCEPT
    return finish_report(
        config,
        {
            "trials": config.trials,
            "accepted": accept,
            "ok": accept == config.trials,
        },
    )


def soundness_experiment(config: ExperimentConfig, rows=None) -> dict:
    """Walk robustness on words close to a planted codeword but wrong at x.

    Per trial: fresh pseudorandom corruption at density delta plus a
    forced flip at a random start point; the verdict certifies
    whether the start predicate or some line predicate is alpha-far.
    Per-trial CSV rows are appended to ``rows`` when a list is given.
    """
    rm = config.rm
    ctx = rm.ctx
    alpha = config.alpha
    sigma = formula_eval(
        "sigma_rw", h=ctx.p, m=ctx.m, d=rm.d, delta=config.delta, alpha=alpha
    )
    steps = ctx.m
    violations = 0
    p0_hits = 0
    tally = ctrw.PeelingTally(steps)
    resamples = 0
    for i in range(config.trials):
        rng = trial_rng(config.seed, "sound", i)
        corr = ctrw.PointCorruption(rm, rng.randrange(2**63), config.delta)
        x = sample_point(ctx, rng)
        corr.target_point(x, delta=1 + rng.randrange(ctx.n - 1))
        tr = ctrw.walk_sample(rm, x, rng)
        resamples += sum(tr.resamples_steps)
        verdict = ctrw.violation_check_planted(rm, corr, tr, alpha, rng)
        violations += verdict.violated
        p0_hits += verdict.witness == 0
        tally.add(ctrw.step_events(rm, verdict, alpha))
        if rows is not None:
            rows.append(
                {
                    "trial": i,
                    "violated": int(verdict.violated),
                    "witness": verdict.witness if verdict.witness is not None else "",
                    "resamples": sum(tr.resamples_steps),
                }
            )
    freq = violations / config.trials
    se = stderr(freq, config.trials)
    return finish_report(
        config,
        {
            "trials": config.trials,
            "violations": violations,
            "frequency": freq,
            "sigma_formula": sigma["value"],
            "sigma_decimal": sigma["decimal"],
            "stderr": se,
            "wilson": list(wilson_interval(violations, config.trials)),
            **check_fields(
                freq_meets_floor(violations, config.trials, float(sigma["value"]))
            ),
            "p0_witness": p0_hits,
            "epsilon_counts": tally.eps,
            "f_all_frequency": tally.f_all / config.trials,
            "p0_dense_frequency": tally.p0_dense / config.trials,
            "line_fail_given_prefix": list(zip(tally.sparse, tally.prefix)),
            "step_resample_rate": resamples / (config.trials * steps),
        },
    )


def mixing_experiment(config: ExperimentConfig) -> dict:
    rm = config.rm
    rng = trial_rng(config.seed, "mixing", 0)
    corr = ctrw.PointCorruption(rm, config.seed, config.delta)
    body = ctrw.mixing_exp(rm, corr, config.trials, rng)
    return finish_report(config, body)


def sampling_experiment(config: ExperimentConfig) -> dict:
    ctx = config.ctx
    # the set A: the first mu*n^2 point codes of F^2, mu = 1/4
    a_codes = range(ctx.n * ctx.n // 4)
    rng = trial_rng(config.seed, "sampling", 0)
    body = ctrw.line_sampling_exp(
        ctx, a_codes, [Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)],
        _sampling_mode(config), config.trials, rng,
    )
    return finish_report(config, body)


def _sampling_mode(config: ExperimentConfig) -> str:
    return "exhaustive" if config.ctx.n <= 16 else "montecarlo"


def _matrix_mode(config: ExperimentConfig) -> str:
    return "exhaustive" if config.p ** (2 * config.m**2) <= 10**7 else "sampled"


def matrix_experiment(config: ExperimentConfig) -> dict:
    rng = trial_rng(config.seed, "matrix", 0)
    body = ctrw.matrix_product_check(
        config.p, config.m, _matrix_mode(config), config.trials, rng
    )
    body["ok"] = body["singular_ok"] and body.get(
        "uniform_exact", body.get("uniform_ok", False)
    )
    return finish_report(config, body)


# ---------------------------------------------------------------------------
# Calibration of the stand-in verifier


def _far_families(rm2d: RmParams, pcpp: PcppParams, rng):
    """Certified rho_prox-far (word, proof) pairs with natural adversaries.

    Farness of each word is certified by exact counting: corrupting a
    known set of eta*n^2 base positions keeps every member at distance
    min(eta, rho - eta)/2 >= rho_prox, and replacing more than
    rho_prox*R proof copies moves the proof past the radius.
    """
    ctx = rm2d.ctx
    n = ctx.n
    k2 = rm2d.k
    rep = pcpp.repetitions

    # q and the proofs are int64 arrays, so no read converts a tuple
    def proof_of(coeffs):
        return np.array(build_proof(rm2d, pcpp, coeffs), dtype=np.int64)

    message = [ctx.rand_element(rng) for _ in range(k2)]
    q = np.array(encode(rm2d, message), dtype=np.int64)
    q_alt = q.copy()
    q_alt[0] = (q_alt[0] + 1 + rng.randrange(ctx.n - 1)) % ctx.n
    honest = proof_of(q)
    forged = proof_of(q_alt)

    def table_read(coeffs):
        cache = {}

        def read(i):
            if i not in cache:
                jj, kk = divmod(i, n)
                cache[i] = evaluate(rm2d, coeffs, (jj, kk))
            return cache[i]

        return read

    base_q = table_read(q)
    # family noisy-base: keyed noise at rate rho/2 whose exact hit count
    # is measured by one pass over the grid
    noise_prefix = chain(rng.randrange(2**63), 0xFA)
    noise = KeyedNoise(noise_prefix, chain(noise_prefix, 0x11), float(rm2d.rho / 2), n)
    eta_count = noise.count(1, n * n)  # position 0 kept clean

    def noisy_read(i):
        v = base_q(i)
        if i != 0 and noise.hit(i):
            return noise.replacement(i, v)
        return v

    eta = Fraction(eta_count, n * n)
    if not (eta >= 2 * pcpp.rho_prox and rm2d.rho - eta >= 2 * pcpp.rho_prox):
        raise ValueError("cannot plant a certified-far noisy word")
    # family bad-proof: > rho_prox*R copies replaced (word honest)
    k_len = len(honest) // rep
    replaced = int(pcpp.rho_prox * rep) + 1
    mixed = honest.copy()
    mixed[: replaced * k_len] = forged[: replaced * k_len]
    # family tail-flip: base value at the proved point flipped
    delta0 = 1 + rng.randrange(ctx.n - 1)

    def flipped_read(i):
        v = base_q(i)
        return (v + delta0) % ctx.n if i == 0 else v

    shift = delta0  # constant polynomial shift matches the flipped tail
    q_shift = q.copy()
    q_shift[0] = ctx.add(int(q_shift[0]), shift)
    shifted = proof_of(q_shift)

    def span(proof):
        return lambda lo, hi: proof[lo:hi]

    return [
        ("noisy-base/honest-proof", noisy_read, span(honest)),
        ("noisy-base/forged-proof", noisy_read, span(forged)),
        ("honest-word/mixed-proof", base_q, span(mixed)),
        ("tail-flip/honest-proof", flipped_read, span(honest)),
        ("tail-flip/shifted-proof", flipped_read, span(shifted)),
    ]


def measure_far_acceptance(rm2d, pcpp, families, trials, rng):
    worst = 0.0
    per_family = {}
    for name, word_read, proof_read in families:
        acc = 0
        for _ in range(trials):
            if verify_proximity(rm2d, pcpp, word_read, proof_read, POINT_KIND, rng):
                acc += 1
        per_family[name] = acc / trials
        worst = max(worst, acc / trials)
    return worst, per_family


def calibrate_pcpp(config: ExperimentConfig) -> dict:
    """Smallest q_v whose worst-family far-acceptance clears 1/2.

    Results persist in a JSON sidecar keyed by a hash of (field, d, R,
    rho_prox); reruns with a matching key reuse the cached entry.
    """
    rm2d = config.rm.bivariate()
    pcpp0 = PcppParams(1, rho_prox=config.alpha)
    key = hashlib.sha256(
        f"{config.ctx.descriptor}|d={config.d}|R={pcpp0.repetitions}|rho={config.alpha}".encode()
    ).hexdigest()[:16]
    side = Path(config.sidecar)
    if side.exists():
        table = json.loads(side.read_text())
        if key in table:
            return {"q_v": table[key]["q_v"], "cached": True, **table[key]}
    rng = trial_rng(config.seed, "calibrate", 0)
    families = _far_families(rm2d, pcpp0, rng)
    history = {}
    chosen = None
    for q_v in range(1, config.qv_cap + 1):
        pcpp = PcppParams(q_v, rho_prox=config.alpha)
        worst, per_family = measure_far_acceptance(
            rm2d, pcpp, families, config.trials, rng
        )
        history[q_v] = worst
        if worst <= 0.5 - 3 * stderr(max(worst, 1e-9), config.trials):
            chosen = q_v
            break
    if chosen is None:
        raise RuntimeError("calibration failed to reach the soundness target")
    entry = {
        "q_v": chosen,
        "sigma_pcpp_measured": history[chosen],
        "per_family": per_family,
        "history": history,
        "trials": config.trials,
        "key": key,
        "cached": False,
    }
    table = json.loads(side.read_text()) if side.exists() else {}
    table[key] = {k: v for k, v in entry.items() if k != "cached"}
    side.write_text(json.dumps(table, indent=2, sort_keys=True))
    return entry


# ---------------------------------------------------------------------------
# Composed-code experiments (Algorithms 2 and 3)


def alg2_experiment(config: ExperimentConfig, target_floor=None) -> dict:
    """Correcting RM symbols of a corrupted composed word.

    The overlay flips the queried point in every copy and adds uniform
    pseudorandom noise at rate delta/4 over the whole word, so the word
    stays within the theorem's correction radius while the queried
    symbol is wrong everywhere.  Counts outputs in {c*(x), BOT}.
    """
    layout = composed.ComposedLayout(config.rm, config.pcpp())
    ctx = layout.ctx
    rng0 = trial_rng(config.seed, "alg2-setup", 0)
    message = [ctx.rand_element(rng0) for _ in range(layout.rm.k)]
    oracle = composed.CanonicalOracle(layout, message)
    radius = _alg2_noise_rate(config, layout)
    good = 0
    bots = 0
    expected_fraction = None
    for i in range(config.trials):
        rng = trial_rng(config.seed, "alg2", i)
        x = sample_point(ctx, rng)
        overlay = composed.Overlay(layout, rng.randrange(2**63))
        overlay.add_region_random(radius)
        overlay.add_targeted_point(x, delta=1 + rng.randrange(ctx.n - 1))
        if expected_fraction is None:
            expected_fraction = overlay.expected_fraction()
        word = composed.OverlayOracle(oracle, overlay)
        pcode = composed.point_code(ctx, x)
        addr = layout.rm_address(rng.randrange(layout.repetitions), pcode)
        truth = oracle.point_value(pcode)
        out = composed.correct_rm(layout, word.read, addr, rng)
        if out is BOT:
            bots += 1
            good += 1
        elif out == truth:
            good += 1
    freq = good / config.trials
    se = stderr(freq, config.trials)
    body = {
        "trials": config.trials,
        "good": good,
        "aborts": bots,
        "frequency": freq,
        "stderr": se,
        "wilson": list(wilson_interval(good, config.trials)),
        "noise_rate": radius,
        "expected_fraction": expected_fraction,
    }
    if target_floor is not None:
        body["target_floor"] = target_floor
        body.update(check_fields(freq_meets_floor(good, config.trials, target_floor)))
    return finish_report(config, body)


def _alg2_noise_rate(config: ExperimentConfig, layout) -> float:
    """The keyed-noise rate that keeps an alg2 word's expected corruption
    within the decoding radius delta/4, of which the flips of the queried
    point in every copy take repetitions/N."""
    flips = layout.repetitions / layout.length
    if config.delta / 4 < flips:
        raise ConfigError(f"alg2 needs delta >= 4r/N = {4 * flips:g}, got {config.delta}")
    return config.delta / 4 - flips


GATED_KINDS = ("soundness", "mixing", "alg2")


def check_runnable(config: ExperimentConfig):
    """ConfigError for a run that would fail or not finish on its field:
    completeness tabulates F^m, sampling and calibration walk the whole
    n^2 plane grid, and the soundness and alg2 vector ops need the
    field's log tables.  Mixing and matrix runs work at any field."""
    n = config.ctx.n
    size, limit, what = {
        "completeness": (config.rm.length, ENUM_BUDGET, "points of F^m"),
        "sampling": (n * n, composed.MATERIALIZE_LIMIT, "plane grid points"),
        "calibrate": (n * n, composed.MATERIALIZE_LIMIT, "plane grid points"),
        "soundness": (n, _TABLE_LIMIT, "log-table entries"),
        "alg2": (n, _TABLE_LIMIT, "log-table entries"),
    }.get(config.kind, (0, 0, ""))
    if size > limit:
        raise ConfigError(f"{config.kind} needs {size} {what}, above {limit}")
    if config.kind == "alg2":
        _alg2_noise_rate(config, composed.ComposedLayout(config.rm, config.pcpp()))


def run_experiment(config: ExperimentConfig) -> dict:
    """Run the experiment the config names and write its JSON (and CSV)
    report once, after the wall clock is stamped."""
    rows = []
    runner = {
        "completeness": completeness_experiment,
        "soundness": lambda c: soundness_experiment(c, rows),
        "mixing": mixing_experiment,
        "sampling": sampling_experiment,
        "matrix": matrix_experiment,
        "alg2": alg2_experiment,
        "calibrate": calibrate_pcpp,
    }.get(config.kind)
    if runner is None:
        raise ConfigError(f"unknown experiment kind {config.kind!r}")
    # exhaustive sampling and matrix runs enumerate every case and
    # ignore trials; every other run averages over its trials
    mode = {"sampling": _sampling_mode, "matrix": _matrix_mode}.get(config.kind)
    exhaustive = mode is not None and mode(config) == "exhaustive"
    if config.trials < 1 and not exhaustive:
        raise ConfigError(f"{config.kind} runs need trials >= 1")
    broken = check_preconditions(config)
    if broken and config.kind in GATED_KINDS and not config.allow_unsound:
        raise ConfigError("theorem preconditions violated: " + "; ".join(broken))
    check_runnable(config)
    start = time.time()
    report = runner(config)
    report["wall_clock"] = round(time.time() - start, 3)
    return emit(report, config, rows)
