"""rlcc benchmark: one workload per call, end-to-end or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload s1-alg2-walk --seed 1 --seconds 15 --trace 0

Each workload runs in a fresh single-threaded worker process (BLAS and
OpenMP pools pinned to one thread) against the sources in ``src``.  With
``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` an untraced and then a traced worker run the same fixed
number of units, and the result carries the per-layer metrics plus the
tracing overhead.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds the details (environment, trial counts, exact outcome
counts, checks, raw times), which are also written under
``perfbench/results``.  Times are scaled to a reference host speed; see
speed.py.  Exits 1 when a correctness check fails and 2 when the sources
are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
# units of the traced run: fixed, so that its counts repeat exactly for a
# seed and compare across commits; about 15 s of work at the baseline
TRACED_UNITS = {
    "s1-soundness": 12,
    "s1-alg2-walk": 10,
    "s1-calibrate": 1,
    "t2-encode-correct": 2_500,
}
DEADLINE_S = 175.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "trial_p50_ms": "ms",
    "trial_tail_ms": "ms",
    "encode_s": "s",
    "peak_rss_mb": "MB",
}

# names whose calls, self times, counts and sums per_layer() reports
SPAN_CALLS = (
    "gf.Field.init", "rm.evaluate", "rm.evaluate_many", "rm.restrict_to_plane",
    "geometry.canonical_plane_key", "ctrw.walk_sample",
    "ctrw.PointCorruption.corrupt_mask", "ctrw.plane_codes_at",
    "pcpp.verify_proximity", "pcpp.correct_proof_symbol",
    "composed.ComposedLayout.decode", "composed.CanonicalOracle.read",
    "composed.Overlay.replacement", "composed.correct_rm",
    "composed.correct_proof", "prf.chain_vec", "harness.trial",
)
SPAN_SELF = (
    "gf.Field.init", "rm.evaluate", "rm.evaluate_many", "rm.restrict_to_plane",
    "rm.eval_table", "geometry.canonical_plane_key", "ctrw.walk_sample",
    "ctrw.violation_check_planted", "ctrw.step_events",
    "ctrw.PointCorruption.corrupt_mask", "ctrw.plane_codes_at",
    "pcpp.verify_proximity", "composed.ComposedLayout.decode",
    "composed.CanonicalOracle.read", "composed.Overlay.replacement",
    "composed.correct_rm", "composed.correct_proof", "composed.materialize",
    "composed.Overlay.apply_to_array", "prf.chain_vec", "harness.setup",
    "harness.trial",
)
COUNTS = (
    "gf.scalar", "geometry.plane_point_at", "geometry.point_code", "prf.chain",
    "composed.proof_block",
)
SUMS = (
    "rm.evaluate_many.points",
    "ctrw.PointCorruption.corrupt_mask.codes",
    "prf.chain_vec.elements",
)


def per_layer(traced: dict, untraced: dict) -> dict:
    """Per-layer metrics of one traced worker result, with units."""
    spans = traced["spans"]
    counts = traced["counts"]
    sums = traced["sums"]
    out = {}

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    for name in SPAN_CALLS:
        out[f"{name}.calls"] = (calls(name), "count")
    for name in SPAN_SELF:
        out[f"{name}.self_s"] = (spans.get(name, {}).get("self_s", 0.0), "s")
    for name in COUNTS:
        out[f"{name}.calls"] = (counts.get(name, 0), "count")
    for name in SUMS:
        out[name] = (sums.get(name, 0), "count")
    vp = calls("pcpp.verify_proximity")
    out["pcpp.verify_proximity.accept_ratio"] = (
        ratio(sums.get("pcpp.verify_proximity.accepts", 0), vp), "ratio"
    )
    out["pcpp.word_queries_per_call"] = (
        ratio(sums.get("pcpp.verify_proximity.word_queries", 0), vp), "count"
    )
    out["pcpp.proof_queries_per_call"] = (
        ratio(sums.get("pcpp.verify_proximity.proof_queries", 0), vp), "count"
    )
    budget = traced.get("query_budget", {})
    out["pcpp.query_budget.word"] = (budget.get("word", 0), "count")
    out["pcpp.query_budget.proof"] = (budget.get("proof", 0), "count")
    out["pcpp.paper_query_bound"] = (budget.get("paper_bound", 0), "count")
    corrections = calls("composed.correct_rm") + calls("composed.correct_proof")
    queries = sum(
        sums.get(f"composed.{alg}.{kind}_queries", 0)
        for alg in ("correct_rm", "correct_proof")
        for kind in ("word", "proof")
    )
    out["composed.queries_per_correction"] = (ratio(queries, corrections), "count")
    for alg in ("correct_rm", "correct_proof"):
        name = f"composed.{alg}"
        out[f"{name}.abort_ratio"] = (
            ratio(sums.get(f"{name}.aborts", 0), calls(name)), "ratio"
        )
    blocks = counts.get("composed.proof_block", 0)
    out["composed.proof_block.hit_ratio"] = (
        1.0 - calls("rm.restrict_to_plane") / blocks if blocks else 0.0, "ratio"
    )
    hot = sum(
        spans.get(name, {}).get("in_trial_s", 0.0)
        for name in ("composed.ComposedLayout.decode", "rm.restrict_to_plane")
    )
    trial_total = spans.get("harness.trial", {}).get("in_trial_s", 0.0)
    out["trial.decode_restrict_share"] = (ratio(hot, trial_total), "ratio")
    out["trace_overhead"] = (
        ratio(traced["trials_per_s"], untraced["trials_per_s"]), "ratio"
    )
    return out


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH", "")) if p
    )
    return env


def run_worker(args, root, tmp, deadline, trace=False, units=None, spans=None):
    # each worker gets its own directory, so no sidecar is ever reused
    workdir = Path(tmp) / ("traced" if trace else "untraced")
    workdir.mkdir()
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--workdir", str(workdir),
    ]
    if trace:
        cmd.append("--trace")
    if units is not None:
        cmd += ["--units", str(units)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=worker_env(root), capture_output=True, text=True,
            timeout=max(1.0, deadline - monotonic()),
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} worker timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"perfbench: {args.workload} worker exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(root: Path, worker: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "rlcc").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    commit = None
    # only a checkout that is itself a repository has a commit; git is not
    # asked otherwise, as it would search the directories above the checkout
    if (root / ".git").exists():
        try:
            git = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root,
                capture_output=True, text=True, timeout=10,
            )
            if git.returncode == 0:
                commit = git.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": worker["python"],
        "numpy": worker["numpy"],
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "thread_env": {var: "1" for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="rlcc benchmark")
    ap.add_argument("--workload", required=True, choices=tuple(TRACED_UNITS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = monotonic() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "rlcc" / "__init__.py").is_file():
        print("perfbench: src/rlcc not found; run from the repository root", file=sys.stderr)
        return 2
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    units = TRACED_UNITS[args.workload] if args.trace else None
    with tempfile.TemporaryDirectory(dir=results) as tmp:
        base = run_worker(args, root, tmp, deadline, units=units)
        if base is None:
            return 1
        runs = [base]
        if args.trace:
            traced = run_worker(
                args, root, tmp, deadline, trace=True, units=units,
                spans=results / f"{stem}-spans.npz",
            )
            if traced is None:
                return 1
            runs.append(traced)
    if args.trace:
        metrics = per_layer(runs[1], base)
    else:
        metrics = {name: (base[name], unit) for name, unit in END_TO_END.items()}
    attempted = sum(r["units"] for r in runs)
    failed = sum(r["failed_units"] for r in runs)
    correct = failed == 0 and all(all(r["checks"].values()) for r in runs)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(root, base),
        "failed_share": {"value": failed / attempted, "unit": "ratio"},
        "runs": [
            {k: v for k, v in r.items() if k not in ("spans", "counts", "sums")}
            for r in runs
        ],
    }
    if args.trace:
        details["missing_targets"] = runs[1]["missing_targets"]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (results / f"{stem}.json").write_text(
        json.dumps({"details": details, "result": result}, indent=1, sort_keys=True)
    )
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
