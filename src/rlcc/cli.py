"""Command-line front end.

Exit codes: 0 when every assertion in the run passed, 1 when an
assertion failed, 2 on configuration errors.  The abort sentinel prints
as '!'.
"""

from __future__ import annotations

import argparse
import random
import sys

from . import composed, harness
from .gf import Field
from .pcpp import BOT
from .rm import RmParams, encode

EXPERIMENT_COMMANDS = {
    "ctrw-run": "completeness",
    "mixing-exp": "mixing",
    "sampling-exp": "sampling",
    "matrix-exp": "matrix",
    "soundness-exp": "soundness",
    "calibrate": "calibrate",
    "alg2-exp": "alg2",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rlcc",
        description="Reed-Muller walk tests, proximity proofs, and local correction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--preset", choices=sorted(harness.PRESETS))
        p.add_argument("--seed", type=int)
        p.add_argument("--trials", type=int)
        p.add_argument("--json", dest="json_path", help="write the JSON report here")
        p.add_argument("--csv", dest="csv_path", help="write per-trial CSV here")
        return p

    for name in EXPERIMENT_COMMANDS:
        common(sub.add_parser(name))
    enc = common(sub.add_parser("encode"))
    enc.add_argument("--message", help="comma-separated symbols (default random)")
    enc.add_argument("--out", help="write the materialized word here")
    cor = common(sub.add_parser("correct"))
    cor.add_argument("--address", type=int, required=True)
    cor.add_argument("--noise", type=float, default=0.0)
    common(sub.add_parser("layout-report"))
    swp = common(sub.add_parser("sweep"))
    swp.add_argument("--ms", default="2,3", help="extension degrees to sweep")
    swp.add_argument("--ps", default="2,17", help="subfield sizes to sweep")
    return parser


def _config_from_args(args, kind) -> harness.ExperimentConfig:
    opts = {}
    if args.config:
        opts.update(harness.parse_config_file(args.config))
    if kind in EXPERIMENT_COMMANDS.values() and opts.get("kind", kind) != kind:
        raise harness.ConfigError(
            f"config kind {opts['kind']!r} does not match {args.command} ({kind})"
        )
    for key in ("preset", "seed", "trials", "json_path", "csv_path"):
        val = getattr(args, key, None)
        if val is not None:
            opts[key] = val
    opts["kind"] = kind
    return harness.make_config(**opts)


def cmd_experiment(args, kind) -> int:
    config = _config_from_args(args, kind)
    report = harness.run_experiment(config)
    print(harness.render_json(report))
    return 0 if report.get("ok", True) else 1


def cmd_encode(args) -> int:
    config = _config_from_args(args, "encode")
    layout = composed.ComposedLayout(config.rm, config.pcpp())
    if layout.length > composed.MATERIALIZE_LIMIT:
        raise harness.ConfigError(f"N = {layout.length} is too large to encode")
    rng = random.Random(config.seed)
    if args.message:
        try:
            message = encode(config.rm, [int(s) for s in args.message.split(",")])
        except ValueError as exc:
            raise harness.ConfigError(f"--message {args.message!r}: {exc}") from exc
    else:
        message = [config.ctx.rand_element(rng) for _ in range(config.rm.k)]
    word = composed.materialize(layout, encode(config.rm, message))
    # formatted a million symbols at a time: a list of every symbol's
    # string would hold about 1 GB at T2
    step = 1 << 20
    text = " ".join(
        " ".join(map(str, word[i : i + step].tolist()))
        for i in range(0, word.size, step)
    )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    print(
        f"# N={layout.length} r={layout.repetitions} "
        f"B_actual={layout.predicate_count}",
        file=sys.stderr,
    )
    return 0


def cmd_correct(args) -> int:
    config = _config_from_args(args, "correct")
    layout = composed.ComposedLayout(config.rm, config.pcpp())
    if not 0 <= args.address < layout.length:
        raise harness.ConfigError(f"--address must lie in [0, {layout.length})")
    if not 0 <= args.noise <= 1:
        raise harness.ConfigError("--noise must lie in [0, 1]")
    rng = random.Random(config.seed)
    message = [config.ctx.rand_element(rng) for _ in range(config.rm.k)]
    oracle = composed.CanonicalOracle(layout, message)
    read = oracle.read
    if args.noise > 0:
        overlay = composed.Overlay(layout, config.seed).add_region_random(args.noise)
        read = composed.OverlayOracle(oracle, overlay).read
    region = layout.decode(args.address)[0]
    if region == composed.RM_REGION:
        out = composed.correct_rm(layout, read, args.address, rng)
    else:
        out = composed.correct_proof(layout, read, args.address, rng)
    print("!" if out is BOT else out)
    return 0


def cmd_layout_report(args) -> int:
    config = _config_from_args(args, "layout")
    layout = composed.ComposedLayout(config.rm, config.pcpp())
    print(harness.render_json(composed.block_length_report(layout)))
    return 0


def cmd_sweep(args) -> int:
    config = _config_from_args(args, "sweep")
    rows = []
    for p in (int(s) for s in args.ps.split(",")):
        for m in (int(s) for s in args.ms.split(",")):
            ctx = Field(p, m)
            d = max(1, round(ctx.n / 4))  # pins rho near 3/4
            layout = composed.ComposedLayout(RmParams(ctx, m, d), config.pcpp())
            rows.append(composed.block_length_report(layout))
    print(harness.render_json({"rows": rows}))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    commands = {
        "encode": cmd_encode,
        "correct": cmd_correct,
        "layout-report": cmd_layout_report,
        "sweep": cmd_sweep,
    }
    try:
        if args.command in EXPERIMENT_COMMANDS:
            return cmd_experiment(args, EXPERIMENT_COMMANDS[args.command])
        return commands[args.command](args)
    except harness.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
