import json
import time
from pathlib import Path

import pytest

from rlcc import composed, harness
from rlcc.cli import EXPERIMENT_COMMANDS, main
from rlcc.rm import encode


def test_matrix_exp_exit_zero(capsys):
    rc = main(["matrix-exp", "--config", "/dev/null", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    rep = json.loads(out)
    assert rep["kind"] == "matrix"


def test_config_error_exit_two(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("banana = 1\n")
    rc = main(["soundness-exp", "--config", str(cfg)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ctrw-run", "layout-report"])
@pytest.mark.parametrize(
    "lines",
    [
        ["p = 4", "m = 3", "d = 1"],  # no field of prime order 4
        ["p = 2", "m = 3", "d = 9"],  # d >= |F| = 8
        ["preset = T2", "steps = 1"],  # every walk takes m steps
    ],
)
def test_unbuildable_config_exit_two(command, lines, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("\n".join(lines + ["trials = 2"]) + "\n")
    assert main([command, "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


def test_precondition_violation_exit_two(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("preset = T2\ndelta = 0.9\ntrials = 2\n")
    rc = main(["soundness-exp", "--config", str(cfg)])
    assert rc == 2


def test_ctrw_run_t1(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("preset = T1\ntrials = 10\nseed = 3\n")
    out_json = tmp_path / "rep.json"
    rc = main(["ctrw-run", "--config", str(cfg), "--json", str(out_json)])
    assert rc == 0
    rep = json.loads(out_json.read_text())
    assert rep["accepted"] == 10
    assert rep["field"] == "2^2/1,1,1"


def test_layout_report(capsys, tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("preset = T2\n")
    rc = main(["layout-report", "--config", str(cfg)])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["N"] == 17915904


def test_sweep(capsys):
    rc = main(["sweep", "--ps", "2", "--ms", "2,3"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert len(rep["rows"]) == 2
    assert rep["rows"][0]["exponent_paper"] > rep["rows"][1]["exponent_paper"]


def test_encode_and_correct_tiny(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("preset = T1\nseed = 4\n")
    out = tmp_path / "word.txt"
    rc = main(["encode", "--config", str(cfg), "--message", "1,2,3", "--out", str(out)])
    assert rc == 0
    word = out.read_text().split()
    assert len(word) == 31104
    # the file is the per-symbol rendering of the materialized word
    config = harness.make_config(preset="T1", seed=4)
    layout = composed.ComposedLayout(config.rm, config.pcpp())
    table = composed.materialize(layout, encode(config.rm, [1, 2, 3]))
    assert out.read_text() == " ".join(str(int(v)) for v in table) + "\n"
    # correct derives its message from the seed, so encode the same way
    rc = main(["encode", "--config", str(cfg), "--out", str(out), "--seed", "4"])
    assert rc == 0
    word = out.read_text().split()
    rc = main(["correct", "--config", str(cfg), "--address", "7", "--seed", "4"])
    assert rc == 0
    printed = capsys.readouterr().out.strip().splitlines()[-1]
    assert printed == word[7]


def test_correct_renders_abort_as_bang(tmp_path, capsys):
    # heavy noise makes the corrector abort with overwhelming probability
    cfg = tmp_path / "c.cfg"
    cfg.write_text("preset = T1\nseed = 2\n")
    outputs = set()
    for seed in range(6):
        rc = main(
            ["correct", "--config", str(cfg), "--address", "3",
             "--noise", "0.45", "--seed", str(seed)]
        )
        assert rc == 0
        outputs.add(capsys.readouterr().out.strip().splitlines()[-1])
    assert "!" in outputs


def test_mixing_exp_cli(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("preset = T2\ntrials = 200\ndelta = 0.1\n")
    rc = main(["mixing-exp", "--config", str(cfg), "--seed", "8"])
    assert rc == 0


def test_config_kind_must_match_subcommand(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("preset = T2\nkind = alg2\ntrials = 2\n")
    assert main(["soundness-exp", "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err
    cfg.write_text("kind = matrix\n")
    assert main(["matrix-exp", "--config", str(cfg), "--seed", "1"]) == 0


@pytest.mark.parametrize(
    "command, lines",
    [
        ("ctrw-run", ["preset = T1", "trials = 5"]),
        ("soundness-exp", ["preset = T2", "trials = 5"]),
        ("calibrate", ["p = 2", "m = 2", "d = 1", "trials = 100"]),
        ("alg2-exp", ["preset = T2", "trials = 5"]),
    ],
)
def test_report_written_once_with_wall_clock(command, lines, tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("\n".join(lines + [f"sidecar = {tmp_path / 'cal.json'}"]) + "\n")
    out_json = tmp_path / "rep.json"
    writes = []
    real_write = Path.write_text

    def counting(self, *args, **kwargs):
        writes.append(Path(self))
        return real_write(self, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", counting)
    rc = main([command, "--config", str(cfg), "--seed", "3", "--json", str(out_json)])
    assert rc in (0, 1)
    assert writes.count(out_json) == 1
    rep = json.loads(out_json.read_text())
    assert "wall_clock" in rep
    printed = json.loads(capsys.readouterr().out)
    assert printed == rep


@pytest.mark.parametrize("preset", ["T1", "T2", "T3"])
@pytest.mark.parametrize(
    "argv",
    [[command] for command in EXPERIMENT_COMMANDS]
    + [["layout-report"], ["sweep"], ["correct", "--address", "5"]],
)
def test_every_command_exits_with_a_code(argv, preset, tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        f"preset = {preset}\ntrials = 3\nallow_unsound = true\n"
        f"sidecar = {tmp_path / 'cal.json'}\n"
    )
    assert main(argv + ["--config", str(cfg)]) in (0, 1, 2)


BIG_FIELD = ["p = 2", "m = 21", "d = 1", "trials = 3"]
# n = 2^10 has log tables, but F^m has 2^100 points
CODE_OVERFLOW = ["p = 2", "m = 10", "d = 40", "trials = 3"]


@pytest.mark.parametrize(
    "argv, lines, message",
    [
        (["alg2-exp"], ["preset = T1"], "delta >= 4r/N = 0.125"),
        (["ctrw-run"], ["preset = S1"], "points of F"),
        (["soundness-exp"], BIG_FIELD, "log-table entries"),
        (["alg2-exp"], BIG_FIELD, "log-table entries"),
        (["sampling-exp"], BIG_FIELD, "plane grid points"),
        (["calibrate"], BIG_FIELD, "plane grid points"),
        (["soundness-exp"], ["preset = S1", "d = 5"], "preset S1"),
        (["encode", "--message", "1,2"], ["preset = T1"], "--message"),
        (["encode", "--message", "1,2,9"], ["preset = T1"], "--message"),
        (["encode", "--message", "1,x,2"], ["preset = T1"], "--message"),
        (["encode"], ["preset = S1"], "too large"),
        (["correct", "--address", "-1"], ["preset = T1"], "--address"),
        (["correct", "--address", "31104"], ["preset = T1"], "--address"),
        (["correct", "--address", "3", "--noise", "2"], ["preset = T1"], "--noise"),
        (["sweep", "--ps", "4", "--ms", "2"], ["preset = T1"], "p = 4 is not prime"),
        (["sweep", "--ps", "x"], ["preset = T1"], "--ps 'x'"),
        (["sweep", "--ms", "1"], ["preset = T1"], "m = 1 must be >= 2"),
        # config-file values are read as their field's type and range
        (["ctrw-run"], ["preset = T2", "trials = 2.5"], "trials = '2.5' is not a valid int"),
        (["layout-report"], ["preset = T2", "pcpp_qv = abc"], "pcpp_qv = 'abc' is not a valid int"),
        (["layout-report"], ["preset = T2", "pcpp_qv = -2"], "pcpp_qv = -2 must be >= 1"),
        (["layout-report"], ["preset = T2", "pcpp_qv = 0"], "pcpp_qv = 0 must be >= 1"),
        (["soundness-exp"], ["preset = T2", "delta = abc"], "delta = 'abc' is not a valid float"),
        (["soundness-exp"], ["preset = T2", "delta = -0.1"], "delta = -0.1 must lie in [0, 1]"),
        (
            ["soundness-exp"],
            ["p = 2", "m = 2", "d = 2", "trials = 2", "allow_unsound = no"],
            "allow_unsound = 'no' is not a valid bool",
        ),
        (["soundness-exp"], CODE_OVERFLOW, "int64 point codes"),
        (["alg2-exp"], CODE_OVERFLOW, "int64 point codes"),
        # n = 1031^2 is above 2^20: no log tables
        (["correct", "--address", "5"], ["p = 1031", "m = 2", "d = 3"], "log-table entries"),
        # k = 10,272,278,170: refused before the message is drawn
        (["correct", "--address", "5"], CODE_OVERFLOW, "message of k = 10272278170"),
        # the walk needs arithmetic, which a field past 2^20 does not have
        (["mixing-exp"], BIG_FIELD, "log-table entries"),
        # GF(17^21): its irreducibility test would try 17^10 divisors
        (["sweep", "--ps", "17", "--ms", "21"], ["preset = T1"], "17^10 divisors"),
    ],
)
def test_unrunnable_inputs_exit_two(argv, lines, message, tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("\n".join(lines + [f"sidecar = {tmp_path / 'cal.json'}"]) + "\n")
    start = time.monotonic()
    assert main(argv + ["--config", str(cfg)]) == 2
    assert time.monotonic() - start < 1
    err = capsys.readouterr().err
    assert "config error" in err and message in err


# sizes and codecs only: GF(2^21) and GF(17^5) are past the table limit
@pytest.mark.parametrize(
    "argv",
    [["layout-report"], ["sweep", "--ps", "2", "--ms", "21"], ["sweep", "--ps", "17", "--ms", "5"]],
)
def test_big_fields_still_run_where_they_can(argv, tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("\n".join(BIG_FIELD) + "\n")
    assert main(argv + ["--config", str(cfg)]) == 0
