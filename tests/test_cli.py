import json
from pathlib import Path

import pytest

from rlcc.cli import main


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
