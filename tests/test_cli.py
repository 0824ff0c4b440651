"""End-to-end tests of the command-line interface.

Training commands here use deliberately tiny models and token budgets; the
point is the plumbing (arguments, files, exit codes, determinism), not the
numerics, which have their own test modules.
"""

import numpy as np
import pytest

from foxattn import cli
from foxattn import gradcheck as gc
from foxattn import verify

# one small model shared by the train/eval/needle round trip
MODEL_SET = [
    "--set", "model.n_layers=1",
    "--set", "model.d_model=8",
    "--set", "model.n_heads=2",
    "--set", "model.d_head=4",
    "--set", "model.vocab_size=16",
    "--set", "model.max_train_len=64",
    "--set", "model.tile=16",
]
TRAIN_SET = MODEL_SET + [
    "--set", "train.seq_len=40",
    "--set", "train.batch_tokens=80",
    "--set", "train.total_tokens=320",
    "--set", "train.warmup_tokens=160",
    "--set", "copy.copy_len=16",
]


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_train")
    rc = cli.main(["train", "--out", str(out)] + TRAIN_SET)
    assert rc == 0
    return out


def test_train_writes_artifacts(trained_dir, capsys):
    assert (trained_dir / "metrics.csv").exists()
    assert (trained_dir / "model.ckpt").exists()
    assert (trained_dir / "train.config.txt").exists()
    lines = (trained_dir / "metrics.csv").read_text().splitlines()
    # 320 tokens / 80 per batch = 4 steps, plus the header
    assert lines[0] == "step,tokens,lr,loss,grad_norm"
    assert len(lines) == 5
    assert lines[1].startswith("1,80,")


def test_train_resolved_config_records_overrides(trained_dir):
    text = (trained_dir / "train.config.txt").read_text()
    assert "model.d_model = 8" in text
    assert "copy.copy_len = 16" in text
    assert "train.task = copy" in text


def test_train_is_deterministic(tmp_path, trained_dir):
    again = tmp_path / "again"
    rc = cli.main(["train", "--out", str(again)] + TRAIN_SET)
    assert rc == 0
    assert (again / "metrics.csv").read_bytes() == (trained_dir / "metrics.csv").read_bytes()
    assert (again / "model.ckpt").read_bytes() == (trained_dir / "model.ckpt").read_bytes()


def test_train_verbose_logs_rows(tmp_path, capsys):
    rc = cli.main(
        ["train", "--out", str(tmp_path / "v"), "--verbose"]
        + MODEL_SET
        + [
            "--set", "train.seq_len=40",
            "--set", "train.batch_tokens=80",
            "--set", "train.total_tokens=160",
            "--set", "train.warmup_tokens=80",
            "--set", "copy.copy_len=16",
        ]
    )
    assert rc == 0
    outp = capsys.readouterr().out
    assert "trained 2 steps" in outp
    lines = outp.splitlines()
    assert any(ln.startswith("1,80,") for ln in lines)
    assert any(ln.startswith("2,160,") for ln in lines)


def test_train_needle_task_runs(tmp_path):
    rc = cli.main(
        ["train", "--out", str(tmp_path / "n")]
        + MODEL_SET
        + [
            "--set", "train.task=needle",
            "--set", "train.seq_len=24",
            "--set", "train.batch_tokens=48",
            "--set", "train.total_tokens=96",
            "--set", "train.warmup_tokens=48",
        ]
    )
    assert rc == 0
    assert (tmp_path / "n" / "model.ckpt").exists()


def test_eval_writes_loss_curve(trained_dir, tmp_path, capsys):
    out = tmp_path / "ev"
    args = (
        ["eval", "--ckpt", str(trained_dir / "model.ckpt"), "--out", str(out)]
        + MODEL_SET
        + ["--set", "eval.seq_len=48", "--set", "eval.num_sequences=2",
           "--set", "eval.smooth_window=5", "--set", "copy.copy_len=16"]
    )
    rc = cli.main(args)
    assert rc == 0
    lines = (out / "eval.csv").read_text().splitlines()
    assert lines[0] == "position,loss_raw,loss_smoothed"
    assert len(lines) == 1 + 47  # seq_len 48 scores 47 next-token positions
    assert lines[1].startswith("1,")
    # identical rerun produces identical bytes
    first = (out / "eval.csv").read_bytes()
    assert cli.main(args) == 0
    assert (out / "eval.csv").read_bytes() == first


def test_needle_writes_grid(trained_dir, tmp_path):
    out = tmp_path / "nd"
    args = (
        ["needle", "--ckpt", str(trained_dir / "model.ckpt"), "--out", str(out)]
        + MODEL_SET
        + [
            "--set", "needle_eval.lengths=16,24",
            "--set", "needle_eval.depths=0.0,1.0",
            "--set", "needle_eval.trials=2",
        ]
    )
    rc = cli.main(args)
    assert rc == 0
    lines = (out / "needle.csv").read_text().splitlines()
    assert lines[0] == "length,depth,accuracy"
    assert len(lines) == 1 + 4
    for ln in lines[1:]:
        length, depth, acc = ln.split(",")
        assert int(length) in (16, 24)
        assert 0.0 <= float(acc) <= 1.0


def test_bench_reports_flat_tiled_memory(tmp_path, capsys):
    out = tmp_path / "b"
    rc = cli.main(["bench", "--lens", "64,256", "--tile", "16", "--out", str(out)])
    assert rc == 0
    lines = (out / "bench.csv").read_text().splitlines()
    assert lines[0] == "length,backend,tile,peak_bytes"
    rows = [ln.split(",") for ln in lines[1:]]
    naive = {int(r[0]): int(r[3]) for r in rows if r[1] == "naive"}
    tiled = {int(r[0]): int(r[3]) for r in rows if r[1] == "tiled"}
    assert naive[256] > naive[64]  # materialized scores grow with L^2
    assert tiled[256] == tiled[64]  # streaming scratch does not depend on L
    # timings are excluded from the csv so reruns are byte-identical
    assert cli.main(["bench", "--lens", "64,256", "--tile", "16", "--out", str(out)]) == 0
    assert (out / "bench.csv").read_text().splitlines() == lines


def test_init_inspect_prints_timescale_table(capsys):
    rc = cli.main(["init-inspect"])
    assert rc == 0
    outp = capsys.readouterr().out
    lines = outp.strip().splitlines()
    assert len(lines) == 1 + 4
    scales = [float(ln.split()[1]) for ln in lines[1:]]
    assert scales == [2.0, 8.0, 32.0, 128.0]


def test_ckpt_dump_lists_tensors(trained_dir, capsys):
    rc = cli.main(["ckpt-dump", str(trained_dir / "model.ckpt")])
    assert rc == 0
    outp = capsys.readouterr().out
    assert "embed" in outp
    assert "blocks.0.attn.heads.0.w_q" in outp
    assert "tensors," in outp.strip().splitlines()[-1]


def test_out_dir_falls_back_to_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("FOX_OUT_DIR", str(tmp_path / "envout"))
    rc = cli.main(["bench", "--lens", "32", "--tile", "8"])
    assert rc == 0
    assert (tmp_path / "envout" / "bench.csv").exists()


def test_config_file_plus_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "model.n_layers = 1\nmodel.d_model = 8\nmodel.n_heads = 2\n"
        "model.d_head = 4\nmodel.max_train_len = 64\n"
        "train.seq_len = 40\ntrain.batch_tokens = 80\ntrain.total_tokens = 160\n"
        "train.warmup_tokens = 80\ncopy.copy_len = 16\n"
    )
    out = tmp_path / "cfgrun"
    rc = cli.main(
        ["train", "--config", str(cfgfile), "--out", str(out), "--set", "run.seed=3"]
    )
    assert rc == 0
    resolved = (out / "train.config.txt").read_text()
    assert "run.seed = 3" in resolved
    assert "model.d_model = 8" in resolved


def test_unknown_config_key_exits_two(tmp_path, capsys):
    rc = cli.main(["train", "--out", str(tmp_path), "--set", "model.width=9"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_config_value_rejected_by_the_library_exits_two(tmp_path, capsys):
    # a copy task needs seq_len >= 2 * copy_len + 2; the config parser does
    # not know that, the task generator does
    rc = cli.main(["train", "--out", str(tmp_path)] + TRAIN_SET + ["--set", "train.seq_len=10"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_missing_checkpoint_exits_two(tmp_path, capsys):
    rc = cli.main(
        ["eval", "--ckpt", str(tmp_path / "nope.ckpt"), "--out", str(tmp_path)]
        + MODEL_SET
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_corrupt_checkpoint_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint at all")
    rc = cli.main(["ckpt-dump", str(bad)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def _fake_results(ok: bool):
    return [gc.CheckResult("stub check", 1e-9 if ok else 1.0, 1e-6)]


def test_gradcheck_exit_codes(monkeypatch, capsys):
    monkeypatch.setattr(gc, "standard_suite", lambda seed: _fake_results(True))
    assert cli.main(["gradcheck"]) == 0
    assert "[ok]" in capsys.readouterr().out
    monkeypatch.setattr(gc, "standard_suite", lambda seed: _fake_results(False))
    assert cli.main(["gradcheck"]) == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_equiv_exit_codes(monkeypatch, capsys):
    good = [verify.EquivResult("stub", 1e-12, 1e-6, 3)]
    bad = [verify.EquivResult("stub", 1.0, 1e-6, 3)]
    monkeypatch.setattr(verify, "standard_suite", lambda seed: good)
    assert cli.main(["equiv"]) == 0
    assert "all passed" in capsys.readouterr().out
    monkeypatch.setattr(verify, "standard_suite", lambda seed: bad)
    assert cli.main(["equiv"]) == 1
    assert "FAILURES" in capsys.readouterr().out


def test_gradcheck_real_attention_core_only():
    # one real finite-difference check keeps the CLI wiring honest end to end
    r = gc.check_attention_core(seed=0, length=5, d=2)
    assert r.ok and r.worst <= 1e-6
