"""Tests for the flat key=value run configuration."""

from dataclasses import fields

import pytest

from foxattn.config import DEFAULTS, RunConfig, apply_overrides, parse_config_file
from foxattn.errors import ConfigError


def test_defaults_spot_values():
    cfg = RunConfig()
    assert cfg["model.d_model"] == 64
    assert cfg["model.arch"] == "pro"
    assert cfg["train.total_tokens"] == 500_000
    assert cfg["needle_eval.lengths"] == (64, 128, 256, 384, 512)
    assert cfg["run.seed"] == 0


def test_defaults_are_copied_per_instance():
    a = RunConfig()
    a.set("model.d_model", "128")
    b = RunConfig()
    assert b["model.d_model"] == 64
    assert DEFAULTS["model.d_model"] == 64


def test_unknown_key_lookup_raises():
    cfg = RunConfig()
    with pytest.raises(ConfigError, match="model.dmodel"):
        cfg["model.dmodel"]


def test_set_unknown_key_carries_location():
    cfg = RunConfig()
    with pytest.raises(ConfigError, match=r"run.cfg:3.*model.width"):
        cfg.set("model.width", "64", where="run.cfg:3")


def test_bool_conversion_accepted_spellings():
    cfg = RunConfig()
    for raw in ("true", "True", "1", "yes", "on"):
        cfg.set("model.rope", raw)
        assert cfg["model.rope"] is True
    for raw in ("false", "False", "0", "no", "off"):
        cfg.set("model.rope", raw)
        assert cfg["model.rope"] is False


def test_bool_conversion_rejects_garbage():
    cfg = RunConfig()
    with pytest.raises(ConfigError, match="model.rope"):
        cfg.set("model.rope", "maybe")


def test_int_conversion():
    cfg = RunConfig()
    cfg.set("train.seq_len", " 96 ")
    assert cfg["train.seq_len"] == 96
    with pytest.raises(ConfigError, match="train.seq_len"):
        cfg.set("train.seq_len", "12.5")


def test_float_conversion_scientific():
    cfg = RunConfig()
    cfg.set("train.peak_lr", "3e-4")
    assert cfg["train.peak_lr"] == 3e-4


def test_tuple_conversion_ints_and_floats():
    cfg = RunConfig()
    cfg.set("needle_eval.lengths", "64, 128,256")
    assert cfg["needle_eval.lengths"] == (64, 128, 256)
    cfg.set("needle_eval.depths", "0.0, 0.5, 1.0")
    assert cfg["needle_eval.depths"] == (0.0, 0.5, 1.0)
    with pytest.raises(ConfigError, match="needle_eval.lengths"):
        cfg.set("needle_eval.lengths", " , ")


def test_string_passthrough():
    cfg = RunConfig()
    cfg.set("model.arch", "llama")
    assert cfg["model.arch"] == "llama"


def test_parse_config_file_comments_and_blanks(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "# full line comment\n"
        "\n"
        "model.d_model = 32   # trailing comment\n"
        "model.gate_mode=none\n"
        "train.peak_lr = 1e-2\n"
    )
    cfg = parse_config_file(p)
    assert cfg["model.d_model"] == 32
    assert cfg["model.gate_mode"] == "none"
    assert cfg["train.peak_lr"] == 1e-2
    # untouched keys keep their defaults
    assert cfg["model.n_heads"] == 4


def test_parse_config_file_unknown_key_reports_line(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("model.d_model = 32\nmodel.nheads = 4\n")
    with pytest.raises(ConfigError, match=r"run.cfg:2"):
        parse_config_file(p)


def test_parse_config_file_missing_equals_reports_line(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("# header\nmodel.d_model 32\n")
    with pytest.raises(ConfigError, match=r"run.cfg:2"):
        parse_config_file(p)


def test_overrides_win_over_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("model.d_model = 32\n")
    cfg = parse_config_file(p)
    apply_overrides(cfg, ["model.d_model=48", "run.seed=7"])
    assert cfg["model.d_model"] == 48
    assert cfg["run.seed"] == 7


def test_override_without_equals_raises():
    with pytest.raises(ConfigError, match="model.d_model"):
        apply_overrides(RunConfig(), ["model.d_model"])


def test_override_unknown_key_names_the_pair():
    with pytest.raises(ConfigError, match=r"--set model.width=9"):
        apply_overrides(RunConfig(), ["model.width=9"])


def test_model_config_materializes_fields():
    cfg = RunConfig()
    for pair in (
        "model.n_layers=3",
        "model.arch=llama",
        "model.gate_mode=fixed",
        "model.t_min=4",
        "model.t_max=64",
        "model.rope=true",
        "model.backend=naive",
    ):
        apply_overrides(cfg, [pair])
    mc = cfg.model_config()
    assert mc.n_layers == 3
    assert mc.arch == "llama"
    assert mc.gate_mode.kind == "fixed"
    assert mc.gate_mode.t_min == 4.0
    assert mc.gate_mode.t_max == 64.0
    assert mc.rope is True
    assert mc.backend == "naive"


def test_train_config_takes_seed_from_run_section():
    cfg = RunConfig()
    apply_overrides(cfg, ["run.seed=11", "train.seq_len=64", "train.peak_lr=1e-2"])
    tc = cfg.train_config()
    assert tc.seed == 11
    assert tc.seq_len == 64
    assert tc.peak_lr == 1e-2


# A valid non-default value for every key that feeds ModelConfig or TrainConfig.
_NON_DEFAULT = {
    "model.n_layers": "3",
    "model.d_model": "72",
    "model.n_heads": "6",
    "model.d_head": "12",
    "model.vocab_size": "20",
    "model.max_train_len": "300",
    "model.arch": "llama",
    "model.gate_mode": "fixed",
    "model.t_min": "4",
    "model.t_max": "64",
    "model.mlp_ratio": "3.0",
    "model.rope": "true",
    "model.rope_theta": "10000",
    "model.runtime_len_cap": "4096",
    "model.backend": "naive",
    "model.tile": "32",
    "train.total_tokens": "2000",
    "train.batch_tokens": "256",
    "train.seq_len": "64",
    "train.peak_lr": "1e-3",
    "train.warmup_tokens": "100",
    "train.beta1": "0.8",
    "train.beta2": "0.9",
    "train.eps": "1e-6",
    "train.weight_decay": "0.0",
    "train.clip_norm": "2.0",
    "train.checkpoint_interval": "5",
    "train.log_every": "3",
    "run.seed": "11",
}


def test_every_field_key_reaches_the_built_config():
    cfg = apply_overrides(RunConfig(), [f"{k}={v}" for k, v in _NON_DEFAULT.items()])
    mc, tc = cfg.model_config(), cfg.train_config()
    reached = {
        "model.gate_mode": mc.gate_mode.kind,
        "model.t_min": mc.gate_mode.t_min,
        "model.t_max": mc.gate_mode.t_max,
        "run.seed": tc.seed,
    }
    for prefix, built in (("model.", mc), ("train.", tc)):
        for f in fields(built):
            if prefix + f.name in DEFAULTS:
                reached.setdefault(prefix + f.name, getattr(built, f.name))
    assert set(reached) == set(_NON_DEFAULT)
    for key, got in reached.items():
        assert got == cfg[key] != DEFAULTS[key], key
        assert type(got) is type(DEFAULTS[key]), key


def test_resolved_lines_roundtrip(tmp_path):
    cfg = RunConfig()
    apply_overrides(cfg, ["model.rope=true", "needle_eval.depths=0.0,1.0", "model.arch=llama"])
    text = cfg.resolved_lines()
    assert text.endswith("\n")
    lines = text.strip().splitlines()
    assert lines == sorted(lines)
    assert all(" = " in ln for ln in lines)
    # the dump parses back to the identical configuration
    p = tmp_path / "resolved.cfg"
    p.write_text(text)
    back = parse_config_file(p)
    assert back.values == cfg.values
