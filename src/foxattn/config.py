"""Run configuration: flat `key = value` files with typed known keys.

Lines are `dotted.key = value`; `#` starts a comment; blank lines are
ignored. Unknown keys are a hard error carrying the line number, so a typo
cannot silently fall back to a default. Values are typed by the default
registered for the key (int, float, bool, str, or a comma list of numbers).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError
from .layer import GateMode
from .model import ModelConfig
from .training import TrainConfig

DEFAULTS: dict[str, object] = {
    # model
    "model.n_layers": 2,
    "model.d_model": 64,
    "model.n_heads": 4,
    "model.d_head": 16,
    "model.vocab_size": 16,
    "model.max_train_len": 256,
    "model.arch": "pro",
    "model.gate_mode": "data_dependent",
    "model.t_min": 2.0,
    "model.t_max": 128.0,
    "model.mlp_ratio": 8.0 / 3.0,
    "model.rope": False,
    "model.rope_theta": 500000.0,
    "model.runtime_len_cap": 8192,
    "model.backend": "tiled",
    "model.tile": 64,
    # training
    "train.total_tokens": 500_000,
    "train.batch_tokens": 512,
    "train.seq_len": 128,
    "train.peak_lr": 3e-3,
    "train.warmup_tokens": 50_000,
    "train.beta1": 0.9,
    "train.beta2": 0.95,
    "train.eps": 1e-8,
    "train.weight_decay": 0.1,
    "train.clip_norm": 1.0,
    "train.checkpoint_interval": 0,
    "train.log_every": 1,
    "train.task": "copy",
    # copy task
    "copy.copy_len": 32,
    # needle task
    "needle.key_len": 1,
    "needle.value_len": 1,
    "needle.easy_mode": True,
    "needle.train_depth_random": True,
    # evaluation
    "eval.num_sequences": 32,
    "eval.seq_len": 256,
    "eval.smooth_window": 11,
    "eval.logf_cap": "",
    "eval.task": "copy",
    # needle grid evaluation
    "needle_eval.lengths": (64, 128, 256, 384, 512),
    "needle_eval.depths": (0.0, 0.25, 0.5, 0.75, 1.0),
    "needle_eval.trials": 25,
    # run
    "run.seed": 0,
}


@dataclass
class RunConfig:
    values: dict[str, object] = field(default_factory=lambda: dict(DEFAULTS))

    def __getitem__(self, key: str) -> object:
        if key not in self.values:
            raise ConfigError(f"unknown config key {key!r}")
        return self.values[key]

    def set(self, key: str, raw: str, where: str = "override") -> None:
        if key not in self.values:
            raise ConfigError(f"{where}: unknown config key {key!r}")
        self.values[key] = _convert(key, raw, self.values[key], where)

    def _build(self, cls, prefix: str, **special):
        """cls from every prefix.<field> key that names one of its fields."""
        kw = {
            f.name: self.values[prefix + f.name]
            for f in fields(cls)
            if prefix + f.name in self.values
        }
        return cls(**{**kw, **special})

    def model_config(self) -> ModelConfig:
        v = self.values
        mode = GateMode(v["model.gate_mode"], v["model.t_min"], v["model.t_max"])
        return self._build(ModelConfig, "model.", gate_mode=mode)

    def train_config(self) -> TrainConfig:
        return self._build(TrainConfig, "train.", seed=self.values["run.seed"])

    def resolved_lines(self) -> str:
        out = []
        for key in sorted(self.values):
            val = self.values[key]
            if isinstance(val, tuple):
                val = ",".join(str(x) for x in val)
            out.append(f"{key} = {val}")
        return "\n".join(out) + "\n"


def _convert(key: str, raw: str, default: object, where: str) -> object:
    raw = raw.strip()
    try:
        if isinstance(default, bool):
            low = raw.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        if isinstance(default, tuple):
            items = [x.strip() for x in raw.split(",") if x.strip()]
            if not items:
                raise ValueError("empty list")
            if any("." in x or "e" in x.lower() for x in items):
                return tuple(float(x) for x in items)
            return tuple(int(x) for x in items)
        return raw
    except ValueError as e:
        raise ConfigError(f"{where}: bad value for {key!r}: {e}") from e


def parse_config_file(path: str | Path, cfg: RunConfig | None = None) -> RunConfig:
    cfg = cfg if cfg is not None else RunConfig()
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        cfg.set(key.strip(), raw, where=f"{path}:{lineno}")
    return cfg


def apply_overrides(cfg: RunConfig, pairs: list[str]) -> RunConfig:
    """Apply --set key=value pairs after any config file."""
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not key=value")
        key, raw = pair.split("=", 1)
        cfg.set(key.strip(), raw, where=f"--set {pair}")
    return cfg
