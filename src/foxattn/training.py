"""Deterministic desk-scale trainer.

AdamW with decoupled weight decay, global-norm gradient clipping, and a
linear-warmup / cosine-decay schedule measured in tokens. Weight decay skips
all RMSNorm scales and forget-gate biases; frozen (fixed-mode) gate biases
are excluded from the optimizer outright. Every source of randomness is a
named Philox stream of the run seed, so identical seed + config + data gives
bit-identical loss trajectories and metrics bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .checkpoint import save_model
from .errors import ConfigError, TrainingFault
from .layer import GATE_BIAS
from .model import (
    ModelConfig,
    ModelParams,
    cross_entropy,
    cross_entropy_bwd,
    init_model_params,
    model_bwd,
    model_fwd,
    named_parameters,
)
from .rng import rng_stream


@dataclass(frozen=True)
class TrainConfig:
    total_tokens: int = 500_000
    batch_tokens: int = 512
    seq_len: int = 128
    peak_lr: float = 3e-3
    warmup_tokens: int = 50_000
    beta1: float = 0.9
    beta2: float = 0.95
    eps: float = 1e-8
    weight_decay: float = 0.1
    clip_norm: float = 1.0
    seed: int = 0
    checkpoint_interval: int = 0  # steps; 0 = final checkpoint only
    log_every: int = 1

    def __post_init__(self) -> None:
        if self.batch_tokens < self.seq_len:
            raise ConfigError("batch_tokens must hold at least one sequence")
        if self.warmup_tokens > self.total_tokens:
            raise ConfigError("warmup_tokens exceeds total_tokens")
        if not 0 < self.beta1 < 1 or not 0 < self.beta2 < 1:
            raise ConfigError("betas must lie in (0, 1)")


def lr_schedule(tokens_seen: int, cfg: TrainConfig) -> float:
    """Linear warmup to peak_lr, then cosine decay to exactly 0 at the end."""
    if tokens_seen <= 0:
        return 0.0
    if tokens_seen < cfg.warmup_tokens:
        return cfg.peak_lr * tokens_seen / cfg.warmup_tokens
    if tokens_seen >= cfg.total_tokens:
        return 0.0
    span = cfg.total_tokens - cfg.warmup_tokens
    if span == 0:
        return cfg.peak_lr
    progress = (tokens_seen - cfg.warmup_tokens) / span
    return cfg.peak_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


def global_grad_norm(grads: dict[str, np.ndarray]) -> float:
    """Global L2 norm over every gradient tensor, accumulated in float64."""
    total = 0.0
    for a in grads.values():
        total += float(np.sum(np.asarray(a, dtype=np.float64) ** 2))
    return math.sqrt(total)


def clip_grad_norm(
    grads: dict[str, np.ndarray], max_norm: float
) -> tuple[dict[str, np.ndarray], float]:
    """Scale all gradients in place when the global norm exceeds max_norm.

    Returns (grads, pre-clip norm). Non-finite norms abort training: a NaN
    here would otherwise silently poison the optimizer state.
    """
    norm = global_grad_norm(grads)
    if not math.isfinite(norm):
        raise TrainingFault(f"non-finite gradient norm {norm}")
    if norm > max_norm > 0:
        scale = max_norm / norm
        for a in grads.values():
            a *= scale
    return grads, norm


def decay_exempt(name: str) -> bool:
    """RMSNorm scales and forget-gate biases never receive weight decay."""
    leaf = name.rsplit(".", 1)[-1]
    return leaf == "gamma" or leaf.endswith("gamma") or leaf == GATE_BIAS


@dataclass
class AdamWState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def init(cls, named: Iterable[tuple[str, np.ndarray]]) -> "AdamWState":
        m, v = {}, {}
        for name, a in named:
            m[name] = np.zeros_like(a)
            v[name] = np.zeros_like(a)
        return cls(m=m, v=v)


def adamw_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamWState,
    lr: float,
    cfg: TrainConfig,
) -> None:
    """One decoupled-weight-decay Adam update, in place.

    Only names present in the state are updated; anything else (for example
    a frozen gate bias) is untouched even if a gradient is supplied.
    """
    state.step += 1
    t = state.step
    b1, b2 = cfg.beta1, cfg.beta2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for name, m in state.m.items():
        p = params[name]
        g = grads[name]
        if cfg.weight_decay != 0.0 and not decay_exempt(name):
            p -= (lr * cfg.weight_decay) * p
        v = state.v[name]
        m += (1.0 - b1) * (g - m)
        v += (1.0 - b2) * (g * g - v)
        m_hat = m / bc1
        v_hat = v / bc2
        p -= lr * m_hat / (np.sqrt(v_hat) + cfg.eps)


def trainable_names(params: ModelParams, cfg: ModelConfig) -> list[str]:
    """Canonical optimizer parameter list; fixed-mode gate biases drop out."""
    names = []
    for name, _ in named_parameters(params):
        if cfg.gate_mode.kind == "fixed" and name.rsplit(".", 1)[-1] == GATE_BIAS:
            continue
        names.append(name)
    return names


# A batch is a list of (tokens, loss_mask) pairs. loss_mask[i] marks token i
# as scored when predicted from its prefix (so position 0 is never scored).
BatchFn = Callable[[int, np.random.Generator], list[tuple[np.ndarray, np.ndarray]]]


@dataclass
class TrainResult:
    params: ModelParams
    metrics_path: Path
    checkpoint_path: Path
    steps: int
    final_loss: float


def _format_row(step: int, tokens: int, lr: float, loss: float, grad_norm: float) -> str:
    return f"{step},{tokens},{lr:.10g},{loss:.10g},{grad_norm:.10g}"


def _batch_loss_and_grads(
    params: ModelParams, model_cfg: ModelConfig, batch: list[tuple[np.ndarray, np.ndarray]]
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean loss over the batch's scored positions, and its gradients by flat name.

    Each sequence runs the model only up to its last scored row and keeps
    logits from its first: rows outside that span cannot reach the loss.
    """
    if not batch:
        raise TrainingFault("empty batch")
    total_weight = 0.0
    for seq, mask in batch:
        total_weight += float(np.asarray(mask[1:], dtype=np.float64).sum())
    if total_weight <= 0:
        raise TrainingFault("batch has no scored positions")

    loss_acc = 0.0
    grad_flat: dict[str, np.ndarray] = {}
    for seq, mask in batch:
        seq = np.asarray(seq)
        w = np.asarray(mask[1:], dtype=np.float64)
        scored = np.flatnonzero(w)
        if scored.size == 0:
            continue
        lo, hi = int(scored[0]), int(scored[-1])
        w, targets = w[lo : hi + 1], seq[lo + 1 : hi + 2]
        logits, acts = model_fwd(seq[: hi + 1], params, model_cfg, keep_last=hi + 1 - lo)
        _, per_pos = cross_entropy(logits, targets)
        loss_acc += float((per_pos * w).sum())
        share = float(w.sum() / total_weight)  # python float: keeps f32 grads f32
        d_logits = cross_entropy_bwd(logits, targets, w) * share
        g = model_bwd(acts, d_logits, params, model_cfg)
        if not grad_flat:  # the first scored sequence's gradients hold the sum
            grad_flat = dict(named_parameters(g))
            continue
        for name, a in named_parameters(g):
            grad_flat[name] += a
    loss_value = loss_acc / total_weight
    if not math.isfinite(loss_value):
        raise TrainingFault(f"non-finite loss {loss_value}")
    return loss_value, grad_flat


def train_loop(
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    batch_fn: BatchFn,
    out_dir: str | Path,
    stop_fn: Callable[[int, ModelParams], bool] | None = None,
    log: Callable[[str], None] | None = None,
) -> TrainResult:
    """Run the full schedule; writes metrics.csv and model.ckpt under out_dir.

    batch_fn(step, rng) must return the step's sequences deterministically
    from the supplied stream. stop_fn, if given, is polled after each step
    and may end the run early (the schedule is unchanged; remaining steps
    are simply not taken).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    metrics_path = out / "metrics.csv"
    ckpt_path = out / "model.ckpt"

    params = init_model_params(model_cfg, seed=train_cfg.seed)
    flat = dict(named_parameters(params))
    opt_names = trainable_names(params, model_cfg)
    state = AdamWState.init((n, flat[n]) for n in opt_names)

    steps = train_cfg.total_tokens // train_cfg.batch_tokens
    tokens_seen = 0
    loss_value = float("nan")
    step = 0
    with metrics_path.open("w", buffering=1) as metrics:
        metrics.write("step,tokens,lr,loss,grad_norm\n")
        for step in range(1, steps + 1):
            rng = rng_stream(train_cfg.seed, f"batch/{step}")
            try:
                batch = batch_fn(step, rng)
                loss_value, grad_flat = _batch_loss_and_grads(params, model_cfg, batch)
                opt_grads = {n: grad_flat[n] for n in opt_names}
                _, grad_norm = clip_grad_norm(opt_grads, train_cfg.clip_norm)
            except TrainingFault as e:
                # every fault stops the run the same way: metrics.csv is closed
                # (by the with block) and fault.txt says what went wrong where
                (out / "fault.txt").write_text(f"step {step}: {e}\n")
                raise TrainingFault(f"step {step}: {e}") from e
            tokens_seen += train_cfg.batch_tokens
            lr = lr_schedule(tokens_seen, train_cfg)
            adamw_step(flat, opt_grads, state, lr, train_cfg)

            if step % train_cfg.log_every == 0 or step == steps:
                row = _format_row(step, tokens_seen, lr, loss_value, grad_norm)
                metrics.write(row + "\n")
                if log is not None:
                    log(row)
            if train_cfg.checkpoint_interval and step % train_cfg.checkpoint_interval == 0:
                save_model(params, ckpt_path)
            if stop_fn is not None and stop_fn(step, params):
                break

    save_model(params, ckpt_path)
    return TrainResult(
        params=params,
        metrics_path=metrics_path,
        checkpoint_path=ckpt_path,
        steps=step,
        final_loss=loss_value,
    )
