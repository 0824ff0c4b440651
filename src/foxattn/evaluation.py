"""Evaluation: per-position loss curves and synthetic retrieval tasks.

The long-context diagnostics are the per-token loss L(i) (mean next-token
loss at position i over an eval set) and the cumulative perplexity
P(l) = exp(mean of L(1..l)). P averages over prefixes, so a model that merely
stops improving at long range still shows a flat or falling P; L is the
curve that exposes whether late positions actually benefit from more
context. Raw L(i) is noisy and is smoothed with a centered moving average.

Task generators produce (tokens, loss_mask) pairs: a copy task (span, SEP,
span again, padding; only the second span is scored) and a needle task
(a value span hidden in filler at a chosen depth, queried at the end).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .model import ModelConfig, ModelParams, cross_entropy, model_fwd

PAD, SEP = 0, 1


def per_token_loss(per_seq_losses: list[np.ndarray]) -> np.ndarray:
    """Positionwise mean of per-sequence loss vectors (float64)."""
    if not per_seq_losses:
        raise ValueError("need at least one sequence")
    first = np.asarray(per_seq_losses[0])
    for i, v in enumerate(per_seq_losses):
        v = np.asarray(v)
        if v.ndim != 1:
            raise ShapeError(f"sequence {i} loss must be 1-D")
        if v.shape != first.shape:
            raise ShapeError(
                f"sequence {i} length {v.shape[0]} != sequence 0 length {first.shape[0]}"
            )
    stack = np.stack([np.asarray(v, dtype=np.float64) for v in per_seq_losses])
    return stack.mean(axis=0)


def perplexity_curve(token_losses: np.ndarray) -> np.ndarray:
    """P(l) = exp(cumulative mean of L(1..l)), accumulated in float64."""
    v = np.asarray(token_losses, dtype=np.float64)
    if v.ndim != 1:
        raise ShapeError("token losses must be 1-D")
    if v.size == 0:
        raise ValueError("empty loss vector")
    return np.exp(np.cumsum(v) / np.arange(1, v.size + 1))


def smooth(values: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average, window truncated at both boundaries."""
    if window < 1 or window % 2 == 0:
        raise ConfigError(f"window must be odd and >= 1, got {window}")
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ShapeError("values must be 1-D")
    half = window // 2
    csum = np.concatenate([[0.0], np.cumsum(v)])
    n = v.size
    lo = np.maximum(np.arange(n) - half, 0)
    hi = np.minimum(np.arange(n) + half + 1, n)
    return (csum[hi] - csum[lo]) / (hi - lo)


def gen_copy_task(
    rng: np.random.Generator, seq_len: int, copy_len: int, vocab_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """[span][SEP][span][PAD...]; the loss mask covers only the second span.

    Data tokens are drawn from {2..vocab-1}; 0 is PAD and 1 is SEP.
    """
    if vocab_size < 3:
        raise ConfigError("copy task needs PAD, SEP, and at least one data token")
    if 2 * copy_len + 2 > seq_len:
        raise ValueError(
            f"seq_len {seq_len} too short for copy_len {copy_len} plus SEP and PAD"
        )
    span = rng.integers(2, vocab_size, size=copy_len)
    tokens = np.full(seq_len, PAD, dtype=np.int64)
    tokens[:copy_len] = span
    tokens[copy_len] = SEP
    tokens[copy_len + 1 : 2 * copy_len + 1] = span
    mask = np.zeros(seq_len, dtype=bool)
    mask[copy_len + 1 : 2 * copy_len + 1] = True
    return tokens, mask


@dataclass(frozen=True)
class NeedleSpec:
    """Retrieval task layout.

    The vocabulary splits into three disjoint alphabets: key and value each
    take a quarter (at least 2 symbols), filler the rest. A haystack of
    filler hides the needle starting at floor[depth * haystack_len] (clamped
    so it fits): the needle is KEY+VALUE in easy mode, VALUE alone otherwise,
    so easy mode is the only mode where the key occurs in-context as well as
    in the trailing query. The sequence ends with the query KEY followed by
    the VALUE tokens to score.
    """

    haystack_len: int = 250
    depth: float = 0.5
    key_len: int = 1
    value_len: int = 1
    easy_mode: bool = True
    vocab_size: int = 16

    def __post_init__(self) -> None:
        if not 0.0 <= self.depth <= 1.0:
            raise ValueError(f"depth must be in [0, 1], got {self.depth}")
        if self.key_len < 1 or self.value_len < 1:
            raise ConfigError("key and value spans must be non-empty")
        n_key, n_value = self.key_alphabet, self.value_alphabet
        if self.vocab_size - n_key - n_value < 2:
            raise ConfigError(
                f"vocab {self.vocab_size} too small to partition into alphabets"
            )
        if self.haystack_len < self.needle_len:
            raise ValueError("haystack shorter than the needle")

    @property
    def key_alphabet(self) -> int:
        return max(2, self.vocab_size // 4)

    @property
    def value_alphabet(self) -> int:
        return max(2, self.vocab_size // 4)

    @property
    def filler_hi(self) -> int:
        return self.vocab_size - self.key_alphabet - self.value_alphabet

    @property
    def needle_len(self) -> int:
        return (self.key_len + self.value_len) if self.easy_mode else self.value_len

    @property
    def total_len(self) -> int:
        return self.haystack_len + self.key_len + self.value_len

    def key_range(self) -> tuple[int, int]:
        return self.filler_hi, self.filler_hi + self.key_alphabet

    def value_range(self) -> tuple[int, int]:
        lo = self.filler_hi + self.key_alphabet
        return lo, self.vocab_size


def gen_needle_task(
    spec: NeedleSpec, rng: np.random.Generator
) -> tuple[np.ndarray, slice]:
    """One retrieval sequence; returns (tokens, answer slice over the tail)."""
    k_lo, k_hi = spec.key_range()
    v_lo, v_hi = spec.value_range()
    key = rng.integers(k_lo, k_hi, size=spec.key_len)
    value = rng.integers(v_lo, v_hi, size=spec.value_len)
    hay = rng.integers(0, spec.filler_hi, size=spec.haystack_len)
    needle = np.concatenate([key, value]) if spec.easy_mode else value
    start = int(spec.depth * spec.haystack_len)
    start = min(max(start, 0), spec.haystack_len - needle.size)
    hay[start : start + needle.size] = needle
    tokens = np.concatenate([hay, key, value]).astype(np.int64)
    ans_lo = spec.haystack_len + spec.key_len
    return tokens, slice(ans_lo, ans_lo + spec.value_len)


def needle_loss_mask(spec: NeedleSpec, answer: slice) -> np.ndarray:
    mask = np.zeros(spec.total_len, dtype=bool)
    mask[answer] = True
    return mask


def eval_token_losses(
    params: ModelParams,
    cfg: ModelConfig,
    sequences: list[np.ndarray],
    logf_cap: float | None = None,
) -> np.ndarray:
    """Mean per-position next-token loss over an eval set of equal lengths."""
    losses = []
    for seq in sequences:
        seq = np.asarray(seq)
        logits, _ = model_fwd(seq[:-1], params, cfg, logf_cap=logf_cap)
        _, per_pos = cross_entropy(logits, seq[1:])
        losses.append(per_pos)
    return per_token_loss(losses)


def needle_accuracy(
    params: ModelParams,
    cfg: ModelConfig,
    spec: NeedleSpec,
    rng: np.random.Generator,
    trials: int,
    logf_cap: float | None = None,
) -> float:
    """Mean exact-match rate of greedy value-token predictions."""
    if trials < 1:
        raise ValueError("need at least one trial")
    hits = 0
    total = 0
    for _ in range(trials):
        tokens, answer = gen_needle_task(spec, rng)
        # the answer ends the sequence, so its predicting rows are the last
        # rows of tokens[:-1]: only they are computed in the last block
        logits, _ = model_fwd(
            tokens[:-1],
            params,
            cfg,
            logf_cap=logf_cap,
            keep_last=answer.stop - answer.start,
        )
        preds = np.argmax(logits, axis=1)
        hits += int((preds == tokens[answer]).sum())
        total += tokens[answer].size
    return hits / total


def needle_grid(
    params: ModelParams,
    cfg: ModelConfig,
    base: NeedleSpec,
    lengths: list[int],
    depths: list[float],
    trials: int,
    rng_for_cell,
    logf_cap: float | None = None,
) -> np.ndarray:
    """Accuracy over a lengths x depths grid.

    Each length is a total sequence length; the haystack shrinks to leave
    room for the query and answer. rng_for_cell(length, depth) must return a
    fresh deterministic generator per cell.
    """
    out = np.zeros((len(lengths), len(depths)), dtype=np.float64)
    for i, length in enumerate(lengths):
        hay = length - base.key_len - base.value_len
        for j, depth in enumerate(depths):
            spec = NeedleSpec(
                haystack_len=hay,
                depth=depth,
                key_len=base.key_len,
                value_len=base.value_len,
                easy_mode=base.easy_mode,
                vocab_size=base.vocab_size,
            )
            out[i, j] = needle_accuracy(
                params, cfg, spec, rng_for_cell(length, depth), trials, logf_cap
            )
    return out
