"""Per-layer metrics: their names, how the trace yields them, what they predict.

Every per-layer value is a total over the traced operations of a run divided
by their number (an operation is one optimizer step, one eval sequence or one
pass of both check suites), except `training.steps`, which counts the steps
completed in the traced window. A time metric is the self time of the spans
booked to it in SELF_BUCKETS: a span's duration minus its traced children.
Functions with no traced children (sigmoid, rmsnorm, the tiled and
materialized attention routes, gla, cross entropy, zeros_like_model, AdamW,
clipping, checkpoint saves) have equal self and total time.
"""

from __future__ import annotations

from spans import BATCH, PASS, REF, SEQ, STEP

# Span name -> the per-layer metric its self time is booked to. Every span the
# tracer can open appears here, so the buckets partition the traced wall time.
SELF_BUCKETS = {
    "training.train_loop": "training.loop_self_s",
    STEP: "training.loop_self_s",
    "training.adamw_step": "training.adamw_s",
    "training.clip_grad_norm": "training.clip_s",
    "checkpoint.save_model": "checkpoint.save_s",
    BATCH: "evaluation.gen_s",
    "evaluation.eval_token_losses": "evaluation.loss_self_s",
    SEQ: "bench.self_s",
    PASS: "bench.self_s",
    REF: "bench.reference_s",
    "model.model_fwd": "model.fwd_self_s",
    "model.model_bwd": "model.bwd_self_s",
    "model.zeros_like_model": "model.zeros_s",
    "model.cross_entropy": "model.ce_s",
    "model.cross_entropy_bwd": "model.ce_s",
    "layer.pro_layer_fwd": "layer.fwd_self_s",
    "layer.llama_layer_fwd": "layer.fwd_self_s",
    "layer.layer_bwd": "layer.bwd_self_s",
    "kernels.sigmoid": "kernels.sigmoid_s",
    "kernels.rmsnorm": "kernels.rmsnorm_s",
    "tiled.tiled_fwd": "tiled.fwd_s",
    "tiled.tiled_bwd": "tiled.bwd_s",
    "attention.fgattn_fwd": "attention.fwd_s",
    "attention.fgattn_bwd": "attention.bwd_s",
    "gla.gla_recurrent": "gla.recurrent_s",
    "gla.gla_parallel": "gla.parallel_s",
    "verify.standard_suite": "verify.s",
    "gradcheck.standard_suite": "gradcheck.s",
}

# Count metric -> span names whose calls it counts.
CALL_COUNTS = {
    "layer.calls": ("layer.pro_layer_fwd", "layer.llama_layer_fwd", "layer.layer_bwd"),
    "kernels.sigmoid_calls": ("kernels.sigmoid",),
    "tiled.calls": ("tiled.tiled_fwd", "tiled.tiled_bwd"),
    "attention.calls": ("attention.fgattn_fwd", "attention.fgattn_bwd"),
}

# Metrics derived elsewhere: tile arithmetic, benchmark-side counters and the
# tracing cost itself.
OTHER = (
    ("tiled.tiles_computed", "count", "lower"),
    ("tiled.flops_computed", "count", "lower"),
    ("tiled.bytes_computed", "bytes", "lower"),
    ("training.steps", "count", "higher"),
    ("evaluation.seqs", "count", "higher"),
    ("checkpoint.bytes", "bytes", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
)


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    times = sorted(set(SELF_BUCKETS.values()))
    specs = [(n, "s", "lower") for n in times]
    specs += [(n, "count", "lower") for n in CALL_COUNTS]
    specs += list(OTHER)
    return specs


# Which end-to-end metric each layer metric should move (op_cost_p50 from
# BENCHMARK.json, or one of the raw metrics printed next to it), and on which
# workload it matters or should not. Shares are from traces on a
# 2-vCPU x86 VM; a perf change cites the row it expects to move.
PREDICTIONS = [
    {
        "metrics": [
            "layer.fwd_self_s", "layer.bwd_self_s", "layer.calls", "model.fwd_self_s",
            "model.bwd_self_s", "model.zeros_s", "model.ce_s", "kernels.sigmoid_s",
            "kernels.sigmoid_calls", "kernels.rmsnorm_s",
        ],
        "should_move": ["op_cost_p50", "train_tokens_per_s", "step_ms_p50"],
        "matters_on": "train_copy (about 58% of step self time)",
        "small_on": "eval_long (under 7%)",
    },
    {
        "metrics": ["tiled.bwd_s", "tiled.calls"],
        "should_move": ["op_cost_p50", "train_tokens_per_s"],
        "matters_on": "train_needle (about 41%)",
        "small_on": "eval_long (zero: no backward)",
    },
    {
        "metrics": [
            "tiled.fwd_s", "tiled.tiles_computed", "tiled.flops_computed",
            "tiled.bytes_computed",
        ],
        "should_move": ["op_cost_p50", "eval_tokens_per_s", "seq_ms_p50"],
        "matters_on": "eval_long (about 93% at L=4096)",
        "small_on": "train_copy (about 14%)",
    },
    {
        "metrics": ["training.adamw_s", "training.clip_s", "training.loop_self_s", "training.steps"],
        "should_move": ["op_cost_p50", "step_ms_p50"],
        "matters_on": "train_copy (about 2%)",
        "small_on": "eval_long (none)",
    },
    {
        "metrics": ["evaluation.gen_s", "evaluation.seqs"],
        "should_move": ["step_ms_p50"],
        "matters_on": "none: under 0.2% everywhere; the prediction is no change",
        "small_on": "all workloads",
    },
    {
        "metrics": ["checkpoint.save_s", "checkpoint.bytes"],
        "should_move": ["train_tokens_per_s"],
        "matters_on": "train workloads, once per train_loop call",
        "small_on": "negligible everywhere",
    },
    {
        "metrics": [
            "attention.fwd_s", "attention.bwd_s", "attention.calls", "gla.recurrent_s",
            "gla.parallel_s", "verify.s", "gradcheck.s",
        ],
        "should_move": ["op_cost_p50", "check_s"],
        "matters_on": "check_suite only (gradcheck about 9.5 s, verify about 1.9 s per pass)",
        "small_on": "train and eval workloads (not called)",
    },
]
