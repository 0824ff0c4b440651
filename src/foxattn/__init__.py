"""Softmax attention with a data-dependent forget gate.

Reference (materialized), tiled-streaming, and gated-linear forms of the
same mechanism, with hand-written exact gradients, a desk-scale trainer on
synthetic recall tasks, and evaluation utilities. Everything is numpy; the
float64 paths double as oracles for the float32 training path.
"""

from .attention import (
    AttentionGrads,
    AttentionInputs,
    DecayBias,
    ForwardAux,
    decay_bias,
    fgattn_bwd,
    fgattn_fwd,
    fixed_gate_from_alibi_slope,
    rope_apply,
)
from .errors import CheckpointError, ConfigError, ShapeError, TrainingFault
from .gla import gla_parallel, gla_recurrent, phi_feature
from .kernels import (
    cumsum_fwd,
    cumsum_rev,
    log_sigmoid,
    matmul,
    neg_inf,
    rmsnorm,
    row_softmax,
    sigmoid,
)
from .layer import (
    GateMode,
    LayerConfig,
    LayerParams,
    forget_gate_init,
    forget_gates,
    gate_timescales,
    init_layer_params,
    kv_shift,
    layer_bwd,
    llama_layer_fwd,
    pro_layer_fwd,
)
from .model import (
    ModelConfig,
    ModelParams,
    cross_entropy,
    init_model_params,
    mlp_hidden,
    model_bwd,
    model_fwd,
    named_parameters,
    param_count,
)
from .checkpoint import load_model, load_tensors, save_model, save_tensors
from .evaluation import (
    NeedleSpec,
    gen_copy_task,
    gen_needle_task,
    needle_accuracy,
    needle_grid,
    per_token_loss,
    perplexity_curve,
    smooth,
)
from .tiled import BufferMeter, TileConfig, tiled_bwd, tiled_fwd
from .training import (
    AdamWState,
    TrainConfig,
    adamw_step,
    clip_grad_norm,
    lr_schedule,
    train_loop,
)
from .rng import rng_stream

__version__ = "0.1.0"
