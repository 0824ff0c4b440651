"""Command-line interface.

Subcommands: gradcheck, equiv, train, eval, needle, bench, init-inspect,
ckpt-dump. Commands that take a config accept --config FILE plus repeated
--set key=value overrides; every such run writes its fully resolved config
next to its outputs. The output directory is --out, else $FOX_OUT_DIR, else
./fox_out. All CSV artifacts are byte-identical across reruns with the same
seed and config.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import gradcheck as gc
from . import verify
from .checkpoint import load_model, load_tensors
from .config import RunConfig, apply_overrides, parse_config_file
from .errors import ConfigError
from .evaluation import (
    NeedleSpec,
    eval_token_losses,
    gen_copy_task,
    gen_needle_task,
    needle_grid,
    needle_loss_mask,
    smooth,
)
from .kernels import sigmoid
from .layer import forget_gate_init, gate_timescales
from .rng import rng_stream
from .training import train_loop


def _out_dir(args) -> Path:
    if args.out:
        return Path(args.out)
    env = os.environ.get("FOX_OUT_DIR")
    return Path(env) if env else Path("fox_out")


def _load_run_config(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        parse_config_file(args.config, cfg)
    if getattr(args, "set", None):
        apply_overrides(cfg, args.set)
    return cfg


def _write_resolved(cfg: RunConfig, out: Path, command: str) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{command}.config.txt").write_text(cfg.resolved_lines())


def _needle_spec(cfg: RunConfig, haystack_len: int, depth: float) -> NeedleSpec:
    """Needle task shape from the needle.* keys and the model's vocabulary."""
    v = cfg.values
    return NeedleSpec(
        haystack_len=haystack_len,
        depth=depth,
        key_len=int(v["needle.key_len"]),
        value_len=int(v["needle.value_len"]),
        easy_mode=bool(v["needle.easy_mode"]),
        vocab_size=int(v["model.vocab_size"]),
    )


def _needle_len(cfg: RunConfig) -> int:
    """Tokens of a needle task taken by the key and value, not the haystack."""
    return int(cfg.values["needle.key_len"]) + int(cfg.values["needle.value_len"])


def _batch_fn(cfg: RunConfig):
    """Build the deterministic batch generator for the configured task."""
    v = cfg.values
    task = str(v["train.task"])
    seq_len = int(v["train.seq_len"])
    batch_tokens = int(v["train.batch_tokens"])
    n_seqs = max(1, batch_tokens // seq_len)
    vocab = int(v["model.vocab_size"])
    if task == "copy":
        copy_len = int(v["copy.copy_len"])

        def fn(step: int, rng: np.random.Generator):
            return [
                gen_copy_task(rng, seq_len, copy_len, vocab) for _ in range(n_seqs)
            ]

        return fn
    if task == "needle":
        random_depth = bool(v["needle.train_depth_random"])
        hay = seq_len - _needle_len(cfg)

        def fn(step: int, rng: np.random.Generator):
            batch = []
            for _ in range(n_seqs):
                depth = float(rng.random()) if random_depth else 0.5
                spec = _needle_spec(cfg, hay, depth)
                tokens, answer = gen_needle_task(spec, rng)
                batch.append((tokens, needle_loss_mask(spec, answer)))
            return batch

        return fn
    raise ConfigError(f"unknown train.task {task!r}")


def cmd_gradcheck(args) -> int:
    results = gc.standard_suite(args.seed)
    ok = True
    for r in results:
        status = "ok" if r.ok else "FAIL"
        print(f"[{status}] {r.label:<34} worst rel err {r.worst:.3e} (tol {r.tol:g})")
        ok &= r.ok
    print("gradcheck:", "all passed" if ok else "FAILURES above")
    return 0 if ok else 1


def cmd_equiv(args) -> int:
    results = verify.standard_suite(args.seed)
    ok = True
    for r in results:
        status = "ok" if r.ok else "FAIL"
        print(
            f"[{status}] {r.label:<34} worst {r.worst:.3e} (tol {r.tol:g}, {r.cases} cases)"
        )
        ok &= r.ok
    print("equiv:", "all passed" if ok else "FAILURES above")
    return 0 if ok else 1


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    out = _out_dir(args)
    _write_resolved(cfg, out, "train")
    model_cfg = cfg.model_config()
    train_cfg = cfg.train_config()
    result = train_loop(
        model_cfg,
        train_cfg,
        _batch_fn(cfg),
        out,
        log=print if args.verbose else None,
    )
    print(f"trained {result.steps} steps, final loss {result.final_loss:.4f}")
    print(f"metrics: {result.metrics_path}")
    print(f"checkpoint: {result.checkpoint_path}")
    return 0


def _eval_sequences(cfg: RunConfig) -> list[np.ndarray]:
    v = cfg.values
    task = str(v["eval.task"])
    n = int(v["eval.num_sequences"])
    seq_len = int(v["eval.seq_len"])
    vocab = int(v["model.vocab_size"])
    seed = int(v["run.seed"])
    seqs = []
    for i in range(n):
        rng = rng_stream(seed, f"eval/{task}/{i}")
        if task == "copy":
            tokens, _ = gen_copy_task(rng, seq_len, int(v["copy.copy_len"]), vocab)
        elif task == "needle":
            spec = _needle_spec(cfg, seq_len - _needle_len(cfg), float(rng.random()))
            tokens, _ = gen_needle_task(spec, rng)
        else:
            raise ConfigError(f"unknown eval.task {task!r}")
        seqs.append(tokens)
    return seqs


def _logf_cap(cfg: RunConfig) -> float | None:
    raw = str(cfg.values["eval.logf_cap"]).strip()
    return float(raw) if raw else None


def cmd_eval(args) -> int:
    cfg = _load_run_config(args)
    out = _out_dir(args)
    _write_resolved(cfg, out, "eval")
    model_cfg = cfg.model_config()
    params = load_model(model_cfg, args.ckpt)
    losses = eval_token_losses(
        params, model_cfg, _eval_sequences(cfg), logf_cap=_logf_cap(cfg)
    )
    window = int(cfg.values["eval.smooth_window"])
    smoothed = smooth(losses, window)
    rows = ["position,loss_raw,loss_smoothed"]
    for i, (raw, sm) in enumerate(zip(losses, smoothed), start=1):
        rows.append(f"{i},{raw:.10g},{sm:.10g}")
    path = out / "eval.csv"
    path.write_text("\n".join(rows) + "\n")
    print(f"wrote {path} ({losses.size} positions, window {window})")
    return 0


def cmd_needle(args) -> int:
    cfg = _load_run_config(args)
    out = _out_dir(args)
    _write_resolved(cfg, out, "needle")
    model_cfg = cfg.model_config()
    params = load_model(model_cfg, args.ckpt)
    v = cfg.values
    needle = _needle_len(cfg)
    base = _needle_spec(cfg, max(int(v["eval.seq_len"]) - needle, needle), 0.5)
    lengths = [int(x) for x in v["needle_eval.lengths"]]
    depths = [float(x) for x in v["needle_eval.depths"]]
    trials = int(v["needle_eval.trials"])
    seed = int(v["run.seed"])

    def cell_rng(length, depth):
        return rng_stream(seed, f"needle/{length}/{depth:.6g}")

    grid = needle_grid(
        params,
        model_cfg,
        base,
        lengths,
        depths,
        trials,
        cell_rng,
        logf_cap=_logf_cap(cfg),
    )
    rows = ["length,depth,accuracy"]
    for i, length in enumerate(lengths):
        for j, depth in enumerate(depths):
            rows.append(f"{length},{depth:.6g},{grid[i, j]:.10g}")
    path = out / "needle.csv"
    path.write_text("\n".join(rows) + "\n")
    print(f"wrote {path}")
    for i, length in enumerate(lengths):
        cells = " ".join(f"{grid[i, j]:.2f}" for j in range(len(depths)))
        print(f"len {length:>5}: {cells}")
    return 0


def cmd_bench(args) -> int:
    lengths = [int(x) for x in args.lens.split(",") if x.strip()]
    rows = verify.bench_attention(lengths, args.tile)
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    print(f"{'length':>8} {'backend':>8} {'tile':>6} {'peak bytes':>12} {'seconds':>10}")
    csv_rows = ["length,backend,tile,peak_bytes"]
    for r in rows:
        print(f"{r.length:>8} {r.backend:>8} {r.tile:>6} {r.peak_bytes:>12} {r.seconds:>10.4f}")
        csv_rows.append(f"{r.length},{r.backend},{r.tile},{r.peak_bytes}")
    path = out / "bench.csv"
    path.write_text("\n".join(csv_rows) + "\n")
    print(f"wrote {path} (timings stay on stdout; the csv is deterministic)")
    return 0


def cmd_init_inspect(args) -> int:
    t = gate_timescales(args.tmin, args.tmax, args.heads)
    b = forget_gate_init(args.tmin, args.tmax, args.heads)
    f = sigmoid(b)
    print(f"{'head':>4} {'timescale':>12} {'bias':>12} {'gate':>10}")
    for h in range(args.heads):
        print(f"{h:>4} {t[h]:>12.6g} {b[h]:>12.6g} {f[h]:>10.6g}")
    return 0


def cmd_ckpt_dump(args) -> int:
    tensors = load_tensors(args.path)
    total = 0
    for name, a in tensors.items():
        shape = "x".join(str(s) for s in a.shape) if a.ndim else "scalar"
        print(f"{name:<40} {shape:>12} {a.dtype}")
        total += a.size
    print(f"{len(tensors)} tensors, {total} parameters")
    return 0


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="config file of key = value lines")
    p.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )
    p.add_argument("--out", help="output directory (default $FOX_OUT_DIR or ./fox_out)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foxattn",
        description="Forget-gate attention: checks, training, and evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("equiv", help="cross-route equivalence checks")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("train", help="train the toy model on a synthetic task")
    _add_config_args(p)
    p.add_argument("--verbose", action="store_true", help="log every metrics row")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="per-position loss curve for a checkpoint")
    _add_config_args(p)
    p.add_argument("--ckpt", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("needle", help="needle retrieval accuracy grid")
    _add_config_args(p)
    p.add_argument("--ckpt", required=True)
    p.set_defaults(fn=cmd_needle)

    p = sub.add_parser("bench", help="naive vs tiled time and transient memory")
    p.add_argument("--lens", default="256,512,1024,2048,4096")
    p.add_argument("--tile", type=int, default=64)
    p.add_argument("--out", help="output directory (default $FOX_OUT_DIR or ./fox_out)")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("init-inspect", help="constant-gate init table")
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--tmin", type=float, default=2.0)
    p.add_argument("--tmax", type=float, default=128.0)
    p.set_defaults(fn=cmd_init_inspect)

    p = sub.add_parser("ckpt-dump", help="list the tensors in a checkpoint")
    p.add_argument("path")
    p.set_defaults(fn=cmd_ckpt_dump)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, FileNotFoundError) as e:
        # a config value the library rejects is a config error too; ConfigError,
        # CheckpointError and ShapeError all subclass ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
