"""Span tracing of foxattn from the outside, by rebinding its public functions.

`Tracer.install()` replaces each function listed in TARGETS, in every loaded
`foxattn` module that holds a reference to it, with a wrapper that records a
span: (function, start, end, parent span, run id). Nothing under `src/`
changes; `uninstall()` puts the originals back. A target that a refactor has
removed is reported as absent, not raised.

Spans stay in memory until `write()`. A span's self time is its duration minus
the durations of its child spans; every span name maps to one per-layer
bucket (SELF_BUCKETS in layers.py), so the buckets' self times add up to the
traced wall time.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from collections import Counter
from pathlib import Path

# (defining module, public function, span name). The span name's prefix is
# the layer; layers.py maps each span name to its per-layer metric.
TARGETS = [
    ("foxattn.training", "train_loop", "training.train_loop"),
    ("foxattn.training", "adamw_step", "training.adamw_step"),
    ("foxattn.training", "clip_grad_norm", "training.clip_grad_norm"),
    ("foxattn.checkpoint", "save_model", "checkpoint.save_model"),
    ("foxattn.evaluation", "eval_token_losses", "evaluation.eval_token_losses"),
    ("foxattn.model", "model_fwd", "model.model_fwd"),
    ("foxattn.model", "model_bwd", "model.model_bwd"),
    ("foxattn.model", "zeros_like_model", "model.zeros_like_model"),
    ("foxattn.model", "cross_entropy", "model.cross_entropy"),
    ("foxattn.model", "cross_entropy_bwd", "model.cross_entropy_bwd"),
    ("foxattn.layer", "pro_layer_fwd", "layer.pro_layer_fwd"),
    ("foxattn.layer", "llama_layer_fwd", "layer.llama_layer_fwd"),
    ("foxattn.layer", "layer_bwd", "layer.layer_bwd"),
    ("foxattn.kernels", "sigmoid", "kernels.sigmoid"),
    ("foxattn.kernels", "rmsnorm", "kernels.rmsnorm"),
    ("foxattn.tiled", "tiled_fwd", "tiled.tiled_fwd"),
    ("foxattn.tiled", "tiled_bwd", "tiled.tiled_bwd"),
    ("foxattn.attention", "fgattn_fwd", "attention.fgattn_fwd"),
    ("foxattn.attention", "fgattn_bwd", "attention.fgattn_bwd"),
    ("foxattn.gla", "gla_recurrent", "gla.gla_recurrent"),
    ("foxattn.gla", "gla_parallel", "gla.gla_parallel"),
    ("foxattn.verify", "standard_suite", "verify.standard_suite"),
    ("foxattn.gradcheck", "standard_suite", "gradcheck.standard_suite"),
]

# Span names opened by the benchmark itself rather than by a wrapper.
STEP, SEQ, PASS, BATCH = "bench.step", "bench.sequence", "bench.pass", "bench.batch_fn"
REF = "bench.reference"  # the drift-reference kernel, run from a timer signal


def _foxattn_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "foxattn" or name.startswith("foxattn."))
    ]


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        # span i: [name id, start, end, parent index (-1 = none), run id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.busy = False
        self.run_id = -1
        self.absent: list[str] = []
        # (kind, L, d, q_block, k_block, itemsize) -> calls; kept raw so the
        # tile arithmetic runs after tracing, not inside timed spans.
        self.tile_shapes: Counter = Counter()
        self.checkpoint_bytes = 0
        self.seqs = 0  # sequences the benchmark's batch_fn generated
        self._rebound: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _id(self, name: str) -> int:
        i = self._name_id.get(name)
        if i is None:
            i = self._name_id[name] = len(self.names)
            self.names.append(name)
        return i

    # `busy` is set while the span stack is being changed: a signal handler
    # that opens spans of its own must skip its turn then.
    def begin(self, name: str) -> int:
        self.busy = True
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self._id(name), time.perf_counter(), None, parent, self.run_id])
        self._stack.append(idx)
        self.busy = False
        return idx

    def end(self, idx: int) -> None:
        """Close span idx and any span still open inside it."""
        now = time.perf_counter()
        self.busy = True
        if idx in self._stack:
            while True:
                top = self._stack.pop()
                self.spans[top][2] = now
                if top == idx:
                    break
        self.busy = False

    def _wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(idx)
                tracer._count(name, args, kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _count(self, name: str, args, kwargs) -> None:
        if name in ("tiled.tiled_fwd", "tiled.tiled_bwd"):
            inp = args[0] if args else kwargs.get("inp")
            pos = 1 if name == "tiled.tiled_fwd" else 4
            cfg = args[pos] if len(args) > pos else kwargs["cfg"]
            n, d = inp.q.shape
            kind = "fwd" if name == "tiled.tiled_fwd" else "bwd"
            self.tile_shapes[(kind, n, d, cfg.q_block, cfg.k_block, inp.q.dtype.itemsize)] += 1
        elif name == "checkpoint.save_model":
            path = args[1] if len(args) > 1 else kwargs.get("path")
            self.checkpoint_bytes += Path(path).stat().st_size

    # -- rebinding -------------------------------------------------------
    def install(self) -> list[str]:
        """Rebind every TARGET in every foxattn module; returns absent names."""
        self.absent = []
        for modname, fname, span in TARGETS:
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                self.absent.append(f"{modname}.{fname}")
                continue
            orig = getattr(mod, fname, None)
            if not callable(orig):
                self.absent.append(f"{modname}.{fname}")
                continue
            wrapper = self._wrap(orig, span)
            for m in _foxattn_modules():
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)
                        self._rebound.append((m, attr, orig))
        return self.absent

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._rebound):
            setattr(m, attr, orig)
        self._rebound = []

    # -- aggregation -----------------------------------------------------
    def self_times(self) -> list[float]:
        """Self time of every span: duration minus its children's durations."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def self_by_name(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for s, t in zip(self.spans, self.self_times()):
            name = self.names[s[0]]
            totals[name] = totals.get(name, 0.0) + t
        return totals

    def calls_by_name(self) -> Counter:
        return Counter(self.names[s[0]] for s in self.spans)

    def op_breakdowns(self, op_span: str) -> list[tuple[float, dict[str, float]]]:
        """For each span named op_span: (wall, self time per span name inside it)."""
        selfs = self.self_times()
        op_id = self._name_id.get(op_span)
        roots = {i for i, s in enumerate(self.spans) if s[0] == op_id}
        owner: dict[int, int] = {}
        out: dict[int, dict[str, float]] = {r: {} for r in roots}
        for i, s in enumerate(self.spans):  # parents precede children
            root = i if i in roots else owner.get(s[3])
            if root is None:
                continue
            owner[i] = root
            name = self.names[s[0]]
            out[root][name] = out[root].get(name, 0.0) + selfs[i]
        return [(self.spans[r][2] - self.spans[r][1], out[r]) for r in sorted(roots)]

    def tiles(self) -> dict[str, int]:
        """Tiles, matmul flops and operand bytes the tiled routes compute.

        Computed from call shapes and TileConfig, mirroring the loop bounds in
        tiled.py: the forward visits every tile on or below the diagonal once
        (QK^T and PV, 4*r*c*d flops; reads q, k, v), the two-pass backward
        visits the same tiles twice (8*r*c*d then 6*r*c*d flops; reads q, dO,
        k, v each time).
        """
        tiles = flops = nbytes = 0
        for (kind, n, d, qb, kb, isz), calls in self.tile_shapes.items():
            t = f = b = 0
            for r0 in range(0, n, qb):
                r1 = min(r0 + qb, n)
                for c0 in range(0, r1, kb):
                    c1 = min(c0 + kb, n)
                    r, c = r1 - r0, c1 - c0
                    if kind == "fwd":
                        t, f, b = t + 1, f + 4 * r * c * d, b + (r + 2 * c) * d * isz
                    else:
                        t, f, b = t + 2, f + 14 * r * c * d, b + 2 * (2 * r + 2 * c) * d * isz
            tiles, flops, nbytes = tiles + t * calls, flops + f * calls, nbytes + b * calls
        return {"tiles": tiles, "flops": flops, "bytes": nbytes}

    def write(self, path: Path) -> None:
        """All spans as gzip TSV, times in seconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("span\tname\tstart_s\tend_s\tparent\trun\n")
            for i, (nid, start, end, parent, run) in enumerate(self.spans):
                f.write(
                    f"{i}\t{self.names[nid]}\t{start - t0:.7f}\t{end - t0:.7f}\t{parent}\t{run}\n"
                )
