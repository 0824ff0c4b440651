"""The benchmark's workloads: inputs from a seed, a closed timed loop, output checks.

One caller runs the next operation only after the previous one finished. An
operation is one optimizer step (train_*), one 4096-token eval sequence
(eval_long) or one pass of both check suites (check_suite). The library gets
only the generated inputs; every call into it goes through a module attribute
(`training.train_loop`, ...) so that the tracer's rebinding takes effect.
"""

from __future__ import annotations

import math
import shutil
import signal
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from foxattn import checkpoint, evaluation, gradcheck, model, training, verify
from foxattn.errors import TrainingFault
from foxattn.evaluation import NeedleSpec, needle_loss_mask
from foxattn.layer import GateMode
from foxattn.model import ModelConfig
from foxattn.training import TrainConfig

from spans import BATCH, PASS, REF, SEQ, STEP, Tracer

NEEDLE_DEPTHS = (0.0, 0.25, 0.5, 0.75, 1.0)


def _subseed(*key: int) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


# Benchmark-owned reference work, written in plain numpy and independent of
# the library: a miniature pre-norm attention + MLP block (65 x 64
# activations, four 16-wide heads in a Python loop) and one 256-row attention
# in 64 x 64 tiles, all float32. The host's speed drifts by up to 50% over
# minutes on a shared VM; op times divided by this kernel's time measured
# around them cancel most of that drift (on a 2-core VM, train-step, eval and
# needle-shaped work over this kernel moved 5-8% while the raw times moved
# 17-50%).
_REF_RNG = np.random.default_rng(12345)
_REF_X = _REF_RNG.normal(size=(65, 64)).astype(np.float32)
_REF_LONG = _REF_RNG.normal(size=(256, 64)).astype(np.float32)
_REF_W = [(0.1 * _REF_RNG.normal(size=(16, 64))).astype(np.float32) for _ in range(12)]
_REF_IN = (0.1 * _REF_RNG.normal(size=(171, 64))).astype(np.float32)
_REF_OUT = (0.1 * _REF_RNG.normal(size=(64, 171))).astype(np.float32)
REF_INTERVAL = 0.2  # seconds between reference samples while untraced


def _ref_norm(x: np.ndarray) -> np.ndarray:
    return x / np.sqrt((x * x).mean(axis=1, keepdims=True) + 1e-6)


def reference_kernel() -> None:
    for _ in range(2):
        x = _REF_X
        for _layer in range(2):
            r = _ref_norm(x)
            y = np.zeros_like(x)
            for h in range(4):
                q, k, v = (r @ _REF_W[3 * h + i].T for i in range(3))
                s = q @ k.T
                e = np.exp(s - s.max(axis=1, keepdims=True))
                p = e / e.sum(axis=1, keepdims=True)
                o = p @ v
                y[:, 16 * h : 16 * h + 16] = o / (1.0 + np.exp(-q))
                p.T @ o, o.T @ r, (p * (o @ v.T)) @ k  # backward-shaped products
            x = x + y
            hidden = x @ _REF_IN.T
            hidden = hidden / (1.0 + np.exp(-hidden))
            x = x + hidden @ _REF_OUT.T
            hidden.T @ x, x @ _REF_OUT
    r = _ref_norm(_REF_LONG)
    for h in range(4):
        q, k, v = (r @ _REF_W[3 * h + i].T for i in range(3))
        for r0 in range(0, 256, 64):
            for c0 in range(0, r0 + 64, 64):
                s = q[r0 : r0 + 64] @ k[c0 : c0 + 64].T
                p = np.exp(s - s.max(axis=1, keepdims=True))
                p @ v[c0 : c0 + 64], p.T @ q[r0 : r0 + 64]


class Session:
    """Timing state of one run: deadline, op intervals, failures, trace switch.

    A SIGALRM timer runs the reference kernel every REF_INTERVAL seconds; the
    signal handler runs between bytecodes of the measured code. An op's work
    time is its wall time minus the reference time inside it, and its cost is
    that work time over the median reference time sampled within
    REF_INTERVAL of the op, so drift during a long op is sampled too. With a
    tracer, tracing starts at the first op-group boundary after half the
    time (reference samples then get a span of their own), so one run gives
    untraced and traced op costs; their medians' difference is the tracing
    overhead.
    """

    def __init__(self, seconds: float, tracer: Tracer | None = None) -> None:
        self.seconds = seconds
        self.tracer = tracer
        self.tracing = False
        self.intervals: dict[bool, list[tuple[float, float]]] = {False: [], True: []}
        self.ops = 0  # completed operations
        self.untraced_ops = 0
        self.traced_ops = 0
        self.attempted = 0  # operations plus output checks
        self.failed = 0
        self.ref_windows: list[tuple[float, float]] = []  # (start, end) of each sample
        self.notes: dict[str, object] = {}
        self.t_start = self.t_end = 0.0
        self.t_untraced_end = None
        self._old_handler = None

    # -- reference sampling ------------------------------------------------
    def _sample(self, _signum, _frame) -> None:
        if self.tracing and self.tracer.busy:
            return  # interrupted the tracer mid-update; sample on the next tick
        idx = self.tracer.begin(REF) if self.tracing else None
        t0 = time.perf_counter()
        reference_kernel()
        self.ref_windows.append((t0, time.perf_counter()))
        if idx is not None:
            self.tracer.end(idx)

    def _sampling(self, on: bool) -> None:
        if on:
            self._old_handler = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL, REF_INTERVAL)
        elif self._old_handler is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._old_handler)
            self._old_handler = None
            self._sample(None, None)  # at least one sample, even in a short run

    def ref_inside(self, a: float, b: float) -> float:
        return sum(max(0.0, min(b, w1) - max(a, w0)) for w0, w1 in self.ref_windows)

    def work_times(self, traced: bool) -> list[float]:
        """Op wall times minus the reference time spent inside them."""
        return [b - a - self.ref_inside(a, b) for a, b in self.intervals[traced]]

    def costs(self, traced: bool) -> list[float]:
        """Op work times over the reference time sampled around them."""
        out = []
        for (a, b), work in zip(self.intervals[traced], self.work_times(traced)):
            near = [w1 - w0 for w0, w1 in self.ref_windows
                    if a - REF_INTERVAL <= 0.5 * (w0 + w1) <= b + REF_INTERVAL]
            if not near:  # a handler delayed by a long native call
                w0, w1 = min(self.ref_windows, key=lambda w: abs(w[0] + w[1] - a - b))
                near = [w1 - w0]
            out.append(work / statistics.median(near))
        return out

    # -- the timed loop ----------------------------------------------------
    def start(self) -> None:
        self._sampling(True)
        self.t_start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.t_start

    def last_op_seconds(self) -> float:
        runs = self.intervals[self.tracing]
        return runs[-1][1] - runs[-1][0] if runs else 0.0

    def more(self, done: int) -> bool:
        """Start another op group? At least one, and one traced when tracing;
        otherwise only if one as long as the last op still ends in time."""
        if done == 0:
            return True
        if self.tracer is not None and self.traced_ops == 0:
            return True
        return self.elapsed() + self.last_op_seconds() <= self.seconds

    def boundary(self) -> None:
        if self.tracer is not None and not self.tracing and self.elapsed() >= self.seconds / 2:
            self.t_untraced_end = time.perf_counter()
            self.tracer.install()
            self.tracing = True

    def op_done(self, t0: float | None, t1: float, ok: bool = True) -> None:
        """Record one op that ran from t0 to t1 (t0 None: no own timing)."""
        if t0 is not None:
            self.intervals[self.tracing].append((t0, t1))
        self.ops += 1
        if self.tracing:
            self.traced_ops += 1
        else:
            self.untraced_ops += 1
        self.check(ok)

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1

    def stop(self) -> None:
        self.t_end = time.perf_counter()
        self._sampling(False)
        if self.t_untraced_end is None:
            self.t_untraced_end = self.t_end
        if self.tracing:
            self.tracer.uninstall()


@dataclass
class Workload:
    name: str
    why: str
    op: str  # what one operation is
    tokens_per_op: int
    # Fixed per workload: the highest percentile with >= 10 samples beyond it
    # in a 20-s run on a 2-vCPU VM; p50 where even that has fewer (eval_long
    # has about 10 sequences, check_suite one pass).
    tail_pct: float
    op_span: str  # span the tracer opens around one operation
    label: str  # prefix of the raw metric names printed for this workload

    def setup(self, seed: int, tiny: bool):
        raise NotImplementedError

    def warm_up(self, state) -> None:
        raise NotImplementedError

    def measure(self, state, sess: Session) -> None:
        raise NotImplementedError

    def verify_outputs(self, state, sess: Session) -> None:
        """Output checks that run after the timed loop."""


# -- training -------------------------------------------------------------

COPY_SEQ, COPY_LEN, VOCAB = 66, 32, 16
COPY_MODEL = ModelConfig(
    n_layers=2, d_model=64, n_heads=4, d_head=16, vocab_size=VOCAB,
    max_train_len=COPY_SEQ, arch="pro", gate_mode=GateMode(kind="data_independent"),
    backend="tiled",
)
COPY_TRAIN = TrainConfig(
    total_tokens=5000 * 528, batch_tokens=528, seq_len=COPY_SEQ, peak_lr=1e-2,
    warmup_tokens=int(0.02 * 5000 * 528), seed=0, log_every=1,
)
NEEDLE_LEN = 256
NEEDLE_MODEL = ModelConfig(
    n_layers=2, d_model=64, n_heads=4, d_head=16, vocab_size=VOCAB,
    max_train_len=NEEDLE_LEN, arch="pro", gate_mode=GateMode(kind="data_dependent"),
    backend="tiled", tile=64,
)
NEEDLE_TRAIN = TrainConfig(
    total_tokens=3000 * 16 * NEEDLE_LEN, batch_tokens=16 * NEEDLE_LEN,
    seq_len=NEEDLE_LEN, peak_lr=1e-2, warmup_tokens=int(0.05 * 3000 * 16 * NEEDLE_LEN),
    seed=0, log_every=10,
)
NEEDLE_BASE = NeedleSpec(
    haystack_len=NEEDLE_LEN - 2, depth=0.5, key_len=1, value_len=1, easy_mode=True,
    vocab_size=VOCAB,
)
# A model that learns nothing stays near the uniform loss ln(vocab); after the
# fixed step count both tasks sit well below this fraction of it.
LEARNED_LOSS_FRACTION = 0.85


@dataclass
class TrainState:
    cfg: ModelConfig
    train: TrainConfig
    seed: int
    steps: int  # fixed step count of the first train_loop call
    out_dir: Path


@dataclass
class TrainWorkload(Workload):
    model_cfg: ModelConfig
    train_cfg: TrainConfig
    fixed_steps: int  # steps of the first train_loop call, whose loss is checked
    tiny_steps: int

    def sample(self, rng: np.random.Generator):
        raise NotImplementedError

    def setup(self, seed: int, tiny: bool) -> TrainState:
        out = Path(__file__).resolve().parent / "out" / f"train-{self.name}-{time.time_ns()}"
        steps = self.tiny_steps if tiny else self.fixed_steps
        return TrainState(self.model_cfg, self.train_cfg, seed, steps, out)

    def warm_up(self, state: TrainState) -> None:
        params = model.init_model_params(state.cfg, seed=state.seed)
        tokens, mask = self.sample(np.random.default_rng(state.seed))[0]
        logits, acts = model.model_fwd(tokens[:-1], params, state.cfg)
        d_logits = model.cross_entropy_bwd(logits, tokens[1:], mask[1:].astype(float))
        model.model_bwd(acts, d_logits, params, state.cfg)

    def measure(self, state: TrainState, sess: Session) -> None:
        call = 0
        try:
            while sess.more(call):
                sess.boundary()
                if not self._one_call(state, sess, call):
                    break
                call += 1
        finally:
            shutil.rmtree(state.out_dir, ignore_errors=True)

    def _one_call(self, state: TrainState, sess: Session, call: int) -> bool:
        """One train_loop run; False when it faulted."""
        data_rng = np.random.default_rng(_subseed(state.seed, call, 1))
        tcfg = replace(state.train, seed=_subseed(state.seed, call, 0))
        tracer = sess.tracer if sess.tracing else None
        last = [None]
        step_span = [None]

        def batch_fn(step, _rng):
            if tracer is not None:
                tracer.run_id = sess.ops
                step_span[0] = tracer.begin(STEP)
                idx = tracer.begin(BATCH)
                batch = self.sample(data_rng)
                tracer.end(idx)
                tracer.seqs += len(batch)
                return batch
            return self.sample(data_rng)

        def stop_fn(step, _params):
            now = time.perf_counter()
            if tracer is not None:
                tracer.end(step_span[0])
            sess.op_done(last[0], now)
            last[0] = now
            if step >= state.steps:
                return True
            # the first call always runs the fixed step count: its loss is the
            # learning guard; later calls fill the time and need 2 polls for a sample
            return call > 0 and step >= 2 and sess.elapsed() >= sess.seconds

        out = state.out_dir / f"call{call}"
        try:
            result = training.train_loop(state.cfg, tcfg, batch_fn, out, stop_fn=stop_fn)
        except TrainingFault as e:
            sess.check(False)
            sess.notes["fault"] = str(e)
            return False
        self._check_call(state, sess, call, result)
        shutil.rmtree(out, ignore_errors=True)
        return True

    def _check_call(self, state, sess: Session, call: int, result) -> None:
        loaded = checkpoint.load_model(state.cfg, result.checkpoint_path)
        same = all(
            a.dtype == b.dtype and np.array_equal(a, b)
            for (_, a), (_, b) in zip(
                model.named_parameters(loaded), model.named_parameters(result.params)
            )
        )
        sess.check(same)
        if call == 0 and result.steps == self.fixed_steps:
            last = result.metrics_path.read_text().strip().splitlines()[-1].split(",")
            logged = last[0] == str(self.fixed_steps)  # else only the header
            sess.notes["loss_at_end"] = float(last[3]) if logged else float("nan")
            limit = LEARNED_LOSS_FRACTION * math.log(state.cfg.vocab_size)
            sess.check(logged and float(last[3]) < limit)
        elif call == 0:  # the tiny smoke run stops before the model can learn
            sess.notes["loss_gate"] = "skipped: fewer steps than the fixed count"


@dataclass
class CopyWorkload(TrainWorkload):
    def sample(self, rng):
        return [evaluation.gen_copy_task(rng, COPY_SEQ, COPY_LEN, VOCAB) for _ in range(8)]


@dataclass
class NeedleWorkload(TrainWorkload):
    def sample(self, rng):
        batch = []
        for _ in range(16):
            spec = replace(NEEDLE_BASE, depth=float(rng.random()))
            tokens, answer = evaluation.gen_needle_task(spec, rng)
            batch.append((tokens, needle_loss_mask(spec, answer)))
        return batch


# -- long-context eval -----------------------------------------------------

EVAL_LEN = 4096
EVAL_MODEL = ModelConfig(
    n_layers=2, d_model=64, n_heads=4, d_head=16, vocab_size=VOCAB, arch="pro",
    gate_mode=GateMode(kind="data_independent", t_min=2.0, t_max=4096.0),
    backend="tiled", tile=64,
)
# The naive route matches the tiled one by causality on a prefix; 1e-5 is the
# stated f32 tolerance of the streaming-vs-materialized forward.
PREFIX_LEN, F32_TOL = 512, 1e-5


@dataclass
class EvalState:
    cfg: ModelConfig
    params: object
    seqs: list


@dataclass
class EvalWorkload(Workload):
    def setup(self, seed: int, tiny: bool) -> EvalState:
        length = PREFIX_LEN + 64 if tiny else EVAL_LEN
        cfg = EVAL_MODEL
        params = model.init_model_params(cfg, seed=seed)
        rng = np.random.default_rng(_subseed(seed, 2))
        seqs = [
            evaluation.gen_needle_task(
                replace(NEEDLE_BASE, haystack_len=length - 2, depth=d), rng
            )[0]
            for d in NEEDLE_DEPTHS
        ]
        return EvalState(cfg=cfg, params=params, seqs=seqs)

    def warm_up(self, state: EvalState) -> None:
        model.model_fwd(state.seqs[0][:128], state.params, state.cfg)

    def measure(self, state: EvalState, sess: Session) -> None:
        k = 0
        losses = []
        while sess.more(k):
            sess.boundary()
            seq = state.seqs[k % len(state.seqs)]
            tracer = sess.tracer if sess.tracing else None
            t0 = time.perf_counter()
            if tracer is not None:
                tracer.run_id = sess.ops
                idx = tracer.begin(SEQ)
            out = evaluation.eval_token_losses(state.params, state.cfg, [seq])
            if tracer is not None:
                tracer.end(idx)
            sess.op_done(t0, time.perf_counter(), ok=bool(np.all(np.isfinite(out))))
            losses.append(float(out.mean()))
            k += 1
        sess.notes["mean_eval_loss"] = float(np.mean(losses))

    def verify_outputs(self, state: EvalState, sess: Session) -> None:
        seq = state.seqs[0]
        tiled, _ = model.model_fwd(seq[:-1], state.params, state.cfg)
        naive_cfg = replace(state.cfg, backend="naive")
        naive, _ = model.model_fwd(seq[:PREFIX_LEN], state.params, naive_cfg)
        err = float(np.abs(tiled[:PREFIX_LEN] - naive).max())
        sess.notes["prefix_logits_max_abs_diff"] = err
        sess.check(err <= F32_TOL)


# -- check suites ----------------------------------------------------------


@dataclass
class CheckWorkload(Workload):
    def setup(self, seed: int, tiny: bool) -> int:
        return seed

    def warm_up(self, seed: int) -> None:
        verify.no_gate_vs_softmax(seed, cases=1)

    def measure(self, seed: int, sess: Session) -> None:
        k = 0
        while sess.more(k):
            sess.boundary()
            tracer = sess.tracer if sess.tracing else None
            t0 = time.perf_counter()
            if tracer is not None:
                tracer.run_id = sess.ops
                idx = tracer.begin(PASS)
            # verify's seed draws its case lengths, so it stays at the CLI's
            # default to keep the work per pass fixed; gradcheck's seed draws
            # only values on fixed shapes.
            results = verify.standard_suite(0) + gradcheck.standard_suite(_subseed(seed, k))
            if tracer is not None:
                tracer.end(idx)
            sess.op_done(t0, time.perf_counter())
            for r in results:
                sess.check(r.ok)
                if not r.ok:
                    sess.notes.setdefault("not_ok", []).append(r.label)
            k += 1


WORKLOADS = {
    w.name: w
    for w in (
        CopyWorkload(
            name="train_copy",
            why="acceptance copy shapes (8x66 tokens, data-independent gates): per-call "
            "Python overhead dominates, tiled attention is a minority of the step",
            op="optimizer step",
            tokens_per_op=COPY_TRAIN.batch_tokens,
            tail_pct=90.0,
            op_span=STEP,
            label="step",
            model_cfg=COPY_MODEL,
            train_cfg=COPY_TRAIN,
            fixed_steps=100,
            tiny_steps=3,
        ),
        NeedleWorkload(
            name="train_needle",
            why="acceptance needle shapes (16x256 tokens, data-dependent gates): the "
            "tiled attention backward dominates the step",
            op="optimizer step",
            tokens_per_op=NEEDLE_TRAIN.batch_tokens,
            tail_pct=65.0,
            op_span=STEP,
            label="step",
            model_cfg=NEEDLE_MODEL,
            train_cfg=NEEDLE_TRAIN,
            fixed_steps=20,
            tiny_steps=2,
        ),
        EvalWorkload(
            name="eval_long",
            why="forward-only eval of 4096-token needle haystacks on a 2..4096 gate "
            "timescale grid: tiled_fwd is nearly all the time, no backward or optimizer",
            op="4096-token sequence",
            tokens_per_op=EVAL_LEN,
            tail_pct=50.0,
            op_span=SEQ,
            label="seq",
        ),
        CheckWorkload(
            name="check_suite",
            why="verify plus gradcheck standard suites: float64 at tiny lengths, the only "
            "user of the materialized route, gla, verify and gradcheck",
            op="pass of both suites",
            tokens_per_op=0,
            tail_pct=50.0,
            op_span=PASS,
            label="check",
        ),
    )
}
