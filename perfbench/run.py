"""foxattn benchmark: end-to-end metrics untraced, per-layer metrics traced.

Run from the repository root:

    python3 perfbench/run.py --workload train_copy --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One workload per process. `--trace 0` prints the end-to-end metrics, `--trace 1`
the per-layer self-time table; `all` runs every workload both ways in child
processes and prints both tables. The last stdout line of a single-workload run
is one JSON object: {"correct", "attempted", "failed", "metrics"}. Results,
the environment and the spans of a traced run are written under perfbench/out/;
none of it goes into the library's deterministic artifacts.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are pinned before numpy loads: the matrices here are at most
# 4096 x 64, and one thread keeps op times steady on a shared machine.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _want = os.environ.get(_var, "1")
    os.environ[_var] = str(min(int(_want) if _want.isdigit() and int(_want) > 0 else 1, NPROC))

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 7

# Op costs are in "ref": multiples of the reference kernel's time sampled
# around each op (workloads.reference_kernel, Session), which cancels the
# host's speed drift. Raw times are printed and kept in the result file.
# The bound is the share of the parent's median by which a metric may worsen
# before a change counts as a regression.
E2E = (  # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("op_cost_p50", "ref", "lower", 0.25),
    ("op_cost_tail", "ref", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)
RUN_SECONDS = 20


def _import_library():
    if not (ROOT / "src" / "foxattn" / "__init__.py").is_file():
        sys.exit(f"perfbench: no foxattn sources under {ROOT / 'src'}; run from a checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads  # noqa: F401


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": NPROC,
        "machine": platform.machine(),
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def percentile(values: list[float], pct: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), pct))


def probe_setup(workload: str, seed: int, tiny: bool) -> list[float]:
    """Set-up time of fresh processes: spawn to the end of warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"] + (["--tiny"] if tiny else [])
    times = []
    for _ in range(1 if tiny else SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as p:
            line = p.stdout.readline()
            t1 = time.perf_counter()
            p.stdout.read()
            code = p.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        times.append(t1 - t0)
    return times


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                 setup_times: list[float] | None = None) -> dict:
    """Set up, warm up, measure, check. Returns the full result record."""
    import workloads
    from layers import CALL_COUNTS, PREDICTIONS, SELF_BUCKETS, metric_specs
    from spans import Tracer

    wl = workloads.WORKLOADS[name]
    state = wl.setup(seed, tiny)
    wl.warm_up(state)
    tracer = Tracer() if trace else None
    sess = workloads.Session(seconds, tracer)
    sess.start()
    try:
        wl.measure(state, sess)
    finally:
        sess.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wl.verify_outputs(state, sess)

    untraced = sess.work_times(False)
    costs = sess.costs(False)
    pct = wl.tail_pct
    beyond = sum(1 for x in untraced if x > percentile(untraced, pct))
    window = sess.t_untraced_end - sess.t_start
    busy = window - sess.ref_inside(sess.t_start, sess.t_untraced_end)
    raw = {
        "ops_per_s": sess.untraced_ops / busy,
        "op_ms_p50": 1e3 * statistics.median(untraced),
        "op_ms_tail": 1e3 * percentile(untraced, pct),
        "reference_ms": 1e3 * statistics.median(w1 - w0 for w0, w1 in sess.ref_windows),
    }
    e2e = {
        "setup_s": statistics.median(setup_times) if setup_times else 0.0,
        "op_cost_p50": statistics.median(costs),
        "op_cost_tail": percentile(costs, pct),
        "peak_rss_mb": peak_rss_mb,
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "why": wl.why,
        "op": wl.op,
        "env": environment(),
        "correct": sess.failed == 0,
        "attempted": sess.attempted,
        "failed": sess.failed,
        "error_rate": sess.failed / sess.attempted,
        "e2e": e2e,
        "raw": raw,
        "tail": {"percentile": pct, "samples": len(untraced), "beyond": beyond},
        "tokens_per_s": wl.tokens_per_op * raw["ops_per_s"],
        "setup_samples": setup_times,
        "notes": sess.notes,
        "predictions": PREDICTIONS,
    }
    if not trace:
        return record

    n = max(sess.traced_ops, 1)
    self_by_name = tracer.self_by_name()
    calls = tracer.calls_by_name()
    per_layer = {m: 0.0 for m, _, _ in metric_specs()}
    unmapped = sorted(set(self_by_name) - set(SELF_BUCKETS))
    for span, t in self_by_name.items():
        per_layer[SELF_BUCKETS.get(span, "bench.self_s")] += t / n
    for metric, names in CALL_COUNTS.items():
        per_layer[metric] = sum(calls[s] for s in names) / n
    tiles = tracer.tiles()
    per_layer["tiled.tiles_computed"] = tiles["tiles"] / n
    per_layer["tiled.flops_computed"] = tiles["flops"] / n
    per_layer["tiled.bytes_computed"] = tiles["bytes"] / n
    per_layer["training.steps"] = float(calls[workloads.STEP])
    per_layer["evaluation.seqs"] = tracer.seqs / n
    per_layer["checkpoint.bytes"] = tracer.checkpoint_bytes / n
    per_layer["trace.spans"] = len(tracer.spans) / n
    traced = sess.work_times(True)
    # traced minus untraced op time, compared in reference units so that host
    # drift between the two halves cancels, then back in ms at this run's speed
    extra_cost = statistics.median(sess.costs(True)) - statistics.median(costs)
    per_layer["trace.overhead_ms"] = extra_cost * raw["reference_ms"]
    record.update(
        per_layer=per_layer,
        absent=tracer.absent,
        unmapped_spans=unmapped,
        traced_ops=sess.traced_ops,
        traced_op_ms_p50=1e3 * statistics.median(traced),
        op_breakdowns=[(wall, d) for wall, d in tracer.op_breakdowns(wl.op_span)],
    )
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / f"spans-{name}.tsv.gz")
    return record


def layer_table(rec: dict) -> str:
    from layers import metric_specs

    op_ms = rec["traced_op_ms_p50"]
    lines = [f"per-layer ({rec['workload']}, traced, per {rec['op']}; traced op p50 "
             f"{op_ms:.2f} ms, tracing overhead {rec['per_layer']['trace.overhead_ms']:+.2f} ms "
             f"= {100 * rec['per_layer']['trace.overhead_ms'] / op_ms:+.1f}% of it)"]
    for name, unit, _ in metric_specs():
        v = rec["per_layer"][name]
        share = f"{100 * 1e3 * v / op_ms:6.1f}%" if unit == "s" else ""
        lines.append(f"  {name:24s} {v:14.6g} {unit:6s} {share}")
    if rec["absent"]:
        lines.append(f"  absent (not traced): {', '.join(rec['absent'])}")
    return "\n".join(lines)


def e2e_lines(rec: dict) -> str:
    import workloads

    wl = workloads.WORKLOADS[rec["workload"]]
    raw, t = rec["raw"], rec["tail"]
    out = [f"end-to-end ({rec['workload']}, seed {rec['seed']}, op = one {rec['op']}; "
           f"op costs in multiples of the {raw['reference_ms']:.3f} ms reference kernel)"]
    units = {n: u for n, u, _, _ in E2E}
    for name, value in rec["e2e"].items():
        out.append(f"  {name:22s} {value:14.6g} {units[name]}")
    if wl.label == "check":
        out.append(f"  {'check_s':22s} {raw['op_ms_p50'] / 1e3:14.6g} s")
    else:
        kind = "train" if wl.label == "step" else "eval"
        out.append(f"  {kind + '_tokens_per_s':22s} {rec['tokens_per_s']:14.6g} 1/s")
        out.append(f"  {wl.label + '_ms_p50':22s} {raw['op_ms_p50']:14.6g} ms")
    out.append(f"  {wl.label + '_ms_tail':22s} {raw['op_ms_tail']:14.6g} ms  "
               f"(p{t['percentile']:g} of {t['samples']} samples, {t['beyond']} beyond it)")
    for key in ("loss_at_end", "mean_eval_loss", "prefix_logits_max_abs_diff"):
        if key in rec["notes"]:
            out.append(f"  {key:22s} {rec['notes'][key]:14.6g}")
    out.append(f"  {'error_rate':22s} {rec['error_rate']:14.6g}  "
               f"({rec['failed']} failed of {rec['attempted']} attempted)")
    return "\n".join(out)


def run_all(args) -> int:
    import workloads

    summary = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                print(f"{name} trace={trace} exited {done.returncode}")
                return 1
            summary.append({"workload": name, "trace": trace,
                            **json.loads(done.stdout.strip().splitlines()[-1])})
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if all(s["correct"] for s in summary) else 1


def benchmark_json() -> dict:
    """The BENCHMARK.json this code defines."""
    import workloads
    from layers import metric_specs

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in E2E],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in metric_specs()],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    ap.add_argument("--write-benchmark-json", action="store_true",
                    help="write BENCHMARK.json at the repository root and exit")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _import_library()
    import workloads

    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n")
        return 0

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:  # also catches a missing --workload
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)} or all")
    if args.setup_probe:
        wl = workloads.WORKLOADS[args.workload]
        wl.warm_up(wl.setup(args.seed, args.tiny))
        print("ready", flush=True)
        return 0

    from layers import metric_specs

    setup_times = None if args.trace else probe_setup(args.workload, args.seed, args.tiny)
    rec = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny,
                       setup_times)
    print("env " + json.dumps(rec["env"]))
    if args.trace:
        print(layer_table(rec))
        metrics = {n: {"value": rec["per_layer"][n], "unit": u} for n, u, _ in metric_specs()}
    else:
        print(e2e_lines(rec))
        metrics = {n: {"value": rec["e2e"][n], "unit": u} for n, u, _, _ in E2E}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(rec, indent=1, default=str) + "\n")
    print(json.dumps({"correct": rec["correct"], "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
