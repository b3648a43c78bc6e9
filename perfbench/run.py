"""pinnrul benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload train|predict|map --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics untraced: set-up is repeated
and its median reported, then operations run in a closed loop (one
client, each operation starts when the previous one returned) for
``--seconds``. Each set-up and operation is paired with the same one
run by the frozen ``yardstick`` build, and timings are reported
relative to it (see ``end_to_end``). ``--trace 1`` runs a fixed number
of operations, each once untraced and once with every public pinnrul
layer wrapped in spans, and
reports per-layer busy time, self time and counts plus the tracing
overhead. Either way every output is checked against an independent
numpy reference and the last line of stdout is the JSON result; the line
before it records the seed, the platform and the workload-specific
figures. Both are also written under ``perfbench/out/``. Metric names,
units and workload reasons come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = {"train": 9, "predict": 3, "map": 3}
MIN_PAIRS = 2
# The yardstick's own wall-clock medians in three tuning runs per workload
# on the 2-vCPU Xeon guest of a shared host (Python 3.11, numpy 2.4,
# OpenBLAS 0.3.31), under that host's load at the time. They set the scale of the reported
# metrics only; what is measured is the ratio to the yardstick.
YARDSTICK = {
    "train": {"setup_s": 0.049, "throughput_per_s": 88632.0, "latency_p50_ms": 1279.0},
    "predict": {"setup_s": 1.12, "throughput_per_s": 254.9, "latency_p50_ms": 3.923},
    "map": {"setup_s": 1.0, "throughput_per_s": 175974.0, "latency_p50_ms": 891.0},
}

# One BLAS thread, so that the program and the yardstick each run on one
# core and neither waits on a second thread stalled by a loaded neighbour.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def import_program():
    """Import pinnrul from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import pinnrul
    except ImportError as exc:
        sys.exit(f"error: cannot import pinnrul from {src}: {exc}")
    if Path(pinnrul.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"error: pinnrul imported from {pinnrul.__file__}, not from {src}")


def platform_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def timed(fn) -> float:
    gc.collect()
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def paired(program, yardstick, yardstick_first: bool) -> tuple:
    """Run both, one after the other in the order given; return (program's result, yardstick's)."""
    if yardstick_first:
        y = yardstick()
        return program(), y
    return program(), yardstick()


def end_to_end(w, y, seconds: float) -> dict:
    """Time the program ``w`` against the yardstick ``y`` running the same inputs, in pairs.

    Host load on a shared machine moves raw timings by up to 1.8x for
    seconds to minutes; the two halves of a pair run back to back, so
    their ratio is what the code costs. A metric is the median ratio
    times the yardstick's own figure (``YARDSTICK``); the record line
    keeps both sides' wall-clock figures.
    """
    # The program runs alone first, so that peak RSS is its own.
    w.setup()
    w.op()  # warm-up; its output is checked with the rest
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    y.setup()
    y.op()
    setups = [paired(lambda: timed(w.setup), lambda: timed(y.setup), i % 2 == 1) for i in range(SETUP_REPEATS[w.name])]
    pairs, pair_s = [], 0.0
    started = time.perf_counter()
    while len(pairs) < MIN_PAIRS or time.perf_counter() - started + pair_s <= seconds:
        start = time.perf_counter()
        pairs.append(paired(w.op, y.op, len(pairs) % 2 == 1))
        pair_s = time.perf_counter() - start
    failed, self_test = w.check()
    attempted = len(pairs) + 1

    def latency(op):
        return op.end - op.start

    def rate(op):
        return op.units / (op.rate_end - op.start)

    ratios = {
        "setup_s": [a / b for a, b in setups],
        "throughput_per_s": [rate(a) / rate(b) for a, b in pairs],
        "latency_p50_ms": [latency(a) / latency(b) for a, b in pairs],
    }
    scale = YARDSTICK[w.name]
    metrics = {name: scale[name] * statistics.median(r) for name, r in ratios.items()}
    metrics["peak_rss_mb"] = peak_rss_mb
    metrics["ok_ops_ratio"] = (attempted - failed) / attempted

    def wall_clock(side: int) -> dict:
        lat = [latency(p[side]) for p in pairs]
        return {
            "setup_s": statistics.median(s[side] for s in setups),
            "throughput_per_s": statistics.median(rate(p[side]) for p in pairs),
            "latency_p50_ms": 1e3 * statistics.median(lat),
            "latency_p99_ms": 1e3 * percentile(lat, 99),
        }

    named = {"failed_ops_ratio": [failed / attempted, "1"]}
    if w.name == "train":
        named["train_samples_per_s"] = [metrics["throughput_per_s"], "1/s"]
        named["val_rmse_cycles"] = [w.val_rmse_cycles, "cycles"]
    elif w.name == "predict":
        named["predict_p50_ms"] = [metrics["latency_p50_ms"], "ms"]
        named["predict_p99_ms_wall_clock"] = [wall_clock(0)["latency_p99_ms"], "ms"]
    else:
        named["map_rows_per_s"] = [metrics["throughput_per_s"], "1/s"]
    extra = {
        "pairs": len(pairs),
        "ratio_quartiles": {name: statistics.quantiles(r, n=4) if len(r) > 1 else r for name, r in ratios.items()},
        "wall_clock": {"program": wall_clock(0), "yardstick": wall_clock(1)},
        "named_metrics": named,
    }
    return {"attempted": attempted, "failed": failed, "self_test": self_test, "metrics": metrics, "extra": extra}


def traced(w, seconds: float, spans_path: Path) -> dict:
    import tracing

    n_ops = w.traced_ops(seconds)
    w.setup()
    w.op()  # warm-up; its output is checked with the rest
    steps = [("bench.setup", w.setup)] if w.setup_in_path else []
    steps += [("bench.op", w.op)] * n_ops
    # Each step runs untraced and traced back to back, alternating which goes
    # first, so warm-up and drift fall on both sides of the overhead ratio.
    tracer = tracing.Tracer()
    untraced_wall = 0.0
    per_op = []
    for i, (name, step) in enumerate(steps):
        for with_spans in (i % 2 == 1, i % 2 == 0):
            if not with_spans:
                start = time.perf_counter()
                step()
                untraced_wall += time.perf_counter() - start
                continue
            first = len(tracer.spans)
            tracer.install()
            try:
                tracer.wrap(name, step)()
            finally:
                tracer.uninstall()
            if name == "bench.op":
                per_op.append(tracer.op_counts(first))
    failed, self_test = w.check()
    tracer.write(spans_path)

    s = tracer.summary()
    traced_wall = sum(v["busy_s"] for k, v in s.items() if k.startswith("bench."))

    def busy(name):
        return s.get(name, {}).get("busy_s", 0.0)

    def own(name):
        return s.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    layer_self = {layer: sum(v["self_s"] for k, v in s.items() if k.split(".")[0] == layer) for layer in tracing.LAYERS}
    self_sum = sum(layer_self.values())
    nodes = tracer.counts["graph.eval"]
    metrics = {
        "graph.eval_s": busy("graph.eval"),
        "graph.eval_calls": calls("graph.eval"),
        "graph.eval_us_per_node": 1e6 * busy("graph.eval") / nodes if nodes else 0.0,
        "graph.grad_s": busy("graph.grad"),
        "graph.grad_calls": calls("graph.grad"),
        "graph.build_calls": calls("graph.build"),
        "graph.build_s": busy("graph.build"),
        "graph.graphs_built": calls("graph.new"),
        "graph.nodes_per_graph": calls("graph.build") / max(1, calls("graph.new")),
        "net.emit_s": busy("net.forward") + busy("net.forward_tangents"),
        "model.cost_self_s": own("model.cost"),
        "model.mean_cost_s": busy("model.mean_cost"),
        "model.mean_cost_share": busy("model.mean_cost") / busy("optim.train") if calls("optim.train") else 0.0,
        "model.latent_map_self_s": own("model.latent_map"),
        "model.sweep_s": busy("model.sweep"),
        "optim.nadam_step_s": busy("optim.nadam_step"),
        "optim.nadam_step_calls": calls("optim.nadam_step"),
        "optim.train_self_s": own("optim.train"),
        "optim.val_rmse_cycles": w.val_rmse_cycles,
        "data.take_s": busy("data.take"),
        "data.take_calls": calls("data.take"),
        "data.synth_generate_s": busy("data.synth_generate"),
        "data.select_features_s": busy("data.select_features"),
        "data.augment_s": busy("data.augment"),
        "data.fit_norm_s": busy("data.fit_norm"),
        "modelfile.load_s": busy("modelfile.load_model"),
        "modelfile.load_calls": calls("modelfile.load_model"),
        "modelfile.save_s": busy("modelfile.save_model"),
        "modelfile.bytes": tracer.counts["modelfile.load_model"] + tracer.counts["modelfile.save_model"],
        **{f"{layer}.self_s": layer_self[layer] for layer in tracing.LAYERS},
        "trace.wall_s": traced_wall,
        "trace.spans": len(tracer.spans),
        "trace_overhead": traced_wall / untraced_wall - 1.0,
    }
    counts_repeat = all(c == per_op[0] for c in per_op)
    self_sums_to_wall = abs(self_sum - traced_wall) <= 1e-9 * traced_wall
    extra = {
        "traced_ops": n_ops,
        "untraced_wall_s": untraced_wall,
        "self_time_sum_s": self_sum,
        "counts_repeat_per_op": counts_repeat,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "per_span": s,
    }
    return {
        "attempted": 2 * n_ops + 1,
        "failed": failed,
        "self_test": self_test and counts_repeat and self_sums_to_wall,
        "metrics": metrics,
        "extra": extra,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reasons = {w["name"]: w["why"] for w in spec["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(reasons))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    import_program()
    sys.path.insert(0, str(HERE))
    import pinnrul.cli
    import yardstick.cli
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    (workdir / "program").mkdir(parents=True)
    (workdir / "yardstick").mkdir()
    try:
        w = WORKLOADS[args.workload](args.seed, workdir / "program", pinnrul)
        if args.trace:
            res = traced(w, args.seconds, OUT / f"spans-{args.workload}-seed{args.seed}.json")
        else:
            y = WORKLOADS[args.workload](args.seed, workdir / "yardstick", yardstick)
            res = end_to_end(w, y, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(res["metrics"]) != set(units):
        sys.exit(f"error: metrics {sorted(set(res['metrics']) ^ set(units))} disagree with BENCHMARK.json")

    info = {
        "workload": w.name,
        "why": reasons[w.name],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **platform_info(),
        "self_test_ok": res["self_test"],
        **w.notes,
        **res["extra"],
    }
    result = {
        "correct": res["failed"] == 0 and res["self_test"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": res["metrics"][name], "unit": unit} for name, unit in units.items()},
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{tag}.json").write_text(json.dumps({"info": info, "result": result}, indent=1) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
