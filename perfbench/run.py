#!/usr/bin/env python3
"""End-to-end Split-CNN training benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the library and the benchmark binary from source into
.bench_build/, runs one workload's timed closed-loop training (one
caller; one eval batch per two train steps; round(S x the workload's
nominal step rate) train steps, about S seconds), checks the
outputs, prints the metrics by name and unit, and ends stdout with one
JSON line: {"correct", "attempted", "failed", "metrics"}. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer metrics of a
traced run, whose Chrome trace lands in .bench_build/traces/. The full
report, with the runtime configuration, goes to .bench_build/reports/.
Seed N selects input set N % 256 (dataset, parameter init, data order,
split draws); reference.json holds the checked loss of each. Exits 1
when an output check fails and 2 when the benchmark cannot run.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=benchlib.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main():
    args = parse_args()
    name = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    report_path = os.path.join(benchlib.BUILD_DIR, "reports", name + ".json")
    trace_path = os.path.join(benchlib.BUILD_DIR, "traces", name + ".json")
    seed = benchlib.input_seed(args.seed)
    try:
        reference = benchlib.load_reference(args.workload, seed)
        benchlib.build()
        os.makedirs(os.path.dirname(report_path), exist_ok=True)
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        raw = benchlib.run_binary(args.workload, seed, args.seconds,
                                  args.trace, trace_path)
        events = []
        if args.trace:
            metrics = benchlib.per_layer_metrics(raw)
            info = {}
            with open(trace_path) as f:
                events = json.load(f)["traceEvents"]
        else:
            metrics, info = benchlib.end_to_end_metrics(raw)
    except (benchlib.BenchError, subprocess.TimeoutExpired, OSError,
            ValueError, KeyError) as e:
        print("perfbench: cannot run: %s" % e, file=sys.stderr)
        return 2

    failures = list(raw["ops"]["failures"])
    failed = raw["ops"]["failed"]
    correct = True
    for check in ("params_compatible_train", "params_compatible_eval"):
        if not raw["checks"][check]:
            correct = False
            failures.append("ParamStore not compatibleWith the %s graph"
                            % check.rsplit("_", 1)[1])
    loss_problem = benchlib.check_loss(raw, reference)
    if loss_problem:
        # The run's last operation is what the reference judges.
        failed += 1
        failures.append("loss check: " + loss_problem)
    report = {"seed": args.seed, "raw": raw, "info": info}
    if args.trace:
        problems = benchlib.check_trace(events)
        if problems:
            correct = False
            failures += ["trace: " + p for p in problems[:8]]
        report["trace_problems"] = problems
        report["self_ms"] = benchlib.self_times(events)
    correct = correct and failed == 0

    cfg = raw["config"]
    print("workload %s seed %d (input set %d): %s, batch %d, width %g, "
          "depth %g, grid %s%s"
          % (args.workload, args.seed, seed, cfg["model"], cfg["batch"],
             cfg["width"], cfg["depth"], cfg["grid"],
             ", stochastic" if cfg["stochastic"] else ""))
    print("runtime: %d pool threads of %d hardware, simd %s, gemm %s, "
          "NDEBUG %s, SCNN_* env %s"
          % (cfg["pool_threads"], cfg["hardware_threads"],
             cfg["simd_kernel"], cfg["gemm_kernel"], cfg["ndebug"],
             cfg["scnn_env"] or "none"))
    if info:
        print("samples: %d train steps (tail = p%g), %d eval batches "
              "(tail = p%g)" % (info["train_steps"],
                                info["train_tail_percentile"],
                                info["eval_batches"],
                                info["eval_tail_percentile"]))
    if args.trace:
        print("kernels.* and tensor.slice_concat_ms are replayed: each "
              "node's kernel timed in isolation, not inside the executor")
        print("hmms.planned_device_mb and hmms.offloaded_mb are predicted "
              "by the HMMS plan, not measured")
        print("self time by span (ms): " + ", ".join(
            "%s %.1f" % kv for kv in sorted(report["self_ms"].items())))
        print("trace: %s (%d events)" % (trace_path, raw["trace_events"]))
    for key, (value, unit) in metrics.items():
        print("  %-34s %14.4f %s" % (key, value, unit))
    print("ops: %d attempted, %d failed" % (raw["ops"]["attempted"], failed))
    for f in failures:
        print("  FAILED " + f)

    report["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    report["correct"] = correct
    report["failures"] = failures
    with open(report_path, "w") as f:
        json.dump(report, f, indent=1)
    print(json.dumps({"correct": correct,
                      "attempted": raw["ops"]["attempted"],
                      "failed": failed,
                      "metrics": report["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
