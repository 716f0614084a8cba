"""Building, statistics, output checks and trace checks of the
end-to-end benchmark. run.py is the command; this module holds the
logic the tests in perfbench/tests exercise.
"""

import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "e2e_bench")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")

WORKLOADS = ("vgg19_scnn_4x4", "vgg19_baseline", "resnet18_sscnn_2x2")

# Distinct input sets: a --seed selects input set seed % INPUT_SEEDS,
# and reference.json holds the checked loss of every one of them.
INPUT_SEEDS = 256

# Percentiles the tail metric may report, highest first.
TAIL_LADDER_TENTHS = (999, 990, 950, 900, 750, 500)
TAIL_MIN_BEYOND = 10

# Count metrics are medians over this many first timed steps, so they
# depend on the seed alone and not on how many steps a run fits.
COUNT_STEPS = 16

# A step's child spans must cover at least this share of the step.
MIN_CHILD_COVERAGE = 0.9
# Slack for the microsecond rounding of trace timestamps.
TS_SLACK_US = 0.002

MB = 1e6


class BenchError(Exception):
    """The benchmark could not run (no result is printed)."""


def build(jobs=4):
    """Configure and build the benchmark package into BUILD_DIR."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("split-cnn sources (src/) not found next to "
                         "perfbench/")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(jobs)])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            raise BenchError("build step failed: " + " ".join(cmd))


def run_binary(workload, seed, seconds, trace, trace_file=None, env=None):
    """Run e2e_bench once; returns its JSON report (a dict)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-file", trace_file]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          env=env, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("e2e_bench exited with %d" % proc.returncode)
    return json.loads(lines[-1])


def tail_percentile(n):
    """Highest ladder percentile with at least TAIL_MIN_BEYOND of
    @p n samples beyond its nearest-rank position; 50 if none has."""
    for tenths in TAIL_LADDER_TENTHS:
        rank = -(-tenths * n // 1000)  # ceil(p * n / 100)
        if n - rank >= TAIL_MIN_BEYOND:
            return tenths / 10
    return 50.0


def percentile(values, p):
    """Nearest-rank percentile: p50 is the lower median, and a higher
    percentile never reads below a lower one."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) / 100 - 1e-9))
    return ordered[rank - 1]


def median(values):
    return statistics.median(values) if values else 0.0


def input_seed(seed):
    """The input set a --seed selects."""
    return seed % INPUT_SEEDS


def end_to_end_metrics(raw):
    """The ten end-to-end metrics from one untraced binary report."""
    cfg = raw["config"]
    steps = raw["train"]["step_ms"]
    evals = raw["eval"]["batch_ms"]
    if len(steps) < 2 or len(evals) < 2:
        raise BenchError("too few timed steps (%d) or eval batches (%d)"
                         % (len(steps), len(evals)))
    batch = cfg["batch"]
    first = slice(0, COUNT_STEPS)
    # The planned counts are fixed by workload and --seconds, so the
    # tail is the same percentile in every run (a failed step, which
    # fails the run, leaves fewer samples but not another percentile).
    train_tail = tail_percentile(cfg["train_steps"])
    eval_tail = tail_percentile(cfg["eval_batches"])
    metrics = {
        "setup_s": (median(raw["setup_s"]), "s"),
        "train_images_per_s":
            (batch * len(steps) / (sum(steps) / 1e3), "images/s"),
        "train_step_ms_p50": (percentile(steps, 50), "ms"),
        "train_step_ms_tail": (percentile(steps, train_tail), "ms"),
        "eval_images_per_s":
            (batch * len(evals) / (sum(evals) / 1e3), "images/s"),
        "eval_batch_ms_p50": (percentile(evals, 50), "ms"),
        "eval_batch_ms_tail": (percentile(evals, eval_tail), "ms"),
        "train_peak_heap_mb":
            (median(raw["train"]["peak_heap_bytes"][first]) / MB, "MB"),
        "eval_peak_heap_mb":
            (median(raw["eval"]["peak_heap_bytes"][first]) / MB, "MB"),
        "resident_heap_mb":
            (median(raw["resident_bytes"][first]) / MB, "MB"),
    }
    info = {"train_steps": len(steps), "eval_batches": len(evals),
            "train_tail_percentile": train_tail,
            "eval_tail_percentile": eval_tail}
    return metrics, info


def per_layer_metrics(raw):
    """The per-layer metrics from one traced binary report."""
    train = raw["train"]
    phase = train["phase_ms"]
    setup = raw["setup_phase_ms"]
    first = slice(0, COUNT_STEPS)
    stochastic = raw["config"]["stochastic"]
    steps = train["step_ms"]
    traced = [ms for ms, t in zip(steps, train["traced"]) if t]
    untraced = [ms for ms, t in zip(steps, train["traced"]) if not t]
    hits = median(train["cache_hits"][first])
    misses = median(train["cache_misses"][first])
    kinds = raw["replay"]["kinds"]

    def kind_ms(*names):
        return sum(kinds.get(k, {}).get("ms", 0.0) for k in names)

    def gflops(name):
        k = kinds.get(name)
        return k["flops"] / k["ms"] / 1e6 if k and k["ms"] > 0 else 0.0

    conv_flops = sum(kinds.get(k, {}).get("flops", 0.0)
                     for k in ("conv2d_fwd", "conv2d_bwd"))
    graph = raw["graph"]
    m = {
        "data.batch_ms": (median(phase["data.batch"]), "ms"),
        "models.build_ms": (median(setup["models.build"]), "ms"),
        "hmms.plan_ms": (median(setup["hmms.plan"]), "ms"),
        "core.transform_ms":
            (median(phase["core.transform"] if stochastic
                    else setup["core.transform"]), "ms"),
        "core.graph_nodes": (graph["nodes"], "count"),
        "core.patches": (graph["patches"], "count"),
        "core.convs_split": (graph["convs_split"], "count"),
        "core.panel_cache_hits_per_step": (hits, "count"),
        "core.panel_cache_misses_per_step": (misses, "count"),
        "core.panel_cache_hit_ratio":
            (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "hmms.planned_device_mb": (raw["plan"]["device_bytes"] / MB, "MB"),
        "hmms.offloaded_mb": (raw["plan"]["offloaded_bytes"] / MB, "MB"),
        "train.executor_ctor_ms":
            (median(phase["train.executor_ctor"]), "ms"),
        "train.forward_ms": (median(phase["train.forward"]), "ms"),
        "train.loss_ms": (median(phase["train.loss"]), "ms"),
        "train.backward_ms": (median(phase["train.backward"]), "ms"),
        "train.sgd_ms": (median(phase["train.sgd"]), "ms"),
        "train.eval_forward_ms":
            (median(raw["eval"]["forward_ms"]), "ms"),
        "train.forward_cache_mb":
            (median(train["forward_cache_bytes"][first]) / MB, "MB"),
        "train.waves": (graph["waves"], "count"),
        "train.narrow_wave_share":
            (graph["narrow_waves"] / graph["waves"], "ratio"),
        "train.forward_self_ms":
            (median(phase["train.forward"]) - raw["replay"]["forward_ms"],
             "ms"),
        "kernels.conv2d_fwd_ms": (kind_ms("conv2d_fwd"), "ms"),
        "kernels.conv2d_bwd_ms": (kind_ms("conv2d_bwd"), "ms"),
        "kernels.conv2d_fwd_gflops": (gflops("conv2d_fwd"), "GFLOP/s"),
        "kernels.conv2d_bwd_gflops": (gflops("conv2d_bwd"), "GFLOP/s"),
        "kernels.pool_ms": (kind_ms("pool"), "ms"),
        "kernels.batchnorm_ms": (kind_ms("batchnorm"), "ms"),
        "kernels.linear_ms": (kind_ms("linear"), "ms"),
        "kernels.eltwise_ms": (kind_ms("eltwise"), "ms"),
        "kernels.conv_gflop_per_step": (conv_flops / 1e9, "GFLOP"),
        "kernels.gemm_pack_a_per_step":
            (median(train["pack_a"][first]), "count"),
        "tensor.slice_concat_ms": (kind_ms("slice_concat"), "ms"),
        "tensor.allocs_per_step": (median(train["allocs"][first]), "count"),
        "tensor.alloc_mb_per_step":
            (median(train["alloc_bytes"][first]) / MB, "MB"),
        "trace.overhead_ms": (median(traced) - median(untraced), "ms"),
    }
    return m


def load_reference(workload, seed):
    """The committed reference.json, checked to hold the loss of
    @p workload at input seed @p seed."""
    with open(REFERENCE) as f:
        reference = json.load(f)
    if str(seed) not in reference["workloads"].get(workload, {}):
        raise BenchError("reference.json has no loss for %s input seed %d;"
                         " regenerate it with make_reference.py"
                         % (workload, seed))
    return reference


def check_loss(raw, reference):
    """None if the checked step's loss matches the committed reference
    for this workload and input seed, else a message."""
    loss = raw["loss"]["check"]
    if loss is None or not math.isfinite(loss):
        return "no finite loss at step %d" % raw["loss"]["check_step"]
    if raw["loss"]["check_step"] != reference["check_step"]:
        return "reference is for step %d" % reference["check_step"]
    want = reference["workloads"][raw["workload"]][str(raw["seed"])]
    if abs(loss - want) > reference["rel_tolerance"] * abs(want):
        return ("loss %.9g differs from reference %.9g by more than "
                "%g relative" % (loss, want, reference["rel_tolerance"]))
    return None


def check_trace(events, min_coverage=MIN_CHILD_COVERAGE):
    """Well-formedness problems of a list of Chrome "X" events; empty
    when the span tree is sound: ids unique, parents exist, each child
    lies inside its parent, siblings do not overlap, children carry
    their step's id, and each step's or eval batch's children cover at
    least @p min_coverage of it."""
    problems = []
    by_id = {}
    for ev in events:
        a = ev["args"]
        if ev.get("ph") != "X" or ev["dur"] < 0:
            problems.append("bad event %r" % ev["name"])
        if a["id"] in by_id:
            problems.append("duplicate span id %d" % a["id"])
        by_id[a["id"]] = ev
    children = {}
    for ev in events:
        parent = ev["args"]["parent"]
        if parent == 0:
            continue
        if parent not in by_id:
            problems.append("span %d has unknown parent %d"
                            % (ev["args"]["id"], parent))
            continue
        children.setdefault(parent, []).append(ev)
    for pid, kids in children.items():
        p = by_id[pid]
        p_end = p["ts"] + p["dur"]
        kids.sort(key=lambda e: e["ts"])
        prev_end = None
        for k in kids:
            if (k["ts"] < p["ts"] - TS_SLACK_US
                    or k["ts"] + k["dur"] > p_end + TS_SLACK_US):
                problems.append("%s %d not inside its parent %s %d"
                                % (k["name"], k["args"]["id"], p["name"],
                                   pid))
            if prev_end is not None and k["ts"] < prev_end - TS_SLACK_US:
                problems.append("%s %d overlaps its previous sibling"
                                % (k["name"], k["args"]["id"]))
            prev_end = k["ts"] + k["dur"]
            if p["args"]["step"] >= 0 and \
                    k["args"]["step"] != p["args"]["step"]:
                problems.append("%s %d has step %d inside step %d"
                                % (k["name"], k["args"]["id"],
                                   k["args"]["step"], p["args"]["step"]))
        if p["name"] in ("step", "eval") and p["dur"] > 0:
            covered = sum(k["dur"] for k in kids) / p["dur"]
            if covered < min_coverage:
                problems.append("%s %d: children cover %.3f < %.2f"
                                % (p["name"], p["args"]["step"], covered,
                                   min_coverage))
    for ev in events:
        if ev["name"] in ("step", "eval") and \
                ev["args"]["id"] not in children:
            problems.append("%s %d has no child spans"
                            % (ev["name"], ev["args"]["step"]))
    return problems


def self_times(events):
    """Total self time (ms) per span name: duration minus the part
    its child spans cover."""
    child_ms = {}
    for ev in events:
        parent = ev["args"]["parent"]
        if parent:
            child_ms[parent] = child_ms.get(parent, 0.0) + ev["dur"] / 1e3
    totals = {}
    for ev in events:
        own = ev["dur"] / 1e3 - child_ms.get(ev["args"]["id"], 0.0)
        totals[ev["name"]] = totals.get(ev["name"], 0.0) + own
    return totals
