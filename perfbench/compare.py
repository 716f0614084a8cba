#!/usr/bin/env python3
"""Cross-workload observations from the untraced run reports in
.bench_build/reports/ (run perfbench/run.py on the vgg19 workloads
first). Prints recorded numbers, not gates:

  - the split/unsplit vgg19 train step ratio, against the 1.15x goal;
  - measured train peak heap split vs unsplit, beside the HMMS plan's
    predicted device bytes for the same graphs.

    python3 perfbench/compare.py
"""

import glob
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402


def medians():
    """workload -> {metric: median over that workload's reports}."""
    values = {}
    pattern = os.path.join(benchlib.BUILD_DIR, "reports", "*-trace0.json")
    for path in glob.glob(pattern):
        with open(path) as f:
            report = json.load(f)
        wl = report["raw"]["workload"]
        per = values.setdefault(wl, {})
        for k, v in report["metrics"].items():
            per.setdefault(k, []).append(v["value"])
        per.setdefault("planned_device_mb", []).append(
            report["raw"]["plan"]["device_bytes"] / benchlib.MB)
    return {wl: {k: (statistics.median(v), len(v)) for k, v in per.items()}
            for wl, per in values.items()}


def main():
    m = medians()
    split, base = m.get("vgg19_scnn_4x4"), m.get("vgg19_baseline")
    if not split or not base:
        print("need reports for vgg19_scnn_4x4 and vgg19_baseline",
              file=sys.stderr)
        return 2
    s, ns = split["train_step_ms_p50"]
    b, nb = base["train_step_ms_p50"]
    print("train_step_ms_p50: vgg19_scnn_4x4 %.1f ms (%d runs) / "
          "vgg19_baseline %.1f ms (%d runs) = %.2fx (goal <= 1.15x)"
          % (s, ns, b, nb, s / b))
    for key in ("train_peak_heap_mb", "eval_peak_heap_mb",
                "planned_device_mb"):
        print("%-19s split %.3f MB, unsplit %.3f MB%s"
              % (key, split[key][0], base[key][0],
                 " (predicted by the HMMS plan)"
                 if key == "planned_device_mb" else " (measured)"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
