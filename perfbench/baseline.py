"""Measure a baseline: each workload on several seeds, untraced, plus one traced run.

    python3 perfbench/baseline.py --seeds 1-10 --seconds 25 --out perfbench/baseline.json

For every end-to-end metric it records the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread (the
distance between the quartiles over the median). The traced run of the
first seed gives the per-layer metrics, each layer's share of the summed
self times, and the tracing overhead with both of its bases.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

from run import LAYER_SHARES, WORKLOADS, invoke


def machine() -> dict:
    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.read_text().splitlines()
                      if ln.startswith("model name")), "")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_implementation() + " " + platform.python_version(),
        "PSI_THREADS": "unset (run.py removes it)",
    }


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    out = {"machine": machine(), "run_seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for name in args.workload or list(WORKLOADS):
        runs = [invoke(name, seed, args.seconds, 0) for seed in args.seeds]
        info, traced = invoke(name, args.seeds[0], args.seconds, 1)
        metrics = {m: {"unit": runs[0][1]["metrics"][m]["unit"],
                       **summarize([r[1]["metrics"][m]["value"] for r in runs])}
                   for m in runs[0][1]["metrics"]}
        layer = {m: v["value"] for m, v in traced["metrics"].items()}
        total = sum(layer[m] for m in LAYER_SHARES)
        untraced = runs[0][1]["metrics"]["items_per_s"]["value"]
        out["workloads"][name] = {
            "correct": all(r[1]["correct"] for r in runs) and traced["correct"],
            "attempted": [r[1]["attempted"] for r in runs],
            "failed": sum(r[1]["failed"] for r in runs),
            "tail_pct": [round(r[0]["tail_pct"], 2) for r in runs],
            "end_to_end": metrics,
            "per_layer": layer,
            "layer_shares": {m: layer[m] / total for m in LAYER_SHARES if layer[m]},
            "tracing_overhead": {
                "seed": args.seeds[0],
                "traced_items_per_s": layer["trace.items_per_s"],
                "untraced_items_per_s": untraced,
                "ratio": layer["trace.items_per_s"] / untraced,
            },
            "census_counts_equal": runs[0][0]["census_counts"] == info["census_counts"],
        }
        spreads = {m: round(v["spread"], 4) for m, v in metrics.items()}
        print(f"{name}: spreads {spreads}", file=sys.stderr)
    text = json.dumps(out, indent=1, sort_keys=True)
    if args.out:
        args.out.write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
