"""The lmss benchmark.

One run measures one workload, closed loop, one client, in this process:

    python3 perfbench/run.py --workload psi_gnp --seed 1 --seconds 25 --trace 0

The last stdout line is the result: ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a separate traced run. The
line before it, ``info {...}``, gives the item and input counts, which
percentile ``item_tail_s`` is, raw timings, and the census work counts.

Every end-to-end and per-layer metric of every workload, by name and unit,
with the correctness gate and the tracing overhead:

    python3 perfbench/run.py --report --seed 1 --seconds 25

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = HERE / ".state"
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, load_reference  # noqa: E402

SETUP_REPEATS = 11
TAIL_BEYOND = 10  # item_tail_s has at least this many inputs above it
CALIBRATION_NOMINAL_S = 0.0008

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_s": "s",
    "item_tail_s": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# Self times are seconds per item, over every item of the traced run.
PER_ITEM_TIMES = (
    "cli.self_s", "stable.psi_s", "stable.filter_s", "stable.stream_s", "stable.alpha_s",
    "greedoid.accessibility_s", "greedoid.exchange_s", "ops.build_s",
    "theorems.instance_s", "theorems.verify_self_s", "graph6.encode_s", "graph6.decode_s",
    "bench.item_self_s", "trace.bookkeeping_s",
)
# Work counts are totals over the census items, so they repeat exactly.
CENSUS_COUNTS = (
    "stable.psi_calls", "stable.stable_sets", "stable.distinct_hoods", "stable.members",
    "stable.alpha_calls", "greedoid.checks", "greedoid.family_members",
    "greedoid.exchange_pair_bound", "ops.composite_vertices", "theorems.reports",
    "graph6.bytes", "cli.output_bytes",
)
PER_LAYER_UNITS = {
    **{name: "s/item" for name in PER_ITEM_TIMES},
    "graph.gen_s": "s",
    "trace.items_per_s": "1/s",
    **{name: "count" for name in CENSUS_COUNTS},
    "stable.hood_reuse_ratio": "ratio",
    "stable.accept_ratio": "ratio",
    "theorems.holds_ratio": "ratio",
}
# Self times that partition an item (stable.psi_s is inclusive; bookkeeping is overhead).
LAYER_SHARES = tuple(n for n in PER_ITEM_TIMES if n not in ("stable.psi_s", "trace.bookkeeping_s"))

_now = time.perf_counter


class BenchError(Exception):
    """The benchmark cannot run or its work counts drifted."""


def import_program():
    src = ROOT / "src"
    if not (src / "lmss" / "cli.py").is_file():
        raise BenchError(f"no lmss sources under {src}")
    sys.path.insert(0, str(src))
    import lmss
    import lmss.cli  # noqa: F401  (binds lmss.cli for the workloads)

    if Path(lmss.__file__).resolve().parent != (src / "lmss").resolve():
        raise BenchError(f"imported lmss from {lmss.__file__}, not from {src}")
    return lmss


def _calibration_loop() -> int:
    m, acc, table = 0x5DEECE66D, 0, {}
    for i in range(1500):
        m = (m * 0x9E3779B1 + i) & 0xFFFFFFFFFFFF
        acc += (m & -m).bit_length()
        table[m & 1023] = acc
    return acc


def machine_scale() -> float:
    """Rescaling factor from this moment's machine speed to the nominal one.

    On a shared machine the speed can drift by tens of percent within a
    minute, which no run length averages away. Every timing is multiplied
    by the nominal time of a fixed calibration loop over the mean of its
    times (each the best of three) just before and just after the timed
    work, so reported seconds are seconds at the speed where that loop
    takes CALIBRATION_NOMINAL_S.
    """
    best = float("inf")
    for _ in range(3):
        t0 = _now()
        _calibration_loop()
        best = min(best, _now() - t0)
    return CALIBRATION_NOMINAL_S / best


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lmss").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class Ledger:
    """Per-item work counts, kept across runs of the same program sources.

    Every run compares the counts it takes against those stored for the
    same input by earlier runs, traced or untraced, and by repeats within
    the run; any difference is a drift and fails the run.
    """

    def __init__(self, workload: str):
        self.path = STATE / f"counts-{workload}-{source_hash()}.json"
        self.entries = json.loads(self.path.read_text()) if self.path.is_file() else {}
        self.drift: list[str] = []

    def check(self, key: str, counts: dict) -> None:
        counts = {k: v for k, v in sorted(counts.items())}
        seen = self.entries.setdefault(key, counts)
        if seen != counts:
            diff = {k: (seen.get(k), counts.get(k)) for k in seen.keys() | counts.keys()
                    if seen.get(k) != counts.get(k)}
            self.drift.append(f"{key[:60]}: {diff}")

    def save(self) -> None:
        STATE.mkdir(exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.entries, sort_keys=True))
        os.replace(tmp, self.path)


def run_item(lmss, wl, item, index, tracer):
    """Execute one item; returns (seconds, result, error, counts)."""
    if tracer is not None:
        tracer.begin_item(index)
    t0 = _now()
    try:
        result, error = wl.execute(lmss, item), None
    except Exception as exc:  # a crashing item is a failed item, not a crashed run
        result, error = None, f"raised {exc!r}"
    dt = _now() - t0
    counts = None
    if tracer is not None:
        dt, counts = tracer.end_item()
        if wl.cli and result is not None:
            counts["cli.output_bytes"] += len(result[1])
    return dt, result, error, counts


def census_metrics(totals: dict) -> dict:
    sets = totals.get("stable.psi_stream_sets", 0)
    reports = totals.get("theorems.reports", 0)
    out = {name: totals.get(name, 0) for name in CENSUS_COUNTS}
    out["stable.hood_reuse_ratio"] = 1 - totals.get("stable.distinct_hoods", 0) / sets if sets else 0.0
    out["stable.accept_ratio"] = totals.get("stable.members", 0) / sets if sets else 0.0
    out["theorems.holds_ratio"] = totals.get("theorems.holds", 0) / reports if reports else 0.0
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """Measure one workload and print its result; exit code 1 if work counts drifted."""
    lmss = import_program()
    os.environ.pop("PSI_THREADS", None)  # sweeps take the default one-worker path
    wl = WORKLOADS[workload]
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install(lmss)

    setups, raw_setups = [], []
    before = machine_scale()
    for _ in range(SETUP_REPEATS):
        t0 = _now()
        reference = load_reference() if wl.cli else {}
        items = wl.items(lmss, seed)
        raw_setups.append(_now() - t0)
        after = machine_scale()
        setups.append(raw_setups[-1] * 2 / (1 / before + 1 / after))
        before = after
    gen_s = 0.0
    if tracer is not None:
        gen_s = tracer.seconds["graph.gen_s"] / sum(raw_setups) * statistics.mean(setups)
        tracer.reset()

    ledger = Ledger(workload)
    times: dict[str, list[float]] = {item.key: [] for item in items}
    raw_times, failures, census = [], [], []
    start = _now()
    deadline = start + seconds
    k = 0
    before = machine_scale()
    while k < len(items) or _now() < deadline:  # at least one whole pass
        item = items[k % len(items)]
        dt, result, error, counts = run_item(lmss, wl, item, k, tracer)
        after = machine_scale()
        scale = 2 / (1 / before + 1 / after)  # nominal over the mean calibration time
        before = after
        raw_times.append(dt)
        times[item.key].append(dt * scale)
        reason = error or wl.gate(item, result, reference)
        if reason:
            failures.append(f"item {k} ({item.key[:60]}): {reason}")
        if counts is not None:
            tracer.commit(scale)
            ledger.check(item.key, counts)
            if k < wl.census:
                census.append(counts)
        k += 1
    elapsed = _now() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer is None:
        # Untraced runs still re-derive the census counts, after timing ends.
        tracer = Tracer()
        tracer.install(lmss)
        for k in range(wl.census):
            census.append(run_item(lmss, wl, items[k], k, tracer)[3])
            ledger.check(items[k].key, census[-1])
        tracer.uninstall()
    else:
        tracer.uninstall()
        STATE.mkdir(exist_ok=True)
        tracer.write(STATE / f"spans-{workload}-seed{seed}.jsonl")
    ledger.save()

    n = len(raw_times)
    per_input = sorted(statistics.median(v) for v in times.values())
    totals: dict = {}
    for counts in census:
        for name, value in counts.items():
            totals[name] = totals.get(name, 0) + value
    info = {
        "workload": workload, "seed": seed, "trace": int(trace), "items": n,
        "inputs": len(per_input), "elapsed_s": elapsed,
        "tail_pct": 100 * (len(per_input) - TAIL_BEYOND) / len(per_input),
        "raw_items_per_s": n / sum(raw_times), "raw_item_p50_s": statistics.median(raw_times),
        "raw_setup_s": statistics.median(raw_setups),
        "census_items": wl.census, "census_counts": census_metrics(totals),
    }
    if trace:
        values = {name: tracer.scaled.get(name, 0.0) / n for name in PER_ITEM_TIMES}
        values["graph.gen_s"] = gen_s
        values["trace.items_per_s"] = len(per_input) / sum(per_input)
        values.update(census_metrics(totals))
        units = PER_LAYER_UNITS
    else:
        values = {
            "setup_s": statistics.median(setups),
            "items_per_s": len(per_input) / sum(per_input),
            "item_p50_s": statistics.median(per_input),
            "item_tail_s": per_input[-TAIL_BEYOND - 1],
            "ok_ratio": (n - len(failures)) / n,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    for line in failures[:5]:
        print(f"perfbench: failed {line}", file=sys.stderr)
    for line in ledger.drift[:5]:
        print(f"perfbench: work count drift on {line}", file=sys.stderr)
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not failures and not ledger.drift,
        "attempted": n,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 1 if ledger.drift else 0


# -- one command for everything ------------------------------------------------------

def invoke(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One run in a child process; returns its info line and its result."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise BenchError(f"{workload} --trace {trace} exited {proc.returncode}")
    return json.loads(lines[-2][len("info "):]), json.loads(lines[-1])


def report(workloads: list[str], seed: int, seconds: float) -> int:
    ok = True
    for workload in workloads:
        info0, plain = invoke(workload, seed, seconds, 0)
        info1, traced = invoke(workload, seed, seconds, 1)
        ok = ok and plain["correct"] and traced["correct"]
        if info0["census_counts"] != info1["census_counts"]:
            ok = False
            print(f"{workload}: census counts differ between untraced and traced runs")
        print(f"== {workload}  seed {seed}  correct={plain['correct'] and traced['correct']}"
              f"  attempted={plain['attempted']}/{traced['attempted']}"
              f"  failed={plain['failed']}/{traced['failed']}  (untraced/traced)")
        print(f"   item_tail_s is p{info0['tail_pct']:.1f} of {info0['inputs']} inputs")
        for name, m in {**plain["metrics"], **traced["metrics"]}.items():
            print(f"   {name:32s} {m['value']:>14.6g} {m['unit']}")
        base, tr = plain["metrics"]["items_per_s"]["value"], traced["metrics"]["trace.items_per_s"]["value"]
        print(f"   tracing overhead: traced/untraced items_per_s = {tr:.4g}/{base:.4g} = {tr / base:.3f}")
        layer_sum = sum(traced["metrics"][name]["value"] for name in LAYER_SHARES)
        print(f"   layer self times sum to {layer_sum:.4g} s/item; untraced item time "
              f"{1 / base:.4g} s (ratio {layer_sum * base:.3f})")
        shares = sorted(((traced["metrics"][name]["value"] / layer_sum, name)
                         for name in LAYER_SHARES), reverse=True)
        print("   shares: " + ", ".join(f"{name} {share:.1%}" for share, name in shares if share >= 0.005))
    print("correctness gate:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", action="store_true",
                    help="run every workload (or --workload) untraced and traced, print all metrics")
    args = ap.parse_args(argv)
    try:
        if args.report:
            chosen = [args.workload] if args.workload else list(WORKLOADS)
            return report(chosen, args.seed, args.seconds)
        if args.workload is None:
            ap.error("--workload is required without --report")
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
