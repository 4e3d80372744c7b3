"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload weaver-seq --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` measures untraced and traced repetitions side by side and
reports the per-layer metrics of the fastest traced one, with the
tracing overhead.  The last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``); the lines before
it give each metric with its unit, estimator and sample count, and the
host context.  A full record, spans included, is written to
``.perfbench_out/``.  See NOTES.md for the workloads and estimators.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("weaver-seq", "weaver-mp2", "rubik-mp2", "serve-mix")


def reference_loop_ms() -> float:
    """A fixed pure-Python loop, best of three.  Printed before and
    after a run to diagnose a drifting host; nothing is normalised by it."""
    best = float("inf")
    for _ in range(3):
        started = perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        best = min(best, perf_counter() - started)
    return best * 1e3


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e_units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    units = ({m["name"]: m["unit"] for m in declared["per_layer"]}
             if args.trace else e2e_units)

    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "nproc": os.cpu_count(), "cpu": cpu_model(),
        "python": platform.python_version(), "loadavg_before": os.getloadavg(),
        "ref_loop_ms_before": reference_loop_ms(),
    }
    if args.workload == "serve-mix":
        import servemix
        result = servemix.measure(args.seconds, bool(args.trace), args.seed)
    else:
        import batch
        result = batch.measure(args.workload, args.seconds, bool(args.trace))
    context["ref_loop_ms_after"] = reference_loop_ms()
    context["loadavg_after"] = os.getloadavg()

    values = result["layer"] if args.trace else result["metrics"]
    if set(values) != set(units):
        print("perfbench: metrics disagree with BENCHMARK.json: "
              f"{sorted(set(values) ^ set(units))}", file=sys.stderr)
        return 1
    attempted, failed = result["attempted"], result["failed"]
    error_rate = failed / attempted

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("  host: " + " ".join(f"{k}={context[k]}" for k in (
        "nproc", "python", "loadavg_before", "loadavg_after",
        "ref_loop_ms_before", "ref_loop_ms_after")) + f" cpu={context['cpu']!r}")
    notes = result["notes"]
    for name, value in result["metrics"].items():
        print(f"  {name:<26} {value:12.6g} {e2e_units[name]:<5} ({notes[name]})")
    print(f"  {'error_rate':<26} {error_rate:12.6g} ratio ({failed} failed / "
          f"{attempted} attempted)")
    for sample in result.get("errors", []):
        print(f"  error: {sample}")
    if args.trace:
        for name, value in values.items():
            print(f"  {name:<26} {value:12.6g} {units[name]}")
        print("  (per-layer values come from the fastest traced repetition)")

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    record = dict(context, attempted=attempted, failed=failed,
                  error_rate=error_rate, metrics=result["metrics"], notes=notes,
                  layer=result.get("layer"),
                  spans_fields=["id", "name", "start", "end", "parent", "tag"],
                  spans=result.get("spans"))
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, default=str))
    print(f"  record: {path.relative_to(ROOT)}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
