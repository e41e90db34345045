"""Steadiness report: run each workload repeatedly, one seed per run.

Usage (from the repository root)::

    python3 hpbench/steady.py --runs 10 [--workload NAME ...] [--out FILE]

Runs ``hpbench/run.py`` once per seed (1, 2, ... ``--runs``) for every
workload, one run at a time, for the ``run_seconds`` ``BENCHMARK.json``
fixes, and
prints each metric's median, quartiles and spread, the distance between
the quartiles as a share of the median, next to the bound
``BENCHMARK.json`` fixes for it.  ``--out`` writes every run's result
line and the summary as JSON.  ``--compare FILE`` reads such a report
(``hpbench/baseline.json``, say) and prints, per workload and metric, how
far this report's median moved from it, flagging a move the wrong way by
more than the metric's bound.  Exits non-zero if any run fails, reports a
wrong result, or is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--compare")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("quartiles need at least two runs")
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    seconds = spec["run_seconds"]
    report: dict = {"run_seconds": seconds, "trace": args.trace,
                    "workloads": {}}
    ok = True
    for workload in args.workload or names:
        results = []
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [*spec["command"], "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            result["seed"] = seed
            results.append(result)
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{m['name']}={result['metrics'][m['name']]['value']:.5g}"
                for m in metrics), flush=True)
        summary = {}
        if len(results) >= 2:
            print(f"\n{workload}: {len(results)} runs"
                  f"{'':>14}median          q1          q3  spread  bound")
            for m in metrics:
                values = [r["metrics"][m["name"]]["value"] for r in results]
                s = summarise(values)
                summary[m["name"]] = s
                bound = m.get("bound")
                flag = "" if bound is None else (
                    f"  {bound:.2f}" + ("" if s["spread"] < bound / 3
                                        else "  <- over a third"))
                print(f"  {m['name']:<28}{s['median']:>12.5g}"
                      f"{s['q1']:>12.5g}{s['q3']:>12.5g}"
                      f"{s['spread']:>8.3f}{flag}")
            print()
        report["workloads"][workload] = {"runs": results,
                                         "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    if args.compare:
        base = json.loads(Path(args.compare).read_text())
        ok = compare(base, report, metrics) and ok
    return 0 if ok else 1


def compare(base: dict, report: dict, metrics: list) -> bool:
    """Print each median's move from ``base``; False if any metric with
    a bound got worse by more than it."""
    ok = True
    for workload, now in report["workloads"].items():
        before = base["workloads"].get(workload, {}).get("summary", {})
        print(f"{workload}: median in the compared report, then now")
        for m in metrics:
            name = m["name"]
            if name not in before or name not in now["summary"]:
                continue
            old, new = before[name]["median"], now["summary"][name]["median"]
            change = (new - old) / old if old else 0.0
            worse = change if m["better"] == "lower" else -change
            bound = m.get("bound")
            flag = ("  REGRESSION" if bound is not None and worse > bound
                    else "")
            ok = ok and not flag
            print(f"  {name:<36}{old:>12.5g}{new:>12.5g}{change:>+9.1%}"
                  f"{flag}")
    return ok


if __name__ == "__main__":
    sys.exit(main())
