"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workloads cli_large batch_small --seeds 10

Runs run.py once per (workload, seed), one after another and for
BENCHMARK.json's run_seconds, and prints for each metric the median, the
quartiles (statistics.quantiles, n=4), the spread (q3 - q1) / median and,
for end-to-end metrics, the bound from BENCHMARK.json.  Seeds run from 1 to
--seeds.  The summary is written to .perfbench_out/spread-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10, help="number of seeds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seeds < 2:
        parser.error("--seeds must be at least 2 to give quartiles")

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {"seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in range(1, args.seeds + 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            lines = done.stdout.strip().splitlines()
            env = json.loads(lines[0])["env"]
            summary.setdefault("env", {k: v for k, v in env.items()
                                       if k not in ("workload", "seed")})
            result = json.loads(lines[-1])
            result["seed"] = seed
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            metrics[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bounds.get(name), "values": values}
            bound = bounds.get(name)
            flag = "" if bound is None else (" ok" if spread < bound / 3 else " WIDE")
            print(f"  {name}: median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.4f}" + ("" if bound is None else f"  bound {bound}") + flag)
        summary["workloads"][workload] = {
            "all_correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "seeds": [r["seed"] for r in runs],
            "metrics": metrics,
        }
    out = ROOT / ".perfbench_out" / f"spread-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
