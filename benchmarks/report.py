"""Run the benchmark over several seeds and summarise every metric.

Run from the root of a source checkout:

    python3 benchmarks/report.py --seeds 1-10 --trace 0
    python3 benchmarks/report.py --seeds 1-10 --trace 0 --baseline benchmarks/baseline.json

Every run is a fresh `run.py` process with BENCHMARK.json's run_seconds,
so peak memory is per workload. For each workload and metric it prints
the median over the seeds, the quartiles (`statistics.quantiles(n=4)`),
the spread (quartile distance over median), the metric's bound, and
failed_frac = failed ops / attempted ops. With --baseline it adds each
median's change against that file. With --out it stores the summary in a
JSON file under the key "trace0" or "trace1", keeping the file's other keys.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["env"] = json.loads(lines[-2])["env"]
    return result


def summarise(results: list[dict]) -> dict:
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        metrics[name] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else None, "values": values}
    return {"attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
            "metrics": metrics}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--baseline", type=Path, help="summary file to compare medians against")
    p.add_argument("--out", type=Path, help="JSON file to store the summary in")
    args = p.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    key = f"trace{args.trace}"
    base = json.loads(args.baseline.read_text())[key]["workloads"] if args.baseline else {}
    seeds = parse_seeds(args.seeds)
    summary = {"seeds": seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        results = [run_once(workload, s, spec["run_seconds"], args.trace) for s in seeds]
        summary.setdefault("env", results[0]["env"])
        s = summary["workloads"][workload] = summarise(results)
        print(f"{workload}: {s['attempted']} ops attempted, failed_frac {s['failed_frac']:.4g}")
        for name, m in s["metrics"].items():
            spread = "-" if m["spread"] is None else f"{m['spread']:.3f}"
            line = (f"  {name:32s} {m['unit']:6s} median {m['median']:<12.6g} "
                    f"q1 {m['q1']:<12.6g} q3 {m['q3']:<12.6g} spread {spread:6s} "
                    f"bound {bounds.get(name) or '-'}")
            old = base.get(workload, {}).get("metrics", {}).get(name)
            if old and old["median"]:
                line += f"  vs baseline {m['median'] / old['median'] - 1.0:+.3f}"
            print(line, flush=True)
    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        doc[key] = summary
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
