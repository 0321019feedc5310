"""Repeat the benchmark over seeds and summarise its spread.

Usage, from the root of a checkout::

    python3 e2ebench/steadiness.py --seeds 1-10 \\
        --out e2ebench/results/set-a.json [--workload NAME ...]

Runs ``run.py --trace 0`` once per (workload, seed), one run at a time,
and writes, per workload and end-to-end metric, the ten values, their
median, and their spread: the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median.  ``--compare A.json B.json`` prints how far the medians of two
such sets are apart against each metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text: str) -> List[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _spec() -> Dict:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def summarise(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values),
            "iqr_share": (q3 - q1) / statistics.median(values)}


def run_set(workloads: List[str], seeds: List[int], seconds: float) -> Dict:
    out: Dict = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise SystemExit(f"{workload} seed {seed} failed:\n"
                                 f"{proc.stderr[-3000:]}")
            result = json.loads(lines[-1])
            record = json.loads(lines[-2].partition("record: ")[2])
            runs.append({"seed": seed, "result": result,
                         "probe_ms": [record["host_probe_before_ms"],
                                      record["host_probe_after_ms"]],
                         "steal_s": record["steal_s"],
                         "host_factor": record["host_factor"],
                         "raw_refs_per_s": record["raw_refs_per_s"],
                         "raw_observe_p50_ms":
                             record["raw_observe_p50_ms"]})
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.4g}"
                             for k, v in result["metrics"].items()),
                  flush=True)
        metrics = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            metrics[name] = {"values": values, **summarise(values)}
        out["workloads"][workload] = {"metrics": metrics, "runs": runs}
    return out


def compare(a: Dict, b: Dict) -> int:
    bounds = {m["name"]: m for m in _spec()["end_to_end"]}
    worst = 0
    for workload, data in a["workloads"].items():
        if workload not in b["workloads"]:
            continue
        for name, ma in data["metrics"].items():
            mb = b["workloads"][workload]["metrics"][name]
            bound = bounds[name]["bound"]
            change = (mb["median"] - ma["median"]) / ma["median"]
            worse = -change if bounds[name]["better"] == "higher" else change
            spread = max(ma["iqr_share"], mb["iqr_share"])
            flag = ""
            if worse > bound:
                flag = "  MEDIAN DRIFT > bound"
                worst = 1
            elif name != "setup_s" and spread > bound:
                flag = "  SPREAD > bound"
                worst = 1
            elif name != "setup_s" and spread > bound / 3:
                flag = "  spread > bound/3"
            print(f"{workload:20s} {name:16s} A={ma['median']:.4g} "
                  f"B={mb['median']:.4g} change={change:+.2%} "
                  f"iqr A={ma['iqr_share']:.2%} B={mb['iqr_share']:.2%} "
                  f"bound={bound:.0%}{flag}")
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path, encoding="utf-8") as fh:
                sets.append(json.load(fh))
        return compare(*sets)
    spec = _spec()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    result = run_set(workloads, _seeds(args.seeds), seconds)
    for workload, data in result["workloads"].items():
        for name, m in data["metrics"].items():
            print(f"{workload:20s} {name:16s} median={m['median']:.4g} "
                  f"iqr={m['iqr_share']:.2%}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
