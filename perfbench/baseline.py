"""Record a set of benchmark results with the machine they came from.

Usage: python3 perfbench/baseline.py --label TEXT
       (from the repository root; about three minutes)

Runs every workload untraced and traced, at seed 0 and the run length of
BENCHMARK.json, and writes perfbench/baseline/seed.json
with the end-to-end and per-layer metrics, the CPU model and core count, and
the figures that reproduce the ROADMAP baseline: the thresholds rows at
k = 11 and k = 12, LOW certification at k = 8 (both summed from per-op
latencies, median over passes) and the nodes of the K6 census at k = 4, s = 4.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 0


def cpu_model() -> str:
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def summed_seconds(result, prefix: str) -> float:
    """Median over passes of the total latency of the ops whose id starts with prefix."""
    return statistics.median(sum(rec[1] for rec in doc["records"] if rec[0].startswith(prefix))
                             for doc in result["pass_docs"])


def k6_census():
    from rtlab.census import build_census
    from rtlab.graphs import complete
    t0 = perf_counter()
    poly = build_census(complete(6), 4, 4)
    return {"nodes": poly.nodes_visited, "seconds": perf_counter() - t0}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--label", required=True, help="what was measured, e.g. a commit")
    args = ap.parse_args()
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]

    doc = {
        "label": args.label,
        "machine": {"cpu_model": cpu_model(), "nproc": os.cpu_count(),
                    "python": platform.python_version(), "system": platform.system()},
        "seed": SEED,
        "seconds": seconds,
        "workloads": {},
    }
    untraced = {}
    for name in workloads.NAMES:
        res = run.run_workload(name, SEED, seconds, False, reference)
        traced = run.run_workload(name, SEED, seconds, True, reference)
        if res["outcomes"]["wrong"] or traced["outcomes"]["wrong"]:
            raise SystemExit(f"{name}: wrong results: {res['problems'] + traced['problems']}")
        untraced[name] = res
        doc["workloads"][name] = {
            "passes": res["passes"],
            "ops_per_pass": res["ops_per_pass"],
            "end_to_end": res["end_to_end"],
            "op_p50_ms": res["op_p50_ms"],
            "op_tail_ms": res["op_tail_ms"],
            "op_tail_percentile": res["tail_percentile"],
            "fail_ratio": f"{res['budget_exits']}/{res['pass_ops']}",
            "outcomes": res["outcomes"],
            "per_layer": traced["per_layer"],
        }
        print(f"{name}: {res['end_to_end']}", flush=True)
    k6 = k6_census()
    doc["roadmap_baseline"] = {
        "thresholds_row_k11_s": summed_seconds(untraced["thresholds-grid"], "t:11:"),
        "thresholds_row_k12_s": summed_seconds(untraced["thresholds-grid"], "t:12:"),
        "lp_low_k8_s": summed_seconds(untraced["lp-certify"], "lp:low:8:"),
        "k6_census_k4_s4_nodes": k6["nodes"],
        "k6_census_k4_s4_s": k6["seconds"],
    }
    print(doc["roadmap_baseline"])
    out = HERE / "baseline" / "seed.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
