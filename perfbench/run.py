"""rtlab benchmark: four exact workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, one table

NAME is thresholds-grid, lp-certify, census-scan or oracle-crosscheck (see
perfbench/README.md for why each exists and what it should move).  A pass
runs every operation of the workload once, single-process, in a fresh
interpreter (perfbench/worker.py), so nothing the program caches in memory
carries over from one pass to the next.  A run makes as many passes as
fit best in S seconds, judged from the first pass (at least two).
adj_wall_s (the pass time adjusted for the machine's speed, see
worker.run_pass), wall_s and peak_rss_mb are medians over passes; setup_s
is the median time from a fresh interpreter to ready (imports plus input
generation) over every worker of the run, each scaled to the nominal speed
by the probe the worker runs right after set-up (setup_raw_s is unscaled).
Each op's latency is its median over passes; the run prints the median and
tail of those (op_p50_ms, op_tail_ms) and the budget-exit ratio
(fail_ratio), which the traced run reports as metrics.

With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics; with --trace 1 one untraced and one traced pass run, and the line
holds the per-layer metrics of the traced pass plus the tracing overhead.
Every result is checked against perfbench/reference.json; the exit code is
1 when a result is wrong and 2 when the program or the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import checks  # noqa: E402  (perfbench/ is the script directory)
import workloads  # noqa: E402

SETUP_WORKERS = 3       # set-up-only workers per run, besides one per pass
MIN_PASSES = 2          # passes per untraced run, so that each median has a partner
TAIL_ABOVE = 10         # samples the tail percentile must leave above it
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, mode: str) -> dict:
    """Run one worker; return its document plus the set-up time measured,
    as (raw, scaled to the nominal speed)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        rest, _ = proc.communicate()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker {mode} for {workload} exited with code {proc.returncode}")
    doc = json.loads(rest)
    doc["setup"] = (setup_s, setup_s * doc["speed_scale"])
    return doc


def tail_index(n: int) -> int:
    """Index, in n sorted samples, of the highest percentile with TAIL_ABOVE above it."""
    return max(0, n - TAIL_ABOVE - 1)


def check_pass(workload, doc, reference):
    outcomes = checks.check_records(workload, doc["records"], reference)
    counts = {key: 0 for key in ("ok", "budget", "unverified", "failed", "wrong")}
    for _, outcome, _ in outcomes:
        counts[outcome] += 1
    problems = [f"{op_id}: {outcome}: {detail}" for op_id, outcome, detail in outcomes
                if outcome in ("wrong", "failed")]
    return counts, problems


def run_workload(workload: str, seed: int, seconds: int, trace: bool, reference) -> dict:
    setups = [spawn(workload, seed, "setup")["setup"] for _ in range(SETUP_WORKERS)]
    traced = None
    if trace:
        passes = [spawn(workload, seed, "run")]
        traced = spawn(workload, seed, "trace")
    else:
        start = perf_counter()
        passes = [spawn(workload, seed, "run")]
        count = max(MIN_PASSES, round(seconds / (perf_counter() - start)))
        passes += [spawn(workload, seed, "run") for _ in range(count - 1)]
    setups += [p["setup"] for p in passes]
    return summarize(workload, passes, setups, reference, traced)


def summarize(workload: str, passes, setups, reference, traced=None) -> dict:
    """Check every pass and reduce the untraced passes to the reported metrics.

    Each op's latency is the median of its samples over the passes;
    op_p50_ms and op_tail_ms are quantiles of those per-op latencies.
    """
    totals = {key: 0 for key in ("ok", "budget", "unverified", "failed", "wrong")}
    problems = []
    for doc in passes + ([traced] if traced else []):
        counts, found = check_pass(workload, doc, reference)
        for key, val in counts.items():
            totals[key] += val
        problems += found
    if traced:
        plain = {rec[0]: rec[2:] for rec in passes[0]["records"]}
        differ = [rec[0] for rec in traced["records"] if plain.get(rec[0]) != rec[2:]]
        if differ or len(plain) != len(traced["records"]):
            totals["wrong"] += len(differ) or 1
            problems.append(f"traced and untraced results differ: {differ[:5]}")

    samples = {}
    for doc in passes:
        for rec in doc["records"]:
            samples.setdefault(rec[0], []).append(rec[1])
    op_latency = sorted(statistics.median(lat) for lat in samples.values())
    tail_at = tail_index(len(op_latency))
    budget_exits = sum(rec[2] == "budget" for doc in passes for rec in doc["records"])
    pass_ops = sum(len(doc["records"]) for doc in passes)
    result = {
        "workload": workload,
        "passes": len(passes),
        "ops_per_pass": len(op_latency),
        "attempted": sum(totals.values()),
        "outcomes": totals,
        "budget_exits": budget_exits,
        "pass_ops": pass_ops,
        "fail_ratio": budget_exits / pass_ops,
        "problems": problems,
        "tail_percentile": 100.0 * (tail_at + 1) / len(op_latency),
        "wall_s": statistics.median(doc["wall_s"] for doc in passes),
        "setup_raw_s": statistics.median(raw for raw, _ in setups),
        "end_to_end": {
            "adj_wall_s": statistics.median(doc["adj_wall_s"] for doc in passes),
            "setup_s": statistics.median(adj for _, adj in setups),
            "peak_rss_mb": statistics.median(doc["peak_rss_mb"] for doc in passes),
        },
        "op_p50_ms": 1000 * statistics.median(op_latency),
        "op_tail_ms": 1000 * op_latency[tail_at],
        "pass_docs": passes,
    }
    if traced:
        layers = dict(traced["layers"])
        # speed-adjusted, so that drift between the two passes is not read
        # as tracing overhead
        untraced_wall = passes[0]["adj_wall_s"]
        for key in ("fail_ratio", "op_p50_ms", "op_tail_ms"):
            layers[key] = result[key]
        layers["trace.wall_s"] = traced["adj_wall_s"]
        layers["trace.untraced_wall_s"] = untraced_wall
        layers["trace.overhead_s"] = traced["adj_wall_s"] - untraced_wall
        result["per_layer"] = layers
    return result


def summary_lines(res: dict, units: dict) -> list[str]:
    t = res["outcomes"]
    lines = [f"== {res['workload']}: {res['passes']} untraced pass(es) x "
             f"{res['ops_per_pass']} ops, {res['attempted']} op results checked"]
    lines += [f"  {name:<12} {value:>12.4f} {units[name]}"
              for name, value in res["end_to_end"].items()]
    lines.append(f"  wall_s       {res['wall_s']:>12.4f} s, not adjusted for machine speed")
    lines.append(f"  setup_raw_s  {res['setup_raw_s']:>12.4f} s, not adjusted for machine speed")
    lines.append(f"  op_p50_ms    {res['op_p50_ms']:>12.4f} ms")
    lines.append(f"  op_tail_ms   {res['op_tail_ms']:>12.4f} ms at p{res['tail_percentile']:.2f} "
                 f"({TAIL_ABOVE} of {res['ops_per_pass']} ops above it)")
    lines.append(f"  fail_ratio   {res['budget_exits']}/{res['pass_ops']} = "
                 f"{res['fail_ratio']:.4f} budget exits (untraced passes)")
    lines.append(f"  outcomes     ok {t['ok']}, budget exit as at the seed {t['budget']}, "
                 f"failed {t['failed']}, unverified {t['unverified']}, wrong {t['wrong']}")
    lines += [f"  PROBLEM {problem}" for problem in res["problems"][:20]]
    lines += [f"  {name:<36} {value:.6g} {units[name]}"
              for name, value in res.get("per_layer", {}).items()]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="rtlab benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still stops its worker (spawn's finally clause)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "rtlab" / "__init__.py").is_file():
        print(f"error: no rtlab source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = []
    metrics = {}
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace), reference)
            print("\n".join(summary_lines(res, units)), flush=True)
            results.append(res)
            prefix = "" if len(names) == 1 else name + "."
            for metric in spec[key]:
                if metric["name"] not in res[key]:
                    raise BenchError(f"metric {metric['name']} was not measured")
                metrics[prefix + metric["name"]] = {"value": res[key][metric["name"]],
                                                    "unit": metric["unit"]}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    correct = all(res["outcomes"]["wrong"] == 0 for res in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(res["attempted"] for res in results),
        "failed": sum(res["outcomes"]["failed"] for res in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
