"""One pass of one workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py --workload NAME --seed N --mode setup|run|trace

The worker imports rtlab from the checkout's ``src`` tree, builds the
operation list, prints ``READY`` (the parent times interpreter start to
that line as set-up), measures the machine's speed with the probe, then runs every operation once (modes run and trace)
and prints one JSON document (mode setup: the speed only) with per-operation latencies, outcomes, the
fields the correctness checks need, and the pass time adjusted for the
machine's speed (see ``run_pass``).  Mode trace wraps rtlab's public
functions in spans first, adds the per-layer metrics and writes the spans
to perfbench/out/spans-NAME.tsv.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (perfbench/ is the script directory)

#: JSON result fields each CLI workload keeps for its checks
FIELDS = {
    "thresholds": ("r0", "r1", "regime", "base_factors"),
    "lp": ("feasible", "optimal", "claimed_value_factors", "vertex_max_factors",
           "case_bases_ordering"),
    "count": ("value",),
}


def _import_program(workload: str):
    if workload == "oracle-crosscheck":
        from rtlab import census
        program = census
    else:
        from rtlab import cli
        program = cli
    src = (ROOT / "src").resolve()
    if src not in Path(program.__file__).resolve().parents:
        raise SystemExit(f"rtlab was imported from {program.__file__}, not from {src}")
    return program


#: op time between two speed probes
PROBE_EVERY_S = 0.2
#: probes whose median gives the speed right after set-up
SETUP_PROBES = 5
#: probe time at the speed adj_wall_s is expressed in (about the median on a
#: 2-CPU Intel Xeon VM); a constant, so adjusted times of two commits compare
PROBE_NOMINAL_S = 0.0025


def probe() -> float:
    """Seconds of a fixed task of plain Python: bytecode, a dict, big integers.

    It uses nothing from rtlab, so its time follows the machine's speed alone.
    """
    t0 = time.perf_counter()
    x, table = 0, {}
    for i in range(6000):
        x = (x * 31 + i) % 1000003
        table[i & 1023] = x
    big = pow(3, 12001) * pow(7, 8011)
    for _ in range(8):
        big = big * 12345678901 // 987654
    sorted(table.values())
    return time.perf_counter() - t0


def _run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _run_oracle(census, g6, k, s):
    g = census.parse_graph6(g6)
    poly = census.build_census(g, k, s, t_max=max(1, min(g.m, 4)))
    return [[str(census.evaluate(poly, r).value), str(census.count_brute(g, k, s, r).value)]
            for r in workloads.ORACLE_R]


def _cli_outcome(argv, rc, text):
    if rc == 3:
        return "budget", None
    if rc != 0:
        return f"exit {rc}", None
    try:
        result = json.loads(text)["result"]
    except (ValueError, KeyError, TypeError):
        return "ok", {}    # no fields: every check against the reference fails
    return "ok", {key: result[key] for key in FIELDS[argv[0]] if key in result}


def run_pass(program, ops, tracer=None):
    """Run every op once; return (records, wall seconds, adjusted seconds,
    stdout bytes).

    Wall seconds is the sum of the op latencies: the ops run back to back.
    The speed of a shared machine drifts by tens of percent over minutes, so
    a probe of fixed work runs before the first op and after each
    PROBE_EVERY_S of op time.  The adjusted time scales each such segment by
    PROBE_NOMINAL_S over the mean of the probes around it: the pass time at
    the speed where the probe takes PROBE_NOMINAL_S.
    """
    from rtlab.errors import ResourceLimitError

    is_cli = ops[0][1] == "cli"
    raw = []
    prev_probe = probe()
    segment = adjusted = 0.0
    for i, (op_id, _, payload) in enumerate(ops):
        if tracer is not None:
            tracer.op = op_id
        t0 = time.perf_counter()
        try:
            if is_cli:
                out = _run_cli(program, payload)
            else:
                out = _run_oracle(program, *payload)
            status = None
        except ResourceLimitError:
            out, status = None, "budget"
        except Exception as exc:   # recorded as a failed op; the pass goes on
            out, status = None, f"error {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        raw.append((op_id, t1 - t0, out, status))
        segment += t1 - t0
        if segment >= PROBE_EVERY_S or i == len(ops) - 1:
            next_probe = probe()
            adjusted += segment * 2 * PROBE_NOMINAL_S / (prev_probe + next_probe)
            prev_probe, segment = next_probe, 0.0

    records = []
    stdout_bytes = 0
    for (op_id, latency, out, status), (_, _, payload) in zip(raw, ops):
        if status is not None:
            records.append([op_id, latency, status, None, ""])
            continue
        if is_cli:
            rc, text = out
            stdout_bytes += len(text.encode())
            status, fields = _cli_outcome(payload, rc, text)
            digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        else:
            status, fields = "ok", out
            digest = hashlib.sha256(repr(out).encode()).hexdigest()[:16]
        records.append([op_id, latency, status, fields, digest])
    return records, sum(rec[1] for rec in raw), adjusted, stdout_bytes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    args = ap.parse_args(argv)

    program = _import_program(args.workload)
    ops = workloads.make_ops(args.workload, args.seed)
    print("READY", flush=True)
    # scales the set-up time the parent measured to the nominal speed
    speed_scale = PROBE_NOMINAL_S / statistics.median(probe() for _ in range(SETUP_PROBES))
    if args.mode == "setup":
        print(json.dumps({"speed_scale": speed_scale}))
        return 0

    tracer = None
    if args.mode == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    records, wall, adjusted, stdout_bytes = run_pass(program, ops, tracer)
    doc = {
        "records": records,
        "wall_s": wall,
        "adj_wall_s": adjusted,
        "speed_scale": speed_scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        import tracing
        doc["layers"] = tracing.layer_metrics(tracer)
        doc["layers"]["cli.stdout_bytes"] = stdout_bytes
        doc["layers"]["trace.spans"] = len(tracer.spans)
        out_dir = Path(__file__).resolve().parent / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}.tsv")
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
