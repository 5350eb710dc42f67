"""Byte-compare rtlab's stdout between two source trees.

Usage (from the repository root):

    python3 tools/diff_stdout.py [--drop-key KEY ...] OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are the ``src`` directories of two checkouts.  Every
``thresholds``, ``lp`` and ``count`` operation of the benchmark
(perfbench/workloads.py: thresholds-grid, lp-certify and census-scan), plus
the two census-scan scans run whole as ``scan ... --threads 2 --format json``,
``thresholds table --k 15..30 --format json``, every ``lp`` cell with
k <= 30 the benchmark leaves out (LOW k >= 9, MID_HIGH k >= 7),
``pairs --k 4..9 --s-min 3 --format json`` and
``findk0 --s S --k-max 30 --format json`` for S = 3..12, 4,944 ops in all,
runs through ``rtlab.cli.main`` once per tree, each tree in its own
interpreter.
The script prints the exit codes that changed and the operations whose
stdout differs where both trees exited with the same code, each with the
top-level keys of its JSON ``result`` and ``config`` that differ, and exits 1 when any stdout
differs or any exit code changed.  On stderr it prints each tree's total
seconds per command (``thresholds``, ``lp``, ``count``, ``scan``, ``pairs`` and
``findk0``), so one
run gives both the byte check and the before/after time.

Each ``--drop-key KEY`` removes a key before hashing, so outputs can be
compared apart from fields one tree adds, drops or changes on purpose: a
plain KEY is a top-level key of the JSON ``result``, and SECTION.KEY, such as
``config.node_budget``, a top-level key of another part of the document.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("thresholds-grid", "lp-certify", "census-scan")
K_MAX = 30      # the extra ops below cover thresholds and lp up to this k


SECTIONS = ("result", "config")   # the parts of a JSON document whose keys are named


def _without(obj: dict, drop: list[str]) -> dict:
    """The JSON document with the given keys removed."""
    for key in drop:
        section, _, name = key.rpartition(".")
        obj[section or "result"].pop(name, None)
    return obj


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _key_digests(obj: dict) -> dict:
    """{"result.KEY" or "config.KEY": sha256} over the top-level keys of both."""
    return {f"{name}.{key}": _digest(value)
            for name in SECTIONS for key, value in obj[name].items()}


def dump(src: str, drop: list[str]) -> dict:
    """{"ops": {op_id: [exit code, sha256 of stdout, sha256 of each result and
    config key]}, "seconds": {command: total seconds}} for every op, run from
    src."""
    sys.path[:0] = [src, str(ROOT / "perfbench")]
    import workloads
    from rtlab import cli

    ops = [op for name in WORKLOADS for op in workloads.make_ops(name, 0)]
    ops += [(f"scan:{n}:{k}:{s}:{r}", "cli",
             ["scan", "--n", str(n), "--k", str(k), "--s", str(s), "--r", str(r),
              "--threads", "2", "--format", "json"])
            for n, k, s, r in workloads.CENSUS_SCANS]
    ops += [(f"table:{workloads.THRESHOLDS_K.stop}..{K_MAX}", "cli",
             ["thresholds", "table", "--k", f"{workloads.THRESHOLDS_K.stop}..{K_MAX}",
              "--format", "json"])]
    ops += [(f"lp:low:{k}:{s}", "cli", ["lp", "--k", str(k), "--s", str(s), "--format", "json"])
            for k in range(workloads.LP_LOW_K.stop, K_MAX + 1)
            for s in range(2, workloads.s0(k) + 1)]
    ops += [(f"lp:mid-high:{k}:{s}", "cli",
             ["lp", "--k", str(k), "--s", str(s), "--variant", "mid-high", "--format", "json"])
            for k in range(workloads.LP_MID_HIGH_K.stop, K_MAX + 1)
            for s in range(workloads.s0(k) + 1, k * (k - 1) // 2 + 1)]
    ops += [("pairs:4..9:3", "cli", ["pairs", "--k", "4..9", "--s-min", "3", "--format", "json"])]
    ops += [(f"findk0:{s}:{K_MAX}", "cli",
             ["findk0", "--s", str(s), "--k-max", str(K_MAX), "--format", "json"])
            for s in range(3, 13)]
    out, seconds = {}, defaultdict(float)
    for op_id, _, argv in ops:
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
        seconds[argv[0]] += time.perf_counter() - start
        text, keys = buf.getvalue(), {}
        if text:    # exit 0 or 4 (a failed check) writes the JSON document
            obj = _without(json.loads(text), drop)
            keys = _key_digests(obj)
            if drop:
                text = json.dumps(obj, indent=2)
        out[op_id] = [rc, hashlib.sha256(text.encode()).hexdigest(), keys]
    return {"ops": out, "seconds": seconds}


def run_tree(src: str, drop: list[str]) -> dict:
    argv = [sys.executable, __file__, "--dump", src]
    for key in drop:
        argv += ["--drop-key", key]
    proc = subprocess.run(argv, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dump", help=argparse.SUPPRESS)
    ap.add_argument("--drop-key", dest="drop", action="append", default=[], metavar="KEY",
                    help="remove this top-level key of the JSON result, or SECTION.KEY "
                         "such as config.node_budget, before hashing (repeatable)")
    ap.add_argument("trees", nargs="*", metavar="SRC")
    args = ap.parse_args()
    if args.dump:
        json.dump(dump(args.dump, args.drop), sys.stdout)
        return 0
    if len(args.trees) != 2:
        ap.error("give OLD_SRC and NEW_SRC")
    old, new = (run_tree(str(Path(t).resolve()), args.drop) for t in args.trees)
    for tree, run in zip(args.trees, (old, new)):
        times = ", ".join(f"{cmd} {s:.2f}" for cmd, s in run["seconds"].items())
        print(f"seconds per command in {tree}: {times}", file=sys.stderr)
    old, new = old["ops"], new["ops"]
    changed_rc = Counter((old[k][0], new[k][0]) for k in old if old[k][0] != new[k][0])
    differ = sorted(k for k in old if old[k][0] == new[k][0] and old[k][1] != new[k][1])
    both_ok = sum(old[k][0] == new[k][0] == 0 for k in old)
    same_other = sum(old[k][0] == new[k][0] != 0 for k in old)
    for (a, b), n in sorted(changed_rc.items()):
        print(f"exit {a} -> {b}: {n} ops")
    print(f"{both_ok} ops exit 0 in both trees, {same_other} exit with the same other code; "
          f"stdout differs in {len(differ)}")
    for k in differ:
        a, b = old[k][2], new[k][2]
        keys = sorted(key for key in a.keys() | b.keys() if a.get(key) != b.get(key))
        print(f"  differs: {k}: {', '.join(keys) or 'outside result and config'}")
    return 1 if differ or changed_rc else 0


if __name__ == "__main__":
    sys.exit(main())
