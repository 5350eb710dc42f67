"""Byte-compare rtlab's stdout between two source trees.

Usage (from the repository root):

    python3 tools/diff_stdout.py [--drop-key KEY ...] OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are the ``src`` directories of two checkouts.  Every
``thresholds`` and ``lp`` operation of the benchmark (perfbench/workloads.py)
runs through ``rtlab.cli.main`` once per tree, each tree in its own
interpreter.  The script prints the exit codes that changed and the
operations whose stdout differs where both trees exited 0, and exits 1 when
any stdout differs.  Each ``--drop-key KEY`` removes that top-level key of
the JSON ``result`` before hashing, so outputs can be compared apart from
fields one tree adds or drops.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("thresholds-grid", "lp-certify")


def _without(text: str, drop: list[str]) -> str:
    """stdout with the given keys removed from its JSON result, re-serialized."""
    obj = json.loads(text)
    for key in drop:
        obj["result"].pop(key, None)
    return json.dumps(obj, indent=2)


def dump(src: str, drop: list[str]) -> dict:
    """{op_id: [exit code, sha256 of stdout]} for every op, run from src."""
    sys.path[:0] = [src, str(ROOT / "perfbench")]
    import workloads
    from rtlab import cli

    out = {}
    for name in WORKLOADS:
        for op_id, _, argv in workloads.make_ops(name, 0):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(argv)
            text = buf.getvalue()
            if drop and rc == 0:
                text = _without(text, drop)
            out[op_id] = [rc, hashlib.sha256(text.encode()).hexdigest()]
    return out


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
                    help="remove this top-level key of the JSON result before hashing "
                         "(repeatable)")
    ap.add_argument("trees", nargs="*", metavar="SRC")
    args = ap.parse_args()
    if args.dump:
        json.dump(dump(args.dump, args.drop), sys.stdout)
        return 0
    if len(args.trees) != 2:
        ap.error("give OLD_SRC and NEW_SRC")
    old, new = (run_tree(str(Path(t).resolve()), args.drop) for t in args.trees)
    changed_rc = Counter((old[k][0], new[k][0]) for k in old if old[k][0] != new[k][0])
    differ = sorted(k for k in old if old[k][0] == new[k][0] == 0 and old[k][1] != new[k][1])
    both_ok = sum(old[k][0] == new[k][0] == 0 for k in old)
    for (a, b), n in sorted(changed_rc.items()):
        print(f"exit {a} -> {b}: {n} ops")
    print(f"{both_ok} ops exit 0 in both trees; stdout differs in {len(differ)}")
    for k in differ:
        print(f"  differs: {k}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
