"""Byte-for-byte goldens of the CLI: stdout and exit code of every
subcommand in every output format.

The files under tests/golden/ are the reference and change only when an
output is meant to change.  To rewrite them from the current source:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import shlex
from pathlib import Path

import pytest

from rtlab import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
FORMATS = ("md", "csv", "json")

CASES = {
    "thresholds-mid": "thresholds --k 4 --s 5",
    "thresholds-s2": "thresholds --k 5 --s 2",
    "table": "thresholds table --k 4..6",
    "table-s-range": "thresholds table --k 4..5 --s 3..6",
    "count-census": "count --complete 4 --k 4 --s 3 --r 3 --method census",
    "count-few-colors": "count --complete 10 --k 4 --s 3 --r 5",
    "count-maximal-cliques": "count --parts 2,1,1,1,1,1,1,1,1 --k 4 --s 3 --r 5",
    "count-brute": "count --complete 4 --k 4 --s 3 --r 3 --method brute",
    "count-kfree": "count --turan 6 4 --k 4 --s 3 --r 7",
    "count-parts": "count --parts 2,2,1 --k 3 --s 2 --r 3",
    "count-budget": "count --complete 6 --k 4 --s 2 --r 5 --method brute "
                    "--coloring-budget 1000",
    "scan": "scan --n 5 --k 4 --s 4 --r 2",
    "scan-budget-rows": "scan --n 5 --k 3 --s 3 --r 3 --node-budget 40",
    "lp-low": "lp --k 5 --s 4",
    "lp-mid-high": "lp --k 4 --s 5 --variant mid-high",
    "props-entropy": "props --check entropy --grid 16",
    "props-turanbounds": "props --check turanbounds",
    "pairs": "pairs --k 4..6",
    "findk0": "findk0 --s 3 --k-max 12",
    "q2": "q2 --n 4 --k 3 --s 3 --r 3",
}

PARAMS = [(name, fmt) for name in CASES for fmt in FORMATS]


def run_case(name: str, fmt: str) -> tuple[int, str]:
    argv = shlex.split(CASES[name]) + ["--format", fmt]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, buf.getvalue()


def _exit_codes() -> dict:
    return json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name,fmt", PARAMS, ids=[f"{n}-{f}" for n, f in PARAMS])
def test_golden(name, fmt, monkeypatch):
    monkeypatch.delenv("RTL_CACHE", raising=False)
    code, out = run_case(name, fmt)
    want = (GOLDEN / f"{name}.{fmt}").read_bytes()
    assert out.encode("utf-8") == want
    assert code == _exit_codes()[f"{name}.{fmt}"]


def regenerate() -> None:
    os.environ.pop("RTL_CACHE", None)
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, fmt in PARAMS:
        code, out = run_case(name, fmt)
        (GOLDEN / f"{name}.{fmt}").write_bytes(out.encode("utf-8"))
        codes[f"{name}.{fmt}"] = code
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n",
                                            encoding="utf-8")


if __name__ == "__main__":
    regenerate()
