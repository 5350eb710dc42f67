"""Self-test of the benchmark.

Usage: python3 perfbench/selftest.py   (from the repository root; about a minute)

Checks that:

1. traced and untraced passes give identical results, on a sample of every
   workload's operations, and both pass the correctness checks; every trace
   target records spans, and a missing one stops the traced run;
2. a planted wrong reference value is caught, by the checks on every
   workload and by a whole run (exit code 1, "correct": false);
3. thresholds-grid keeps all 440 cells for k = 4..14, and its 65 budget
   exits count toward fail_ratio (65/440) without failing the run;
4. values are compared as reals (a prime-base rewrite still matches) and
   mpmath confirms seed r0 values and rejects a wrong new one;
5. in a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SEED = 7
OUT = HERE / "out"


def _sample(name):
    """A cheap subset of a workload, in seed order."""
    ops = workloads.make_ops(name, SEED)
    if name == "thresholds-grid":
        return [op for op in ops if int(op[0].split(":")[1]) not in (11, 12)]
    if name == "lp-certify":
        return [op for op in ops if int(op[0].split(":")[2]) <= 6]
    if name == "census-scan":
        return [op for op in ops if op[0].endswith(":3:3:4")]
    return ops[:400]


def _program(name):
    from rtlab import census, cli
    return census if name == "oracle-crosscheck" else cli


def _outcomes(name, records, reference):
    return {op_id: outcome for op_id, outcome, _ in
            checks.check_records(name, records, reference)}


def test_traced_equals_untraced(reference):
    plain = {name: worker.run_pass(_program(name), _sample(name))[0]
             for name in workloads.NAMES}
    tracer = tracing.Tracer()
    tracing.install(tracer)
    for name in workloads.NAMES:
        traced = worker.run_pass(_program(name), _sample(name), tracer)[0]
        assert [r[:1] + r[2:] for r in plain[name]] == [r[:1] + r[2:] for r in traced], name
        bad = {op: o for op, o in _outcomes(name, traced, reference).items()
               if o not in ("ok", "budget")}
        assert not bad, (name, bad)
    assert tracer.spans and tracer.counts["census.nodes"] > 0
    assert {name for name, *_ in tracing.TARGETS} <= {span[0] for span in tracer.spans}

    saved = tracing.TARGETS
    tracing.TARGETS = saved + (("census.gone", "rtlab.census", "gone", None),)
    try:
        tracing.install(tracing.Tracer())
    except RuntimeError as exc:
        assert "rtlab.census.gone" in str(exc), exc
    else:
        raise AssertionError("a missing trace target was not reported")
    finally:
        tracing.TARGETS = saved
    return plain


def test_planted_values_fail(reference, plain):
    planted = copy.deepcopy(reference)
    cell = planted["thresholds"]["t:9:20"]
    cell["r0"] = str(int(cell["r0"]) + 1)
    planted["lp"]["lp:low:6:5"]["vertex_max_factors"].append([2, "1/3"])
    planted["census"]["c:3,2,1:3:3:4"] = str(int(planted["census"]["c:3,2,1:3:3:4"]) + 1)
    oracle_op = next(rec[0] for rec in plain["oracle-crosscheck"]
                     if planted["oracle"][checks.oracle_key(rec[0])][2] != "0")
    values = planted["oracle"][checks.oracle_key(oracle_op)]
    values[2] = str(int(values[2]) - 1)
    for name, op_id in (("thresholds-grid", "t:9:20"), ("lp-certify", "lp:low:6:5"),
                        ("census-scan", "c:3,2,1:3:3:4"), ("oracle-crosscheck", oracle_op)):
        assert _outcomes(name, plain[name], reference)[op_id] == "ok", op_id
        assert _outcomes(name, plain[name], planted)[op_id] == "wrong", op_id

    # a whole run in a copy of the tree whose reference.json is the planted one
    tree = OUT / "planted"
    shutil.rmtree(tree, ignore_errors=True)
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tree / "perfbench", ignore=skip)
    shutil.copytree(ROOT / "src", tree / "src", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tree / "BENCHMARK.json")
    (tree / "perfbench" / "reference.json").write_text(json.dumps(planted), encoding="utf-8")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "census-scan",
                           "--seed", str(SEED), "--seconds", "1"],
                          cwd=tree, capture_output=True, text=True, timeout=170)
    shutil.rmtree(tree)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 1 and last["correct"] is False, (proc.returncode, last)


def test_budget_exits_count(reference):
    ops = workloads.make_ops("thresholds-grid", SEED)
    assert len(ops) == 440
    assert {int(op[0].split(":")[1]) for op in ops} == set(range(4, 15))
    seed_exits = [op_id for op_id, ref in reference["thresholds"].items() if ref["r0"] is None]
    assert len(seed_exits) == 65
    budget_ops = [op for op in ops if op[0] in seed_exits]
    records = worker.run_pass(_program("thresholds-grid"), budget_ops)[0]
    assert [r[2] for r in records] == ["budget"] * 65
    # the other 375 cells, as passing records, make up the full grid
    filler = [[op[0], 0.0, "ok", reference["thresholds"][op[0]], ""]
              for op in ops if op[0] not in seed_exits]
    doc = {"records": records + filler, "wall_s": 1.0, "adj_wall_s": 1.0,
           "peak_rss_mb": 1.0}
    res = run.summarize("thresholds-grid", [doc, doc], [(0.1, 0.1)], reference)
    assert res["fail_ratio"] == 65 / 440, res["fail_ratio"]
    assert res["outcomes"]["budget"] == 130 and res["outcomes"]["wrong"] == 0, res["outcomes"]


def test_reals_and_mpmath(reference):
    table = reference["thresholds"]
    for op_id in ("t:6:15", "t:11:30", "t:12:40", "t:14:20"):
        ref = table[op_id]
        assert str(checks.least_integer_above(ref["base_factors"])) == ref["r0"], op_id
        primes = [[p, f"{e.numerator}/{e.denominator}"]
                  for p, e in checks.prime_exponents(ref["base_factors"]).items()]
        record = [op_id, 0.0, "ok", dict(ref, base_factors=primes), ""]
        assert _outcomes("thresholds-grid", [record], reference)[op_id] == "ok", op_id

    # a cell that exits on the budget at the seed is checked with mpmath
    op_id = next(op_id for op_id, ref in sorted(table.items()) if ref["r0"] is None)
    ref = table[op_id]
    exact = checks.least_integer_above(ref["base_factors"])
    for r0, want in ((exact, "ok"), (exact + 1, "wrong")):
        record = [op_id, 0.0, "ok", dict(ref, r0=str(r0)), ""]
        assert _outcomes("thresholds-grid", [record], reference)[op_id] == want, r0


def test_bare_directory_fails():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "lp-certify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, (proc.returncode,
                                                                     proc.stdout)


def main() -> int:
    OUT.mkdir(exist_ok=True)
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    test_bare_directory_fails()
    print("ok   bare directory exits non-zero without a result", flush=True)
    test_reals_and_mpmath(reference)
    print("ok   reals compared by prime exponents; mpmath confirms and rejects r0", flush=True)
    test_budget_exits_count(reference)
    print("ok   440-cell grid; 65 budget exits give fail_ratio 65/440", flush=True)
    plain = test_traced_equals_untraced(reference)
    print("ok   traced and untraced results identical and correct; every target traced; "
          "a missing target is reported", flush=True)
    test_planted_values_fail(reference, plain)
    print("ok   planted wrong reference values fail the checks and the run", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
