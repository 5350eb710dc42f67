"""Record the reference results the benchmark checks against.

Usage: python3 perfbench/make_reference.py   (from the repository root)

Runs every CLI operation of thresholds-grid, lp-certify and census-scan once
at the current commit and writes perfbench/reference.json:

* thresholds: r0 (null where the cell exits on the bit budget), r1, regime
  and the r0 base for every (k, s) cell with k = 4..14.  The base of a
  budget-exit cell comes from ``thresholds.r0_base``, which needs no
  comparison.  Every seed r0 is cross-checked with mpmath, and the k = 4..6
  values against TABLE1/TABLE2 of tests/test_acceptance.py.
* lp: feasibility, optimality, claimed value and vertex maximum of each LOW
  cell; the vertex maximum and case-base ordering of each MID_HIGH cell.
* census: the exact count of each census-scan graph.
* oracle: for one graph of each isomorphism class in the oracle-crosscheck
  population, the brute-force count at every (k, s) and r.  Each count must
  equal the census value and the independent ``checks.count_colorings``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import checks  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

LOW_KEYS = ("feasible", "optimal", "claimed_value_factors", "vertex_max_factors")
MID_HIGH_KEYS = ("vertex_max_factors", "case_bases_ordering")


def _results(name):
    from rtlab import cli
    records = worker.run_pass(cli, workloads.make_ops(name, 0))[0]
    return {op_id: (status, fields) for op_id, _, status, fields, _ in records}


def thresholds_reference():
    from rtlab import thresholds
    out = {}
    for op_id, (status, fields) in sorted(_results("thresholds-grid").items()):
        if status == "ok":
            out[op_id] = {key: fields[key] for key in ("r0", "r1", "regime", "base_factors")}
            continue
        if status != "budget":
            raise SystemExit(f"{op_id}: unexpected outcome {status}")
        k, s = map(int, op_id.split(":")[1:])
        base, params = thresholds.r0_base(k, s)
        out[op_id] = {"r0": None, "r1": str(thresholds.r1(k, s)) if s >= 3 else "",
                      "regime": params.regime.value, "base_factors": base.factor_list()}
    return out


def crosscheck_thresholds(table):
    from test_acceptance import TABLE1, TABLE2
    for name, grid in (("r0", TABLE1), ("r1", TABLE2)):
        for k, row in grid.items():
            for s, want in row.items():
                got = table[f"t:{k}:{s}"][name]
                if got != str(want):
                    raise SystemExit(f"{name}({k},{s}) = {got}, acceptance table says {want}")
    verified = unverified = 0
    for op_id, ref in table.items():
        if ref["r0"] is None:
            continue
        exact = checks.least_integer_above(ref["base_factors"])
        if exact is None:
            unverified += 1
        elif str(exact) != ref["r0"]:
            raise SystemExit(f"{op_id}: r0 {ref['r0']} but mpmath gives {exact}")
        else:
            verified += 1
    return {"acceptance_tables": "match", "mpmath_verified": verified,
            "mpmath_unverified": unverified,
            "budget_exit_cells": sum(ref["r0"] is None for ref in table.values())}


def lp_reference():
    out = {}
    for op_id, (status, fields) in sorted(_results("lp-certify").items()):
        if status != "ok":
            raise SystemExit(f"{op_id}: unexpected outcome {status}")
        keys = LOW_KEYS if op_id.startswith("lp:low:") else MID_HIGH_KEYS
        out[op_id] = {key: fields[key] for key in keys}
    return out


def census_reference():
    out = {}
    for op_id, (status, fields) in sorted(_results("census-scan").items()):
        if status != "ok":
            raise SystemExit(f"{op_id}: unexpected outcome {status}")
        out[op_id] = fields["value"]
    return out


def oracle_reference():
    from itertools import combinations

    from rtlab import census
    classes = {}
    for n, mask in workloads.oracle_population():
        pairs = list(combinations(range(n), 2))
        g6 = workloads.graph6(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
        classes.setdefault(checks.canonical_graph(g6), g6)
    out = {}
    for name, g6 in sorted(classes.items()):
        g = census.parse_graph6(g6)
        n, edges = checks.parse_graph6(g6)
        for k, s in workloads.ORACLE_KS:
            poly = census.build_census(g, k, s, t_max=max(1, min(g.m, 4)))
            values = []
            for r in workloads.ORACLE_R:
                brute = census.count_brute(g, k, s, r).value
                seen = {brute, census.evaluate(poly, r).value,
                        checks.count_colorings(n, edges, k, s, r)}
                if len(seen) != 1:
                    raise SystemExit(f"{g6} (k, s, r) = {(k, s, r)}: counts differ: {seen}")
                values.append(str(brute))
            out[f"{name}:{k}:{s}"] = values
    return out


def _dump(doc) -> str:
    """JSON with one line per operation, so that a diff shows which op changed."""
    parts = []
    for key in sorted(doc):
        val = doc[key]
        if key in ("thresholds", "lp", "census", "oracle"):
            body = ",\n".join(f"  {json.dumps(op)}: {json.dumps(ref, sort_keys=True)}"
                              for op, ref in sorted(val.items()))
            parts.append(f" {json.dumps(key)}: {{\n{body}\n }}")
        else:
            parts.append(f" {json.dumps(key)}: {json.dumps(val, sort_keys=True)}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def main() -> int:
    import rtlab
    table = thresholds_reference()
    doc = {
        "rtlab_version": rtlab.__version__,
        "thresholds_crosscheck": crosscheck_thresholds(table),
        "thresholds": table,
        "lp": lp_reference(),
        "census": census_reference(),
        "oracle": oracle_reference(),
    }
    path = HERE / "reference.json"
    path.write_text(_dump(doc), encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}: {doc['thresholds_crosscheck']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
