"""Operation lists of the four benchmark workloads.

Each workload is a fixed set of operations, shuffled by the workload seed,
so every seed runs the same work in a different order (oracle-crosscheck
also draws its graph sample from the seed).  An operation is a tuple
``(op_id, kind, payload)``:

* ``cli``: payload is the argv list given to ``rtlab.cli.main``.
* ``oracle``: payload is ``(graph6, k, s)``; the op builds the census once
  and checks it against the brute-force oracle at r = 2, 3, 4.

This module imports nothing from rtlab, so the inputs do not depend on the
code under test.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb

THRESHOLDS_K = range(4, 15)
LP_LOW_K = range(4, 9)
LP_MID_HIGH_K = range(4, 7)
CENSUS_SCANS = ((7, 4, 3, 4), (6, 3, 3, 4))    # (n, k, s, r)
ORACLE_SAMPLE = 1300
ORACLE_KS = ((3, 2), (3, 3), (4, 2), (4, 3))
ORACLE_R = (2, 3, 4)
ORACLE_MAX_N = 6
ORACLE_MAX_M = 7

NAMES = ("thresholds-grid", "lp-certify", "census-scan", "oracle-crosscheck")


def s0(k: int) -> int:
    """Last s of the LOW regime: edges inside a balanced 2-partition of K_k, plus 2."""
    return comb((k + 1) // 2, 2) + comb(k // 2, 2) + 2


def integer_partitions(n: int, cap: int | None = None):
    """Partitions of n as descending tuples."""
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for p in range(min(n, cap), 0, -1):
        for rest in integer_partitions(n - p, p):
            yield (p,) + rest


def graph6(n: int, edges) -> str:
    """graph6 text of a graph on vertices 0..n-1 (n <= 62)."""
    adj = set(edges)
    bits = [int((u, v) in adj) for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(chr(63 + int("".join(map(str, bits[i:i + 6])), 2))
                   for i in range(0, len(bits), 6))
    return chr(63 + n) + body


def oracle_population():
    """Every labelled graph with n <= 6 vertices and m <= 7 edges, as (n, mask)."""
    out = []
    for n in range(1, ORACLE_MAX_N + 1):
        npairs = comb(n, 2)
        out.extend((n, mask) for mask in range(1 << npairs)
                   if mask.bit_count() <= ORACLE_MAX_M)
    return out


def _thresholds_ops():
    return [(f"t:{k}:{s}", "cli",
             ["thresholds", "--k", str(k), "--s", str(s), "--format", "json"])
            for k in THRESHOLDS_K for s in range(2, comb(k, 2) + 1)]


def _lp_ops():
    ops = [(f"lp:low:{k}:{s}", "cli",
            ["lp", "--k", str(k), "--s", str(s), "--format", "json"])
           for k in LP_LOW_K for s in range(2, s0(k) + 1)]
    ops += [(f"lp:mid-high:{k}:{s}", "cli",
             ["lp", "--k", str(k), "--s", str(s), "--variant", "mid-high",
              "--format", "json"])
            for k in LP_MID_HIGH_K for s in range(s0(k) + 1, comb(k, 2) + 1)]
    return ops


def _census_ops():
    ops = []
    for n, k, s, r in CENSUS_SCANS:
        for parts in integer_partitions(n):
            text = ",".join(map(str, parts))
            ops.append((f"c:{text}:{k}:{s}:{r}", "cli",
                        ["count", "--parts", text, "--k", str(k), "--s", str(s),
                         "--r", str(r), "--format", "json"]))
    return ops


def _oracle_ops(rng: random.Random):
    population = oracle_population()
    ops = []
    for n, mask in rng.sample(population, ORACLE_SAMPLE):
        pairs = list(combinations(range(n), 2))
        g6 = graph6(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
        ops.extend((f"o:{g6}:{k}:{s}", "oracle", (g6, k, s)) for k, s in ORACLE_KS)
    return ops


def make_ops(name: str, seed: int):
    """The operation list of one workload, in the order the seed gives."""
    rng = random.Random(f"{name}:{seed}")
    if name == "thresholds-grid":
        ops = _thresholds_ops()
    elif name == "lp-certify":
        ops = _lp_ops()
    elif name == "census-scan":
        ops = _census_ops()
    elif name == "oracle-crosscheck":
        ops = _oracle_ops(rng)
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(ops)
    return ops
