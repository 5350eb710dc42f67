"""Correctness checks of operation results against the seed reference.

Nothing here imports rtlab: values are checked with independent code.
Products of powers ``prod b ** e`` (rational e) are compared as real numbers
through the prime factorization of their bases, so a change of canonical
form (prime bases, merged factors) is not flagged.  A threshold cell that
had no seed value is checked with mpmath at high precision.  The census and
brute-force values of oracle-crosscheck are both checked against the seed's
count for the graph's isomorphism class, which make_reference.py confirmed
with the independent counter here (``count_colorings``).

Each record gets one outcome:

* ``ok``: the result matches the reference;
* ``budget``: a budget exit (exit 3 or ResourceLimitError) on an operation
  that exited on the budget at the seed as well;
* ``unverified``: a new value whose base lies within mpmath's precision of
  an integer, so its floor cannot be confirmed;
* ``failed``: a budget exit where the seed had a value, or any other error;
* ``wrong``: a result that differs from the reference (fails the run).
"""

from __future__ import annotations

import math
from functools import lru_cache
from fractions import Fraction
from itertools import combinations, permutations, product

import mpmath

#: decimal digits of margin the mpmath floor must clear on each side
MP_GUARD_DIGITS = 30


def prime_exponents(factors) -> dict[int, Fraction]:
    """prod b ** e as {prime: exponent}; equal maps <=> equal reals."""
    out: dict[int, Fraction] = {}
    for base, exp in factors:
        b, e = int(base), Fraction(exp)
        p = 2
        while b > 1:
            while b % p == 0:
                out[p] = out.get(p, Fraction(0)) + e
                b //= p
            p += 1
    return {p: e for p, e in out.items() if e}


def same_real(a, b) -> bool:
    return prime_exponents(a) == prime_exponents(b)


def least_integer_above(factors) -> int | None:
    """Least integer strictly above prod b ** e, by mpmath; None when the value
    lies within 10**-MP_GUARD_DIGITS of an integer."""
    exps = prime_exponents(factors)
    log10 = sum(float(e) * math.log10(p) for p, e in exps.items())
    with mpmath.workdps(max(0, int(log10)) + 2 * MP_GUARD_DIGITS):
        value = mpmath.exp(mpmath.fsum(mpmath.mpf(e.numerator) / e.denominator * mpmath.log(p)
                                       for p, e in exps.items()))
        below = mpmath.floor(value)
        margin = mpmath.mpf(10) ** -MP_GUARD_DIGITS
        if value - below < margin or below + 1 - value < margin:
            return None
        return int(below) + 1


def parse_graph6(text: str) -> tuple[int, list[tuple[int, int]]]:
    """(n, edges) of a graph6 string with n <= 62, edges (u, v) with u < v."""
    n = ord(text[0]) - 63
    bits = "".join(format(ord(c) - 63, "06b") for c in text[1:])
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    return n, [pair for pair, bit in zip(pairs, bits) if bit == "1"]


@lru_cache(maxsize=None)
def canonical_graph(g6: str) -> str:
    """``n:mask`` naming the isomorphism class of a small graph.

    mask is the least edge bitmask (bit i is pair i of combinations(range(n), 2))
    over the labellings that number vertices by descending degree; any
    isomorphism keeps degrees, so isomorphic graphs get the same name.
    """
    n, edges = parse_graph6(g6)
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    groups = [[v for v in range(n) if degree[v] == d]
              for d in sorted(set(degree), reverse=True)]
    index = {pair: i for i, pair in enumerate(combinations(range(n), 2))}
    best = None
    for orders in product(*(permutations(g) for g in groups)):
        label = {v: i for i, v in enumerate(v for order in orders for v in order)}
        mask = 0
        for u, v in edges:
            a, b = sorted((label[u], label[v]))
            mask |= 1 << index[a, b]
        best = mask if best is None else min(best, mask)
    return f"{n}:{best}"


def count_colorings(n: int, edges, k: int, s: int, r: int) -> int:
    """Edge r-colorings in which every k-clique shows at most s - 1 colors.

    Definitional count, written apart from rtlab: cliques by vertex subsets,
    colorings by plain enumeration of the edges that lie in some clique (each
    other edge multiplies the count by r).
    """
    edge_set = set(edges)
    cliques = [[(u, v) for u, v in combinations(vs, 2)]
               for vs in combinations(range(n), k)
               if all(pair in edge_set for pair in combinations(vs, 2))]
    covered = sorted({e for clique in cliques for e in clique})
    pos = {e: i for i, e in enumerate(covered)}
    cols = [[pos[e] for e in clique] for clique in cliques]
    good = sum(all(len({colors[i] for i in c}) < s for c in cols)
               for colors in product(range(r), repeat=len(covered)))
    return good * r ** (len(edges) - len(covered))


def _check_thresholds(status, fields, ref):
    if status == "budget":
        if ref["r0"] is None:
            return "budget", ""
        return "failed", "budget exit where the seed has a value"
    if status != "ok":
        return "failed", status
    for key in ("regime", "r1"):
        if fields.get(key) != ref[key]:
            return "wrong", f"{key} {fields.get(key)!r} != reference {ref[key]!r}"
    if not same_real(fields["base_factors"], ref["base_factors"]):
        return "wrong", f"base {fields['base_factors']} != reference {ref['base_factors']}"
    want = ref["r0"]
    if want is None:
        exact = least_integer_above(ref["base_factors"])
        if exact is None:
            return "unverified", "base within mpmath precision of an integer"
        want = str(exact)
    if fields.get("r0") != want:
        return "wrong", f"r0 {fields.get('r0')!r} != {want!r}"
    return "ok", ""


def _check_lp(status, fields, ref):
    if status != "ok":
        return "failed", status
    for key, want in ref.items():
        got = fields.get(key)
        same = same_real(got, want) if key.endswith("_factors") and got is not None \
            else got == want
        if not same:
            return "wrong", f"{key} {got!r} != reference {want!r}"
    return "ok", ""


def _check_count(status, fields, ref):
    if status != "ok":
        return "failed", status
    if fields.get("value") != ref:
        return "wrong", f"count {fields.get('value')!r} != reference {ref!r}"
    return "ok", ""


def _check_oracle(status, fields, ref):
    if status != "ok":
        return "failed", status
    for r, (census, brute), want in zip((2, 3, 4), fields, ref):
        if census != want or brute != want:
            return "wrong", f"r={r}: census {census}, brute force {brute}, reference {want}"
    return "ok", ""


def oracle_key(op_id: str) -> str:
    """Reference key of an oracle op ``o:<graph6>:<k>:<s>`` (graph6 has no ':')."""
    _, g6, k, s = op_id.split(":")
    return f"{canonical_graph(g6)}:{k}:{s}"


_CHECKERS = {
    "thresholds-grid": ("thresholds", _check_thresholds),
    "lp-certify": ("lp", _check_lp),
    "census-scan": ("census", _check_count),
    "oracle-crosscheck": ("oracle", _check_oracle),
}


def check_records(workload: str, records, reference) -> list[tuple[str, str, str]]:
    """(op_id, outcome, detail) for each worker record [op_id, latency, status,
    fields, digest]."""
    section, checker = _CHECKERS[workload]
    table = reference[section]
    out = []
    for op_id, _, status, fields, _ in records:
        key = oracle_key(op_id) if section == "oracle" else op_id
        if key not in table:
            out.append((op_id, "wrong", "operation missing from the reference"))
            continue
        outcome, detail = checker(status, fields, table[key])
        out.append((op_id, outcome, detail))
    return out
