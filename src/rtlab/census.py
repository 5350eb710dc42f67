"""Exact counting of clique-color-capped edge colorings.

An r-coloring of the edges of G is admissible for parameters (k, s) when
no k-clique of G carries s or more distinct colors.  Whether a coloring is
admissible depends only on the partition of the edge set into color
classes, never on the color identities, so the engine enumerates set
partitions once (as restricted growth strings over the fixed lexicographic
edge order) and tallies a census polynomial: a_t counts admissible
partitions with exactly t blocks, and the admissible colorings for any
palette size r number sum_t a_t * r*(r-1)*...*(r-t+1).

A definitional brute-force oracle that walks all r**m colorings is kept
alongside and stays independent of the partition route; the two are held
equal on a large corpus by the test suite.
"""

from __future__ import annotations

import json
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, perm
from pathlib import Path

import numpy as np

from .errors import ContractViolationError, ResourceLimitError
from .graphs import Graph, complete, complete_multipartite, k_cliques, parse_graph6, \
    read_graph6_file
from .thresholds import turan_ex

DEFAULT_COLORING_BUDGET = 10 ** 8
DEFAULT_NODE_BUDGET = 10 ** 9
DEFAULT_SPLIT_DEPTH = 4
_CHUNK = 1 << 16

METHOD_BRUTE = "brute"
METHOD_CENSUS = "census"
METHOD_TRIVIAL_KFREE = "trivial_kfree"
METHOD_TRIVIAL_FEWER_COLORS = "trivial_r_lt_s"   # r < s admits every coloring


@dataclass(frozen=True)
class CountResult:
    value: int
    r: int
    k: int
    s: int
    graph_id: str
    method: str
    elapsed: float
    nodes_visited: int

    def to_dict(self) -> dict:
        # elapsed is intentionally not serialized: payloads must be
        # byte-identical across runs
        return {
            "graph6": self.graph_id,
            "k": self.k,
            "s": self.s,
            "r": self.r,
            "method": self.method,
            "value": str(self.value),
            "nodes_visited": self.nodes_visited,
        }


@dataclass
class CensusPolynomial:
    """Coefficients a_t of the falling-factorial count for one (G, k, s)."""

    k: int
    s: int
    graph_id: str
    t_max: int
    coefficients: dict[int, int]
    m: int
    nodes_visited: int = 0

    def key(self):
        return (self.graph_id, self.k, self.s, self.t_max)

    def to_json_obj(self, tool_version: str) -> dict:
        return {
            "graph6": self.graph_id,
            "k": self.k,
            "s": self.s,
            "t_max": self.t_max,
            "coefficients": [[t, str(a)] for t, a in sorted(self.coefficients.items())],
            "tool_version": tool_version,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "CensusPolynomial":
        g = parse_graph6(obj["graph6"])
        coeffs = {int(t): int(a) for t, a in obj["coefficients"]}
        return cls(k=int(obj["k"]), s=int(obj["s"]), graph_id=obj["graph6"],
                   t_max=int(obj["t_max"]), coefficients=coeffs, m=g.m)


# -- brute-force oracle ----------------------------------------------------------

def _digit_block(r: int, m: int, start: int, stop: int) -> np.ndarray:
    idx = np.arange(start, stop, dtype=np.int64)
    out = np.empty((stop - start, m), dtype=np.int64)
    div = 1
    for e in range(m):
        out[:, e] = (idx // div) % r
        div *= r
    return out


def _distinct_counts(cols: np.ndarray, r: int) -> np.ndarray:
    if r <= 64:
        masks = np.bitwise_or.reduce(
            np.left_shift(np.uint64(1), cols.astype(np.uint64)), axis=1)
        return np.bitwise_count(masks)
    srt = np.sort(cols, axis=1)
    return 1 + (np.diff(srt, axis=1) != 0).sum(axis=1)


def count_brute(g: Graph, k: int, s: int, r: int,
                coloring_budget: int = DEFAULT_COLORING_BUDGET) -> CountResult:
    """Walk all r**m edge colorings and accept those with every k-clique
    showing at most s-1 distinct colors.  The definitional oracle."""
    if r < 1 or s < 2:
        raise ContractViolationError(f"count_brute needs r >= 1, s >= 2, got {(r, s)}")
    t0 = time.perf_counter()
    m = g.m
    total = r ** m
    if total > coloring_budget:
        raise ResourceLimitError(
            f"brute count needs {total} colorings; budget is {coloring_budget}")
    cl_cols = [tuple(i for i in range(m) if mask >> i & 1)
               for _, mask in k_cliques(g, k)]
    cap = s - 1
    accepted = 0
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        dig = _digit_block(r, m, start, stop)
        ok = np.ones(stop - start, dtype=bool)
        for cols in cl_cols:
            ok &= _distinct_counts(dig[:, cols], r) <= cap
        accepted += int(np.count_nonzero(ok))
    return CountResult(accepted, r, k, s, g.graph6, METHOD_BRUTE,
                       time.perf_counter() - t0, total)


# -- census construction -----------------------------------------------------------

def _enumerate_partitions(m, s, t_max, cliques_of, coeffs, budget, counter,
                          prefix=(), collect_prefixes=None):
    """Depth-first walk of restricted growth strings over the edges.

    Block labels appear in first-use order; a branch dies as soon as some
    clique touches s distinct blocks or the block count would pass t_max.
    With collect_prefixes set to a depth d, the walk stops at depth d and
    records the surviving prefixes instead of tallying leaves.
    """
    ncl = max((max(cl) + 1 for cl in cliques_of if cl), default=0)
    cl_mask = [0] * ncl
    cl_cnt = [0] * ncl
    cap = s - 1

    nblocks = 0
    for e, b in enumerate(prefix):   # re-apply a frozen prefix (parallel workers)
        bit = 1 << b
        for ci in cliques_of[e]:
            if not cl_mask[ci] & bit:
                if cl_cnt[ci] >= cap:
                    raise ContractViolationError("infeasible census prefix")
                cl_mask[ci] |= bit
                cl_cnt[ci] += 1
        if b == nblocks:
            nblocks += 1

    stop_depth = collect_prefixes[0] if collect_prefixes else m
    labels = list(prefix) + [0] * (m - len(prefix))

    def rec(e, nb):
        if e == stop_depth:
            if collect_prefixes:
                collect_prefixes[1].append(tuple(labels[:e]))
            else:
                coeffs[nb] += 1
            return
        nodes = counter[0]
        col = cliques_of[e]
        for b in range(nb + 1 if nb < t_max else t_max):
            nodes += 1
            if col:
                bit = 1 << b
                touched = []
                bad = False
                for ci in col:
                    if not cl_mask[ci] & bit:
                        if cl_cnt[ci] >= cap:
                            bad = True
                            break
                        touched.append(ci)
                if bad:
                    continue
                for ci in touched:
                    cl_mask[ci] |= bit
                    cl_cnt[ci] += 1
                labels[e] = b
                counter[0] = nodes
                rec(e + 1, nb + (b == nb))
                nodes = counter[0]
                for ci in touched:
                    cl_mask[ci] &= ~bit
                    cl_cnt[ci] -= 1
            else:
                labels[e] = b
                counter[0] = nodes
                rec(e + 1, nb + (b == nb))
                nodes = counter[0]
        counter[0] = nodes
        if nodes > budget:
            raise ResourceLimitError(
                f"census node budget {budget} exceeded")

    rec(len(prefix), nblocks)


def _cliques_per_edge(g: Graph, k: int) -> list[list[int]]:
    cliques = k_cliques(g, k)
    out = [[] for _ in range(g.m)]
    for ci, (_, mask) in enumerate(cliques):
        for e in range(g.m):
            if mask >> e & 1:
                out[e].append(ci)
    return out


def _census_task(args):
    g6, k, s, t_max, prefix, budget = args
    g = parse_graph6(g6)
    coeffs = [0] * (t_max + 1)
    counter = [0]
    _enumerate_partitions(g.m, s, t_max, _cliques_per_edge(g, k), coeffs,
                          budget, counter, prefix=prefix)
    return coeffs, counter[0]


def build_census(g: Graph, k: int, s: int, t_max: int | None = None,
                 node_budget: int = DEFAULT_NODE_BUDGET, jobs: int = 1,
                 split_depth: int = DEFAULT_SPLIT_DEPTH) -> CensusPolynomial:
    """Tally a_t for t in [1, t_max] over all admissible edge partitions.

    With jobs > 1 the tree is split at a fixed depth into independent
    subtree tasks whose coefficient vectors are merged by addition, so the
    result is identical to the sequential walk.  The node budget is then
    enforced per task.
    """
    if s < 2:
        raise ContractViolationError(f"census needs s >= 2, got {s}")
    m = g.m
    if t_max is None:
        t_max = max(1, min(m, 16))
    if t_max < 1:
        raise ContractViolationError(f"t_max must be >= 1, got {t_max}")
    cliques_of = _cliques_per_edge(g, k)
    coeffs = [0] * (t_max + 1)
    counter = [0]
    if jobs <= 1 or m <= split_depth:
        _enumerate_partitions(m, s, t_max, cliques_of, coeffs, node_budget, counter)
    else:
        sink = (split_depth, [])
        _enumerate_partitions(m, s, t_max, cliques_of, coeffs, node_budget,
                              counter, collect_prefixes=sink)
        tasks = [(g.graph6, k, s, t_max, pre, node_budget) for pre in sink[1]]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for part, nodes in pool.map(_census_task, tasks, chunksize=8):
                for t in range(t_max + 1):
                    coeffs[t] += part[t]
                counter[0] += nodes
    coefficients = {t: a for t, a in enumerate(coeffs) if a}
    if m == 0:
        coefficients = {0: 1}
    return CensusPolynomial(k=k, s=s, graph_id=g.graph6, t_max=t_max,
                            coefficients=coefficients, m=m,
                            nodes_visited=counter[0])


def evaluate(poly: CensusPolynomial, r: int) -> CountResult:
    """sum_t a_t * r*(r-1)*...*(r-t+1), exact; needs t_max >= min(m, r)."""
    if r < 0:
        raise ContractViolationError(f"evaluate needs r >= 0, got {r}")
    if poly.t_max < min(poly.m, r):
        raise ContractViolationError(
            f"census truncated at t_max = {poly.t_max} cannot evaluate at r = {r}; "
            f"need t_max >= {min(poly.m, r)}")
    t0 = time.perf_counter()
    value = sum(a * perm(r, t) for t, a in poly.coefficients.items())
    return CountResult(value, r, poly.k, poly.s, poly.graph_id, METHOD_CENSUS,
                       time.perf_counter() - t0, poly.nodes_visited)


# -- auto strategy and comparisons ---------------------------------------------------

def count_colorings(g: Graph, k: int, s: int, r: int, method: str = "auto",
                    node_budget: int = DEFAULT_NODE_BUDGET,
                    coloring_budget: int = DEFAULT_COLORING_BUDGET,
                    jobs: int = 1, cache: "CensusCache | None" = None) -> CountResult:
    """Count admissible colorings; auto picks the cheapest sound route.

    Shortcuts: with r < s no coloring can show s distinct colors on any
    clique, and with no k-clique present the constraint is empty, so both
    cases count r**m directly.
    """
    if method == "brute":
        return count_brute(g, k, s, r, coloring_budget=coloring_budget)
    if method not in ("auto", "census"):
        raise ContractViolationError(f"unknown method {method!r}")
    t0 = time.perf_counter()
    if method == "auto":
        if r < s:
            return CountResult(r ** g.m, r, k, s, g.graph6,
                               METHOD_TRIVIAL_FEWER_COLORS, time.perf_counter() - t0, 0)
        if not k_cliques(g, k):
            return CountResult(r ** g.m, r, k, s, g.graph6,
                               METHOD_TRIVIAL_KFREE, time.perf_counter() - t0, 0)
    t_need = max(1, min(g.m, max(16, r)))
    poly = cache.find_at_least(g.graph6, k, s, t_need) if cache else None
    if poly is None:
        poly = build_census(g, k, s, t_max=t_need, node_budget=node_budget, jobs=jobs)
        if cache:
            cache.put(poly)
    return evaluate(poly, r)


def compare_vs_turan(g: Graph, k: int, s: int, r: int, **kwargs):
    """Exact ordering of count(G) against r ** turan_ex(n, k).

    The balanced (k-1)-partite graph has no k-clique, so its count needs no
    enumeration.  Returns (ordering, CountResult for G, reference count).
    """
    res = count_colorings(g, k, s, r, **kwargs)
    ref = r ** turan_ex(g.n, k)
    ordering = (res.value > ref) - (res.value < ref)
    return ordering, res, ref


# -- extremal scans --------------------------------------------------------------------

def integer_partitions(n: int):
    """Partitions of n as descending tuples, reverse-lexicographic order."""
    acc = []

    def rec(rem, cap):
        if rem == 0:
            yield tuple(acc)
            return
        for p in range(min(rem, cap), 0, -1):
            acc.append(p)
            yield from rec(rem - p, p)
            acc.pop()

    yield from rec(n, n)


@dataclass
class ScanRow:
    graph_id: str
    parts: tuple[int, ...] | None
    value: int | None
    method: str | None
    vs_turan: int | None
    error: str | None = None
    rank: int | None = None
    tied: bool = False

    def to_dict(self) -> dict:
        return {
            "graph6": self.graph_id,
            "parts": list(self.parts) if self.parts else None,
            "value": str(self.value) if self.value is not None else None,
            "method": self.method,
            "vs_turan": self.vs_turan,
            "rank": self.rank,
            "tied": self.tied,
            "error": self.error,
        }


@dataclass
class ScanResult:
    n: int
    k: int
    s: int
    r: int
    family: str
    turan_count: int
    rows: list[ScanRow] = field(default_factory=list)

    @property
    def top(self) -> ScanRow | None:
        for row in self.rows:
            if row.value is not None:
                return row
        return None

    def to_dict(self) -> dict:
        return {
            "n": self.n, "k": self.k, "s": self.s, "r": self.r,
            "family": self.family,
            "turan_count": str(self.turan_count),
            "top_vs_turan": self.top.vs_turan if self.top else None,
            "rows": [row.to_dict() for row in self.rows],
        }


def extremal_scan(n: int, k: int, s: int, r: int,
                  family: str = "complete_multipartite",
                  graphs: list[Graph] | None = None,
                  graph6_path=None, **count_kwargs) -> ScanResult:
    """Count a graph family exactly and rank it; per-graph budget errors are
    recorded on their row and the scan continues."""
    if family == "complete_multipartite":
        items = [(complete_multipartite(parts), parts) for parts in integer_partitions(n)]
    elif family == "graph6_file":
        source = graphs if graphs is not None else read_graph6_file(graph6_path)
        items = [(g, None) for g in source]
    else:
        raise ContractViolationError(f"unknown scan family {family!r}")
    turan_count = r ** turan_ex(n, k)
    rows = []
    for g, parts in items:
        if g.n != n:
            rows.append(ScanRow(g.graph6, parts, None, None, None,
                                error=f"graph has {g.n} vertices, scan is for n = {n}"))
            continue
        try:
            res = count_colorings(g, k, s, r, **count_kwargs)
        except ResourceLimitError as exc:
            rows.append(ScanRow(g.graph6, parts, None, None, None, error=str(exc)))
            continue
        vs = (res.value > turan_count) - (res.value < turan_count)
        rows.append(ScanRow(g.graph6, parts, res.value, res.method, vs))
    good = [row for row in rows if row.value is not None]
    bad = [row for row in rows if row.value is None]
    good.sort(key=lambda row: (-row.value, row.parts or (), row.graph_id))
    counts = {}
    for row in good:
        counts[row.value] = counts.get(row.value, 0) + 1
    rank = 0
    prev = None
    for i, row in enumerate(good):
        if row.value != prev:
            rank = i + 1
            prev = row.value
        row.rank = rank
        row.tied = counts[row.value] > 1
    return ScanResult(n, k, s, r, family, turan_count, good + bad)


def question2_ratio(n: int, k: int, s: int, r: int, **count_kwargs) -> dict:
    """Exploratory only: the finite-n ratio of the complete graph's count to
    C(r, s-1) * (s-1)**C(n, 2), with no pass/fail semantics."""
    if r < s:
        raise ContractViolationError("ratio is about palettes with r >= s")
    res = count_colorings(complete(n), k, s, r, **count_kwargs)
    reference = comb(r, s - 1) * (s - 1) ** comb(n, 2)
    ratio = Fraction(res.value, reference)
    return {
        "n": n, "k": k, "s": s, "r": r,
        "count": str(res.value),
        "reference": str(reference),
        "ratio": f"{ratio.numerator}/{ratio.denominator}",
        "ratio_float": float(ratio),
    }


# -- cache -------------------------------------------------------------------------------

class CensusCache:
    """JSON-lines store of census polynomials keyed by (graph6, k, s, t_max).

    Puts are idempotent; corrupted lines are skipped with a warning, and
    lines written by another rtlab version are skipped silently; I/O errors
    always surface.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._entries: dict[tuple, CensusPolynomial] = {}
        self._load()

    def _load(self):
        from . import __version__
        if not self.path.exists():
            return
        with open(self.path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                    poly = CensusPolynomial.from_json_obj(obj)
                except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                    warnings.warn(f"{self.path}:{lineno}: skipping corrupted cache line ({exc})")
                    continue
                if obj.get("tool_version") == __version__:   # never reuse another version's work
                    self._entries[poly.key()] = poly

    def get(self, graph_id: str, k: int, s: int, t_max: int) -> CensusPolynomial | None:
        return self._entries.get((graph_id, k, s, t_max))

    def find_at_least(self, graph_id: str, k: int, s: int, t_min: int) -> CensusPolynomial | None:
        best = None
        for (gid, kk, ss, tm), poly in self._entries.items():
            if gid == graph_id and kk == k and ss == s and tm >= t_min:
                if best is None or tm < best.t_max:
                    best = poly
        return best

    def put(self, poly: CensusPolynomial) -> bool:
        """Append the polynomial unless its key is already stored."""
        from . import __version__
        if poly.key() in self._entries:
            return False
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(poly.to_json_obj(__version__)) + "\n")
        self._entries[poly.key()] = poly
        return True
