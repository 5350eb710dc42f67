"""Exact counting of clique-color-capped edge colorings.

An r-coloring of the edges of G is admissible for parameters (k, s) when
no k-clique of G carries s or more distinct colors.  Whether a coloring is
admissible depends only on the partition of the edge set into color
classes, never on the color identities, so the engine counts set
partitions once (as restricted growth strings over an edge order it
chooses per graph) and tallies a census polynomial: a_t counts admissible
partitions with exactly t blocks, and the admissible colorings for any
palette size r number sum_t a_t * r*(r-1)*...*(r-t+1).  When
k >= max(3, 2s - 2) the census caps the colors of each maximal clique of at
least k vertices instead of each k-clique: a coloring of K_q there shows at
most s - 1 colors on every k-clique exactly when it uses at most s - 1 colors.

Complete graphs skip the census in two regimes: at (k, s) = (3, 3) they
are counted by a polynomial recurrence over Gallai's decomposition of
colorings with no rainbow triangle, and at k >= max(3, 2s - 2) by a closed
form, as their admissible colorings there are those with at most s - 1
colors.  The census still counts both when asked for by method.

A definitional brute-force oracle that walks all r**m colorings is kept
alongside and stays independent of the partition route; the two are held
equal on a large corpus by the test suite.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import accumulate
from math import comb, perm
from operator import lshift, mul
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .errors import ContractViolationError, ResourceLimitError
from .graphs import Graph, complete, complete_multipartite, k_cliques, maximal_cliques, \
    parse_graph6, read_graph6_file
from .thresholds import turan_ex

DEFAULT_COLORING_BUDGET = 10 ** 8
#: DP states a census may expand: K7 at (k, s) = (4, 4) needs 343,425.  K8..K11
#: at (4, 4) and (3, 3) and K12 at (5, 4) stop on their frontier bound before
#: this budget, after 0.4-5.4 s (2-CPU Intel Xeon VM)
DEFAULT_NODE_BUDGET = 10 ** 6
#: bytes of state keys a census frontier may hold; a census whose frontier
#: outgrows them stops, as it does on its node budget, so memory stays bounded
#: at any node budget
_FRONTIER_BYTES = 1 << 23
#: loop steps a census plan may spend on its pair and group rules; an edge whose
#: rules would pass what is left gets none, so planning stays cheap when
#: thousands of cliques are open
_PLAN_RULES = 1 << 17
#: a candidate edge order leaves the race once its frontier holds more than this
#: many times the states of the smallest, or once it holds more states than the
#: smallest after growing over one layer by more than this factor and by more
#: than _RACE_GROWTH times the smallest's growth
_RACE_SPREAD = 2
_RACE_GROWTH = 1.5
#: censuses of at most this many edges keep the given edge order: on random
#: graphs the race paid for itself from 11 edges on
_RACE_MIN_EDGES = 10
_CHUNK = 1 << 16

if TYPE_CHECKING:   # numpy is imported where it is used: only brute-force counting loads it
    import numpy as np

METHOD_BRUTE = "brute"
METHOD_CENSUS = "census"
METHOD_GALLAI = "gallai"
METHOD_FEW_COLORS = "few_colors"
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
    nodes_visited: int

    def to_dict(self) -> dict:
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
            "nodes_visited": self.nodes_visited,
            "tool_version": tool_version,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "CensusPolynomial":
        g = parse_graph6(obj["graph6"])
        coeffs = {int(t): int(a) for t, a in obj["coefficients"]}
        return cls(k=int(obj["k"]), s=int(obj["s"]), graph_id=obj["graph6"],
                   t_max=int(obj["t_max"]), coefficients=coeffs, m=g.m,
                   nodes_visited=int(obj.get("nodes_visited", 0)))


# -- brute-force oracle ----------------------------------------------------------

def _digit_block(r: int, m: int, start: int, stop: int) -> np.ndarray:
    import numpy as np

    idx = np.arange(start, stop, dtype=np.int64)
    out = np.empty((stop - start, m), dtype=np.int64)
    div = 1
    for e in range(m):
        out[:, e] = (idx // div) % r
        div *= r
    return out


def _distinct_counts(cols: np.ndarray, r: int) -> np.ndarray:
    import numpy as np

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
    import numpy as np

    _check_count(k, s, r)
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
    return CountResult(accepted, r, k, s, g.graph6, METHOD_BRUTE, total)


# -- census construction -----------------------------------------------------------
#
# The census counts restricted growth strings (RGS): labellings of the edges,
# in an edge order, in which a new block takes the next unused label.  They form
# a tree: a node at depth e with nb blocks in use has nb + [nb < t_max]
# children, one per label edge e may take, and a child dies when some capped
# clique (see _capped_masks) would show s labels.  The tree is counted layer by
# layer by a frontier DP over the same edge order, without visiting its nodes.
# Every edge order gives the same leaves per block count, since RGS in any
# order are the set partitions of the edges, but not the same number of DP
# states: build_census chooses the order per graph (see _run).
#
# A clique is open at depth e when its first edge comes before e and its last
# edge at or after e.  Later edges see the labels so far only through the label
# sets of the open cliques, so a state is those sets plus nb, and its value is
# the number of RGS prefixes that reach it.  An open clique keeps one slot for
# its lifetime: slot x is the width-bit field at bit x * width of the state's
# body, and bit l of the field says that the clique holds label l.  A key packs
# nb | u << NB | body << 2 * NB, where NB = t_max.bit_length() and u counts the
# labels that open cliques hold.  States that admit the same futures share a key:
#   * labels are renamed by sorting their signatures (the bit-0 positions of the
#     slots that hold them); labels no open clique holds are interchangeable and
#     number nb - u;
#   * a clique that cannot reach s labels (labels + remaining edges <= s - 1) is
#     dropped, and so is one whose label set and remaining edges are subsets of
#     another live clique's, as that clique reaches s labels whenever it does.
#     A dropped clique stays dropped: its field stays empty;
#   * cliques with identical remaining edges are interchangeable, so their
#     fields are sorted.

class _Plan:
    """The per-edge constants of the DP over one edge order.  An edge's step
    is built when a census first reaches the edge, so an order that leaves
    the race early never pays for the edges it did not reach.

    ones has bit 0 of every slot set and key_bits is the length of the widest
    state key.  step(e) labels edge e and holds, as masks over the slot fields:
      hit    bit 0 of each slot whose clique contains edge e;
      born   bit 0 of each slot whose clique starts at edge e;
      keep   every bit of each slot whose clique is still open at depth e + 1;
      short  (marks, j): marks the cliques open at depth e + 1 with s - j
             remaining edges, which are dropped unless they hold j labels;
      pairs  (x, ys) for open cliques x, as slot shifts, with ys the open
             cliques y != x, one of x and y in hit, whose remaining edges
             include x's;
      swaps  a compare-exchange network, as pairs of slot shifts, that sorts
             the fields of each group of open cliques with identical
             remaining edges.
    pairs and swaps are empty on the edges past the _PLAN_RULES loop
    steps, and every mask is empty on an edge that no open clique holds.
    """

    def __init__(self, masks: list[int], m: int, s: int, t_max: int):
        self.masks, self.m, self.s, self.width = masks, m, s, t_max
        self.starts = [[] for _ in range(m)]
        opened = [0] * (m + 1)   # cliques whose first edge is e, less those whose last is e - 1
        for c, mask in enumerate(masks):
            if mask & (mask - 1):   # a one-edge clique never shows two labels
                first = (mask & -mask).bit_length() - 1
                self.starts[first].append(c)
                opened[first] += 1
                opened[mask.bit_length()] -= 1
        # a clique holds its slot from its first edge to its last, and a freed
        # slot is taken before a new one, so the slots are the most open at once
        nslots = max(accumulate(opened))
        self.ones = sum(1 << x * t_max for x in range(nslots))
        self.key_bits = self.ones.bit_length() + t_max + 2 * t_max.bit_length()
        self.steps, self.slot, self.free, self.spare = [], {}, [], _PLAN_RULES

    def step(self, e: int):
        while len(self.steps) <= e:
            self._extend()
        return self.steps[e]

    def _extend(self):
        """Build the next edge's step."""
        masks, slot, free, e = self.masks, self.slot, self.free, len(self.steps)
        for c in self.starts[e]:
            slot[c] = free.pop() if free else len(slot) + len(free)
        if not slot:
            self.steps.append((0, 0, 0, (), (), ()))
            return
        field = (1 << self.width) - 1
        hit = {c for c in slot if masks[c] >> e & 1}
        rem = {c: masks[c] >> (e + 1) for c in slot if masks[c] >> (e + 1)}
        base = {c: slot[c] * self.width for c in slot}
        short = []
        for j in range(2, self.s):
            marks = sum(1 << base[c] for c, r in rem.items() if r.bit_count() == self.s - j)
            if marks:
                short.append((marks, j))
        groups = {}
        for c, r in rem.items():
            groups.setdefault(r, []).append(base[c])
        every = list(rem.items())
        touched = [(c, r) for c, r in every if c in hit]
        cost = (len(touched) * (2 * len(rem) - len(touched))   # iterations of the loops below
                + sum(len(shifts) ** 2 for shifts in groups.values()) // 2)
        pairs, swaps = [], []
        if cost <= self.spare:
            self.spare -= cost
            for x, rx in every:
                ys = [base[y] for y, ry in (every if x in hit else touched)
                      if not rx & ~ry and x != y]
                if ys:
                    pairs.append((base[x], tuple(ys)))
            for shifts in groups.values():   # odd-even transposition sort
                shifts.sort()
                for rnd in range(len(shifts)):
                    swaps += ((shifts[i], shifts[i + 1])
                              for i in range(rnd % 2, len(shifts) - 1, 2))
        self.steps.append((sum(1 << base[c] for c in hit),
                           sum(1 << base[c] for c in self.starts[e]),
                           sum(field << base[c] for c in rem),
                           tuple(short), tuple(pairs), tuple(swaps)))
        for c in [c for c in slot if c not in rem]:   # cliques whose last edge is e
            free.append(slot.pop(c))


def _layer(plan: _Plan, frontier: dict, e: int, room: int) -> dict:
    """Label edge e in every state of frontier (a dict that is consumed) and
    return the frontier at depth e + 1.

    A child's canonical body and block count depend only on its body after
    the short drops, and moves from different states often reach the same
    one, so the layer remembers the canonical form of up to room of them.
    """
    hit, born, keep, short, pairs, swaps = plan.step(e)
    ones, t_max = plan.ones, plan.width
    nbits = t_max.bit_length()
    low = (1 << nbits) - 1
    shift = 2 * nbits
    field = (1 << t_max) - 1
    cap = plan.s - 1
    down = range(cap, 0, -1)
    nxt, known = {}, {}
    get, recall = nxt.get, known.get
    while frontier:   # popping frees each state once it is expanded
        key, w = frontier.popitem()
        nb = key & low
        u = key >> nbits & low
        body = key >> shift
        sigs = [body >> label & ones for label in range(u)]
        at = [ones] + [0] * cap   # at[j]: slots whose clique holds >= j labels
        for sig in sigs:
            for j in down:
                at[j] |= at[j - 1] & sig
        full = at[cap] & hit      # any label they lack would be their s-th
        live = hit & (at[1] | born)
        moves = []   # [label, weight, signature]; weight 0: a label no open clique holds
        for label, sig in enumerate(sigs):
            if not full & ~sig:
                if moves and moves[-1][2] == sig:
                    moves[-1][1] += w
                else:
                    moves.append([label, w, sig])
        if not full and (nb > u or nb < t_max):
            moves.append([u, 0, 0])
        for label, weight, sig in moves:
            b = (body | live << label) & keep
            if short:
                gained = live & ~sig
                drop = 0
                for marks, j in short:
                    drop |= marks & ~(at[j] & ~gained | at[j - 1] & gained)
                if drop:
                    b &= ~(drop * field)
            child = recall(b)
            if child is None:
                raw = b
                for x, ys in pairs:   # in order: a dropped clique no longer covers others
                    a = b >> x & field
                    if a:
                        for y in ys:
                            c = b >> y & field
                            if c and not a & ~c:
                                b ^= a << x
                                break
                held = sorted(filter(None, [b >> i & ones for i in range(u + (label == u))]))
                b = sum(map(lshift, held, range(len(held))))
                for sx, sy in swaps:
                    a = b >> sx & field
                    c = b >> sy & field
                    if a > c:
                        a ^= c
                        b ^= a << sx | a << sy
                child = b << shift | len(held) << nbits
                if len(known) < room:
                    known[raw] = child
            if weight:
                child |= nb
                nxt[child] = get(child, 0) + weight
                continue
            if nb > u:
                nxt[child | nb] = get(child | nb, 0) + w * (nb - u)
            if nb < t_max:
                nxt[child | nb + 1] = get(child | nb + 1, 0) + w
    return nxt


# -- choice of the edge order ----------------------------------------------------
#
# No fixed order suits every graph.  On K7 at (k, s) = (4, 4) the lexicographic
# order expands 328,109 states and the clique-by-clique order passes 3.5 million
# by its 16th layer; on K_{3,1,1,1,1} the clique-by-clique order expands 2,199
# and the lexicographic one more than 150,000.  So a few candidate orders race
# through their first layers, and the race itself is the predictor.

def _clique_order(m: int, masks: list[int]) -> list[int]:
    """Edge indices clique by clique: each time the clique with the fewest edges
    not yet placed (the first on ties) adds those edges, so cliques close early;
    edges in no clique come last."""
    placed, order, left = 0, [], masks
    while left:
        new = min(left, key=lambda mask: (mask & ~placed).bit_count()) & ~placed
        order += [e for e in range(m) if new >> e & 1]
        placed |= new
        left = [mask for mask in left if mask & ~placed]
    return order + [e for e in range(m) if not placed >> e & 1]


def _candidate_masks(g: Graph, masks: list[int]) -> list[list[int]]:
    """The clique masks in each distinct candidate order, the given order first:
    the given and the reversed vertex labelling in lexicographic order, and the
    clique-by-clique order."""
    orders = (sorted(range(g.m), key=lambda i: (-g.edges[i][1], -g.edges[i][0])),
              _clique_order(g.m, masks))
    out, seen = [masks], {tuple(sorted(masks))}
    for order in orders:
        pos = [0] * g.m
        for new, old in enumerate(order):
            pos[old] = new
        moved = [sum(1 << pos[e] for e in range(g.m) if mask >> e & 1) for mask in masks]
        # an order with the masks of one already in is skipped, though its clique
        # numbering alone can change the states: K6 at (3, 3) in lexicographic
        # order expands 5,894 states in this numbering, 5,415 in the reversed one
        if tuple(sorted(moved)) not in seen:
            seen.add(tuple(sorted(moved)))
            out.append(moved)
    return out


def _run(plans: list, node_budget: int) -> tuple[list[int], int]:
    """Coefficients a_0..a_{t_max} of the census, counted over the candidate
    plans, and the states expanded over every plan and layer, raising
    ResourceLimitError before that total would pass node_budget, or before
    a layer whose smallest frontier holds more than _FRONTIER_BYTES of keys.

    One loop walks the layers, and the plans race through them in step; a
    lone plan is a race of one.  After each layer a plan drops out when its
    frontier holds more than _RACE_SPREAD times the states of the smallest,
    or when it holds more states than the smallest and grew over the layer
    by more than _RACE_SPREAD and by more than _RACE_GROWTH times the
    smallest's growth: an order may trail early and win late (K7 in the
    given order), but on the graphs measured none that outgrew the smallest
    so went on to win.  Before a layer whose frontiers together pass the
    bound, the race ends: the smallest frontier, the earliest plan on ties,
    goes on alone, as it wins when the plans finish.  Each layer remembers
    canonical forms in the room its frontiers leave under the bound.
    """
    racers = [(plan, 1, {0: 1}) for plan in plans]   # (plan, states before the layer, frontier)
    m, nodes, bits = plans[0].m, 0, 8 * _FRONTIER_BYTES
    for e in range(m):
        held = sum(len(fr) * plan.key_bits for plan, _, fr in racers)
        if len(racers) > 1 and held > bits:
            racers = [min(racers, key=lambda racer: len(racer[2]))]
            held = len(racers[0][2]) * racers[0][0].key_bits
        if held > bits:
            plan, _, frontier = racers[0]
            raise ResourceLimitError(f"census frontier of {len(frontier)} states at edge {e} "
                                     f"of {m} passes its bound of {bits // plan.key_bits}")
        nodes += sum(len(fr) for _, _, fr in racers)
        if nodes > node_budget:   # before the work, so work past the budget is never done
            raise ResourceLimitError(f"census node budget {node_budget} exceeded")
        racers = [(plan, len(fr), _layer(plan, fr, e, (bits - held) // plan.key_bits))
                  for plan, _, fr in racers]
        if len(racers) > 1:
            _, was, least = min(racers, key=lambda racer: len(racer[2]))
            racers = [(plan, before, fr) for plan, before, fr in racers
                      if len(fr) <= _RACE_SPREAD * len(least)
                      and not (len(fr) > len(least) and len(fr) > _RACE_SPREAD * before
                               and len(fr) * was > _RACE_GROWTH * len(least) * before)]
    plan, _, frontier = min(racers, key=lambda racer: len(racer[2]))
    low = (1 << plan.width.bit_length()) - 1
    coeffs = [0] * (plan.width + 1)
    for key, w in frontier.items():
        coeffs[key & low] += w
    return coeffs, nodes


def build_census(g: Graph, k: int, s: int, t_max: int | None = None,
                 node_budget: int = DEFAULT_NODE_BUDGET,
                 masks: list[int] | None = None) -> CensusPolynomial:
    """Tally a_t for t in [1, t_max] over all admissible edge partitions.

    masks are the edge masks of the cliques whose colors the census caps, when
    the caller has them, and otherwise are found by _capped_masks: the maximal
    cliques of at least k vertices when k >= max(3, 2s - 2), else the
    k-cliques.  nodes_visited counts the DP states expanded, over every layer
    and candidate edge order; it is the unit of node_budget, and the
    census raises ResourceLimitError exactly when it would exceed node_budget.
    """
    if s < 2:
        raise ContractViolationError(f"census needs s >= 2, got {s}")
    m = g.m
    if t_max is None:
        t_max = _census_t_max(g, 0)
    if t_max < 1:
        raise ContractViolationError(f"t_max must be >= 1, got {t_max}")
    if masks is None:
        masks = _capped_masks(g, k, s)
    # a census of few edges is over before another order could pay for its race
    candidates = _candidate_masks(g, masks) if m > _RACE_MIN_EDGES else [masks]
    coeffs, nodes = _run([_Plan(c, m, s, t_max) for c in candidates], node_budget)
    return CensusPolynomial(k=k, s=s, graph_id=g.graph6, t_max=t_max,
                            coefficients={t: a for t, a in enumerate(coeffs) if a}, m=m,
                            nodes_visited=nodes)


def evaluate(poly: CensusPolynomial, r: int) -> CountResult:
    """sum_t a_t * r*(r-1)*...*(r-t+1), exact; needs t_max >= min(m, r)."""
    if r < 0:
        raise ContractViolationError(f"evaluate needs r >= 0, got {r}")
    if poly.t_max < min(poly.m, r):
        raise ContractViolationError(
            f"census truncated at t_max = {poly.t_max} cannot evaluate at r = {r}; "
            f"need t_max >= {min(poly.m, r)}")
    value = sum(a * perm(r, t) for t, a in poly.coefficients.items())
    return CountResult(value, r, poly.k, poly.s, poly.graph_id, METHOD_CENSUS,
                       poly.nodes_visited)


# -- complete graphs at (k, s) = (3, 3) ------------------------------------------------
#
# At (3, 3) an admissible coloring of K_n is one with no rainbow triangle, a
# Gallai coloring.  Its strong-module tree (Gallai 1967; Gyarfas and Simonyi,
# J. Graph Theory 2004) is unique, and each internal node either puts one color
# on every edge between its children or has a prime two-colored quotient on
# q >= 4 children, whose insides are any Gallai colorings.  With B_{n,q}(f) the
# sum over the set partitions of n labelled vertices into q blocks of the
# product of f(block size), G(n) the colorings of K_n and C(n) those whose
# edges of other colors than a given one leave the vertices disconnected:
#   G(1) = 1,  C(n) = sum_{q >= 2} B_{n,q}(G - C),
#   G(n) = r C(n) + C(r, 2) sum_{q = 4..n} P(q) B_{n,q}(G),
# with P(q) the labelled prime graphs on q vertices.  At r = 2 every coloring
# counts, so G(n) = 2^C(n,2) there, and since B_{n,n} = 1 the same recurrence
# reads P(n) off.

#: P(q), the labelled prime graphs on q vertices, for every q < len: none below 4
_PRIME_GRAPHS = [0, 0, 0, 0]


def _block_row(m: int, f: list[int], rows: list[list[int]]) -> list[int]:
    """[B_{m,q}(f) for q = 0..m] from the rows of fewer vertices, by the size a
    of the block that holds the last vertex; the q = 1 entry, f(m), is left 0."""
    row = [0] * (m + 1)
    for a in range(1, m):
        weight, rest = comb(m - 1, a - 1) * f[a], rows[m - a]
        for q in range(1, m - a + 1):
            row[q + 1] += weight * rest[q]
    return row


def _gallai_count(n: int, r: int) -> int:
    """G(n): the colorings of K_n, n >= 1, in r colors with no rainbow triangle."""
    if r != 2 and n >= len(_PRIME_GRAPHS):
        _gallai_count(n, 2)   # extends _PRIME_GRAPHS through P(n)
    g, h = [0, 1], [0, 1]   # G(a) and G(a) - C(a), by a; C(1) = 0
    bg, bh = [[1], [0, 1]], [[1], [0, 1]]   # B_{a,q}(G) and B_{a,q}(G - C), by a then q
    for m in range(2, n + 1):
        bg.append(_block_row(m, g, bg))
        bh.append(_block_row(m, h, bh))
        c = sum(bh[m])
        if m == len(_PRIME_GRAPHS):   # P(m) not yet known, so r = 2
            _PRIME_GRAPHS.append(2 ** comb(m, 2) - 2 * c - sum(map(mul, _PRIME_GRAPHS, bg[m])))
        gm = r * c + comb(r, 2) * sum(map(mul, _PRIME_GRAPHS, bg[m]))
        g.append(gm)
        h.append(gm - c)
        bg[m][1], bh[m][1] = gm, gm - c
    return g[n]


# -- the regime k >= max(3, 2s - 2) ---------------------------------------------------
#
# With q >= k >= max(3, 2s - 2), a coloring of K_q shows at most s - 1 colors
# on every k-clique exactly when it uses at most s - 1 colors.  One that uses
# fewer shows fewer on every clique.  In one that uses s or more, some set W of
# at most max(3, 2s - 2) <= k vertices sees s colors on its edges, so the
# k-cliques that hold W see s:
#   * s = 2: K_q is connected, so two colors meet at a vertex, on 3 vertices;
#   * s = 3: two colors meet at a, on edges ab and ac, so the triangle abc sees
#     three colors or two; in the second case take an edge of a third color.
#     If it meets abc, W has 4 vertices.  If it is an edge de apart from abc,
#     the K4 abde sees three colors, or acde does, or ad has de's color (the
#     one color both allow), and then abcd sees three;
#   * s >= 4: by the case s - 1, a W of at most 2s - 4 vertices sees s - 1
#     colors; add both ends of an edge in a color W lacks.
# The bound is tight: at k = 2s - 3, color s - 1 disjoint edges of K_{2s-2} in
# new colors on a one-color background.  It sees s colors, yet each K_k misses
# an end of one of those edges (K6 at (5, 4) has a_4 = 15 and K8 at (7, 5)
# a_5 = 105 in the census, the perfect matchings).
#
# Two routes rest on this.  K_n itself is counted in closed form: its count is
# sum_{t < s} S(m, t) r(r-1)...(r-t+1), and S(m, t) t! counts the maps of the
# m edges onto t colors, by inclusion-exclusion over the colors left out.  And
# since every k-clique of a graph lies in a maximal clique of at least k
# vertices, a coloring is admissible exactly when each such maximal clique
# shows at most s - 1 colors, so the census caps those cliques instead of the
# k-cliques: fewer sets, overlapping less (K_{2,1,1,1,1,1} has 2 against 25).

def _few_colors_regime(k: int, s: int) -> bool:
    """Whether k >= max(3, 2s - 2), where both routes above hold."""
    return k >= max(3, 2 * s - 2)


def _few_color_count(m: int, s: int, r: int) -> int:
    """The r-colorings of m >= 1 edges with at most s - 1 colors, in O(s^2)
    big-integer steps."""
    powers = [j ** m for j in range(s)]
    return sum(comb(r, t) * sum((-1) ** (t - j) * comb(t, j) * powers[j] for j in range(t + 1))
               for t in range(1, s))


def _complete_count(n: int, k: int, s: int, r: int) -> tuple[int, str] | None:
    """The count of K_n and its method where a route skips the census, else
    None.  The two routes do not overlap: k = 3 takes the second only at s = 2."""
    if (k, s) == (3, 3) and n >= 3:
        return _gallai_count(n, r), METHOD_GALLAI
    if n >= k and _few_colors_regime(k, s):
        return _few_color_count(comb(n, 2), s, r), METHOD_FEW_COLORS
    return None


def _capped_masks(g: Graph, k: int, s: int) -> list[int]:
    """The edge masks of the cliques the census caps at s - 1 colors: the
    maximal cliques of at least k vertices when k >= max(3, 2s - 2), else
    the k-cliques.  Either list is empty exactly when g has no k-clique."""
    if _few_colors_regime(k, s):
        return [mask for _, mask in maximal_cliques(g, k)]
    return [mask for _, mask in k_cliques(g, k)]


# -- auto strategy -------------------------------------------------------------------

def count_colorings(g: Graph, k: int, s: int, r: int, method: str = "auto",
                    node_budget: int = DEFAULT_NODE_BUDGET,
                    coloring_budget: int = DEFAULT_COLORING_BUDGET,
                    cache: "CensusCache | None" = None) -> CountResult:
    """Count admissible colorings; auto picks the cheapest sound route.

    Shortcuts: with r < s no coloring can show s distinct colors on any
    clique, and with no k-clique present the constraint is empty, so both
    cases count r**m directly.  A complete graph K_n is counted in time
    polynomial in n at (k, s) = (3, 3), by the Gallai recurrence, and at
    n >= k >= max(3, 2s - 2), where its admissible colorings are those with
    at most s - 1 colors.  Method "census" forces the census on them.  In
    that regime the census, forced or not, caps the maximal cliques of at
    least k vertices in place of the k-cliques; brute force still checks
    every k-clique.
    """
    _check_count(k, s, r)
    if method == "brute":
        return count_brute(g, k, s, r, coloring_budget=coloring_budget)
    if method not in ("auto", "census"):
        raise ContractViolationError(f"unknown method {method!r}")
    if method == "auto" and r < s:
        return CountResult(r ** g.m, r, k, s, g.graph6, METHOD_TRIVIAL_FEWER_COLORS, 0)
    if method == "auto" and g.m == comb(g.n, 2):
        route = _complete_count(g.n, k, s, r)
        if route:
            return CountResult(route[0], r, k, s, g.graph6, route[1], 0)
    masks = _capped_masks(g, k, s)
    if method == "auto" and not masks:
        return CountResult(r ** g.m, r, k, s, g.graph6, METHOD_TRIVIAL_KFREE, 0)
    t_need = _census_t_max(g, r)
    # the exact key: a census of a larger t_max would serve, but its
    # nodes_visited is not what this count prints when it builds its own
    poly = cache.get(g.graph6, k, s, t_need) if cache else None
    if poly is None:
        poly = build_census(g, k, s, t_max=t_need, node_budget=node_budget, masks=masks)
        if cache:
            cache.put(poly)
    return evaluate(poly, r)


def _check_count(k: int, s: int, r: int):
    """The contract of every count and scan, whatever its route."""
    if k < 2 or s < 2 or r < 0:
        raise ContractViolationError(f"count needs k >= 2, s >= 2, r >= 0, got {(k, s, r)}")


def _census_t_max(g: Graph, r: int) -> int:
    """The census t_max for r colors: at least 16, to serve r <= 16, and at most m."""
    return max(1, min(g.m, max(16, r)))


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


def _scan_row(n, k, s, r, turan_count, count_kwargs, task):
    """One unranked scan row and the census it built or None, for the parent
    to cache; task is (graph, parts, the parent's cached census or None)."""
    g, parts, found = task
    if g.n != n:
        return ScanRow(g.graph6, parts, None, None, None,
                       error=f"graph has {g.n} vertices, scan is for n = {n}"), None
    built = []
    cache = SimpleNamespace(get=lambda *key: found, put=built.append)
    try:
        res = count_colorings(g, k, s, r, cache=cache, **count_kwargs)
    except ResourceLimitError as exc:
        return ScanRow(g.graph6, parts, None, None, None, error=str(exc)), None
    vs = (res.value > turan_count) - (res.value < turan_count)
    return ScanRow(g.graph6, parts, res.value, res.method, vs), built[0] if built else None


def extremal_scan(n: int, k: int, s: int, r: int, graph6_path=None, jobs: int = 1,
                  cache: "CensusCache | None" = None, **count_kwargs) -> ScanResult:
    """Count a graph family exactly and rank it: the graphs of graph6_path,
    or without one every complete multipartite graph on n vertices.  Per-graph
    budget errors are recorded on their row and the scan continues.  With
    jobs > 1 a pool of up to jobs processes counts the rows, each under its
    own budget, and they return in input order, so the result does not depend
    on jobs."""
    _check_count(k, s, r)   # before any row, so no row can skip it
    if graph6_path:
        family = "graph6_file"
        items = [(g, None) for g in read_graph6_file(graph6_path)]
    else:
        family = "complete_multipartite"
        items = [(complete_multipartite(parts), parts) for parts in integer_partitions(n)]
    turan_count = r ** turan_ex(n, k)
    # rows print no nodes_visited, so a census of a larger t_max serves them
    tasks = [(g, parts, cache and cache.find_at_least(g.graph6, k, s, _census_t_max(g, r)))
             for g, parts in items]
    count_row = partial(_scan_row, n, k, s, r, turan_count, count_kwargs)
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(count_row, tasks))
    else:
        done = map(count_row, tasks)
    rows = []
    for scan_row, poly in done:
        rows.append(scan_row)
        if cache and poly:
            cache.put(poly)
    good = [row for row in rows if row.value is not None]
    bad = [row for row in rows if row.value is None]
    good.sort(key=lambda row: (-row.value, row.parts or (), row.graph_id))
    counts = {}
    for row in good:
        counts[row.value] = counts.get(row.value, 0) + 1
    rank, prev = 0, None
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

    Each line keeps the census's nodes_visited, so a count read back prints
    what the count that built it printed.  Puts are idempotent; corrupted
    lines are skipped with a warning, and lines written by another rtlab
    version or without nodes_visited are skipped silently; I/O errors always
    surface.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._entries: dict[tuple, dict[int, CensusPolynomial]] = {}   # (graph6, k, s) -> by t_max
        self._load()

    def _add(self, poly: CensusPolynomial):
        self._entries.setdefault((poly.graph_id, poly.k, poly.s), {})[poly.t_max] = poly

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
                # never reuse another version's work, nor a census without its work count
                if obj.get("tool_version") == __version__ and "nodes_visited" in obj:
                    self._add(poly)

    def get(self, graph_id: str, k: int, s: int, t_max: int) -> CensusPolynomial | None:
        return self._entries.get((graph_id, k, s), {}).get(t_max)

    def find_at_least(self, graph_id: str, k: int, s: int, t_min: int) -> CensusPolynomial | None:
        """The stored polynomial with the smallest t_max >= t_min, if any."""
        by_t_max = self._entries.get((graph_id, k, s), {})
        fits = [t for t in by_t_max if t >= t_min]
        return by_t_max[min(fits)] if fits else None

    def put(self, poly: CensusPolynomial) -> bool:
        """Append the polynomial unless its key is already stored."""
        from . import __version__
        if self.get(*poly.key()) is not None:
            return False
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(poly.to_json_obj(__version__)) + "\n")
        self._add(poly)
        return True
