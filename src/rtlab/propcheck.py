"""Desk-scale checkers for the package's supporting inequalities.

Each checker sweeps an exhaustive or seeded instance family and returns a
CheckReport; a fail verdict means a counterexample was found, which for
proved statements indicates an implementation bug.  Where quantities are
compared, the comparisons are exact: big-integer inequalities or rational
arithmetic, never floats.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .errors import ContractViolationError, ResourceLimitError
from .graphs import DEFAULT_PARTITION_BUDGET, Graph, complete_multipartite, k_cliques, \
    max_lpartite, turan_graph
from .thresholds import threshold_report, turan_ex

DEFAULT_SEED = 20260809

#: Previously reported pairs with r0 = r1 + 1 for 4 <= k <= 9.  The census
#: below recomputes the set from scratch; note the reported list is
#: described as covering s >= 4 yet contains (9, 3).
REPORTED_TIGHT_PAIRS = frozenset(
    {(5, 4), (7, 4), (7, 5), (8, 4), (8, 5), (9, 3), (9, 4), (9, 6)})


@dataclass
class CheckReport:
    check_name: str
    instances_tested: int = 0
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    seed: int | None = None

    @property
    def verdict(self) -> str:
        return "pass" if not self.failures else "fail"

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "check_name": self.check_name,
            "instances_tested": self.instances_tested,
            "failures": [list(f) for f in self.failures],
            "verdict": self.verdict,
            "notes": list(self.notes),
            "seed": self.seed,
        }


# -- graph corpora ------------------------------------------------------------------

def atlas_graphs(n_max: int):
    """Every isomorphism class on 1..min(n_max, 7) vertices, via the
    networkx graph atlas."""
    import networkx as nx
    out = []
    for ag in nx.graph_atlas_g():
        n = ag.number_of_nodes()
        if n < 1 or n > min(n_max, 7):
            continue
        out.append(Graph(n, [tuple(sorted(e)) for e in ag.edges()]))
    return out


def _random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for v in range(n) for u in range(v) if rng.random() < p]
    return Graph(n, edges)


# -- l-partite subgraph bound --------------------------------------------------------

def check_lpartite_lemma(l_values=(2, 3, 4), n_max: int = 7,
                         samples_per_n: int = 50, seed: int = DEFAULT_SEED) -> CheckReport:
    """Every graph with m >= 1 edges has an l-partite subgraph with strictly
    more than (l-1)m/l edges.

    Exhaustive over isomorphism classes for n <= 7 (the bound is invariant
    under isomorphism); larger n up to n_max are covered by seeded random
    graphs.  m = 0 is vacuous by convention: the strict bound 0 > 0 has no
    content there.  The corpus holds n_max-vertex graphs, so an n_max past
    max_lpartite's vertex cap is refused before any work.
    """
    if n_max > DEFAULT_PARTITION_BUDGET:
        raise ResourceLimitError(f"exact partition search capped at "
                                 f"{DEFAULT_PARTITION_BUDGET} vertices, got {n_max}")
    report = CheckReport("lpartite_lemma", seed=seed)
    corpus = [(g, "atlas") for g in atlas_graphs(n_max)]
    if n_max > 7:
        rng = random.Random(seed)
        for n in range(8, n_max + 1):
            for _ in range(samples_per_n):
                corpus.append((_random_graph(rng, n, rng.choice((0.2, 0.5, 0.8))), "sampled"))
    skipped_empty = 0
    for g, origin in corpus:
        if g.m == 0:
            skipped_empty += 1
            continue
        for l in l_values:
            _, cross = max_lpartite(g, l)
            report.instances_tested += 1
            if not cross * l > (l - 1) * g.m:
                report.failures.append(
                    (g.graph6, f"l={l}: cross={cross} not > {(l - 1) * g.m}/{l} ({origin})"))
    report.notes.append(f"edgeless graphs treated as vacuous: {skipped_empty}")
    return report


# -- stability bound -----------------------------------------------------------------

def check_furedi(g: Graph, k: int) -> CheckReport:
    """Stability bound: a graph with no k-clique sitting t edges below the
    Turan number admits a (k-1)-partition with at most t internal edges."""
    if k_cliques(g, k):
        raise ContractViolationError(f"graph contains a {k}-clique; the bound needs none")
    report = CheckReport("furedi_stability")
    t = turan_ex(g.n, k) - g.m
    _, cross = max_lpartite(g, k - 1)
    internal_min = g.m - cross
    report.instances_tested = 1
    if internal_min > t:
        report.failures.append((g.graph6, f"k={k}: min internal {internal_min} > t={t}"))
    report.notes.append(f"n={g.n} m={g.m} t={t} internal_min={internal_min}")
    return report


def _greedy_kfree(rng: random.Random, n: int, k: int) -> Graph:
    # random edge order, keep an edge unless it closes a k-clique
    pairs = [(u, v) for v in range(n) for u in range(v)]
    rng.shuffle(pairs)
    adj = [0] * n
    kept = []

    def creates_clique(u, v):
        # a new k-clique through (u,v) is a (k-2)-clique in N(u) & N(v)
        cand = adj[u] & adj[v]

        def grow(c, need):
            if need == 0:
                return True
            while c:
                w = (c & -c).bit_length() - 1
                c &= c - 1
                if c.bit_count() + 1 < need:
                    return False
                if grow(c & adj[w], need - 1):
                    return True
            return False

        return grow(cand, k - 2)

    for u, v in pairs:
        if not creates_clique(u, v):
            kept.append((u, v))
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return Graph(n, kept)


def furedi_suite(instances: int = 100, seed: int = DEFAULT_SEED,
                 k_values=(3, 4, 5), n_range=(6, 12)) -> CheckReport:
    """Seeded near-Turan instances: balanced multipartite graphs with edges
    deleted, unbalanced ones, and greedy maximal clique-free graphs."""
    report = CheckReport("furedi_stability_suite", seed=seed)
    rng = random.Random(seed)
    for _ in range(instances):
        k = rng.choice(k_values)
        n = rng.randint(*n_range)
        mode = rng.randrange(3)
        if mode == 0:
            g = turan_graph(n, k)
            drop = rng.randint(0, min(3, g.m))
            keep = list(g.edges)
            rng.shuffle(keep)
            g = Graph(n, keep[drop:])
        elif mode == 1:
            sizes = _jittered_sizes(rng, n, k - 1)
            g = complete_multipartite(sizes)
        else:
            g = _greedy_kfree(rng, n, k)
        single = check_furedi(g, k)
        report.instances_tested += 1
        report.failures.extend(single.failures)
    return report


def _jittered_sizes(rng: random.Random, n: int, parts: int):
    q, r = divmod(n, parts)
    sizes = [q + 1] * r + [q] * (parts - r)
    for _ in range(parts):
        i, j = rng.randrange(parts), rng.randrange(parts)
        if sizes[i] > 1:
            sizes[i] -= 1
            sizes[j] += 1
    return [x for x in sizes if x > 0]


# -- class balance of dense multipartite graphs ----------------------------------------

def check_part_sizes(samples: int = 100, k: int = 4, t: int = 16,
                     m_vertices: int = 60, seed: int = DEFAULT_SEED) -> CheckReport:
    """A (k-1)-partite graph on m vertices with at least ex(m, K_k) - t
    edges (t >= (k-1)^2) has every class within sqrt(2t) of m/(k-1),
    strictly.  Checked exactly: (size*(k-1) - m)^2 < 2t*(k-1)^2.

    Instances failing the edge threshold are excluded by the precondition,
    not counted as failures.
    """
    if t < (k - 1) ** 2:
        raise ContractViolationError(f"need t >= (k-1)^2 = {(k - 1) ** 2}, got {t}")
    report = CheckReport("part_size_balance", seed=seed)
    rng = random.Random(seed)
    m = m_vertices
    threshold = turan_ex(m, k) - t
    excluded = 0
    for _ in range(samples):
        sizes = _jittered_sizes(rng, m, k - 1)
        cross = comb(m, 2) - sum(comb(x, 2) for x in sizes)
        if cross < threshold:
            excluded += 1
            continue
        # delete random slack edges, staying at or above the threshold
        slack = rng.randint(0, cross - threshold)
        edges_after = cross - slack
        report.instances_tested += 1
        for size in sizes:
            if not (size * (k - 1) - m) ** 2 < 2 * t * (k - 1) ** 2:
                report.failures.append(
                    (tuple(sizes), f"class size {size} deviates >= sqrt(2t) "
                                   f"(edges {edges_after} >= {threshold})"))
                break
    report.notes.append(f"below edge threshold, excluded by precondition: {excluded}")
    return report


# -- entropy bounds ----------------------------------------------------------------------

def _entropy_round(n: int, a: int, b: int) -> int:
    # round a*n/b toward the nearer endpoint: floor below 1/2, ceiling
    # above.  Flooring everywhere is unsound: moving k toward n/2 grows the
    # binomial while H(a/b) keeps shrinking (n=8, a/b=15/16 already fails).
    return a * n // b if 2 * a <= b else -((-a * n) // b)


def _binom_entropy_holds(n: int, a: int, b: int) -> bool:
    # C(n, round(a*n/b)) <= 2 ** (H(a/b) * n), cleared of logarithms:
    # C^b * a^(a*n) * (b-a)^((b-a)*n) <= b^(b*n)
    c = comb(n, _entropy_round(n, a, b))
    lhs = c ** b
    if a:
        lhs *= a ** (a * n)
    if b - a:
        lhs *= (b - a) ** ((b - a) * n)
    return lhs <= b ** (b * n)


def _entropy_tail_holds(a: int, b: int) -> bool:
    # H(a/b) <= -2*(a/b)*log2(a/b), cleared: b^(b-2a) * a^a <= (b-a)^(b-a)
    return b ** (b - 2 * a) * a ** a <= (b - a) ** (b - a)


def check_entropy(grid_resolution: int = 64, n_max: int = 60) -> CheckReport:
    """Binomial-entropy bound C(n, alpha*n) <= 2^(H(alpha)*n), plus the
    small-x bound H(x) <= -2x log2 x for x <= 1/8.

    Checked (a) exhaustively at every integer ratio alpha = j/n, which is
    the inequality's native form, and (b) on the requested grid with
    alpha*n rounded toward the nearer endpoint, the sound discretization.
    Every logarithm is cleared into a big-integer power inequality, so a
    pass is rigorous.
    """
    report = CheckReport("entropy_bounds")
    g = grid_resolution
    for n in range(1, n_max + 1):
        for j in range(0, n + 1):
            report.instances_tested += 1
            if not _binom_entropy_holds(n, j, n):
                report.failures.append(((n, f"{j}/{n}"), "binomial bound violated"))
        for i in range(0, g + 1):
            frac = Fraction(i, g)
            a, b = frac.numerator, frac.denominator
            report.instances_tested += 1
            if not _binom_entropy_holds(n, a, b):
                report.failures.append(((n, f"{a}/{b}"), "binomial bound violated"))
    for i in range(1, g // 8 + 1):
        frac = Fraction(i, g)
        a, b = frac.numerator, frac.denominator
        report.instances_tested += 1
        if not _entropy_tail_holds(a, b):
            report.failures.append((f"{a}/{b}", "tail bound violated"))
    report.notes.append(f"grid resolution {g}, n up to {n_max}, "
                        f"plus all integer ratios")
    return report


# -- turan-number bounds --------------------------------------------------------------------

def check_turan_bounds(k_values=(3, 4, 5, 6, 7, 8), n_max: int = 200) -> CheckReport:
    """(k-2)n^2/(2(k-1)) - k + 1 < ex(n, K_k) <= (k-2)n^2/(2(k-1)), exactly."""
    report = CheckReport("turan_edge_bounds")
    for k in k_values:
        for n in range(k, n_max + 1):
            ex = turan_ex(n, k)
            ub = Fraction((k - 2) * n * n, 2 * (k - 1))
            report.instances_tested += 1
            if not (ub - k + 1 < ex <= ub):
                report.failures.append(((n, k), f"ex={ex} outside bounds around {ub}"))
    return report


# -- threshold gap census ----------------------------------------------------------------------

def pairs_census(k_range=(4, 9), s_min: int = 3) -> list[tuple[int, int]]:
    """All (k, s) with r0 = r1 + 1 for k in k_range and s >= s_min.  A range
    with no cell of s <= C(k, 2) tests nothing, and is refused."""
    if s_min < 3:
        raise ContractViolationError(f"r1 starts at s = 3, got s_min = {s_min}")
    lo, hi = k_range
    if lo < 4:
        raise ContractViolationError(f"k = {lo} is outside formula scope; pairs start at k = 4")
    if comb(hi, 2) < s_min:
        raise ContractViolationError(f"no k in [{lo}, {hi}] has C(k, 2) >= s_min = {s_min}")
    out = []
    for k in range(lo, hi + 1):
        for s in range(s_min, comb(k, 2) + 1):
            rep = threshold_report(k, s)
            if rep.r0 == rep.r1 + 1:
                out.append((k, s))
    return out


def pairs_report(k_range=(4, 9), s_min: int = 3) -> dict:
    """Census plus the comparison against the reported list, under both the
    s >= 3 and s >= 4 readings (the reported list says s >= 4 yet includes
    (9, 3); both readings are emitted rather than guessing intent)."""
    pairs = pairs_census(k_range, s_min)
    pairs_s3 = pairs_census(k_range, 3) if s_min > 3 else pairs
    pairs_s4 = [p for p in pairs_s3 if p[1] >= 4]
    reported = sorted(REPORTED_TIGHT_PAIRS)
    return {
        "k_range": list(k_range),
        "s_min": s_min,
        "pairs": [list(p) for p in pairs],
        "reported_pairs": [list(p) for p in reported],
        "reported_subset_of_s3_census": REPORTED_TIGHT_PAIRS.issubset(pairs_s3),
        "s4_census_equals_reported_minus_9_3":
            set(pairs_s4) == REPORTED_TIGHT_PAIRS - {(9, 3)},
        "note": "the reported list is stated for s >= 4 but includes (9, 3); "
                "the s >= 3 census contains it, the s >= 4 census does not",
    }


def find_k0(s: int, k_max: int = 30) -> CheckReport:
    """All k in [4, k_max] with r0(k, s) = s and r1(k, s) = s - 1, and the
    least k from which the property holds through k_max.  A range with no
    k of C(k, 2) >= s tests nothing, and is refused as a k_max over 40 is."""
    if s < 3:
        raise ContractViolationError(f"find_k0 needs s >= 3, got {s}")
    if k_max > 40:
        raise ContractViolationError(f"find_k0 capped at k_max = 40, got {k_max}")
    tested = [k for k in range(4, k_max + 1) if comb(k, 2) >= s]
    if not tested:
        raise ContractViolationError(f"no k in [4, {k_max}] has C(k, 2) >= s = {s}")
    report = CheckReport("threshold_equals_s")
    qualifying = []
    for k in tested:
        report.instances_tested += 1
        rep = threshold_report(k, s)
        if rep.r0 == s and rep.r1 == s - 1:
            qualifying.append(k)
    tail_start = None
    for k in tested:
        suffix = [x for x in tested if x >= k]
        if all(x in qualifying for x in suffix):
            tail_start = k
            break
    report.notes.append(f"qualifying k: {qualifying}")
    report.notes.append(f"property holds for every tested k >= {tail_start}"
                        if tail_start is not None else "no qualifying tail up to k_max")
    if tail_start is None:
        report.failures.append((s, f"no k <= {k_max} starts a qualifying tail"))
    return report
