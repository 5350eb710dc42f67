"""Census engine: brute oracle, partition enumeration, cache, scans."""

import itertools
import math
import random
import warnings
from math import comb

import pytest

from rtlab import census
from rtlab.census import CensusCache, build_census, count_brute, count_colorings, evaluate, \
    extremal_scan, integer_partitions, question2_ratio
from rtlab.errors import ContractViolationError, ResourceLimitError
from rtlab.graphs import Graph, complete, complete_multipartite, k_cliques, turan_graph
from rtlab.propcheck import atlas_graphs
from rtlab.thresholds import turan_ex

from census_walk_oracle import walk_census
from prior_work import PRIOR_WORK_R0_K3


def stirling2(n, k):
    return sum((-1) ** (k - j) * comb(k, j) * j ** n for j in range(k + 1)) // math.factorial(k)


K3 = complete(3)
K4 = complete(4)
K5 = complete(5)
T36 = turan_graph(6, 4)


class TestBrute:
    def test_examples(self):
        assert count_brute(K3, 3, 2, 2).value == 2
        assert count_brute(K4, 4, 4, 2).value == 64
        assert count_brute(K4, 4, 2, 3).value == 3

    def test_no_cliques_counts_everything(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert count_brute(g, 3, 2, 3).value == 3 ** 2

    def test_empty_graph(self):
        assert count_brute(Graph(3), 3, 2, 4).value == 1

    def test_budget(self):
        with pytest.raises(ResourceLimitError):
            count_brute(K5, 4, 4, 10, coloring_budget=10 ** 6)

    @pytest.mark.slow
    @pytest.mark.parametrize("r", [64, 65, 100])
    @pytest.mark.parametrize("s", [2, 3])
    @pytest.mark.parametrize("g", [K3, Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])],
                             ids=["K3", "K3+pendant"])
    def test_more_than_64_colors(self, g, s, r):
        # past r = 64 a clique's colors are counted by sorting, not by a
        # 64-bit mask; the triangle shows one color at s = 2 and at most two
        # at s = 3, and a pendant edge takes any color
        triangle = r if s == 2 else r ** 3 - r * (r - 1) * (r - 2)
        brute = count_brute(g, 3, s, r).value
        assert brute == count_colorings(g, 3, s, r, method="census").value
        assert brute == triangle * r ** (g.m - 3)

    def test_result_provenance(self):
        res = count_brute(K3, 3, 2, 2)
        assert res.method == "brute"
        assert res.nodes_visited == 2 ** 3


class TestCensus:
    def test_monochromatic_triangle(self):
        poly = build_census(K3, 3, 2, t_max=3)
        assert poly.coefficients == {1: 1}
        assert evaluate(poly, 5).value == 5

    def test_k4_pattern_counts(self):
        poly = build_census(K4, 4, 4, t_max=6)
        assert poly.coefficients == {1: 1, 2: 31, 3: 90}
        assert evaluate(poly, 2).value == 64
        assert evaluate(poly, 3).value == count_brute(K4, 4, 4, 3).value

    def test_cliquefree_coefficients_are_stirling(self):
        g = complete_multipartite([3, 2])   # no triangles, 6 edges
        poly = build_census(g, 3, 2, t_max=6)
        assert poly.coefficients == {t: stirling2(6, t) for t in range(1, 7)}
        for r in (2, 3, 7):
            assert evaluate(poly, r).value == r ** 6

    @pytest.mark.slow
    def test_turan_graph_census_is_stirling(self):
        poly = build_census(T36, 4, 3, t_max=12)
        assert poly.coefficients == {t: stirling2(12, t) for t in range(1, 13)}
        assert evaluate(poly, 3).value == 3 ** 12

    def test_truncation_guard(self):
        poly = build_census(K4, 4, 4, t_max=2)
        with pytest.raises(ContractViolationError):
            evaluate(poly, 5)
        assert evaluate(poly, 2).value == 64

    def test_node_budget(self):
        with pytest.raises(ResourceLimitError):
            build_census(T36, 4, 3, t_max=12, node_budget=60)   # it expands 67 states

    def test_node_budget_is_exact(self):
        # the budget counts DP states; a budget of exactly the count passes
        want = build_census(K5, 4, 3, t_max=5).nodes_visited
        assert build_census(K5, 4, 3, t_max=5, node_budget=want).nodes_visited == want
        with pytest.raises(ResourceLimitError):
            build_census(K5, 4, 3, t_max=5, node_budget=want - 1)

    def test_node_budget_is_exact_with_a_race(self, monkeypatch):
        # K_{3,1,1,1,1} has 18 edges, so its candidate orders race; every
        # state any of them expands counts
        g = complete_multipartite((3, 1, 1, 1, 1))
        assert len(census._candidate_masks(g, [m for _, m in k_cliques(g, 4)])) > 1
        expanded = []
        real = census._layer

        def counted(plan, frontier, *args):
            expanded.append(len(frontier))
            return real(plan, frontier, *args)

        monkeypatch.setattr(census, "_layer", counted)
        want = build_census(g, 4, 3, t_max=8)
        assert want.nodes_visited == sum(expanded)
        assert build_census(g, 4, 3, t_max=8, node_budget=want.nodes_visited) == want
        for budget in (want.nodes_visited - 1, 3):
            with pytest.raises(ResourceLimitError):
                build_census(g, 4, 3, t_max=8, node_budget=budget)

    def test_hard_census_expands_few_states(self):
        # in its given labelling this census expanded more than 150,000 states
        poly = build_census(complete_multipartite((3, 1, 1, 1, 1)), 4, 4, t_max=16)
        assert poly.nodes_visited <= 20_000
        assert evaluate(poly, 5).value == 9_824_937_985   # as counted in the given order

    @pytest.mark.parametrize("parts, k, s, t_max, states", [
        ((1,) * 7, 4, 3, 16, 40), ((2, 2, 2, 1), 4, 4, 16, 10071),
        ((1,) * 6, 4, 4, 15, 9308), ((3, 3, 1), 3, 3, 10, 321)],
        ids=["K7-k4-s3", "K2221-k4-s4", "K6-k4-s4", "K331-k3-s3"])
    def test_states_expanded(self, monkeypatch, parts, k, s, t_max, states):
        # nodes_visited is printed; a change to the merge rules or the race
        # changes it, and must regenerate the outputs that show it.  The
        # frontier bound does not: a census under it counts the same at 1 GiB
        g = complete_multipartite(parts)
        poly = build_census(g, k, s, t_max=t_max)
        assert poly.nodes_visited == states
        monkeypatch.setattr(census, "_FRONTIER_BYTES", 1 << 30)
        assert build_census(g, k, s, t_max=t_max) == poly

    def test_empty_graph(self):
        poly = build_census(Graph(2), 3, 2)
        assert evaluate(poly, 9).value == 1

    def test_census_scan_rows(self):
        # the complete multipartite counts of census-scan at r = 4, with the
        # states each census expands; 11,865 in all.  At (4, 3) the census caps
        # the maximal cliques, which are the 4-cliques on the first four rows
        rows = [((4, 1, 1, 1), 4, 3, 80, 1084480), ((3, 2, 1, 1), 4, 3, 164, 1594624),
                ((3, 1, 1, 1, 1), 4, 3, 83, 1913056), ((2, 2, 2, 1), 4, 3, 1169, 1802248),
                ((2, 2, 1, 1, 1), 4, 3, 169, 3237952), ((2, 1, 1, 1, 1, 1), 4, 3, 80, 6314512),
                ((1,) * 7, 4, 3, 40, 12582904), ((4, 1, 1), 3, 3, 161, 40000),
                ((3, 2, 1), 3, 3, 83, 253696), ((3, 1, 1, 1), 3, 3, 176, 252544),
                ((2, 2, 2), 3, 3, 309, 406528), ((2, 2, 1, 1), 3, 3, 491, 471184),
                ((2, 1, 1, 1, 1), 3, 3, 997, 601216), ((1,) * 6, 3, 3, 7863, 843904)]
        got = [count_colorings(complete_multipartite(parts), k, s, 4, method="census")
               for parts, k, s, _, _ in rows]
        assert all(res.method == "census" for res in got)
        assert [(res.nodes_visited, res.value) for res in got] == [row[3:] for row in rows]
        assert sum(res.nodes_visited for res in got) == 11_865
        # under auto, K7 at (4, 3) takes the few-colors route, K6 at (3, 3) the
        # Gallai route and every other row the census
        auto = [count_colorings(complete_multipartite(parts), k, s, 4)
                for parts, k, s, _, _ in rows]
        assert [res.method for res in auto] == (["census"] * 6 + ["few_colors"]
                                                + ["census"] * 6 + ["gallai"])
        assert [res.value for res in auto] == [res.value for res in got]


_LAYER = census._layer


def _layers_run(monkeypatch, room=None):
    """Record, per plan, the last edge _LAYER ran and the room each layer was
    offered; with room given, every layer may remember that many canonical
    forms instead."""
    runs = {}   # id(plan) -> [plan, last edge, rooms offered]

    def recorded(plan, frontier, e, offered):
        run = runs.setdefault(id(plan), [plan, e, []])
        run[1] = e
        run[2].append(offered)
        return _LAYER(plan, frontier, e, offered if room is None else room)

    monkeypatch.setattr(census, "_layer", recorded)
    return runs


class TestPlan:
    @pytest.mark.parametrize("parts, k, s, t_max, built", [
        ((1,) * 6, 3, 3, 15, [5, 15]),       # the lexicographic order drops at layer 4
        ((1,) * 7, 4, 3, 16, [21]),          # one maximal clique: every order is the same
        ((2, 2, 2, 1), 4, 3, 16, [6, 14, 18]),
        ((3, 1, 1, 1, 1), 4, 4, 16, [7, 7, 18])])
    def test_racer_builds_only_the_steps_it_ran(self, monkeypatch, parts, k, s, t_max, built):
        # built: the steps of each candidate order, in the order they race
        runs = _layers_run(monkeypatch)
        build_census(complete_multipartite(parts), k, s, t_max=t_max)
        assert [len(plan.steps) for plan, _, _ in runs.values()] == built
        for plan, last, _ in runs.values():
            assert len(plan.steps) == last + 1

    def test_edges_no_clique_holds_are_idle(self):
        # a triangle with a path hung on it: no clique is open on the path
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)])
        plan = census._Plan([mask for _, mask in k_cliques(g, 3)], g.m, 3, 6)
        assert [plan.step(e) == (0, 0, 0, (), (), ()) for e in range(g.m)] == \
            [False, False, False, True, True, True]
        assert plan.ones == 1

    def test_steps_take_exactly_the_slots_counted(self):
        # ones is counted before any step is built; the steps then place their
        # cliques in exactly those slots
        for parts, k in (((1,) * 6, 3), ((2, 2, 2, 1), 4), ((3, 1, 1, 1), 4), ((4, 2), 2)):
            g = complete_multipartite(parts)
            for masks in census._candidate_masks(g, [mask for _, mask in k_cliques(g, k)]):
                plan = census._Plan(masks, g.m, 3, 8)
                born = 0
                for e in range(g.m):
                    born |= plan.step(e)[1]
                assert born == plan.ones


class TestCanonicalMemo:
    WHOLE = [((1,) * 6, 3, 3, 15), ((1,) * 6, 4, 4, 15), ((2, 2, 2, 1), 4, 3, 16),
             ((3, 2, 1), 3, 3, 11), ((3, 1, 1, 1, 1), 4, 4, 16)]

    def test_memo_changes_no_count(self, monkeypatch):
        # a layer's remembered canonical forms, however many, change neither
        # the coefficients nor the states
        def censuses():
            return [build_census(complete_multipartite(parts), k, s, t_max=t_max)
                    for parts, k, s, t_max in self.WHOLE]

        _layers_run(monkeypatch, room=0)
        want = censuses()
        runs = _layers_run(monkeypatch)
        assert censuses() == want
        assert min(room for _, _, offered in runs.values() for room in offered) > 0
        for room in (1, 7, 10 ** 9):
            _layers_run(monkeypatch, room=room)
            assert censuses() == want


def _same_as_walk(g, k, s, t_max, want=None):
    """The DP's coefficients are the walk's (want, when given), and its budget
    decision flips exactly at its own count of states."""
    if want is None:
        want, _ = walk_census(g, k, s, t_max, node_budget=10 ** 9)
    poly = build_census(g, k, s, t_max=t_max)
    assert poly.coefficients == want, (g.graph6, k, s, t_max)
    assert build_census(g, k, s, t_max=t_max, node_budget=poly.nodes_visited) == poly
    if g.m:
        with pytest.raises(ResourceLimitError):
            build_census(g, k, s, t_max=t_max, node_budget=poly.nodes_visited - 1)


def _relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


class TestWalkOracle:
    def test_every_graph_up_to_5_vertices(self):
        for n in range(1, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                g = Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
                for k, s in ((3, 2), (3, 3), (4, 2), (4, 3), (4, 4), (4, 5), (5, 4), (5, 7)):
                    _same_as_walk(g, k, s, max(1, min(g.m, 16)))

    def test_seeded_graphs_on_6_and_7_vertices(self):
        rng = random.Random(6)
        ks = ((3, 2), (3, 3), (4, 2), (4, 3), (4, 4), (5, 3), (5, 4))
        for i in range(30):
            n = 6 + i % 2
            k, s = ks[i % len(ks)]
            edges = set()
            while len(edges) < 9:   # a union of random k-cliques
                edges |= set(itertools.combinations(sorted(rng.sample(range(n), k)), 2))
            _same_as_walk(Graph(n, edges), k, s, max(s, 3) + i % 2)

    def test_relabelled_graphs_match_the_given_labelling(self):
        # coefficients do not depend on the labelling, nor on the order chosen
        rng = random.Random(9)
        graphs = [(complete_multipartite((3, 2, 1)), 3, 3, 9),
                  (complete_multipartite((2, 2, 1, 1)), 4, 3, 6),
                  (complete_multipartite((3, 1, 1, 1)), 4, 4, 5),
                  (complete_multipartite((2, 1, 1, 1, 1)), 3, 3, 4)]
        for i in range(6):   # unions of random 4-cliques on 7 vertices
            edges = set()
            while len(edges) < 12:
                edges |= set(itertools.combinations(sorted(rng.sample(range(7), 4)), 2))
            graphs.append((Graph(7, edges), 4, 3, 4 + i % 3))
        for g, k, s, t_max in graphs:
            assert g.m > census._RACE_MIN_EDGES
            want, _ = walk_census(g, k, s, t_max, node_budget=10 ** 9)
            for _ in range(3):
                _same_as_walk(_relabelled(g, rng), k, s, t_max, want)

    def test_frontier_over_its_bound_exits(self, monkeypatch):
        # a frontier of more states than the bound allows, two under a bound
        # of two keys of the given order, stops the census as its node budget
        # does, after the layers whose frontiers fit
        for g, k, s, t_max in ((complete_multipartite([2, 2, 2, 1]), 4, 3, 10),
                               (K5, 3, 3, 6), (K4, 4, 4, 6),
                               (complete_multipartite([2, 2, 1]), 3, 2, 8),
                               (complete_multipartite([3, 1, 1, 1]), 4, 4, 5)):
            key_bits = census._Plan(census._capped_masks(g, k, s), g.m, s, t_max).key_bits
            monkeypatch.setattr(census, "_FRONTIER_BYTES", (key_bits + 3) // 4)
            runs = _layers_run(monkeypatch)
            with pytest.raises(ResourceLimitError, match="census frontier of .* states at edge "
                                                         ".* passes its bound of 2$"):
                build_census(g, k, s, t_max=t_max, node_budget=10 ** 9)
            assert runs

    # K6 at (4, 4) races two orders of 234-bit keys.  Their frontiers hold at
    # most 190,242 bits together before edges 0..7, and 1028 and 1164 states,
    # 512,928 bits, before edge 8; the given order's, the smaller, then holds
    # at most 1734 keys, 405,756 bits.  A bound of 56 KiB (458,752 bits) lies
    # between the last two, and one of 24 KiB (196,608 bits) below 1028 keys
    RACE_ENDS = (complete(6), 4, 4, 15)

    def test_race_ends_under_the_bound(self, monkeypatch):
        # a bound the racers pass together, but not the smallest frontier,
        # ends the race before edge 8: the given order counts the rest alone
        want = build_census(*self.RACE_ENDS)
        monkeypatch.setattr(census, "_FRONTIER_BYTES", 56 << 10)
        runs = _layers_run(monkeypatch)
        poly = build_census(*self.RACE_ENDS)
        assert poly.coefficients == want.coefficients
        assert poly.nodes_visited == want.nodes_visited - 1164
        assert [last for _, last, _ in runs.values()] == [14, 7]

    def test_race_ends_over_the_bound(self, monkeypatch):
        # a bound the smallest frontier passes alone at that edge stops the census
        monkeypatch.setattr(census, "_FRONTIER_BYTES", 24 << 10)
        with pytest.raises(ResourceLimitError, match="^census frontier of 1028 states at edge 8 "
                                                     "of 15 passes its bound of 840$"):
            build_census(*self.RACE_ENDS)

    def test_race_then_exits(self, monkeypatch):
        # the orders race through their first layers with room to remember
        # canonical forms; the winner's frontier then outgrows the bound
        monkeypatch.setattr(census, "_FRONTIER_BYTES", 64)
        runs = _layers_run(monkeypatch)
        with pytest.raises(ResourceLimitError, match="frontier of 14 states at edge 7 of 11"):
            build_census(complete_multipartite((3, 2, 1)), 3, 3, t_max=6)
        assert len(runs) > 1
        assert min(room for _, _, offered in runs.values() for room in offered) > 0

    @pytest.mark.parametrize("spare", [0, 60])
    def test_plan_rules_cut_short(self, monkeypatch, spare):
        # edges past the plan's rule budget skip the pair and group rules
        monkeypatch.setattr(census, "_PLAN_RULES", spare)
        for g, k, s, t_max in ((K5, 4, 3, 10), (K5, 3, 3, 6),
                               (complete_multipartite([3, 2, 1]), 3, 3, 6),
                               (complete_multipartite([3, 1, 1, 1]), 4, 4, 5)):
            _same_as_walk(g, k, s, t_max)


class TestOracleAgreement:
    def test_random_small_graphs(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(2, 6)
            pairs = [(u, v) for v in range(n) for u in range(v)]
            rng.shuffle(pairs)
            g = Graph(n, pairs[:rng.randint(0, min(7, len(pairs)))])
            for k in (3, 4):
                for s in (2, 3):
                    poly = build_census(g, k, s, t_max=max(1, min(g.m, 4)))
                    for r in (2, 3, 4):
                        assert evaluate(poly, r).value == count_brute(g, k, s, r).value

    def test_monotone_in_s_and_r(self):
        g = complete(5)
        vals_s = [count_colorings(g, 4, s, 5, method="census").value for s in (2, 3, 4, 5)]
        assert vals_s == sorted(vals_s)
        vals_r = [count_colorings(g, 4, 3, r, method="census").value for r in (2, 3, 4, 5)]
        assert vals_r == sorted(vals_r)


class TestAutoStrategy:
    def test_fewer_colors_shortcut(self):
        res = count_colorings(K5, 4, 4, 2)
        assert res.value == 2 ** 10 and res.method == "trivial_r_lt_s"

    def test_cliquefree_shortcut(self):
        res = count_colorings(T36, 4, 3, 7)
        assert res.value == 7 ** 12 and res.method == "trivial_kfree"

    @pytest.mark.parametrize("method", ["auto", "census", "brute"])
    def test_negative_r_rejected(self, method):
        with pytest.raises(ContractViolationError, match="r >= 0"):
            count_colorings(K4, 4, 3, -1, method=method)

    @pytest.mark.parametrize("method", ["auto", "census", "brute"])
    @pytest.mark.parametrize("k, s, r", [(-5, 3, 2), (1, 3, 4), (3, 1, 0), (3, 0, 5)])
    def test_k_and_s_rejected_on_every_route(self, method, k, s, r):
        # under auto, (-5, 3, 2) would take the r < s shortcut and (1, 3, 4)
        # the one for no k-clique on Graph(3)
        for g in (K4, Graph(3)):
            with pytest.raises(ContractViolationError, match="k >= 2, s >= 2, r >= 0"):
                count_colorings(g, k, s, r, method=method)

    @pytest.mark.parametrize("method", ["auto", "census", "brute"])
    def test_zero_colors_color_nothing(self, method):
        assert count_colorings(K4, 4, 3, 0, method=method).value == 0
        assert count_colorings(Graph(3), 4, 3, 0, method=method).value == 1

    def test_census_route(self):
        res = count_colorings(K4, 4, 3, 3, method="census")
        assert res.method == "census"
        assert res.value == count_brute(K4, 4, 3, 3).value

    def test_cliques_enumerated_once(self, monkeypatch):
        # a count lists the cliques it caps once, by one enumerator: the
        # maximal cliques at (4, 3), the k-cliques at (3, 3)
        calls = []

        def counted(real):
            def enumerate_once(*args, **kwargs):
                calls.append(real.__name__)
                return real(*args, **kwargs)
            return enumerate_once

        want = [count_brute(K5, k, 3, 3).value for k in (4, 3)]
        for name in ("k_cliques", "maximal_cliques"):
            monkeypatch.setattr(census, name, counted(getattr(census, name)))
        for k, value, enumerator in zip((4, 3), want, ("maximal_cliques", "k_cliques")):
            calls.clear()
            assert count_colorings(K5, k, 3, 3, method="census").value == value
            assert calls == [enumerator]



def _is_prime(q, adj):
    """No vertex set of size 2..q-1 is a module: some vertex outside it sees
    part of it."""
    for sub in range(1, 1 << q):
        if 2 <= sub.bit_count() < q and all(
                adj[v] & sub in (0, sub) for v in range(q) if not sub >> v & 1):
            return False
    return True


def _prime_graphs(q):
    """Labelled prime graphs on q vertices, by checking every graph."""
    pairs = list(itertools.combinations(range(q), 2))
    count = 0
    for mask in range(1 << len(pairs)):
        adj = [0] * q
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        count += _is_prime(q, adj)
    return count


class TestGallaiRoute:
    # K_n at (k, s) = (3, 3) under auto: the Gallai recurrence
    @pytest.mark.parametrize("n", range(3, 7))
    def test_equals_census(self, n):
        poly = build_census(complete(n), 3, 3)
        assert census._gallai_count(n, 2) == evaluate(poly, 2).value
        for r in range(3, 7):
            res = count_colorings(complete(n), 3, 3, r)
            assert (res.method, res.nodes_visited) == ("gallai", 0)
            assert res.value == evaluate(poly, r).value

    def test_equals_brute(self):
        for n in range(1, 6):
            for r in range(2, 5):
                assert census._gallai_count(n, r) == count_brute(complete(n), 3, 3, r).value

    def test_prime_counts_pinned(self, monkeypatch):
        # P(4): the 4!/2 labelled P4s; P(5): P5 60, C5 12, bull 60, house 60
        monkeypatch.setattr(census, "_PRIME_GRAPHS", [0, 0, 0, 0])
        census._gallai_count(8, 3)   # a cold cache, filled through the r = 2 walk
        assert census._PRIME_GRAPHS == [0, 0, 0, 0, 12, 192, 10_800, 970_080, 161_310_240]
        # no quotient on 3 children is prime; the recurrence has none below 4
        assert [_prime_graphs(q) for q in (3, 4, 5)] == census._PRIME_GRAPHS[3:6]

    def test_cache_changes_no_count(self, monkeypatch):
        warm = [census._gallai_count(n, 4) for n in range(1, 12)]
        monkeypatch.setattr(census, "_PRIME_GRAPHS", [0, 0, 0, 0])
        assert [census._gallai_count(n, 4) for n in range(1, 12)] == warm

    def test_other_graphs_and_methods_keep_their_routes(self):
        k6_minus_edge = Graph(6, [e for e in itertools.combinations(range(6), 2) if e != (0, 1)])
        assert count_colorings(k6_minus_edge, 3, 3, 4).method == "census"
        assert count_colorings(K5, 4, 3, 4).method == "few_colors"
        assert count_colorings(K5, 3, 4, 4).method == "census"
        forced = count_colorings(complete(6), 3, 3, 4, method="census")
        assert (forced.method, forced.nodes_visited, forced.value) == ("census", 7863, 843904)
        assert count_colorings(K4, 3, 3, 3, method="brute").method == "brute"

    def test_reaches_64_vertices(self):
        res = count_colorings(complete(64), 3, 3, 3)
        assert res.method == "gallai"
        # q2's reference, C(3, 2) * 2^C(n,2), is within 1e-12 of the count
        reference = 3 * 2 ** comb(64, 2)
        assert reference < res.value < reference + reference // 10 ** 12


def _few_color_cells(n_max):
    """(n, k, s) of every K_n with 3 <= n <= n_max in the few-colors regime."""
    return [(n, k, s) for n in range(3, n_max + 1) for s in range(2, n)
            for k in range(max(3, 2 * s - 2), n + 1)]


class TestFewColorsRoute:
    # K_n at n >= k >= max(3, 2s - 2) under auto: the colorings with at most s - 1 colors
    def test_equals_census(self):
        cells = _few_color_cells(7)
        assert len(cells) == 28
        for n, k, s in cells:
            poly = build_census(complete(n), k, s, t_max=comb(n, 2))
            for r in range(s, 7):
                res = count_colorings(complete(n), k, s, r)
                assert (res.method, res.nodes_visited) == ("few_colors", 0)
                assert res.value == evaluate(poly, r).value

    def test_equals_brute(self):
        for n, k, s in _few_color_cells(5):
            for r in range(s, 5):
                assert count_colorings(complete(n), k, s, r).value == \
                    count_brute(complete(n), k, s, r).value

    @pytest.mark.parametrize("n, k, s, matchings", [(6, 5, 4, 15), (8, 7, 5, 105)])
    def test_one_vertex_short_of_the_bound_keeps_the_census(self, n, k, s, matchings):
        # at k = 2s - 3 the perfect matchings of K_{2s-2}, each edge in a new
        # color on a one-color background, show s colors and are admissible
        res = count_colorings(complete(n), k, s, s + 1)
        poly = build_census(complete(n), k, s)
        assert res.method == "census" and max(poly.coefficients) == s
        assert poly.coefficients[s] == matchings
        assert res.value == (census._few_color_count(comb(n, 2), s, s + 1)
                             + matchings * math.perm(s + 1, s))

    def test_other_cells_keep_their_routes(self):
        assert count_colorings(K4, 2, 2, 3).method == "census"
        assert count_colorings(K5, 3, 3, 4).method == "gallai"
        assert count_colorings(K5, 4, 3, 2).method == "trivial_r_lt_s"
        assert count_colorings(K4, 5, 2, 3).method == "trivial_kfree"

    def test_reaches_64_vertices(self):
        res = count_colorings(complete(64), 4, 3, 5)
        # one color on every edge, or two: C(5, 2) (2^m - 2) + 5
        assert (res.method, res.value) == ("few_colors", 10 * (2 ** comb(64, 2) - 2) + 5)


#: (k, s) cells with k >= max(3, 2s - 2), where the census caps maximal cliques
_MAXIMAL_CELLS = ((3, 2), (4, 2), (5, 2), (4, 3), (5, 3), (6, 3), (6, 4), (7, 4))


class TestMaximalCliqueCensus:
    # at k >= max(3, 2s - 2) the census caps the maximal cliques of at least k
    # vertices; the walk oracle and brute force still check every k-clique
    def test_equals_the_k_clique_census_on_the_atlas(self):
        pairs = 0
        for g in atlas_graphs(7):
            for k, s in _MAXIMAL_CELLS:
                masks = [mask for _, mask in k_cliques(g, k)]
                if masks:
                    pairs += 1
                    t_max = min(g.m, 8)
                    assert build_census(g, k, s, t_max=t_max).coefficients == \
                        build_census(g, k, s, t_max=t_max, masks=masks).coefficients, \
                        (g.graph6, k, s)
        assert pairs == 2029

    def test_equals_brute(self):
        for g in atlas_graphs(5):
            for k, s in _MAXIMAL_CELLS:
                if k_cliques(g, k):
                    poly = build_census(g, k, s)
                    for r in (s, s + 1):
                        assert evaluate(poly, r).value == count_brute(g, k, s, r).value

    def test_cells_outside_keep_the_k_cliques(self):
        # at k = 2s - 3 a coloring may show s colors on a maximal clique and
        # fewer on each of its k-cliques; TestFewColorsRoute checks K6 at
        # (5, 4) and K8 at (7, 5), and these the cell (3, 3)
        for g in (K5, complete_multipartite((2, 1, 1, 1, 1))):
            assert count_colorings(g, 3, 3, 3, method="census").value == \
                count_brute(g, 3, 3, 3).value

    def test_fewer_states(self):
        # two K6s sharing a K5 against their 25 K4s
        g = complete_multipartite((2, 1, 1, 1, 1, 1))
        masks = [mask for _, mask in k_cliques(g, 4)]
        assert len(census._capped_masks(g, 4, 3)) == 2 and len(masks) == 25
        assert build_census(g, 4, 3, masks=masks).nodes_visited == 819
        assert build_census(g, 4, 3).nodes_visited == 80

    def test_two_k9_sharing_a_k8(self):
        # the K8 in two of the 5 colors and every other edge in those two, or
        # the K8 in one color and each outer vertex's 8 edges in it and at
        # most one more; the k-clique census stops on its frontier bound
        res = count_colorings(complete_multipartite((2,) + (1,) * 8), 4, 3, 5)
        assert (res.method, res.nodes_visited) == ("census", 164)
        assert res.value == 10 * (2 ** 28 - 2) * 2 ** 16 + 5 * 1021 ** 2 == 175_921_864_345_645


class TestCompareVsTuran:
    # count(G) against the Turan graph's r ** ex(n, k): it has no k-clique
    def test_turan_graph_itself(self):
        assert count_colorings(T36, 4, 5, 7).value == 7 ** turan_ex(6, 4)

    def test_complete_beats_when_r_small(self):
        assert count_colorings(K5, 4, 4, 2).value == 2 ** 10 > 2 ** turan_ex(5, 4) == 2 ** 8

    def test_monochromatic_loses(self):
        assert count_colorings(K4, 4, 2, 3).value == 3 < 3 ** turan_ex(4, 4) == 3 ** 5

    def test_prior_work_r0_k3_at_finite_n(self):
        # r0(3, 3) = 4: from r0 on, T_2(n) beats K_n at every n from some n on;
        # below it, K_n wins at every n
        r0 = PRIOR_WORK_R0_K3[(3, 3)]

        def complete_wins(n, r):
            return count_colorings(complete(n), 3, 3, r).value > r ** turan_ex(n, 3)

        assert [n for n in range(3, 31) if complete_wins(n, r0)] == list(range(3, 8))
        assert [n for n in range(3, 31) if complete_wins(n, r0 + 1)] == list(range(3, 7))
        assert all(complete_wins(n, r0 - 1) for n in range(3, 41))


class TestScan:
    def test_partitions(self):
        assert list(integer_partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_monochromatic_triangles_on_4(self):
        res = extremal_scan(4, 3, 2, 2)
        top = res.top
        assert top.parts == (2, 2) and top.value == 16 and top.vs_turan == 0

    def test_complete_graph_wins_small_r(self):
        res = extremal_scan(5, 4, 4, 2)
        assert res.top.parts == (1, 1, 1, 1, 1) and res.top.value == 2 ** 10
        assert not res.top.tied
        assert res.top.vs_turan == 1

    def test_turan_always_present(self):
        res = extremal_scan(6, 4, 3, 4)
        row = next(r for r in res.rows if r.parts == (2, 2, 2))
        assert row.value == 4 ** 12 == res.turan_count

    def test_budget_failures_recorded(self):
        # K_{2,1,1,1,1} expands 997 states; K6 takes the Gallai route, which has no budget
        res = extremal_scan(6, 3, 3, 5, node_budget=500)
        errs = [r for r in res.rows if r.error]
        good = [r for r in res.rows if r.value is not None]
        assert errs and good  # scan continued past per-row failures
        assert res.top.parts == (1,) * 6 and res.top.method == "gallai"

    @pytest.mark.parametrize("k, s, r", [(9, 1, 3), (-5, 3, 2), (3, 3, -1)])
    def test_contract_checked_before_any_row(self, tmp_path, k, s, r):
        path = tmp_path / "family.g6"
        path.write_text(complete(3).graph6 + "\n")   # 3 vertices: no row of n = 4 is counted
        for kwargs in ({}, {"graph6_path": path}):
            with pytest.raises(ContractViolationError, match="k >= 2, s >= 2, r >= 0"):
                extremal_scan(4, k, s, r, **kwargs)

    def test_graph6_family(self, tmp_path):
        path = tmp_path / "family.g6"
        path.write_text("\n".join([complete(4).graph6, turan_graph(4, 3).graph6]) + "\n")
        res = extremal_scan(4, 3, 2, 2, graph6_path=path)
        assert res.top.value == 16

    def test_pool_size_is_capped(self, monkeypatch):
        # a fake executor records its size and maps in-process: no process starts
        import concurrent.futures

        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(census.os, "cpu_count", lambda: 4)
        want = extremal_scan(6, 3, 3, 5, node_budget=2000).to_dict()
        assert extremal_scan(6, 3, 3, 5, node_budget=2000, jobs=10 ** 6).to_dict() == want
        assert sizes == [4]
        assert extremal_scan(3, 3, 2, 2, jobs=10 ** 6).rows and sizes == [4, 3]


class TestCache:
    def test_roundtrip_and_idempotence(self, tmp_path):
        path = tmp_path / "census.jsonl"
        cache = CensusCache(path)
        poly = build_census(K4, 4, 4, t_max=6)
        assert cache.get(poly.graph_id, 4, 4, 6) is None
        assert cache.put(poly)
        assert not cache.put(poly)      # dedup by key
        assert len(path.read_text().splitlines()) == 1
        again = CensusCache(path)
        loaded = again.get(poly.graph_id, 4, 4, 6)
        assert loaded is not None
        assert loaded.coefficients == poly.coefficients
        assert loaded.m == poly.m

    def test_find_at_least(self, tmp_path):
        cache = CensusCache(tmp_path / "c.jsonl")
        cache.put(build_census(K4, 4, 4, t_max=6))
        assert cache.find_at_least(K4.graph6, 4, 4, 3) is not None
        assert cache.find_at_least(K4.graph6, 4, 4, 7) is None

    def test_find_at_least_takes_smallest_sufficient_t_max(self, tmp_path):
        path = tmp_path / "c.jsonl"
        cache = CensusCache(path)
        for t in (5, 2, 8):
            cache.put(build_census(K4, 4, 4, t_max=t))
        cache.put(build_census(K5, 4, 4, t_max=3))   # other graph
        cache.put(build_census(K4, 4, 3, t_max=4))   # other s
        cache.put(build_census(K4, 3, 4, t_max=6))   # other k
        for reopened in (cache, CensusCache(path)):
            found = [reopened.find_at_least(K4.graph6, 4, 4, t) for t in range(1, 10)]
            assert [p and (p.graph_id, p.k, p.s, p.t_max) for p in found] == \
                [(K4.graph6, 4, 4, t) for t in (2, 2, 5, 5, 5, 8, 8, 8)] + [None]
            assert reopened.find_at_least(K5.graph6, 4, 4, 1).t_max == 3
            assert reopened.find_at_least(K5.graph6, 4, 4, 4) is None
            assert reopened.find_at_least(K4.graph6, 4, 3, 3).t_max == 4
            assert reopened.find_at_least(K4.graph6, 3, 4, 3).t_max == 6

    def test_corrupt_lines_skipped_with_warning(self, tmp_path):
        path = tmp_path / "c.jsonl"
        cache = CensusCache(path)
        cache.put(build_census(K3, 3, 2, t_max=3))
        raw = path.read_text()
        path.write_text("this is not json\n" + raw + '{"graph6": "Bw"}\n')
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            reloaded = CensusCache(path)
        assert len(caught) == 2
        assert reloaded.get(K3.graph6, 3, 2, 3) is not None

    def test_other_tool_version_skipped(self, tmp_path):
        import json
        path = tmp_path / "c.jsonl"
        CensusCache(path).put(build_census(K3, 3, 2, t_max=3))
        stale = json.loads(path.read_text())
        stale["tool_version"] = "0.0.0"
        path.write_text(json.dumps(stale) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cache = CensusCache(path)
        assert cache.get(K3.graph6, 3, 2, 3) is None
        assert cache.find_at_least(K3.graph6, 3, 2, 1) is None
        assert cache.put(build_census(K3, 3, 2, t_max=3))   # recomputed entry is stored
        assert CensusCache(path).get(K3.graph6, 3, 2, 3) is not None

    def test_count_uses_cache(self, tmp_path):
        cache = CensusCache(tmp_path / "c.jsonl")
        first = count_colorings(K4, 4, 3, 3, method="census", cache=cache)
        second = count_colorings(K4, 4, 3, 3, method="census", cache=cache)
        assert first.value == second.value
        assert len((tmp_path / "c.jsonl").read_text().splitlines()) == 1

    def test_big_coefficients_as_decimal_strings(self, tmp_path):
        import json
        path = tmp_path / "c.jsonl"
        cache = CensusCache(path)
        cache.put(build_census(complete_multipartite([3, 2]), 3, 2, t_max=6))
        obj = json.loads(path.read_text().splitlines()[0])
        assert all(isinstance(a, str) for _, a in obj["coefficients"])
        assert set(obj) == {"graph6", "k", "s", "t_max", "coefficients", "nodes_visited",
                            "tool_version"}

    def test_work_count_kept(self, tmp_path):
        path = tmp_path / "c.jsonl"
        poly = build_census(complete_multipartite([3, 1, 1, 1]), 4, 3, t_max=6)
        CensusCache(path).put(poly)
        assert CensusCache(path).get(poly.graph_id, 4, 3, 6) == poly

    def test_line_without_work_count_recomputed(self, tmp_path):
        import json
        path = tmp_path / "c.jsonl"
        CensusCache(path).put(build_census(K4, 4, 3, t_max=6))
        old = json.loads(path.read_text())
        del old["nodes_visited"]
        path.write_text(json.dumps(old) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cache = CensusCache(path)
        assert cache.find_at_least(K4.graph6, 4, 3, 1) is None
        first = count_colorings(K4, 4, 3, 3, method="census", cache=cache)
        assert first.nodes_visited > 0
        assert CensusCache(path).get(K4.graph6, 4, 3, 6).nodes_visited == first.nodes_visited


class TestQuestion2:
    def test_ratio_fields(self):
        rep = question2_ratio(4, 3, 3, 3)
        assert set(rep) >= {"count", "reference", "ratio", "ratio_float"}
        num, den = rep["ratio"].split("/")
        assert int(num) > 0 and int(den) > 0

    def test_requires_enough_colors(self):
        with pytest.raises(ContractViolationError):
            question2_ratio(4, 3, 4, 2)
