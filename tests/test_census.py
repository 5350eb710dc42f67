"""Census engine: brute oracle, partition enumeration, cache, scans."""

import math
import warnings
from math import comb

import pytest

from rtlab.census import CensusCache, build_census, compare_vs_turan, \
    count_brute, count_colorings, evaluate, extremal_scan, integer_partitions, \
    question2_ratio
from rtlab.errors import ContractViolationError, ResourceLimitError
from rtlab.graphs import Graph, complete, complete_multipartite, turan_graph


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
            build_census(T36, 4, 3, t_max=12, node_budget=1000)

    def test_parallel_matches_sequential(self):
        g = complete_multipartite([2, 2, 2])
        seq = build_census(g, 4, 3, t_max=8)
        par = build_census(g, 4, 3, t_max=8, jobs=3)
        assert seq.coefficients == par.coefficients

    def test_empty_graph(self):
        poly = build_census(Graph(2), 3, 2)
        assert evaluate(poly, 9).value == 1


class TestOracleAgreement:
    def test_random_small_graphs(self):
        import random
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

    def test_census_route(self):
        res = count_colorings(K4, 4, 3, 3)
        assert res.method == "census"
        assert res.value == count_brute(K4, 4, 3, 3).value


class TestCompareVsTuran:
    def test_turan_graph_itself(self):
        ordering, res, ref = compare_vs_turan(T36, 4, 5, 7)
        assert ordering == 0 and res.value == ref

    def test_complete_beats_when_r_small(self):
        ordering, res, ref = compare_vs_turan(K5, 4, 4, 2)
        assert ordering == 1 and res.value == 2 ** 10 and ref == 2 ** 8

    def test_monochromatic_loses(self):
        ordering, res, ref = compare_vs_turan(K4, 4, 2, 3)
        assert ordering == -1 and res.value == 3 and ref == 3 ** 5


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
        res = extremal_scan(6, 3, 3, 5, node_budget=2000)
        errs = [r for r in res.rows if r.error]
        good = [r for r in res.rows if r.value is not None]
        assert errs and good  # scan continued past per-row failures

    def test_graph6_family(self, tmp_path):
        path = tmp_path / "family.g6"
        path.write_text("\n".join([complete(4).graph6, turan_graph(4, 3).graph6]) + "\n")
        res = extremal_scan(4, 3, 2, 2, family="graph6_file", graph6_path=path)
        assert res.top.value == 16


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
        first = count_colorings(K4, 4, 3, 3, cache=cache)
        second = count_colorings(K4, 4, 3, 3, cache=cache)
        assert first.value == second.value
        assert len((tmp_path / "c.jsonl").read_text().splitlines()) == 1

    def test_big_coefficients_as_decimal_strings(self, tmp_path):
        import json
        path = tmp_path / "c.jsonl"
        cache = CensusCache(path)
        cache.put(build_census(complete_multipartite([3, 2]), 3, 2, t_max=6))
        obj = json.loads(path.read_text().splitlines()[0])
        assert all(isinstance(a, str) for _, a in obj["coefficients"])
        assert set(obj) == {"graph6", "k", "s", "t_max", "coefficients", "tool_version"}


class TestQuestion2:
    def test_ratio_fields(self):
        rep = question2_ratio(4, 3, 3, 3)
        assert set(rep) >= {"count", "reference", "ratio", "ratio_float"}
        num, den = rep["ratio"].split("/")
        assert int(num) > 0 and int(den) > 0

    def test_requires_enough_colors(self):
        with pytest.raises(ContractViolationError):
            question2_ratio(4, 3, 4, 2)
