"""Graph container, graph6 codec, generators, cliques, exact partitions."""

import time
from itertools import combinations

import pytest

from rtlab.errors import ContractViolationError, ResourceLimitError
from rtlab.graphs import (MASK_BITS, Graph, GraphFormatError, complete,
                          complete_multipartite, k_cliques, max_lpartite, maximal_cliques,
                          parse_graph6, read_graph6_file, turan_graph, write_graph6)
from rtlab.thresholds import turan_ex


def has_edge(g: Graph, u: int, v: int) -> bool:
    return bool(g.adj[u] >> v & 1)


def internal_edges(g: Graph, labels) -> int:
    return sum(1 for u, v in g.edges if labels[u] == labels[v])


def count_cliques_bruteforce(g: Graph, k: int) -> int:
    """Independent all-subsets completeness test; cross-check for k_cliques."""
    cnt = 0
    for sub in combinations(range(g.n), k):
        if all(has_edge(g, u, v) for u, v in combinations(sub, 2)):
            cnt += 1
    return cnt


def maximal_cliques_bruteforce(g: Graph):
    """Independent all-subsets test: the vertex sets that every member sees
    whole and no outside vertex sees whole, sorted, with the pairs they span."""
    sees = [g.adj[v] | 1 << v for v in range(g.n)]
    out = []
    for sub in range(1, 1 << g.n):
        verts = [v for v in range(g.n) if sub >> v & 1]
        if all(sees[v] & sub == sub for v in verts) and not any(
                g.adj[v] & sub == sub for v in range(g.n) if not sub >> v & 1):
            out.append((tuple(verts), list(combinations(verts, 2))))
    return sorted(out)


def all_graphs(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


class TestGraph:
    def test_edge_order_and_index(self):
        g = Graph(4, [(3, 1), (0, 2), (0, 1)])
        assert g.edges == ((0, 1), (0, 2), (1, 3))
        assert g.edge_index(1, 3) == 2
        assert g.edge_index(3, 1) == 2
        assert g.m == 3

    def test_adjacency_consistent(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert has_edge(g, 1, 0) and has_edge(g, 2, 1) and not has_edge(g, 0, 2)
        assert sum(a.bit_count() for a in g.adj) == 2 * g.m

    def test_validation(self):
        with pytest.raises(ContractViolationError):
            Graph(0)
        with pytest.raises(ContractViolationError):
            Graph(65)
        with pytest.raises(ContractViolationError):
            Graph(3, [(0, 0)])
        with pytest.raises(ContractViolationError):
            Graph(3, [(0, 1), (1, 0)])
        with pytest.raises(ContractViolationError):
            Graph(2, [(0, 2)])


class TestGraph6:
    def test_known_codes(self):
        g = parse_graph6("A_")
        assert (g.n, g.edges) == (2, ((0, 1),))
        assert write_graph6(complete(3)) == "Bw"
        g5 = parse_graph6("D?{")
        assert g5.n == 5 and write_graph6(g5) == "D?{"

    def test_roundtrip_exhaustive_to_n6(self):
        for n in range(1, 7):
            for g in all_graphs(n):
                assert parse_graph6(write_graph6(g)) == g

    def test_written_once_per_graph(self, monkeypatch):
        from rtlab import graphs

        calls = []
        real = graphs.write_graph6
        monkeypatch.setattr(graphs, "write_graph6", lambda g: calls.append(g) or real(g))
        g = complete_multipartite([2, 2, 1])
        assert g.graph6 == g.graph6 == real(g) and len(calls) == 1
        assert parse_graph6(g.graph6) == g

    def test_long_form_header(self):
        g = turan_graph(64, 5)
        code = write_graph6(g)
        assert code.startswith("~")
        back = parse_graph6(code)
        assert back == g and back.n == 64

    def test_header_prefix_accepted(self):
        assert parse_graph6(">>graph6<<Bw") == complete(3)

    def test_parse_errors_carry_offset(self):
        with pytest.raises(GraphFormatError):
            parse_graph6("")
        with pytest.raises(GraphFormatError):
            parse_graph6("\x1c??")      # character below the graph6 range
        with pytest.raises(GraphFormatError):
            parse_graph6("B")           # truncated body
        with pytest.raises(GraphFormatError):
            parse_graph6("Bww")         # trailing garbage
        err = None
        try:
            parse_graph6("B?w")         # extra characters beyond body
        except GraphFormatError as e:
            err = e
        assert err is not None and hasattr(err, "offset")
        with pytest.raises(GraphFormatError):
            parse_graph6("?")           # n = 0 out of range
        with pytest.raises(GraphFormatError):
            parse_graph6("A`")          # nonzero padding bits

    def test_file_reads_one_graph_per_line(self, tmp_path):
        path = tmp_path / "family.g6"
        path.write_text("Bw\r\n\n  A_\n")
        assert read_graph6_file(path) == [complete(3), complete(2)]

    def test_non_ascii_file_is_a_format_error(self, tmp_path):
        path = tmp_path / "bad.g6"
        path.write_bytes(b"Bw\nB\xc3w\n")
        with pytest.raises(GraphFormatError, match="non-ASCII") as info:
            read_graph6_file(path)
        assert info.value.offset == 4


class TestGenerators:
    def test_counts(self):
        assert turan_graph(6, 4).m == 12
        assert complete(5).m == 10
        assert complete_multipartite([3, 3]).m == 9

    def test_turan_matches_formula(self):
        for k in range(2, 7):
            for n in range(1, 20):
                assert turan_graph(n, k).m == turan_ex(n, k)

    def test_turan_parts_larger_first(self):
        g = turan_graph(7, 4)   # parts 3, 2, 2
        assert not has_edge(g, 0, 1) and not has_edge(g, 1, 2)
        assert has_edge(g, 0, 3)


class TestCliques:
    def test_examples(self):
        assert len(k_cliques(complete(5), 4)) == 5
        assert k_cliques(turan_graph(6, 4), 4) == []
        k4_minus = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        assert len(k_cliques(k4_minus, 3)) == 2

    def test_masks_have_right_size(self):
        from math import comb
        for verts, mask in k_cliques(complete(6), 4):
            assert mask.bit_count() == comb(4, 2)
            assert len(verts) == 4

    def test_lex_order(self):
        cliques = [v for v, _ in k_cliques(complete(5), 3)]
        assert cliques == sorted(cliques)

    def test_vs_bruteforce(self):
        import random
        rng = random.Random(11)
        for _ in range(120):
            n = rng.randint(2, 7)
            g = Graph(n, [(u, v) for u, v in combinations(range(n), 2)
                          if rng.random() < 0.6])
            for k in (2, 3, 4, 5):
                assert len(k_cliques(g, k)) == count_cliques_bruteforce(g, k)

    def test_k_above_n(self):
        assert k_cliques(complete(3), 5) == []

    def test_mask_cap(self):
        assert complete(17).m > MASK_BITS
        with pytest.raises(ResourceLimitError, match="capped at"):
            k_cliques(complete(17), 3)
        assert k_cliques(turan_graph(20, 4), 4) == []   # 133 edges, but no K4

    @pytest.mark.parametrize("lister", (k_cliques, maximal_cliques))
    def test_mask_cap_at_first_clique(self, lister):
        # 1,792 edges and 8^8 K8s, all maximal: refused at the first one, in
        # milliseconds; a search that listed them all first takes about 20 s
        g = turan_graph(64, 9)
        assert g.m == 1792
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="capped at 128"):
            lister(g, 8)
        assert time.perf_counter() - start < 2


class TestMaximalCliques:
    def test_vs_bruteforce_on_every_graph_to_n6(self):
        # the same cliques, in the same lexicographic order, with masks that
        # hold exactly the edges each clique spans
        for n in range(1, 7):
            for g in all_graphs(n):
                every = maximal_cliques_bruteforce(g)
                for min_size in range(1, n + 2):
                    got = maximal_cliques(g, min_size)
                    assert [(verts, [g.edges[i] for i in range(g.m) if mask >> i & 1])
                            for verts, mask in got] == \
                        [clique for clique in every if len(clique[0]) >= min_size]

    def test_examples(self):
        g = complete_multipartite((2, 1, 1, 1, 1, 1))
        assert [verts for verts, _ in maximal_cliques(g, 4)] == \
            [(0, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6)]
        assert len(k_cliques(g, 4)) == 25
        assert maximal_cliques(g, 7) == []
        assert maximal_cliques(complete(3), 5) == []

    def test_mask_cap(self):
        with pytest.raises(ResourceLimitError, match="capped at"):
            maximal_cliques(complete(17), 3)
        assert maximal_cliques(turan_graph(20, 4), 4) == []   # 133 edges, but no K4
        with pytest.raises(ResourceLimitError, match="capped at"):
            maximal_cliques(turan_graph(20, 4), 3)

    def test_min_size_checked(self):
        with pytest.raises(ContractViolationError, match="min_size >= 1"):
            maximal_cliques(complete(3), 0)


class TestMaxLPartite:
    def test_examples(self):
        c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        labels, cross = max_lpartite(c5, 2)
        assert cross == 4
        assert internal_edges(c5, labels) == 1
        assert max_lpartite(complete(4), 3)[1] == 5
        assert max_lpartite(complete_multipartite([3, 3]), 2)[1] == 9

    def test_partition_consistent_with_count(self):
        g = turan_graph(7, 4)
        labels, cross = max_lpartite(g, 3)
        assert g.m - internal_edges(g, labels) == cross == g.m

    def test_vs_bruteforce(self):
        import itertools
        import random
        rng = random.Random(3)
        for _ in range(80):
            n = rng.randint(1, 6)
            edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.5]
            g = Graph(n, edges)
            for parts in (2, 3):
                _, got = max_lpartite(g, parts)
                best = 0
                for labels in itertools.product(range(parts), repeat=n):
                    best = max(best, sum(1 for u, v in edges if labels[u] != labels[v]))
                assert got == best

    def test_budget(self):
        with pytest.raises(ResourceLimitError):
            max_lpartite(complete(20), 2)

    def test_lemma_bound_spot(self):
        # strictly more than (l-1)m/l cross edges, small sweep
        for n in range(2, 6):
            for g in all_graphs(n):
                if g.m == 0:
                    continue
                for parts in (2, 3):
                    _, cross = max_lpartite(g, parts)
                    assert cross * parts > (parts - 1) * g.m
