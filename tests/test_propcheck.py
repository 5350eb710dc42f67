"""Property checkers: partition bound, stability, balance, entropy, censuses."""

import random

import pytest

from rtlab.errors import ContractViolationError
from rtlab.graphs import Graph, complete, complete_multipartite, turan_graph
from rtlab import propcheck as pc

from test_graphs import count_cliques_bruteforce


C5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


class TestLPartiteLemma:
    def test_small_exhaustive(self):
        rep = pc.check_lpartite_lemma(l_values=(2, 3), n_max=5)
        assert rep.passed and rep.instances_tested > 0

    def test_sampled_mode(self):
        rep = pc.check_lpartite_lemma(l_values=(2,), n_max=8, samples_per_n=5, seed=1)
        assert rep.passed
        assert rep.seed == 1

    def test_vacuous_note(self):
        rep = pc.check_lpartite_lemma(l_values=(2,), n_max=3)
        assert any("vacuous" in n for n in rep.notes)


class TestFuredi:
    def test_turan_minus_edge(self):
        g = turan_graph(8, 4)
        edges = list(g.edges)
        rep = pc.check_furedi(Graph(8, edges[1:]), 4)
        assert rep.passed

    def test_c5(self):
        rep = pc.check_furedi(C5, 3)   # t = 6 - 5 = 1; needs exactly one deletion
        assert rep.passed
        assert "t=1 internal_min=1" in rep.notes[0]

    def test_multipartite_trivial(self):
        rep = pc.check_furedi(complete_multipartite([4, 3, 2]), 4)
        assert rep.passed
        assert "internal_min=0" in rep.notes[0]

    def test_precondition(self):
        with pytest.raises(ContractViolationError):
            pc.check_furedi(complete(4), 4)

    def test_suite(self):
        rep = pc.furedi_suite(instances=30, seed=42)
        assert rep.passed and rep.instances_tested == 30

    @pytest.mark.parametrize("k", (3, 4, 5))
    def test_greedy_kfree_is_maximal(self, k):
        # no k-clique, and every missing pair would close one
        for n in range(6, 13):
            for seed in range(3):
                g = pc._greedy_kfree(random.Random(seed), n, k)
                assert count_cliques_bruteforce(g, k) == 0
                for pair in ((u, v) for v in range(n) for u in range(v)):
                    if pair not in g.edges:
                        assert count_cliques_bruteforce(Graph(n, g.edges + (pair,)), k) > 0


class TestPartSizes:
    def test_balanced_and_jittered(self):
        rep = pc.check_part_sizes(samples=60, k=4, t=9, m_vertices=60, seed=9)
        assert rep.passed
        assert rep.instances_tested > 0

    def test_exclusions_counted(self):
        rep = pc.check_part_sizes(samples=60, k=4, t=9, m_vertices=30, seed=10)
        assert rep.passed    # below-threshold instances are excluded, not failed
        assert any("excluded" in n for n in rep.notes)

    def test_t_precondition(self):
        with pytest.raises(ContractViolationError):
            pc.check_part_sizes(samples=1, k=4, t=8)


class TestEntropy:
    def test_grid(self):
        rep = pc.check_entropy(grid_resolution=32, n_max=40)
        assert rep.passed

    def test_known_points(self):
        # alpha = 1/2 at n = 60: C(60,30) <= 2^60
        assert pc._binom_entropy_holds(60, 1, 2)
        # x = 1/8 and 1/16 tail bound
        assert pc._entropy_tail_holds(1, 8)
        assert pc._entropy_tail_holds(1, 16)

    def test_floor_rounding_would_be_unsound(self):
        # C(8, floor(15*8/16)) = C(8,7) = 8 > 2^(H(15/16)*8): near-edge
        # rounding is what makes the discretized bound true
        from math import comb
        n, a, b = 8, 15, 16
        c_floor = comb(n, a * n // b)
        assert c_floor ** b * a ** (a * n) * (b - a) ** ((b - a) * n) > b ** (b * n)
        assert pc._entropy_round(n, a, b) == 8
        assert pc._binom_entropy_holds(n, a, b)

    def test_tail_bound_eventually_fails(self):
        # the tail inequality is equality at x = 1/2 and false beyond, so the
        # checker is not vacuous
        assert pc._entropy_tail_holds(1, 2)
        assert not pc._entropy_tail_holds(5, 8)


class TestTuranBounds:
    def test_sweep(self):
        rep = pc.check_turan_bounds(k_values=(3, 5), n_max=60)
        assert rep.passed and rep.instances_tested == (61 - 3) + (61 - 5)


class TestPairs:
    def test_census_matches_reported(self):
        pairs = set(pc.pairs_census((4, 9), 3))
        expected = set(pc.REPORTED_TIGHT_PAIRS) | {(k, 3) for k in range(4, 10)}
        assert pairs == expected

    def test_examples(self):
        pairs = set(pc.pairs_census((4, 9), 3))
        assert (5, 4) in pairs
        assert (9, 3) in pairs
        assert (4, 4) not in pairs

    def test_report_both_readings(self):
        rep = pc.pairs_report((4, 9), 3)
        assert rep["reported_subset_of_s3_census"]
        assert rep["s4_census_equals_reported_minus_9_3"]

    def test_s_min_guard(self):
        with pytest.raises(ContractViolationError):
            pc.pairs_census((4, 9), 2)
        with pytest.raises(ContractViolationError):
            pc.pairs_report((4, 9), 2)

    @pytest.mark.parametrize("s_min", [3, 4, 6])
    def test_report_pairs_filter_s3_census(self, s_min):
        rep = pc.pairs_report((4, 7), s_min)
        assert rep["pairs"] == [list(p) for p in pc.pairs_census((4, 7), s_min)]


class TestFindK0:
    def test_s3_holds_everywhere(self):
        rep = pc.find_k0(3, 30)
        assert rep.passed
        assert "qualifying k: " + str(list(range(4, 31))) in rep.notes[0]

    def test_s4_nonempty_tail(self):
        # r0(5,4) = 5 = r1 + 1 but != s, so the tail starts at k = 7
        rep = pc.find_k0(4, 30)
        assert rep.passed
        qual = eval(rep.notes[0].split(": ", 1)[1])
        assert qual == list(range(7, 31))

    def test_caps(self):
        with pytest.raises(ContractViolationError):
            pc.find_k0(2, 10)
        with pytest.raises(ContractViolationError):
            pc.find_k0(3, 50)


class TestReportShape:
    def test_to_dict(self):
        rep = pc.check_entropy(grid_resolution=8, n_max=10)
        d = rep.to_dict()
        assert d["verdict"] == "pass"
        assert d["failures"] == []
        assert "instances_tested" in d
