"""Threshold formulas: Turan numbers, regimes, r0/r1, tables."""

import json
from fractions import Fraction as Fr
from math import comb

import pytest

from rtlab.errors import ContractViolationError
from rtlab.exactnum import PowerProduct
from rtlab import cli
from rtlab import lpverify as lpv
from rtlab import thresholds as th
from rtlab.thresholds import Regime


class TestTuranEx:
    def test_examples(self):
        assert th.turan_ex(6, 4) == 12      # K_{2,2,2}
        assert th.turan_ex(5, 5) == 9       # C(5,2) - 1
        assert th.turan_ex(9, 9) == 35      # C(9,2) - 1

    def test_edge_bounds(self):
        for k in range(3, 9):
            for n in range(k, 120):
                ub = Fr((k - 2) * n * n, 2 * (k - 1))
                assert ub - k + 1 < th.turan_ex(n, k) <= ub

    def test_bad_args(self):
        with pytest.raises(ContractViolationError):
            th.turan_ex(0, 3)
        with pytest.raises(ContractViolationError):
            th.turan_ex(5, 1)


class TestCapA:
    def test_examples(self):
        assert th.cap_A(4, 2) == 2
        assert th.cap_A(5, 4) == 1
        assert th.cap_A(6, 2) == 6

    def test_brute_force_bipartite_deletion(self):
        # deleting cap_A(k,2) edges from K_k leaves a bipartite graph
        from rtlab.graphs import complete, max_lpartite
        for k in range(3, 8):
            _, cross = max_lpartite(complete(k), 2)
            assert comb(k, 2) - cross == th.cap_A(k, 2)

    def test_closed_form(self):
        # balanced-parts closed form matching the Turan-deficiency definition
        for k in range(3, 13):
            for j in range(2, k):
                fl = k // j
                cl = -(-k // j)
                closed = comb(fl, 2) * (fl * j + j - k) + comb(cl, 2) * (k - fl * j)
                assert th.cap_A(k, j) == closed

    def test_small_i_identity(self):
        # A(k, k-i) = i while i <= floor(k/2)
        for k in range(4, 13):
            for i in range(1, k // 2 + 1):
                assert th.cap_A(k, k - i) == i


class TestRegimes:
    def test_boundaries(self):
        assert (th.s0(4), th.s1(4)) == (4, 6)
        assert (th.s0(5), th.s1(5)) == (6, 10)
        assert (th.s0(6), th.s1(6)) == (8, 14)

    def test_examples(self):
        p = th.regime_params(4, 5)
        assert (p.s0, p.s1, p.regime, p.p_star) == (4, 6, Regime.MID, 3)
        p = th.regime_params(6, 9)
        assert (p.s0, p.s1, p.regime) == (8, 14, Regime.MID)
        p = th.regime_params(6, 15)
        assert (p.s0, p.s1, p.regime, p.j_star) == (8, 14, Regime.HIGH, 2)
        assert p.j_star == comb(6, 2) - 15 + 2

    def test_witness_bound(self):
        # i* <= min(s-2, k-2) whenever the LOW regime applies
        for k in range(4, 13):
            for s in range(2, th.s0(k) + 1):
                p = th.regime_params(k, s)
                assert p.regime is Regime.LOW
                assert p.i_star <= min(s - 2, k - 2) or s == 2

    def test_out_of_scope(self):
        with pytest.raises(ContractViolationError):
            th.regime_params(3, 3)
        with pytest.raises(ContractViolationError):
            th.regime_params(4, 7)


class TestBandL:
    def test_b_examples(self):
        assert th.b_param(4, 2, 3) == 2
        assert th.b_param(4, 3, 3) == 3
        assert th.b_param(6, 4, 5) == 7

    def test_l_examples(self):
        assert th.l_param(4, 3, 3) == 4
        assert th.l_param(6, 2, 2) == 11


class TestR0:
    def test_examples(self):
        assert th.threshold_report(4, 3).r0 == 3
        assert th.threshold_report(4, 5).r0 == 222
        assert th.threshold_report(6, 10).r0 == 3528
        assert th.threshold_report(5, 8).r0 == 3270

    def test_s2_column(self):
        for k in range(4, 13):
            assert th.threshold_report(k, 2).r0 == 2

    def test_k3_rejected(self):
        with pytest.raises(ContractViolationError):
            th.threshold_report(3, 2)
        assert th.PRIOR_WORK_R0_K3 == {(3, 2): 2, (3, 3): 4}

    def test_low_base_structure(self):
        base, params = th.r0_base(5, 4)
        assert params.i_star == 2
        assert base == PowerProduct(((3, Fr(4, 3)), (2, Fr(1, 6))))

    def test_telescoping_terms(self):
        assert th.telescoping_terms(5, 4, 2) == [(3, Fr(4, 3)), (2, Fr(1, 6))]
        assert th.telescoping_terms(4, 3, 1) == [(2, Fr(3, 2))]
        for k in range(4, 13):
            for upto in range(1, k - 1):
                terms = th.telescoping_terms(k, comb(k, 2), upto)
                assert sum(m for _, m in terms) == Fr(k - upto, k - upto - 1)
                assert len({idx for idx, _ in terms}) == upto    # distinct indices

    @pytest.mark.parametrize("k,s", [(13, 50), (13, 61), (13, 78),
                                     (14, 54), (14, 70), (14, 91)])
    def test_large_k_matches_mpmath(self, k, s):
        # cells the big-integer path could not finish under its bit budget
        import mpmath
        base, _ = th.r0_base(k, s)
        with mpmath.workprec(512):
            value = mpmath.fprod(mpmath.mpf(b) ** (mpmath.mpf(e.numerator) / e.denominator)
                                 for b, e in base.factors)
            floor = int(mpmath.floor(value))
            assert min(value - floor, floor + 1 - value) > mpmath.mpf(2) ** -400
        assert th.threshold_report(k, s).r0 == floor + 1


class TestR1:
    def test_examples(self):
        assert th.threshold_report(4, 4).r1 == 5
        assert th.threshold_report(6, 15).r1 == 27
        assert th.threshold_report(5, 10).r1 == 18

    def test_integer_power_cases(self):
        assert th.threshold_report(4, 5).r1 == 7    # 4^(3/2) = 8 exactly
        assert th.threshold_report(5, 9).r1 == 15   # 8^(4/3) = 16 exactly

    def test_below_r0_everywhere(self):
        for k in range(4, 21):
            for s in range(3, comb(k, 2) + 1):
                rep = th.threshold_report(k, s)
                assert rep.r1 < rep.r0

    def test_domain(self):
        # r1 starts at s = 3: the report leaves it blank at s = 2, and a
        # cell outside 2 <= s <= C(k, 2) has no report
        assert th.threshold_report(4, 2).to_dict()["r1"] == ""
        for k, s in [(4, 1), (4, 7), (3, 3)]:
            with pytest.raises(ContractViolationError):
                th.threshold_report(k, s)


def _l_opt_scan(k, s):
    """Oracle for thresholds.l_opt: the minimum l_param over every feasible
    (p, j), ties toward larger j, then larger p."""
    bound = comb(k, 2) - s + 2
    best = None
    for p in range(2, k):
        for j in range(1, k):
            if th.b_param(k, p, j) <= bound:
                key = (th.l_param(k, p, j), -j, -p)
                best = key if best is None or key < best else best
    return best[0], (-best[2], -best[1])


def _mid_high_cells(k_values):
    return [(k, s) for k in k_values for s in range(th.s0(k) + 1, comb(k, 2) + 1)]


class TestLOpt:
    def test_closed_form_matches_scan(self):
        # value and witness, every MID/HIGH cell for k = 4..30
        for k, s in _mid_high_cells(range(4, 31)):
            assert th.l_opt(k, s) == _l_opt_scan(k, s), (k, s)

    def test_one_bracket(self):
        # r0's base, the upper case base and the LP's claimed point are one
        # product at the L_opt witness, structurally
        for k, s in _mid_high_cells(range(4, 31)):
            base, params = th.r0_base(k, s)
            w = params.l_opt_witness
            assert (params.l_opt, w) == th.l_opt(k, s)
            lp = lpv.build_lp(k, s)
            assert (lp.free_cap, (lp.p, lp.j)) == (params.l_opt, w)
            assert base == lpv.case_bases(lp)[1], (k, s)
            assert base == lpv.objective_value(lpv.claimed_solution(lp)), (k, s)

    def test_report_reads_regime_params(self):
        for k, s in [(4, 5), (6, 15), (9, 20), (9, 36)]:
            rep, params = th.threshold_report(k, s), th.regime_params(k, s)
            assert (rep.params.l_opt, rep.params.l_opt_witness) == \
                (params.l_opt, params.l_opt_witness)
            assert rep.to_dict()["l_opt_witness"] == list(params.l_opt_witness)

    def test_examples(self):
        assert th.l_opt(4, 5) == (Fr(4), (3, 3))
        assert th.l_opt(6, 15) == (Fr(11), (2, 2))
        assert th.l_opt(4, 6) == (Fr(5), (2, 3))

    def test_claimed_shape(self):
        # MID: witness j = k-1 and 3 < L <= 5; HIGH: closed form > 9
        for k in range(4, 10):
            for s in range(th.s0(k) + 1, comb(k, 2) + 1):
                val, (p, j) = th.l_opt(k, s)
                if s <= th.s1(k):
                    assert j == k - 1
                    assert 3 < val <= 5
                    assert val == th.l_param(k, th.regime_params(k, s).p_star, k - 1)
                else:
                    assert val == 1 + Fr(4 * (k - 1), comb(k, 2) - s + 2)
                    assert val > 9
                    assert (p, j) == (2, comb(k, 2) - s + 2)

    def test_low_rejected(self):
        with pytest.raises(ContractViolationError):
            th.l_opt(4, 4)


class TestReportAndTables:
    def test_report_fields(self):
        rep = th.threshold_report(4, 5)
        assert (rep.r0, rep.r1, rep.params.regime) == (222, 7, Regime.MID)
        assert rep.params.p_star == 3 and rep.params.i_star is None and rep.params.j_star is None
        assert rep.params.l_opt == Fr(4)
        d = rep.to_dict()
        assert d["r0"] == "222" and d["regime"] == "MID"

    def test_exactly_one_witness_field(self):
        # every search in regime_params finds its witness
        for k in range(4, 31):
            for s in range(2, comb(k, 2) + 1):
                rep = th.threshold_report(k, s)
                p = rep.params
                populated = [x for x in (p.i_star, p.p_star, p.j_star) if x is not None]
                assert len(populated) == 1

    def test_row_k4(self):
        assert [th.threshold_report(4, s).r0 for s in range(2, 7)] == [2, 3, 8, 222, 5434]

    def test_row_k5_r1(self):
        assert [th.threshold_report(5, s).r1 for s in range(3, 11)] == \
            [2, 4, 6, 8, 10, 13, 15, 18]

    def test_markers(self):
        def marker(k, s):
            return th.threshold_report(k, s).marker
        assert marker(4, 5) == th.ASTERISK
        assert marker(5, 7) == th.ASTERISK
        assert marker(6, 9) == th.ASTERISK
        assert marker(6, 15) == th.STAR
        assert marker(4, 4) == ""
        assert marker(5, 8) == ""

    def test_serializations(self, capsys):
        # the table's md, csv and json forms are rendered by the CLI
        def table(fmt):
            assert cli.main(["thresholds", "table", "--k", "4", "--format", fmt]) == 0
            return capsys.readouterr().out

        md = table("md").split("\n\n")[0]   # the r0 grid
        assert "222" + th.ASTERISK in md
        csv = table("csv")
        assert "4,5,222,7,MID" in csv
        cells = json.loads(table("json"))["result"]["cells"]
        cell = next(c for c in cells if c["s"] == 5)
        assert cell["marker"] == th.ASTERISK and cell["r0"] == "222"
        # s = 2 has no r1 column entry
        assert "4,2,2,,LOW" in csv

    def test_k3_row_rejected(self, capsys):
        assert cli.main(["thresholds", "table", "--k", "3..4"]) == cli.EXIT_CONTRACT
        assert capsys.readouterr().out == ""
