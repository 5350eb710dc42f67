"""Threshold formulas: Turan numbers, regimes, r0/r1, tables."""

from fractions import Fraction as Fr
from math import comb

import pytest

from rtlab.errors import ContractViolationError
from rtlab.exactnum import PowerProduct
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
        assert th.l_param(4, 5, 3, 3) == 4
        assert th.l_param(6, 15, 2, 2) == 11


class TestR0:
    def test_examples(self):
        assert th.r0(4, 3) == 3
        assert th.r0(4, 5) == 222
        assert th.r0(6, 10) == 3528
        assert th.r0(5, 8) == 3270

    def test_s2_column(self):
        for k in range(4, 13):
            assert th.r0(k, 2) == 2

    def test_k3_rejected(self):
        with pytest.raises(ContractViolationError):
            th.r0(3, 2)
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
        assert th.r0(k, s) == floor + 1


class TestR1:
    def test_examples(self):
        assert th.r1(4, 4) == 5
        assert th.r1(6, 15) == 27
        assert th.r1(5, 10) == 18

    def test_integer_power_cases(self):
        assert th.r1(4, 5) == 7    # 4^(3/2) = 8 exactly
        assert th.r1(5, 9) == 15   # 8^(4/3) = 16 exactly

    def test_below_r0_everywhere(self):
        for k in range(4, 21):
            for s in range(3, comb(k, 2) + 1):
                assert th.r1(k, s) < th.r0(k, s)

    def test_domain(self):
        with pytest.raises(ContractViolationError):
            th.r1(4, 2)


class TestLOpt:
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
                    assert val == th.l_param(k, s, th.p_star(k, s), k - 1)
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
        assert (rep.r0, rep.r1, rep.regime) == (222, 7, Regime.MID)
        assert rep.p_star == 3 and rep.i_star is None and rep.j_star is None
        assert rep.l_opt == Fr(4)
        d = rep.to_dict()
        assert d["r0"] == "222" and d["regime"] == "MID"

    def test_exactly_one_witness_field(self):
        for k in range(4, 9):
            for s in range(2, comb(k, 2) + 1):
                rep = th.threshold_report(k, s)
                populated = [x for x in (rep.i_star, rep.p_star, rep.j_star) if x is not None]
                assert len(populated) == 1

    def test_row_k4(self):
        table = th.emit_tables([4])
        assert [table.cells[(4, s)].r0 for s in range(2, 7)] == [2, 3, 8, 222, 5434]

    def test_row_k5_r1(self):
        table = th.emit_tables([5])
        assert [table.cells[(5, s)].r1 for s in range(3, 11)] == [2, 4, 6, 8, 10, 13, 15, 18]

    def test_markers(self):
        table = th.emit_tables([4, 5, 6])
        assert table.marker(4, 5) == th.ASTERISK
        assert table.marker(5, 7) == th.ASTERISK
        assert table.marker(6, 9) == th.ASTERISK
        assert table.marker(6, 15) == th.STAR
        assert table.marker(4, 4) == ""
        assert table.marker(5, 8) == ""

    def test_serializations(self):
        table = th.emit_tables([4])
        md = th.table_markdown(table, "r0")
        assert "222" + th.ASTERISK in md
        csv = th.table_csv(table)
        assert "4,5,222,7,MID" in csv
        cells = th.table_json_obj(table)
        cell = next(c for c in cells if c["s"] == 5)
        assert cell["marker"] == th.ASTERISK and cell["r0"] == "222"
        # s = 2 has no r1 column entry
        assert "4,2,2,,LOW" in csv

    def test_k3_row_rejected(self):
        with pytest.raises(ContractViolationError):
            th.emit_tables([3, 4])
