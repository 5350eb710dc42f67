"""Stability-program construction, claimed optimum, vertex certificates."""

import re
from dataclasses import replace
from fractions import Fraction as Fr
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lp_greedy_oracle import dual_holds_oracle, greedy_oracle
from rtlab.errors import ContractViolationError
from rtlab.exactnum import EQUAL, PowerProduct
from rtlab import lpverify as lpv
from rtlab import thresholds as th


def _certify(k, s):
    """The certificate `rtlab lp` prints for (k, s): the claimed point of
    the program build_lp gives."""
    lp = lpv.build_lp(k, s)
    return lpv.certify(lp, lpv.claimed_solution(lp))


def _claimed(k, s, p=None, j=None):
    return lpv.claimed_solution(lpv.build_lp(k, s, p, j))


class TestBuild:
    def test_single_row(self):
        lp = lpv.build_lp(4, 3)
        assert len(lp.rows) == 1
        assert lp.rows[0] == lpv.SuffixConstraint(Fr(2, 3), 2)
        assert lp.variables == (2,) and not lp.include_e1

    def test_two_rows(self):
        lp = lpv.build_lp(5, 4)
        assert [(c.coef, c.lo) for c in lp.rows] == [(Fr(3, 4), 3), (Fr(2, 3), 2)]
        assert lp.variables == (2, 3)

    def test_s2_empty_variables(self):
        lp = lpv.build_lp(4, 2)
        assert lp.variables == ()
        assert lp.include_e1    # the clamped range still touches index 1

    def test_clamp_reaches_e1(self):
        # (6,6): the last row's natural lower index is 0, clamped to 1
        lp = lpv.build_lp(6, 6)
        assert lp.rows[-1].lo == 1
        assert lp.include_e1
        assert lp.variables == (2, 3, 4, 5)

    def test_mid_high_instance(self):
        lp = lpv.build_lp(6, 9, p=4, j=5)
        assert lp.variant == lpv.VARIANT_MID_HIGH
        assert len(lp.rows) == 4
        assert lp.free_cap == th.l_param(6, 4, 5)
        assert lp.free_range == (2, 9 - th.cap_A(6, 2) - 1)
        assert lp.variables == tuple(range(2, 9))

    def test_variant_guards(self):
        # the regime comes from (k, s): a MID s builds MID_HIGH, a LOW s LOW
        assert lpv.build_lp(4, 5).variant == lpv.VARIANT_MID_HIGH
        assert lpv.build_lp(4, 4).variant == lpv.VARIANT_LOW
        with pytest.raises(ContractViolationError):
            lpv.build_lp(4, 3, p=2, j=3)     # a witness for a LOW s
        with pytest.raises(ContractViolationError):
            lpv.build_lp(6, 15, p=3, j=1)    # infeasible witness
        with pytest.raises(ContractViolationError):
            lpv.build_lp(4, 5, p=2)          # half a witness
        # no witness: the L_opt witness
        lp, params = lpv.build_lp(4, 5), th.regime_params(4, 5)
        assert (lp.p, lp.j) == params.l_opt_witness and lp.free_cap == params.l_opt
        for k, s in [(3, 2), (4, 1), (4, 7)]:
            with pytest.raises(ContractViolationError):
                lpv.build_lp(k, s)


    def test_top_row_is_row_count(self):
        # claimed_solution, case_bases and the support read i* (LOW) or
        # k-2 (MID_HIGH) as len(rows), at every witness
        for k in range(4, 13):
            for s in range(2, comb(k, 2) + 1):
                params = th.regime_params(k, s)
                if params.regime is th.Regime.LOW:
                    assert len(lpv.build_lp(k, s).rows) == params.i_star
                    continue
                for p in range(2, k):
                    for j in range(1, k):
                        if th.witness_feasible(k, s, p, j):
                            assert len(lpv.build_lp(k, s, p, j).rows) == k - 2


class TestClaimedSolution:
    def test_examples(self):
        assert _claimed(5, 4) == {3: Fr(4, 3), 2: Fr(1, 6)}
        assert _claimed(4, 3) == {2: Fr(3, 2)}
        assert _claimed(4, 2) == {}
        assert _claimed(7, 2) == {}
        # MID_HIGH: the terms through k-2 plus the whole cap on s - A(k,2) - 1
        assert _claimed(4, 5, 3, 3) == {4: Fr(3, 2), 3: Fr(1, 2), 2: Fr(4)}

    def test_low_only(self):
        # beyond s0 the point carries the cap of the program's witness pair:
        # by default the L_opt pair, and half a pair is refused
        assert _claimed(4, 5) == _claimed(4, 5, 3, 3)
        assert _claimed(4, 5, 2, 3)[2] == th.l_param(4, 2, 3)
        with pytest.raises(ContractViolationError):
            _claimed(4, 5, 2)


class TestCertify:
    def test_5_4(self):
        cert = _certify(5, 4)
        assert cert.feasible and cert.optimal
        assert cert.claimed_value == PowerProduct(((3, Fr(4, 3)), (2, Fr(1, 6))))
        assert cert.support_sum_actual == Fr(3, 2)
        assert not cert.support_sum_matches
        assert cert.tight_rows == (0, 1)
        # t = 2 is charged 2/1 to row 1 (U(2) = 3/2), t = 3 is charged 3/2 to
        # row 0 (U(3) = 4/3): (3/2)^(4/3) * 2^(3/2) = 2^(1/6) * 3^(4/3)
        assert cert.dual == lpv.DualCertificate((Fr(3, 2), Fr(2)), None)
        assert cert.argmax_vertex == (Fr(1, 6), Fr(4, 3))

    def test_4_3(self):
        cert = _certify(4, 3)
        assert cert.optimal
        assert cert.claimed_value == PowerProduct(((2, Fr(3, 2)),))
        # i* = 1, so the telescoped sum is 3/2 and the mismatch is flagged
        assert cert.support_sum_actual == Fr(3, 2) and not cert.support_sum_matches

    def test_4_4_support_sum_reaches_two(self):
        # (4,4) has i* = 2 = k-2: the telescoped sum really is 2
        cert = _certify(4, 4)
        assert cert.optimal
        assert cert.support_sum_actual == Fr(2) and cert.support_sum_matches

    def test_s2_trivial_instance(self):
        cert = _certify(5, 2)
        assert cert.feasible and cert.optimal
        assert cert.claimed_value == PowerProduct()
        assert cert.vertex_max == PowerProduct()

    def test_infeasible_point_flagged(self):
        lp = lpv.build_lp(4, 3)
        cert = lpv.certify(lp, {2: Fr(7, 2)})
        assert not cert.feasible and not cert.optimal

    def test_suboptimal_point_flagged(self):
        lp = lpv.build_lp(4, 3)
        cert = lpv.certify(lp, {2: Fr(1, 2)})
        assert cert.feasible and not cert.optimal

    def test_point_dimension_guard(self):
        with pytest.raises(ContractViolationError):
            lpv.certify(lpv.build_lp(4, 3), {9: Fr(1)})

    def test_telescoped_support_sum(self):
        for k in range(4, 17):
            for s in range(3, th.s0(k) + 1):
                cert = _certify(k, s)
                i = th.regime_params(k, s).i_star
                assert cert.support_sum_actual == Fr(k - i, k - i - 1)
                assert cert.support_sum_matches == (i == k - 2)

    def test_feasible_and_tight_low_range(self):
        for k in range(4, 17):
            for s in range(2, th.s0(k) + 1):
                cert = _certify(k, s)
                assert cert.feasible and cert.optimal
                if s >= 3:
                    assert cert.tight_rows

    def test_base_identity_small(self):
        # the certified LOW optimum equals the r0 bracket
        for k in (4, 5, 6):
            for s in range(2, th.s0(k) + 1):
                base, _ = th.r0_base(k, s)
                assert _certify(k, s).vertex_max.compare(base) == EQUAL

    def test_json_certificate(self):
        obj = _certify(5, 4).to_json_obj()
        assert obj["optimal"] is True
        assert obj["claimed_point"] == {"2": "1/6", "3": "4/3"}
        assert obj["support_sum_actual"] == "3/2"
        assert ["2", "1/6"] in [[str(b), e] for b, e in obj["claimed_value_factors"]]
        assert obj["lp"]["rows"][0]["bound"] == "1"
        assert obj["dual"] == {"rows": ["3/2", "2/1"], "cap": None}
        assert "vertices" not in obj and "degenerate_skipped" not in obj

    def test_relaxation_never_decreases_max(self):
        # dropping a non-widest row keeps the polytope bounded and can only
        # let the maximum grow; the vertex oracle agrees on every relaxation
        for (k, s) in [(5, 4), (6, 6), (6, 5), (7, 6)]:
            lp = lpv.build_lp(k, s)
            cert = lpv.certify(lp, lpv.claimed_solution(lp))
            widest = min(range(len(lp.rows)), key=lambda i: lp.rows[i].lo)
            for drop in range(len(lp.rows)):
                if drop == widest:
                    continue
                relaxed = lpv.StabilityLP(
                    k, s, lp.variant,
                    tuple(c for i, c in enumerate(lp.rows) if i != drop),
                    lp.variables, lp.include_e1)
                rcert = lpv.certify(relaxed, lpv.claimed_solution(lp))
                assert rcert.vertex_max.compare(cert.vertex_max) >= 0
                assert rcert.vertex_max.compare(_vertex_oracle(relaxed)[0]) == EQUAL


def _vertex_oracle(lp):
    """Maximum objective over every basic feasible solution, and the vertices."""
    dims = lp.dims()
    vertices, _ = lpv.enumerate_vertices(lp)
    values = [lpv.objective_value(dict(zip(dims, v))) for v in vertices]
    best = max(values, key=PowerProduct.log2)
    assert all(v.compare(best) <= 0 for v in values)
    return best, vertices


class TestMidHighVertices:
    def test_zero_point_feasible_and_bounded(self):
        lp = lpv.build_lp(4, 5, p=3, j=3)
        cert = lpv.certify(lp, {})
        assert cert.feasible and not cert.optimal
        # the certified maximum strictly dominates the empty point
        assert cert.vertex_max.compare(PowerProduct()) > 0

    def test_claimed_point_is_case_bases_upper(self):
        for k in range(4, 11):
            for s in range(th.s0(k) + 1, comb(k, 2) + 1):
                lp = lpv.build_lp(k, s)
                cert = lpv.certify(lp, lpv.claimed_solution(lp))
                assert cert.feasible and cert.optimal, (k, s)
                assert cert.claimed_value == lpv.case_bases(lp)[1]
                assert cert.support_sum_actual == 2 and cert.support_sum_matches
                assert cert.dual.cap == s - th.cap_A(k, 2) - 1


class TestDualCertificate:
    @pytest.mark.parametrize("k", [4, 5, 6, 7])
    def test_matches_vertex_oracle(self, k):
        lps = [lpv.build_lp(k, s) for s in range(2, th.s0(k) + 1)]
        lps += [lpv.build_lp(k, s) for s in range(th.s0(k) + 1, comb(k, 2) + 1)]
        for lp in lps:
            best, vertices = _vertex_oracle(lp)
            cert = lpv.certify(lp, {})
            assert cert.vertex_max.compare(best) == EQUAL, (lp.k, lp.s, lp.variant)
            assert cert.argmax_vertex in vertices

    def test_lowered_multiplier_fails(self):
        for lp in (lpv.build_lp(7, 9), lpv.build_lp(6, 12)):
            point, dual = lpv.greedy_optimum(lp)
            value = lpv.objective_value(point)
            assert lpv.dual_holds(lp, dual, value)
            for i, q in enumerate(dual.rows):
                rows = list(dual.rows)
                rows[i] = q * Fr(999, 1000)
                assert not lpv.dual_holds(lp, lpv.DualCertificate(tuple(rows), dual.cap), value)
            if dual.cap is not None:
                low_cap = lpv.DualCertificate(dual.rows, dual.cap - Fr(1, 1000))
                assert not lpv.dual_holds(lp, low_cap, value)
            # a raised multiplier stays feasible but leaves a duality gap
            raised = lpv.DualCertificate((dual.rows[0] * 2,) + dual.rows[1:], dual.cap)
            assert not lpv.dual_holds(lp, raised, value)

    def test_infeasible_dual_with_equal_value_fails(self):
        # two rows with u = 2: (q0, q1) = (3, 1) certifies 3^2 = 9.  (1, 3) and
        # (6, 1/2) reach the same value, but the first leaves e_2 covered by
        # 1 < 2 and the second has q1 < 1, so only the value check would pass
        lp = lpv.StabilityLP(4, 4, lpv.VARIANT_LOW,
                             (lpv.SuffixConstraint(Fr(1, 2), 2), lpv.SuffixConstraint(Fr(1, 2), 3)),
                             variables=(2, 3), include_e1=False)
        value = PowerProduct([(9, 1)])
        assert lpv.dual_holds(lp, lpv.DualCertificate((Fr(3), Fr(1))), value)
        assert lpv.dual_holds(lp, lpv.DualCertificate((Fr(2), Fr(3, 2))), value)
        assert not lpv.dual_holds(lp, lpv.DualCertificate((Fr(1), Fr(3))), value)
        assert not lpv.dual_holds(lp, lpv.DualCertificate((Fr(6), Fr(1, 2))), value)

    def test_infeasible_optimum_rejected(self, monkeypatch):
        # doubling x* and squaring q keeps the dual feasible and the gap
        # closed, so only the primal feasibility check can catch it, both
        # when the claimed point differs from x* and when it is x* itself
        lp = lpv.build_lp(6, 6)
        point, dual = lpv.greedy_optimum(lp)
        doubled = {t: 2 * e for t, e in point.items()}
        squared = lpv.DualCertificate(tuple(q * q for q in dual.rows))
        assert lpv.dual_holds(lp, squared, lpv.objective_value(doubled))
        monkeypatch.setattr(lpv, "greedy_optimum", lambda _: (doubled, squared))
        for claimed in ({}, doubled):
            with pytest.raises(ContractViolationError):
                lpv.certify(lp, claimed)

    def test_under_covered_interior_index_fails(self):
        # two rows with u = 2: the greedy run governed by row 0 spans e_2..e_7,
        # and row 1 joins the coverage at e_5.  (7, 1) certifies 7^2 = 49;
        # (7/2, 2) reaches the same value and covers e_2, e_3 and e_5..e_7,
        # but not e_4, the last index before row 1's lo and an interior
        # index of the run
        lp = lpv.StabilityLP(4, 4, lpv.VARIANT_LOW,
                             (lpv.SuffixConstraint(Fr(1, 2), 2), lpv.SuffixConstraint(Fr(1, 2), 5)),
                             variables=tuple(range(2, 8)), include_e1=False)
        point, dual = lpv.greedy_optimum(lp)
        assert point == {7: Fr(2)} and dual == lpv.DualCertificate((Fr(7), Fr(1)))
        value = PowerProduct([(7, 2)])
        assert lpv.dual_holds(lp, dual, value)
        lowered = lpv.DualCertificate((Fr(7, 2), Fr(2)))
        assert lowered.value(lp).compare(value) == EQUAL
        assert not lpv.dual_holds(lp, lowered, value)
        assert not dual_holds_oracle(lp, lowered, value)

    def test_uncovered_variable_raises(self):
        lp = lpv.StabilityLP(5, 4, lpv.VARIANT_LOW, (lpv.SuffixConstraint(Fr(3, 4), 3),),
                             variables=(2, 3), include_e1=False)
        with pytest.raises(ContractViolationError):
            lpv.certify(lp, {})

    def test_cap_overlapping_a_row_raises(self):
        lp = lpv.build_lp(5, 8, p=2, j=4)
        hi = min(c.lo for c in lp.rows)
        overlap = lpv.StabilityLP(lp.k, lp.s, lp.variant, lp.rows, lp.variables,
                                  lp.include_e1, lp.free_cap, (2, hi), lp.p, lp.j)
        with pytest.raises(ContractViolationError):
            lpv.certify(overlap, {})


class TestClaimedPointChecks:
    # e_1 has objective weight 0, so {1: 1, 2: 1} is optimal beside the
    # greedy x* = {2: 1}, and makes row 0 tight where x* does not
    LP = lpv.StabilityLP(4, 3, lpv.VARIANT_LOW,
                         (lpv.SuffixConstraint(Fr(1, 2), 1), lpv.SuffixConstraint(Fr(1), 2)),
                         variables=(2,), include_e1=True)

    @staticmethod
    def _spy(monkeypatch):
        calls = {"rows": 0, "compare": 0}
        row_checks, compare = lpv._row_checks, PowerProduct.compare

        def counted_rows(lp, point):
            calls["rows"] += 1
            return row_checks(lp, point)

        def counted_compare(self, other=None, bit_budget=None):
            calls["compare"] += 1
            return compare(self, other, bit_budget)

        monkeypatch.setattr(lpv, "_row_checks", counted_rows)
        monkeypatch.setattr(PowerProduct, "compare", counted_compare)
        return calls

    def test_greedy_point(self):
        assert lpv.greedy_optimum(self.LP) == ({2: Fr(1)}, lpv.DualCertificate((Fr(1), Fr(2))))

    def test_other_point_gets_its_own_checks(self, monkeypatch):
        calls = self._spy(monkeypatch)
        cert = lpv.certify(self.LP, {1: Fr(1), 2: Fr(1)})
        assert cert.feasible and cert.optimal
        assert cert.tight_rows == (0, 1)
        # one row check and one compare (in dual_holds) for x*, one each for the point
        assert calls == {"rows": 2, "compare": 2}

    def test_other_point_is_compared(self):
        cert = lpv.certify(self.LP, {1: Fr(1, 2), 2: Fr(1, 2)})
        assert cert.feasible and not cert.optimal and cert.tight_rows == ()

    def test_greedy_point_is_checked_once(self, monkeypatch):
        calls = self._spy(monkeypatch)
        cert = lpv.certify(self.LP, {1: Fr(0), 2: Fr(1)})    # zero entries aside, x*
        assert cert.feasible and cert.optimal
        assert cert.tight_rows == (1,)
        assert cert.claimed_value == cert.vertex_max
        assert cert.to_json_obj()["claimed_point"] == {"1": "0/1", "2": "1/1"}
        assert calls == {"rows": 1, "compare": 1}


_coef = st.fractions(min_value=Fr(1, 4), max_value=Fr(3), max_denominator=6)
_mult = st.fractions(min_value=Fr(1, 2), max_value=Fr(12), max_denominator=4)


@st.composite
def _programs(draw):
    """Nested-suffix programs over e_v0..e_(s-1), with or without e_1 and a
    cap block e_2..e_h below the rows (h = 1 leaves the block empty)."""
    v0 = draw(st.integers(2, 4))
    s = draw(st.integers(v0, v0 + 9))
    include_e1 = draw(st.booleans())
    h = draw(st.integers(1, s - 1)) if draw(st.booleans()) else None
    low = 1 if h is None else h + 1
    rows = tuple(lpv.SuffixConstraint(draw(_coef), draw(st.integers(low, s)))
                 for _ in range(draw(st.integers(0, 5))))
    cap = {} if h is None else {"free_cap": draw(_coef), "free_range": (2, h)}
    return lpv.StabilityLP(4, 4, lpv.VARIANT_LOW, rows, tuple(range(v0, s)), include_e1, **cap)


class TestRunLengthOracle:
    @settings(max_examples=300, deadline=None)
    @given(_programs(), st.data())
    def test_matches_per_variable_pass(self, lp, data):
        try:
            want = greedy_oracle(lp)
        except ContractViolationError as exc:
            with pytest.raises(ContractViolationError, match=re.escape(str(exc))):
                lpv.greedy_optimum(lp)
            return
        point, dual = lpv.greedy_optimum(lp)
        assert point == want[0]
        assert dual.rows == want[1].rows and dual.cap == want[1].cap
        value = lpv.objective_value(point)
        assert lpv.dual_holds(lp, dual, value) == dual_holds_oracle(lp, dual, value)
        # another dual, judged against its own value, so coverage decides
        other = lpv.DualCertificate(
            tuple(data.draw(_mult) for _ in lp.rows),
            None if dual.cap is None else data.draw(_mult))
        for v in (value, other.value(lp)):
            assert lpv.dual_holds(lp, other, v) == dual_holds_oracle(lp, other, v)


def _at_s0(k, p, j):
    """A MID_HIGH program moved to s = s0, the LOW cell whose head base is 1,
    with the cap weight of (p, j): the case bases read only k, s and the cap."""
    s = th.s0(k)
    return replace(lpv.build_lp(k, s + 1), s=s, free_cap=th.l_param(k, p, j), p=p, j=j)


class TestCaseBases:
    def test_examples_hold(self):
        assert lpv.compare_case_bases(lpv.build_lp(4, 5, p=3, j=3)) <= 0
        assert lpv.compare_case_bases(lpv.build_lp(6, 15, p=2, j=2)) <= 0

    def test_equality_when_head_factor_is_one(self):
        # s = s0 makes the head base 1, so the weight gap is invisible
        k = 5
        assert lpv.compare_case_bases(_at_s0(k, 2, 4)) == EQUAL

    def test_never_greater_sweep(self):
        for k in (4, 5, 6):
            for s in range(th.s0(k), comb(k, 2) + 1):
                for p in range(2, k):
                    for j in range(1, k):
                        if th.witness_feasible(k, s, p, j):
                            lp = (_at_s0(k, p, j) if s == th.s0(k)
                                  else lpv.build_lp(k, s, p=p, j=j))
                            assert lpv.compare_case_bases(lp) <= 0

    def test_low_program_rejected(self):
        with pytest.raises(ContractViolationError):
            lpv.case_bases(lpv.build_lp(5, 4))
