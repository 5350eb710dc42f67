"""Stability-program construction, claimed optimum, vertex certificates."""

from fractions import Fraction as Fr
from math import comb

import pytest

from rtlab.errors import ContractViolationError
from rtlab.exactnum import EQUAL, PowerProduct, pp_compare
from rtlab import lpverify as lpv
from rtlab import thresholds as th


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
        lp = lpv.build_lp(6, 9, lpv.VARIANT_MID_HIGH, p=4, j=5)
        assert len(lp.rows) == 4
        assert lp.free_cap == th.l_param(6, 9, 4, 5)
        assert lp.free_range == (2, 9 - th.cap_A(6, 2) - 1)
        assert lp.variables == tuple(range(2, 9))

    def test_variant_guards(self):
        with pytest.raises(ContractViolationError):
            lpv.build_lp(4, 5)                                   # MID s in LOW builder
        with pytest.raises(ContractViolationError):
            lpv.build_lp(4, 3, lpv.VARIANT_MID_HIGH, p=2, j=3)   # LOW s in MID builder
        with pytest.raises(ContractViolationError):
            lpv.build_lp(6, 15, lpv.VARIANT_MID_HIGH, p=3, j=1)  # infeasible witness
        with pytest.raises(ContractViolationError):
            lpv.build_lp(4, 5, lpv.VARIANT_MID_HIGH)             # missing witness


class TestClaimedSolution:
    def test_examples(self):
        assert lpv.claimed_solution(5, 4) == {3: Fr(4, 3), 2: Fr(1, 6)}
        assert lpv.claimed_solution(4, 3) == {2: Fr(3, 2)}
        assert lpv.claimed_solution(4, 2) == {}
        assert lpv.claimed_solution(7, 2) == {}
        # MID_HIGH: the terms through k-2 plus the whole cap on s - A(k,2) - 1
        assert lpv.claimed_solution(4, 5, 3, 3) == {4: Fr(3, 2), 3: Fr(1, 2), 2: Fr(4)}

    def test_low_only(self):
        # beyond s0 the point needs a witness pair
        with pytest.raises(ContractViolationError):
            lpv.claimed_solution(4, 5)


class TestCertify:
    def test_5_4(self):
        cert = lpv.certify_low(5, 4)
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
        cert = lpv.certify_low(4, 3)
        assert cert.optimal
        assert cert.claimed_value == PowerProduct(((2, Fr(3, 2)),))
        # i* = 1, so the telescoped sum is 3/2 and the mismatch is flagged
        assert cert.support_sum_actual == Fr(3, 2) and not cert.support_sum_matches

    def test_4_4_support_sum_reaches_two(self):
        # (4,4) has i* = 2 = k-2: the telescoped sum really is 2
        cert = lpv.certify_low(4, 4)
        assert cert.optimal
        assert cert.support_sum_actual == Fr(2) and cert.support_sum_matches

    def test_s2_trivial_instance(self):
        cert = lpv.certify_low(5, 2)
        assert cert.feasible and cert.optimal
        assert cert.claimed_value == PowerProduct.one()
        assert cert.vertex_max == PowerProduct.one()

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
                cert = lpv.certify_low(k, s)
                i = th.i_star(k, s)
                assert cert.support_sum_actual == Fr(k - i, k - i - 1)
                assert cert.support_sum_matches == (i == k - 2)

    def test_feasible_and_tight_low_range(self):
        for k in range(4, 17):
            for s in range(2, th.s0(k) + 1):
                cert = lpv.certify_low(k, s)
                assert cert.feasible and cert.optimal
                if s >= 3:
                    assert cert.tight_rows

    def test_base_identity_small(self):
        for k in (4, 5, 6):
            for s in range(2, th.s0(k) + 1):
                assert lpv.low_base_matches_threshold(k, s)

    def test_json_certificate(self):
        obj = lpv.certify_low(5, 4).to_json_obj()
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
            cert = lpv.certify(lp, lpv.claimed_solution(k, s))
            widest = min(range(len(lp.rows)), key=lambda i: lp.rows[i].lo)
            for drop in range(len(lp.rows)):
                if drop == widest:
                    continue
                relaxed = lpv.StabilityLP(
                    k, s, lp.variant,
                    tuple(c for i, c in enumerate(lp.rows) if i != drop),
                    lp.variables, lp.include_e1)
                rcert = lpv.certify(relaxed, lpv.claimed_solution(k, s))
                assert pp_compare(rcert.vertex_max, cert.vertex_max) >= 0
                assert pp_compare(rcert.vertex_max, _vertex_oracle(relaxed)[0]) == EQUAL


def _mid_high_lp(k, s):
    _, (p, j) = th.l_opt(k, s)
    return lpv.build_lp(k, s, lpv.VARIANT_MID_HIGH, p=p, j=j)


def _vertex_oracle(lp):
    """Maximum objective over every basic feasible solution, and the vertices."""
    dims = lp.dims()
    vertices, _ = lpv.enumerate_vertices(lp)
    values = [lpv.objective_value(dict(zip(dims, v))) for v in vertices]
    best = max(values, key=PowerProduct.log2)
    assert all(pp_compare(v, best) <= 0 for v in values)
    return best, vertices


class TestMidHighVertices:
    def test_zero_point_feasible_and_bounded(self):
        lp = lpv.build_lp(4, 5, lpv.VARIANT_MID_HIGH, p=3, j=3)
        cert = lpv.certify(lp, {})
        assert cert.feasible and not cert.optimal
        # the certified maximum strictly dominates the empty point
        assert pp_compare(cert.vertex_max, PowerProduct.one()) > 0

    def test_claimed_point_is_case_bases_upper(self):
        for k in range(4, 11):
            for s in range(th.s0(k) + 1, comb(k, 2) + 1):
                lp = _mid_high_lp(k, s)
                cert = lpv.certify(lp, lpv.claimed_solution(k, s, lp.p, lp.j))
                assert cert.feasible and cert.optimal, (k, s)
                assert cert.claimed_value == lpv.case_bases(k, s, lp.p, lp.j)[1]
                assert cert.support_sum_actual == 2 and cert.support_sum_matches
                assert cert.dual.cap == s - th.cap_A(k, 2) - 1


class TestDualCertificate:
    @pytest.mark.parametrize("k", [4, 5, 6, 7])
    def test_matches_vertex_oracle(self, k):
        lps = [lpv.build_lp(k, s) for s in range(2, th.s0(k) + 1)]
        lps += [_mid_high_lp(k, s) for s in range(th.s0(k) + 1, comb(k, 2) + 1)]
        for lp in lps:
            best, vertices = _vertex_oracle(lp)
            cert = lpv.certify(lp, {})
            assert pp_compare(cert.vertex_max, best) == EQUAL, (lp.k, lp.s, lp.variant)
            assert cert.argmax_vertex in vertices

    def test_lowered_multiplier_fails(self):
        for lp in (lpv.build_lp(7, 9), _mid_high_lp(6, 12)):
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
        value = PowerProduct.of_int(9)
        assert lpv.dual_holds(lp, lpv.DualCertificate((Fr(3), Fr(1))), value)
        assert lpv.dual_holds(lp, lpv.DualCertificate((Fr(2), Fr(3, 2))), value)
        assert not lpv.dual_holds(lp, lpv.DualCertificate((Fr(1), Fr(3))), value)
        assert not lpv.dual_holds(lp, lpv.DualCertificate((Fr(6), Fr(1, 2))), value)

    def test_infeasible_optimum_rejected(self, monkeypatch):
        # doubling x* and squaring q keeps the dual feasible and the gap
        # closed, so only the primal feasibility check can catch it
        lp = lpv.build_lp(6, 6)
        point, dual = lpv.greedy_optimum(lp)
        doubled = {t: 2 * e for t, e in point.items()}
        squared = lpv.DualCertificate(tuple(q * q for q in dual.rows))
        assert lpv.dual_holds(lp, squared, lpv.objective_value(doubled))
        monkeypatch.setattr(lpv, "greedy_optimum", lambda _: (doubled, squared))
        with pytest.raises(ContractViolationError):
            lpv.certify(lp, {})

    def test_uncovered_variable_raises(self):
        lp = lpv.StabilityLP(5, 4, lpv.VARIANT_LOW, (lpv.SuffixConstraint(Fr(3, 4), 3),),
                             variables=(2, 3), include_e1=False)
        with pytest.raises(ContractViolationError):
            lpv.certify(lp, {})

    def test_cap_overlapping_a_row_raises(self):
        lp = lpv.build_lp(5, 8, lpv.VARIANT_MID_HIGH, p=2, j=4)
        hi = min(c.lo for c in lp.rows)
        overlap = lpv.StabilityLP(lp.k, lp.s, lp.variant, lp.rows, lp.variables,
                                  lp.include_e1, lp.free_cap, (2, hi), lp.p, lp.j)
        with pytest.raises(ContractViolationError):
            lpv.certify(overlap, {})


class TestCaseBases:
    def test_examples_hold(self):
        assert lpv.compare_case_bases(4, 5, 3, 3) <= 0
        assert lpv.compare_case_bases(6, 15, 2, 2) <= 0

    def test_equality_when_head_factor_is_one(self):
        # s = s0 makes the head base 1, so the weight gap is invisible
        k = 5
        s = th.s0(k)
        assert lpv.compare_case_bases(k, s, 2, 4) == EQUAL

    def test_never_greater_sweep(self):
        for k in (4, 5, 6):
            for s in range(th.s0(k), comb(k, 2) + 1):
                for p in range(2, k):
                    for j in range(1, k):
                        if th.b_param(k, p, j) <= comb(k, 2) - s + 2:
                            assert lpv.compare_case_bases(k, s, p, j) <= 0
