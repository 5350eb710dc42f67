"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with: pytest tests/test_acceptance.py -v -s
"""

import multiprocessing
import time
from fractions import Fraction as Fr
from itertools import combinations
from math import comb

from rtlab import census as cn
from rtlab import lpverify as lpv
from rtlab import propcheck as pc
from rtlab import thresholds as th
from rtlab.exactnum import EQUAL
from rtlab.graphs import Graph, complete, turan_graph

JOBS = 4

TABLE1 = {
    4: {2: 2, 3: 3, 4: 8, 5: 222, 6: 5434},
    5: {2: 2, 3: 3, 4: 5, 5: 11, 6: 19, 7: 457, 8: 3270, 9: 55507, 10: 218896},
    6: {2: 2, 3: 3, 4: 5, 5: 7, 6: 15, 7: 24, 8: 35, 9: 606, 10: 3528,
        12: 309393, 13: 933907},
}

TABLE2 = {
    4: {3: 2, 4: 5, 5: 7, 6: 11},
    5: {3: 2, 4: 4, 5: 6, 6: 8, 7: 10, 8: 13, 9: 15, 10: 18},
    6: {3: 2, 4: 3, 5: 5, 6: 7, 7: 9, 8: 11, 9: 13, 10: 15, 12: 20, 13: 22, 15: 27},
}


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, detail


def test_criterion_1_table_r0():
    t0 = time.perf_counter()
    mismatches = []
    for k, row in TABLE1.items():
        for s, want in row.items():
            got = th.threshold_report(k, s).r0
            if got != want:
                mismatches.append((k, s, got, want))
    v615 = th.threshold_report(6, 15).r0
    band_ok = 135 * 10 ** 10 <= v615 <= 150 * 10 ** 10
    elapsed = time.perf_counter() - t0
    ok = not mismatches and band_ok and elapsed < 5.0
    _report(1, ok, f"r0 grid exact for k=4..6 ({sum(map(len, TABLE1.values()))} cells), "
                   f"r0(6,15)={v615} in [1.35e12, 1.50e12], {elapsed:.2f}s < 5s; "
                   f"mismatches={mismatches}")


def test_criterion_2_table_r1():
    t0 = time.perf_counter()
    got = {(k, s): th.threshold_report(k, s).r1 for k, row in TABLE2.items() for s in row}
    mismatches = [(k, s, got[k, s], want)
                  for k, row in TABLE2.items() for s, want in row.items()
                  if got[k, s] != want]
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 1.0
    _report(2, ok, f"r1 grid exact for k=4..6 ({sum(map(len, TABLE2.values()))} cells), "
                   f"{elapsed:.2f}s < 1s; mismatches={mismatches}")


def test_criterion_3_regime_markers():
    markers = {(k, s): th.threshold_report(k, s).marker
               for k in (4, 5, 6) for s in range(2, comb(k, 2) + 1)}
    want_ast = {(4, 5), (5, 7), (6, 9)}
    want_star = {(6, 15)}
    got_ast = {cell for cell, mark in markers.items() if mark == th.ASTERISK}
    got_star = {cell for cell, mark in markers.items() if mark == th.STAR}
    ok = got_ast == want_ast and got_star == want_star
    _report(3, ok, f"asterisks {sorted(got_ast)} star {sorted(got_star)} "
                   f"from computed s0/s1")


# -- criterion 4: census vs brute on every small graph --------------------------

def _graphs_batch(n, masks):
    pairs = list(combinations(range(n), 2))
    return [Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1]) for mask in masks]


def _oracle_worker(task):
    n, masks = task
    checked = 0
    bad = []
    for g in _graphs_batch(n, masks):
        for k in (3, 4):
            for s in (2, 3):
                poly = cn.build_census(g, k, s, t_max=max(1, min(g.m, 4)))
                for r in (2, 3, 4):
                    a = cn.evaluate(poly, r).value
                    b = cn.count_brute(g, k, s, r).value
                    checked += 1
                    if a != b:
                        bad.append((g.graph6, k, s, r, a, b))
    return checked, bad


def test_criterion_4_oracle_equivalence():
    t0 = time.perf_counter()
    tasks = []
    total_graphs = 0
    for n in range(1, 7):
        npairs = comb(n, 2)
        masks = [m for m in range(1 << npairs) if m.bit_count() <= 7]
        total_graphs += len(masks)
        step = max(1, len(masks) // (JOBS * 8))
        tasks.extend((n, masks[i:i + step]) for i in range(0, len(masks), step))
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(JOBS) as pool:
        results = pool.map(_oracle_worker, tasks)
    checked = sum(c for c, _ in results)
    bad = [x for _, b in results for x in b]
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 600 and checked == total_graphs * 4 * 3
    _report(4, ok, f"census == brute on {total_graphs} graphs (n<=6, m<=7), "
                   f"{checked} (k,s,r) checks, {elapsed:.0f}s < 600s on {JOBS} workers; "
                   f"first mismatches={bad[:3]}")


def test_criterion_5_turan_and_fewer_color_identities():
    failures = []
    for k in (3, 4, 5):
        for n in range(max(2, k - 1), 13):
            g = turan_graph(n, k)
            for r in (2, 5, 7):
                for s in (2, 3, comb(k, 2)):
                    res = cn.count_colorings(g, k, s, r)
                    if res.value != r ** th.turan_ex(n, k):
                        failures.append(("turan", n, k, s, r))
    for n in range(2, 7):
        g = complete(n)
        for k in (3, 4, 5):
            for s in range(3, comb(k, 2) + 1):
                for r in (2, s - 1):
                    if r < s:
                        res = cn.count_colorings(g, k, s, r)
                        if res.value != r ** comb(n, 2):
                            failures.append(("complete", n, k, s, r))
    # spot-check the shortcut against the definitional oracle
    for (n, k, s, r) in [(4, 4, 4, 2), (4, 4, 5, 3), (5, 4, 6, 3)]:
        if cn.count_colorings(complete(n), k, s, r).value != \
                cn.count_brute(complete(n), k, s, r).value:
            failures.append(("brute-spot", n, k, s, r))
    _report(5, not failures, f"count(T_(k-1)(n)) = r^ex(n,k) for n<=12, k in 3..5, r<=7 "
                             f"and count(K_n) = r^C(n,2) for r < s, n<=6; "
                             f"failures={failures}")


def test_criterion_6_lp_certificates():
    failures = []
    for k in range(4, 9):
        for s in range(2, th.s0(k) + 1):
            lp = lpv.build_lp(k, s)
            cert = lpv.certify(lp, lpv.claimed_solution(lp))
            base, params = th.r0_base(k, s)
            if not cert.feasible:
                failures.append((k, s, "infeasible"))
            if not cert.optimal:
                failures.append((k, s, "not optimal"))
            if cert.vertex_max.compare(base) != EQUAL:
                failures.append((k, s, "value != threshold base"))
            if s >= 3:
                i = params.i_star
                if cert.support_sum_actual != Fr(k - i, k - i - 1):
                    failures.append((k, s, "support sum"))
                if cert.support_sum_matches != (cert.support_sum_actual == 2):
                    failures.append((k, s, "flag"))
    _report(6, not failures,
            f"LOW-regime certificates optimal and equal to r0 base for k=4..8, "
            f"support sums telescoped and flagged when != 2; failures={failures}")


def test_criterion_7_pair_census():
    pairs_s3 = set(pc.pairs_census((4, 9), 3))
    expected = set(pc.REPORTED_TIGHT_PAIRS) | {(k, 3) for k in range(4, 10)}
    pairs_s4 = {p for p in pairs_s3 if p[1] >= 4}
    rep = pc.pairs_report((4, 9), 3)
    ok = (pairs_s3 == expected
          and pairs_s4 == set(pc.REPORTED_TIGHT_PAIRS) - {(9, 3)}
          and "(9, 3)" in rep["note"])
    _report(7, ok, f"census(s>=3) = 8 reported pairs + all (k,3) [{len(pairs_s3)} pairs]; "
                   f"census(s>=4) drops (9,3); discrepancy reported")


def test_criterion_8_threshold_equals_s_at_3():
    reports = [th.threshold_report(k, 3) for k in range(4, 31)]
    failures = [(rep.k, rep.r0, rep.r1) for rep in reports if rep.r0 != 3 or rep.r1 != 2]
    rep = pc.find_k0(3, 30)
    ok = not failures and rep.passed
    _report(8, ok, f"r0(k,3)=3 and r1(k,3)=2 for every k in [4,30]; failures={failures}")


def test_criterion_9_property_suites():
    t0 = time.perf_counter()
    details = []
    lemma = pc.check_lpartite_lemma(l_values=(2, 3, 4), n_max=7)
    details.append(f"partition bound exhaustive n<=7: {lemma.verdict} "
                   f"({lemma.instances_tested} checks)")
    furedi = pc.furedi_suite(instances=100, seed=pc.DEFAULT_SEED)
    details.append(f"stability on 100 seeded instances: {furedi.verdict}")
    entropy = pc.check_entropy(grid_resolution=64, n_max=60)
    details.append(f"entropy grids: {entropy.verdict} ({entropy.instances_tested} checks)")
    bounds = pc.check_turan_bounds(k_values=(3, 4, 5, 6, 7, 8), n_max=200)
    details.append(f"edge-count bounds n in [k,200]: {bounds.verdict}")
    ok = all(r.passed for r in (lemma, furedi, entropy, bounds))
    _report(9, ok, "; ".join(details) + f"; {time.perf_counter() - t0:.0f}s")
