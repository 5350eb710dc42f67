"""CLI behavior: exit codes, formats, determinism, config layering."""

import csv
import json
import os
import shlex
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

from rtlab import census, thresholds
from rtlab.cli import (EXIT_CHECK_FAILED, EXIT_CONTRACT, EXIT_OK, EXIT_RESOURCE,
                       EXIT_USAGE, main)

from test_golden import CASES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestThresholds:
    def test_single_cell(self, capsys):
        code, out, _ = run(capsys, "thresholds", "--k", "4", "--s", "5")
        assert code == EXIT_OK
        assert "r0=222" in out and "regime=MID" in out

    def test_table_md(self, capsys):
        code, out, _ = run(capsys, "thresholds", "table", "--k", "4..6", "--format", "md")
        assert code == EXIT_OK
        assert "222*" in out and "5434" in out and "3528" in out

    def test_table_to_k20_json(self, capsys):
        code, out, _ = run(capsys, "thresholds", "table", "--k", "4..20", "--format", "json")
        assert code == EXIT_OK
        cells = json.loads(out)["result"]["cells"]
        assert len(cells) == sum(k * (k - 1) // 2 - 1 for k in range(4, 21))

    def test_table_csv(self, capsys):
        code, out, _ = run(capsys, "thresholds", "table", "--k", "4..4", "--format", "csv")
        assert code == EXIT_OK
        assert "4,5,222,7,MID" in out

    def test_k3_contract_violation(self, capsys):
        code, _, err = run(capsys, "thresholds", "--k", "3", "--s", "3")
        assert code == EXIT_CONTRACT
        assert "prior-work" in err

    def test_missing_s_usage(self, capsys):
        code, _, _ = run(capsys, "thresholds", "--k", "4")
        assert code == EXIT_USAGE

    def test_unknown_flag_usage(self, capsys):
        code, _, _ = run(capsys, "thresholds", "--k", "4", "--s", "3", "--bogus")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        "thresholds --k x --s 3",
        "thresholds table --k 4..x",
        "thresholds table --k 6..4",
        "thresholds --k 4..6 --s 3",
        "pairs --k 4..z",
        "count --parts 2,a --k 3 --s 2 --r 2",
        "scan --n 4 --k 3 --s 2 --r 2 --threads 0",
        "count --complete 3 --k 3 --s 2 --r 2 --threads -2",
    ])
    def test_malformed_values_usage(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("usage error: ")


class TestCount:
    def test_turan_power(self, capsys):
        code, out, _ = run(capsys, "count", "--turan", "6", "4",
                           "--k", "4", "--s", "3", "--r", "7", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["result"]["value"] == str(7 ** 12)
        assert doc["result"]["method"] == "trivial_kfree"

    def test_complete_lemma_shortcut(self, capsys):
        code, out, _ = run(capsys, "count", "--complete", "4",
                           "--k", "4", "--s", "4", "--r", "2", "--format", "json")
        assert json.loads(out)["result"]["value"] == "64"

    def test_brute_method(self, capsys):
        code, out, _ = run(capsys, "count", "--complete", "4", "--k", "4",
                           "--s", "2", "--r", "3", "--method", "brute", "--format", "json")
        assert json.loads(out)["result"]["value"] == "3"

    def test_resource_exit(self, capsys):
        code, _, err = run(capsys, "count", "--complete", "6", "--k", "4", "--s", "2",
                           "--r", "5", "--method", "brute", "--coloring-budget", "1000")
        assert code == EXIT_RESOURCE
        assert "budget" in err

    def test_graph_source_required(self, capsys):
        code, _, _ = run(capsys, "count", "--k", "3", "--s", "2", "--r", "2")
        assert code == EXIT_USAGE

    def test_two_graph_sources_usage(self, capsys):
        code, out, err = run(capsys, "count", "--complete", "3", "--parts", "2,1",
                             "--k", "3", "--s", "2", "--r", "2")
        assert code == EXIT_USAGE and out == ""
        assert "not allowed with" in err

    def test_bad_graph6_contract(self, capsys):
        code, _, _ = run(capsys, "count", "--graph6", "Bww", "--k", "3", "--s", "2", "--r", "2")
        assert code == EXIT_CONTRACT

    def test_elapsed_only_on_stderr(self, capsys):
        _, out, err = run(capsys, "count", "--complete", "3", "--k", "3", "--s", "2",
                          "--r", "2", "--format", "json")
        assert "elapsed" in err and "elapsed" not in out

    def test_elapsed_includes_the_census(self, capsys, monkeypatch):
        real = census.build_census

        def slow(*args, **kwargs):
            time.sleep(0.05)
            return real(*args, **kwargs)

        monkeypatch.setattr(census, "build_census", slow)
        code, _, err = run(capsys, "count", "--complete", "4", "--k", "4", "--s", "3", "--r", "3",
                           "--method", "census")
        assert code == EXIT_OK
        elapsed = float(err.split("elapsed: ")[1].split("s")[0])
        assert elapsed >= 0.05

    def test_kfree_graph_beyond_the_clique_mask_cap(self, capsys):
        # T_3(20) has 133 edges, more than clique edge masks hold, and no K4
        code, out, _ = run(capsys, "count", "--turan", "20", "4", "--k", "4", "--s", "4",
                           "--r", "5", "--format", "json")
        assert code == EXIT_OK
        res = json.loads(out)["result"]
        assert res["method"] == "trivial_kfree" and res["value"] == str(5 ** 133)

    def test_complete_graph_at_3_3_beyond_the_census(self, capsys):
        # the census exits 3 on K8 under the default budget; the Gallai route does not
        code, out, _ = run(capsys, "count", "--complete", "8", "--k", "3", "--s", "3",
                           "--r", "3", "--format", "json")
        assert code == EXIT_OK
        res = json.loads(out)["result"]
        assert (res["method"], res["nodes_visited"]) == ("gallai", 0)

    def test_method_census_forces_the_census(self, capsys):
        code, out, _ = run(capsys, "count", "--complete", "6", "--k", "3", "--s", "3",
                           "--r", "4", "--method", "census", "--format", "json")
        assert code == EXIT_OK
        res = json.loads(out)["result"]
        assert (res["method"], res["nodes_visited"], res["value"]) == ("census", 7863, "843904")

    def test_q2_exact_at_40_vertices(self, capsys):
        code, out, _ = run(capsys, "q2", "--n", "40", "--k", "3", "--s", "3", "--r", "3",
                           "--format", "json")
        assert code == EXIT_OK
        assert abs(json.loads(out)["result"]["ratio_float"] - 1) < 1e-8

    def test_q2_exact_at_40_vertices_in_the_few_colors_regime(self, capsys):
        code, out, _ = run(capsys, "q2", "--n", "40", "--k", "4", "--s", "3", "--r", "4",
                           "--format", "json")
        assert code == EXIT_OK
        # one color on every edge, or two, against C(4, 2) 2^m
        m = comb(40, 2)
        rep = json.loads(out)["result"]
        assert (rep["count"], rep["reference"]) == (str(6 * 2 ** m - 8), str(6 * 2 ** m))

    @pytest.mark.parametrize("argv", [
        "count --complete 3 --k 3 --s 2 --r -1",
        "count --turan 6 4 --k 4 --s 3 --r -3",
        "count --complete 3 --k 3 --s 2 --r -1 --method census",
        "count --complete 3 --k 3 --s 2 --r -1 --method brute",
        "scan --n 4 --k 3 --s 3 --r -1",
        "scan --n 4 --k 3 --s 3 --r -1 --threads 2",
    ])
    def test_negative_r_contract(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert code == EXIT_CONTRACT and out == ""
        assert "r >= 0" in err

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_negative_r_contract_with_no_row_counted(self, capsys, tmp_path, threads):
        # the file's only graph has 3 vertices, so no row of the n = 4 scan is counted
        path = tmp_path / "g.g6"
        path.write_text("Bw\n")
        code, out, err = run(capsys, "scan", "--n", "4", "--k", "3", "--s", "3", "--r", "-1",
                             "--file", str(path), "--threads", threads)
        assert code == EXIT_CONTRACT and out == ""
        assert "r >= 0" in err

    @pytest.mark.parametrize("method", ["auto", "census", "brute"])
    @pytest.mark.parametrize("ksr", ["--k -5 --s 3 --r 2", "--k 1 --s 3 --r 4",
                                     "--k 3 --s 1 --r 0", "--k 3 --s 0 --r 5"])
    def test_k_and_s_contract_on_every_route(self, capsys, method, ksr):
        # r < s and a graph with no k-clique take shortcuts under auto; the
        # contract is checked before any route
        code, out, err = run(capsys, "count", "--complete", "3", *ksr.split(),
                             "--method", method)
        assert code == EXIT_CONTRACT and out == ""
        assert "k >= 2, s >= 2, r >= 0" in err

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("ksr", ["--k 9 --s 1 --r 3", "--k -5 --s 3 --r 2"])
    def test_k_and_s_contract_of_scan(self, capsys, threads, ksr):
        code, out, err = run(capsys, "scan", "--n", "4", *ksr.split(), "--threads", threads)
        assert code == EXIT_CONTRACT and out == ""
        assert "k >= 2, s >= 2, r >= 0" in err

    @pytest.mark.parametrize("graph, value", [("--complete 3", "0"), ("--graph6 B?", "1")])
    def test_zero_colors_brute_as_auto(self, capsys, graph, value):
        argv = f"count {graph} --k 3 --s 2 --r 0 --format json".split()
        for method in ("auto", "brute"):
            code, out, _ = run(capsys, *argv, "--method", method)
            assert code == EXIT_OK and json.loads(out)["result"]["value"] == value


class TestDeterminism:
    def test_json_byte_identical(self, capsys):
        args = ("scan", "--n", "5", "--k", "4", "--s", "4", "--r", "2", "--format", "json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_count_read_from_cache_prints_the_same(self, capsys, monkeypatch, tmp_path):
        # the census's work count is kept with it, so nodes_visited does not
        # depend on whether this run built the census or read it back
        monkeypatch.delenv("RTL_CACHE", raising=False)
        path = tmp_path / "c.jsonl"
        args = ("count", "--parts", "3,2,1", "--k", "3", "--s", "3", "--r", "4",
                "--cache", str(path), "--format", "json")
        _, built, _ = run(capsys, *args)
        _, read, _ = run(capsys, *args)
        assert built == read and json.loads(built)["result"]["nodes_visited"] > 0
        assert path.read_text().count("\n") == 1

    def test_count_reads_only_the_census_of_its_own_t_max(self, capsys, monkeypatch, tmp_path):
        # above r = 16 each r has its own t_max; a stored census of a larger
        # t_max gives the value but not the nodes_visited of this count's own
        monkeypatch.delenv("RTL_CACHE", raising=False)
        path = tmp_path / "c.jsonl"
        args = ("count", "--complete", "7", "--k", "3", "--s", "4", "--format", "json")
        _, fresh, _ = run(capsys, *args, "--r", "17")
        _, larger, _ = run(capsys, *args, "--r", "18")
        assert json.loads(larger)["result"]["nodes_visited"] != json.loads(fresh)["result"]["nodes_visited"]
        run(capsys, *args, "--r", "18", "--cache", str(path))
        _, built, _ = run(capsys, *args, "--r", "17", "--cache", str(path))
        _, read, _ = run(capsys, *args, "--r", "17", "--cache", str(path))
        assert json.loads(built)["result"] == json.loads(fresh)["result"]
        assert built == read
        assert [json.loads(line)["t_max"] for line in path.read_text().splitlines()] == [18, 17]

    def test_count_independent_of_hash_seed(self):
        # the edge order is chosen by a race of candidate orders; nothing in it
        # may follow set or dict order of hashed objects
        argv = ("-m", "rtlab", "count", "--parts", "3,1,1,1,1", "--k", "4", "--s", "4",
                "--r", "5", "--format", "json")
        outs = [_python(*argv, PYTHONHASHSEED=seed) for seed in ("0", "4242")]
        assert outs[0].returncode == outs[1].returncode == EXIT_OK
        assert outs[0].stdout == outs[1].stdout

    def test_json_numbers_are_strings(self, capsys):
        _, out, _ = run(capsys, "count", "--complete", "4", "--k", "4", "--s", "4",
                        "--r", "2", "--format", "json")
        assert json.loads(out)["result"]["value"] == "64"   # decimal string, not int


class TestScanThreads:
    """Rows counted by a pool give the same bytes as rows counted in turn."""

    @pytest.mark.parametrize("case", ["scan", "scan-budget-rows"])
    def test_result_independent_of_threads(self, capsys, monkeypatch, case):
        monkeypatch.delenv("RTL_CACHE", raising=False)
        outs = {}
        for threads in ("1", "2"):
            for fmt in ("json", "md"):
                code, outs[threads, fmt], _ = run(capsys, *shlex.split(CASES[case]),
                                                  "--threads", threads, "--format", fmt)
                assert code == EXIT_OK
        assert json.loads(outs["1", "json"])["result"] == json.loads(outs["2", "json"])["result"]
        md1, md2 = (outs[t, "md"].splitlines() for t in ("1", "2"))
        assert md1[1].startswith("# config: ") and "threads=1" in md1[1]
        assert md1[:1] + md1[2:] == md2[:1] + md2[2:]

    def test_cache_file_independent_of_threads(self, capsys, monkeypatch, tmp_path):
        self._same_cache_files(capsys, monkeypatch, tmp_path, "5", "3", "3", "3")

    def test_cache_file_with_raced_orders_independent_of_threads(self, capsys, monkeypatch,
                                                                  tmp_path):
        # n = 6 has graphs of more than 10 edges, whose candidate edge orders
        # race; the lines keep each census's nodes_visited
        self._same_cache_files(capsys, monkeypatch, tmp_path, "6", "4", "3", "4")

    @staticmethod
    def _same_cache_files(capsys, monkeypatch, tmp_path, n, k, s, r):
        monkeypatch.delenv("RTL_CACHE", raising=False)
        files = {}
        for threads in ("1", "2"):
            path = tmp_path / f"cache{threads}.jsonl"
            args = ("scan", "--n", n, "--k", k, "--s", s, "--r", r,
                    "--cache", str(path), "--threads", threads)
            code, first, _ = run(capsys, *args)
            files[threads] = path.read_bytes()
            code2, second, _ = run(capsys, *args)
            assert code == code2 == EXIT_OK and first == second
            assert path.read_bytes() == files[threads]   # the second run appends nothing
        assert files["1"] == files["2"] and files["1"].count(b"\n") > 1


class TestLpAndPairs:
    def test_lp_low(self, capsys):
        code, out, _ = run(capsys, "lp", "--k", "5", "--s", "4", "--format", "json")
        assert code == EXIT_OK
        res = json.loads(out)["result"]
        assert res["optimal"] is True
        assert [3, "4/3"] in res["claimed_value_factors"]
        assert [2, "1/6"] in res["claimed_value_factors"]

    def test_lp_mid_high_defaults_witness(self, capsys):
        code, out, _ = run(capsys, "lp", "--k", "4", "--s", "5",
                           "--variant", "mid-high", "--format", "json")
        assert code == EXIT_OK
        res = json.loads(out)["result"]
        assert res["case_bases_ordering"] <= 0
        assert res["lp"]["p"] == 3 and res["lp"]["j"] == 3

    def test_lp_mid_high_given_witness(self, capsys):
        code, out, _ = run(capsys, "lp", "--k", "4", "--s", "5", "--variant", "mid-high",
                           "--p", "2", "--j", "3", "--format", "json")
        assert code == EXIT_OK
        res = json.loads(out)["result"]
        assert (res["lp"]["p"], res["lp"]["j"], res["lp"]["free_cap"]) == (2, 3, "5/1")

    @pytest.mark.parametrize("argv", [
        ["--s", "5", "--variant", "mid-high", "--p", "2"],
        ["--s", "5", "--variant", "mid-high", "--j", "3"],
        ["--s", "3", "--p", "2"],
    ])
    def test_lp_witness_flags_usage(self, capsys, argv):
        # one of --p/--j alone is refused
        code, out, err = run(capsys, "lp", "--k", "4", *argv)
        assert code == EXIT_USAGE and out == ""
        assert "usage error" in err and "--p" in err

    @pytest.mark.parametrize("argv", [
        "--k 4 --s 5 --variant low",                     # a MID_HIGH cell as low
        "--k 4 --s 3 --variant mid-high",                # a LOW cell as mid-high
        "--k 4 --s 3 --variant mid-high --p 2 --j 3",
        "--k 4 --s 3 --variant low --p 2 --j 3",         # a witness for a LOW cell
        "--k 4 --s 3 --p 2 --j 3",
        "--k 6 --s 15 --variant mid-high --p 3 --j 1",   # infeasible witness
        "--k 3 --s 2",                                   # k outside formula scope
        "--k 4 --s 7",                                   # s > C(k, 2)
    ])
    def test_lp_regime_contract(self, capsys, argv):
        code, out, err = run(capsys, "lp", *argv.split())
        assert code == EXIT_CONTRACT and out == ""
        assert err.startswith("error:")

    def test_lp_variant_defaults_to_the_cells_regime(self, capsys):
        cells = [(k, s) for k in range(4, 7) for s in range(2, comb(k, 2) + 1)
                 if thresholds.regime_params(k, s).regime is not thresholds.Regime.LOW]
        assert cells
        for k, s in cells:
            argv = ["lp", "--k", str(k), "--s", str(s), "--format", "json"]
            code, out, _ = run(capsys, *argv)
            assert (code, out) == run(capsys, *argv, "--variant", "mid-high")[:2]
            assert code == EXIT_OK

    def test_pairs(self, capsys):
        code, out, _ = run(capsys, "pairs", "--k", "4..9", "--s-min", "3", "--format", "json")
        assert code == EXIT_OK
        res = json.loads(out)["result"]
        assert [9, 3] in res["pairs"] and len(res["pairs"]) == 13
        assert res["s4_census_equals_reported_minus_9_3"]

    def test_findk0(self, capsys):
        code, out, _ = run(capsys, "findk0", "--s", "3", "--k-max", "12", "--format", "json")
        assert code == EXIT_OK

    @pytest.mark.parametrize("argv", ["--s 3 --k-max -3", "--s 100 --k-max 10"])
    def test_findk0_with_no_k_to_test_is_a_contract_error(self, capsys, argv):
        code, out, err = run(capsys, "findk0", *argv.split())
        assert code == EXIT_CONTRACT and out == ""
        assert "has C(k, 2) >= s" in err

    @pytest.mark.parametrize("argv", [
        "pairs --k 3", "pairs --k 2", "pairs --k 1", "pairs --k 2..9",
        "pairs --k 4..5 --s-min 40",
        "thresholds table --k 4..5 --s 50", "thresholds table --k 4 --s 1",
        "findk0 --s 100 --k-max 10"])
    def test_request_with_no_cell_is_a_contract_error(self, capsys, argv):
        # a k below formula scope, or a range that reaches no cell, is refused
        # before any output
        code, out, err = run(capsys, *argv.split(), "--format", "json")
        assert code == EXIT_CONTRACT and out == ""
        assert err.startswith("error:")


class TestProps:
    def test_entropy_check_passes(self, capsys):
        code, out, _ = run(capsys, "props", "--check", "entropy", "--grid", "16",
                           "--format", "json")
        assert code == EXIT_OK
        reports = json.loads(out)["result"]["reports"]
        assert all(r["verdict"] == "pass" for r in reports)

    @pytest.mark.parametrize("argv", ["--check entropy --grid 0", "--check entropy --grid -2",
                                      "--check furedi --instances -3",
                                      "--check partsizes --instances -1",
                                      "--check lpartite --n-max -1",
                                      "--check lpartite --n-max 0"])
    def test_bad_counts_usage(self, capsys, argv):
        code, out, err = run(capsys, "props", *argv.split())
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("usage error:")

    def test_zero_instances_accepted(self, capsys):
        code, out, _ = run(capsys, "props", "--check", "furedi", "--instances", "0",
                           "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["result"]["reports"][0]["instances_tested"] == 0

    def test_exit_code_mapping_for_failures(self):
        # the runner flips to the check-failure exit code when any report fails
        from rtlab import propcheck

        def fake_check(**kwargs):
            rep = propcheck.CheckReport("forced")
            rep.failures.append(("x", "forced failure"))
            return rep

        import rtlab.cli as cli
        orig = propcheck.check_entropy
        propcheck.check_entropy = lambda **kw: fake_check()
        try:
            code = cli.main(["props", "--check", "entropy"])
        finally:
            propcheck.check_entropy = orig
        assert code == EXIT_CHECK_FAILED

    def test_lpartite_past_the_partition_cap_exits_before_any_work(self, capsys):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "props", "--check", "lpartite", "--n-max", "17")
        assert time.perf_counter() - t0 < 5
        assert code == EXIT_RESOURCE and out == ""
        assert "exact partition search capped at 16 vertices, got 17" in err


class TestFiles:
    SCAN = ("scan", "--n", "3", "--k", "3", "--s", "2", "--r", "2")
    COUNT = ("count", "--k", "3", "--s", "2", "--r", "2")

    def test_scan_csv_error_field_is_one_column(self, capsys, tmp_path):
        # a graph of the wrong size gets a row whose error text holds a comma
        path = tmp_path / "g.g6"
        path.write_text("Bw\nC~\n")
        code, out, _ = run(capsys, "scan", "--n", "4", "--k", "3", "--s", "3", "--r", "3",
                           "--file", str(path), "--format", "csv")
        assert code == EXIT_OK
        rows = list(csv.reader(out.splitlines()[2:]))
        assert rows[0] == "rank,graph6,parts,value,vs_turan,tied,error".split(",")
        assert [len(row) for row in rows] == [7, 7, 7]
        assert rows[2][1] == "Bw" and rows[2][6] == "graph has 3 vertices, scan is for n = 4"

    @pytest.mark.parametrize("command", [COUNT, SCAN])
    def test_missing_graph6_file_usage(self, capsys, tmp_path, command):
        path = tmp_path / "missing.g6"
        code, out, err = run(capsys, *command, "--file", str(path))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("usage error:") and str(path) in err

    @pytest.mark.parametrize("command", [COUNT, SCAN])
    def test_non_ascii_graph6_file_contract(self, capsys, tmp_path, command):
        path = tmp_path / "bad.g6"
        path.write_bytes(b"B\xc3w\n")
        code, out, err = run(capsys, *command, "--file", str(path))
        assert code == EXIT_CONTRACT and out == ""
        assert "non-ASCII" in err and "(byte 1)" in err

    @pytest.mark.parametrize("command", [COUNT + ("--complete", "3"), SCAN])
    def test_cache_naming_a_directory_usage(self, capsys, tmp_path, command):
        code, out, err = run(capsys, *command, "--cache", str(tmp_path))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("usage error:") and str(tmp_path) in err

    def test_unwritable_cache_usage(self, capsys, tmp_path):
        # the cache reads nothing from a path that does not exist yet; writing
        # its first census needs a directory where a file stands
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, out, err = run(capsys, *self.COUNT, "--complete", "3", "--method", "census",
                             "--cache", str(blocker / "c.jsonl"))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("usage error:") and str(blocker) in err


class TestConfigLayers:
    def test_config_file_under_flags(self, capsys, tmp_path):
        cfg = tmp_path / "rtlab.cfg"
        cfg.write_text("threads = 3\nformat = json\n")
        _, out, _ = run(capsys, "count", "--complete", "3", "--k", "3", "--s", "2",
                        "--r", "2", "--config", str(cfg))
        doc = json.loads(out)
        assert doc["config"]["threads"] == 3
        # flag wins over file
        _, out2, _ = run(capsys, "count", "--complete", "3", "--k", "3", "--s", "2",
                         "--r", "2", "--config", str(cfg), "--format", "md")
        assert out2.startswith("# rtlab")

    def _bad_config(self, capsys, path):
        code, out, err = run(capsys, "thresholds", "--k", "4", "--s", "5", "--config", str(path))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("usage error:") and str(path) in err
        return err

    def test_config_value_of_wrong_type_usage(self, capsys, tmp_path):
        cfg = tmp_path / "rtlab.cfg"
        cfg.write_text("threads = x\n")
        assert "invalid int value: 'x'" in self._bad_config(capsys, cfg)

    def test_config_threads_not_positive_usage(self, capsys, tmp_path):
        cfg = tmp_path / "rtlab.cfg"
        cfg.write_text("threads = -1\n")
        assert "'-1' is not a positive integer" in self._bad_config(capsys, cfg)

    def test_config_value_outside_choices_usage(self, capsys, tmp_path):
        cfg = tmp_path / "rtlab.cfg"
        cfg.write_text("format = xml\n")
        assert "invalid choice: 'xml'" in self._bad_config(capsys, cfg)

    def test_missing_config_file_usage(self, capsys, tmp_path):
        assert "No such file" in self._bad_config(capsys, tmp_path / "absent.cfg")

    def test_config_line_without_equals_usage(self, capsys, tmp_path):
        cfg = tmp_path / "rtlab.cfg"
        cfg.write_text("threads = 2\nformat json\n")
        assert "line 'format json' is not key = value" in self._bad_config(capsys, cfg)

    def test_config_unknown_key_usage(self, capsys, tmp_path):
        cfg = tmp_path / "rtlab.cfg"
        cfg.write_text("format = json\nnode-budgt = 5\n")
        assert "unknown key 'node-budgt'" in self._bad_config(capsys, cfg)

    @pytest.mark.parametrize("flag", ["node-budget", "coloring-budget"])
    def test_negative_budget_usage(self, capsys, tmp_path, flag):
        code, out, err = run(capsys, "count", "--complete", "4", "--k", "4", "--s", "3",
                             "--r", "3", f"--{flag}", "-5")
        assert code == EXIT_USAGE and out == ""
        assert "'-5' is not a non-negative integer" in err
        cfg = tmp_path / "rtlab.cfg"
        cfg.write_text(f"{flag} = -1\n")
        assert "'-1' is not a non-negative integer" in self._bad_config(capsys, cfg)

    def test_zero_node_budget_is_a_budget_exit(self, capsys):
        code, out, err = run(capsys, "count", "--complete", "4", "--k", "4", "--s", "3",
                             "--r", "3", "--method", "census", "--node-budget", "0")
        assert code == EXIT_RESOURCE and out == ""
        assert "node budget 0" in err

    def test_env_cache_override(self, capsys, tmp_path, monkeypatch):
        cache_path = tmp_path / "env.jsonl"
        monkeypatch.setenv("RTL_CACHE", str(cache_path))
        code, _, _ = run(capsys, "count", "--complete", "4", "--k", "4", "--s", "3",
                         "--r", "3", "--method", "census")
        assert code == EXIT_OK
        assert cache_path.exists()

    def test_layers_file_env_flag(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "rtlab.cfg"
        cfg.write_text("cache = file.jsonl\nformat = json\n")
        argv = ["thresholds", "--k", "4", "--s", "5", "--config", str(cfg)]
        def cache(*more):
            return json.loads(run(capsys, *argv, *more)[1])["config"]["cache"]

        assert cache() == "file.jsonl"
        monkeypatch.setenv("RTL_CACHE", "env.jsonl")
        assert (cache(), cache("--cache", "flag.jsonl")) == ("env.jsonl", "flag.jsonl")

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_repeated_calls_share_one_parser(self, capsys):
        # the parser is built once per process; help, version, usage errors
        # and parsed values must not carry over from one call to the next
        outputs = []
        for _ in range(2):
            assert main(["--help"]) == 0
            help_text = capsys.readouterr().out
            assert main(["--version"]) == 0
            outputs.append((help_text, capsys.readouterr().out))
            assert main(["thresholds", "--k", "4"]) == EXIT_USAGE
            capsys.readouterr()
            code, out, _ = run(capsys, "thresholds", "--k", "4", "--s", "5", "--format", "json")
            assert code == EXIT_OK and json.loads(out)["config"]["format"] == "json"
            code, out, _ = run(capsys, "thresholds", "--k", "4", "--s", "5")
            assert code == EXIT_OK and out.startswith("# rtlab")
        assert outputs[0] == outputs[1]
        assert "usage: rtlab" in outputs[0][0] and outputs[0][1].startswith("rtlab ")


def _python(*args, **env_vars):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, **env_vars, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=60)


class TestProcess:
    def test_python_m_rtlab(self):
        proc = _python("-m", "rtlab", "thresholds", "--k", "4", "--s", "5", "--format", "json")
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["result"]["r0"] == "222"

    def test_cli_import_leaves_numpy_unloaded(self):
        # numpy serves only the brute-force oracle and the process pool only
        # scans with --threads above 1; each is imported where it is used
        proc = _python("-c", "import sys, rtlab.cli; "
                       "print('numpy' in sys.modules, 'concurrent.futures' in sys.modules)")
        assert proc.returncode == 0 and proc.stdout.strip() == "False False"
