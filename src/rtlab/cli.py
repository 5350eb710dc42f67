"""Command-line front end.

Every command echoes its effective configuration in the output header and
emits md, csv or json.  JSON payloads are deterministic: key order is
fixed, numeric cells are exact decimal strings, and nothing time-dependent
enters the body (timings go to stderr).  Exit codes: 0 ok, 1 usage,
2 contract violation, 3 resource budget, 4 check failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__, census, lpverify, propcheck, thresholds
from .errors import ContractViolationError, ResourceLimitError
from .graphs import GraphFormatError, complete, complete_multipartite, parse_graph6, \
    read_graph6_file, turan_graph

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONTRACT = 2
EXIT_RESOURCE = 3
EXIT_CHECK_FAILED = 4

DEFAULTS = {
    "format": "md",
    "threads": 1,
    "node_budget": census.DEFAULT_NODE_BUDGET,
    "coloring_budget": census.DEFAULT_COLORING_BUDGET,
    "cache": None,
    "seed": propcheck.DEFAULT_SEED,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_range(text: str) -> tuple[int, int]:
    """"4" -> (4, 4); "4..6" -> (4, 6)."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    v = int(text)
    return v, v


def _load_config_file(path) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ContractViolationError(f"config line {raw!r} is not key = value")
            key, val = (x.strip() for x in line.split("=", 1))
            out[key.replace("-", "_")] = val
    return out


def _effective_config(args) -> dict:
    """defaults < config file < RTL_CACHE env < explicit flags."""
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        for key, val in _load_config_file(args.config).items():
            if key in ("threads", "node_budget", "coloring_budget", "seed"):
                cfg[key] = int(val)
            elif key in cfg:
                cfg[key] = val
    if os.environ.get("RTL_CACHE"):
        cfg["cache"] = os.environ["RTL_CACHE"]
    for key in DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    return cfg


def _emit(payload: dict, cfg: dict, command: str, md_body: str, fmt: str,
          csv_body: str | None = None) -> None:
    if fmt == "json":
        doc = {"tool": "rtlab", "version": __version__, "command": command,
               "config": {k: cfg[k] for k in sorted(cfg)}, "result": payload}
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
        return
    header = [f"# rtlab v{__version__} :: {command}"]
    header.append("# config: " + " ".join(f"{k}={cfg[k]}" for k in sorted(cfg)))
    body = csv_body if (fmt == "csv" and csv_body is not None) else md_body
    sys.stdout.write("\n".join(header) + "\n" + body)


# -- subcommand runners ---------------------------------------------------------

def _run_thresholds(args, cfg) -> int:
    fmt = cfg["format"]
    if args.table:
        klo, khi = _parse_range(args.k)
        srange = None
        if args.s:
            slo, shi = _parse_range(args.s)
            srange = range(slo, shi + 1)
        table = thresholds.emit_tables(range(klo, khi + 1), srange)
        md = thresholds.table_markdown(table, "r0") + "\n" \
            + thresholds.table_markdown(table, "r1")
        _emit({"cells": thresholds.table_json_obj(table)}, cfg,
              "thresholds table", md, fmt, csv_body=thresholds.table_csv(table))
        return EXIT_OK
    if args.s is None:
        raise _UsageError("single-cell mode needs --s (or use: thresholds table)")
    k, s = int(args.k), int(args.s)
    rep = thresholds.threshold_report(k, s)
    md = (f"k={k} s={s}: r0={rep.r0} r1={rep.r1 if s >= 3 else ''} "
          f"regime={rep.regime.value} s0={rep.s0} s1={rep.s1} base={rep.base}\n")
    csv = ("k,s,r0,r1,regime\n"
           f"{k},{s},{rep.r0},{rep.r1 if s >= 3 else ''},{rep.regime.value}\n")
    _emit(rep.to_dict(), cfg, "thresholds", md, fmt, csv_body=csv)
    return EXIT_OK


def _graph_from_args(args):
    sources = [args.graph6 is not None, args.file is not None,
               args.complete is not None, args.turan is not None,
               args.parts is not None]
    if sum(sources) != 1:
        raise _UsageError("give exactly one graph source "
                          "(--graph6 / --file / --complete / --turan / --parts)")
    if args.graph6 is not None:
        return parse_graph6(args.graph6)
    if args.file is not None:
        graphs = read_graph6_file(args.file)
        if len(graphs) != 1:
            raise ContractViolationError(
                f"--file expects exactly one graph for count, found {len(graphs)}")
        return graphs[0]
    if args.complete is not None:
        return complete(args.complete)
    if args.turan is not None:
        n, k = args.turan
        return turan_graph(n, k)
    return complete_multipartite([int(x) for x in args.parts.split(",")])


def _run_count(args, cfg) -> int:
    g = _graph_from_args(args)
    cache = census.CensusCache(cfg["cache"]) if cfg["cache"] else None
    res = census.count_colorings(
        g, args.k, args.s, args.r, method=args.method,
        node_budget=cfg["node_budget"], coloring_budget=cfg["coloring_budget"],
        jobs=cfg["threads"], cache=cache)
    print(f"elapsed: {res.elapsed:.3f}s", file=sys.stderr)
    md = (f"count(graph6={res.graph_id!r}, k={res.k}, s={res.s}, r={res.r}) "
          f"= {res.value}  [{res.method}]\n")
    csv = ("graph6,k,s,r,method,value,nodes_visited\n"
           f"{res.graph_id},{res.k},{res.s},{res.r},{res.method},"
           f"{res.value},{res.nodes_visited}\n")
    _emit(res.to_dict(), cfg, "count", md, cfg["format"], csv_body=csv)
    return EXIT_OK


def _run_scan(args, cfg) -> int:
    cache = census.CensusCache(cfg["cache"]) if cfg["cache"] else None
    res = census.extremal_scan(
        args.n, args.k, args.s, args.r,
        family="graph6_file" if args.file else "complete_multipartite",
        graph6_path=args.file,
        node_budget=cfg["node_budget"], coloring_budget=cfg["coloring_budget"],
        jobs=cfg["threads"], cache=cache)
    lines = [f"scan n={res.n} k={res.k} s={res.s} r={res.r} "
             f"(reference count {res.turan_count})"]
    csv_lines = ["rank,graph6,parts,value,vs_turan,tied,error"]
    for row in res.rows:
        parts = ",".join(map(str, row.parts)) if row.parts else ""
        if row.value is None:
            lines.append(f"  -    {row.graph_id}  [{parts}]  ERROR {row.error}")
        else:
            tie = " (tie)" if row.tied else ""
            lines.append(f"  #{row.rank}  {row.graph_id}  [{parts}]  {row.value}{tie}")
        csv_lines.append(f"{row.rank or ''},{row.graph_id},\"{parts}\","
                         f"{row.value if row.value is not None else ''},"
                         f"{row.vs_turan if row.vs_turan is not None else ''},"
                         f"{int(row.tied)},{row.error or ''}")
    _emit(res.to_dict(), cfg, "scan", "\n".join(lines) + "\n", cfg["format"],
          csv_body="\n".join(csv_lines) + "\n")
    return EXIT_OK


def _run_lp(args, cfg) -> int:
    payload_extra = {}
    if args.variant == "low":
        cert = lpverify.certify_low(args.k, args.s)
    else:
        p, j = args.p, args.j
        if p is None or j is None:
            _, (p, j) = thresholds.l_opt(args.k, args.s)
        lp = lpverify.build_lp(args.k, args.s, lpverify.VARIANT_MID_HIGH, p=p, j=j)
        cert = lpverify.certify(lp, {})
        payload_extra["case_bases_ordering"] = lpverify.compare_case_bases(
            args.k, args.s, p, j)
    md = (f"lp k={cert.lp.k} s={cert.lp.s} variant={cert.lp.variant}: "
          f"feasible={cert.feasible} optimal={cert.optimal} "
          f"value={cert.claimed_value} vertex_max={cert.vertex_max} "
          f"support_sum={cert.support_sum_actual} "
          f"(expected 2: {cert.support_sum_matches})\n")
    payload = cert.to_json_obj()
    payload.update(payload_extra)
    _emit(payload, cfg, "lp", md, cfg["format"])
    return EXIT_OK


def _run_props(args, cfg) -> int:
    which = args.check
    reports = []
    if which in ("lpartite", "all"):
        reports.append(propcheck.check_lpartite_lemma(
            n_max=args.n_max, seed=cfg["seed"]))
    if which in ("furedi", "all"):
        reports.append(propcheck.furedi_suite(instances=args.instances, seed=cfg["seed"]))
    if which in ("partsizes", "all"):
        reports.append(propcheck.check_part_sizes(
            samples=args.instances, k=args.k, t=args.t, seed=cfg["seed"]))
    if which in ("entropy", "all"):
        reports.append(propcheck.check_entropy(grid_resolution=args.grid))
    if which in ("turanbounds", "all"):
        reports.append(propcheck.check_turan_bounds())
    md_lines = []
    for rep in reports:
        md_lines.append(f"{rep.check_name}: {rep.verdict} "
                        f"({rep.instances_tested} instances, "
                        f"{len(rep.failures)} failures)")
        md_lines.extend(f"  note: {note}" for note in rep.notes)
        md_lines.extend(f"  FAIL: {f}" for f in rep.failures[:20])
    payload = {"reports": [rep.to_dict() for rep in reports]}
    _emit(payload, cfg, "props", "\n".join(md_lines) + "\n", cfg["format"])
    return EXIT_OK if all(rep.passed for rep in reports) else EXIT_CHECK_FAILED


def _run_pairs(args, cfg) -> int:
    klo, khi = _parse_range(args.k)
    rep = propcheck.pairs_report((klo, khi), args.s_min)
    md_lines = [f"pairs with r0 = r1 + 1 for k in [{klo},{khi}], s >= {args.s_min}:"]
    md_lines.extend(f"  ({k},{s})" for k, s in rep["pairs"])
    md_lines.append(f"note: {rep['note']}")
    _emit(rep, cfg, "pairs", "\n".join(md_lines) + "\n", cfg["format"])
    return EXIT_OK


def _run_findk0(args, cfg) -> int:
    rep = propcheck.find_k0(args.s, args.k_max)
    md = "\n".join([f"{rep.check_name}: {rep.verdict}"] +
                   [f"  {n}" for n in rep.notes]) + "\n"
    _emit(rep.to_dict(), cfg, "findk0", md, cfg["format"])
    return EXIT_OK if rep.passed else EXIT_CHECK_FAILED


def _run_q2(args, cfg) -> int:
    cache = census.CensusCache(cfg["cache"]) if cfg["cache"] else None
    rep = census.question2_ratio(
        args.n, args.k, args.s, args.r,
        node_budget=cfg["node_budget"], coloring_budget=cfg["coloring_budget"],
        jobs=cfg["threads"], cache=cache)
    md = (f"complete-graph count ratio at n={args.n}: {rep['ratio']} "
          f"~ {rep['ratio_float']:.6g} (exploratory, no pass/fail)\n")
    _emit(rep, cfg, "q2", md, cfg["format"])
    return EXIT_OK


# -- parser ----------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--format", choices=("md", "csv", "json"), default=None)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--node-budget", dest="node_budget", type=int, default=None)
    p.add_argument("--coloring-budget", dest="coloring_budget", type=int, default=None)
    p.add_argument("--cache", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None)


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process and shared by every
    main() call; callers must not modify it."""
    parser = _Parser(prog="rtlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"rtlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("thresholds", help="threshold quantities and tables")
    p.add_argument("table", nargs="?", choices=("table",),
                   help="emit the full grid instead of one cell")
    p.add_argument("--k", required=True, help="k or k range like 4..6")
    p.add_argument("--s", default=None, help="s or s range")
    _add_common(p)

    p = sub.add_parser("count", help="count admissible colorings of one graph")
    p.add_argument("--graph6", default=None)
    p.add_argument("--file", default=None)
    p.add_argument("--complete", type=int, default=None)
    p.add_argument("--turan", nargs=2, type=int, default=None, metavar=("N", "K"))
    p.add_argument("--parts", default=None, help="comma-separated part sizes")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--method", choices=("auto", "brute", "census"), default="auto")
    _add_common(p)

    p = sub.add_parser("scan", help="rank a graph family by coloring count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--file", default=None, help="graph6 file family instead of multipartite")
    _add_common(p)

    p = sub.add_parser("lp", help="build and certify a stability program")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--variant", choices=("low", "mid-high"), default="low")
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--j", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("props", help="run property checkers")
    p.add_argument("--check", choices=("lpartite", "furedi", "partsizes",
                                       "entropy", "turanbounds", "all"), default="all")
    p.add_argument("--n-max", dest="n_max", type=int, default=7)
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--t", type=int, default=16)
    p.add_argument("--grid", type=int, default=64)
    _add_common(p)

    p = sub.add_parser("pairs", help="census of pairs with r0 = r1 + 1")
    p.add_argument("--k", default="4..9")
    p.add_argument("--s-min", dest="s_min", type=int, default=3)
    _add_common(p)

    p = sub.add_parser("findk0", help="k values where r0 = s and r1 = s - 1")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--k-max", dest="k_max", type=int, default=30)
    _add_common(p)

    p = sub.add_parser("q2", help="exploratory complete-graph count ratio")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    _add_common(p)

    return parser


_RUNNERS = {
    "thresholds": _run_thresholds,
    "count": _run_count,
    "scan": _run_scan,
    "lp": _run_lp,
    "props": _run_props,
    "pairs": _run_pairs,
    "findk0": _run_findk0,
    "q2": _run_q2,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _effective_config(args)
        return _RUNNERS[args.command](args, cfg)
    except SystemExit as exc:   # argparse --help / --version
        return exc.code or 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ContractViolationError, GraphFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


def entry() -> None:
    sys.exit(main())
