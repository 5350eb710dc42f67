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
import time
from math import comb
from typing import NamedTuple

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


def _int_range(text: str) -> range:
    """argparse type of a k or s value: "4" -> range(4, 5), "4..6" -> range(4, 7)."""
    lo, sep, hi = text.partition("..")
    try:
        values = range(int(lo), int(hi if sep else lo) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an integer or a range like 4..6") from None
    if not values:
        raise argparse.ArgumentTypeError(f"range {text!r} is empty")
    return values


def _int_at_least(least: int, what: str):
    """argparse type of an integer of at least `least`, called a `what` integer."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"{text!r} is not a {what} integer")
        return value
    return parse


def _part_sizes(text: str) -> list[int]:
    """argparse type of --parts: "3,2,2" -> [3, 2, 2]."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated list of part sizes") from None


def _config_flags(path) -> list[str]:
    """The `key = value` lines of a config file as `--key=value` flags; an
    unknown key or a line without `=` is a usage error, and main() reports
    an unreadable file as one."""
    flags = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise _UsageError(f"config file {path}: line {line!r} is not key = value")
            key, val = (x.strip() for x in line.split("=", 1))
            if key.replace("-", "_") not in DEFAULTS:
                raise _UsageError(f"config file {path}: unknown key {key!r}")
            flags.append(f"--{key.replace('_', '-')}={val}")
    return flags


def _parse_args(parser, argv: list[str]):
    """Parse argv with the config file's flags, then --cache=$RTL_CACHE, put
    after the command name, so that argparse's last-wins rule layers
    defaults < config file < RTL_CACHE env < explicit flags."""
    args = parser.parse_args(argv)
    layers = _config_flags(args.config) if args.config else []
    if os.environ.get("RTL_CACHE"):
        layers.append(f"--cache={os.environ['RTL_CACHE']}")
    if not layers:
        return args
    at = argv.index(args.command) + 1
    try:
        return parser.parse_args(argv[:at] + layers + argv[at:])
    except _UsageError as exc:   # the user's own flags parsed above
        raise _UsageError(f"config file {args.config}: {exc}") from None


class _Output(NamedTuple):
    """One command's result.  csv is None for commands without a CSV form;
    --format csv then prints the md lines."""

    command: str
    payload: dict
    md: list[str]
    csv: list[list] | None = None
    code: int = EXIT_OK


def _emit(out: _Output, cfg: dict) -> int:
    """Write the result to stdout in the configured format; return its exit code."""
    if cfg["format"] == "json":
        doc = {"tool": "rtlab", "version": __version__, "command": out.command,
               "config": {k: cfg[k] for k in sorted(cfg)}, "result": out.payload}
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
        return out.code
    lines = [f"# rtlab v{__version__} :: {out.command}",
             "# config: " + " ".join(f"{k}={cfg[k]}" for k in sorted(cfg))]
    if cfg["format"] == "csv" and out.csv is not None:
        lines += (",".join("" if c is None else str(c) for c in row) for row in out.csv)
    else:
        lines += out.md
    sys.stdout.write("\n".join(lines) + "\n")
    return out.code


# -- subcommand runners ---------------------------------------------------------

#: CSV columns of a threshold cell, read from its JSON dict (r1 is blank at s = 2)
_CELL_COLUMNS = ("k", "s", "r0", "r1", "regime")


def _md_grid(columns, rows) -> list[str]:
    return (["| k\\s | " + " | ".join(map(str, columns)) + " |",
             "|" + "---|" * (len(columns) + 1)]
            + ["| " + " | ".join(row) + " |" for row in rows])


def _threshold_table(args) -> _Output:
    """The r0 and r1 grids (r1 from s = 3), CSV rows and JSON cells, in one
    pass over the cells with 2 <= s <= C(k, 2)."""
    if args.k[0] < 4:
        raise ContractViolationError(
            f"k = {args.k[0]} is outside formula scope; tables start at k = 4")
    s_values = args.s or range(2, comb(args.k[-1], 2) + 1)
    r0_rows, r1_rows, csv, cells = [], [], [_CELL_COLUMNS], []
    for k in args.k:
        r0_row, r1_row = [str(k)], [str(k)]
        for s in s_values:
            rep = thresholds.threshold_report(k, s) if 2 <= s <= comb(k, 2) else None
            mark = "" if rep is None else rep.marker
            r0_row.append("" if rep is None else f"{rep.r0}{mark}")
            if s >= 3:
                r1_row.append("" if rep is None else f"{rep.r1}{mark}")
            if rep is not None:
                cells.append({**rep.to_dict(), "marker": mark})
                csv.append([cells[-1][c] for c in _CELL_COLUMNS])
        r0_rows.append(r0_row)
        r1_rows.append(r1_row)
    if not cells:
        raise ContractViolationError(
            f"no k in [{args.k[0]}, {args.k[-1]}] has a cell of s in "
            f"[{s_values[0]}, {s_values[-1]}] with 2 <= s <= C(k, 2)")
    md = (_md_grid(s_values, r0_rows) + [""]
          + _md_grid([s for s in s_values if s >= 3], r1_rows))
    return _Output("thresholds table", {"cells": cells}, md, csv)


def _run_thresholds(args, cfg) -> _Output:
    if args.table:
        return _threshold_table(args)
    if args.s is None or len(args.k) != 1 or len(args.s) != 1:
        raise _UsageError("single-cell mode needs one k and one s (or use: thresholds table)")
    rep = thresholds.threshold_report(args.k[0], args.s[0])
    cell = rep.to_dict()
    md = (f"k={rep.k} s={rep.s}: r0={rep.r0} r1={cell['r1']} regime={cell['regime']} "
          f"s0={cell['s0']} s1={cell['s1']} base={rep.base}")
    return _Output("thresholds", cell, [md], [_CELL_COLUMNS, [cell[c] for c in _CELL_COLUMNS]])


def _census_kwargs(cfg) -> dict:
    """Budgets and cache of every census-backed command."""
    return {"node_budget": cfg["node_budget"], "coloring_budget": cfg["coloring_budget"],
            "cache": census.CensusCache(cfg["cache"]) if cfg["cache"] else None}


def _graph_from_args(args):
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
    return complete_multipartite(args.parts)


def _run_count(args, cfg) -> _Output:
    g = _graph_from_args(args)
    t0 = time.perf_counter()
    res = census.count_colorings(g, args.k, args.s, args.r, method=args.method,
                                 **_census_kwargs(cfg))
    print(f"elapsed: {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    md = (f"count(graph6={res.graph_id!r}, k={res.k}, s={res.s}, r={res.r}) "
          f"= {res.value}  [{res.method}]")
    csv = ["graph6,k,s,r,method,value,nodes_visited".split(","),
           [res.graph_id, res.k, res.s, res.r, res.method, res.value, res.nodes_visited]]
    return _Output("count", res.to_dict(), [md], csv)


def _run_scan(args, cfg) -> _Output:
    res = census.extremal_scan(args.n, args.k, args.s, args.r, graph6_path=args.file,
                               jobs=cfg["threads"], **_census_kwargs(cfg))
    md = [f"scan n={res.n} k={res.k} s={res.s} r={res.r} "
          f"(reference count {res.turan_count})"]
    csv = ["rank,graph6,parts,value,vs_turan,tied,error".split(",")]
    for row in res.rows:
        parts = ",".join(map(str, row.parts)) if row.parts else ""
        if row.value is None:
            md.append(f"  -    {row.graph_id}  [{parts}]  ERROR {row.error}")
        else:
            tie = " (tie)" if row.tied else ""
            md.append(f"  #{row.rank}  {row.graph_id}  [{parts}]  {row.value}{tie}")
        error = row.error
        if error and ("," in error or '"' in error):
            error = '"' + error.replace('"', '""') + '"'
        csv.append([row.rank, row.graph_id, f'"{parts}"', row.value, row.vs_turan,
                    int(row.tied), error])
    return _Output("scan", res.to_dict(), md, csv)


def _run_lp(args, cfg) -> _Output:
    if (args.p is None) != (args.j is None):
        raise _UsageError("give both --p and --j, or neither for the L_opt witness")
    lp = lpverify.build_lp(args.k, args.s, args.p, args.j)
    if args.variant and lp.variant != args.variant.upper().replace("-", "_"):
        raise ContractViolationError(
            f"(k, s) = {(args.k, args.s)} is a {lp.variant} program, not --variant {args.variant}")
    cert = lpverify.certify(lp, lpverify.claimed_solution(lp))
    extra = {} if lp.free_cap is None else {
        "case_bases_ordering": lpverify.compare_case_bases(lp)}
    md = (f"lp k={cert.lp.k} s={cert.lp.s} variant={cert.lp.variant}: "
          f"feasible={cert.feasible} optimal={cert.optimal} "
          f"value={cert.claimed_value} vertex_max={cert.vertex_max} "
          f"support_sum={cert.support_sum_actual} "
          f"(expected 2: {cert.support_sum_matches})")
    return _Output("lp", {**cert.to_json_obj(), **extra}, [md])


def _run_props(args, cfg) -> _Output:
    seed = cfg["seed"]
    checks = {   # in the order "all" runs them
        "lpartite": lambda: propcheck.check_lpartite_lemma(n_max=args.n_max, seed=seed),
        "furedi": lambda: propcheck.furedi_suite(instances=args.instances, seed=seed),
        "partsizes": lambda: propcheck.check_part_sizes(
            samples=args.instances, k=args.k, t=args.t, seed=seed),
        "entropy": lambda: propcheck.check_entropy(grid_resolution=args.grid),
        "turanbounds": propcheck.check_turan_bounds,
    }
    reports = [run() for name, run in checks.items() if args.check in (name, "all")]
    md = []
    for rep in reports:
        md.append(f"{rep.check_name}: {rep.verdict} "
                  f"({rep.instances_tested} instances, "
                  f"{len(rep.failures)} failures)")
        md.extend(f"  note: {note}" for note in rep.notes)
        md.extend(f"  FAIL: {f}" for f in rep.failures[:20])
    code = EXIT_OK if all(rep.passed for rep in reports) else EXIT_CHECK_FAILED
    return _Output("props", {"reports": [rep.to_dict() for rep in reports]}, md, code=code)


def _run_pairs(args, cfg) -> _Output:
    klo, khi = args.k[0], args.k[-1]
    rep = propcheck.pairs_report((klo, khi), args.s_min)
    md = [f"pairs with r0 = r1 + 1 for k in [{klo},{khi}], s >= {args.s_min}:"]
    md.extend(f"  ({k},{s})" for k, s in rep["pairs"])
    md.append(f"note: {rep['note']}")
    return _Output("pairs", rep, md)


def _run_findk0(args, cfg) -> _Output:
    rep = propcheck.find_k0(args.s, args.k_max)
    md = [f"{rep.check_name}: {rep.verdict}"] + [f"  {n}" for n in rep.notes]
    return _Output("findk0", rep.to_dict(), md,
                   code=EXIT_OK if rep.passed else EXIT_CHECK_FAILED)


def _run_q2(args, cfg) -> _Output:
    rep = census.question2_ratio(args.n, args.k, args.s, args.r, **_census_kwargs(cfg))
    md = (f"complete-graph count ratio at n={args.n}: {rep['ratio']} "
          f"~ {rep['ratio_float']:.6g} (exploratory, no pass/fail)")
    return _Output("q2", rep, [md])


# -- parser ----------------------------------------------------------------------

def _required_ints(p, names: str) -> None:
    for name in names.split():
        p.add_argument(f"--{name}", type=int, required=True)


def _add_common(p):
    p.add_argument("--format", choices=("md", "csv", "json"), default=DEFAULTS["format"])
    p.add_argument("--threads", type=_int_at_least(1, "positive"), default=DEFAULTS["threads"],
                   help="processes that count scan rows")
    p.add_argument("--node-budget", dest="node_budget", type=_int_at_least(0, "non-negative"),
                   default=DEFAULTS["node_budget"],
                   help="DP states a census may expand (exit 3 past it); a census also "
                        "exits 3 when its frontier passes 8 MiB of keys, a bound no flag "
                        "moves, so a larger budget does not finish such a census")
    p.add_argument("--coloring-budget", dest="coloring_budget",
                   type=_int_at_least(0, "non-negative"), default=DEFAULTS["coloring_budget"])
    p.add_argument("--cache", default=DEFAULTS["cache"])
    p.add_argument("--seed", type=int, default=DEFAULTS["seed"])
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
    p.add_argument("--k", type=_int_range, required=True, help="k or k range like 4..6")
    p.add_argument("--s", type=_int_range, default=None, help="s or s range")
    _add_common(p)

    p = sub.add_parser("count", help="count admissible colorings of one graph")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph6", default=None)
    source.add_argument("--file", default=None)
    source.add_argument("--complete", type=int, default=None)
    source.add_argument("--turan", nargs=2, type=int, default=None, metavar=("N", "K"))
    source.add_argument("--parts", type=_part_sizes, default=None,
                        help="comma-separated part sizes")
    _required_ints(p, "k s r")
    p.add_argument("--method", choices=("auto", "brute", "census"), default="auto")
    _add_common(p)

    p = sub.add_parser("scan", help="rank a graph family by coloring count")
    _required_ints(p, "n k s r")
    p.add_argument("--file", default=None, help="graph6 file family instead of multipartite")
    _add_common(p)

    p = sub.add_parser("lp", help="build and certify a stability program")
    _required_ints(p, "k s")
    p.add_argument("--variant", choices=("low", "mid-high"), default=None,
                   help="check the cell's regime; by default the program is the cell's own")
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--j", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("props", help="run property checkers")
    p.add_argument("--check", choices=("lpartite", "furedi", "partsizes",
                                       "entropy", "turanbounds", "all"), default="all")
    p.add_argument("--n-max", dest="n_max", type=_int_at_least(1, "positive"), default=7)
    p.add_argument("--instances", type=_int_at_least(0, "non-negative"), default=100)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--t", type=int, default=16)
    p.add_argument("--grid", type=_int_at_least(1, "positive"), default=64)
    _add_common(p)

    p = sub.add_parser("pairs", help="census of pairs with r0 = r1 + 1")
    p.add_argument("--k", type=_int_range, default="4..9")
    p.add_argument("--s-min", dest="s_min", type=int, default=3)
    _add_common(p)

    p = sub.add_parser("findk0", help="k values where r0 = s and r1 = s - 1")
    _required_ints(p, "s")
    p.add_argument("--k-max", dest="k_max", type=int, default=30)
    _add_common(p)

    p = sub.add_parser("q2", help="exploratory complete-graph count ratio")
    _required_ints(p, "n k s r")
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
        args = _parse_args(parser, sys.argv[1:] if argv is None else list(argv))
        cfg = {key: getattr(args, key) for key in DEFAULTS}
        return _emit(_RUNNERS[args.command](args, cfg), cfg)
    except SystemExit as exc:   # argparse --help / --version
        return exc.code or 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        if exc.filename is None:   # not a file named by --config, --file or --cache
            raise
        print(f"usage error: cannot use {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    except (ContractViolationError, GraphFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


def entry() -> None:
    sys.exit(main())
