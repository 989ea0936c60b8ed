"""Command-line front end: score, srsg, auction, reserve, sweep.

Every run embeds its configuration echo, seed and package version in the
output so results are reproducible byte for byte.  Exit codes: 0 success,
2 usage error, 3 search budget exceeded (partial output is still written),
1 anything else; non-usage failures also emit a JSON error record on stderr.
Each subcommand imports the layer it runs (`srsg`, `auction` or `reserve`),
so a process loads no other layer.
"""

import argparse
import json
import re
import sys

from . import __version__, games
from .errors import BudgetExceededError, ContractError, InputError
from .tables import ResultTable

_WORKERS_ENV = "COALSTAB_WORKERS"

def _workers() -> int:
    return max(1, games.env_int(_WORKERS_ENV, 1))


def parse_shape(text: str, length: int) -> tuple:
    """Shape spec notation: 'linear', 'linear:10..1', 'beta-convex:2',
    'concave', or an explicit comma list like '10,6,2' or '3' (any text
    that does not start with a letter).  A shape's name is its
    `auction.SHAPE_KINDS` kind with '-' for '_'."""
    from . import auction
    text = text.strip()
    if not text[:1].isalpha():
        values = tuple(map(games.rational_from_str, text.split(",")))
        if len(values) != length:
            raise InputError(f"expected {length} values, got {len(values)}")
        return values
    name, _, arg = text.partition(":")
    kind = name.replace("-", "_")
    if "_" in name or kind not in auction.SHAPE_KINDS:
        raise InputError(f"unknown shape {name!r}")
    beta = high = low = None
    if kind.startswith("beta_"):
        if not arg:
            raise InputError(f"{name} needs a beta argument, e.g. {name}:2")
        beta = games.rational_from_str(arg)
    elif arg:
        hi, sep, lo = arg.partition("..")
        high = games.rational_from_str(hi)
        low = games.rational_from_str(lo) if sep else None
    return auction.make_shape(auction.ShapeSpec(kind, length, beta, high, low))


def build_instance(s: int, n, v: str, x: str) -> "auction.AuctionInstance":
    """s slots and n bidders (2s when n is None), values of shape `v` and
    CTRs of shape `x` in `parse_shape` notation."""
    from . import auction
    values = parse_shape(v, 2 * s if n is None else n)
    return auction.AuctionInstance(s, values, parse_shape(x, s))


def _provenance(args, command: str, seed=None) -> dict:
    # the destination is not part of the run's semantics; echoing it would
    # break byte-identity of equal configs written to different paths
    echo = {k: str(v) for k, v in sorted(vars(args).items())
            if k not in ("func", "out") and v is not None}
    record = {"command": command, "args": echo, "version": __version__}
    if seed is not None:
        record["seed"] = str(seed)
    return record


def _emit(table: ResultTable, args) -> None:
    fmt = getattr(args, "format", "csv")
    if getattr(args, "decimals", False) and fmt == "csv":
        table = table.with_decimal_columns()
    text = table.render(fmt)
    _write_output(text, args.out)


def _emit_or_cut(table: ResultTable, args, cut) -> int:
    """Write the table, finished rows only after a budget cut; `cut` is then
    the error record's detail and the exit code is 3."""
    _emit(table, args)
    if cut is None:
        return 0
    _error_record("budget exceeded", cut)
    return 3


def _write_output(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------

def cmd_score(args) -> int:
    from . import srsg
    game, profiles = games.load_game(args.game, srsg.GENERATOR_RESOLVERS)
    if args.profile not in profiles:
        raise InputError(f"game file defines no profile named {args.profile!r}")
    profile = profiles[args.profile]
    table = ResultTable(("profile", "kind", "r", "count"),
                        provenance=_provenance(args, "score"))
    cut = None
    try:
        vector = games.score_vector(game, profile, args.kind, args.rmax,
                                    args.budget)
    except BudgetExceededError as exc:
        cut = {"game": args.game}
        vector = exc.partial
        table.provenance["truncated"] = (f"size {vector.r_max + 1}: "
                                         f"budget exceeded: {exc}")
    for r in range(1, vector.r_max + 1):
        table.append(args.profile, args.kind, r, vector.count(r))
    return _emit_or_cut(table, args, cut)


# ---------------------------------------------------------------------------
# srsg
# ---------------------------------------------------------------------------

def _parse_cost(text: str, n: int) -> "srsg.CostFn":
    from . import srsg
    if text == "linear":
        return srsg.CostFn.linear(n)
    return srsg.CostFn(tuple(map(games.rational_from_str, text.split(","))))


def cmd_srsg(args) -> int:
    from . import srsg
    if args.samples < 0:
        raise InputError("samples must be nonnegative")
    if args.profile == "random" and args.seed < 0:
        raise InputError("seed must be nonnegative")
    inst = srsg.SrsgInstance(args.m, args.n, args.k, _parse_cost(args.cost, args.n))
    methods = ("structural", "bruteforce") if args.method == "both" else (args.method,)
    table = ResultTable(("profile", "r", "count", "method"),
                        provenance=_provenance(args, "srsg", args.seed))
    cut = None
    try:
        if args.profile == "random":
            if "bruteforce" in methods:
                for i in range(args.samples):
                    a = srsg.sample_random_ne(inst, args.seed * srsg._SEED_STRIDE + i)
                    for method in methods:
                        table.append("random", 2,
                                     srsg.count_pair_deviations(inst, a, method), method)
            else:
                counts = srsg.sample_pair_deviation_counts(
                    inst, args.samples, args.seed, workers=_workers())
                for count in counts:
                    table.append("random", 2, count, "structural")
        else:
            builder = srsg.build_repeat_ne if args.profile == "repeat" else srsg.build_scatter_ne
            a = builder(inst)
            for method in methods:
                table.append(args.profile, 2,
                             srsg.count_pair_deviations(inst, a, method), method)
    except BudgetExceededError as exc:
        cut = {"m": args.m, "n": args.n, "k": args.k}
        table.provenance["truncated"] = f"budget exceeded: {exc}"
    return _emit_or_cut(table, args, cut)


# ---------------------------------------------------------------------------
# auction
# ---------------------------------------------------------------------------

TABLE1_SHAPES = ("beta-concave:2", "linear", "beta-convex:2")


def cmd_auction(args) -> int:
    from . import auction
    if args.table1:
        table = ResultTable(("v_shape", "x_shape", "s", "d2", "m2", "ratio"),
                            provenance=_provenance(args, "auction"))
        for v_shape in TABLE1_SHAPES:
            for x_shape in TABLE1_SHAPES:
                inst = build_instance(args.s, args.n, v_shape, x_shape)
                d2 = auction.count_pair_deviations(inst, args.eq)
                m2 = auction.potential_count(inst.s, inst.n, 2)
                table.append(v_shape, x_shape, args.s, d2, m2, d2 / m2)
        _emit(table, args)
        return 0

    inst = build_instance(args.s, args.n, args.v, args.x)
    table = ResultTable(("eq", "s", "r", "count", "potential", "ratio"),
                        provenance=_provenance(args, "auction"))
    counts = [(2, True)] if args.count_pairs else []
    if args.count_coalitions is not None:
        if args.count_coalitions > inst.n:  # no coalition to count, no ratio
            raise InputError(f"coalition size {args.count_coalitions} exceeds "
                             f"the {inst.n} bidders")
        counts.append((args.count_coalitions, False))
    if not counts:
        raise InputError("nothing to do: pass --count-pairs, "
                         "--count-coalitions R or --table1")
    cut = None
    try:
        for r, pairs in counts:
            if args.eq == "vcg":
                count = auction.count_vcg_coalition_deviations(inst, r)
            elif pairs:
                count = auction.count_pair_deviations(inst, args.eq)
            else:
                count = auction.count_coalition_deviations(inst, args.eq, r)
            m_r = auction.potential_count(inst.s, inst.n, r)
            table.append(args.eq, inst.s, r, count, m_r, count / m_r)
    except BudgetExceededError as exc:
        cut = {"s": inst.s, "eq": args.eq}
        table.provenance["truncated"] = f"r {r}: budget exceeded: {exc}"
    return _emit_or_cut(table, args, cut)


# ---------------------------------------------------------------------------
# reserve
# ---------------------------------------------------------------------------

def cmd_reserve(args) -> int:
    from . import reserve
    if args.check_sse and args.mode != "star":
        raise InputError("--check-sse certifies the plain randomised reserve; "
                         "it needs --mode star")
    if args.mode == "star-lambda" and args.lam is None:
        raise InputError("--mode star-lambda needs --lambda")
    inst = build_instance(args.s, args.n, args.v, args.x)
    report = {"provenance": _provenance(args, "reserve"), "mode": args.mode}
    cut = None
    if args.mode == "fixed":
        c = games.rational_from_str(args.c)
        out_f = reserve.reserve_vcg(inst, c, reserve.FILTERED)
        out_c = reserve.reserve_vcg(inst, c, reserve.CLAMPED)
        report["reserve"] = games.rational_to_str(c)
        report["payments"] = [games.rational_to_str(p) for p in out_f.payments]
        report["allocation"] = list(out_f.allocation)
        report["modes_agree"] = out_f == out_c
    elif args.mode == "star-lambda":
        lam = games.rational_from_str(args.lam)
        ext = reserve.vcg_star_lambda(inst, lam)
        report["extended_ctrs"] = [games.rational_to_str(x)
                                   for x in ext.extended_ctrs]
        report["payments"] = [games.rational_to_str(p) for p in ext.payments]
        report["gap_bound"] = games.rational_to_str(
            reserve.lambda_payment_gap_bound(inst, lam))
    else:
        vmax = games.rational_from_str(args.vmax) if args.vmax else None
        cfg = reserve.VcgStarConfig(games.rational_from_str(args.q_reserve), vmax)
        expected = reserve.expected_utilities_vcg_star(inst, cfg)
        report["expected_utilities"] = [games.rational_to_str(u)
                                        for u in expected]
        if args.check_sse:
            try:
                verdict = reserve.check_truthful_sse(inst, cfg, args.grid_refine)
            except BudgetExceededError as exc:
                cut = exc
                report["provenance"]["truncated"] = f"sse check: budget exceeded: {exc}"
            else:
                if verdict.certified:
                    report["sse_verdict"] = "certified_no_deviation_on_grid"
                else:
                    report["sse_verdict"] = "deviation_found"
                    report["deviating_members"] = list(verdict.members)
                    report["deviating_reports"] = [games.rational_to_str(r)
                                                   for r in verdict.reports]
    _write_output(json.dumps(report, sort_keys=True, indent=2) + "\n", args.out)
    if cut is not None:
        _error_record("budget exceeded", {"detail": cut})
        return 3
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

_RANGE_RE = re.compile(r"^(\d+):(\d+)(?::(\d+))?$")
_EXPR_RE = re.compile(r"^(?:(\d*)m(?=[+-]|$))?([+-]?\d+)?$")


def parse_range(text: str) -> range:
    m = _RANGE_RE.match(text)
    if not m:
        raise InputError(f"range must look like A:B or A:B:STEP, got {text!r}")
    lo, hi, step = int(m.group(1)), int(m.group(2)), int(m.group(3) or 1)
    if step == 0:
        raise InputError(f"range step must be positive, got {text!r}")
    if lo > hi:
        raise InputError(f"range is empty, got {text!r}")
    return range(lo, hi + 1, step)


def eval_expr(text: str, m: int) -> int:
    """Evaluate a linear expression in m: '4m', 'm+1', '12'.  A constant
    after the m term carries its sign: '2m3' and 'm 3' are refused."""
    match = _EXPR_RE.match(text.replace(" ", ""))
    if not match or (match.group(1) is None and match.group(2) is None):
        raise InputError(f"cannot parse expression {text!r}")
    coeff = 0
    if "m" in text:
        coeff = int(match.group(1)) if match.group(1) else 1
    const = int(match.group(2)) if match.group(2) else 0
    return coeff * m + const


def cmd_sweep(args) -> int:
    if args.target == "srsg":
        from . import srsg
        table = ResultTable(("m", "n", "k", "profile", "r", "count", "method"),
                            provenance=_provenance(args, "sweep", args.seed))
        lo_expr, _, hi_expr = args.n.partition(":")
        builder = {"repeat": srsg.build_repeat_ne,
                   "scatter": srsg.build_scatter_ne}[args.profile]
        spans = {m: range(eval_expr(lo_expr, m), eval_expr(hi_expr or lo_expr, m) + 1)
                 for m in parse_range(args.m)}
        if not any(spans.values()):
            raise InputError(f"n range is empty for every m, got {args.n!r}")
        cut = None
        try:
            for m, span in spans.items():
                for n in span:
                    inst = srsg.SrsgInstance(m, n, args.k, srsg.CostFn.linear(n))
                    a = builder(inst)
                    count = srsg.count_pair_deviations(inst, a, args.method)
                    table.append(m, n, args.k, args.profile, 2, count, args.method)
        except BudgetExceededError as exc:
            cut = {"m": args.m, "n": args.n, "k": args.k}
            table.provenance["truncated"] = f"m {m}, n {n}: budget exceeded: {exc}"
        return _emit_or_cut(table, args, cut)
    from . import auction
    table = ResultTable(("v_shape", "x_shape", "s", "eq", "d2", "m2"),
                        provenance=_provenance(args, "sweep"))
    for s in parse_range(args.s):
        inst = build_instance(s, None, args.v, args.x)
        d2 = auction.count_pair_deviations(inst, args.eq)
        table.append(args.v.strip(), args.x.strip(), s, args.eq,
                     d2, auction.potential_count(s, inst.n, 2))
    _emit(table, args)
    return 0


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def _error_record(message: str, detail: dict) -> None:
    record = {"error": message, **{k: str(v) for k, v in detail.items()}}
    sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")


def _add_common(parser, default_format="csv"):
    parser.add_argument("--out", default="-", help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default=default_format)
    parser.add_argument("--decimals", action="store_true",
                        help="append float companions to rational CSV columns")


def _add_instance_flags(parser):
    parser.add_argument("--s", type=int, required=True, help="slot count")
    parser.add_argument("--n", type=int, default=None,
                        help="bidder count (default 2s)")
    parser.add_argument("--v", default="linear", help="valuation shape or list")
    parser.add_argument("--x", default="linear", help="CTR shape or list")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coalstab",
        description="Coalitional-stability scores for finite games, "
                    "resource-selection games and position auctions.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="score a game file profile")
    p.add_argument("--game", required=True, help="game document (JSON)")
    p.add_argument("--profile", required=True, help="named profile to score")
    p.add_argument("--kind", choices=(games.STRICT, games.WEAK),
                   default=games.STRICT)
    p.add_argument("--rmax", type=int, default=None)
    p.add_argument("--budget", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("srsg", help="resource-selection pair-deviation counts")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--cost", default="linear")
    p.add_argument("--profile", choices=("repeat", "scatter", "random"),
                   default="repeat")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--method", choices=("structural", "bruteforce", "both"),
                   default="structural")
    _add_common(p)
    p.set_defaults(func=cmd_srsg)

    p = sub.add_parser("auction", help="position-auction deviation counts")
    _add_instance_flags(p)
    p.add_argument("--eq", choices=("le", "ue", "vcg"), default="le")
    p.add_argument("--count-pairs", action="store_true")
    p.add_argument("--count-coalitions", type=int, default=None, metavar="R")
    p.add_argument("--table1", action="store_true",
                   help="sweep the 3x3 value/CTR shape grid")
    _add_common(p)
    p.set_defaults(func=cmd_auction)

    p = sub.add_parser("reserve", help="reserve-price mechanisms")
    _add_instance_flags(p)
    p.add_argument("--mode", choices=("fixed", "star", "star-lambda"),
                   default="star")
    p.add_argument("--c", default="0", help="fixed reserve price")
    p.add_argument("--q-reserve", dest="q_reserve", default="1/2")
    p.add_argument("--vmax", default=None)
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--check-sse", dest="check_sse", action="store_true",
                   help="certify truth-telling against weak coalition "
                        "deviations (star mode only)")
    p.add_argument("--grid-refine", dest="grid_refine", type=int, default=1)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_reserve)

    p = sub.add_parser("sweep", help="parameter sweeps")
    sweep_sub = p.add_subparsers(dest="target", required=True)

    ps = sweep_sub.add_parser("srsg")
    ps.add_argument("--m", required=True, help="range A:B")
    ps.add_argument("--n", required=True,
                    help="range of expressions in m, e.g. 'm+1:4m'")
    ps.add_argument("--k", type=int, default=2)
    ps.add_argument("--profile", choices=("repeat", "scatter"), default="repeat")
    ps.add_argument("--method", choices=("structural", "bruteforce"),
                    default="structural")
    ps.add_argument("--seed", type=int, default=0)
    _add_common(ps)
    ps.set_defaults(func=cmd_sweep, target="srsg")

    pa = sweep_sub.add_parser("auction")
    pa.add_argument("--s", required=True, help="range A:B[:STEP]")
    pa.add_argument("--v", default="linear")
    pa.add_argument("--x", default="linear")
    pa.add_argument("--eq", choices=("le", "ue"), default="le")
    _add_common(pa)
    pa.set_defaults(func=cmd_sweep, target="auction")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        _error_record("budget exceeded", {"detail": exc})
        return 3
    except (InputError, ContractError, OSError, KeyError, ValueError) as exc:
        _error_record(type(exc).__name__, {"detail": exc})
        return 1


if __name__ == "__main__":
    sys.exit(main())
