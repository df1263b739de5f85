"""Command-line entry point.

Exit codes: 0 ok, 2 invalid input, 3 resource limit exceeded, 4 verification
failure.  Output is line-oriented CSV or canonical JSON (sorted keys) so
runs diff cleanly.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from shatterlab import (
    _pool,
    bounds,
    compression,
    complexes,
    dtree,
    randgen,
    search,
    setsystem,
    verify,
)
from shatterlab._bits import bits
from shatterlab.errors import DEFAULT_SUBSET_LIMIT, InvalidArgumentError, ResourceLimitError


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}") from exc


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc


def _emit(args, rows: list[str], obj) -> None:
    """Print obj as one JSON line under --format json, else the CSV rows."""
    if args.format == "json":
        print(setsystem.json_line(obj))
    else:
        for row in rows:
            print(row)


def _write(outfile, text: str) -> None:
    """Write text to outfile (--out), or to stdout when it is not given."""
    if outfile:
        with open(outfile, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _global_flags(defaults: dict) -> argparse.ArgumentParser:
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--seed", type=int, default=defaults["seed"])
    flags.add_argument("--threads", type=int, default=defaults["threads"])
    flags.add_argument("--format", choices=("csv", "json"), default=defaults["format"])
    flags.add_argument("--limit-subsets", type=int, default=defaults["limit_subsets"])
    return flags


def build_parser() -> argparse.ArgumentParser:
    # The global flags are accepted both before and after the subcommand.  The
    # top-level parser holds the defaults; the subparsers get their own copies
    # of the flags with SUPPRESS defaults, so a subparser writes a value only
    # when the flag follows the subcommand and never resets an earlier one.
    defaults = {
        "seed": verify.DEFAULT_SEED,
        "threads": _pool.cpu_count(),
        "format": "csv",
        "limit_subsets": DEFAULT_SUBSET_LIMIT,
    }
    common = _global_flags(dict.fromkeys(defaults, argparse.SUPPRESS))
    parser = argparse.ArgumentParser(
        prog="shatterlab", description=__doc__, parents=[_global_flags(defaults)]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "shatter", parents=[common], help="shatter profile or single value of a set system"
    )
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--m", type=int, default=None)
    p.set_defaults(func=_cmd_shatter)

    p = sub.add_parser(
        "compress", parents=[common], help="compress a set system to a simplicial complex"
    )
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("complex", help="simplicial complex utilities")
    csub = p.add_subparsers(dest="subcommand", required=True)
    cstats = csub.add_parser("stats", parents=[common])
    cstats.add_argument("--in", dest="infile", required=True)
    cstats.set_defaults(func=_cmd_complex_stats)

    p = sub.add_parser("dtree", help="canonical rooted d-trees")
    dsub = p.add_subparsers(dest="subcommand", required=True)
    dbuild = dsub.add_parser("build", parents=[common])
    dbuild.add_argument("--d", type=int, required=True)
    dbuild.add_argument("--Q", type=int, required=True)
    dbuild.add_argument("--r", type=int, required=True)
    dbuild.add_argument("--out", dest="outfile", default=None)
    dbuild.set_defaults(func=_cmd_dtree_build)
    dverify = dsub.add_parser("verify", parents=[common])
    dverify.add_argument("--d-max", type=int, default=3)
    dverify.add_argument("--Q-max", type=int, default=5)
    dverify.add_argument("--r-max", type=int, default=None, help="default 2Q+1 per cell")
    dverify.set_defaults(func=_cmd_dtree_verify)

    p = sub.add_parser("sample", parents=[common], help="seeded random complex")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--p", type=_fraction, required=True)
    p.add_argument("--out", dest="outfile", default=None)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("growth", parents=[common], help="sample -> prune sweeps and slope")
    p.add_argument("--s", type=_fraction, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=_int_list, required=True, help="comma-separated sizes")
    p.add_argument("--trials", type=int, default=5)
    p.set_defaults(func=_cmd_growth)

    p = sub.add_parser(
        "bh-probe", parents=[common], help="Bondy-Hajnal premise + growth-trend probe"
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=_int_list, required=True)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--epsilon", type=_fraction, default=Fraction(1))
    p.set_defaults(func=_cmd_bh_probe)

    p = sub.add_parser("bounds", help="closed-form bound evaluation")
    bsub = p.add_subparsers(dest="subcommand", required=True)
    beval = bsub.add_parser("eval", parents=[common])
    beval.add_argument("--kind", required=True, choices=bounds.QUERY_KINDS)
    beval.add_argument("--params", default="", help="k=2,m=13,n=256,s=7/2,d=1")
    beval.set_defaults(func=_cmd_bounds_eval)

    p = sub.add_parser("search", help="finite extremal search")
    ssub = p.add_subparsers(dest="subcommand", required=True)
    sx = ssub.add_parser("extremal", parents=[common])
    sx.add_argument("--n", type=int, required=True)
    sx.add_argument("--m", type=int, required=True)
    sx.add_argument("--b", type=int, required=True)
    sx.add_argument("--oracle", action="store_true")
    sx.set_defaults(func=_cmd_search_extremal)
    sk = ssub.add_parser("kpartite", parents=[common])
    sk.add_argument("--n", type=int, required=True)
    sk.add_argument("--k", type=int, required=True)
    sk.add_argument("--out", dest="outfile", default=None)
    sk.set_defaults(func=_cmd_search_kpartite)

    p = sub.add_parser("verify-paper", parents=[common], help="run the acceptance suites")
    p.add_argument("--tier", choices=("quick", "full"), default="full")
    p.add_argument("--suite", action="append", default=None, help="repeatable")
    p.set_defaults(func=_cmd_verify_paper)

    return parser


def _cmd_shatter(args) -> int:
    system, dups = setsystem.load_file(args.infile)
    if dups:
        print(f"# dropped {dups} duplicate members", file=sys.stderr)
    if args.m is not None:
        value = setsystem.shatter_value(system, args.m, limit=args.limit_subsets)
        _emit(args, [f"m,f\n{args.m},{value}"], {"m": args.m, "value": value})
        return 0
    profile = setsystem.shatter_profile(system, limit=args.limit_subsets)
    rows = ["m,f"] + [f"{m},{v}" for m, v in enumerate(profile.values)]
    _emit(args, rows, {"profile": list(profile.values)})
    return 0


def _cmd_compress(args) -> int:
    system, dups = setsystem.load_file(args.infile)
    result = compression.compress(system)
    setsystem.save_file(args.outfile, result)
    _emit(
        args,
        [f"members,duplicates_dropped\n{len(result)},{dups}"],
        {"members": len(result), "duplicates_dropped": dups},
    )
    return 0


def _cmd_complex_stats(args) -> int:
    with open(args.infile, encoding="utf-8") as fh:
        cx = complexes.parse_complex_json(fh.read(), limit=args.limit_subsets)
    counts = cx.face_counts()
    deltas = {}
    for d in range(1, cx.dimension + 1):
        deltas[d] = complexes.delta_d(cx, d)
    rows = [f"dimension,{cx.dimension}"]
    rows += [f"faces_dim_{d},{c}" for d, c in counts.items()]
    rows += [f"delta_{d},{v}" for d, v in deltas.items()]
    _emit(args, rows, {"dimension": cx.dimension, "faces": counts, "delta": deltas})
    return 0


def _cmd_dtree_build(args) -> int:
    tree = dtree.build_Tr(args.d, args.Q, args.r, limit=args.limit_subsets)
    obj = {
        "n": tree.complex.n,
        "facets": [bits(f) for f in tree.complex.facets()],
        "rho": bits(tree.rho),
        "roots": bits(tree.roots),
        "params": {"d": args.d, "Q": args.Q, "r": args.r},
        "min_density": str(dtree.min_density_formula(args.d, args.Q, args.r)),
    }
    _write(args.outfile, setsystem.json_line(obj) + "\n")
    return 0


def _cmd_dtree_verify(args) -> int:
    # the brute force takes d * Q unrooted vertices, so d and Q stop at its cap,
    # and walks their 2^(dQ) - 1 non-empty subsets
    cap = dtree.BRUTE_FORCE_VERTEX_CAP
    cells = []
    faces = 0  # faces closed over the whole grid, (dQ + r)(2^(d+1) - 1) per tree
    for d in range(1, min(args.d_max, cap) + 1):
        for q in range(1, min(args.Q_max, cap // d) + 1):
            r_top = args.r_max if args.r_max is not None else 2 * q + 1
            if r_top >= 0:
                # the largest tree of the row
                dtree.check_tree_size(d, q, r_top, limit=args.limit_subsets)
                subsets = (1 << d * q) - 1
                if subsets > args.limit_subsets:
                    raise ResourceLimitError(
                        f"the brute force with d={d}, Q={q} walks {subsets} subsets, "
                        f"over the limit {args.limit_subsets}"
                    )
            rows = max(r_top + 1, 0)
            faces += (rows * d * q + rows * (rows - 1) // 2) * ((2 << d) - 1)
            if faces > args.limit_subsets:
                raise ResourceLimitError(
                    f"the grid closes more than {args.limit_subsets} faces over its trees"
                )
            cells.extend((d, q, r) for r in range(0, r_top + 1))
    print(verify.GRID_CSV_HEADER)
    failed = False
    for line, failures in _pool.bounded_map(verify.check_grid_cell, cells, args.threads):
        print(line)
        for failure in failures:
            print(f"fail: {failure}", file=sys.stderr)
        failed = failed or bool(failures)
    return 4 if failed else 0


def _cmd_sample(args) -> int:
    cx = randgen.sampled_complex(args.n, args.t, args.p, args.seed, limit=args.limit_subsets)
    _write(args.outfile, complexes.format_complex_json(cx))
    counts = cx.face_counts()
    print(f"# faces by dim: {counts}", file=sys.stderr)
    return 0


def _cmd_growth(args) -> int:
    result = randgen.growth_experiment(
        args.s,
        args.m,
        args.n,
        args.trials,
        args.seed,
        scan_limit=args.limit_subsets,
        workers=args.threads,
    )
    rows = [f"# generator={randgen.GENERATOR_ID}", *result.csv_lines()]
    rows += [f"# slope,{result.slope}", f"# target_exponent,{result.target_exponent}"]
    obj = {
        "slope": result.slope,
        "target_exponent": str(result.target_exponent),
        "generator": randgen.GENERATOR_ID,
        "reports": [r.csv_row() for r in result.reports],
    }
    _emit(args, rows, obj)
    return 0


def _cmd_bh_probe(args) -> int:
    probe = randgen.bondy_hajnal_probe(
        args.k,
        args.m,
        args.n,
        args.trials,
        args.seed,
        epsilon=args.epsilon,
        scan_limit=args.limit_subsets,
    )
    lines = probe.csv_lines()
    rows = [
        *lines,
        f"# exponent,{probe.exponent}",
        f"# premise_all_ok,{int(probe.premise_all_ok)}",
    ]
    obj = {
        "exponent": probe.exponent,
        "target_exponent": str(probe.target_exponent),
        "premise_all_ok": probe.premise_all_ok,
        "exceeds_k": probe.exceeds_k,
        "g_k_m": probe.g_k_m,
        "rows": lines[1:],
    }
    _emit(args, rows, obj)
    return 0


def _parse_params(text: str) -> dict:
    out = {}
    for item in text.split(","):
        if not item:
            continue
        key, _, value = item.partition("=")
        rational = "/" in value or "." in value
        # Fraction expands an exponent eagerly, so 1.0e999999999 would not finish
        if not value or rational and "e" in value.lower():
            raise InvalidArgumentError(f"bad parameter {item!r}")
        try:
            out[key.strip()] = Fraction(value) if rational else int(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidArgumentError(f"bad parameter {item!r}") from exc
    return out


def _cmd_bounds_eval(args) -> int:
    result = bounds.eval_query(args.kind, _parse_params(args.params))
    keys = sorted(result)
    rows = [",".join(keys), ",".join(str(result[k]) for k in keys)]
    _emit(args, rows, result)
    return 0


def _cmd_search_extremal(args) -> int:
    if args.oracle:
        result = search.extremal_oracle(args.n, args.m, args.b)
    else:
        result = search.extremal_max_sets(args.n, args.m, args.b, limit=args.limit_subsets)
    obj = {
        "max_size": result.max_size,
        "method": result.method,
        "witness": result.witness.to_sets(),
    }
    _emit(args, [f"max_size,method\n{result.max_size},{result.method}"], obj)
    return 0


def _cmd_search_kpartite(args) -> int:
    system = search.kpartite_instance(args.n, args.k)
    if args.outfile:
        setsystem.save_file(args.outfile, system)
    _emit(args, [f"members\n{len(system)}"], {"members": len(system)})
    return 0


def _cmd_verify_paper(args) -> int:
    results = verify.run_suites(args.suite, tier=args.tier, seed=args.seed)
    for res in results:
        print(res.line())
    ok = all(r.passed for r in results)
    print(f"# overall,{'pass' if ok else 'fail'}")
    return 0 if ok else 4


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidArgumentError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ResourceLimitError, MemoryError) as exc:
        print(f"resource limit: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
