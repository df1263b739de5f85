"""Where the traced run puts its spans, and the per-layer metrics it reports.

Layers are the library's modules.  A traced run wraps the module attributes
that the layers call through; the span names below are the layer metrics'
prefixes.  keyed.rank_u53_np is the keyed hash of _keyed, wrapped where
randgen calls it, and its ranks count toward the sampling stage that called it.
"""

from __future__ import annotations

from shatterlab import compression, dtree, randgen, scan, search, setsystem


def _count(**fields):
    """count(args, kwargs, result) that maps each field to f(args, result)."""
    return lambda args, kwargs, result: {k: f(args, result) for k, f in fields.items()}


TARGETS = (
    (randgen, "_sample_edges_np", "randgen.sample_edges", _count(edges=lambda a, r: len(r[0]))),
    (randgen, "_triangle_pass", "randgen.triangle_pass", _count(triangles=lambda a, r: r[0])),
    (randgen, "rank_u53_np", "keyed.rank_u53_np", _count(ranks=lambda a, r: len(a[1]))),
    (randgen.LevelSample, "trace_count", "randgen.trace_count", None),
    (randgen, "materialize", "randgen.materialize", _count(faces=lambda a, r: len(r))),
    (
        randgen,
        "prune_bad_msets",
        "randgen.prune_bad_msets",
        _count(
            subsets=lambda a, r: r.subsets_scanned,
            bad_sets=lambda a, r: r.bad_sets_found,
            removed=lambda a, r: len(r.removed_vertices),
        ),
    ),
    (scan, "combination_array", "scan.combination_array", _count(rows=lambda a, r: len(r))),
    (scan, "dim_ge1_counts", "scan.dim_ge1_counts", _count(rows=lambda a, r: len(a[1]))),
    (scan, "exact_shatter_value", "scan.exact_shatter_value", None),
    (search, "canonical_form", "search.canonical_form", None),
    (
        search,
        "extremal_max_sets",
        "search.extremal_max_sets",
        _count(nodes=lambda a, r: r.nodes_explored),
    ),
    (search, "extremal_oracle", "search.extremal_oracle", None),
    # search imported shatter_value by name, so both references are wrapped
    (search, "shatter_value", "setsystem.shatter_value", None),
    (setsystem, "shatter_value", "setsystem.shatter_value", None),
    (compression, "compress", "compression.compress", None),
    (
        dtree,
        "min_density_bruteforce",
        "dtree.min_density_bruteforce",
        _count(subsets=lambda a, r: (1 << a[0].unrooted_mask.bit_count()) - 1),
    ),
)

RANKS = "keyed.rank_u53_np"
EDGES = "randgen.sample_edges"
TRIANGLES = "randgen.triangle_pass"

# (metric, unit) in the order they are printed
METRICS = (
    ("randgen.sample_edges.self_s", "s"),
    ("randgen.sample_edges.ranks_hashed", "count"),
    ("randgen.sample_edges.edges_accepted", "count"),
    ("randgen.sample_edges.accept_ratio", "ratio"),
    ("randgen.triangle_pass.self_s", "s"),
    ("randgen.triangle_pass.candidates", "count"),
    ("randgen.triangle_pass.triangles_accepted", "count"),
    ("randgen.triangle_pass.accept_ratio", "ratio"),
    ("keyed.rank_u53_np.s", "s"),
    ("keyed.rank_u53_np.ranks", "count"),
    ("keyed.rank_u53_np.edges_s", "s"),
    ("keyed.rank_u53_np.triangles_s", "s"),
    ("randgen.trace_count.s", "s"),
    ("randgen.trace_count.calls", "count"),
    ("randgen.materialize.s", "s"),
    ("randgen.materialize.faces", "count"),
    ("randgen.prune_bad_msets.self_s", "s"),
    ("randgen.prune_bad_msets.subsets_scanned", "count"),
    ("randgen.prune_bad_msets.bad_sets", "count"),
    ("randgen.prune_bad_msets.vertices_removed", "count"),
    ("randgen.pruning.scan", "count"),
    ("randgen.pruning.shortcut", "count"),
    ("randgen.pruning.skipped", "count"),
    ("scan.combination_array.s", "s"),
    ("scan.combination_array.rows", "count"),
    ("scan.dim_ge1_counts.s", "s"),
    ("scan.dim_ge1_counts.rows", "count"),
    ("scan.exact_shatter_value.self_s", "s"),
    ("search.canonical_form.s", "s"),
    ("search.canonical_form.calls", "count"),
    ("search.extremal_max_sets.self_s", "s"),
    ("search.extremal_max_sets.nodes", "count"),
    ("search.extremal_oracle.s", "s"),
    ("setsystem.shatter_value.s", "s"),
    ("setsystem.shatter_value.calls", "count"),
    ("compression.compress.s", "s"),
    ("dtree.min_density_bruteforce.s", "s"),
    ("dtree.min_density_bruteforce.subsets", "count"),
    ("trace.overhead_s", "s"),
    ("trace.uncovered_s", "s"),
    ("trace.coverage", "ratio"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(summary: dict, pruning: dict) -> dict:
    """Layer metrics of one traced pass (all but the trace.* ones).

    summary comes from spans.summarize; pruning counts the pruning modes of
    the pass's items.
    """
    by_name, by_parent = summary["by_name"], summary["by_parent"]

    def get(name, field):
        return float(by_name[name][field]) if name in by_name else 0.0

    def ranks(parent, field):
        row = by_parent.get((RANKS, parent))
        return float(row[field]) if row else 0.0

    out = {
        f"{EDGES}.self_s": get(EDGES, "self_s"),
        f"{EDGES}.ranks_hashed": ranks(EDGES, "ranks"),
        f"{EDGES}.edges_accepted": get(EDGES, "edges"),
        f"{EDGES}.accept_ratio": _ratio(get(EDGES, "edges"), ranks(EDGES, "ranks")),
        f"{TRIANGLES}.self_s": get(TRIANGLES, "self_s"),
        f"{TRIANGLES}.candidates": ranks(TRIANGLES, "ranks"),
        f"{TRIANGLES}.triangles_accepted": get(TRIANGLES, "triangles"),
        f"{TRIANGLES}.accept_ratio": _ratio(
            get(TRIANGLES, "triangles"), ranks(TRIANGLES, "ranks")
        ),
        f"{RANKS}.s": get(RANKS, "s"),
        f"{RANKS}.ranks": get(RANKS, "ranks"),
        f"{RANKS}.edges_s": ranks(EDGES, "s"),
        f"{RANKS}.triangles_s": ranks(TRIANGLES, "s"),
        "randgen.trace_count.s": get("randgen.trace_count", "s"),
        "randgen.trace_count.calls": get("randgen.trace_count", "calls"),
        "randgen.materialize.s": get("randgen.materialize", "s"),
        "randgen.materialize.faces": get("randgen.materialize", "faces"),
        "randgen.prune_bad_msets.self_s": get("randgen.prune_bad_msets", "self_s"),
        "randgen.prune_bad_msets.subsets_scanned": get("randgen.prune_bad_msets", "subsets"),
        "randgen.prune_bad_msets.bad_sets": get("randgen.prune_bad_msets", "bad_sets"),
        "randgen.prune_bad_msets.vertices_removed": get("randgen.prune_bad_msets", "removed"),
        "scan.combination_array.s": get("scan.combination_array", "s"),
        "scan.combination_array.rows": get("scan.combination_array", "rows"),
        "scan.dim_ge1_counts.s": get("scan.dim_ge1_counts", "s"),
        "scan.dim_ge1_counts.rows": get("scan.dim_ge1_counts", "rows"),
        "scan.exact_shatter_value.self_s": get("scan.exact_shatter_value", "self_s"),
        "search.canonical_form.s": get("search.canonical_form", "s"),
        "search.canonical_form.calls": get("search.canonical_form", "calls"),
        "search.extremal_max_sets.self_s": get("search.extremal_max_sets", "self_s"),
        "search.extremal_max_sets.nodes": get("search.extremal_max_sets", "nodes"),
        "search.extremal_oracle.s": get("search.extremal_oracle", "s"),
        "setsystem.shatter_value.s": get("setsystem.shatter_value", "s"),
        "setsystem.shatter_value.calls": get("setsystem.shatter_value", "calls"),
        "compression.compress.s": get("compression.compress", "s"),
        "dtree.min_density_bruteforce.s": get("dtree.min_density_bruteforce", "s"),
        "dtree.min_density_bruteforce.subsets": get("dtree.min_density_bruteforce", "subsets"),
    }
    for mode in ("scan", "shortcut", "skipped"):
        out[f"randgen.pruning.{mode}"] = float(pruning.get(mode, 0))
    return out


def own_time(summary: dict) -> dict[str, float]:
    """Self time per span name, with the hash's time counted as its caller's."""
    own = {name: row["self_s"] for name, row in summary["by_name"].items()}
    for (name, parent), row in summary["by_parent"].items():
        if name == RANKS and parent is not None:
            own[RANKS] -= row["s"]
            own[parent] += row["s"]
    return own
