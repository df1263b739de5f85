"""The benchmark's four workloads: their items, digests and oracles.

An item is one call a user would make: a growth trial, a probe instance, a
direct sample-prune-scan, an extremal query, a min-density brute force, or a
compression with its shatter profiles.  Each workload is a fixed mix of size
classes.  Every sampled class has a pool of POOL candidate items, and the run
seed picks which of them a run uses, so any seed gives items whose exact
outputs were recorded in expected.json.  The library sees only the generated
parameters and inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from shatterlab import compression, dtree, randgen, scan, search, setsystem

POOL = 32  # candidate items per sampled size class


@dataclass(frozen=True)
class Item:
    key: str  # stable identity; expected.json is keyed by it
    kind: str
    args: tuple


def _key_seed(key: str) -> int:
    """The library seed of a pooled item, fixed by its key."""
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big") >> 1


def _fixed(kind: str, params: tuple) -> Item:
    return Item(f"{kind}:{','.join(str(p) for p in params)}", kind, params)


def _sampled(kind: str, params: tuple) -> tuple[Item, ...]:
    """POOL candidates of one size class, each with its own library seed."""
    keys = [f"{_fixed(kind, params).key}:{i}" for i in range(POOL)]
    return tuple(Item(key, kind, (*params, _key_seed(key))) for key in keys)


# -- item kinds ---------------------------------------------------------------
# Each runner returns (payload, extra): the payload is what the digest covers,
# extra feeds the oracles and the diagnostics and is never hashed.


def _run_growth(s, m, n, seed):
    report = randgen.growth_experiment(s, m, (n,), 1, seed).reports[0]
    payload = {
        "seed": report.seed,
        "generator": report.generator,
        "faces_by_dim": list(report.faces_by_dim),
        "f_m_exact": report.f_m_exact,
        "pruning": report.pruning,
        "bad_sets": report.bad_sets_removed,
        "vertices_removed": report.vertices_removed,
    }
    return payload, {"total_faces": report.total_faces, "z": report.params.z}


def _run_probe(k, m, n, seed):
    inst = randgen.bondy_hajnal_probe(k, m, (n,), 1, seed).instances[0]
    payload = {
        "seed": inst.seed,
        "faces_by_dim": list(inst.faces_by_dim),
        "max_trace_seen": inst.max_trace_seen,
        "premise_ok": inst.premise_ok,
        "pruning": inst.pruning,
        "subsets_checked": inst.subsets_checked,
        "spot_traces": inst.spot_traces,
    }
    return payload, {"total_faces": sum(inst.faces_by_dim)}


def _run_prune(n, t, p, m, z, seed):
    """The growth trial's stages called one by one, at a density that prunes."""
    sample = randgen.sample_levels(n, t, Fraction(p), seed, collect=True)
    cx = randgen.materialize(sample)
    res = randgen.prune_bad_msets(cx, m, z)
    f_m = scan.exact_shatter_value(res.complex, m)
    payload = {
        "faces_by_dim": [len(res.complex.faces_of_dim(d)) for d in range(t + 1)],
        "f_m_exact": f_m,
        "pruning": "shortcut" if res.shortcut else "scan",
        "bad_sets": res.bad_sets_found,
        "removed": list(res.removed_vertices),
        "subsets_scanned": res.subsets_scanned,
    }
    return payload, {"pruned": res.complex}


def _run_extremal(n, m, b):
    got = search.extremal_max_sets(n, m, b)
    want = search.extremal_oracle(n, m, b)
    payload = {
        "branch": [got.max_size, list(got.witness.members)],
        "oracle": [want.max_size, list(want.witness.members)],
    }
    return payload, None


def _run_density(tree):
    value, witness = dtree.min_density_bruteforce(tree)
    return [str(value), witness], None


def _run_compress(system):
    comp = compression.compress(system)
    payload = {
        "members": list(comp.members),
        "profile_in": list(setsystem.shatter_profile(system).values),
        "profile_out": list(setsystem.shatter_profile(comp).values),
    }
    return payload, {"out": comp}


RUNNERS = {
    "growth": _run_growth,
    "probe": _run_probe,
    "prune": _run_prune,
    "extremal": _run_extremal,
    "density": _run_density,
    "compress": _run_compress,
}


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- inputs and oracles ---------------------------------------------------------


def prepare(item: Item) -> tuple:
    """The runner's arguments; builds trees and set systems outside the timing."""
    if item.kind == "density":
        return (dtree.build_Tr(*item.args),)
    if item.kind == "compress":
        n, count, seed = item.args
        rng = random.Random(seed)
        return (setsystem.SetSystem.from_masks(n, {rng.randrange(1 << n) for _ in range(count)}),)
    return item.args


def before_pass() -> None:
    """Drop the search tables, which every CLI and verify-paper process rebuilds."""
    search._perm_tables.cache_clear()
    search._oracle_table.cache_clear()


def run_item(item: Item, inputs: tuple):
    return RUNNERS[item.kind](*inputs)


def check_levels(seed: int) -> list[str]:
    """The vectorized sampler must match the reference sampler bit for bit."""
    problems = []
    for t, p in ((1, Fraction(1, 4)), (2, Fraction(1, 2))):
        lib_seed = _key_seed(f"levels:{seed}:{t}")
        fast = randgen.materialize(randgen.sample_levels(40, t, p, lib_seed, collect=True))
        if fast != randgen.sample_complex(40, t, p, lib_seed):
            problems.append(f"sample_levels != sample_complex at n=40, t={t}, seed={lib_seed}")
    return problems


def _max_span(cx, m: int) -> int:
    """Most faces of dimension >= 1 inside any m vertices, by a fresh scan."""
    active = scan.active_vertices(cx)
    k = min(m, len(active))
    return scan.max_dim_ge1_span(cx, k, vertices=active) if k >= 2 else 0


def check_item(item: Item, inputs: tuple, payload, extra) -> list[str]:
    """Independent checks of one item's output; run once per item, untimed."""
    bad = []
    if item.kind == "growth" and payload["pruning"] == "scan":
        # exact f(m) = 1 + min(m, vertices) + the largest span left after pruning
        _, m, _, _ = item.args
        span = payload["f_m_exact"] - 1 - min(m, payload["faces_by_dim"][0])
        if span >= math.ceil(extra["z"]):
            bad.append(f"{item.key}: an m-set spans {span} >= z after pruning")
    elif item.kind == "prune":
        _, _, _, m, z, _ = item.args
        pruned = extra["pruned"]
        span = _max_span(pruned, m)
        if span >= z:
            bad.append(f"{item.key}: rescan finds an m-set spanning {span} >= z")
        vertices = len(pruned.faces_of_dim(0))
        if vertices and payload["f_m_exact"] != 1 + min(m, vertices) + span:
            bad.append(f"{item.key}: f(m) disagrees with the rescan")
    elif item.kind == "extremal":
        n, m, b = item.args
        (size, members), (want, _) = payload["branch"], payload["oracle"]
        witness = setsystem.SetSystem(n, tuple(members))
        if size != want:
            bad.append(f"{item.key}: branch {size} != oracle {want}")
        if len(witness) != size or setsystem.shatter_value(witness, m) > b:
            bad.append(f"{item.key}: witness invalid")
    elif item.kind == "density":
        (tree,) = inputs
        formula = dtree.min_density_formula(*item.args)
        block = dtree.contiguous_min_density(tree)[0]
        if not str(formula) == str(block) == payload[0]:
            bad.append(f"{item.key}: brute {payload[0]}, formula {formula}, block {block}")
    elif item.kind == "compress":
        (system,) = inputs
        out = extra["out"]
        prof_in = setsystem.ShatterProfile(tuple(payload["profile_in"]))
        prof_out = setsystem.ShatterProfile(tuple(payload["profile_out"]))
        if len(out) != len(system) or not compression.is_downward_closed(out):
            bad.append(f"{item.key}: compression changed size or is not downward closed")
        if not prof_in.dominates(prof_out):
            bad.append(f"{item.key}: compressed profile not dominated")
    return bad


# -- workloads ----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    classes: tuple  # (pool of items, items per pass) for seed-picked classes
    fixed: tuple = ()  # items every pass runs, whatever the seed
    samples_levels: bool = False  # runs the sample_levels == sample_complex oracle
    # (speed.KERNELS name, weight): the kernels whose speed tracks this workload's
    gauge: tuple = (("interp", 3), ("cached", 1))

    def pool(self) -> list[Item]:
        """Every item a seed can select; expected.json covers exactly these."""
        return list(self.fixed) + [item for pool, _ in self.classes for item in pool]

    def items(self, seed: int) -> list[Item]:
        """The items of one pass for this seed."""
        rng = random.Random(f"{self.name}:{seed}")
        out = list(self.fixed)
        for pool, count in self.classes:
            out.extend(pool[i] for i in sorted(rng.sample(range(len(pool)), count)))
        return out


def _extremal_queries() -> tuple[Item, ...]:
    """Every (n <= 5, m, b) query but the slowest n = 5 ones.

    Left out: m = 4 with b in 13..14 and m = 5 with b in 14..30, which take
    0.2-1.1 s each and would make one pass last most of a run.
    """
    out = []
    for n in range(1, 6):
        for m in range(n + 1):
            for b in range(1, (1 << m) + 1):
                if n == 5 and ((m == 4 and b in (13, 14)) or (m == 5 and 14 <= b <= 30)):
                    continue
                out.append(_fixed("extremal", (n, m, b)))
    return tuple(out)


# the d <= 3 grid of the d-tree acceptance criterion: Q <= 5, dQ <= 12, r <= 2Q+1
_DENSITY_GRID = tuple(
    _fixed("density", (d, q, r))
    for d in range(1, 4)
    for q in range(1, 6)
    if d * q <= 12
    for r in range(2 * q + 2)
)

# trees with dQ = 16 unrooted vertices: 2^16 subsets each in the brute force
_DENSITY_16 = tuple(
    _fixed("density", (d, 16 // d, r)) for d in (1, 2, 4) for r in range(2 * (16 // d) + 2)
)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sparse-edges",
            "s=3 growth trials at n=512..8192; t=1 and shortcut pruning, so only "
            "keyed edge sampling runs: no triangle pass, no scan",
            (
                (_sampled("growth", (3, 4, 512)), 2),
                (_sampled("growth", (3, 4, 1024)), 12),
                (_sampled("growth", (3, 4, 2048)), 3),
                (_sampled("growth", (3, 4, 4096)), 2),
                (_sampled("growth", (3, 4, 8192)), 1),
            ),
            samples_levels=True,
            gauge=(("stream", 1), ("fault", 1)),
        ),
        Workload(
            "probe-triangles",
            "Bondy-Hajnal probe (k=2, m=13) at n=256..512 and s=5 growth at n=256 and "
            "1024: t=2 on sparse n, so the triangle pass dominates, beside trace_count",
            (
                (_sampled("growth", (5, 4, 256)), 8),
                (_sampled("probe", (2, 13, 256)), 1),
                (_sampled("probe", (2, 13, 512)), 1),
                (_sampled("growth", (5, 4, 1024)), 4),
            ),
            samples_levels=True,
            gauge=(("gather", 1),),
        ),
        Workload(
            "prune-scan",
            "growth at small dense n (s=3 and s=5, m=6) and a direct prune that "
            "removes vertices: bad-m-set scans and exact f(m), little sampling",
            (
                (_sampled("growth", (5, 6, 20)), 6),
                (_sampled("growth", (3, 6, 24)), 8),
                (_sampled("growth", (5, 6, 24)), 1),
                (_sampled("growth", (3, 6, 28)), 1),
                (_sampled("prune", (32, 1, "1/4", 6, 10)), 4),
            ),
            samples_levels=True,
            gauge=(("interp", 3), ("cached", 1)),
        ),
        Workload(
            "exact-small",
            "no numpy: extremal branch-and-bound against its oracle (canonical_form), "
            "d-tree min-density brute force, compression and shatter profiles",
            (
                (_DENSITY_16, 3),
                (_sampled("compress", (9, 80)), 12),
                (_sampled("compress", (10, 150)), 6),
                (_sampled("compress", (12, 300)), 3),
            ),
            fixed=_extremal_queries() + _DENSITY_GRID,
            gauge=(("interp", 3), ("cached", 1)),
        ),
    )
}
