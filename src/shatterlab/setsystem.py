"""Finite set systems and exact shatter computations.

A system lives on a labelled ground set {0..n-1} with n <= 64 and stores its
members as machine-word bitmasks, so traces and intersections are single-word
operations.  All operations here are pure and exhaustive: shatter values are
exact maxima over all candidate vertex subsets, scanned as arrays of the
narrowest unsigned dtype that holds n bits, in blocks of subsets that start
small and grow (with an early exit once the theoretical ceiling
min(2^m, |S|) is reached, so a scan that reaches it at once draws only a
few subsets), and a scan that would pass a subset limit raises instead of
running on.  The profile of a downward-closed family on a small ground set
comes from one subset-sum transform instead, since there the trace on Y is
exactly the set of members inside Y.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from shatterlab._bits import (
    ZETA_MAX_N,
    bits,
    blocks,
    facets_present,
    iter_size_subsets,
    mask_of,
    popcount_groups,
    zeta_transform,
)
from shatterlab.errors import (
    DEFAULT_SUBSET_LIMIT,
    EmptyDomainError,
    InvalidArgumentError,
    ResourceLimitError,
)

MAX_GROUND = 64


def _as_vertex_mask(n: int, subset) -> int:
    """Normalize a vertex subset (mask or iterable of labels) to a mask."""
    if isinstance(subset, int):
        mask = subset
    else:
        mask = mask_of(subset)
    if mask < 0 or mask >> n:
        raise InvalidArgumentError(
            f"vertex subset {mask:#x} is not contained in ground set of size {n}"
        )
    return mask


@dataclass(frozen=True)
class SetSystem:
    """A family of distinct subsets of {0..n-1}, stored as sorted bitmasks."""

    n: int
    members: tuple[int, ...]

    def __post_init__(self):
        if not 0 <= self.n <= MAX_GROUND:
            raise InvalidArgumentError(f"ground size must be in 0..{MAX_GROUND}, got {self.n}")
        prev = -1
        for m in self.members:
            if m <= prev:
                raise InvalidArgumentError("members must be strictly ascending bitmasks")
            if m >> self.n:
                raise InvalidArgumentError(f"member {m:#x} is not a subset of the ground set")
            prev = m

    @classmethod
    def from_masks(cls, n: int, masks: Iterable[int]) -> "SetSystem":
        return cls(n, tuple(sorted(set(masks))))

    @classmethod
    def from_sets(cls, n: int, sets: Iterable[Iterable[int]]) -> "SetSystem":
        return cls.from_masks(n, (mask_of(s) for s in sets))

    def __len__(self) -> int:
        return len(self.members)

    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    def to_sets(self) -> list[list[int]]:
        return [bits(m) for m in self.members]


def shatter_value(system: SetSystem, m: int, *, limit: int = DEFAULT_SUBSET_LIMIT) -> int:
    """max |trace(S,Y)| over all Y of size m, exhaustively.

    Subsets are visited in colexicographic order, in blocks that start at
    about a 64th of _bits.BLOCK_CELLS traces and grow 4x per block up to
    BLOCK_CELLS.  Each block ANDs its Y masks with the members, held in the
    narrowest unsigned dtype that fits n bits, sorts each row and counts its
    distinct values.  The scan stops after the first block whose maximum
    reaches min(2^m, |S|), so a scan that reaches it at its first subsets
    draws only a few.  If the first `limit` subsets do not reach it and more
    remain, ResourceLimitError is raised, so every value returned is exact.
    """
    if not 0 <= m <= system.n:
        raise InvalidArgumentError(f"m must be in 0..{system.n}, got {m}")
    if not system.members:
        return 0
    n = system.n
    lanes = np.uint8 if n <= 8 else np.uint16 if n <= 16 else np.uint32 if n <= 32 else np.uint64
    members = np.array(system.members, dtype=lanes)
    ceiling = min(1 << m, len(members))
    total = math.comb(n, m)
    todo = min(total, max(limit, 0))
    subsets = iter_size_subsets(n, m)
    best = 0
    for start, stop in blocks(todo, len(members), grow=True):
        traces = np.fromiter(subsets, dtype=lanes, count=stop - start)[:, None] & members
        traces.sort(axis=1)
        # the ufuncs skip the Python wrappers of .sum and .max, about 1 us a
        # block, where a tiny system's whole scan takes about 10 us
        changes = np.add.reduce(traces[:, 1:] != traces[:, :-1], axis=1)
        best = max(best, 1 + int(np.maximum.reduce(changes)))
        if best >= ceiling:
            return best
    if total > limit:
        raise ResourceLimitError(
            f"shatter scan of {total} {m}-subsets exceeds the limit {limit}; "
            "raise --limit-subsets to force it"
        )
    return best


@dataclass(frozen=True)
class ShatterProfile:
    """The sequence f(0), f(1), ..., f(n)."""

    values: tuple[int, ...]

    def dominates(self, other: "ShatterProfile") -> bool:
        """Pointwise >= comparison (self dominates other)."""
        return len(self.values) == len(other.values) and all(
            a >= b for a, b in zip(self.values, other.values)
        )


def is_downward_closed(system: SetSystem) -> bool:
    """True if every subset of every member is a member (incl. the empty set)."""
    family = system.member_set()
    return all(facets_present(family, e) for e in system.members)


def max_members_inside(rows: np.ndarray, sizes) -> np.ndarray:
    """Entry [i, j]: most members of family i inside one sizes[j]-subset of
    {0..n-1}, for rows a (families, 2^n) bool array of member indicators,
    n <= ZETA_MAX_N.

    For a downward-closed family that is its shatter value f(sizes[j]).  The
    rows go through the subset-sum transform _bits.BLOCK_CELLS int32 entries
    at a time (one row per block if 2^n is larger).
    """
    n = rows.shape[1].bit_length() - 1
    groups = popcount_groups(n)
    out = np.empty((len(rows), len(sizes)), dtype=np.int32)
    for start, stop in blocks(len(rows), 1 << n):
        inside = zeta_transform(rows[start:stop].astype(np.int32))
        for j, size in enumerate(sizes):
            out[start:stop, j] = inside[:, groups[size]].max(axis=1)
    return out


def shatter_profile(system: SetSystem, *, limit: int = DEFAULT_SUBSET_LIMIT) -> ShatterProfile:
    """f(0), ..., f(n), each as shatter_value computes it.

    A downward-closed family with 2^n <= limit (and n <= ZETA_MAX_N) is
    answered by subset sums: f(m) is the most members inside any m-set.  No
    scan under that bound could pass the limit, so both paths agree exactly.
    """
    n = system.n
    if n <= ZETA_MAX_N and 1 << n <= limit and is_downward_closed(system):
        held = np.zeros((1, 1 << n), dtype=bool)
        held[0, list(system.members)] = True
        values = max_members_inside(held, range(n + 1))[0]
        return ShatterProfile(tuple(values.tolist()))
    return ShatterProfile(
        tuple(shatter_value(system, m, limit=limit) for m in range(n + 1))
    )


def vc_dimension(system: SetSystem) -> int:
    """Largest m with f(m) = 2^m.

    The shattered range is an initial segment (f(m) < 2^m forces
    f(m+1) <= 2 f(m) < 2^(m+1)), so we extend upward until the first failure.
    """
    if not system.members:
        raise EmptyDomainError("VC dimension is undefined for the empty system")
    d = 0
    while d < system.n and shatter_value(system, d + 1) == 1 << (d + 1):
        d += 1
    return d


# ---------------------------------------------------------------------------
# file formats
#
# Text: first line "n=<int>"; every following line is one member as
# space-separated vertex labels, a blank line denoting the empty set.
# JSON: {"n": int, "sets": [[int, ...], ...]}.
# Both round-trip bit-exactly; duplicate members are dropped with a count.
# Every JSON text the package writes, files and CLI lines alike, comes from
# json_line.
# ---------------------------------------------------------------------------


def _check_ground_size(n, limit: int = MAX_GROUND) -> None:
    if isinstance(n, bool) or not isinstance(n, int) or not 0 <= n <= limit:
        raise InvalidArgumentError(f"ground size must be an integer in 0..{limit}, got {n!r}")


def _member_mask(n: int, labels: list) -> int:
    """Mask of one parsed member; every label must be an int in 0..n-1."""
    for v in labels:
        if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < n:
            raise InvalidArgumentError(f"vertex label {v!r} is not an integer in 0..{n - 1}")
    return mask_of(labels)


def parse_text(text: str) -> tuple[SetSystem, int]:
    """Parse the text format.  Returns (system, duplicates_dropped)."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()  # trailing newline terminator, not an empty member
    if not lines or not lines[0].startswith("n="):
        raise InvalidArgumentError("first line must be 'n=<int>'")
    try:
        n = int(lines[0][2:])
    except ValueError as exc:
        raise InvalidArgumentError(f"bad ground size line {lines[0]!r}") from exc
    _check_ground_size(n)
    masks = []
    for line in lines[1:]:
        try:
            labels = [int(f) for f in line.split()]
        except ValueError as exc:
            raise InvalidArgumentError(f"bad member line {line!r}") from exc
        masks.append(_member_mask(n, labels))
    system = SetSystem.from_masks(n, masks)
    return system, len(masks) - len(system)


def format_text(system: SetSystem) -> str:
    lines = [f"n={system.n}"]
    lines.extend(" ".join(str(v) for v in bits(m)) for m in system.members)
    return "\n".join(lines) + "\n"


def _parse_members_json(
    text: str, key: str, what: str, limit: int = MAX_GROUND
) -> tuple[int, list[int]]:
    """(n, member masks) of a JSON object {"n": int, key: [[label, ...], ...]}."""
    try:
        obj = json.loads(text)
        n = obj["n"]
        rows = obj[key]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise InvalidArgumentError(f"bad {what} JSON: {exc}") from exc
    _check_ground_size(n, limit)
    if not isinstance(rows, list) or not all(isinstance(labels, list) for labels in rows):
        raise InvalidArgumentError(f"bad {what} JSON: '{key}' must be a list of label lists")
    return n, [_member_mask(n, labels) for labels in rows]


def parse_json(text: str) -> tuple[SetSystem, int]:
    n, masks = _parse_members_json(text, "sets", "set-system")
    system = SetSystem.from_masks(n, masks)
    return system, len(masks) - len(system)


def _finite(obj):
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


def json_line(obj) -> str:
    """Canonical JSON text: sorted keys, no spaces, other types via str, and
    a non-finite float (an undefined slope) as null, since JSON has no NaN."""
    return json.dumps(
        _finite(obj), sort_keys=True, separators=(",", ":"), default=str, allow_nan=False
    )


def format_json(system: SetSystem) -> str:
    return json_line({"n": system.n, "sets": system.to_sets()}) + "\n"


def load_file(path: str) -> tuple[SetSystem, int]:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        return parse_json(text)
    return parse_text(text)


def save_file(path: str, system: SetSystem) -> None:
    text = format_json(system) if path.endswith(".json") else format_text(system)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
