"""Finite set systems and exact shatter computations.

A system lives on a labelled ground set {0..n-1} with n <= 64 and stores its
members as machine-word bitmasks, so traces and intersections are single-word
operations.  All operations here are pure and exhaustive: shatter values are
exact maxima over all candidate vertex subsets (with an early exit once the
theoretical ceiling min(2^m, |S|) is reached).
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass

from shatterlab._bits import bits, iter_size_subsets, mask_of
from shatterlab.errors import EmptyDomainError, InvalidArgumentError

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

    @classmethod
    def power_set(cls, n: int) -> "SetSystem":
        return cls(n, tuple(range(1 << n)))

    def __len__(self) -> int:
        return len(self.members)

    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    def to_sets(self) -> list[list[int]]:
        return [bits(m) for m in self.members]


def trace(system: SetSystem, subset) -> SetSystem:
    """The system {e ∩ Y : e ∈ S}, deduplicated.

    The result keeps the ambient labelling (members are subsets of Y); its
    ground set is conceptually Y.
    """
    ymask = _as_vertex_mask(system.n, subset)
    return SetSystem.from_masks(system.n, (e & ymask for e in system.members))


def shatter_value(system: SetSystem, m: int) -> int:
    """max |trace(S,Y)| over all Y of size m, exhaustively.

    Subsets are visited in colexicographic order; the scan stops early once
    the running maximum reaches min(2^m, |S|).
    """
    if not 0 <= m <= system.n:
        raise InvalidArgumentError(f"m must be in 0..{system.n}, got {m}")
    members = system.members
    if not members:
        return 0
    ceiling = min(1 << m, len(members))
    best = 0
    for ymask in iter_size_subsets(system.n, m):
        count = len({e & ymask for e in members})
        if count > best:
            best = count
            if best >= ceiling:
                break
    return best


@dataclass(frozen=True)
class ShatterProfile:
    """The sequence f(0), f(1), ..., f(n)."""

    values: tuple[int, ...]

    def __getitem__(self, m: int) -> int:
        return self.values[m]

    def __len__(self) -> int:
        return len(self.values)

    def dominates(self, other: "ShatterProfile") -> bool:
        """Pointwise >= comparison (self dominates other)."""
        return len(self.values) == len(other.values) and all(
            a >= b for a, b in zip(self.values, other.values)
        )

    def violations(self, member_count: int | None = None) -> list[str]:
        """Check the structural invariants every true profile satisfies."""
        v = self.values
        out = []
        if v and v[0] != 1:
            out.append(f"f(0) = {v[0]} != 1")
        for m in range(len(v) - 1):
            if v[m + 1] < v[m]:
                out.append(f"f({m + 1}) = {v[m + 1]} < f({m}) = {v[m]}")
            if v[m + 1] > 2 * v[m]:
                out.append(f"f({m + 1}) = {v[m + 1]} > 2 f({m}) = {2 * v[m]}")
        for m, val in enumerate(v):
            cap = 1 << m
            if member_count is not None:
                cap = min(cap, member_count)
            if val > cap:
                out.append(f"f({m}) = {val} exceeds ceiling {cap}")
        return out


def shatter_profile(system: SetSystem) -> ShatterProfile:
    return ShatterProfile(tuple(shatter_value(system, m) for m in range(system.n + 1)))


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
# ---------------------------------------------------------------------------


def _check_ground_size(n) -> None:
    if isinstance(n, bool) or not isinstance(n, int) or not 0 <= n <= MAX_GROUND:
        raise InvalidArgumentError(f"ground size must be an integer in 0..{MAX_GROUND}, got {n!r}")


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


def parse_json(text: str) -> tuple[SetSystem, int]:
    try:
        obj = json.loads(text)
        n = obj["n"]
        sets = obj["sets"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise InvalidArgumentError(f"bad set-system JSON: {exc}") from exc
    _check_ground_size(n)
    if not isinstance(sets, list) or not all(isinstance(labels, list) for labels in sets):
        raise InvalidArgumentError("bad set-system JSON: 'sets' must be a list of label lists")
    masks = [_member_mask(n, labels) for labels in sets]
    system = SetSystem.from_masks(n, masks)
    return system, len(masks) - len(system)


def format_json(system: SetSystem) -> str:
    return json.dumps(
        {"n": system.n, "sets": system.to_sets()}, sort_keys=True, separators=(",", ":")
    ) + "\n"


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
