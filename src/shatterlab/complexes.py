"""Simplicial complexes as downward-closed families of non-empty faces.

Faces are bitmasks held in a hash set plus per-dimension indexes, so
membership tests are O(1) and superset scans stay cheap at desk scale.
Vertices may be any labels 0..n-1 (Python ints are arbitrary precision, so
n is capped only for complexes read from a file; the conversion to a
SetSystem needs n <= 64).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from shatterlab._bits import bits, submasks
from shatterlab.errors import (
    DEFAULT_SUBSET_LIMIT,
    EmptyDomainError,
    InvalidArgumentError,
    ResourceLimitError,
)
from shatterlab.setsystem import SetSystem, _as_vertex_mask, _parse_members_json, json_line

# cap on n for a complex read from a file, so one label cannot build a huge mask
MAX_FILE_VERTICES = 1 << 16
# most labels of a facet that from_facets closes downward (2^24 - 1 faces)
MAX_FACET_LABELS = 24


class SimplicialComplex:
    """Non-empty faces of a complex on ambient vertex set {0..n-1}."""

    __slots__ = ("n", "_faces", "_by_dim", "vertex_mask")

    def __init__(self, n: int, faces: Iterable[int]):
        """The complex with the given faces, which must be downward closed;
        from_facets builds one from outside input."""
        self.n = n
        self._faces = frozenset(faces)
        by_dim: dict[int, list[int]] = {}
        for f in self._faces:
            by_dim.setdefault(f.bit_count() - 1, []).append(f)
        self._by_dim = {d: tuple(sorted(fs)) for d, fs in sorted(by_dim.items())}
        self.vertex_mask = sum(by_dim.get(0, ()))  # the 0-faces are distinct bits

    @classmethod
    def from_facets(cls, n: int, facets: Iterable, *, limit: int | None = None):
        """Downward closure of the given facets (iterables of labels or masks).

        With a limit, ResourceLimitError is raised before the closure would
        build more than `limit` faces, counting a face once per facet under it.
        """
        faces: set[int] = set()
        built = 0
        for fc in facets:
            mask = fc if isinstance(fc, int) else 0
            if not isinstance(fc, int):
                for v in fc:
                    mask |= 1 << v
            if mask >> n:
                raise InvalidArgumentError(f"facet {mask:#x} exceeds ambient vertex range")
            if mask.bit_count() > MAX_FACET_LABELS:
                raise InvalidArgumentError("facet too large to close downward explicitly")
            built += (1 << mask.bit_count()) - 1
            if limit is not None and built > limit:
                raise ResourceLimitError(
                    f"closing the facets builds more than {limit} faces; "
                    "raise --limit-subsets to force it"
                )
            faces.update(submasks(mask))
        return cls(n, faces)

    # -- queries ----------------------------------------------------------

    def __contains__(self, face_mask: int) -> bool:
        return face_mask in self._faces

    def __len__(self) -> int:
        return len(self._faces)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimplicialComplex)
            and self.n == other.n
            and self._faces == other._faces
        )

    def __hash__(self):
        return hash((self.n, self._faces))

    @property
    def faces(self) -> frozenset[int]:
        return self._faces

    def faces_of_dim(self, d: int) -> tuple[int, ...]:
        return self._by_dim.get(d, ())

    @property
    def dimension(self) -> int:
        return max(self._by_dim) if self._by_dim else -1

    def face_counts(self) -> dict[int, int]:
        return {d: len(fs) for d, fs in self._by_dim.items()}

    def vertices(self) -> list[int]:
        return bits(self.vertex_mask)

    def as_setsystem(self) -> SetSystem:
        """The complex as a set system, with the empty set as a member."""
        return SetSystem.from_masks(self.n, (0, *self._faces))

    def facets(self) -> list[int]:
        """Inclusion-maximal faces, ascending.

        In a downward-closed complex a face is a facet when no face one
        larger covers it, so each level, from the top down, marks the
        one-smaller subfaces of its faces; the cost is the sum of face sizes.
        """
        out = []
        covered: set[int] = set()
        for d in sorted(self._by_dim, reverse=True):
            faces = self._by_dim[d]
            out += [f for f in faces if f not in covered]
            covered = {f ^ 1 << v for f in faces for v in bits(f)}
        return sorted(out)


def delta_d(cx: SimplicialComplex, d: int) -> int:
    """Minimum degree over all (d-1)-simplices, the degree of one being the
    number of d-simplices containing it: one pass over the d-simplices adds
    one to each of their d + 1 facets."""
    lower = cx.faces_of_dim(d - 1)
    if not lower:
        raise EmptyDomainError(f"complex has no faces of dimension {d - 1}")
    degree = dict.fromkeys(lower, 0)
    for f in cx.faces_of_dim(d):
        for v in bits(f):
            degree[f ^ (1 << v)] += 1
    return min(degree.values())


def span_count(cx: SimplicialComplex, subset) -> int:
    """Number of non-empty faces contained in the given vertex set."""
    vmask = _as_vertex_mask(cx.n, subset)
    return sum(1 for f in cx.faces if f & ~vmask == 0)


@dataclass(frozen=True)
class OverlapWitness:
    vertex_set: int
    count: int


def overlap_witness(cx: SimplicialComplex, rho, d: int, m: int) -> OverlapWitness:
    """An m-bounded vertex set around rho spanning many faces.

    rho is a d'-simplex contained in N d-simplices.  If all N fit inside m
    vertices the witness is their union; otherwise d-simplices through rho
    are accumulated greedily (fewest new vertices first, ties by smaller
    bitmask) for as long as the union stays within m vertices.  The final
    size lies in [m-d, m] and the span satisfies
    count >= min(N, (2^(d+1) - 2^(d'+1))/(d - d') * (m - d)).
    """
    rmask = _as_vertex_mask(cx.n, rho)
    if rmask not in cx:
        raise InvalidArgumentError("rho is not a face of the complex")
    d_prime = rmask.bit_count() - 1
    if d_prime >= d:
        raise InvalidArgumentError("rho must have dimension strictly below d")
    if m <= d:
        raise InvalidArgumentError("m must exceed d")
    cofaces = [f for f in cx.faces_of_dim(d) if f & rmask == rmask]
    if not cofaces:
        raise EmptyDomainError("rho is contained in no d-simplex")
    union_all = 0
    for f in cofaces:
        union_all |= f
    if union_all.bit_count() <= m:
        return OverlapWitness(union_all, span_count(cx, union_all))
    # Greedy accumulation.  Stopping at the first size in [m-d, m] can fall
    # short of the count bound (many simplices pairwise meeting only in rho),
    # so keep absorbing simplices while the union stays within m vertices.
    remaining = sorted(cofaces)
    v = remaining.pop(0)
    while True:
        best = None
        best_key = None
        for f in remaining:
            grown = (v | f).bit_count()
            if grown > m:
                continue
            key = ((f & ~v).bit_count(), f)
            if best_key is None or key < best_key:
                best, best_key = f, key
        if best is None:
            break
        v |= best
        remaining.remove(best)
    return OverlapWitness(v, span_count(cx, v))


def parse_complex_json(text: str, *, limit: int = DEFAULT_SUBSET_LIMIT) -> SimplicialComplex:
    """The complex of a facet file; ResourceLimitError past `limit` faces built."""
    n, facets = _parse_members_json(text, "facets", "complex", MAX_FILE_VERTICES)
    return SimplicialComplex.from_facets(n, facets, limit=limit)


def format_complex_json(cx: SimplicialComplex) -> str:
    return json_line({"facets": [bits(f) for f in cx.facets()], "n": cx.n}) + "\n"
