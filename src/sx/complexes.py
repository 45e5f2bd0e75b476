"""Immutable facet-based simplicial complexes and their basic queries.

A complex is stored by its inclusion-maximal faces only; the face lattice
is enumerated lazily and memoized per dimension.  Vertex labels are
integers or short strings, ordered numerically when every label of the
complex is an integer and by string value otherwise, so that all derived
orderings (facet lists, digests, move enumerations) are deterministic
across runs.  `Complex.face_index` is the one canonical face order: each
face's row per dimension, which every boundary matrix is indexed by.
`Complex._facet_masks` is the one bitmask encoding of the facets, bit i
for the vertex at position i, that connectivity, normality and the
homology screens' collapse read.  `Complex._ridge_masks` is the one dual
graph, the facets through each ridge as a mask over facet indices.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import (
    EmptyFace,
    EmptyInput,
    NotAFace,
    NotWeakPseudomanifold,
    UnknownVertex,
    VertexClash,
)

Label = int | str
FaceSet = frozenset


def _label_order_key(v: Label, numeric: bool):
    if numeric:
        return v
    # mixed or string labels: string order, integers before equal-looking strings
    return (str(v), isinstance(v, str))


class Complex:
    """An immutable simplicial complex given by its facets.

    The empty complex ``{∅}`` (single face: the empty set) is
    representable; it is the boundary of every closed weak pseudomanifold.
    """

    __slots__ = ("_facets", "__dict__")

    def __init__(self, facets: Iterable[Iterable[Label]]):
        candidate = {frozenset(f) for f in facets} or {frozenset()}
        # keep inclusion-maximal members only.  Candidates of the top size
        # are maximal; a smaller f is dominated iff a larger candidate through
        # f's first vertex contains it, and ∅ iff any candidate is non-empty.
        top = max(map(len, candidate))
        if any(len(f) < top for f in candidate):
            through: dict[Label, list[FaceSet]] = {}
            for g in candidate:
                for v in g:
                    through.setdefault(v, []).append(g)
            candidate = {
                f for f in candidate
                if len(f) == top
                or f and not any(f < g for g in through[next(iter(f))])
            }
        self._facets: frozenset[FaceSet] = frozenset(candidate)

    # -- construction -----------------------------------------------------

    @classmethod
    def empty(cls) -> "Complex":
        return cls([frozenset()])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Complex):
            return NotImplemented
        return self._facets == other._facets

    def __hash__(self) -> int:
        return hash(self._facets)

    def __repr__(self) -> str:
        return f"Complex(dim={self.dimension}, facets={len(self._facets)}, vertices={len(self.vertices)})"

    # -- canonical ordering ------------------------------------------------

    @cached_property
    def _numeric(self) -> bool:
        return all(isinstance(v, int) for f in self._facets for v in f)

    @cached_property
    def vertices(self) -> tuple[Label, ...]:
        vs = set().union(*self._facets) if self._facets else set()
        return tuple(sorted(vs, key=lambda v: _label_order_key(v, self._numeric)))

    @cached_property
    def vertex_set(self) -> frozenset:
        return frozenset(self.vertices)

    @cached_property
    def _vertex_pos(self) -> dict:
        return {v: i for i, v in enumerate(self.vertices)}

    def face_tuple(self, face: Iterable[Label]) -> tuple:
        """Render a face as a tuple in the complex's canonical vertex order."""
        pos = self._vertex_pos
        return tuple(sorted(face, key=lambda v: pos.get(v, len(pos))))

    def sorted_faces(self, faces: Iterable[Iterable[Label]]) -> list[tuple]:
        pos = self._vertex_pos
        rendered = [self.face_tuple(f) for f in faces]
        rendered.sort(key=lambda t: (len(t), [pos.get(v, len(pos)) for v in t]))
        return rendered

    # -- basic structure ---------------------------------------------------

    @cached_property
    def facet_sets(self) -> frozenset[FaceSet]:
        return self._facets

    @cached_property
    def facets(self) -> tuple[tuple, ...]:
        return tuple(self.sorted_faces(self._facets))

    @cached_property
    def dimension(self) -> int:
        return max(len(f) for f in self._facets) - 1

    @cached_property
    def is_pure(self) -> bool:
        sizes = {len(f) for f in self._facets}
        return len(sizes) == 1

    @property
    def is_empty_complex(self) -> bool:
        return self.dimension == -1

    @cached_property
    def _vertex_star(self) -> dict[Label, list[FaceSet]]:
        """Map each vertex to the facets containing it."""
        star: dict[Label, list[FaceSet]] = {}
        for facet in self._facets:
            for v in facet:
                star.setdefault(v, []).append(facet)
        return star

    def has_face(self, face: Iterable[Label]) -> bool:
        f = frozenset(face)
        if len(f) - 1 > self.dimension:
            return False
        if not f:
            return True
        # every facet through f is in the star of each of f's vertices
        return any(f <= g for g in self._vertex_star.get(next(iter(f)), ()))

    def __contains__(self, face) -> bool:
        return self.has_face(face)

    @cached_property
    def _faces_by_dim(self) -> dict[int, frozenset]:
        by_dim: dict[int, set] = {k: set() for k in range(-1, self.dimension + 1)}
        by_dim[-1].add(frozenset())
        for facet in self._facets:
            fs = sorted(facet, key=self._vertex_pos.get)
            for r in range(1, len(fs) + 1):
                tier = by_dim[r - 1]
                for c in itertools.combinations(fs, r):
                    tier.add(frozenset(c))
        return {k: frozenset(v) for k, v in by_dim.items()}

    @cached_property
    def face_index(self) -> dict[int, dict[tuple, int]]:
        """Per dimension from -1, each face's canonical tuple mapped to its
        row; rows follow the faces' vertex positions lexicographically."""
        pos, verts = self._vertex_pos, self.vertices
        index = {}
        for k, faces in self._faces_by_dim.items():
            rows = sorted(tuple(sorted(pos[v] for v in f)) for f in faces)
            index[k] = {tuple(verts[i] for i in r): n for n, r in enumerate(rows)}
        return index

    def faces(self, dim: int) -> frozenset:
        """All faces of the given dimension (``-1`` yields ``{∅}``)."""
        if dim < -1 or dim > self.dimension:
            return frozenset()
        return self._faces_by_dim[dim]

    def all_faces(self, include_empty: bool = False):
        for k in range(-1 if include_empty else 0, self.dimension + 1):
            yield from self._faces_by_dim[k]

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(self._faces_by_dim[k]) for k in range(0, self.dimension + 1))

    @cached_property
    def euler_characteristic(self) -> int:
        chi = 0
        for k, count in enumerate(self.f_vector()):
            chi += count if k % 2 == 0 else -count
        return chi

    # -- serialization helpers ---------------------------------------------

    @cached_property
    def digest(self) -> str:
        """SHA-256 of the canonical sorted facet list serialization."""
        lines = [" ".join(str(v) for v in f) for f in self.facets]
        return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()

    # -- subcomplexes --------------------------------------------------------

    def link(self, face: Iterable[Label]) -> "Complex":
        f = frozenset(face)
        if not self.has_face(f):
            raise NotAFace(f"not a face: {sorted(map(str, f))}")
        return Complex(g - f for g in self._facets if f <= g)

    def star(self, face: Iterable[Label]) -> "Complex":
        f = frozenset(face)
        if not self.has_face(f):
            raise NotAFace(f"not a face: {sorted(map(str, f))}")
        return Complex(g for g in self._facets if f <= g)

    def antistar(self, vertex: Label) -> "Complex":
        if vertex not in self.vertex_set:
            raise UnknownVertex(f"unknown vertex: {vertex}")
        return Complex(g - {vertex} for g in self._facets)

    def induced(self, vertices: Iterable[Label]) -> "Complex":
        u = frozenset(vertices)
        extra = u - self.vertex_set
        if extra:
            raise UnknownVertex(f"unknown vertices: {sorted(map(str, extra))}")
        return Complex(g & u for g in self._facets)

    def skeleton(self, dim: int) -> "Complex":
        """The subcomplex of all faces of dimension at most ``dim``."""
        if dim >= self.dimension:
            return self
        # a smaller face lies in a dim-face of its facet unless that facet
        # has at most dim vertices itself
        return Complex(self.faces(dim) | {f for f in self._facets if len(f) <= dim})

    def join(self, other: "Complex") -> "Complex":
        clash = self.vertex_set & other.vertex_set
        if clash:
            raise VertexClash(f"shared labels: {sorted(map(str, clash))}")
        return Complex(f | g for f in self._facets for g in other._facets)

    def rename(self, mapping: dict) -> "Complex":
        """Relabel vertices; labels absent from ``mapping`` are kept."""
        return Complex(frozenset(mapping.get(v, v) for v in f) for f in self._facets)

    # -- pseudomanifold structure --------------------------------------------

    @cached_property
    def _ridge_incidence(self) -> dict[FaceSet, tuple[FaceSet, ...]]:
        """Map each (d-1)-face to the facets containing it (pure complexes)."""
        ridges: dict[FaceSet, list] = {}
        for facet in self._facets:
            for v in facet:
                ridges.setdefault(facet - {v}, []).append(facet)
        return {r: tuple(fs) for r, fs in ridges.items()}

    @cached_property
    def is_weak_pseudomanifold(self) -> bool:
        if self.is_empty_complex or not self.is_pure:
            return False
        return all(len(fs) <= 2 for fs in self._ridge_incidence.values())

    def _require_weak_pseudomanifold(self):
        if not self.is_weak_pseudomanifold:
            raise NotWeakPseudomanifold(
                "operation requires a pure complex with every ridge in at most two facets"
            )

    def boundary(self) -> "Complex":
        """Facets are the ridges lying in exactly one facet; ``{∅}`` if none."""
        self._require_weak_pseudomanifold()
        return Complex(r for r, fs in self._ridge_incidence.items() if len(fs) == 1)

    @cached_property
    def _ridge_masks(self) -> tuple[tuple[tuple[Label, int], ...], ...]:
        """The dual graph: for each facet of `facets`, in that order, and
        each vertex v of it, v with the mask over facet indices of the
        facets through the ridge ``facet \\ {v}``.  A facet's neighbours
        are the OR of its masks minus its own bit (see `_neighbour_masks`)."""
        index = {frozenset(f): i for i, f in enumerate(self.facets)}
        incidence = self._ridge_incidence
        return tuple(
            tuple((v, sum(1 << index[g] for g in incidence[fs - {v}])) for v in f)
            for f, fs in zip(self.facets, index)
        )

    @cached_property
    def _neighbour_masks(self) -> tuple[int, ...]:
        """Each facet's dual-graph neighbours as a mask over facet indices."""
        out = []
        for i, rs in enumerate(self._ridge_masks):
            nbr = 0
            for _, r in rs:
                nbr |= r
            out.append(nbr & ~(1 << i))
        return tuple(out)

    @cached_property
    def _facet_masks(self) -> tuple[int, ...]:
        """Each facet as an int with bit i set for the vertex at position i,
        in increasing order: the one bitmask encoding that connectivity,
        normality and the homology screens' collapse read."""
        pos = self._vertex_pos
        return tuple(sorted(sum(1 << pos[v] for v in f) for f in self._facets))

    @cached_property
    def _mask_star(self) -> tuple[list[int], ...]:
        """For each vertex position, the masks of the facets through it."""
        star: tuple[list[int], ...] = tuple([] for _ in self.vertices)
        for g in self._facet_masks:
            b = g
            while b:
                low = b & -b
                star[low.bit_length() - 1].append(g)
                b ^= low
        return star

    def _mask_link_is_connected(self, f: int) -> bool:
        """Whether lk(f) is connected, for a face f given as a mask: its
        pieces are g & ~f over the facet masks g ⊇ f in the star of f's
        lowest vertex.  The link {∅} of a facet is not connected."""
        star = self._mask_star[(f & -f).bit_length() - 1] if f else self._facet_masks
        return _pieces_connected([g & ~f for g in star if g & f == f])

    @cached_property
    def is_connected(self) -> bool:
        return self._mask_link_is_connected(0)

    def classify(self) -> "Classification":
        """Exact pseudomanifold-hierarchy flags for this complex."""
        return self._classification

    @cached_property
    def _classification(self) -> "Classification":
        pure = not self.is_empty_complex and self.is_pure
        weak = self.is_weak_pseudomanifold
        pseudo = weak and _pieces_connected(
            [nbr | 1 << i for i, nbr in enumerate(self._neighbour_masks)]
        )
        normal = weak and self._has_connected_low_links()
        closed = weak and not [
            1 for fs in self._ridge_incidence.values() if len(fs) == 1
        ]
        return Classification(
            pure=pure,
            weak_pseudomanifold=weak,
            pseudomanifold=pseudo,
            normal_pseudomanifold=normal,
            closed=closed,
        )

    def _has_connected_low_links(self) -> bool:
        """Whether the link of every face of dimension <= d-2 is connected;
        the empty face (its link is the whole complex) takes part only
        when d >= 1.  Faces are reached depth-first from their lowest
        vertex, adding higher vertices only, so each face is visited once,
        and the facet masks through a face are filtered from its parent's."""
        top = self.dimension - 1  # the largest face size whose link is read
        if top < 0:
            return True
        if not self.is_connected:
            return False
        stack = [(1 << i, star) for i, star in enumerate(self._mask_star)] if top else []
        while stack:
            f, star = stack.pop()
            if not _pieces_connected([g ^ f for g in star]):
                return False
            if f.bit_count() < top:
                higher = 0
                for g in star:
                    higher |= g
                higher &= -1 << f.bit_length()
                while higher:
                    low = higher & -higher
                    stack.append((f | low, [g for g in star if g & low]))
                    higher ^= low
        return True

    # -- combinatorial queries -------------------------------------------------

    def missing_faces(self, max_dim: int) -> list[tuple]:
        """All non-faces of dimension <= max_dim with every proper subset a face."""
        found = []
        for size in range(2, max_dim + 2):
            lower = self._faces_by_dim.get(size - 2, frozenset())
            present = self._faces_by_dim.get(size - 1, frozenset())
            seen = set()
            for f in lower:
                for v in self.vertices:
                    if v in f:
                        continue
                    cand = f | {v}
                    if cand in seen or cand in present:
                        continue
                    seen.add(cand)
                    if all(cand - {u} in lower for u in cand):
                        found.append(cand)
        return self.sorted_faces(found)

    def is_l_neighborly(self, l: int) -> bool:
        if not 1 <= l <= len(self.vertices):
            raise ValueError(f"l must be in [1, {len(self.vertices)}]")
        if l - 1 > self.dimension:
            return False
        from math import comb

        return len(self._faces_by_dim[l - 1]) == comb(len(self.vertices), l)


def _pieces_connected(pieces) -> bool:
    """Whether vertex masks, joined where they share a vertex, form one
    connected piece: a flood from the first one that stops once a pass
    adds nothing.  False when there are none or one of them is empty."""
    if not pieces or not all(pieces):
        return False
    reached, rest = pieces[0], pieces[1:]
    while rest:
        left = []
        for p in rest:
            if p & reached:
                reached |= p
            else:
                left.append(p)
        if len(left) == len(rest):
            return False
        rest = left
    return True


@dataclass(frozen=True)
class Classification:
    pure: bool
    weak_pseudomanifold: bool
    pseudomanifold: bool
    normal_pseudomanifold: bool
    closed: bool

    def as_dict(self) -> dict:
        return {
            "pure": self.pure,
            "weak_pseudomanifold": self.weak_pseudomanifold,
            "pseudomanifold": self.pseudomanifold,
            "normal_pseudomanifold": self.normal_pseudomanifold,
            "closed": self.closed,
        }


def from_facets(raw: Iterable[Iterable[Label]]) -> Complex:
    """Build a complex from raw facet data; dominated members are absorbed."""
    raw = [frozenset(f) for f in raw]
    if not raw:
        raise EmptyInput("at least one facet is required")
    if any(not f for f in raw):
        raise EmptyFace("facets must be non-empty vertex sets")
    return Complex(raw)


def f_vector(x: Complex) -> tuple[int, ...]:
    return x.f_vector()


def link(x: Complex, face: Iterable[Label]) -> Complex:
    return x.link(face)


def star(x: Complex, face: Iterable[Label]) -> Complex:
    return x.star(face)


def antistar(x: Complex, vertex: Label) -> Complex:
    return x.antistar(vertex)


def induced(x: Complex, vertices: Iterable[Label]) -> Complex:
    return x.induced(vertices)


def join(x: Complex, y: Complex) -> Complex:
    return x.join(y)


def boundary(x: Complex) -> Complex:
    return x.boundary()


def missing_faces(x: Complex, max_dim: int) -> list[tuple]:
    return x.missing_faces(max_dim)


def is_l_neighborly(x: Complex, l: int) -> bool:
    return x.is_l_neighborly(l)


def classify(x: Complex) -> Classification:
    return x.classify()


def fresh_label(x: Complex, reserved: Iterable[Label] = ()) -> Label:
    """A deterministic vertex label not used by ``x`` (nor in ``reserved``)."""
    used = set(x.vertex_set) | set(reserved)
    if x._numeric:
        top = max((v for v in used if isinstance(v, int)), default=-1)
        return top + 1
    i = 1
    while f"w{i}" in used:
        i += 1
    return f"w{i}"
