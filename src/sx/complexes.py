"""Immutable facet-based simplicial complexes and their basic queries.

A complex is stored by its inclusion-maximal faces only.  Vertex labels
are integers or short strings, ordered numerically when every label of
the complex is an integer and by string value otherwise, so that all
derived orderings (facet lists, digests, move enumerations) are
deterministic across runs.  `Complex._facet_masks` is the one bitmask
encoding of the facets, bit i for the vertex at position i, that
connectivity, normality, homology and tightness read.  `Complex._lattice`
is the one face lattice, built once per complex from those masks by
`_face_lattice`: each face a mask with its faces and cofaces, and each
face size one contiguous id range, which the face counts, `faces`,
missing faces, the stackedness checks, the closures and the collapse
read; homology and tightness build only the faces outside a subcomplex
instead, with the `minus` of `_face_lattice`.  `Complex._ridge_masks`
is the one dual graph, the facets through each ridge as a mask over facet
indices.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Iterable, NamedTuple

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

    def has_face(self, face: Iterable[Label]) -> bool:
        pos = self._vertex_pos
        f = 0
        for v in face:
            i = pos.get(v)
            if i is None:
                return False
            f |= 1 << i
        # every facet through f is in the star of f's lowest vertex
        return not f or any(g & f == f for g in self._mask_star[(f & -f).bit_length() - 1])

    def __contains__(self, face) -> bool:
        return self.has_face(face)

    @cached_property
    def _lattice(self) -> _Lattice:
        """The face lattice of the facet masks, built once."""
        return _face_lattice(self._facet_masks)

    def _labels(self, mask: int) -> tuple:
        """The face with the given vertex mask, in canonical vertex order."""
        verts = self.vertices
        return tuple(verts[i] for i in _bits(mask))

    def faces(self, dim: int) -> frozenset:
        """All faces of the given dimension (``-1`` yields ``{∅}``), built
        from the lattice's masks on each call."""
        if dim < -1 or dim > self.dimension:
            return frozenset()
        return frozenset(frozenset(self._labels(c)) for c in self._lattice.of_size(dim + 1))

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(ids) for ids in self._lattice.sizes[1:])

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
    def is_weak_pseudomanifold(self) -> bool:
        if self.is_empty_complex or not self.is_pure:
            return False
        return all(r.bit_count() <= 2 for rs in self._ridge_masks for _, r in rs)

    def _require_weak_pseudomanifold(self):
        if not self.is_weak_pseudomanifold:
            raise NotWeakPseudomanifold(
                "operation requires a pure complex with every ridge in at most two facets"
            )

    def boundary(self) -> "Complex":
        """Facets are the ridges lying in exactly one facet; ``{∅}`` if none."""
        self._require_weak_pseudomanifold()
        return Complex([u for u in f if u != v] for f, v in self._rim())

    @cached_property
    def _ridge_masks(self) -> tuple[tuple[tuple[Label, int], ...], ...]:
        """The dual graph: for each facet of `facets`, in that order, and
        each vertex v of it, v with the mask over facet indices of the
        facets through the ridge ``facet \\ {v}``, read off the facets'
        vertex masks.  A facet's neighbours are the OR of its masks minus
        its own bit (see `_neighbour_masks`)."""
        pos = self._vertex_pos
        masks = [sum(1 << pos[v] for v in f) for f in self.facets]
        through: dict[int, int] = {}
        for i, g in enumerate(masks):
            for j in _bits(g):
                through[g ^ 1 << j] = through.get(g ^ 1 << j, 0) | 1 << i
        return tuple(
            tuple((v, through[g ^ 1 << pos[v]]) for v in f)
            for f, g in zip(self.facets, masks)
        )

    def _rim(self):
        """(facet, v) for each ridge ``facet \\ {v}`` that lies in that
        facet only, facets in `facets` order."""
        for f, rs in zip(self.facets, self._ridge_masks):
            for v, r in rs:
                if r & (r - 1) == 0:
                    yield f, v

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
        normality, the face lattice, the closures, the move state and
        tightness read."""
        pos = self._vertex_pos
        return tuple(sorted(sum(1 << pos[v] for v in f) for f in self._facets))

    @cached_property
    def _mask_star(self) -> tuple[list[int], ...]:
        """For each vertex position, the masks of the facets through it."""
        star: tuple[list[int], ...] = tuple([] for _ in self.vertices)
        for g in self._facet_masks:
            for i in _bits(g):
                star[i].append(g)
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
        closed = weak and next(self._rim(), None) is None
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
                for i in _bits(higher & -1 << f.bit_length()):
                    stack.append((f | 1 << i, [g for g in star if g >> i & 1]))
        return True

    # -- combinatorial queries -------------------------------------------------

    def missing_faces(self, max_dim: int) -> list[tuple]:
        """All non-faces of dimension <= max_dim with every proper subset a face."""
        lattice, n = self._lattice, len(self.vertices)
        found = []
        for size in range(2, max_dim + 2):
            lower, present = set(lattice.of_size(size - 1)), set(lattice.of_size(size))
            # each candidate is reached once, from itself minus its highest vertex
            for f in lower:
                for i in range(f.bit_length(), n):
                    cand = f | 1 << i
                    if cand not in present and all(cand ^ 1 << j in lower for j in _bits(cand)):
                        found.append(cand)
        return self.sorted_faces(map(self._labels, found))

    def is_l_neighborly(self, l: int) -> bool:
        if not 1 <= l <= len(self.vertices):
            raise ValueError(f"l must be in [1, {len(self.vertices)}]")
        if l - 1 > self.dimension:
            return False
        return len(self._lattice.sizes[l]) == comb(len(self.vertices), l)


def _bits(mask: int):
    """The indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Lattice(NamedTuple):
    """A face lattice on vertex bitmasks: cell i is the face cells[i],
    faces[i] and cofaces[i] list the ids of its faces and cofaces one
    vertex away, and sizes[s] is the range of the ids of the cells with s
    vertices, s = 0 (∅ alone) to the largest generator size."""

    cells: list[int]
    faces: list[list[int]]
    cofaces: list[list[int]]
    sizes: list[range]

    def of_size(self, s: int) -> list[int]:
        """The cells with s vertices; none above the largest size."""
        ids = self.sizes[s] if s < len(self.sizes) else range(0)
        return self.cells[ids.start:ids.stop]


def _face_lattice(generators, minus=()) -> _Lattice:
    """Every face of the complex generated by the bitmasks that is not a
    face of the one generated by `minus`, built top-down, each with its
    faces and cofaces among those kept: a layer's faces are its cells with
    one bit dropped, and a smaller generator joins at its own size unless
    it is already a face.  The faces kept are closed upwards, so a face
    under a `minus` mask, found among the masks through its lowest vertex,
    is pruned with everything below it.  The ids run by size downwards, so
    a layer is built in id order and each size is one contiguous range, ∅
    (mask 0) last when it is kept."""
    by_size: dict[int, list[int]] = {}
    for g in generators:
        by_size.setdefault(g.bit_count(), []).append(g)
    through: dict[int, list[int]] = {0: list(minus)} if minus else {}  # lowest bit -> masks through it
    for m in minus:
        for i in _bits(m):
            through.setdefault(1 << i, []).append(m)
    top = max(by_size, default=-1)
    index: dict[int, int] = {}  # kept face -> its id
    dead: set[int] = set()  # the faces pruned so far
    cells: list[int] = []
    faces: list[list[int]] = []
    cofaces: list[list[int]] = []
    sizes = [range(0)] * (top + 1)
    layer: list[int] = []

    def pruned(f: int) -> bool:
        """Whether f is a face of a mask in `minus`."""
        if f in dead:
            return True
        for m in through.get(f & -f, ()):
            if m & f == f:
                dead.add(f)
                return True
        return False

    for size in range(top, -1, -1):
        for g in by_size.get(size, ()):
            if g in index or through and pruned(g):
                continue
            index[g] = len(cells)
            cells.append(g)
            cofaces.append([])
            layer.append(g)
        sizes[size] = range(len(cells) - len(layer), len(cells))
        below = []
        for t in layer:
            i = len(faces)
            ids = []
            b = t
            while b:
                low = b & -b
                b ^= low
                f = t ^ low
                j = index.get(f)
                if j is None:
                    if through and pruned(f):
                        continue
                    j = index[f] = len(cells)
                    cells.append(f)
                    cofaces.append([i])
                    below.append(f)
                else:
                    cofaces[j].append(i)
                ids.append(j)
            faces.append(ids)
        layer = below
    return _Lattice(cells, faces, cofaces, sizes)


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


def _unused_label(used: set, numeric: bool) -> Label:
    """A deterministic vertex label not in used: one more than the largest
    integer when numeric, else the first of w1, w2, ... not used."""
    if numeric:
        return max((v for v in used if isinstance(v, int)), default=-1) + 1
    i = 1
    while f"w{i}" in used:
        i += 1
    return f"w{i}"
