"""Bistellar and shelling moves, their certificates, and replay.

A bistellar move ``alpha -> beta`` on a pure d-complex X requires the
induced subcomplex of X on ``alpha ∪ beta`` to be the join of the full
simplex on alpha with the boundary of beta; applying it swaps that region
for the complementary join.  A shelling move ``alpha ~> beta`` attaches the
single new facet ``alpha ∪ beta`` to a pure complex along exactly that
join.  Both validity checks reduce to small face-membership conditions
derived below; the reasons they report are machine-readable so searches
can prune on them.

Moves are listed, checked and applied on facet bitmasks, `_Masks`, which
the growers, the stellatedness search and replay carry from move to move
and the public checks and enumerators run once; each rule is written once,
as `_Masks.flip_reason` and `_Masks.attach_reason`.  The move lists are
kept in step with the facets (`_Spans`): a move changes only the options
through the ridges of the facets it touches, and the first listing builds
the lists, so replay and the single-call checks never pay for them.  The
order is one invariant: by index, then alpha, then beta, each in the vertex
order of the live complex, numeric when every live label is an integer and
by string otherwise.  That order is the restriction of one fixed label
order, so a face's place is the sorted keys of its own labels
(`_Masks.key`), whatever else is live, and the move tables outlive a vertex
that comes or goes.  The one label not live, the new vertex of an index-0
move, is that move's beta alone.
"""

from __future__ import annotations

import bisect
import functools
import json
import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .complexes import Complex, Label, _label_order_key, _unused_label
from .errors import BadDimension, InvalidMove, ReplayFailure

__all__ = [
    "BistellarMove",
    "ShellingMove",
    "MoveCertificate",
    "standard_sphere",
    "standard_ball",
    "bistellar_valid",
    "bistellar_options",
    "apply_bistellar",
    "shelling_valid",
    "shelling_options",
    "apply_shelling",
    "replay",
    "reverse_move",
    "ball_from_stellated_certificate",
    "shelling_moves_from_facet_order",
]


@dataclass(frozen=True)
class BistellarMove:
    alpha: tuple
    beta: tuple

    @property
    def index(self) -> int:
        return len(self.beta) - 1

    def as_dict(self) -> dict:
        return {"alpha": list(self.alpha), "beta": list(self.beta)}


@dataclass(frozen=True)
class ShellingMove:
    alpha: tuple
    beta: tuple

    @property
    def index(self) -> int:
        return len(self.beta) - 1

    def as_dict(self) -> dict:
        return {"alpha": list(self.alpha), "beta": list(self.beta)}


def reverse_move(move: BistellarMove) -> BistellarMove:
    return BistellarMove(alpha=move.beta, beta=move.alpha)


# -- standard objects ------------------------------------------------------


def _default_labels(n: int, labels: Sequence[Label] | None) -> list[Label]:
    if labels is None:
        return list(range(1, n + 1))
    labels = list(labels)
    if len(labels) != n or len(set(labels)) != n:
        raise BadDimension(f"need {n} distinct labels, got {labels!r}")
    return labels


def standard_sphere(d: int, labels: Sequence[Label] | None = None) -> Complex:
    """Boundary of the (d+1)-simplex: the unique (d+2)-vertex d-sphere."""
    if d < 0:
        raise BadDimension("sphere dimension must be >= 0")
    vs = _default_labels(d + 2, labels)
    return Complex(frozenset(vs) - {v} for v in vs)


def standard_ball(d: int, labels: Sequence[Label] | None = None) -> Complex:
    """The full d-simplex as a one-facet complex."""
    if d < 0:
        raise BadDimension("ball dimension must be >= 0")
    vs = _default_labels(d + 1, labels)
    return Complex([frozenset(vs)])


def is_standard_sphere(x: Complex) -> bool:
    d = x.dimension
    return (
        d >= 0
        and len(x.vertices) == d + 2
        and len(x.facet_sets) == d + 2
        and x.is_pure
    )


# -- bistellar moves -------------------------------------------------------


def bistellar_valid(x: Complex, move: BistellarMove) -> str | None:
    """None if the move applies to x, else a short reason token.

    For index >= 1 the induced-subcomplex condition is equivalent to:
    every ``alpha ∪ (beta \\ {b})`` is a face and beta itself is not.
    For index 0, beta must be a single label new to the complex and alpha
    a facet.  A face that repeats a label is rejected first.
    """
    return _reason(x, move, _Masks.flip_reason)


def apply_bistellar(x: Complex, move: BistellarMove) -> Complex:
    """x after move; InvalidMove if `bistellar_valid` objects.  Only the
    facets the move touches are turned from masks into labels."""
    m = _Masks(x)
    a, b = m.pair(move)
    m.flip(a, b, move)
    gone = {frozenset(m.ascending(a | b ^ v)) for v in _low_bits(b)}
    return Complex([*(x.facet_sets - gone), *(m.ascending(a ^ u | b) for u in _low_bits(a))])


def bistellar_options(x: Complex, lo: int, hi: int) -> list[BistellarMove]:
    """All valid moves with index in [lo, hi], canonically ordered.

    Index-0 entries subdivide the d-facets, and share one explicit fresh
    vertex label so every listed move is directly applicable and
    certificates stay reproducible.

    A valid move ``alpha -> beta`` of index i >= 1 spans the (d+2)-set
    ``sigma = alpha ∪ beta``, whose facets in x are exactly the
    ``sigma \\ {b}`` for b in beta: every other d-subset of sigma contains
    beta, which is not a face.  As beta has two vertices or more, sigma is
    the union of two facets on a common d-vertex ridge.  Conversely, each
    such union gives ``beta = {v in sigma : sigma \\ {v} is a facet}`` and
    ``alpha = sigma \\ beta``, a valid move iff beta is not a face.
    """
    m = _Masks(x)
    return [BistellarMove(alpha=m.face(a), beta=m.face(b)) for a, b in m.bistellar(lo, hi)]


# -- shelling moves ----------------------------------------------------------


def shelling_valid(y: Complex, move: ShellingMove) -> str | None:
    """None if attaching ``alpha ∪ beta`` to y is a valid shelling move.

    Unified check: the new facet sigma must not be a facet of y, every
    ``sigma \\ {b}`` for b in beta must be a boundary ridge of y (a face
    of exactly one facet, so weak pseudomanifolds stay weak
    pseudomanifolds), and beta must not be a face of y.  (For an index-0
    move this forces the beta vertex to be fresh, because single labels
    of y are faces.)  A face that repeats a label is rejected first.
    """
    return _reason(y, move, _Masks.attach_reason)


def apply_shelling(y: Complex, move: ShellingMove) -> Complex:
    """y after move; InvalidMove if `shelling_valid` objects."""
    m = _Masks(y)
    a, b = m.pair(move)
    m.attach(a, b, move)
    return Complex([*y.facet_sets, m.ascending(a | b)])


def _reason(x: Complex, move, rule) -> str | None:
    """What rule, `_Masks.flip_reason` or `_Masks.attach_reason`, says of
    move on x."""
    m = _Masks(x)
    try:
        a, b = m.pair(move)
    except InvalidMove as exc:
        return exc.reason
    return rule(m, a, b)


def shelling_options(y: Complex, max_index: int) -> list[ShellingMove]:
    """All shelling moves of index <= max_index applicable to y.

    Every rim ridge (a ridge of a top-dimensional facet in no other facet
    of its size) is coned to one explicit fresh vertex (index 0).  A move
    of index >= 1 attaches a facet ``sigma = ridge ∪ {v}`` with v a vertex
    of y.  All proper faces of the rim ridge are faces of y, and so is {v},
    so beta contains v and some other b, and ``sigma \\ {b}`` must be a rim
    ridge too.  That ridge meets the first one in a (d-2)-face, so every
    valid sigma is the union of two rim ridges that differ in one vertex,
    and only those unions are tried, each split with beta the v for which
    ``sigma \\ {v}`` is a rim ridge (`_Spans`).
    """
    m = _Masks(y)
    return [ShellingMove(alpha=m.face(a), beta=m.face(b)) for a, b in m.shelling(max_index)]


def shelling_moves_from_facet_order(facet_order: Sequence[Iterable[Label]]) -> list[ShellingMove]:
    """Derive the (alpha, beta) moves realizing a facet-by-facet shelling.

    The first facet is the seed; each later facet must attach by a valid
    shelling move, whose split is unique when it exists.  alpha and beta
    list their vertices in the vertex order of the complex of all facets.
    """
    facets = [frozenset(f) for f in facet_order]
    m = _Masks(Complex(facets))
    masks = [sum(m.bit[v] for v in f) for f in facets]
    m.load(masks[:1])
    moves = []
    for step, sigma in enumerate(masks[1:], start=1):
        # the v for which sigma \ {v} is a rim ridge: the one beta that can
        # attach sigma, as each other sigma \ {v} contains it
        beta = sum(v for v in _low_bits(sigma) if m._holders(sigma ^ v) == 1)
        if m.has_face(beta):
            raise ReplayFailure(step, f"facet {sorted(map(str, facets[step]))} does not attach by a shelling move")
        alpha = sigma ^ beta
        move = ShellingMove(alpha=m.ascending(alpha), beta=m.ascending(beta))
        m.attach(alpha, beta, move)
        moves.append(move)
    return moves


# -- facet masks ---------------------------------------------------------------


def _low_bits(mask: int):
    """The set bits of mask, lowest first, as one-bit ints."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _named(labels: list, numeric: bool, mask: int) -> tuple:
    """The labels of mask in the label order, numeric or by string."""
    named = (labels[v.bit_length() - 1] for v in _low_bits(mask))
    return tuple(sorted(named, key=lambda v: _label_order_key(v, numeric)))


def _flip_masks(facets: tuple, a: int, b: int) -> tuple:
    """The sorted tuple of facet masks after a move (a, b) already checked
    to apply: the facets ``a ∪ (b \\ {v})`` give way to the ``(a \\ {u}) ∪ b``."""
    removed = {a | b ^ v for v in _low_bits(b)}
    return tuple(sorted([f for f in facets if f not in removed] + [a ^ u | b for u in _low_bits(a)]))


class _Spans:
    """The moves of one kind, kept in step with its cells: the facets of
    top dimension for bistellar moves, the rim ridges for shelling moves.
    A span is the union sigma of two cells of one size that differ in one
    vertex, and its beta the v in sigma for which ``sigma \\ {v}`` is a
    cell; its move ``(sigma \\ beta, beta)`` is listed when `valid` admits
    it.  A cell that comes or goes makes the spans through its faces dirty,
    and a facet that comes or goes the spans whose beta it contains, as only
    then can beta become or stop being a face; `listed` settles them.
    `moves` holds the listed moves in canonical order, each cell c first as
    the index-0 move ``(0, key, (), c, 0)`` whose new vertex is filled in
    when it is listed."""

    def __init__(self, m: "_Masks", valid, cells):
        self.valid = valid  # valid(m, sigma, beta)
        self.cells: dict[int, tuple] = {}  # cell -> its index-0 entry in `moves`
        self.faces: dict[int, list[int]] = {}  # face -> cells through it
        self.spans: dict[int, tuple] = {}  # sigma -> (beta, its entry in `moves` or None)
        self.holding: tuple[dict, dict] = ({}, {})  # [listed][beta] -> sigmas
        self.moves: list[tuple] = []  # (index, key(alpha), key(beta), alpha, beta), sorted
        self.dirty: set[int] = set()
        for c in cells:
            self.toggle(m, c)

    def toggle(self, m: "_Masks", c: int) -> None:
        """Make c a cell, or no longer one if it is."""
        added = c not in self.cells
        if added:
            entry = self.cells[c] = (0, m.key(c), (), c, 0)
            bisect.insort(self.moves, entry)
        else:
            del self.moves[bisect.bisect_left(self.moves, self.cells.pop(c))]
        for v in _low_bits(c):
            through = self.faces.setdefault(c ^ v, [])
            (through.append if added else through.remove)(c)
            self.dirty.update(map(c.__or__, through))
            if not through:
                del self.faces[c ^ v]

    def touch(self, m: "_Masks", f: int, added: bool) -> None:
        """Facet f came or went: recheck the spans whose beta it contains,
        the listed ones if it came and the others if their beta is no
        longer a face."""
        holding, sub = self.holding[added], f
        while sub:
            if sub in holding and (added or not m.has_face(sub)):
                self.dirty.update(holding[sub])
            sub = (sub - 1) & f

    def listed(self, m: "_Masks", lo: int, hi: int, new: int) -> list[tuple[int, int]]:
        """The moves of index lo..hi in canonical order, new the vertex of
        the index-0 moves."""
        while self.dirty and hi >= 1:
            self._settle(m, self.dirty.pop())
        i, j = bisect.bisect_left(self.moves, (lo,)), bisect.bisect_left(self.moves, (hi + 1,))
        return [(a, b or new) for _, _, _, a, b in self.moves[i:j]]

    def _settle(self, m: "_Masks", sigma: int) -> None:
        beta, rest = 0, sigma
        while rest:
            v = rest & -rest
            rest ^= v
            if sigma ^ v in self.cells:
                beta |= v
        beta = beta if beta.bit_count() > 1 else 0
        valid = bool(beta) and self.valid(m, sigma, beta)
        old, entry = self.spans.get(sigma, (0, None))
        if (old, entry is not None) == (beta, valid):
            return
        if entry is not None:
            del self.moves[bisect.bisect_left(self.moves, entry)]
        if old:
            holding = self.holding[entry is not None]
            holding[old].discard(sigma)
            if not holding[old]:
                del holding[old]
            del self.spans[sigma]
        if beta:
            alpha = sigma ^ beta
            entry = (beta.bit_count() - 1, m.key(alpha), m.key(beta), alpha, beta) if valid else None
            if valid:
                bisect.insort(self.moves, entry)
            self.spans[sigma] = beta, entry
            self.holding[valid].setdefault(beta, set()).add(sigma)


class _Masks:
    """A complex's facets as vertex bitmasks, bit i for ``labels[i]``, with
    its vertex stars, changed in place by each move; the map only grows, by
    new labels, and `strs` holds the bits of its labels that are not
    integers.  Moves are (alpha, beta) mask pairs, checked by the one rule
    of each kind, `flip_reason` and `attach_reason`, and listed from move
    tables (`_Spans`) that the first listing builds and every later change
    of a facet keeps in step; they are built again when the dimension or the
    mode of the label order, numeric or by string, changes."""

    def __init__(self, x: Complex):
        self.labels = list(x.vertices)
        self.bit = {v: 1 << i for i, v in enumerate(self.labels)}
        self.strs = sum(b for v, b in self.bit.items() if not isinstance(v, int))
        self.facets: set[int] = set(x._facet_masks)
        self.star = {1 << i: list(fs) for i, fs in enumerate(x._mask_star)}  # vertex bit -> facets through it
        self.union = (1 << len(self.labels)) - 1
        self.top = x.dimension + 1  # d + 1
        self._flips = self._shells = self._built = None

    def load(self, masks) -> None:
        """Make masks the facets, changing the tables where they differ."""
        new = set(masks)
        for f in self.facets - new:
            self._remove(f)
        for f in new - self.facets:
            self._add(f)
        self.top = max(map(int.bit_count, self.facets), default=0)

    def _add(self, f: int) -> None:
        self.facets.add(f)
        self.union |= f
        for v in _low_bits(f):
            self.star.setdefault(v, []).append(f)
        self._track(f, True)

    def _remove(self, f: int) -> None:
        self.facets.remove(f)
        for v in _low_bits(f):
            through = self.star[v]
            through.remove(f)
            if not through:
                del self.star[v]
                self.union ^= v
        self._track(f, False)

    def _track(self, f: int, added: bool) -> None:
        """Keep the move tables that are built in step with facet f, once
        they are dropped if f changed the mode of the label order."""
        self._tables()
        if self._flips is not None:
            if f.bit_count() == self.top:
                self._flips.toggle(self, f)
            self._flips.touch(self, f, added)
        if self._shells is not None:
            self._shells.touch(self, f, added)
            for v in _low_bits(f) if f.bit_count() == self.top else ():
                if (self._holders(f ^ v) == 1) != (f ^ v in self._shells.cells):
                    self._shells.toggle(self, f ^ v)

    def _tables(self) -> None:
        """Drop the move tables if the dimension or the mode of the label
        order, and so every key, has changed since they were built."""
        if self._built != (self.top, self.numeric):
            self._built, self._flips, self._shells = (self.top, self.numeric), None, None

    def has_face(self, face: int) -> bool:
        if not face:
            return True
        for g in self.star.get(face & -face, ()):
            if g & face == face:
                return True
        return False

    def _holders(self, ridge: int) -> int:
        """The number of facets through ridge with one vertex more."""
        n = ridge.bit_count() + 1
        return sum(g & ridge == ridge and g.bit_count() == n for g in self.star.get(ridge & -ridge, self.facets))

    # -- order ------------------------------------------------------------

    @property
    def numeric(self) -> bool:
        """Whether every live label is an integer, so that the live vertex
        order is numeric."""
        return not self.union & self.strs

    def key(self, mask: int) -> tuple:
        """mask's sort key: its labels' keys, sorted, in the mode of the
        label order the tables were built for."""
        numeric = self._built[1]
        return tuple(sorted(_label_order_key(self.labels[v.bit_length() - 1], numeric) for v in _low_bits(mask)))

    def face(self, mask: int) -> tuple:
        """The labels of mask in the live vertex order."""
        return _named(self.labels, self.numeric, mask)

    def ascending(self, mask: int) -> tuple:
        """The labels of mask in the order of their bits."""
        return tuple(self.labels[v.bit_length() - 1] for v in _low_bits(mask))

    def _bit(self, label: Label) -> int:
        if label not in self.bit:
            self.bit[label] = 1 << len(self.labels)
            self.strs |= 0 if isinstance(label, int) else self.bit[label]
            self.labels.append(label)
        return self.bit[label]

    def _fresh_bit(self) -> int:
        live = {self.labels[v.bit_length() - 1] for v in _low_bits(self.union)}
        return self._bit(_unused_label(live, self.numeric))

    def pair(self, move) -> tuple[int, int]:
        """A move's alpha and beta as masks, a label new to the map on a new
        bit; InvalidMove if a face repeats a label, before any rule."""
        a, b = (functools.reduce(operator.or_, map(self._bit, f), 0) for f in (move.alpha, move.beta))
        if a.bit_count() + b.bit_count() != len(move.alpha) + len(move.beta):
            raise InvalidMove("repeated-label", move)
        return a, b

    def complex(self) -> Complex:
        return Complex(self.ascending(f) for f in self.facets)

    # -- moves ------------------------------------------------------------

    def bistellar(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """The moves of `bistellar_options`, as mask pairs."""
        lo, hi = max(lo, 0), min(hi, self.top - 1)
        self._tables()
        if self._flips is None:
            top_facets = [f for f in self.facets if f.bit_count() == self.top]
            self._flips = _Spans(self, lambda m, sigma, beta: not m.has_face(beta), top_facets)
        return self._flips.listed(self, lo, hi, self._fresh_bit() if lo == 0 <= hi else 0)

    def shelling(self, max_index: int) -> list[tuple[int, int]]:
        """The moves of `shelling_options`, as mask pairs."""
        self._tables()
        if self._shells is None:
            top_facets = [f for f in self.facets if f.bit_count() == self.top]
            rim = [f ^ v for f in top_facets for v in _low_bits(f) if self._holders(f ^ v) == 1]
            self._shells = _Spans(self, lambda m, sigma, beta: sigma not in m.facets and not m.has_face(beta), rim)
        return self._shells.listed(self, 0, max_index, self._fresh_bit() if max_index >= 0 else 0)

    def flip_reason(self, a: int, b: int) -> str | None:
        """The rule of `bistellar_valid`, on masks."""
        return (
            "empty-beta" if not b
            else "overlap" if a & b
            else "wrong-dimensions" if a.bit_count() + b.bit_count() != self.top + 1
            else ("beta-not-fresh" if b & self.union else None if a in self.facets else "alpha-not-a-facet")
            if b.bit_count() == 1
            else "beta-vertex-unknown" if b & ~self.union
            else "beta-already-a-face" if self.has_face(b)
            else "attachment-not-induced" if any(a | b ^ v not in self.facets for v in _low_bits(b))
            else None
        )

    def flip(self, a: int, b: int, move: BistellarMove) -> None:
        """Apply a bistellar move; InvalidMove if `flip_reason` objects."""
        reason = self.flip_reason(a, b)
        if reason is not None:
            raise InvalidMove(reason, move)
        for v in _low_bits(b):
            self._remove(a | b ^ v)
        for u in _low_bits(a):
            self._add(a ^ u | b)
        if not a:  # no facet added: the dimension may drop, and no facet left is {∅}
            self.load(self.facets or [0])

    def attach_reason(self, a: int, b: int) -> str | None:
        """The rule of `shelling_valid`, on masks: a missing ridge is
        reported before an interior one."""
        sigma = a | b
        holders = [self._holders(sigma ^ v) for v in _low_bits(b)]
        return (
            "empty-beta" if not b
            else "overlap" if a & b
            else "wrong-dimensions" if sigma.bit_count() != self.top
            else "facet-already-present" if sigma in self.facets
            else "beta-already-a-face" if self.has_face(b)
            else "attachment-not-induced" if 0 in holders
            else "attachment-ridge-interior" if any(n != 1 for n in holders)
            else None
        )

    def attach(self, a: int, b: int, move: ShellingMove) -> None:
        """Apply a shelling move; InvalidMove if `attach_reason` objects."""
        reason = self.attach_reason(a, b)
        if reason is not None:
            raise InvalidMove(reason, move)
        self._add(a | b)


# -- certificates ------------------------------------------------------------


@dataclass(frozen=True)
class MoveCertificate:
    """A replayable move sequence from a digest-pinned starting complex."""

    kind: str  # "bistellar" | "shelling"
    start_digest: str
    moves: tuple = field(default_factory=tuple)
    result_digest: str | None = None

    def __post_init__(self):
        if self.kind not in ("bistellar", "shelling"):
            raise ValueError(f"unknown certificate kind: {self.kind}")

    @property
    def length(self) -> int:
        return len(self.moves)

    def max_index(self) -> int:
        return max((m.index for m in self.moves), default=-1)

    def as_dict(self) -> dict:
        payload: dict = {
            "kind": self.kind,
            "start": {"digest": self.start_digest},
            "moves": [m.as_dict() for m in self.moves],
        }
        if self.result_digest:
            payload["result_digest"] = self.result_digest
        return payload

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "MoveCertificate":
        data = json.loads(text)
        cls_move = BistellarMove if data["kind"] == "bistellar" else ShellingMove
        moves = tuple(
            cls_move(alpha=tuple(m["alpha"]), beta=tuple(m["beta"]))
            for m in data["moves"]
        )
        return cls(
            kind=data["kind"],
            start_digest=data["start"]["digest"],
            moves=moves,
            result_digest=data.get("result_digest"),
        )


def _replay(m: _Masks, step, moves) -> Complex:
    """Apply moves in place to m by step, `_Masks.flip` or `_Masks.attach`;
    ReplayFailure names the first that does not apply."""
    for i, move in enumerate(moves, start=1):
        try:
            step(m, *m.pair(move), move)
        except InvalidMove as exc:
            raise ReplayFailure(i, exc.reason) from exc
    return m.complex()


def replay(cert: MoveCertificate, start: Complex) -> tuple[Complex, int]:
    """Replay a certificate from start; returns the final complex and the
    move count.  The digests of start and (when present) of the claimed
    result are verified.
    """
    if start.digest != cert.start_digest:
        raise ReplayFailure(0, "starting complex digest mismatch")
    step = _Masks.flip if cert.kind == "bistellar" else _Masks.attach
    current = _replay(_Masks(start), step, cert.moves)
    if cert.result_digest is not None and current.digest != cert.result_digest:
        raise ReplayFailure(len(cert.moves), "result digest mismatch")
    return current, len(cert.moves)


def ball_from_stellated_certificate(cert: MoveCertificate, start_sphere: Complex) -> Complex:
    """Grow the shelled ball bounded by a stellated sphere.

    Each bistellar move of index <= k-1 building the sphere lifts to a
    shelling move with the same (alpha, beta) on the ball, starting from
    the full simplex on the standard sphere's vertex set.  The lift is
    valid whenever the sphere dimension is at least 2k-1.
    """
    if cert.kind != "bistellar":
        raise ValueError("expected a bistellar certificate")
    if start_sphere.digest != cert.start_digest:
        raise ReplayFailure(0, "starting sphere digest mismatch")
    return _replay(_Masks(Complex([start_sphere.vertices])), _Masks.attach, cert.moves)
