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
as `_Masks.flip_reason` and `_Masks.attach_reason`.  The order is one
invariant: by index, then alpha, then beta, as lists of positions in the
vertex order of the live complex (numeric when every live label is an
integer), a new label last.
"""

from __future__ import annotations

import functools
import itertools
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
    m = _Masks(x.vertices, x._facet_masks)
    m.flip(*m.pair(move), move)
    return m.complex()


def bistellar_options(
    x: Complex, lo: int, hi: int, fresh: Label | None = None
) -> list[BistellarMove]:
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
    m = _Masks(x.vertices, x._facet_masks)
    return [BistellarMove(alpha=m.face(a), beta=m.face(b)) for a, b in m.bistellar(lo, hi, fresh)]


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
    m = _Masks(y.vertices, y._facet_masks)
    m.attach(*m.pair(move), move)
    return m.complex()


def _reason(x: Complex, move, rule) -> str | None:
    """What rule, `_Masks.flip_reason` or `_Masks.attach_reason`, says of
    move on x."""
    m = _Masks(x.vertices, x._facet_masks)
    try:
        a, b = m.pair(move)
    except InvalidMove as exc:
        return exc.reason
    return rule(m, a, b)


def shelling_options(y: Complex, max_index: int, fresh: Label | None = None) -> list[ShellingMove]:
    """All shelling moves of index <= max_index applicable to y.

    Every rim ridge (a ridge in exactly one facet) is coned to one explicit
    fresh vertex (index 0).  A move of index >= 1 attaches a facet
    ``sigma = ridge ∪ {v}`` with v a vertex of y.  All proper faces of the
    rim ridge are faces of y, and so is {v}, so beta contains v and some
    other b, and ``sigma \\ {b}`` must be a rim ridge too.  That ridge
    meets the first one in a (d-2)-face, so every valid sigma is the union
    of two rim ridges that differ in one vertex, and only those unions are
    tried, each split as `_Masks.restriction` says.
    """
    m = _Masks(y.vertices, y._facet_masks)
    return [ShellingMove(alpha=m.face(a), beta=m.face(b)) for a, b in m.shelling(max_index, fresh)]


def shelling_moves_from_facet_order(facet_order: Sequence[Iterable[Label]]) -> list[ShellingMove]:
    """Derive the (alpha, beta) moves realizing a facet-by-facet shelling.

    The first facet is the seed; each later facet must attach by a valid
    shelling move, whose split is unique when it exists.  alpha and beta
    list their vertices in the vertex order of the complex of all facets.
    """
    facets = [frozenset(f) for f in facet_order]
    m = _Masks(Complex(facets).vertices)
    masks = [sum(m.bit[v] for v in f) for f in facets]
    m.load(masks[:1])
    moves = []
    for step, sigma in enumerate(masks[1:], start=1):
        beta = m.restriction(sigma)
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


def _list_key(mask: int) -> str:
    """A key for the ascending list of mask's bits: one character per bit up
    to its highest, '1' for a set bit and '2' for a clear one, so that
    string order is list order, a prefix first."""
    return bin(mask)[:1:-1].replace("0", "2") if mask else ""


def _flip_masks(facets: tuple, a: int, b: int) -> tuple:
    """The sorted tuple of facet masks after a move (a, b) already checked
    to apply: the facets ``a ∪ (b \\ {v})`` give way to the ``(a \\ {u}) ∪ b``."""
    removed = {a | b ^ v for v in _low_bits(b)}
    return tuple(sorted([f for f in facets if f not in removed] + [a ^ u | b for u in _low_bits(a)]))


class _Masks:
    """A complex's facets as vertex bitmasks, bit i for ``labels[i]``, with
    its ridge table and vertex stars, changed in place by each move; the
    map only grows, by new labels.  Moves are (alpha, beta) mask pairs,
    listed in the canonical order, which is recomputed only when the live
    vertex set changes, and checked by the one rule of each kind,
    `flip_reason` and `attach_reason`."""

    def __init__(self, labels, masks=()):
        self.labels = list(labels)
        self.bit = {v: 1 << i for i, v in enumerate(self.labels)}
        self.facets: set[int] = set()
        self.ridges: dict[int, list[int]] = {}  # ridge -> facets through it
        self.star: dict[int, list[int]] = {}  # vertex bit -> facets through it
        self.union = 0
        self._ordered = None
        self.load(masks)

    def load(self, masks) -> None:
        """Make masks the facets, changing the tables where they differ."""
        new = set(masks)
        for f in self.facets - new:
            self._remove(f)
        for f in new - self.facets:
            self._add(f)
        self.top = max(map(int.bit_count, self.facets), default=0)  # d + 1

    def _add(self, f: int) -> None:
        self.facets.add(f)
        self.union |= f
        for v in _low_bits(f):
            self.ridges.setdefault(f ^ v, []).append(f)
            self.star.setdefault(v, []).append(f)

    def _remove(self, f: int) -> None:
        self.facets.remove(f)
        for v in _low_bits(f):
            holders, through = self.ridges[f ^ v], self.star[v]
            holders.remove(f)
            through.remove(f)
            if not holders:
                del self.ridges[f ^ v]
            if not through:
                del self.star[v]
                self.union ^= v

    def has_face(self, face: int) -> bool:
        if not face:
            return True
        for g in self.star.get(face & -face, ()):
            if g & face == face:
                return True
        return False

    def restriction(self, sigma: int) -> int:
        """The v in sigma for which ``sigma \\ {v}`` is a rim ridge: the only
        beta that can attach sigma, as each other ``sigma \\ {v}`` contains
        it; it does iff it is not a face (so not empty)."""
        return sum(v for v in _low_bits(sigma) if len(self.ridges.get(sigma ^ v, ())) == 1)

    # -- order ------------------------------------------------------------

    def _order(self) -> None:
        """For the live vertex set: the default fresh label, and `rank`,
        each live vertex bit mapped to the bit of its position in the live
        vertex order, or None when the bits rise along that order."""
        if self._ordered == self.union:
            return
        bits = list(_low_bits(self.union))
        live = [self.labels[v.bit_length() - 1] for v in bits]
        numeric = all(isinstance(v, int) for v in live)
        order = sorted(bits, key=lambda v: _label_order_key(self.labels[v.bit_length() - 1], numeric))
        self.rank = None if order == bits else {v: 1 << p for p, v in enumerate(order)}
        self.fresh = _unused_label(set(live), numeric)
        self._ordered = self.union

    def _rank(self, v: int) -> int:
        return v if self.rank is None else self.rank.get(v, 1 << len(self.rank))

    def _sorted(self, moves: list) -> list:
        """Sort moves canonically by `_list_key` of the masks moved to their
        positions.  A new label is the only vertex of each index-0 beta."""
        self._order()
        if self.rank is None:
            key = _list_key
        else:
            key = lambda mask: _list_key(sum(map(self._rank, _low_bits(mask))))  # noqa: E731
        moves.sort(key=lambda m: (m[1].bit_count(), key(m[0]), key(m[1])))
        return moves

    def face(self, mask: int) -> tuple:
        """The labels of mask in the live vertex order, a new label last."""
        self._order()
        return tuple(self.labels[v.bit_length() - 1] for v in sorted(_low_bits(mask), key=self._rank))

    def ascending(self, mask: int) -> tuple:
        """The labels of mask in the order of their bits."""
        return tuple(self.labels[v.bit_length() - 1] for v in _low_bits(mask))

    def _bit(self, label: Label) -> int:
        if label not in self.bit:
            self.bit[label] = 1 << len(self.labels)
            self.labels.append(label)
        return self.bit[label]

    def _fresh_bit(self, fresh: Label | None) -> int:
        self._order()
        return self._bit(self.fresh if fresh is None else fresh)

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

    def bistellar(self, lo: int, hi: int, fresh: Label | None = None) -> list[tuple[int, int]]:
        """The moves of `bistellar_options`, as mask pairs."""
        d = self.top - 1
        lo, hi = max(lo, 0), min(hi, d)
        moves = []
        if lo == 0 and hi >= 0:
            new = self._fresh_bit(fresh)
            moves = [(f, new) for f in self.facets if f.bit_count() == d + 1]
        if hi >= max(lo, 1):
            seen = set()
            for r, fs in self.ridges.items():
                for f, g in itertools.combinations(fs, 2) if r.bit_count() == d else ():
                    sigma = f | g
                    if sigma in seen:
                        continue
                    seen.add(sigma)
                    # f and g give the two vertices outside r
                    beta = sigma ^ r
                    for v in _low_bits(r):
                        if sigma ^ v in self.facets:
                            beta |= v
                    if lo <= beta.bit_count() - 1 <= hi and not self.has_face(beta):
                        moves.append((sigma ^ beta, beta))
        return self._sorted(moves)

    def shelling(self, max_index: int, fresh: Label | None = None) -> list[tuple[int, int]]:
        """The moves of `shelling_options`, as mask pairs."""
        rim = [r for r, fs in self.ridges.items() if len(fs) == 1]
        moves = []
        if max_index >= 0:
            new = self._fresh_bit(fresh)
            moves = [(r, new) for r in rim]
        if max_index >= 1:
            by_sub: dict[int, list[int]] = {}
            for r in rim:
                for u in _low_bits(r):
                    by_sub.setdefault(r ^ u, []).append(r)
            for sigma in {f | g for group in by_sub.values() for f, g in itertools.combinations(group, 2)}:
                if sigma in self.facets:
                    continue
                beta = self.restriction(sigma)
                if beta.bit_count() - 1 <= max_index and not self.has_face(beta):
                    moves.append((sigma ^ beta, beta))
        return self._sorted(moves)

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
        holders = [len(self.ridges.get(sigma ^ v, ())) for v in _low_bits(b)]
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
    start_name: str | None = None
    result_digest: str | None = None

    def __post_init__(self):
        if self.kind not in ("bistellar", "shelling"):
            raise ValueError(f"unknown certificate kind: {self.kind}")

    @property
    def length(self) -> int:
        return len(self.moves)

    def max_index(self) -> int:
        return max((m.index for m in self.moves), default=-1)

    def to_json(self) -> str:
        payload: dict = {
            "kind": self.kind,
            "start": {"digest": self.start_digest},
            "moves": [m.as_dict() for m in self.moves],
        }
        if self.start_name:
            payload["start"]["name"] = self.start_name
        if self.result_digest:
            payload["result_digest"] = self.result_digest
        return json.dumps(payload, separators=(",", ":"))

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
            start_name=data["start"].get("name"),
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


def replay(cert: MoveCertificate, start: Complex | None = None) -> tuple[Complex, int]:
    """Replay a certificate; returns the final complex and the move count.

    The starting complex is resolved from the corpus when only a fixture
    name is given; its digest and (when present) the claimed result digest
    are verified.
    """
    if start is None:
        if cert.start_name is None:
            raise ReplayFailure(0, "no starting complex given and no fixture name in certificate")
        from .corpus import fixture

        start = fixture(cert.start_name).complex
    if start.digest != cert.start_digest:
        raise ReplayFailure(0, "starting complex digest mismatch")
    step = _Masks.flip if cert.kind == "bistellar" else _Masks.attach
    current = _replay(_Masks(start.vertices, start._facet_masks), step, cert.moves)
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
    ball = _Masks(start_sphere.vertices, [(1 << len(start_sphere.vertices)) - 1])
    return _replay(ball, _Masks.attach, cert.moves)
