"""Bistellar and shelling moves, their certificates, and replay.

A bistellar move ``alpha -> beta`` on a pure d-complex X requires the
induced subcomplex of X on ``alpha ∪ beta`` to be the join of the full
simplex on alpha with the boundary of beta; applying it swaps that region
for the complementary join.  A shelling move ``alpha ~> beta`` attaches the
single new facet ``alpha ∪ beta`` to a pure complex along exactly that
join.  Both validity checks reduce to small face-membership conditions
derived below; the reasons they report are machine-readable so searches
can prune on them.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .complexes import Complex, Label, fresh_label
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

    @property
    def facet(self) -> frozenset:
        return frozenset(self.alpha) | frozenset(self.beta)

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
    a facet.
    """
    a, b = frozenset(move.alpha), frozenset(move.beta)
    d = x.dimension
    if not b:
        return "empty-beta"
    if a & b:
        return "overlap"
    if len(a) + len(b) != d + 2:
        return "wrong-dimensions"
    if move.index == 0:
        if next(iter(b)) in x.vertex_set:
            return "beta-not-fresh"
        if a not in x.facet_sets:
            return "alpha-not-a-facet"
        return None
    if not b <= x.vertex_set:
        return "beta-vertex-unknown"
    if x.has_face(b):
        return "beta-already-a-face"
    for v in b:
        if not x.has_face(a | (b - {v})):
            return "attachment-not-induced"
    return None


def flip_facets(facets: frozenset, move: BistellarMove) -> frozenset:
    """The facet set after a move already checked to apply: the facets
    ``alpha ∪ (beta \\ {v})`` give way to the ``(alpha \\ {u}) ∪ beta``."""
    a, b = frozenset(move.alpha), frozenset(move.beta)
    removed = {a | (b - {v}) for v in b}
    added = {(a - {u}) | b for u in a}
    return (facets - removed) | added


def apply_bistellar(x: Complex, move: BistellarMove) -> Complex:
    reason = bistellar_valid(x, move)
    if reason is not None:
        raise InvalidMove(reason, move)
    return Complex(flip_facets(x.facet_sets, move))


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
    d = x.dimension
    opts: list[BistellarMove] = []
    lo = max(lo, 0)
    hi = min(hi, d)
    if lo == 0 and hi >= 0:
        new = fresh if fresh is not None else fresh_label(x)
        opts = [BistellarMove(alpha=f, beta=(new,)) for f in x.facets if len(f) == d + 1]
    if hi >= max(lo, 1):
        ridges = (fs for r, fs in x._ridge_incidence.items() if len(r) == d)
        for sigma in {f | g for fs in ridges for f, g in itertools.combinations(fs, 2)}:
            beta = frozenset(v for v in sigma if sigma - {v} in x.facet_sets)
            if lo <= len(beta) - 1 <= hi and not x.has_face(beta):
                opts.append(BistellarMove(alpha=x.face_tuple(sigma - beta), beta=x.face_tuple(beta)))
    _sort_moves(x, opts)
    return opts


def _sort_moves(x: Complex, opts: list) -> None:
    """Order moves by index, then alpha and beta in x's vertex order; a label
    new to x sorts last."""
    pos = x._vertex_pos
    n = len(pos)
    opts.sort(
        key=lambda m: (
            m.index,
            [pos.get(v, n) for v in m.alpha],
            [pos.get(v, n) for v in m.beta],
        )
    )


# -- shelling moves ----------------------------------------------------------


def shelling_valid(y: Complex, move: ShellingMove) -> str | None:
    """None if attaching ``alpha ∪ beta`` to y is a valid shelling move.

    Unified check: the new facet sigma must not be a facet of y, every
    ``sigma \\ {b}`` for b in beta must be a boundary ridge of y (a face
    of exactly one facet, so weak pseudomanifolds stay weak
    pseudomanifolds), and beta must not be a face of y.  (For an index-0
    move this forces the beta vertex to be fresh, because single labels
    of y are faces.)
    """
    a, b = frozenset(move.alpha), frozenset(move.beta)
    if not b:
        return "empty-beta"
    if a & b:
        return "overlap"
    sigma = a | b
    d = y.dimension
    if len(sigma) != d + 1:
        return "wrong-dimensions"
    if sigma in y.facet_sets:
        return "facet-already-present"
    if b <= y.vertex_set and y.has_face(b):
        return "beta-already-a-face"
    for v in b:
        ridge = sigma - {v}
        if not ridge <= y.vertex_set:
            return "attachment-not-induced"
        holders = y._ridge_incidence.get(ridge)
        if holders is None:
            return "attachment-not-induced"
        if len(holders) != 1:
            return "attachment-ridge-interior"
    return None


def apply_shelling(y: Complex, move: ShellingMove) -> Complex:
    reason = shelling_valid(y, move)
    if reason is not None:
        raise InvalidMove(reason, move)
    return Complex(set(y.facet_sets) | {move.facet})


def _attachment_split(y: Complex, sigma: frozenset) -> tuple | None:
    """The unique (alpha, beta) split attaching facet sigma to y, if any.

    beta is the restriction face: the v in sigma for which ``sigma \\ {v}``
    is a rim ridge of y.  It must not be a face of y (so it is not empty).
    No other beta can be valid, because for v outside beta the set
    ``sigma \\ {v}`` contains beta, which is not a face of y.
    """
    beta = frozenset(v for v in sigma if len(y._ridge_incidence.get(sigma - {v}, ())) == 1)
    if y.has_face(beta):
        return None
    return (sigma - beta, beta)


def shelling_options(y: Complex, max_index: int, fresh: Label | None = None) -> list[ShellingMove]:
    """All shelling moves of index <= max_index applicable to y.

    Every rim ridge (a ridge in exactly one facet) is coned to one explicit
    fresh vertex (index 0).  A move of index >= 1 attaches a facet
    ``sigma = ridge ∪ {v}`` with v a vertex of y.  All proper faces of the
    rim ridge are faces of y, and so is {v}, so beta contains v and some
    other b, and ``sigma \\ {b}`` must be a rim ridge too.  That ridge
    meets the first one in a (d-2)-face, so every valid sigma is the union
    of two rim ridges that differ in one vertex, and only those unions are
    tried.
    """
    rim = [r for r, fs in y._ridge_incidence.items() if len(fs) == 1]
    opts: list[ShellingMove] = []
    if max_index >= 0:
        new = fresh if fresh is not None else fresh_label(y)
        opts = [ShellingMove(alpha=y.face_tuple(r), beta=(new,)) for r in rim]
    if max_index >= 1:
        by_sub: dict[frozenset, list[frozenset]] = {}
        for r in rim:
            for u in r:
                by_sub.setdefault(r - {u}, []).append(r)
        for sigma in {f | g for group in by_sub.values() for f, g in itertools.combinations(group, 2)}:
            if sigma in y.facet_sets:
                continue
            split = _attachment_split(y, sigma)
            if split is None:
                continue
            alpha, beta = split
            if len(beta) - 1 <= max_index:
                opts.append(
                    ShellingMove(alpha=y.face_tuple(alpha), beta=y.face_tuple(beta))
                )
    _sort_moves(y, opts)
    return opts


def shelling_moves_from_facet_order(facet_order: Sequence[Iterable[Label]]) -> list[ShellingMove]:
    """Derive the (alpha, beta) moves realizing a facet-by-facet shelling.

    The first facet is the seed; each later facet must attach by a valid
    shelling move, whose split is unique when it exists.
    """
    facets = [frozenset(f) for f in facet_order]
    y = Complex([facets[0]])
    moves = []
    for step, sigma in enumerate(facets[1:], start=1):
        split = _attachment_split(y, sigma)
        if split is None:
            raise ReplayFailure(step, f"facet {sorted(map(str, sigma))} does not attach by a shelling move")
        alpha, beta = split
        move = ShellingMove(alpha=tuple(sorted(alpha, key=str)), beta=tuple(sorted(beta, key=str)))
        y = apply_shelling(y, move)
        moves.append(move)
    return moves


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
    current = start
    apply = apply_bistellar if cert.kind == "bistellar" else apply_shelling
    for i, move in enumerate(cert.moves, start=1):
        try:
            current = apply(current, move)
        except InvalidMove as exc:
            raise ReplayFailure(i, exc.reason) from exc
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
    ball = Complex([frozenset(start_sphere.vertex_set)])
    for i, move in enumerate(cert.moves, start=1):
        try:
            ball = apply_shelling(ball, ShellingMove(alpha=move.alpha, beta=move.beta))
        except InvalidMove as exc:
            raise ReplayFailure(i, exc.reason) from exc
    return ball
