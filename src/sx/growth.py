"""Seeded random growers used by the property suites and the CLI.

Balls grow from the standard ball by uniformly chosen shelling moves of
bounded index; spheres grow from the standard sphere by bistellar moves.
Every grower returns the complex together with the certificate that
built it, so structural cross-checks can transport certificates
instead of searching.

A grower carries facet masks with their stars and move lists from move
to move (`moves._Masks`) and builds one `Complex` at the end; each step
draws from the list `shelling_options` or `bistellar_options` would give.
"""

from __future__ import annotations

import random

from .complexes import Complex
from .errors import BadDimension
from .moves import (
    BistellarMove,
    MoveCertificate,
    ShellingMove,
    _Masks,
    standard_ball,
    standard_sphere,
)

__all__ = [
    "grow_shelled_ball",
    "grow_stellated_sphere",
    "grow_stacked_sphere",
]


def _grow(seed: Complex, kind: str, options, steps: int, rng: random.Random):
    """``steps`` moves drawn uniformly from ``options(masks)``, each checked
    as it is applied; stops early when there is none."""
    m = _Masks(seed)
    cls, apply = (BistellarMove, m.flip) if kind == "bistellar" else (ShellingMove, m.attach)
    moves = []
    for _ in range(steps):
        opts = options(m)
        if not opts:
            break
        a, b = opts[rng.randrange(len(opts))]
        mv = cls(alpha=m.face(a), beta=m.face(b))
        apply(a, b, mv)
        moves.append(mv)
    grown = m.complex()
    cert = MoveCertificate(
        kind=kind, start_digest=seed.digest, moves=tuple(moves), result_digest=grown.digest
    )
    return grown, cert


def grow_shelled_ball(
    dim: int, k: int, steps: int, rng: random.Random
) -> tuple[Complex, MoveCertificate]:
    """A random ball built by ``steps`` shelling moves of index < k.

    The dimension is at least 1: the point's one rim ridge is ∅, and
    attaching a point along it gives the 0-sphere, not a ball.
    """
    if dim < 1:
        raise BadDimension("a shelled ball needs dimension >= 1")
    return _grow(standard_ball(dim), "shelling", lambda m: m.shelling(k - 1), steps, rng)


def grow_stellated_sphere(
    dim: int, k: int, steps: int, rng: random.Random
) -> tuple[Complex, MoveCertificate]:
    """A random sphere built by ``steps`` bistellar moves of index < k."""
    return _grow(standard_sphere(dim), "bistellar", lambda m: m.bistellar(0, k - 1), steps, rng)


def grow_stacked_sphere(dim: int, steps: int, rng: random.Random) -> Complex:
    """A random stacked sphere: the boundary of an index-0-shelled ball."""
    ball, _ = grow_shelled_ball(dim + 1, 1, steps, rng)
    return ball.boundary()
