"""Bistellar and shelling moves against definition-level oracles."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sx import (
    BistellarMove,
    Complex,
    MoveCertificate,
    ShellingMove,
    apply_bistellar,
    apply_shelling,
    bistellar_options,
    from_facets,
    replay,
    standard_ball,
    standard_sphere,
)
from sx.constructions import klee_novik
from sx.corpus import fixture, fixture_names
from sx.errors import BadDimension, InvalidMove, ReplayFailure
from sx.growth import grow_shelled_ball, grow_stellated_sphere
from sx.moves import (
    _low_bits,
    _Masks,
    ball_from_stellated_certificate,
    bistellar_valid,
    reverse_move,
    shelling_moves_from_facet_order,
    shelling_options,
    shelling_valid,
)

from test_complexes import oracle_all_faces, oracle_ridge_incidence


def boundary_certificate(cert: MoveCertificate, seed: Complex) -> MoveCertificate:
    """Oracle: transport a shelling certificate of a ball to a bistellar
    certificate of its boundary sphere: each shelling move of index i on the
    ball moves the boundary by the bistellar move with the same (alpha, beta).
    """
    if cert.kind != "shelling":
        raise ValueError("expected a shelling certificate")
    if seed.digest != cert.start_digest:
        raise ReplayFailure(0, "seed digest mismatch")
    start_sphere = seed.boundary()
    moves = tuple(BistellarMove(alpha=m.alpha, beta=m.beta) for m in cert.moves)
    result, _ = replay(cert, seed)
    return MoveCertificate(
        kind="bistellar",
        start_digest=start_sphere.digest,
        moves=moves,
        result_digest=result.boundary().digest,
    )


def oracle_bistellar_moves(x, lo, hi):
    """Oracle: scan every disjoint (alpha, beta) pair and test the induced
    condition straight from the definition."""
    d = x.dimension
    verts = list(x.vertices)
    found = []
    for i in range(max(lo, 1), hi + 1):
        for alpha in map(frozenset, itertools.combinations(verts, d + 1 - i)):
            if not x.has_face(alpha):
                continue
            for beta in map(frozenset, itertools.combinations(verts, i + 1)):
                if alpha & beta or x.has_face(beta):
                    continue
                support = alpha | beta
                induced = {f for f in oracle_all_faces(x) if f <= support}
                expected = set()
                for gb in range(len(beta)):
                    for part_b in itertools.combinations(sorted(beta, key=str), gb):
                        if frozenset(part_b) == beta:
                            continue
                        for ga in range(len(alpha) + 1):
                            for part_a in itertools.combinations(sorted(alpha, key=str), ga):
                                cand = frozenset(part_a) | frozenset(part_b)
                                if cand:
                                    expected.add(cand)
                if induced == expected:
                    found.append((alpha, beta))
    return found


def oracle_shelling_moves(y, max_index):
    """Oracle: try every (d+1)-set over the vertices and one fresh label,
    and every split of it, straight through ``shelling_valid``; the split
    ``complex_attachment_split`` finds must be the only valid one."""
    new = fresh_label(y)
    found = set()
    for sigma in map(frozenset, itertools.combinations(list(y.vertices) + [new], y.dimension + 1)):
        valid = [
            (sigma - beta, beta)
            for r in range(1, len(sigma) + 1)
            for beta in map(frozenset, itertools.combinations(sorted(sigma, key=str), r))
            if shelling_valid(y, ShellingMove(alpha=tuple(sigma - beta), beta=tuple(beta))) is None
        ]
        assert len(valid) <= 1
        assert complex_attachment_split(y, sigma) == (valid[0] if valid else None)
        found.update(m for m in valid if len(m[1]) - 1 <= max_index)
    return found


# -- facet-scan enumerators, kept as reference oracles -------------------------
#
# The simple enumerators the indexed ones replace, verbatim except that face
# membership goes through the facet scan ``scan_has_face`` and links through
# ``scan_link``, so that no part of the reference rests on the index it checks.
# The shelling rim here, in ``complex_shelling_options`` and in
# ``ScratchMasks.shelling`` takes only the ridges of top-dimensional facets:
# taken from every facet, on a non-pure complex it listed moves that
# ``shelling_valid`` rejects (``wrong-dimensions``), and so did the code under
# test.


def scan_has_face(x, face):
    f = frozenset(face)
    if len(f) - 1 > x.dimension:
        return False
    return any(f <= g for g in x.facet_sets)


def scan_link(x, face):
    f = frozenset(face)
    return Complex(g - f for g in x.facet_sets if f <= g)


def _combinations(s, r):
    return itertools.combinations(sorted(s, key=lambda v: (str(v), isinstance(v, str))), r)


def scan_attachment_split(y, sigma):
    fresh = sigma - y.vertex_set
    if len(fresh) > 1:
        return None
    if len(fresh) == 1:
        alpha = sigma - fresh
        if len(oracle_ridge_incidence(y).get(alpha, ())) == 1:
            return (alpha, fresh)
        return None
    # all vertices known: beta = unique minimal non-face of y inside sigma
    non_faces = [
        s
        for r in range(1, len(sigma) + 1)
        for s in map(frozenset, _combinations(sigma, r))
        if not scan_has_face(y, s)
    ]
    if not non_faces:
        return None  # sigma itself is a face already
    minimal = [s for s in non_faces if not any(t < s for t in non_faces)]
    if len(minimal) != 1:
        return None
    beta = minimal[0]
    for v in beta:
        if len(oracle_ridge_incidence(y).get(sigma - {v}, ())) != 1:
            return None
    return (sigma - beta, beta)


def scan_shelling_options(y, max_index, fresh=None):
    d = y.dimension
    rim = [r for r, fs in oracle_ridge_incidence(y).items() if len(fs) == 1 and len(r) == d]
    opts = []
    seen = set()
    new = fresh if fresh is not None else fresh_label(y)
    for ridge in rim:
        if max_index >= 0:
            opts.append(
                ShellingMove(alpha=y.face_tuple(ridge), beta=(new,))
            )
        for v in y.vertices:
            if v in ridge:
                continue
            sigma = ridge | {v}
            if sigma in seen or sigma in y.facet_sets:
                continue
            seen.add(sigma)
            split = scan_attachment_split(y, sigma)
            if split is None:
                continue
            alpha, beta = split
            if len(beta) - 1 <= max_index:
                opts.append(
                    ShellingMove(alpha=y.face_tuple(alpha), beta=y.face_tuple(beta))
                )
    pos = {v: i for i, v in enumerate(y.vertices)}

    def key(m):
        return (
            m.index,
            [pos.get(v, len(pos)) for v in m.alpha],
            [pos.get(v, len(pos)) for v in m.beta],
        )

    opts.sort(key=key)
    return opts


def scan_bistellar_options(x, lo, hi, fresh=None):
    d = x.dimension
    opts = []
    lo = max(lo, 0)
    hi = min(hi, d)
    for i in range(lo, hi + 1):
        if i == 0:
            # an index-0 move cones a d-face, which is a facet, to a fresh vertex
            new = fresh if fresh is not None else fresh_label(x)
            for facet in x.faces(d):
                opts.append(BistellarMove(alpha=x.face_tuple(facet), beta=(new,)))
            continue
        for a in x.faces(d - i):
            lk = scan_link(x, a)
            for cand in lk.missing_faces(i):
                if len(cand) != i + 1:
                    continue
                if scan_has_face(x, cand):
                    continue
                opts.append(
                    BistellarMove(alpha=x.face_tuple(a), beta=x.face_tuple(cand))
                )
    pos = {v: i for i, v in enumerate(x.vertices)}

    def key(m):
        return (
            m.index,
            [pos.get(v, len(pos)) for v in m.alpha],
            [pos.get(v, len(pos)) for v in m.beta],
        )

    opts.sort(key=key)
    return opts


# -- the Complex-based enumerators and growers, kept as reference oracles ------
#
# The enumerators and growers as they were before they ran on the facet masks
# of ``sx.moves._Masks``, verbatim apart from their names: each enumerator
# reads a ``Complex``, and each grower builds a ``Complex`` per step and
# validates each move through ``apply_*``.  ``fresh_label`` is the fresh
# label they took, as it was in ``sx.complexes``.


def fresh_label(x: Complex, reserved=()):
    """A deterministic vertex label not used by ``x`` (nor in ``reserved``)."""
    used = set(x.vertex_set) | set(reserved)
    if x._numeric:
        top = max((v for v in used if isinstance(v, int)), default=-1)
        return top + 1
    i = 1
    while f"w{i}" in used:
        i += 1
    return f"w{i}"


def complex_bistellar_options(
    x: Complex, lo: int, hi: int, fresh=None
) -> list[BistellarMove]:
    d = x.dimension
    opts: list[BistellarMove] = []
    lo = max(lo, 0)
    hi = min(hi, d)
    if lo == 0 and hi >= 0:
        new = fresh if fresh is not None else fresh_label(x)
        opts = [BistellarMove(alpha=f, beta=(new,)) for f in x.facets if len(f) == d + 1]
    if hi >= max(lo, 1):
        ridges = (fs for r, fs in oracle_ridge_incidence(x).items() if len(r) == d)
        for sigma in {f | g for fs in ridges for f, g in itertools.combinations(fs, 2)}:
            beta = frozenset(v for v in sigma if sigma - {v} in x.facet_sets)
            if lo <= len(beta) - 1 <= hi and not x.has_face(beta):
                opts.append(BistellarMove(alpha=x.face_tuple(sigma - beta), beta=x.face_tuple(beta)))
    complex_sort_moves(x, opts)
    return opts


def complex_sort_moves(x: Complex, opts: list) -> None:
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


def complex_attachment_split(y: Complex, sigma: frozenset) -> tuple | None:
    """The unique (alpha, beta) split attaching facet sigma to y, if any."""
    beta = frozenset(v for v in sigma if len(oracle_ridge_incidence(y).get(sigma - {v}, ())) == 1)
    if y.has_face(beta):
        return None
    return (sigma - beta, beta)


def complex_shelling_options(y: Complex, max_index: int, fresh=None) -> list[ShellingMove]:
    rim = [r for r, fs in oracle_ridge_incidence(y).items() if len(fs) == 1 and len(r) == y.dimension]
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
            split = complex_attachment_split(y, sigma)
            if split is None:
                continue
            alpha, beta = split
            if len(beta) - 1 <= max_index:
                opts.append(
                    ShellingMove(alpha=y.face_tuple(alpha), beta=y.face_tuple(beta))
                )
    complex_sort_moves(y, opts)
    return opts


def complex_shelling_moves_from_facet_order(facet_order) -> list[ShellingMove]:
    facets = [frozenset(f) for f in facet_order]
    order = Complex(facets)
    y = Complex([facets[0]])
    moves = []
    for step, sigma in enumerate(facets[1:], start=1):
        split = complex_attachment_split(y, sigma)
        if split is None:
            raise ReplayFailure(step, f"facet {sorted(map(str, sigma))} does not attach by a shelling move")
        alpha, beta = split
        move = ShellingMove(alpha=order.face_tuple(alpha), beta=order.face_tuple(beta))
        y = apply_shelling(y, move)
        moves.append(move)
    return moves


def oracle_grow_shelled_ball(dim, k, steps, rng):
    ball = standard_ball(dim)
    seed = ball
    moves = []
    for _ in range(steps):
        opts = complex_shelling_options(ball, max_index=k - 1)
        if not opts:
            break
        mv = opts[rng.randrange(len(opts))]
        ball = apply_shelling(ball, mv)
        moves.append(mv)
    cert = MoveCertificate(
        kind="shelling",
        start_digest=seed.digest,
        moves=tuple(moves),
        result_digest=ball.digest,
    )
    return ball, cert


def oracle_grow_stellated_sphere(dim, k, steps, rng):
    sphere = standard_sphere(dim)
    seed = sphere
    moves = []
    for _ in range(steps):
        opts = complex_bistellar_options(sphere, 0, k - 1)
        if not opts:
            break
        mv = opts[rng.randrange(len(opts))]
        sphere = apply_bistellar(sphere, mv)
        moves.append(mv)
    cert = MoveCertificate(
        kind="bistellar",
        start_digest=seed.digest,
        moves=tuple(moves),
        result_digest=sphere.digest,
    )
    return sphere, cert


# -- the frozenset move checks and replay, kept as reference oracles -----------
#
# The checks, ``apply_*``, ``replay`` and the ball lift as they were before
# they ran on ``sx.moves._Masks``, verbatim apart from their names and
# ``move.facet`` spelled out: each check reads a ``Complex``, and each apply
# builds a ``Complex`` from frozensets.


def complex_bistellar_valid(x: Complex, move: BistellarMove) -> str | None:
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


def complex_apply_bistellar(x: Complex, move: BistellarMove) -> Complex:
    reason = complex_bistellar_valid(x, move)
    if reason is not None:
        raise InvalidMove(reason, move)
    return Complex(flip_facets(x.facet_sets, move))


def complex_shelling_valid(y: Complex, move: ShellingMove) -> str | None:
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
        holders = oracle_ridge_incidence(y).get(ridge)
        if holders is None:
            return "attachment-not-induced"
        if len(holders) != 1:
            return "attachment-ridge-interior"
    return None


def complex_apply_shelling(y: Complex, move: ShellingMove) -> Complex:
    reason = complex_shelling_valid(y, move)
    if reason is not None:
        raise InvalidMove(reason, move)
    return Complex(set(y.facet_sets) | {frozenset(move.alpha) | frozenset(move.beta)})


def complex_replay(cert: MoveCertificate, start: Complex) -> tuple[Complex, int]:
    if start.digest != cert.start_digest:
        raise ReplayFailure(0, "starting complex digest mismatch")
    current = start
    apply = complex_apply_bistellar if cert.kind == "bistellar" else complex_apply_shelling
    for i, move in enumerate(cert.moves, start=1):
        try:
            current = apply(current, move)
        except InvalidMove as exc:
            raise ReplayFailure(i, exc.reason) from exc
    if cert.result_digest is not None and current.digest != cert.result_digest:
        raise ReplayFailure(len(cert.moves), "result digest mismatch")
    return current, len(cert.moves)


def complex_ball_from_stellated_certificate(cert: MoveCertificate, start_sphere: Complex) -> Complex:
    if cert.kind != "bistellar":
        raise ValueError("expected a bistellar certificate")
    if start_sphere.digest != cert.start_digest:
        raise ReplayFailure(0, "starting sphere digest mismatch")
    ball = Complex([frozenset(start_sphere.vertex_set)])
    for i, move in enumerate(cert.moves, start=1):
        try:
            ball = complex_apply_shelling(ball, ShellingMove(alpha=move.alpha, beta=move.beta))
        except InvalidMove as exc:
            raise ReplayFailure(i, exc.reason) from exc
    return ball


# -- the from-scratch move listing, kept as a reference oracle -----------------
#
# ``_Masks.bistellar`` and ``_Masks.shelling`` as they were before the move
# lists were kept in step with the facets, with the ridge-table
# ``restriction`` they read, verbatim apart from their names: each call
# relists every ridge of the state and sorts every move.  ``ScratchMasks``
# gives them what they read of a live ``_Masks``: its facets, a ridge table
# built from them and its fresh label, and sorts by the definition of the
# move order: positions in the vertex order of the live complex, a new
# label last.


class ScratchMasks:
    def __init__(self, m):
        self.m = m
        self.ridges: dict[int, list[int]] = {}
        for f in m.facets:
            for v in _low_bits(f):
                self.ridges.setdefault(f ^ v, []).append(f)

    def __getattr__(self, name):
        return getattr(self.m, name)

    def restriction(self, sigma: int) -> int:
        """The v in sigma for which ``sigma \\ {v}`` is a rim ridge: the only
        beta that can attach sigma, as each other ``sigma \\ {v}`` contains
        it; it does iff it is not a face (so not empty)."""
        return sum(v for v in _low_bits(sigma) if len(self.ridges.get(sigma ^ v, ())) == 1)

    def _sorted(self, moves: list) -> list:
        """Sort moves by index, then alpha, then beta, each as the list of
        its vertices' positions in ``m.complex().vertices``, a new label
        last."""
        pos = {self.bit[v]: i for i, v in enumerate(self.complex().vertices)}

        def key(mask):
            return sorted(pos.get(v, len(pos)) for v in _low_bits(mask))

        moves.sort(key=lambda m: (m[1].bit_count(), key(m[0]), key(m[1])))
        return moves

    def bistellar(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """The moves of `bistellar_options`, as mask pairs."""
        d = self.top - 1
        lo, hi = max(lo, 0), min(hi, d)
        moves = []
        if lo == 0 and hi >= 0:
            new = self._fresh_bit()
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

    def shelling(self, max_index: int) -> list[tuple[int, int]]:
        """The moves of `shelling_options`, as mask pairs."""
        rim = [r for r, fs in self.ridges.items() if len(fs) == 1 and r.bit_count() == self.top - 1]
        moves = []
        if max_index >= 0:
            new = self._fresh_bit()
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


def _pairs(moves):
    return [(m.alpha, m.beta) for m in moves]


def random_complex(rng, pure):
    """A random complex on at most 8 vertices, mixing integer and string
    labels now and then."""
    n = rng.randint(1, 8)
    labels = list(range(1, n + 1)) if rng.random() < 0.7 else [f"v{i}" for i in range(n)]
    d = rng.randint(0, min(n - 1, 4))
    sizes = [d + 1] if pure else list(range(1, d + 2))
    return Complex(
        frozenset(rng.sample(labels, rng.choice(sizes))) for _ in range(rng.randint(1, 10))
    )


def differential_cases():
    """Seeded grown balls and spheres, random complexes and the small corpus."""
    rng = random.Random(2024)
    cases = []
    for dim in range(1, 5):
        for k in range(1, dim + 2):
            for steps in (3, 8):
                cases.append(grow_shelled_ball(dim, k, steps, rng)[0])
                cases.append(grow_stellated_sphere(dim, k, steps, rng)[0])
    cases += [random_complex(rng, pure=i % 2 == 0) for i in range(80)]
    for name in fixture_names():
        fx = fixture(name)
        if fx.complex is not None and len(fx.complex.facet_sets) <= 120:
            cases.append(fx.complex)
    # ridges in three or more facets, so that several facet pairs span the
    # same union; smaller facets make some of them non-pure
    cases += [
        Complex([(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 2, 5)]),
        Complex([(1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4), (3, 4, 5), (5, 6), (7,)]),
        Complex([(1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 3, 6), (1, 2, 4, 5), (2, 3, 4, 5), (4, 6)]),
        Complex([("a", "b", 1), ("a", "b", 2), ("a", "b", 3), (1, 2, 3), ("a", 1, 2), ("c",)]),
        # rim ridges of three sizes: the alpha (1,) sorts before (1, 2), a prefix
        Complex([(1, 2, 3), (1, 4), (2, 5)]),
        klee_novik(1, 3),
        klee_novik(2, 5),
        standard_sphere(0),
        Complex.empty(),
    ]
    return cases


DIFFERENTIAL_CASES = differential_cases()


# Each reference is run once over the full index range: its loops admit a
# move by the move's index alone and its sort key starts with the index, so
# its list for a narrower range is the full list filtered to that range.


def test_shelling_options_match_the_facet_scan():
    for x in DIFFERENTIAL_CASES:
        full = _pairs(scan_shelling_options(x, x.dimension))
        for max_index in range(-1, x.dimension + 1):
            want = [(a, b) for a, b in full if len(b) - 1 <= max_index]
            assert _pairs(shelling_options(x, max_index)) == want, (x.facets, max_index)


def test_bistellar_options_match_the_facet_scan():
    for x in DIFFERENTIAL_CASES:
        full = _pairs(scan_bistellar_options(x, 0, x.dimension))
        for lo in range(-1, x.dimension + 2):
            for hi in range(lo, x.dimension + 2):
                want = [(a, b) for a, b in full if lo <= len(b) - 1 <= hi]
                assert _pairs(bistellar_options(x, lo, hi)) == want, (x.facets, lo, hi)


def test_options_match_the_complex_enumerators():
    # the mask enumerator against the Complex-based code it replaced, at
    # every index range
    for x in DIFFERENTIAL_CASES:
        for lo in range(-1, x.dimension + 2):
            for hi in range(lo, x.dimension + 2):
                assert bistellar_options(x, lo, hi) == complex_bistellar_options(x, lo, hi), (x.facets, lo, hi)
        for max_index in range(-1, x.dimension + 1):
            assert shelling_options(x, max_index) == complex_shelling_options(x, max_index), (x.facets, max_index)


def test_listed_shelling_options_pass_the_check(differential_complexes):
    # from the definition: every listed move applies, and on the smaller
    # inputs the list is every valid move there is, with one fresh label
    seen = 0
    for x in differential_complexes:
        opts = shelling_options(x, x.dimension)
        for mv in opts:
            assert shelling_valid(x, mv) is None, (x.facets, mv)
        if len(x.vertices) <= 8:
            listed = {(frozenset(mv.alpha), frozenset(mv.beta)) for mv in opts}
            assert listed == oracle_shelling_moves(x, x.dimension), x.facets
        seen += not x.is_pure
    assert seen
    # a point beside an edge: the point's empty ridge is no rim ridge
    assert shelling_options(Complex([(6,), (2, 7)]), 1) == [
        ShellingMove(alpha=(2,), beta=(8,)),
        ShellingMove(alpha=(7,), beta=(8,)),
    ]


def assert_lists_match(m: _Masks) -> None:
    """m's move lists at every index range equal the scratch listing, a
    fresh `_Masks` of the same facets and the Complex-based enumerators."""
    x = m.complex()
    scratch, fresh = ScratchMasks(m), _Masks(x)

    def named(masks, moves):
        return [(masks.face(a), masks.face(b)) for a, b in moves]

    for lo in range(x.dimension + 1):
        for hi in range(lo, x.dimension + 1):
            got = m.bistellar(lo, hi)
            assert got == scratch.bistellar(lo, hi), (x.facets, lo, hi)
            assert named(m, got) == named(fresh, fresh.bistellar(lo, hi)), (x.facets, lo, hi)
            assert named(m, got) == _pairs(complex_bistellar_options(x, lo, hi)), (x.facets, lo, hi)
    for max_index in range(-1, x.dimension + 1):
        got = m.shelling(max_index)
        assert got == scratch.shelling(max_index), (x.facets, max_index)
        assert named(m, got) == named(fresh, fresh.shelling(max_index)), (x.facets, max_index)
        assert named(m, got) == _pairs(complex_shelling_options(x, max_index)), (x.facets, max_index)


def _relabelled(x: Complex, names) -> Complex:
    return x.rename(dict(zip(x.vertices, names)))


def test_move_lists_kept_in_step_match_the_scratch_listing():
    # seeded flips and attaches, with loads back to earlier states as the
    # search makes when it backtracks, and one load down a dimension
    rng = random.Random(20)
    starts = [grow_stellated_sphere(d, d + 1, 6, rng)[0] for d in (1, 2, 3, 4)]
    starts += [grow_shelled_ball(d, d, 6, rng)[0] for d in (1, 2, 3, 4)]
    # string labels that a fresh label w1 sorts between, and mixed labels
    # whose order turns numeric when the string goes: the order changes
    starts += [
        _relabelled(grow_stellated_sphere(2, 3, 4, rng)[0], ["a", "b", "x", "y", "z", "zz", "zzz", "zzzz"]),
        _relabelled(grow_shelled_ball(2, 2, 4, rng)[0], ["a", "x", "y", "z", "zz", "zzz"]),
        _relabelled(standard_sphere(2), [1, 2, 10, "s"]),
        _relabelled(grow_shelled_ball(3, 2, 3, rng)[0], [1, 2, 10, "s", 3, 4, 5]),
    ]
    starts += [x for x in DIFFERENTIAL_CASES[-9:-2] if not x.is_pure]
    for x in starts:
        m = _Masks(x)
        seen = [frozenset(m.facets)]
        for step in range(12):
            assert_lists_match(m)
            roll = rng.random()
            flips = m.bistellar(0, m.top - 1)
            attaches = [mv for mv in m.shelling(m.top - 1) if m.attach_reason(*mv) is None]
            if step == 9:
                m.load({f ^ (f & -f) for f in m.facets if f.bit_count() == m.top})
            elif roll < 0.25 or not flips and not attaches:
                m.load(rng.choice(seen))
            elif roll < 0.65 and flips or not attaches:
                a, b = rng.choice(flips)
                m.flip(a, b, BistellarMove(alpha=m.face(a), beta=m.face(b)))
            else:
                a, b = rng.choice(attaches)
                m.attach(a, b, ShellingMove(alpha=m.face(a), beta=m.face(b)))
            seen.append(frozenset(m.facets))
        assert_lists_match(m)


def test_move_tables_outlive_a_vertex_that_comes_or_goes(monkeypatch):
    # a string-label octahedron that gains and loses the vertex w1, which
    # sorts before every other label: the tables are built once
    import sx.moves

    builds = []

    class CountedSpans(sx.moves._Spans):
        def __init__(self, *args):
            builds.append(1)
            super().__init__(*args)

    monkeypatch.setattr(sx.moves, "_Spans", CountedSpans)
    octahedron = Complex(itertools.product(("x1", "y1"), ("x2", "y2"), ("x3", "y3")))
    m = _Masks(octahedron)
    for step in range(6):
        lo = 0 if step % 2 == 0 else 2
        a, b = m.bistellar(lo, lo)[0]
        m.flip(a, b, BistellarMove(alpha=m.face(a), beta=m.face(b)))
    assert m.complex() == octahedron
    assert len(builds) == 1


def test_move_tables_follow_the_label_order_from_numeric_to_string():
    # built numeric, the tables must not take a key for the string label
    # that a load brings back: they are dropped, and listed by string order
    mixed = _relabelled(standard_sphere(2), [1, 2, 3, "s"])
    m = _Masks(mixed)
    ints = {sum(m._bit(v) for v in f) for f in standard_sphere(2, [1, 2, 3, 4]).facet_sets}
    for state in (ints, mixed._facet_masks, ints):
        m.load(state)
        assert_lists_match(m)


def test_move_tables_built_narrow_match_the_scratch_listing(monkeypatch):
    # as the search and k = 1 growth build them: one table listed only at
    # lo >= 1 and one only at index 0, each stepped by seeded flips,
    # attaches and loads that the scratch listing draws, so that no wider
    # listing comes first, and each holding no entry outside its range
    rng = random.Random(37)
    starts = [grow_stellated_sphere(d, d + 1, 8, rng)[0] for d in (1, 2, 3, 4)]
    starts += [grow_shelled_ball(d, d, 8, rng)[0] for d in (2, 3, 4)]
    starts += [
        _relabelled(grow_stellated_sphere(2, 3, 4, rng)[0], ["a", "b", "x", "y", "z", "zz", "zzz", "zzzz"]),
        _relabelled(grow_shelled_ball(3, 2, 3, rng)[0], [1, 2, 10, "s", 3, 4, 5]),
        fixture("bl_sigma3_16").complex,
    ]
    for x in starts:
        d = x.dimension
        lo = rng.randint(1, d)
        high, zero = _Masks(x), _Masks(x)
        seen = {high: [frozenset(x._facet_masks)], zero: [frozenset(x._facet_masks)]}  # each on its own bits
        for step in range(10):
            for m, got, want in (
                (high, high.bistellar(lo, d), ScratchMasks(high).bistellar(lo, d)),
                (zero, zero.bistellar(0, 0), ScratchMasks(zero).bistellar(0, 0)),
                (zero, zero.shelling(0), ScratchMasks(zero).shelling(0)),
            ):
                assert got == want, (x.facets, m is high and lo, step)
            assert not any(high._flips.cells.values()), x.facets
            assert all(lo <= beta.bit_count() - 1 for beta, _ in high._flips.spans.values()), x.facets
            for table in (zero._flips, zero._shells):
                assert not (table.faces or table.spans or table.dirty), x.facets
            for m in (high, zero):
                scratch = ScratchMasks(m)
                flips = scratch.bistellar(0, m.top - 1)
                attaches = [mv for mv in scratch.shelling(m.top - 1) if m.attach_reason(*mv) is None]
                roll = rng.random()
                if roll < 0.2 or not flips and not attaches:
                    m.load(rng.choice(seen[m]))
                elif roll < 0.7 and flips or not attaches:
                    a, b = rng.choice(flips)
                    m.flip(a, b, BistellarMove(alpha=m.face(a), beta=m.face(b)))
                else:
                    a, b = rng.choice(attaches)
                    m.attach(a, b, ShellingMove(alpha=m.face(a), beta=m.face(b)))
                seen[m].append(frozenset(m.facets))
        # then widened in place, every range still matches
        assert_lists_match(high)
        assert_lists_match(zero)

    # k = 1 growth lists index 0 alone: its shelling table holds no span
    import sx.moves

    tables = []

    class KeptSpans(sx.moves._Spans):
        def __init__(self, *args):
            tables.append(self)
            super().__init__(*args)

    monkeypatch.setattr(sx.moves, "_Spans", KeptSpans)
    grow_shelled_ball(4, 1, 199, random.Random(200))
    (table,) = tables
    assert len(table.cells) == 5 + 3 * 199  # each cone takes one rim ridge and gives four
    assert not (table.faces or table.spans or table.dirty)


def test_only_an_index_zero_beta_holds_a_label_not_live():
    # the move order needs no rule for a new label: no listed face mixes it
    # with live labels, as an index-0 beta is the new vertex alone
    rng = random.Random(28)
    for x in DIFFERENTIAL_CASES[:40] + [_relabelled(standard_sphere(2), [1, 2, 10, "s"])]:
        m = _Masks(x)
        for _ in range(6):
            flips, shells = m.bistellar(0, m.top - 1), m.shelling(m.top - 1)
            for a, b in flips + shells:
                assert not a & ~m.union, x.facets
                assert not b & ~m.union or (b.bit_count() == 1 and not b & m.union), x.facets
            if not flips:
                break
            a, b = rng.choice(flips)
            m.flip(a, b, BistellarMove(alpha=m.face(a), beta=m.face(b)))


def test_growers_match_their_oracles():
    # the same complex, certificate and rng draws over seeds x dim 1-5 x
    # k 1..dim+1 x steps up to 30
    for seed, dim, steps in itertools.product(range(3), range(1, 6), (0, 4, 13, 30)):
        for k, (grow, oracle) in itertools.product(
            range(1, dim + 2),
            ((grow_shelled_ball, oracle_grow_shelled_ball),
             (grow_stellated_sphere, oracle_grow_stellated_sphere)),
        ):
            rng_a, rng_b = random.Random(seed), random.Random(seed)
            got, got_cert = grow(dim, k, steps, rng_a)
            want, want_cert = oracle(dim, k, steps, rng_b)
            assert got == want and got.digest == want.digest, (grow.__name__, seed, dim, k, steps)
            assert got_cert.to_json() == want_cert.to_json(), (grow.__name__, seed, dim, k, steps)
            assert rng_a.random() == rng_b.random()


def test_growers_raise_invalid_move_from_the_mask_checks():
    # the grower's own checks, not a replay, stop a move that does not apply
    x = standard_sphere(2)
    m = _Masks(x)
    bits = {v: m.bit[v] for v in x.vertices}
    for alpha, beta, reason in (
        ((1, 2, 3), (4,), "beta-not-fresh"),
        ((1, 2), (3, 4), "beta-already-a-face"),
        ((1, 2), (3,), "wrong-dimensions"),
    ):
        mv = BistellarMove(alpha=alpha, beta=beta)
        assert bistellar_valid(x, mv) == reason
        with pytest.raises(InvalidMove) as err:
            m.flip(sum(bits[v] for v in alpha), sum(bits[v] for v in beta), mv)
        assert err.value.reason == reason
    y = from_facets([[1, 2, 3], [2, 3, 4]])
    m = _Masks(y)
    mv = ShellingMove(alpha=(1,), beta=(2, 4))
    assert shelling_valid(y, mv) == "beta-already-a-face"
    with pytest.raises(InvalidMove) as err:
        m.attach(m.bit[1], m.bit[2] | m.bit[4], mv)
    assert err.value.reason == "beta-already-a-face"


def test_grow_shelled_ball_needs_dimension_one():
    # the point's one rim ridge is ∅, so attaching along it grows the
    # 0-sphere, which is no ball
    with pytest.raises(BadDimension):
        grow_shelled_ball(0, 1, 3, random.Random(1))
    ball, cert = grow_shelled_ball(1, 1, 3, random.Random(1))
    assert ball.dimension == 1 and len(ball.facets) == 4 and not ball.classify().closed


def test_listed_bistellar_options_are_valid():
    for x in DIFFERENTIAL_CASES:
        for mv in bistellar_options(x, 0, x.dimension):
            assert bistellar_valid(x, mv) is None, (x.facets, mv)
            apply_bistellar(x, mv)


def test_index_zero_options_skip_smaller_facets():
    # the edge 45 of a non-pure 2-complex is a facet, but coning it to a
    # fresh vertex gives no 2-face, so it is no index-0 move
    x = Complex([(1, 2, 3), (1, 2, 4), (4, 5)])
    opts = bistellar_options(x, 0, 1)
    assert _pairs(opts) == [((1, 2, 3), (6,)), ((1, 2, 4), (6,)), ((1, 2), (3, 4))]
    for mv in opts:
        apply_bistellar(x, mv)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 5),
    st.integers(0, 10),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_every_option_is_undone_by_its_reverse(dim, k, steps, seed, sphere):
    """On grown spheres and balls, every listed move passes bistellar_valid,
    and its reverse move takes the result back to x."""
    rng = random.Random(seed)
    k = min(k, dim + 1)
    grow = grow_stellated_sphere if sphere else grow_shelled_ball
    x = grow(dim, k, steps, rng)[0]
    for mv in bistellar_options(x, 0, x.dimension):
        assert bistellar_valid(x, mv) is None, (x.facets, mv)
        y = apply_bistellar(x, mv)
        assert apply_bistellar(y, reverse_move(mv)) == x, (x.facets, mv)


def test_has_face_matches_the_facet_scan():
    rng = random.Random(7)
    for x in DIFFERENTIAL_CASES + [Complex.empty()]:
        probes = list(oracle_all_faces(x, include_empty=True))
        probes += map(frozenset, x.missing_faces(x.dimension + 1))
        probes += [frozenset({"unknown"}), frozenset(x.vertices[:1]) | {-7}]
        probes.append(frozenset(x.vertices) | {fresh_label(x)})
        probes += [frozenset(rng.sample(x.vertices, rng.randint(0, len(x.vertices)))) for _ in range(20)]
        for f in probes:
            assert x.has_face(f) == scan_has_face(x, f), (x.facets, f)
    empty = Complex.empty()
    assert empty.has_face(frozenset())
    assert not empty.has_face({1})


def _outcome(fn, *args):
    """fn's result, or the kind, step and reason of the move error it raised."""
    try:
        return fn(*args)
    except (InvalidMove, ReplayFailure) as exc:
        return type(exc).__name__, getattr(exc, "step", None), exc.reason


def _ridge_order_matters(y, move):
    """Whether the frozenset shelling check's reason rests on set order:
    beta takes ridges both missing from y and interior to it."""
    sigma = frozenset(move.alpha) | frozenset(move.beta)
    holders = {len(oracle_ridge_incidence(y).get(sigma - {v}, ())) for v in move.beta}
    return 0 in holders and max(holders) > 1


def move_probes(x):
    """Every listed option and its reverse, as label pairs, then malformed
    pairs: empty beta, overlap, wrong sizes, unknown labels, and index 0 on
    an existing label."""
    new = fresh_label(x)
    listed = _pairs(bistellar_options(x, 0, x.dimension) + shelling_options(x, x.dimension))
    facet, vs = x.facets[0], x.vertices
    malformed = [
        (facet, ()),
        (facet, facet[:1]),
        (facet, (new, fresh_label(x, [new]))),
        (facet[1:], (new,)),
        (facet + (new,), ()),
        (facet, ("unknown",)),
        (("unknown",) + facet[1:], (new,)),
        (facet[1:], ("unknown", new)),
        (facet, vs[-1:]),
        (facet[1:], vs[:1]),
    ]
    return listed + [(b, a) for a, b in listed], malformed


def test_move_checks_match_the_frozenset_oracles(differential_complexes):
    # reason tokens agree on every probe, each read as a bistellar and as a
    # shelling move, and so do applied complexes, on every probe that applies
    # and every malformed one (an apply that fails raises the check's
    # reason).  The frozenset shelling check is order-dependent where beta
    # takes a missing and an interior ridge; there the missing one is named.
    y = Complex([("a", "b", "c"), ("b", "c", "d")])
    cases = [(x, *move_probes(x)) for x in differential_complexes] + [(y, [], [(("c",), ("b", "e"))])]
    checked = reordered = 0
    for x, listed, malformed in cases:
        for alpha, beta in listed + malformed:
            applies = (alpha, beta) in malformed
            bm, sm = BistellarMove(alpha=alpha, beta=beta), ShellingMove(alpha=alpha, beta=beta)
            reason = complex_bistellar_valid(x, bm)
            assert bistellar_valid(x, bm) == reason, (x.facets, bm)
            if reason is None or applies:
                got, want = _outcome(apply_bistellar, x, bm), _outcome(complex_apply_bistellar, x, bm)
                assert got == want and getattr(got, "digest", 0) == getattr(want, "digest", 0), (x.facets, bm)
            reason = complex_shelling_valid(x, sm)
            if reason in ("attachment-not-induced", "attachment-ridge-interior") and _ridge_order_matters(x, sm):
                assert shelling_valid(x, sm) == "attachment-not-induced", (x.facets, sm)
                reordered += 1
                continue
            assert shelling_valid(x, sm) == reason, (x.facets, sm)
            if reason is None or applies:
                got, want = _outcome(apply_shelling, x, sm), _outcome(complex_apply_shelling, x, sm)
                assert got == want and getattr(got, "digest", 0) == getattr(want, "digest", 0), (x.facets, sm)
            checked += 1
    assert checked > 10000 and reordered == 1


def _mask_applied(x, move):
    """x after move through the mask state, every facet turned back into
    labels: the apply that `apply_bistellar` and `apply_shelling` replace."""
    m = _Masks(x)
    (m.flip if isinstance(move, BistellarMove) else m.attach)(*m.pair(move), move)
    return m.complex()


def test_apply_matches_the_mask_state(differential_complexes):
    # every listed move, index 0 and those that remove a vertex among them,
    # and moves with empty alpha that leave {∅} or a lower-dimensional
    # facet: the same complex, digest and vertex order, or the same reason
    drops = [
        (standard_sphere(1), BistellarMove(alpha=(), beta=(1, 2, 3))),
        (Complex([(1, 2), (1, 3), (2, 3), (4,)]), BistellarMove(alpha=(), beta=(1, 2, 3))),
    ]
    cases = drops + [
        (x, mv)
        for x in differential_complexes
        for mv in bistellar_options(x, 0, x.dimension) + shelling_options(x, x.dimension)
    ]
    kinds = set()
    for x, mv in cases:
        apply = apply_bistellar if isinstance(mv, BistellarMove) else apply_shelling
        got, want = _outcome(apply, x, mv), _outcome(_mask_applied, x, mv)
        assert got == want, (x.facets, mv)
        if isinstance(got, Complex):
            assert (got.digest, got.vertices) == (want.digest, want.vertices), (x.facets, mv)
            kinds.add((type(mv).__name__, mv.index == 0, len(got.vertices) - len(x.vertices)))
    assert {("BistellarMove", True, 1), ("BistellarMove", False, -1), ("ShellingMove", True, 1)} <= kinds


def _corrupted(cert, rng, probes):
    """Copies of cert: its first half with the full result digest, and up
    to four with a probe in place of one move, or after the last."""
    moves = list(cert.moves)
    cls = BistellarMove if cert.kind == "bistellar" else ShellingMove
    out = [MoveCertificate(kind=cert.kind, start_digest=cert.start_digest, moves=tuple(moves[: len(moves) // 2]),
                           result_digest=cert.result_digest)]
    for alpha, beta in rng.sample(probes, min(len(probes), 4)):
        i = rng.randrange(len(moves) + 1)
        swapped = moves[:i] + [cls(alpha=alpha, beta=beta)] + moves[i + 1:]
        out.append(MoveCertificate(kind=cert.kind, start_digest=cert.start_digest, moves=tuple(swapped)))
    return out


def test_replay_matches_the_frozenset_oracles():
    # grown certificates, corrupted ones, and the ball lift of every sphere
    # certificate (valid only when d >= 2k - 1): equal complexes, digests
    # and ReplayFailure steps and reasons
    rng = random.Random(1999)
    failures = lifts_failed = 0
    for dim, k, steps in itertools.product(range(1, 5), range(1, 6), (0, 5, 12)):
        if k > dim + 1:
            continue
        for grow in (grow_shelled_ball, grow_stellated_sphere):
            x, cert = grow(dim, k, steps, rng)
            seed = standard_ball(dim) if grow is grow_shelled_ball else standard_sphere(dim)
            probes = [p for z in (x, seed) for part in move_probes(z) for p in part]
            for c in [cert] + _corrupted(cert, rng, probes):
                got, want = _outcome(replay, c, seed), _outcome(complex_replay, c, seed)
                assert got == want, (c.to_json(), got, want)
                failures += isinstance(got[0], str)
            if grow is grow_stellated_sphere:
                got = _outcome(ball_from_stellated_certificate, cert, seed)
                want = _outcome(complex_ball_from_stellated_certificate, cert, seed)
                assert got == want and getattr(got, "digest", None) == getattr(want, "digest", None), cert.to_json()
                lifts_failed += isinstance(got, tuple)
    assert failures > 50 and lifts_failed > 0


def test_replay_tracks_a_dimension_drop():
    # a move with empty alpha adds no facet: the triangle's boundary leaves
    # {∅}, where a point can be coned on, and a non-pure complex drops to
    # its point, which an index-0 move of dimension 0 then replaces
    cases = [
        (standard_sphere(1), [((), (1, 2, 3)), ((), (9,)), ((), (9,))]),
        (Complex([(1, 2), (1, 3), (2, 3), (4,)]), [((), (1, 2, 3)), ((4,), (5,)), ((5,), (4,))]),
        (Complex([(1, 2), (1, 3), (2, 3), (4,)]), [((), (1, 2, 3)), ((4,), (1, 5))]),
    ]
    for start, moves in cases:
        cert = MoveCertificate(kind="bistellar", start_digest=start.digest,
                               moves=tuple(BistellarMove(alpha=a, beta=b) for a, b in moves))
        assert _outcome(replay, cert, start) == _outcome(complex_replay, cert, start), moves
    final, _ = replay(MoveCertificate(kind="bistellar", start_digest=cases[1][0].digest,
                                      moves=(BistellarMove(alpha=(), beta=(1, 2, 3)),)), cases[1][0])
    assert final == Complex([(4,)])


SHELLING_ORDER_SCRIPT = """
from sx import Complex
from sx.errors import InvalidMove, ReplayFailure
from sx.moves import MoveCertificate, ShellingMove, apply_shelling, replay, shelling_valid
y = Complex([("a", "b", "c"), ("b", "c", "d")])
mv = ShellingMove(alpha=("c",), beta=("b", "e"))
out = [shelling_valid(y, mv)]
try:
    apply_shelling(y, mv)
except InvalidMove as exc:
    out.append(exc.reason)
try:
    replay(MoveCertificate(kind="shelling", start_digest=y.digest, moves=(mv,)), y)
except ReplayFailure as exc:
    out.append(exc.reason)
print(" ".join(out))
"""


def test_shelling_reason_does_not_depend_on_the_hash_seed():
    # beta = {b, e}: the ridge {c, e} is missing and {b, c} is interior; the
    # frozenset check answered by set order, so by PYTHONHASHSEED
    src = str(Path(__file__).resolve().parents[1] / "src")
    for seed in range(8):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", SHELLING_ORDER_SCRIPT], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out.split() == ["attachment-not-induced"] * 3, (seed, out)


def test_moves_that_repeat_a_label_are_rejected_first():
    s = standard_sphere(2)
    for alpha, beta in (((1, 1, 2, 3), (9,)), ((1, 2, 3), (9, 9)), ((1, 1), (2, 3)), ((), (1, 1, 2, 3))):
        mv = BistellarMove(alpha=alpha, beta=beta)
        assert bistellar_valid(s, mv) == "repeated-label", mv
        with pytest.raises(InvalidMove) as err:
            apply_bistellar(s, mv)
        assert err.value.reason == "repeated-label"
        cert = MoveCertificate(kind="bistellar", start_digest=s.digest,
                               moves=(BistellarMove(alpha=(1, 2, 3), beta=(5,)), mv))
        with pytest.raises(ReplayFailure) as err:
            replay(cert, s)
        assert (err.value.step, err.value.reason) == (2, "repeated-label")
    b = standard_ball(2)
    for alpha, beta in (((2, 3, 3), (4,)), ((2, 3), (4, 4)), ((), (4, 4, 5))):
        mv = ShellingMove(alpha=alpha, beta=beta)
        assert shelling_valid(b, mv) == "repeated-label", mv
        with pytest.raises(InvalidMove) as err:
            apply_shelling(b, mv)
        assert err.value.reason == "repeated-label"
        with pytest.raises(ReplayFailure) as err:
            replay(MoveCertificate(kind="shelling", start_digest=b.digest, moves=(mv,)), b)
        assert (err.value.step, err.value.reason) == (1, "repeated-label")
    # a label in both faces is still an overlap
    assert shelling_valid(b, ShellingMove(alpha=(1,), beta=(1, 2))) == "overlap"
    # the frozenset checks accepted the first and misread the second
    assert complex_bistellar_valid(s, BistellarMove(alpha=(1, 1, 2, 3), beta=(9,))) is None
    assert complex_bistellar_valid(s, BistellarMove(alpha=(1, 2, 3), beta=(9, 9))) == "beta-vertex-unknown"


# -- standard objects -----------------------------------------------------------


def test_standard_sphere_zero_dim():
    s = standard_sphere(0)
    assert s.f_vector() == (2,)
    assert s.dimension == 0


def test_standard_objects_reject_bad_dimension():
    with pytest.raises(BadDimension):
        standard_sphere(-1)
    with pytest.raises(BadDimension):
        standard_ball(2, labels=(1, 2))


def test_standard_ball_boundary():
    assert standard_ball(3).boundary() == standard_sphere(2, labels=(1, 2, 3, 4))


# -- bistellar moves ---------------------------------------------------------------


def test_no_proper_moves_on_standard_sphere():
    s = standard_sphere(2)
    assert bistellar_options(s, 2, 2) == []
    assert oracle_bistellar_moves(s, 1, 2) == []


def test_options_match_oracle_on_small_spheres():
    rng = random.Random(11)
    for _ in range(15):
        d = rng.choice([1, 2])
        s, _ = grow_stellated_sphere(d, 1, rng.randrange(1, 5), rng)
        got = {
            (frozenset(m.alpha), frozenset(m.beta))
            for m in bistellar_options(s, 1, d)
        }
        assert got == set(map(tuple, oracle_bistellar_moves(s, 1, d)))


def test_zero_move_cone_off():
    s = standard_sphere(2)
    y = apply_bistellar(s, BistellarMove(alpha=(1, 2, 3), beta=(5,)))
    assert set(y.facet_sets) == {
        frozenset(f)
        for f in ((1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 2, 5), (1, 3, 5), (2, 3, 5))
    }


def test_zero_move_requires_fresh_vertex():
    s = standard_sphere(2)
    assert bistellar_valid(s, BistellarMove(alpha=(1, 2, 3), beta=(4,))) == "beta-not-fresh"
    with pytest.raises(InvalidMove):
        apply_bistellar(s, BistellarMove(alpha=(1, 2, 3), beta=(4,)))


def test_apply_then_reverse_is_identity():
    rng = random.Random(5)
    checked = 0
    while checked < 60:
        d = rng.choice([2, 3])
        s, _ = grow_stellated_sphere(d, min(2, d), rng.randrange(1, 6), rng)
        for mv in bistellar_options(s, 0, d)[:6]:
            y = apply_bistellar(s, mv)
            assert apply_bistellar(y, BistellarMove(alpha=mv.beta, beta=mv.alpha)) == s
            checked += 1


def test_f_vector_delta_matches_region_difference():
    # the f-vector change of a move equals f(da * b-bar) - f(a-bar * db)
    rng = random.Random(23)
    checked = 0
    while checked < 40:
        d = rng.choice([2, 3])
        s, _ = grow_stellated_sphere(d, min(2, d), rng.randrange(1, 6), rng)
        for mv in bistellar_options(s, 1, d - 1)[:4]:
            a = from_facets([mv.alpha])
            b = from_facets([mv.beta])
            removed = a.join(Complex(b.facet_sets).boundary()) if len(mv.beta) > 1 else a
            added = Complex(a.facet_sets).boundary().join(b)
            y = apply_bistellar(s, mv)
            fx, fy = s.f_vector(), y.f_vector()
            fr = (1,) + removed.f_vector()
            fa = (1,) + added.f_vector()
            delta = [fa[i] - fr[i] if i < len(fa) and i < len(fr) else 0 for i in range(max(len(fa), len(fr)))]
            for i in range(len(fx)):
                assert fy[i] - fx[i] == (delta[i + 1] if i + 1 < len(delta) else 0)
            checked += 1


def test_index_zero_and_top_change_vertex_count():
    s = standard_sphere(3)
    grown = apply_bistellar(s, BistellarMove(alpha=(1, 2, 3, 4), beta=(9,)))
    assert len(grown.vertices) == len(s.vertices) + 1
    shrunk = apply_bistellar(grown, BistellarMove(alpha=(9,), beta=(1, 2, 3, 4)))
    assert shrunk == s


# -- shelling moves -----------------------------------------------------------------


def test_basic_index_zero_shelling():
    b = standard_ball(3)
    grown = apply_shelling(b, ShellingMove(alpha=(2, 3, 4), beta=(5,)))
    assert set(grown.facet_sets) == {frozenset((1, 2, 3, 4)), frozenset((2, 3, 4, 5))}


def test_shelling_options_match_oracle_on_small_balls(lutz_b1):
    rng = random.Random(19)
    balls = [lutz_b1]
    for dim in (1, 2, 3):
        for k in range(1, dim + 2):
            balls.append(grow_shelled_ball(dim, k, rng.randrange(2, 6), rng)[0])
    for ball in balls:
        for max_index in range(-1, ball.dimension + 1):
            got = {(frozenset(m.alpha), frozenset(m.beta)) for m in shelling_options(ball, max_index)}
            assert got == oracle_shelling_moves(ball, max_index)


def test_shelling_rejects_interior_ridge():
    two = from_facets([[1, 2, 3, 4], [2, 3, 4, 5]])
    mv = ShellingMove(alpha=(2, 3, 4), beta=(6,))
    assert shelling_valid(two, mv) == "attachment-ridge-interior"


def test_shelling_rejects_existing_beta():
    two = from_facets([[1, 2, 3], [2, 3, 4]])
    # attaching 124 along both 12 and 14 would need beta = {2, 4}, a face
    mv = ShellingMove(alpha=(1,), beta=(2, 4))
    assert shelling_valid(two, mv) == "beta-already-a-face"


def test_boundary_commutes_with_shelling():
    rng = random.Random(31)
    checked = 0
    while checked < 60:
        dim = rng.choice([2, 3, 4])
        k = min(rng.choice([1, 2]), dim)
        ball = standard_ball(dim)
        for _ in range(5):
            opts = shelling_options(ball, max_index=k - 1)
            if not opts:
                break
            mv = opts[rng.randrange(len(opts))]
            nxt = apply_shelling(ball, mv)
            assert nxt.boundary() == apply_bistellar(
                ball.boundary(), BistellarMove(alpha=mv.alpha, beta=mv.beta)
            )
            ball = nxt
            checked += 1


def test_shelling_increases_facet_count_by_one():
    rng = random.Random(13)
    ball = standard_ball(3)
    for _ in range(8):
        opts = shelling_options(ball, max_index=1)
        mv = opts[rng.randrange(len(opts))]
        nxt = apply_shelling(ball, mv)
        assert len(nxt.facet_sets) == len(ball.facet_sets) + 1
        assert (len(nxt.vertices) == len(ball.vertices) + 1) == (mv.index == 0)
        ball = nxt


# -- certificates ---------------------------------------------------------------------


def test_empty_certificate_replays_to_start():
    s = standard_sphere(3)
    cert = MoveCertificate(kind="bistellar", start_digest=s.digest, moves=())
    final, length = replay(cert, s)
    assert final == s and length == 0


def test_lutz_shelling_replay(lutz_b2):
    cert = fixture("lutz_b2_shelling_cert").certificate
    final, length = replay(cert, Complex([(1, 3, 5, 7)]))
    assert final == lutz_b2
    assert length == 14
    assert cert.max_index() == 1


def test_corrupted_certificate_fails_at_step():
    cert = fixture("lutz_b2_shelling_cert").certificate
    bad_moves = list(cert.moves)
    bad_moves[3] = ShellingMove(alpha=(1, 2, 3), beta=(9,))
    bad = MoveCertificate(
        kind="shelling", start_digest=cert.start_digest, moves=tuple(bad_moves)
    )
    with pytest.raises(ReplayFailure) as err:
        replay(bad, Complex([(1, 3, 5, 7)]))
    assert err.value.step == 4


def test_replay_checks_digests():
    s = standard_sphere(2)
    cert = MoveCertificate(kind="bistellar", start_digest="0" * 64, moves=())
    with pytest.raises(ReplayFailure):
        replay(cert, s)


def test_certificate_json_round_trip():
    cert = fixture("lutz_b2_shelling_cert").certificate
    again = MoveCertificate.from_json(cert.to_json())
    assert again == cert


def test_shelling_moves_from_facet_order_rejects_bad_order():
    with pytest.raises(ReplayFailure):
        shelling_moves_from_facet_order([(1, 2, 3, 4), (5, 6, 7, 8)])


def test_shelling_moves_from_facet_order_use_the_vertex_order():
    # integer labels order numerically, as in `Complex`, not as strings
    moves = shelling_moves_from_facet_order([(1, 2, 3, 10), (2, 3, 10, 9), (2, 10, 9, 11)])
    assert moves == [ShellingMove(alpha=(2, 3, 10), beta=(9,)),
                     ShellingMove(alpha=(2, 9, 10), beta=(11,))]


def test_shelling_moves_from_facet_order_match_the_complex_replay(lutz_b2):
    from sx.corpus import LUTZ_B2_SHELLING_ORDER

    for order in (LUTZ_B2_SHELLING_ORDER, [(1, 2, 3, 10), (2, 3, 10, 9), (2, 10, 9, 11)],
                  [("a", 2, 3), (2, 3, 10), (3, 10, "b"), ("a", 3, "b")]):
        assert shelling_moves_from_facet_order(order) == complex_shelling_moves_from_facet_order(order)
    for bad in ([(1, 2, 3, 4), (5, 6, 7, 8)], [(1, 2, 3), (1, 2, 3)], [(1, 2, 3), (2, 3, 4, 5)]):
        with pytest.raises(ReplayFailure):
            complex_shelling_moves_from_facet_order(bad)
        with pytest.raises(ReplayFailure):
            shelling_moves_from_facet_order(bad)


def test_certificate_transport_round_trip():
    rng = random.Random(17)
    for _ in range(20):
        dim = rng.choice([2, 3])
        k = min(rng.choice([1, 2]), dim)
        ball, cert = grow_shelled_ball(dim, k, rng.randrange(1, 6), rng)
        sphere_cert = boundary_certificate(cert, standard_ball(dim))
        sphere, _ = replay(sphere_cert, standard_ball(dim).boundary())
        assert sphere == ball.boundary()
        # and back: lift the sphere certificate to a ball again
        lifted = ball_from_stellated_certificate(sphere_cert, standard_ball(dim).boundary())
        assert lifted.boundary() == sphere

