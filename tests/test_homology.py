"""Homology ranks against an independent dense Fraction-arithmetic oracle and
the elimination-only `betti` paths the reduction replaced, the screens on
one reduction against the elimination-only screens, and the collapse on
the face lattice against the coface-dict collapse it replaced."""

import random
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sx.complexes as complexes_module
import sx.homology as homology_module
from sx import Complex, from_facets, standard_ball, standard_sphere
from sx.certify import collapse
from sx.complexes import _bits, _face_lattice
from sx.constructions import klee_novik
from sx.corpus import fixture
from sx.errors import EmptyInput, FieldTooLarge
from sx.growth import grow_shelled_ball, grow_stellated_sphere
from sx.homology import (
    DEFAULT_FIELDS,
    ScreenVerdict,
    _collapses_to_point,
    _pivot_rows,
    _point_like,
    _reduce,
    _residual_betti,
    _sphere_like,
    betti,
    check_field,
    euler_characteristic,
    field_name,
    screen_homology_ball,
    screen_homology_sphere,
)

from conftest import collapse_replays
from test_complexes import oracle_boundary_columns

RP2 = [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
       (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)]


def oracle_betti(x, p):
    """Oracle: dense Gaussian elimination over Fraction / explicit mod-p."""

    def faces(k):
        return x.sorted_faces(x.faces(k))

    def dense_boundary(k):
        if k == 0:
            return [[1] * len(faces(0))]
        rows = {frozenset(f): i for i, f in enumerate(faces(k - 1))}
        mat = [[0] * len(faces(k)) for _ in rows]
        for j, f in enumerate(faces(k)):
            for pos in range(len(f)):
                sub = frozenset(f[:pos] + f[pos + 1:])
                mat[rows[sub]][j] = (-1) ** pos
        return mat

    def rank(mat):
        if not mat or not mat[0]:
            return 0
        if p == 0:
            m = [[Fraction(v) for v in row] for row in mat]
        else:
            m = [[v % p for v in row] for row in mat]
        r = 0
        cols = len(m[0])
        for c in range(cols):
            piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            inv = (Fraction(1) / m[r][c]) if p == 0 else pow(m[r][c], p - 2, p)
            m[r] = [v * inv % p if p else v * inv for v in m[r]]
            for i in range(len(m)):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [
                        (a - f * b) % p if p else a - f * b
                        for a, b in zip(m[i], m[r])
                    ]
            r += 1
            if r == len(m):
                break
        return r

    d = x.dimension
    ranks = [rank(dense_boundary(k)) for k in range(d + 1)] + [0]
    return tuple(
        len(faces(k)) - ranks[k] - ranks[k + 1] for k in range(d + 1)
    )


def all_columns_betti(x, field=0):
    """`betti` as it was before clearing: every column of every boundary
    map is eliminated, bottom-up.  Kept verbatim as the reference, the
    columns now from `oracle_boundary_columns`."""
    check_field(field)
    if x.is_empty_complex:
        raise EmptyInput("betti numbers of the empty complex are not defined here")
    d = x.dimension
    f = [len(x.faces(k)) for k in range(d + 1)]
    ranks = [len(_pivot_rows(oracle_boundary_columns(x, k), field)) for k in range(d + 1)]
    ranks.append(0)
    return tuple(f[k] - ranks[k] - ranks[k + 1] for k in range(d + 1))


def clearing_betti(x: Complex, field: int = 0) -> tuple[int, ...]:
    """Reduced Betti numbers (β̃_0, ..., β̃_d) over the given field.

    Ranks go from ∂_d down to ∂_0 with clearing, over this one field
    throughout.  A pivot of ∂_{k+1} keyed at row r is a reduced column, so
    a k-cycle whose lowest row is r; from the highest such r down, column
    r of ∂_k is therefore a combination of the columns not cleared, and
    dropping the cleared ones keeps the rank.
    """
    check_field(field)
    if x.is_empty_complex:
        raise EmptyInput("betti numbers of the empty complex are not defined here")
    d = x.dimension
    f = [len(x.faces(k)) for k in range(d + 1)]
    ranks = [0] * (d + 2)
    cleared: set[int] = set()
    for k in range(d, -1, -1):
        cols = oracle_boundary_columns(x, k)
        cleared = _pivot_rows([c for i, c in enumerate(cols) if i not in cleared], field)
        ranks[k] = len(cleared)
    return tuple(f[k] - ranks[k] - ranks[k + 1] for k in range(d + 1))


def test_reduction_matches_clearing_betti(differential_complexes):
    # `clearing_betti` is `betti` before it reduced first, kept verbatim
    for x in differential_complexes:
        for p in (0, 2, 3, 5):
            assert betti(x, p) == clearing_betti(x, p), (x.facets, p)


def test_betti_of_the_largest_fixtures():
    for name, want in (("s6_19", (0,) * 6 + (1,)), ("d7_19", (0,) * 8),
                       ("s5_18", (0,) * 5 + (1,))):
        x = fixture(name).complex
        for p in (0, 2, 3):
            assert betti(x, p) == clearing_betti(x, p) == want, (name, p)


def test_reduction_runs_on_the_facet_masks():
    # ∂Δ^{d+1} reduces to one d-cell and the simplex Δ^d to nothing
    for d in range(0, 6):
        sphere = standard_sphere(d)
        assert [len(c) for c in _reduce(_face_lattice(sphere._facet_masks))] == [0] * (d + 1) + [1]
        assert betti(sphere, 0) == (0,) * d + (1,)
        assert not any(_reduce(_face_lattice(standard_ball(d)._facet_masks)))
    rng = random.Random(5)
    for dim in (1, 2, 3, 4):
        ball, _ = grow_shelled_ball(dim, rng.randrange(1, dim + 1), rng.randrange(0, 12), rng)
        assert not any(_reduce(_face_lattice(ball._facet_masks))), ball.facets
    # generators that are faces of others, repeated or not, and ∅ change
    # nothing: tightness reduces the generators g & A of an induced
    # subcomplex, which are such
    for x in [standard_sphere(3), Complex(RP2), klee_novik(1, 2)]:
        masks = list(x._facet_masks)
        extra = [g & rng.getrandbits(len(x.vertices)) for g in masks for _ in range(2)]
        extra += [0, masks[0], masks[0] & -masks[0]]
        for p in (0, 2):
            want = _residual_betti(_reduce(_face_lattice(masks)), p)
            assert _residual_betti(_reduce(_face_lattice(masks + extra)), p) == want, (x.facets, p)
            assert _residual_betti(_reduce(_face_lattice(extra[::-1] + masks)), p) == want, (x.facets, p)


def test_betti_and_the_screens_share_one_lattice(monkeypatch, ziegler_b2):
    # `betti` builds x's lattice and the sphere screen reduces that same
    # lattice; on a ball, `collapse` reads it too, and the ball screen
    # builds only its boundary's lattice besides.  The screens never
    # collapse.
    real, built, reduced = complexes_module._face_lattice, [], []

    def spy_lattice(generators):
        built.append(tuple(generators))
        return real(built[-1])

    def spy_reduce(lattice, inside=None):
        reduced.append(lattice)
        return _reduce(lattice, inside)

    def spy_collapse(lattice):
        raise AssertionError("a screen collapsed")

    monkeypatch.setattr(complexes_module, "_face_lattice", spy_lattice)
    monkeypatch.setattr(homology_module, "_reduce", spy_reduce)
    monkeypatch.setattr(homology_module, "_collapses_to_point", spy_collapse)
    rp2 = Complex(RP2)
    assert betti(rp2, 2) == (0, 1, 1)
    assert not screen_homology_sphere(rp2).passed
    assert built == [rp2._facet_masks]
    assert len(reduced) == 2 and reduced[0] is reduced[1] is rp2._lattice
    ball = Complex(ziegler_b2.facets)
    built.clear()
    reduced.clear()
    assert not any(betti(ball, 2))
    assert screen_homology_ball(ball).passed
    assert collapse(ball).proved  # `certify` holds its own `_collapses_to_point`
    bd = ball.boundary()
    assert built == [ball._facet_masks, bd._facet_masks]
    assert len(reduced) == 3 and reduced[0] is reduced[1] is ball._lattice
    assert reduced[2] == real(bd._facet_masks)  # `boundary` is not cached


def test_clearing_matches_all_columns_betti(differential_complexes):
    # the reference chain: `betti` against `clearing_betti` above, and
    # `clearing_betti` against the elimination of every column here
    for x in differential_complexes:
        for p in (0, 2, 3, 5):
            assert clearing_betti(x, p) == all_columns_betti(x, p), (x.facets, p)


def test_clearing_sets_are_taken_per_field():
    # the ten triangles of RP² are independent over Q and sum to a cycle
    # over F2, so the two fields reduce ∂_2 to different pivots; in the
    # cone over RP² (apex 0, first in the face order) the rows that ∂_3's
    # pivots clear over Q are not the lowest rows of F2-cycles, and
    # clearing ∂_2 with them over F2 reads the contractible cone as having
    # β̃_1 = β̃_2 = 1.  Both orders of calls must give each field its own
    # answer, with and without the reduction (which takes the cone away).
    rp = from_facets(RP2)
    cone = from_facets([t + (0,) for t in RP2])
    for x, over_q, over_f2 in ((rp, (0, 0, 0), (0, 1, 1)), (cone, (0,) * 4, (0,) * 4)):
        for fn in (betti, clearing_betti):
            assert [fn(x, 0), fn(x, 2)] == [over_q, over_f2]
            assert [fn(x, 2), fn(x, 0)] == [over_f2, over_q]
        for p in (0, 2):
            assert betti(x, p) == all_columns_betti(x, p)


def test_betti_of_standard_spheres():
    for d in range(0, 4):
        expected = tuple([0] * d + [1])
        assert betti(standard_sphere(d), 0) == expected
        assert betti(standard_sphere(d), 2) == expected


def test_betti_matches_oracle_on_random_complexes():
    rng = random.Random(99)
    for _ in range(12):
        dim = rng.choice([2, 3])
        ball, _ = grow_shelled_ball(dim, 2, rng.randrange(1, 5), rng)
        target = ball if rng.random() < 0.5 else ball.boundary()
        for p in (0, 2, 3):
            assert betti(target, p) == oracle_betti(target, p)


def test_betti_matches_oracle_on_projective_plane():
    rp = from_facets(RP2)
    for p in (0, 2, 3, 5):
        assert betti(rp, p) == oracle_betti(rp, p)
    assert betti(rp, 2) == (0, 1, 1)
    assert betti(rp, 0) == (0, 0, 0)


def test_poincare_sphere_betti_over_several_fields(sigma):
    for p in (0, 2, 3, 5):
        assert betti(sigma, p) == (0, 0, 0, 1)


def test_torus_betti():
    torus = klee_novik(1, 2)
    assert betti(torus, 0) == (0, 2, 1)
    assert betti(torus, 2) == (0, 2, 1)


def test_field_validation():
    with pytest.raises(ValueError):
        check_field(6)
    with pytest.raises(FieldTooLarge):
        check_field(2**31 + 11)
    assert check_field(0) == 0
    assert check_field(101) == 101


def test_betti_rejects_empty():
    from sx.complexes import Complex

    with pytest.raises(EmptyInput):
        betti(Complex.empty(), 0)


def test_euler_characteristics(dfm, sigma):
    assert euler_characteristic(dfm) == 0
    assert euler_characteristic(sigma) == 0
    for d in (1, 2, 3, 4):
        assert euler_characteristic(standard_ball(d)) == 1


def test_euler_poincare_identity():
    rng = random.Random(4)
    for _ in range(10):
        ball, _ = grow_shelled_ball(rng.choice([2, 3]), 2, rng.randrange(1, 5), rng)
        x = ball if rng.random() < 0.5 else ball.boundary()
        for p in DEFAULT_FIELDS:
            b = betti(x, p)
            assert 1 + sum((-1) ** i * v for i, v in enumerate(b)) == x.euler_characteristic


def test_join_of_spheres_betti():
    for a in (0, 1, 2):
        for b in (0, 1, 2):
            x = standard_sphere(a)
            y = standard_sphere(b, labels=[f"y{i}" for i in range(b + 2)])
            z = x.join(y)
            assert betti(z, 0) == tuple([0] * (a + b + 1) + [1])


def test_sphere_screen(dfm):
    assert screen_homology_sphere(dfm, (0, 2, 3)).passed
    torus = klee_novik(1, 2)
    verdict = screen_homology_sphere(torus, (0,))
    assert not verdict.passed
    assert "betti" in verdict.detail


def test_ball_screen_implies_boundary_sphere_screen(ziegler_b2):
    assert screen_homology_ball(ziegler_b2, (0, 2)).passed
    assert screen_homology_sphere(ziegler_b2.boundary(), (0, 2)).passed
    rng = random.Random(8)
    for _ in range(8):
        ball, _ = grow_shelled_ball(rng.choice([2, 3]), 2, rng.randrange(1, 5), rng)
        if screen_homology_ball(ball).passed:
            assert screen_homology_sphere(ball.boundary()).passed


def test_field_independence_on_fixture_spheres():
    for name in ("ziegler_s3_10", "lutz_s3_8", "ziegler_s2_10", "lutz_s2_8"):
        c = fixture(name).complex
        values = {betti(c, p) for p in (0, 2, 3, 5)}
        assert len(values) == 1


def test_sparse_rank_agrees_with_fraction_oracle_on_random_matrices():
    # the production elimination is exercised beyond boundary-matrix shapes

    def dense_rank(mat, p):
        rows = [list(r) for r in mat]
        if p:
            rows = [[v % p for v in r] for r in rows]
        else:
            rows = [[Fraction(v) for v in r] for r in rows]
        rank = 0
        for c in range(len(rows[0])):
            piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            inv = pow(rows[rank][c], p - 2, p) if p else Fraction(1) / rows[rank][c]
            rows[rank] = [v * inv % p if p else v * inv for v in rows[rank]]
            for i in range(len(rows)):
                if i != rank and rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [
                        (a - f * b) % p if p else a - f * b
                        for a, b in zip(rows[i], rows[rank])
                    ]
            rank += 1
        return rank

    rng = random.Random(1234)
    for _ in range(40):
        n, m = rng.randrange(1, 9), rng.randrange(1, 9)
        mat = [[rng.randrange(-4, 5) for _ in range(m)] for _ in range(n)]
        cols = [
            {i: mat[i][j] for i in range(n) if mat[i][j]} for j in range(m)
        ]
        for p in (0, 2, 5):
            assert len(_pivot_rows(cols, p)) == dense_rank(mat, p), (mat, p)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.frozensets(st.integers(0, 7), min_size=1, max_size=5), min_size=1, max_size=10),
    st.sampled_from([0, 2, 3, 5]),
)
@example([frozenset(f) for f in RP2], 2)
def test_betti_matches_oracle_property(facets, p):
    x = from_facets(facets)
    assert betti(x, p) == oracle_betti(x, p)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.frozensets(st.integers(0, 7), min_size=1, max_size=4), min_size=1, max_size=8),
    st.integers(1, 3),
    st.integers(0, 10),
    st.integers(0, 2**32),
    st.sampled_from([0, 2, 3, 5]),
)
@example([frozenset(f) for f in RP2], 2, 0, 0, 2)
def test_suspension_shifts_and_cone_kills_betti_property(facets, dim, steps, seed, p):
    # definition-level checks, with no reference eliminator: β̃_{k+1} of
    # the suspension x ∗ S⁰ is β̃_k of x, and β̃_0 of it is 0; a cone is
    # acyclic
    rng = random.Random(seed)
    ball, _ = grow_shelled_ball(dim, rng.randrange(1, dim + 1), steps, rng)
    sphere, _ = grow_stellated_sphere(dim, rng.randrange(1, dim + 2), steps, rng)
    for x in (from_facets(facets), ball, ball.boundary(), sphere):
        b = betti(x, p)
        assert betti(x.join(from_facets([[100], [101]])), p) == (0,) + b
        assert betti(x.join(from_facets([[100]])), p) == (0,) * (len(b) + 1)


def test_homology_screen_of_largest_fixture():
    from sx.corpus import fixture

    s619 = fixture("s6_19").complex
    assert s619.f_vector() == (19, 157, 599, 1235, 1481, 987, 282)
    assert screen_homology_sphere(s619, (0, 2, 3)).passed


# -- the screens on one reduction against the elimination-only screens ----------


def elimination_screen_sphere(x, fields=DEFAULT_FIELDS):
    """`screen_homology_sphere` before it collapsed first: `betti` over
    every field.  Kept verbatim as the reference."""
    fields = tuple(fields)
    cls = x.classify()
    if not (cls.normal_pseudomanifold and cls.closed):
        return ScreenVerdict(False, "sphere-screen", fields, "not a closed normal pseudomanifold")
    for f in fields:
        b = betti(x, f)
        if not _sphere_like(b):
            return ScreenVerdict(
                False, "sphere-screen", fields,
                f"reduced betti over {field_name(f)} is {list(b)}",
            )
    return ScreenVerdict(True, "sphere-screen", fields)


def elimination_screen_ball(x, fields=DEFAULT_FIELDS):
    """`screen_homology_ball` before it collapsed first.  Kept verbatim as
    the reference."""
    fields = tuple(fields)
    cls = x.classify()
    if not cls.normal_pseudomanifold:
        return ScreenVerdict(False, "ball-screen", fields, "not a normal pseudomanifold")
    bd = x.boundary()
    if bd.is_empty_complex:
        return ScreenVerdict(False, "ball-screen", fields, "boundary is empty")
    for f in fields:
        b = betti(x, f)
        if not _point_like(b):
            return ScreenVerdict(
                False, "ball-screen", fields,
                f"reduced betti over {field_name(f)} is {list(b)}",
            )
    if bd.dimension == 0:
        # boundary of a 1-ball: two points
        if len(bd.vertices) == 2:
            return ScreenVerdict(True, "ball-screen", fields)
        return ScreenVerdict(False, "ball-screen", fields, "0-dimensional boundary is not two points")
    inner = elimination_screen_sphere(bd, fields)
    if not inner.passed:
        return ScreenVerdict(False, "ball-screen", fields, f"boundary: {inner.detail}")
    return ScreenVerdict(True, "ball-screen", fields)


def _screen_record(v):
    return (v.passed, v.kind, v.fields, v.detail, v.render_note())


def _assert_screens_match(x, fields):
    for new, old in ((screen_homology_sphere, elimination_screen_sphere),
                     (screen_homology_ball, elimination_screen_ball)):
        assert _screen_record(new(x, fields)) == _screen_record(old(x, fields)), (
            new.__name__, x.facets, fields)


def test_screens_on_one_reduction_match_the_elimination_screens(differential_complexes):
    # the cone over RP² is acyclic and its boundary RP² does not screen as
    # a sphere, so the ball screen fails at the boundary; the cone over the
    # pinched torus is not normal (the link of its apex-pinch edge is two
    # circles).  RP² minus a triangle, a Möbius band, is a normal surface
    # with boundary that does not collapse to a point.
    rp2, pinched = differential_complexes[:2]
    cones = [from_facets([f + (0,) for f in surface.facets]) for surface in (rp2, pinched)]
    inputs = list(differential_complexes) + cones + [from_facets(RP2[1:])]
    inputs += [x.boundary() for x in inputs
               if x.is_weak_pseudomanifold and not x.classify().closed]
    verdicts = {(screen, passed): 0 for screen in ("sphere", "ball") for passed in (True, False)}
    for i, x in enumerate(inputs):
        fields = DEFAULT_FIELDS if i % 2 else (2, 0, 5)
        _assert_screens_match(x, fields)
        verdicts["sphere", screen_homology_sphere(x, fields).passed] += 1
        verdicts["ball", screen_homology_ball(x, fields).passed] += 1
    assert min(verdicts.values()) >= 5, verdicts


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 12),
    st.integers(0, 2**32),
    st.lists(st.sampled_from([0, 2, 3, 5, 7]), min_size=1, max_size=3, unique=True),
)
def test_screens_on_one_reduction_match_property(dim, k, steps, seed, fields):
    rng = random.Random(seed)
    ball, _ = grow_shelled_ball(dim, min(k, dim), steps, rng)
    sphere, _ = grow_stellated_sphere(dim, min(k, dim + 1), steps, rng)
    for x in (ball, ball.boundary(), sphere):
        _assert_screens_match(x, tuple(fields))


def test_screens_on_one_reduction_reject_a_bad_field_like_betti(ziegler_b2):
    # ziegler_b2 passes over every valid field; the screen still validates
    # every listed field
    for screen, oracle in ((screen_homology_ball, elimination_screen_ball),
                           (screen_homology_sphere, elimination_screen_sphere)):
        x = ziegler_b2 if screen is screen_homology_ball else ziegler_b2.boundary()
        for fields, error in (((0, 4), ValueError), ((2, 2**31 + 11), FieldTooLarge)):
            with pytest.raises(error):
                oracle(x, fields)
            with pytest.raises(error):
                screen(x, fields)


def test_homology_sphere_minus_a_facet_does_not_collapse(sigma):
    # π₁ of the Poincaré sphere survives deleting a 3-cell, so no facet's
    # removal leaves a contractible complex; the sphere screen still passes
    masks = sigma._facet_masks
    for i in range(len(masks)):
        assert not _collapses_to_point(_face_lattice(masks[:i] + masks[i + 1:]))
    assert screen_homology_sphere(sigma).passed


def test_grown_shelled_balls_collapse():
    rng = random.Random(21)
    for dim in (1, 2, 3, 4):
        for _ in range(5):
            ball, _ = grow_shelled_ball(dim, rng.randrange(1, dim + 1), rng.randrange(0, 12), rng)
            assert _collapses_to_point(_face_lattice(ball._facet_masks)), ball.facets
            assert _collapses_to_point(_face_lattice(ball.boundary()._facet_masks[1:])), ball.facets


def test_collapse_of_points_and_disconnected_complexes():
    assert _collapses_to_point(_face_lattice([0b1])) == ([], 0b1)
    assert not _collapses_to_point(_face_lattice([0b1, 0b10]))
    assert _collapses_to_point(_face_lattice([0b11, 0b110]))
    assert not _collapses_to_point(_face_lattice([0b11, 0b110, 0b101]))  # a circle
    assert not _collapses_to_point(_face_lattice([0b11, 0b1100]))


# -- the collapse on the face lattice against the coface-dict collapse -----------


def oracle_collapses_to_point(facets) -> tuple[list[tuple[int, int]], int] | None:
    """`homology._collapses_to_point` before it ran on the face lattice:
    greedy elementary collapses of the complex generated by the facet
    bitmasks, (steps, vertex) when they take it down to one vertex, else
    None.  Kept verbatim below this paragraph as the reference.

    Top-down by dimension: a face of the top size is removed together with
    a free face below it, one that lies in no other face of that size, the
    free faces taken first in, first out from a queue that holds each with
    its coface set; once no face of the top size is left, the faces one
    size smaller are the top.  steps lists the (free face, coface) mask
    pairs in the order removed, and vertex is the mask of the vertex left.
    Each step is a homotopy equivalence, so a result means the complex is
    contractible; a tuple is truthy even with no steps.  None means only
    that this order got stuck.
    """
    by_size: dict[int, list[int]] = {}
    for g in facets:
        by_size.setdefault(g.bit_count(), []).append(g)
    steps: list[tuple[int, int]] = []
    top: set[int] = set()
    for size in range(max(by_size), 1, -1):
        top.update(by_size.get(size, ()))
        cofaces: dict[int, set[int]] = {}
        for t in top:
            b = t
            while b:
                low = b & -b
                ts = cofaces.get(t ^ low)
                if ts is None:
                    cofaces[t ^ low] = {t}
                else:
                    ts.add(t)
                b ^= low
        queue = deque(f for f, ts in cofaces.items() if len(ts) == 1)
        while queue:
            f = queue.popleft()
            ts = cofaces[f]
            if len(ts) != 1:  # its one coface went with another free face
                continue
            t = ts.pop()
            del cofaces[f]
            top.discard(t)
            steps.append((f, t))
            b = f
            while b:
                low = b & -b
                ts = cofaces[t ^ low]
                ts.discard(t)
                if len(ts) == 1:
                    queue.append(t ^ low)
                b ^= low
        if top:
            return None
        top = set(cofaces)
    top.update(by_size.get(1, ()))
    if len(top) != 1:
        return None
    return steps, top.pop()


def _witness(c: Complex, result) -> dict:
    steps, vertex = result

    def labels(mask):
        return [c.vertices[i] for i in _bits(mask)]

    return {"collapse_steps": [[labels(f), labels(t)] for f, t in steps],
            "final_vertex": labels(vertex)}


def test_lattice_collapse_matches_the_dict_collapse(differential_complexes):
    # same verdict as the reference on every input, and each new witness
    # replays: the comparison inputs with their boundaries, grown balls of
    # dimension 1-5 with their boundaries minus a facet, and the Poincaré
    # sphere minus each facet, none of which collapses
    rng = random.Random(1656)
    inputs = list(differential_complexes)
    inputs += [x.boundary() for x in differential_complexes
               if x.is_weak_pseudomanifold and not x.classify().closed]
    for dim in range(1, 6):
        for _ in range(3):
            ball, _ = grow_shelled_ball(dim, rng.randrange(1, dim + 1), rng.randrange(0, 10), rng)
            rim = ball.boundary().facets
            i = rng.randrange(len(rim))
            inputs += [ball, Complex(rim[:i] + rim[i + 1:])]
    sigma = fixture("bl_sigma3_16").complex.facets
    inputs += [Complex(sigma[:i] + sigma[i + 1:]) for i in range(len(sigma))]
    verdicts = {True: 0, False: 0}
    for c in inputs:
        if c.is_empty_complex:
            continue
        new = _collapses_to_point(c._lattice)
        assert bool(new) == bool(oracle_collapses_to_point(c._facet_masks)), c.facets
        assert new is None or collapse_replays(c, _witness(c, new)), c.facets
        verdicts[new is not None] += 1
    assert min(verdicts.values()) >= 50, verdicts
