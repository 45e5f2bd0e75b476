"""Generators: closures, the sign-change family, sums, and the pipeline."""

import itertools
import random
from math import comb

import pytest

from sx import Complex, from_facets, standard_ball, standard_sphere
from sx.certify import is_k_stacked_ball
from sx.constructions import (
    canonical_matching,
    clique_closure,
    connected_sum,
    double_suspension_pipeline,
    klee_novik,
    klee_novik_automorphisms,
    klee_novik_bar,
    sign_changes,
    stacked_ball_closure,
    stacked_manifold_closure,
    vertex_ball,
)
from sx.corpus import fixture
from sx.errors import BadMatching, BadParameters, NotFacet, UnknownVertex, VertexClash
from sx.growth import grow_stacked_sphere
from sx.homology import betti
from sx.symmetry import is_automorphism


def cross_polytope(d):
    c = standard_sphere(0, ("x1", "y1"))
    for i in range(2, d + 2):
        c = c.join(standard_sphere(0, (f"x{i}", f"y{i}")))
    return c


def oracle_subset_closure(s, size):
    verts = list(s.vertices)
    member = []
    for r in range(1, len(verts) + 1):
        for cand in itertools.combinations(verts, r):
            if all(
                s.has_face(sub)
                for m in range(1, min(size, len(cand)) + 1)
                for sub in itertools.combinations(cand, m)
            ):
                member.append(frozenset(cand))
    return Complex(member)


# -- vertex balls -----------------------------------------------------------------


def test_vertex_ball_of_standard_sphere():
    assert vertex_ball(standard_sphere(2), 1) == standard_ball(3)


def test_vertex_ball_of_dfm(dfm):
    for x in (0, 7):
        ball = vertex_ball(dfm, x)
        assert ball.boundary() == dfm
        assert ball.vertex_set == dfm.vertex_set
        ast = dfm.antistar(x)
        assert len(ball.facet_sets) == len(ast.facet_sets)


def test_vertex_ball_unknown_vertex(dfm):
    with pytest.raises(UnknownVertex):
        vertex_ball(dfm, 99)


# -- clique-style closures ------------------------------------------------------------


def test_closure_matches_subset_oracle():
    rng = random.Random(14)
    for _ in range(10):
        s = grow_stacked_sphere(rng.choice([2, 3]), rng.randrange(1, 5), rng)
        for size in (2, 3):
            assert clique_closure(s, size) == oracle_subset_closure(s, size)


def oracle_levelwise_closure(x, size):
    """The former `clique_closure`: levelwise on frozensets from the
    (size-1)-skeleton upward, extending each set by every vertex."""
    maximal: set = set(x.facet_sets)
    current = set(x.faces(size - 1))
    while current:
        nxt: set = set()
        extendable: set = set()
        for a in current:
            for v in x.vertices:
                if v in a:
                    continue
                cand = a | {v}
                if cand in nxt:
                    extendable.add(a)
                    continue
                if all((cand - {u}) in current for u in cand):
                    nxt.add(cand)
                    extendable.add(a)
        maximal.update(current - extendable)
        current = nxt
    return Complex(maximal)


def test_mask_closure_matches_the_levelwise_oracle(differential_complexes):
    # every size from 1 to d+1, except sizes 1 and 2 on more than 12
    # vertices, where the closure can be the full simplex on 16 to 19
    checked = 0
    for x in differential_complexes:
        for size in range(1, x.dimension + 2):
            if size <= 2 and len(x.vertices) > 12:
                continue
            assert clique_closure(x, size) == oracle_levelwise_closure(x, size), (x.facets, size)
            checked += 1
    assert checked >= 470


def test_closure_of_cross_polytope_is_itself():
    for d in (1, 2, 3):
        c = cross_polytope(d)
        for k in (1, 2):
            assert stacked_ball_closure(c, k) == c


def test_zero_closure_of_standard_sphere_is_ball():
    for d in (1, 2, 3):
        s = standard_sphere(d)
        assert stacked_ball_closure(s, 0) == standard_ball(d + 1, labels=range(1, d + 3))


def test_closure_idempotent():
    rng = random.Random(15)
    for _ in range(8):
        s = grow_stacked_sphere(rng.choice([2, 3]), rng.randrange(1, 5), rng)
        once = stacked_ball_closure(s, 1)
        assert stacked_ball_closure(once, 1) == once


def test_closure_preserves_low_skeleton():
    rng = random.Random(16)
    for _ in range(8):
        s = grow_stacked_sphere(3, rng.randrange(1, 5), rng)
        closed = stacked_ball_closure(s, 1)
        for m in range(0, 2):
            assert closed.faces(m) == s.faces(m)


def test_manifold_closure_small_cases():
    stacked4 = from_facets([[1, 2, 3, 4, 5], [2, 3, 4, 5, 6]]).boundary()
    ball = stacked_manifold_closure(stacked4, 1)
    assert ball == from_facets([[1, 2, 3, 4, 5], [2, 3, 4, 5, 6]])
    assert stacked_manifold_closure(cross_polytope(3), 1) == cross_polytope(3)


def test_manifold_closure_recovers_bar_complexes():
    for k, d in ((0, 2), (0, 3), (1, 4)):
        assert stacked_manifold_closure(klee_novik(k, d), k) == klee_novik_bar(k, d)


# -- the sign-change family ------------------------------------------------------------


def test_sign_changes():
    assert sign_changes([True, True, False, True]) == 2
    assert sign_changes([True] * 5) == 0


def test_bar_facet_counts_closed_form():
    for d in range(0, 7):
        for k in range(0, d + 1):
            got = len(klee_novik_bar(k, d).facet_sets)
            assert got == 2 * sum(comb(d + 1, j) for j in range(k + 1))


def test_bar_top_parameter_gives_near_full_cross_polytope():
    for d in (1, 2, 3):
        got = len(klee_novik_bar(d, d).facet_sets)
        assert got == 2 * (2 ** (d + 1) - 1)


def test_klee_novik_small_shape():
    mb = klee_novik_bar(1, 3)
    assert len(mb.facet_sets) == 10 and len(mb.vertices) == 10
    m = klee_novik(1, 3)
    assert len(m.vertices) == 10
    assert betti(m, 0) == (0, 1, 1, 1)


def test_klee_novik_zero_is_two_spheres():
    m = klee_novik(0, 2)
    assert betti(m, 0) == (1, 0, 2)
    assert not m.is_connected


def test_klee_novik_bad_parameters():
    with pytest.raises(BadParameters):
        klee_novik_bar(3, 2)
    with pytest.raises(BadParameters):
        klee_novik_automorphisms(-1, 2)


def test_named_permutations_are_automorphisms():
    for k, d in ((1, 2), (1, 3), (2, 4), (2, 5)):
        m = klee_novik(k, d)
        mb = klee_novik_bar(k, d)
        perms = klee_novik_automorphisms(k, d)
        for name in ("D", "E", "R"):
            assert is_automorphism(m, perms[name])
            assert is_automorphism(mb, perms[name])
        assert is_automorphism(m, perms["A"]) == (d == 2 * k)
        assert not is_automorphism(mb, perms["A"])


def test_involution_a_swaps_parameters():
    for k, d in ((1, 3), (1, 4)):
        m = klee_novik(k, d)
        a = klee_novik_automorphisms(k, d)["A"]
        assert m.rename(a) == klee_novik(d - k, d)


# -- connected sums --------------------------------------------------------------------


def test_connected_sum_of_spheres():
    x = standard_sphere(2)
    y = standard_sphere(2, labels=(5, 6, 7, 8))
    fx, fy = x.facets[-1], y.facets[-1]
    s = connected_sum(x, y, fx, fy, canonical_matching(x, fx, y, fy))
    assert len(s.vertices) == 5
    assert len(s.facet_sets) == 6
    assert s.classify().closed


def test_connected_sum_facet_count():
    rng = random.Random(20)
    for _ in range(6):
        d = rng.choice([2, 3])
        x = grow_stacked_sphere(d, rng.randrange(1, 4), rng)
        y = grow_stacked_sphere(d, rng.randrange(1, 4), rng)
        y = y.rename({v: f"q{v}" for v in y.vertices})
        fx, fy = x.facets[0], y.facets[0]
        s = connected_sum(x, y, fx, fy, canonical_matching(x, fx, y, fy))
        assert len(s.facet_sets) == len(x.facet_sets) + len(y.facet_sets) - 2


def test_connected_sum_of_balls_along_boundary_facet(lutz_b2):
    ball = lutz_b2.join(standard_ball(2, ("a", "b", "c")))
    other = ball.rename({v: f"{v}p" for v in ball.vertices})
    glued_face = tuple(sorted((2, 4, 5), key=str)) + ("a", "b", "c")
    matching = {v: f"{v}p" for v in glued_face}
    out = connected_sum(ball, other, glued_face, tuple(f"{v}p" for v in glued_face), matching)
    assert len(out.vertices) == 16
    assert len(out.facet_sets) == 30
    assert is_k_stacked_ball(out, 2).proved


def test_connected_sum_errors():
    x = standard_sphere(2)
    y = standard_sphere(2, labels=(5, 6, 7, 8))
    with pytest.raises(NotFacet):
        connected_sum(x, y, (1, 2), (5, 6), {1: 5, 2: 6})
    fx, fy = x.facets[0], y.facets[0]
    with pytest.raises(BadMatching):
        connected_sum(x, y, fx, fy, {fx[0]: fy[0]})
    with pytest.raises(VertexClash):
        connected_sum(x, x, fx, fx, {v: v for v in fx})


# -- pipeline ------------------------------------------------------------------------------


def test_pipeline_shapes():
    named = double_suspension_pipeline()
    assert named["d4_16"].dimension == 4
    assert len(named["d4_16"].vertices) == 16
    assert named["d6_18"].dimension == 6
    assert named["s5_18"].dimension == 5
    assert named["d7_19"].dimension == 7
    assert named["s6_19"].dimension == 6
    assert named["d6_18"].boundary() == named["s5_18"]
    assert named["d7_19"].boundary() == named["s6_19"]


def test_pipeline_edge_link_is_poincare_sphere(sigma):
    s5 = fixture("s5_18").complex
    assert s5.link(("a", "b")) == sigma


def test_pipeline_d6_is_two_stacked():
    assert is_k_stacked_ball(fixture("d6_18").complex, 2).proved


def test_involution_a_sends_bar_complex_to_complement():
    # A carries the bar complex onto the complement of the swapped-parameter
    # bar complex inside the full cross-polytope sphere
    for k, d in ((1, 2), (1, 3)):
        mb = klee_novik_bar(k, d)
        a = klee_novik_automorphisms(k, d)["A"]
        full = cross_polytope(d + 1)
        image = mb.rename(a)
        other = klee_novik_bar(d - k, d)
        assert image.facet_sets == (full.facet_sets - other.facet_sets)
