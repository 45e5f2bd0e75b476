"""Generators: cones over antistars, clique-style closures, Klee-Novik
manifolds, connected sums, and the double-suspension pipeline.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable

from .complexes import Complex, Label, _bits
from .errors import BadDimension, BadMatching, BadParameters, NotFacet, UnknownVertex, VertexClash
from .moves import standard_ball, standard_sphere

__all__ = [
    "vertex_ball",
    "clique_closure",
    "stacked_ball_closure",
    "stacked_manifold_closure",
    "sign_changes",
    "klee_novik_bar",
    "klee_novik",
    "klee_novik_automorphisms",
    "cross_polytope",
    "connected_sum",
    "double_suspension_pipeline",
]


def vertex_ball(s: Complex, x: Label) -> Complex:
    """The cone over the antistar of x: a ball with the same vertex set as s.

    For a homology sphere s this is the ball slicing construction behind
    top-degree stackedness: its boundary is s itself.
    """
    if x not in s.vertex_set:
        raise UnknownVertex(f"unknown vertex: {x}")
    ast = s.antistar(x)
    return Complex(f | {x} for f in ast.facet_sets)


def clique_closure(x: Complex, size: int) -> Complex:
    """All vertex sets whose subsets of size <= ``size`` are faces of x.

    Computed levelwise on vertex bitmasks from the faces with ``size``
    vertices upward: a set joins the next level when all its subsets one
    vertex smaller are in the current one, and it is reached only from
    itself minus its highest vertex; never enumerates all 2^n subsets.
    """
    if size < 1:
        raise ValueError("closure size must be >= 1")
    n = len(x.vertices)
    maximal = set(x._facet_masks)
    current = set(x._lattice.of_size(size))
    while current:
        nxt = {
            a | 1 << i
            for a in current
            for i in range(a.bit_length(), n)
            if all((a ^ 1 << j) | 1 << i in current for j in _bits(a))
        }
        maximal.update(current - {c ^ 1 << j for c in nxt for j in _bits(c)})
        current = nxt
    return Complex(map(x._labels, maximal))


def stacked_ball_closure(s: Complex, k: int) -> Complex:
    """Murai-Nevo reconstruction of the ball bounded by a k-stacked sphere:
    vertex sets all of whose subsets of size <= k+1 are faces of s.

    No sphere or ball judgment is made here; for spheres of dimension
    >= 2k the result is the unique candidate ball.
    """
    return clique_closure(s, k + 1)


def stacked_manifold_closure(m: Complex, k: int) -> Complex:
    """Manifold analogue of the ball closure (subsets of size <= k+2).

    Intended for closed complexes of dimension >= 2k+2, where the result
    is the unique k-stacked bounding manifold; smaller dimensions are
    accepted but carry no uniqueness guarantee.
    """
    return clique_closure(m, k + 2)


# -- Klee-Novik construction ---------------------------------------------------


def sign_changes(seq: Iterable[bool]) -> int:
    seq = list(seq)
    return sum(1 for i in range(len(seq) - 1) if seq[i] != seq[i + 1])


def _kn_labels(d: int) -> tuple[list[str], list[str]]:
    xs = [f"x{i}" for i in range(1, d + 3)]
    ys = [f"y{i}" for i in range(1, d + 3)]
    return xs, ys


def klee_novik_bar(k: int, d: int) -> Complex:
    """The (d+1)-dimensional sign-change complex on 2d+4 vertices.

    Facets correspond to the sign sequences of length d+2 with at most k
    sign changes inside the join of d+2 point pairs; there are
    2 * sum_{j<=k} C(d+1, j) of them.
    """
    if d < 0 or not 0 <= k <= d:
        raise BadParameters(f"need 0 <= k <= d, got k={k}, d={d}")
    xs, ys = _kn_labels(d)
    facets = []
    for bits in itertools.product((True, False), repeat=d + 2):
        if sign_changes(bits) <= k:
            facets.append(frozenset(xs[i] if b else ys[i] for i, b in enumerate(bits)))
    return Complex(facets)


def klee_novik(k: int, d: int) -> Complex:
    """Boundary of the sign-change complex: a triangulated sphere product."""
    return klee_novik_bar(k, d).boundary()


def klee_novik_automorphisms(k: int, d: int) -> dict[str, dict]:
    """The four named vertex permutations of the sign-change construction.

    D swaps every pair, E reverses the index order, R rotates indices
    (one long cycle when k is odd), and A swaps the even-index pairs.
    D, E and R are automorphisms of the bar complex and of its boundary.
    A maps the boundary M(k, d) onto M(d-k, d), so it is an automorphism
    of the boundary only when d = 2k, and it does not preserve the bar
    complex.
    """
    if d < 0 or not 0 <= k <= d:
        raise BadParameters(f"need 0 <= k <= d, got k={k}, d={d}")
    xs, ys = _kn_labels(d)
    n = d + 2
    dd = {}
    for i in range(n):
        dd[xs[i]] = ys[i]
        dd[ys[i]] = xs[i]
    e = {}
    for i in range(n):
        e[xs[i]] = xs[n - 1 - i]
        e[ys[i]] = ys[n - 1 - i]
    r = {}
    if k % 2 == 0:
        for i in range(n):
            r[xs[i]] = xs[(i + 1) % n]
            r[ys[i]] = ys[(i + 1) % n]
    else:
        for i in range(n - 1):
            r[xs[i]] = xs[i + 1]
            r[ys[i]] = ys[i + 1]
        r[xs[n - 1]] = ys[0]
        r[ys[n - 1]] = xs[0]
    a = {}
    for i in range(n):
        # pairs are indexed 1..d+2; "even" refers to that printed index
        if (i + 1) % 2 == 0:
            a[xs[i]] = ys[i]
            a[ys[i]] = xs[i]
        else:
            a[xs[i]] = xs[i]
            a[ys[i]] = ys[i]
    return {"D": dd, "E": e, "R": r, "A": a}


def cross_polytope(d: int) -> Complex:
    """Boundary of the (d+1)-dimensional cross-polytope: the d-sphere that
    joins the d+1 point pairs x_i, y_i."""
    if d < 0:
        raise BadDimension("cross-polytope dimension must be >= 0")
    c = standard_sphere(0, ("x1", "y1"))
    for i in range(2, d + 2):
        c = c.join(standard_sphere(0, (f"x{i}", f"y{i}")))
    return c


# -- connected sums ---------------------------------------------------------


def _boundary_facet(x: Complex, f: frozenset) -> bool:
    return any(frozenset(g) - {v} == f for g, v in x._rim())


def connected_sum(
    x: Complex,
    y: Complex,
    fx: Iterable[Label],
    fy: Iterable[Label],
    matching: dict,
) -> Complex:
    """Glue x and y by identifying fx with fy through ``matching``.

    When fx and fy are facets they are dropped from the union: the usual
    connected sum of closed pseudomanifolds.  When they are boundary
    facets (ridges in exactly one facet), the union itself is the sum:
    two balls glued along a shared boundary face.  Identified vertices
    keep their labels from x; the vertex sets must otherwise be disjoint.
    """
    fx, fy = frozenset(fx), frozenset(fy)
    if fx in x.facet_sets and fy in y.facet_sets:
        drop = True
    elif _boundary_facet(x, fx) and _boundary_facet(y, fy):
        drop = False
    else:
        raise NotFacet("fx and fy must both be facets or both be boundary facets")
    if set(matching.keys()) != set(fx) or set(matching.values()) != set(fy) or len(matching) != len(fx):
        raise BadMatching("matching must biject the two glued faces")
    clash = x.vertex_set & y.vertex_set
    if clash:
        raise VertexClash(f"labels shared between summands: {sorted(map(str, clash))}")
    back = {w: v for v, w in matching.items()}
    renamed = y.rename(back)  # fy becomes fx under the identification
    if drop:
        return Complex((x.facet_sets - {fx}) | (renamed.facet_sets - {fx}))
    return Complex(x.facet_sets | renamed.facet_sets)


def canonical_matching(x: Complex, fx: Iterable[Label], y: Complex, fy: Iterable[Label]) -> dict:
    """Pair the two facets' vertices in their canonical orders."""
    return dict(zip(x.face_tuple(fx), y.face_tuple(fy)))


# -- the double-suspension pipeline ------------------------------------------


@lru_cache(maxsize=1)
def double_suspension_pipeline() -> dict[str, Complex]:
    """Named complexes built from the 16-vertex homology 3-sphere fixture.

    The homology sphere is coned over its universal vertex, then joined
    with an edge or a triangle; boundaries of the joins give triangulated
    spheres whose sphere-ness is established by outside results, not here.
    """
    from .corpus import fixture

    sigma = fixture("bl_sigma3_16").complex
    d4_16 = vertex_ball(sigma, "6p")
    edge, triangle = standard_ball(1, ("a", "b")), standard_ball(2, ("a", "b", "c"))

    def boundary_of_join(simplex: Complex) -> Complex:
        # ∂(B * Δ) = ∂B * Δ ∪ B * ∂Δ with ∂d4_16 = sigma: no ridge map of
        # the 6- or 7-dimensional ball is built, or kept by its fixture
        return Complex(sigma.join(simplex).facet_sets | d4_16.join(simplex.boundary()).facet_sets)

    return {
        "d4_16": d4_16,
        "d6_18": d4_16.join(edge),
        "s5_18": boundary_of_join(edge),
        "d7_19": d4_16.join(triangle),
        "s6_19": boundary_of_join(triangle),
    }
