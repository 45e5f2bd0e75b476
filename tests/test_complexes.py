"""Core complex queries, checked against brute-force enumeration oracles."""

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sx import Complex, from_facets, standard_ball, standard_sphere
from sx.complexes import Classification, FaceSet
from sx.corpus import fixture
from sx.errors import (
    EmptyFace,
    EmptyInput,
    NotAFace,
    NotWeakPseudomanifold,
    UnknownVertex,
    VertexClash,
)
from sx.growth import grow_shelled_ball


def closure_f_vector(facets):
    """Oracle: f-vector by enumerating the full downward closure."""
    faces = set()
    for f in facets:
        fs = sorted(f, key=str)
        for r in range(1, len(fs) + 1):
            faces.update(map(frozenset, itertools.combinations(fs, r)))
    top = max(len(f) for f in faces)
    out = [0] * top
    for f in faces:
        out[len(f) - 1] += 1
    return tuple(out)


def cross_polytope(d):
    c = standard_sphere(0, ("x1", "y1"))
    for i in range(2, d + 2):
        c = c.join(standard_sphere(0, (f"x{i}", f"y{i}")))
    return c


# -- construction ---------------------------------------------------------


def test_from_facets_absorbs_dominated():
    c = from_facets([[1, 2, 3], [2, 3], [3, 4]])
    assert c.facets == ((3, 4), (1, 2, 3))


def test_from_facets_rejects_empty_input():
    with pytest.raises(EmptyInput):
        from_facets([])


def test_from_facets_rejects_empty_face():
    with pytest.raises(EmptyFace):
        from_facets([[1, 2], []])


def test_empty_complex_is_distinct():
    e = Complex.empty()
    assert e.dimension == -1
    assert e.f_vector() == ()
    assert e != from_facets([[1]])


def oracle_maximal(raw) -> frozenset:
    """The former `Complex.__init__` filter: every pair of candidates compared."""
    candidate = {frozenset(f) for f in raw}
    if not candidate:
        candidate = {frozenset()}
    # keep inclusion-maximal members only
    maximal = {
        f for f in candidate
        if not any(f < g for g in candidate)
    }
    return frozenset(maximal)


# eight labels, integers and strings mixed, "1" beside 1
_labels = st.sampled_from([1, 2, 3, 10, "a", "b", "c", "1"])


@st.composite
def raw_families(draw):
    """Non-pure families with duplicates, nested chains and, now and then, ∅."""
    faces = [sorted(f, key=str) for f in draw(st.lists(st.frozensets(_labels), max_size=12))]
    for top in draw(st.lists(st.frozensets(_labels, min_size=1), max_size=3)):
        chain = sorted(top, key=str)
        faces += [chain[:i] for i in range(draw(st.integers(0, len(chain))), len(chain) + 1)]
    faces += faces[: draw(st.integers(0, len(faces)))]
    if draw(st.booleans()):
        faces.append([])
    return draw(st.permutations(faces))


@settings(max_examples=300, deadline=None)
@given(raw_families())
def test_maximal_candidates_match_the_all_pairs_filter(raw):
    assert Complex(raw).facet_sets == oracle_maximal(raw)


# -- f-vectors ---------------------------------------------------------------


def test_standard_sphere_f_vector():
    assert standard_sphere(2).f_vector() == (4, 6, 4)


def test_f_vector_matches_closure_oracle_on_ziegler():
    s310 = fixture("ziegler_s3_10").complex
    oracle = closure_f_vector([list(f) for f in s310.facets])
    assert s310.f_vector() == oracle
    assert s310.f_vector()[3] == 28
    assert s310.euler_characteristic == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4))
def test_join_f_vector_is_convolution(a, b):
    x = standard_sphere(a)
    y = standard_sphere(b, labels=[f"y{i}" for i in range(b + 2)])
    z = x.join(y)
    ex = (1,) + x.f_vector()
    ey = (1,) + y.f_vector()
    conv = [
        sum(ex[i] * ey[k - i] for i in range(k + 1) if i < len(ex) and k - i < len(ey))
        for k in range(len(ex) + len(ey) - 1)
    ]
    assert (1,) + z.f_vector() == tuple(conv)


# -- links, stars, antistars ----------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_vertex_link_of_standard_sphere(d):
    s = standard_sphere(d)
    lk = s.link((1,))
    assert lk == standard_sphere(d - 1, labels=range(2, d + 3))


def test_star_of_vertex_is_cone():
    s = standard_sphere(2)
    st_ = s.star((1,))
    assert len(st_.facet_sets) == 3
    assert all(1 in f for f in st_.facet_sets)


def test_antistar_facet_count_on_dfm(dfm):
    for x in (0, 5, 11):
        deg = sum(1 for f in dfm.facet_sets if x in f)
        assert len(dfm.antistar(x).facet_sets) == 104 - deg


def test_star_antistar_face_count_identity(dfm):
    # every face either avoids v or is the cone of a link face over v
    v = 3
    ast = dfm.antistar(v)
    lk = dfm.link((v,))
    fx = dfm.f_vector()
    fa = ast.f_vector()
    fl = (1,) + lk.f_vector()
    for i in range(len(fx)):
        assert fx[i] == fa[i] + fl[i]


def test_link_errors_on_non_face():
    with pytest.raises(NotAFace):
        standard_sphere(2).link((1, 2, 3, 4))
    with pytest.raises(UnknownVertex):
        standard_sphere(2).antistar(99)


# -- induced subcomplexes -----------------------------------------------------


def test_induced_full_triangle():
    s = standard_sphere(2)
    assert s.induced((1, 2, 3)) == from_facets([[1, 2, 3]])


def test_induced_on_move_region_is_join():
    # this sphere admits the move {1} -> {2,3,4}; the induced subcomplex on
    # the move's support is the cone over the boundary of {2,3,4}
    c = from_facets([[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 5], [2, 4, 5], [3, 4, 5]])
    assert c.induced((1, 2, 3, 4)) == from_facets([[1, 2, 3], [1, 2, 4], [1, 3, 4]])


def test_induced_missing_edge_in_cross_polytope():
    c = cross_polytope(2)
    pair = c.induced(("x1", "y1"))
    assert pair.dimension == 0
    assert len(pair.vertices) == 2


def test_induced_unknown_vertex():
    with pytest.raises(UnknownVertex):
        standard_sphere(2).induced((1, 99))


# -- joins -------------------------------------------------------------------


def test_join_of_two_point_spheres_is_square():
    s = standard_sphere(0, ("a", "b")).join(standard_sphere(0, ("c", "d")))
    assert s.f_vector() == (4, 4)
    assert s.classify().closed


def test_join_builds_cross_polytope():
    c = cross_polytope(3)
    assert c.f_vector()[0] == 8
    assert len(c.facet_sets) == 16


def test_join_rejects_clash():
    with pytest.raises(VertexClash):
        standard_sphere(1).join(standard_sphere(1))


# -- boundary and dual graph ---------------------------------------------------


def test_boundary_of_standard_ball():
    assert standard_ball(3).boundary() == standard_sphere(2, labels=(1, 2, 3, 4))


def test_boundary_of_closed_complex_is_empty():
    assert standard_sphere(2).boundary() == Complex.empty()


def test_boundary_of_ziegler_b1_is_s2(ziegler_b1, ziegler_s2):
    assert ziegler_b1.boundary() == ziegler_s2
    assert len(ziegler_s2.facet_sets) == 16


def test_boundary_requires_weak_pseudomanifold():
    bad = from_facets([[1, 2, 3], [1, 2, 4], [1, 2, 5]])
    with pytest.raises(NotWeakPseudomanifold):
        bad.boundary()


def test_dual_graph_of_standard_sphere_is_complete():
    # K4: every facet of the tetrahedron's boundary meets the other three
    nbr = standard_sphere(2)._neighbour_masks
    assert nbr == (0b1110, 0b1101, 0b1011, 0b0111)
    assert sum(n.bit_count() for n in nbr) // 2 == 6


@pytest.mark.parametrize("name,n", [("ziegler_b1", 7), ("lutz_b1", 5)])
def test_dual_graph_paths(name, n):
    nbr = fixture(name).complex._neighbour_masks
    assert len(nbr) == n
    assert sum(m.bit_count() for m in nbr) // 2 == n - 1
    degrees = sorted(m.bit_count() for m in nbr)
    assert degrees == [1, 1] + [2] * (n - 2)


def test_ridge_masks_match_the_dual_graph_oracle(differential_complexes):
    for x in differential_complexes:
        if not x.is_weak_pseudomanifold:
            continue
        nbr = x._neighbour_masks
        edges = [(i, j) for i, n in enumerate(nbr) for j in range(i + 1, len(nbr)) if n >> j & 1]
        assert tuple(edges) == oracle_dual_graph(x).edges, x.facets
        for f, rs in zip(x.facets, x._ridge_masks if len(x.facets) <= 100 else ()):
            assert [v for v, _ in rs] == list(f)
            for v, r in rs:
                through = [i for i, g in enumerate(x.facets) if set(f) - {v} <= set(g)]
                assert r == sum(1 << i for i in through), (x.facets, f, v)


# -- missing faces and neighborliness ----------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3])
def test_missing_faces_of_cross_polytope(d):
    c = cross_polytope(d)
    missing = c.missing_faces(d)
    assert missing == [tuple(sorted((f"x{i}", f"y{i}"))) for i in range(1, d + 2)]


def test_missing_faces_respects_max_dim():
    assert standard_sphere(2).missing_faces(2) == []
    assert standard_sphere(2).missing_faces(3) == [(1, 2, 3, 4)]


def test_stacked_balls_have_no_deep_missing_faces():
    rng = random.Random(7)
    for _ in range(25):
        dim = rng.choice([2, 3, 4])
        k = min(rng.choice([1, 2]), dim)
        ball, _ = grow_shelled_ball(dim, k, rng.randrange(2, 7), rng)
        deep = [f for f in ball.missing_faces(dim) if len(f) - 1 > k]
        assert deep == []


def test_neighborliness(dfm):
    assert dfm.is_l_neighborly(2)
    assert len(dfm.faces(1)) == comb(16, 2)
    assert not cross_polytope(3).is_l_neighborly(2)
    assert cross_polytope(3).is_l_neighborly(1)


# -- classification ---------------------------------------------------------------


def test_classify_standard_sphere():
    flags = standard_sphere(2).classify()
    assert flags.pure and flags.weak_pseudomanifold and flags.pseudomanifold
    assert flags.normal_pseudomanifold and flags.closed


def test_classify_ziegler_b2(ziegler_b2, ziegler_s2):
    flags = ziegler_b2.classify()
    assert flags.normal_pseudomanifold and not flags.closed
    assert ziegler_b2.boundary() == ziegler_s2


def test_classify_wedge_of_triangles():
    wedge = from_facets([[1, 2, 3], [3, 4, 5]])
    flags = wedge.classify()
    assert flags.pure and flags.weak_pseudomanifold
    assert not flags.normal_pseudomanifold
    assert not flags.pseudomanifold


def test_classify_monotone_on_random_balls():
    rng = random.Random(3)
    for _ in range(30):
        ball, _ = grow_shelled_ball(rng.choice([2, 3]), 2, rng.randrange(1, 6), rng)
        flags = ball.classify()
        if flags.normal_pseudomanifold:
            assert flags.pseudomanifold
        if flags.pseudomanifold:
            assert flags.weak_pseudomanifold


# -- misc -------------------------------------------------------------------------


def test_skeleton_and_equality(dfm):
    skel = dfm.skeleton(1)
    assert skel.dimension == 1
    assert skel.faces(1) == dfm.faces(1)


def oracle_skeleton(x: Complex, dim: int) -> frozenset:
    """The former `Complex.skeleton`: the dim-faces, then every smaller face
    that lies in none of the faces kept so far.  The loop can keep a face
    that a larger face added later contains, so the all-pairs filter runs
    last, as `Complex(maximal)` did."""
    if dim >= x.dimension:
        return x.facet_sets
    if dim < 0:
        return frozenset({frozenset()})
    maximal = set(oracle_faces_by_dim(x)[dim])
    for k in range(0, dim):
        for f in oracle_faces_by_dim(x)[k]:
            if not any(f < g for g in maximal):
                maximal.add(f)
    return oracle_maximal(maximal)


def test_skeleton_matches_the_domination_loop(differential_complexes):
    for x in differential_complexes + [Complex.empty()]:
        for dim in range(-2, x.dimension + 2):
            assert x.skeleton(dim).facet_sets == oracle_skeleton(x, dim), (x.facets, dim)


def test_digest_is_stable_under_relabeling_order():
    a = from_facets([[1, 2, 3], [2, 3, 4]])
    b = from_facets([[4, 3, 2], [3, 2, 1]])
    assert a.digest == b.digest


def test_canonical_vertex_order_mixed_labels():
    c = from_facets([[1, "a", 2], ["b", 1, 2]])
    assert c.vertices == (1, 2, "a", "b")


# -- the frozenset face lattice, ridge map and label stars, as oracles ---------------


@lru_cache(maxsize=64)
def oracle_faces_by_dim(x: Complex) -> dict[int, frozenset]:
    """The former `Complex._faces_by_dim`: every face as a frozenset, by
    dimension, from the combinations of each facet."""
    by_dim: dict[int, set] = {k: set() for k in range(-1, x.dimension + 1)}
    by_dim[-1].add(frozenset())
    for facet in x.facet_sets:
        fs = sorted(facet, key=x._vertex_pos.get)
        for r in range(1, len(fs) + 1):
            tier = by_dim[r - 1]
            for c in itertools.combinations(fs, r):
                tier.add(frozenset(c))
    return {k: frozenset(v) for k, v in by_dim.items()}


def oracle_all_faces(x: Complex, include_empty: bool = False):
    """The former `Complex.all_faces`."""
    for k in range(-1 if include_empty else 0, x.dimension + 1):
        yield from oracle_faces_by_dim(x)[k]


@lru_cache(maxsize=64)
def oracle_ridge_incidence(x: Complex) -> dict[FaceSet, tuple[FaceSet, ...]]:
    """The former `Complex._ridge_incidence`: each facet minus one vertex,
    mapped to the facets containing it."""
    ridges: dict[FaceSet, list] = {}
    for facet in x.facet_sets:
        for v in facet:
            ridges.setdefault(facet - {v}, []).append(facet)
    return {r: tuple(fs) for r, fs in ridges.items()}


@lru_cache(maxsize=64)
def oracle_vertex_star(x: Complex) -> dict:
    """The former `Complex._vertex_star`: each vertex label mapped to the
    facets containing it."""
    star: dict = {}
    for facet in x.facet_sets:
        for v in facet:
            star.setdefault(v, []).append(facet)
    return star


def oracle_has_face(x: Complex, face) -> bool:
    """The former `Complex.has_face`, on the label stars."""
    f = frozenset(face)
    if len(f) - 1 > x.dimension:
        return False
    if not f:
        return True
    return any(f <= g for g in oracle_vertex_star(x).get(next(iter(f)), ()))


def oracle_missing_faces(x: Complex, max_dim: int) -> list[tuple]:
    """The former `Complex.missing_faces`, on the frozenset lattice."""
    by_dim = oracle_faces_by_dim(x)
    found = []
    for size in range(2, max_dim + 2):
        lower = by_dim.get(size - 2, frozenset())
        present = by_dim.get(size - 1, frozenset())
        seen = set()
        for f in lower:
            for v in x.vertices:
                if v in f:
                    continue
                cand = f | {v}
                if cand in seen or cand in present:
                    continue
                seen.add(cand)
                if all(cand - {u} in lower for u in cand):
                    found.append(cand)
    return x.sorted_faces(found)


def oracle_boundary(x: Complex) -> Complex:
    """The former `Complex.boundary`, on the frozenset ridge map."""
    x._require_weak_pseudomanifold()
    return Complex(r for r, fs in oracle_ridge_incidence(x).items() if len(fs) == 1)


def oracle_ridge_masks(x: Complex) -> tuple:
    """The former `Complex._ridge_masks`, on the frozenset ridge map."""
    index = {frozenset(f): i for i, f in enumerate(x.facets)}
    incidence = oracle_ridge_incidence(x)
    return tuple(
        tuple((v, sum(1 << index[g] for g in incidence[fs - {v}])) for v in f)
        for f, fs in zip(x.facets, index)
    )


def test_mask_lattice_matches_the_frozenset_oracles(differential_complexes):
    for x in differential_complexes + [Complex.empty()]:
        by_dim, d, n = oracle_faces_by_dim(x), x.dimension, len(x.vertices)
        for k in range(-2, d + 2):
            assert x.faces(k) == by_dim.get(k, frozenset()), (x.facets, k)
        assert x.f_vector() == tuple(len(by_dim[k]) for k in range(d + 1)), x.facets
        assert x.missing_faces(d + 1) == oracle_missing_faces(x, d + 1), x.facets
        for l in range(1, n + 1):
            want = l - 1 <= d and len(by_dim[l - 1]) == comb(n, l)
            assert x.is_l_neighborly(l) == want, (x.facets, l)
        probes = list(oracle_all_faces(x, include_empty=True))
        probes += map(frozenset, oracle_missing_faces(x, d + 1))
        probes += [frozenset({"unknown"}), frozenset(x.vertices[:1]) | {-7}, frozenset(x.vertices)]
        for f in probes:
            assert x.has_face(f) == oracle_has_face(x, f), (x.facets, f)
        assert x.classify() == oracle_classify(x), x.facets
        if x.is_weak_pseudomanifold:
            assert x.boundary() == oracle_boundary(x), x.facets
            assert x._ridge_masks == oracle_ridge_masks(x), x.facets
        else:
            with pytest.raises(NotWeakPseudomanifold):
                x.boundary()


# -- differential tests against the link-Complex and sorted_faces definitions ---------


def oracle_is_connected(self) -> bool:
    """The former `Complex.is_connected`: a search on the edge graph."""
    if self.is_empty_complex:
        return False
    verts = self.vertices
    if len(verts) == 1:
        return True
    adj: dict = {v: set() for v in verts}
    for e in oracle_faces_by_dim(self).get(1, ()):
        a, b = tuple(e)
        adj[a].add(b)
        adj[b].add(a)
    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(verts)


def oracle_has_connected_low_links(self) -> bool:
    """The former `Complex._has_connected_low_links`: one link Complex per face."""
    # links of faces of dimension <= d-2; the empty face (its link is the
    # whole complex) takes part only when d >= 1
    if self.dimension >= 1 and not oracle_is_connected(self):
        return False
    for k in range(0, self.dimension - 1):
        for f in oracle_faces_by_dim(self)[k]:
            if not oracle_is_connected(self.link(f)):
                return False
    return True


@dataclass(frozen=True)
class DualGraph:
    """Facets as nodes; edges join facets meeting in a ridge."""

    nodes: tuple[tuple, ...]
    edges: tuple[tuple[int, int], ...]

    def degree(self, i: int) -> int:
        return sum(1 for a, b in self.edges if i in (a, b))

    def is_connected(self) -> bool:
        n = len(self.nodes)
        if n == 0:
            return False
        adj = {i: [] for i in range(n)}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == n

    def is_tree(self) -> bool:
        return self.is_connected() and len(self.edges) == len(self.nodes) - 1

    def edge_faces(self) -> list[tuple[tuple, tuple]]:
        return [(self.nodes[a], self.nodes[b]) for a, b in self.edges]


def oracle_dual_graph(self) -> DualGraph:
    """The former `Complex.dual_graph`: an edge list over the sorted facets."""
    self._require_weak_pseudomanifold()
    nodes = self.facets
    index = {frozenset(f): i for i, f in enumerate(nodes)}
    edges = set()
    for fs in oracle_ridge_incidence(self).values():
        if len(fs) == 2:
            i, j = index[fs[0]], index[fs[1]]
            edges.add((min(i, j), max(i, j)))
    return DualGraph(nodes=nodes, edges=tuple(sorted(edges)))


def oracle_classify(self) -> Classification:
    """The former `Complex.classify`, on the oracles above."""
    pure = not self.is_empty_complex and self.is_pure
    weak = self.is_weak_pseudomanifold
    pseudo = weak and oracle_dual_graph(self).is_connected()
    normal = weak and oracle_has_connected_low_links(self)
    closed = weak and not [
        1 for fs in oracle_ridge_incidence(self).values() if len(fs) == 1
    ]
    return Classification(
        pure=pure,
        weak_pseudomanifold=weak,
        pseudomanifold=pseudo,
        normal_pseudomanifold=normal,
        closed=closed,
    )


def oracle_boundary_columns(x: Complex, k: int) -> list[dict[int, int]]:
    """The former `homology._boundary_columns`, rows from `sorted_faces`."""
    k_faces = x.sorted_faces(x.faces(k))
    if k == 0:
        return [{0: 1} for _ in k_faces]
    row_index = {frozenset(f): i for i, f in enumerate(x.sorted_faces(x.faces(k - 1)))}
    cols = []
    for f in k_faces:
        col = {}
        for j in range(len(f)):
            sub = frozenset(f[:j] + f[j + 1:])
            col[row_index[sub]] = 1 if j % 2 == 0 else -1
        cols.append(col)
    return cols


def test_classification_and_links_match_the_link_complex_oracle(differential_complexes):
    seen = set()
    for x in differential_complexes + [Complex.empty()]:
        flags = x.classify().as_dict()
        assert x.classify() is x.classify()
        assert flags == oracle_classify(x).as_dict(), x.facets
        assert x.is_connected == oracle_is_connected(x), x.facets
        # every face's link, facets (link {∅}) included, on the smaller inputs
        pos = x._vertex_pos
        for f in oracle_all_faces(x) if len(x.facets) <= 100 else ():
            mask = sum(1 << pos[v] for v in f)
            assert x._mask_link_is_connected(mask) == oracle_is_connected(x.link(f)), (x.facets, f)
        seen.add(tuple(flags.values()) + (x.is_connected,))
    # normal and not, pseudomanifold and not, connected and not all occur
    assert len(seen) >= 6
