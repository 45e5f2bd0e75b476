"""Automorphism groups and isomorphism search, checked against the
exhaustive backtracking search they replaced.

The oracle lists every element and reduces them greedily to generators;
the search reports a strong generating set instead.  The two are compared
on order, orbits and the group the generators close to, and, on the corpus
and the Klee-Novik family, where `sx aut` output is pinned, on the
generators themselves."""

import random
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sx import Complex, from_facets, standard_sphere
from sx.constructions import klee_novik, klee_novik_bar
from sx.corpus import fixture, fixture_names
from sx.errors import GuardExceeded
from sx.symmetry import (
    DEFAULT_GUARD,
    AutGroup,
    automorphism_group,
    is_automorphism,
    is_isomorphic,
    permutation_cycles,
)

from test_complexes import oracle_vertex_star


# -- reference oracle: backtracking to every element of the group ----------------


def _joint_codes(complexes: list[Complex]) -> list[dict]:
    """Iteratively refined vertex invariants, shared across the inputs.

    Starts from (degree, link f-vector) and folds in sorted neighbour
    codes, re-encoding to small integers through one table per round so
    codes stay comparable between complexes; isomorphic vertices always
    end up with equal codes.
    """
    tagged = []
    adj = {}
    for idx, x in enumerate(complexes):
        for v in x.vertices:
            tagged.append((idx, v))
            adj[(idx, v)] = set()
        for e in x.faces(1):
            a, b = tuple(e)
            adj[(idx, a)].add((idx, b))
            adj[(idx, b)].add((idx, a))
    raw = {
        (idx, v): (len(adj[(idx, v)]), complexes[idx].link((v,)).f_vector())
        for idx, v in tagged
    }
    table = {key: i for i, key in enumerate(sorted(set(raw.values())))}
    code = {t: table[raw[t]] for t in tagged}
    while True:
        raw = {t: (code[t], tuple(sorted(code[w] for w in adj[t]))) for t in tagged}
        table = {key: i for i, key in enumerate(sorted(set(raw.values())))}
        nxt = {t: table[raw[t]] for t in tagged}
        if len(set(nxt.values())) == len(set(code.values())):
            code = nxt
            break
        code = nxt
    return [
        {v: code[(idx, v)] for v in x.vertices} for idx, x in enumerate(complexes)
    ]


def _search_maps(x: Complex, y: Complex, first_only: bool):
    """All facet-preserving vertex bijections x -> y (or just the first).

    Backtracking over vertex images; a new assignment must preserve
    face/non-face status of every subset of the mapped set, which is what
    keeps neighborly (invariant-flat) inputs tractable.
    """
    found: list[dict] = []
    if x is y:
        cx = cy = _joint_codes([x])[0]
    else:
        cx, cy = _joint_codes([x, y])
    if sorted(cx.values()) != sorted(cy.values()):
        return found
    xs = x.vertices
    class_size = {v: sum(1 for u in xs if cx[u] == cx[v]) for v in xs}
    edges = x.faces(1)
    # greedy static order: after a seed from the smallest invariant class,
    # always take the vertex with the most missing-edge constraints (then
    # the most adjacencies) against the prefix, so partner-like structure
    # is interrogated early
    seed = min(xs, key=lambda v: (class_size[v], str(v)))
    order = [seed]
    remaining = [v for v in xs if v != seed]
    while remaining:
        def score(v):
            nonadj = sum(1 for u in order if frozenset((u, v)) not in edges)
            return (-nonadj, -(len(order) - nonadj), class_size[v], str(v))

        nxt = min(remaining, key=score)
        order.append(nxt)
        remaining.remove(nxt)
    targets = {v: [w for w in y.vertices if cy[w] == cx[v]] for v in xs}
    d = x.dimension
    depth_cap = min(d, 3)  # small subsets prune; facet checks do the rest
    x_faces = [x.faces(k) for k in range(d + 1)]
    y_faces = [y.faces(k) for k in range(d + 1)]
    x_facets = x.facet_sets
    y_facets = y.facet_sets
    x_star, y_star = oracle_vertex_star(x), oracle_vertex_star(y)
    import itertools

    mapping: dict = {}
    inverse: dict = {}

    def consistent(v, w, depth) -> bool:
        prev = order[:depth]
        for r in range(1, min(len(prev), depth_cap) + 1):
            for sub in itertools.combinations(prev, r):
                s = frozenset(sub) | {v}
                t = frozenset(mapping[u] for u in sub) | {w}
                if (s in x_faces[r]) != (t in y_faces[r]):
                    return False
        done = set(prev)
        for f in x_star[v]:
            rest = f - {v}
            if rest <= done:
                if frozenset(mapping[u] for u in rest) | {w} not in y_facets:
                    return False
        done_img = set(inverse)
        for g in y_star[w]:
            rest = g - {w}
            if rest <= done_img:
                if frozenset(inverse[u] for u in rest) | {v} not in x_facets:
                    return False
        return True

    def extend(i: int):
        if i == len(order):
            if {frozenset(mapping[v] for v in f) for f in x_facets} == y_facets:
                found.append(dict(mapping))
            return bool(found) and first_only
        v = order[i]
        for w in targets[v]:
            if w in inverse or not consistent(v, w, i):
                continue
            mapping[v] = w
            inverse[w] = v
            if extend(i + 1):
                return True
            del inverse[w]
            del mapping[v]
        return False

    extend(0)
    return found


def _greedy_generators(elements: list[tuple], verts: tuple) -> list[dict]:
    identity = tuple(verts)
    pos = {v: i for i, v in enumerate(verts)}
    gens: list[tuple] = []
    known = {identity}
    for el in sorted(elements, key=str):
        if el in known:
            continue
        gens.append(el)
        # close under the enlarged generating set
        frontier = list(known)
        while frontier:
            g = frontier.pop()
            for h in gens:
                composed = tuple(h[pos[gv]] for gv in g)
                if composed not in known:
                    known.add(composed)
                    frontier.append(composed)
    return [dict(zip(verts, g)) for g in gens]


def oracle_automorphism_group(x: Complex, guard: int = DEFAULT_GUARD) -> tuple[AutGroup, set]:
    """The full automorphism group, enumerated exactly, and its element set.

    Order equals the number of facet-preserving vertex bijections found;
    orbits are read off the full element list.
    """
    verts = x.vertices
    if len(verts) > guard:
        raise GuardExceeded(f"{len(verts)} vertices exceed the guard {guard}")
    maps = _search_maps(x, x, first_only=False)
    elements = [tuple(mp[v] for v in verts) for mp in maps]
    # orbits via union-find over all elements
    parent = {v: v for v in verts}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for el in elements:
        for v, w in zip(verts, el):
            rv, rw = find(v), find(w)
            if rv != rw:
                parent[rv] = rw
    orbits: dict = {}
    for v in verts:
        orbits.setdefault(find(v), []).append(v)
    orbit_list = tuple(
        tuple(members) for members in sorted(orbits.values(), key=lambda ms: str(ms[0]))
    )
    gens = _greedy_generators(elements, verts)
    group = AutGroup(
        generators=tuple(gens),
        order=len(elements),
        vertex_orbits=orbit_list,
    )
    return group, set(elements)


def closure(generators, verts: tuple) -> set[tuple]:
    """Every product of the generators, as tuples of images of verts."""
    pos = {v: i for i, v in enumerate(verts)}
    gens = [tuple(g[v] for v in verts) for g in generators]
    known = {tuple(verts)}
    frontier = list(known)
    while frontier:
        e = frontier.pop()
        for g in gens:
            composed = tuple(g[pos[v]] for v in e)
            if composed not in known:
                known.add(composed)
                frontier.append(composed)
    return known


def assert_matches_the_oracle(x: Complex, same_generators: bool = False):
    group = automorphism_group(x)
    oracle, elements = oracle_automorphism_group(x)
    assert (group.order, group.vertex_orbits) == (oracle.order, oracle.vertex_orbits)
    assert all(is_automorphism(x, g) for g in group.generators)
    assert closure(group.generators, x.vertices) == elements
    if same_generators:
        assert group.generators == oracle.generators


def random_complex(rng):
    """Pure (one facet size) or non-pure, on at most 8 vertices."""
    n = rng.randrange(2, 9)
    if rng.random() < 0.5:
        size = rng.randrange(1, min(n, 4) + 1)
        sizes = [size] * rng.randrange(1, 2 * n)
    else:
        sizes = [rng.randrange(1, min(n, 4) + 1) for _ in range(rng.randrange(1, 2 * n))]
    return from_facets(rng.sample(range(1, n + 1), s) for s in sizes)


COMPLEX_FIXTURES = [name for name in fixture_names() if fixture(name).complex is not None]
ORACLE_KLEE_NOVIK_CASES = [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 4)]


@pytest.mark.parametrize("name", COMPLEX_FIXTURES)
def test_group_matches_the_oracle_on_the_corpus(name):
    assert_matches_the_oracle(fixture(name).complex, same_generators=True)


@pytest.mark.parametrize("k,d", ORACLE_KLEE_NOVIK_CASES)
def test_group_matches_the_oracle_on_klee_novik(k, d):
    for x in (klee_novik(k, d), klee_novik_bar(k, d)):
        assert_matches_the_oracle(x, same_generators=True)


def test_group_matches_the_oracle_on_random_complexes():
    rng = random.Random(6)
    complexes = [random_complex(rng) for _ in range(200)]
    assert {x.is_pure for x in complexes} == {True, False}
    for x in complexes:
        assert_matches_the_oracle(x)


def test_isomorphism_verdicts_match_the_oracle():
    # six vertices and four triangles: many pairs share an f-vector, and
    # only some of them are isomorphic
    rng = random.Random(7)
    complexes = [
        from_facets(rng.sample(range(1, 7), 3) for _ in range(4)) for _ in range(30)
    ]
    outcomes = set()
    for a in complexes:
        for b in complexes:
            if a.f_vector() != b.f_vector() or len(a.vertices) != len(b.vertices):
                continue
            bij = is_isomorphic(a, b)
            assert (bij is not None) == bool(_search_maps(a, b, first_only=True))
            if bij is not None:
                assert a.rename(bij) == b
            outcomes.add(bij is not None)
    assert outcomes == {True, False}


def cycles(*lengths):
    """Disjoint cycle graphs; every vertex has degree 2, so refinement
    alone cannot tell a hexagon from two triangles."""
    edges, start = [], 0
    for n in lengths:
        edges += [(start + i, start + (i + 1) % n) for i in range(n)]
        start += n
    return from_facets(edges)


def test_search_backtracks_where_cells_are_not_orbits():
    x = cycles(6, 3, 3)
    # the triangles' vertices come first on the right
    y = x.rename({v: 11 - v for v in x.vertices})
    bij = is_isomorphic(x, y)
    assert bij is not None and x.rename(bij) == y
    assert_matches_the_oracle(x)
    assert automorphism_group(x).order == 12 * 72
    for a, b in ((x, cycles(12)), (cycles(12), x)):
        assert a.f_vector() == b.f_vector()
        assert is_isomorphic(a, b) is None
        assert not _search_maps(a, b, first_only=True)


@st.composite
def relabelled_complexes(draw):
    n = draw(st.integers(2, 7))
    facets = draw(
        st.lists(st.sets(st.integers(1, n), min_size=1, max_size=4), min_size=1, max_size=10)
    )
    x = from_facets(facets)
    images = draw(st.permutations([f"v{i}" for i in range(len(x.vertices))]))
    return x, dict(zip(x.vertices, images))


@settings(max_examples=60, deadline=None)
@given(relabelled_complexes())
def test_relabelling_carries_the_group_and_an_isomorphism(case):
    x, pi = case
    y = x.rename(pi)
    gx, gy = automorphism_group(x), automorphism_group(y)
    assert gx.order == gy.order
    assert {frozenset(pi[v] for v in orbit) for orbit in gx.vertex_orbits} == {
        frozenset(orbit) for orbit in gy.vertex_orbits
    }
    bij = is_isomorphic(x, y)
    assert bij is not None and sorted(bij, key=str) == sorted(x.vertices, key=str)
    assert x.rename(bij) == y


# -- group orders and isomorphisms -----------------------------------------------


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_standard_sphere_full_symmetric_group(d):
    group = automorphism_group(standard_sphere(d))
    assert group.order == factorial(d + 2)
    assert len(group.vertex_orbits) == 1


def test_generators_preserve_facets():
    for d in (1, 2):
        c = standard_sphere(d)
        group = automorphism_group(c)
        for g in group.generators:
            assert is_automorphism(c, g)


def test_orbit_size_divides_order():
    for k, d in ((1, 2), (1, 3), (2, 4)):
        group = automorphism_group(klee_novik(k, d))
        for orbit in group.vertex_orbits:
            assert group.order % len(orbit) == 0


@pytest.mark.parametrize(
    "k,d,expected",
    [
        # the (0,1) manifold is two disjoint 3-cycles: S3 wr C2, order 72,
        # strictly larger than the named 4d+8 = 12 subgroup
        (0, 1, 72),
        # and so on at k = 0: 2((d+2)!)^2
        (0, 2, 1152),
        (0, 3, 28800),
        # d = 2k: the swap A joins D, E and R
        (1, 2, 32),
        (2, 4, 48),
        (1, 3, 20),
        (1, 4, 24),
        (2, 5, 28),
        (1, 5, 28),
    ],
)
def test_klee_novik_boundary_group_orders(k, d, expected):
    assert automorphism_group(klee_novik(k, d)).order == expected


@pytest.mark.parametrize("k,d", [(1, 3), (1, 4), (2, 5)])
def test_bar_and_boundary_share_group_order(k, d):
    m_order = automorphism_group(klee_novik(k, d)).order
    bar_order = automorphism_group(klee_novik_bar(k, d)).order
    assert m_order == bar_order == 4 * d + 8


@pytest.mark.parametrize("k,d", [(1, 2), (1, 3), (2, 4)])
def test_bar_complex_vertex_transitive(k, d):
    group = automorphism_group(klee_novik_bar(k, d))
    assert len(group.vertex_orbits) == 1


def test_is_isomorphic_basic():
    assert is_isomorphic(standard_sphere(2), standard_sphere(1)) is None
    a = standard_sphere(2)
    b = standard_sphere(2, labels=("p", "q", "r", "s"))
    bij = is_isomorphic(a, b)
    assert bij is not None
    assert a.rename(bij) == b


def test_is_isomorphic_random_relabel():
    rng = random.Random(44)
    c = fixture("lutz_b2").complex
    perm = list(c.vertices)
    rng.shuffle(perm)
    relabeled = c.rename({v: f"z{w}" for v, w in zip(c.vertices, perm)})
    bij = is_isomorphic(c, relabeled)
    assert bij is not None
    assert c.rename(bij) == relabeled


def test_klee_novik_parameter_swap_isomorphism():
    assert is_isomorphic(klee_novik(1, 3), klee_novik(2, 3)) is not None


def test_non_isomorphic_same_f_vector():
    # two 7-vertex 2-spheres with equal f-vectors but different degree lists
    a = from_facets(
        [[1, 2, 3], [1, 2, 4], [1, 3, 5], [1, 4, 6], [1, 5, 6],
         [2, 3, 7], [2, 4, 7], [3, 5, 7], [4, 6, 7], [5, 6, 7]]
    )
    b = from_facets(
        [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 5], [2, 4, 6],
         [2, 5, 6], [3, 4, 7], [3, 5, 7], [4, 6, 7], [5, 6, 7]]
    )
    assert a.f_vector() == b.f_vector()
    assert is_isomorphic(a, b) is None


def test_guard():
    big = klee_novik(1, 8)
    with pytest.raises(GuardExceeded):
        automorphism_group(big, guard=10)


def test_permutation_cycles():
    perm = {1: 2, 2: 1, 3: 3, "a": "b", "b": "a"}
    assert permutation_cycles(perm) == [(1, 2), ("a", "b")]


def test_dfm_automorphism_group_is_the_cyclic_shift():
    from sx.corpus import fixture

    dfm = fixture("dfm_s3_16").complex
    group = automorphism_group(dfm)
    assert group.order == 16
    assert len(group.vertex_orbits) == 1
