"""Automorphism groups, isomorphism testing, and vertex orbits.

The search is plain backtracking over vertex images, pruned by an
iteratively refined vertex invariant (degree plus the multiset of
neighbouring link f-vectors).  At the guarded sizes this enumerates the
full group, so the reported order is exact by construction and the
generator list is reduced greedily afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import Complex
from .errors import GuardExceeded

DEFAULT_GUARD = 64


@dataclass(frozen=True)
class AutGroup:
    generators: tuple[dict, ...]
    order: int
    vertex_orbits: tuple[tuple, ...]


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
        for f in x._vertex_star[v]:
            rest = f - {v}
            if rest <= done:
                if frozenset(mapping[u] for u in rest) | {w} not in y_facets:
                    return False
        done_img = set(inverse)
        for g in y._vertex_star[w]:
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


def automorphism_group(x: Complex, guard: int = DEFAULT_GUARD) -> AutGroup:
    """The full automorphism group, enumerated exactly.

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
    return AutGroup(
        generators=tuple(gens),
        order=len(elements),
        vertex_orbits=orbit_list,
    )


def is_isomorphic(x: Complex, y: Complex, guard: int = DEFAULT_GUARD) -> dict | None:
    """A facet-preserving vertex bijection, or None."""
    if max(len(x.vertices), len(y.vertices)) > guard:
        raise GuardExceeded(f"vertex count exceeds the guard {guard}")
    if x.dimension != y.dimension or len(x.vertices) != len(y.vertices):
        return None
    if x.f_vector() != y.f_vector():
        return None
    maps = _search_maps(x, y, first_only=True)
    return maps[0] if maps else None


def is_automorphism(x: Complex, perm: dict) -> bool:
    return {frozenset(perm.get(v, v) for v in f) for f in x.facet_sets} == set(x.facet_sets)


def permutation_cycles(perm: dict) -> list[tuple]:
    """Cycle notation of a vertex permutation, fixed points omitted."""
    seen = set()
    cycles = []
    for start in sorted(perm.keys(), key=str):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        cur = perm[start]
        while cur != start:
            cyc.append(cur)
            seen.add(cur)
            cur = perm[cur]
        if len(cyc) > 1:
            cycles.append(tuple(cyc))
    return cycles


def explore_question_2(k: int, guard: int = DEFAULT_GUARD) -> dict:
    """Exploratory report on the full symmetry group of the middle
    Klee-Novik manifold; computes, never asserts expectations."""
    from .constructions import klee_novik, klee_novik_automorphisms, klee_novik_bar

    d = 2 * k
    m = klee_novik(k, d)
    mbar = klee_novik_bar(k, d)
    group = automorphism_group(m, guard=guard)
    perms = klee_novik_automorphisms(k, d)
    report = {
        "k": k,
        "d": d,
        "computed_order": group.order,
        "comparison_order_16_k_plus_1": 16 * (k + 1),
        "orders_equal": group.order == 16 * (k + 1),
        "named_maps_are_automorphisms": {
            name: is_automorphism(m, p) for name, p in perms.items()
        },
        "A_preserves_bar_complex": is_automorphism(mbar, perms["A"]),
    }
    return report
