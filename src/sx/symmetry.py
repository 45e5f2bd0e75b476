"""Automorphism groups, isomorphism testing, and vertex orbits.

Both searches run on the vertex indices 0..n-1 of a complex's canonical
vertex order by individualization and refinement (McKay-Piperno,
"Practical graph isomorphism, II", J. Symbolic Comput. 60, 2014).  A round
of refinement codes each facet's sorted multiset of vertex colours by its
rank among the facets' multisets, and each vertex's old colour with the
sorted ranks of the facets in its star by its rank among those keys; the
rounds go on until the number of cells stops growing.  A colouring that is
not discrete is split by individualizing the first vertex of its smallest
non-singleton cell on the left against each vertex of that colour on the
right.  A discrete colouring gives one vertex map, and it is accepted only
if it sends the facet set onto the facet set: every verdict rests on that
exact check, never on the colours.

The left side of every search node lies on one path, the leftmost: the
unit colouring refined, then refined again after each individualization.
That path is refined once, keeping each round's facet table and vertex
table (its trace).  A node refines only its right side, coding its keys
through the left's tables of that depth, and rejects at the first round
where a right key is missing from a table or the colour multisets differ.
This gives the colours that refining both sides together through one
table of their joint keys gives.  Where the two sides have the same keys,
the joint table is the left's table.  Where they differ, some colour is on
one side only; as each colour determines the one before it, the final
colourings then differ too, and the joint refinement rejects the node as
well.  Ranks keep the order of the facet multisets, so coding them by rank
moves no vertex colour.

`automorphism_group` walks the leftmost path to a base b_0..b_{m-1}.  From
the deepest level up, it searches b_i -> w only for the w of b_i's cell
that the generators found so far do not already carry b_i to.  The
generators found form a strong generating set along the base, the order is
the product of the basic orbit lengths (Schreier-Sims; Seress,
"Permutation Group Algorithms", 2003), and the vertex orbits are the orbits
of the generators.  No group element is listed.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Sequence

from .complexes import Complex
from .errors import GuardExceeded

DEFAULT_GUARD = 64


@dataclass(frozen=True)
class AutGroup:
    generators: tuple[dict, ...]
    order: int
    vertex_orbits: tuple[tuple, ...]


def _picker(idx: tuple) -> Callable[[Sequence], tuple]:
    """The entries of a sequence at the positions idx, as a tuple."""
    if len(idx) > 1:
        return itemgetter(*idx)
    return lambda seq: tuple(seq[i] for i in idx)


def _indexed(x: Complex) -> tuple[list, frozenset, list]:
    """x on the vertex indices 0..n-1 of its canonical vertex order: a
    picker for each facet's vertices, the set of facets as sorted index
    tuples, and a picker for each vertex's star by facet index."""
    pos = x._vertex_pos
    facets = sorted(tuple(sorted(map(pos.__getitem__, f))) for f in x.facet_sets)
    star: list[list[int]] = [[] for _ in x.vertices]
    for j, f in enumerate(facets):
        for i in f:
            star[i].append(j)
    return [_picker(f) for f in facets], frozenset(facets), [_picker(s) for s in star]


def _refine(side: tuple, col: list) -> tuple[list, list]:
    """Refine one side's colouring until it is stable; return it with the
    trace of its rounds: each round's facet table, vertex table and sorted
    colours.

    A new colour determines the old one, so the cell count never falls
    and stops growing exactly when no cell splits.
    """
    facets, _, stars = side
    cells = len(set(col))
    rounds = []
    while True:
        facet_keys = [tuple(sorted(f(col))) for f in facets]
        facet_table = {key: r for r, key in enumerate(sorted(set(facet_keys)))}
        ranks = [facet_table[key] for key in facet_keys]
        keys = [(c, tuple(sorted(s(ranks)))) for c, s in zip(col, stars)]
        table = {key: r for r, key in enumerate(sorted(set(keys)))}
        col = [table[key] for key in keys]
        rounds.append((facet_table, table, sorted(col)))
        if len(table) == cells:
            return col, rounds
        cells = len(table)


def _follow(side: tuple, col: list, rounds: list) -> list | None:
    """Refine a colouring against the trace of another side's refinement.

    The result is what refining both sides together through shared tables
    would give this side, or None at the first round where a key is
    missing from the traced table or the colour multisets differ: either
    leaves a colour that one side has and the other lacks, and the joint
    refinement would end with unequal colourings.
    """
    facets, _, stars = side
    for facet_table, table, profile in rounds:
        ranks = [facet_table.get(tuple(sorted(f(col)))) for f in facets]
        if None in ranks:
            return None
        col = [table.get((c, tuple(sorted(s(ranks))))) for c, s in zip(col, stars)]
        if None in col or sorted(col) != profile:
            return None
    return col


def _individualize(col: list, v: int) -> list:
    """Give v a colour of its own, the same fresh colour on either side."""
    out = list(col)
    out[v] = -1
    return out


def _target_cell(col: list) -> list | None:
    """The smallest non-singleton cell, lowest colour first on ties."""
    cells: dict = {}
    for v, c in enumerate(col):
        cells.setdefault(c, []).append(v)
    split = [(len(vs), c) for c, vs in cells.items() if len(vs) > 1]
    return cells[min(split)[1]] if split else None


class _Path:
    """The leftmost path of one side's search tree, refined once.

    Level 0 is the refined unit colouring; level j + 1 refines level j
    with the first vertex of its target cell individualized.  Each level
    holds the trace of its refinement, its colouring and its target cell
    (None once the colouring is discrete), and is built when first asked
    for.
    """

    def __init__(self, side: tuple):
        self.side = side
        self.levels: list[tuple] = []

    def level(self, depth: int) -> tuple:
        while len(self.levels) <= depth:
            if self.levels:
                _, col, cell = self.levels[-1]
                col = _individualize(col, cell[0])
            else:
                col = [0] * len(self.side[2])
            col, rounds = _refine(self.side, col)
            self.levels.append((rounds, col, _target_cell(col)))
        return self.levels[depth]


def _search(path: _Path, right: tuple, cr: list, depth: int):
    """Yield every facet-preserving bijection from the path's side to
    right, which has as many facets, that respects cr and the colouring
    the path refines at this depth, as the list of images of 0..n-1.

    The left side of every node lies on the leftmost path, so only cr is
    refined, against the trace of the path's level.
    """
    rounds, cl, cell = path.level(depth)
    cr = _follow(right, cr, rounds)
    if cr is None:
        return
    if cell is None:
        (left_facets, _, _), (_, right_facet_set, _) = path.side, right
        where = {c: w for w, c in enumerate(cr)}
        perm = [where[c] for c in cl]
        # perm is a bijection, so distinct facets have distinct images, and
        # the sides have as many facets: images that are all facets on the
        # right are all of them
        if all(tuple(sorted(f(perm))) in right_facet_set for f in left_facets):
            yield perm
        return
    target = cl[cell[0]]
    for w, c in enumerate(cr):
        if c == target:
            yield from _search(path, right, _individualize(cr, w), depth + 1)


def _orbit(b: int, gens: list[list]) -> set:
    """The orbit of b under the group that gens generate."""
    orbit = {b}
    frontier = [b]
    while frontier:
        u = frontier.pop()
        for g in gens:
            if g[u] not in orbit:
                orbit.add(g[u])
                frontier.append(g[u])
    return orbit


def automorphism_group(x: Complex, guard: int = DEFAULT_GUARD) -> AutGroup:
    """The full automorphism group, exactly.

    The generators are the strong generating set the search finds, in the
    order found; the order is the product of the basic orbit lengths along
    the base.
    """
    verts = x.vertices
    n = len(verts)
    if n > guard:
        raise GuardExceeded(f"{n} vertices exceed the guard {guard}")
    side = _indexed(x)
    path = _Path(side)
    # the base b_0..b_{m-1}: the first vertex of each level's target cell
    m = 0
    while path.level(m)[2] is not None:
        m += 1
    gens: list[list] = []
    order = 1
    for depth in reversed(range(m)):
        _, col, cell = path.level(depth)
        b = cell[0]
        orbit = _orbit(b, gens)
        for w in cell:
            if w in orbit:
                continue
            perm = next(_search(path, side, _individualize(col, w), depth + 1), None)
            if perm is not None:
                gens.append(perm)
                orbit = _orbit(b, gens)
        order *= len(orbit)
    orbits: list[tuple] = []
    for v in range(n):
        if all(verts[v] not in o for o in orbits):
            orbits.append(tuple(verts[i] for i in sorted(_orbit(v, gens))))
    return AutGroup(
        generators=tuple({v: verts[i] for v, i in zip(verts, g)} for g in gens),
        order=order,
        vertex_orbits=tuple(sorted(orbits, key=lambda ms: str(ms[0]))),
    )


def is_isomorphic(x: Complex, y: Complex, guard: int = DEFAULT_GUARD) -> dict | None:
    """A facet-preserving vertex bijection, or None."""
    if max(len(x.vertices), len(y.vertices)) > guard:
        raise GuardExceeded(f"vertex count exceeds the guard {guard}")
    shape = (x.dimension, len(x.vertices), len(x.facet_sets))
    if shape != (y.dimension, len(y.vertices), len(y.facet_sets)):
        return None
    perm = next(_search(_Path(_indexed(x)), _indexed(y), [0] * len(x.vertices), 0), None)
    if perm is None:
        return None
    return {v: y.vertices[w] for v, w in zip(x.vertices, perm)}


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
