"""Automorphism groups, isomorphism testing, and vertex orbits.

Both searches run on the vertex indices 0..n-1 of a complex's canonical
vertex order, with facets as index tuples, by individualization and
refinement (McKay-Piperno, "Practical graph isomorphism, II", J. Symbolic
Comput. 60, 2014).  The vertex colourings of the two sides are refined
together: a vertex's new colour is its old colour with the sorted multiset
of the colour tuples of the facets in its star, coded through one table
shared by both sides, until the number of cells stops growing.  A colouring
that is not discrete is split by individualizing the first vertex of its
smallest non-singleton cell on the left against each vertex of that colour
on the right.  A discrete colouring gives one vertex map, and it is
accepted only if it sends the facet set onto the facet set: every verdict
rests on that exact check, never on the colours.

`automorphism_group` walks the leftmost path of that search to a base
b_0..b_{m-1}.  From the deepest level up, it searches b_i -> w only for the
w of b_i's cell that the generators found so far do not already carry b_i
to.  The generators found form a strong generating set along the base, the
order is the product of the basic orbit lengths (Schreier-Sims; Seress,
"Permutation Group Algorithms", 2003), and the vertex orbits are the orbits
of the generators.  No group element is listed.
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


def _indexed(x: Complex) -> tuple[list[tuple], frozenset, list[list[tuple]]]:
    """Facets as sorted vertex-index tuples, their set, and each vertex's star."""
    pos = x._vertex_pos
    facets = [tuple(pos[v] for v in f) for f in x.facets]
    star: list[list[tuple]] = [[] for _ in x.vertices]
    for f in facets:
        for i in f:
            star[i].append(f)
    return facets, frozenset(facets), star


def _refine(sides: tuple, colours: tuple) -> tuple:
    """Refine the colourings of the sides together until they are stable.

    A new colour determines the old one, so the cell count never falls and
    stops growing exactly when no cell splits on either side.  Vertices
    that an isomorphism respecting the colourings pairs up keep equal
    colours, because the shared table codes equal keys equally.
    """
    cells = len(set().union(*colours))
    while True:
        keys = []
        for (facets, _, star), col in zip(sides, colours):
            facet_colours = {f: tuple(sorted(col[i] for i in f)) for f in facets}
            keys.append(
                [(c, tuple(sorted(facet_colours[f] for f in star[v]))) for v, c in enumerate(col)]
            )
        table = {key: i for i, key in enumerate(sorted({key for ks in keys for key in ks}))}
        colours = tuple([table[key] for key in ks] for ks in keys)
        if len(table) == cells:
            return colours
        cells = len(table)


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


def _search(left: tuple, right: tuple, cl: list, cr: list):
    """Yield every facet-preserving bijection left -> right that respects
    the colourings cl and cr, as the list of images of 0..n-1."""
    cl, cr = _refine((left, right), (cl, cr))
    if sorted(cl) != sorted(cr):
        return
    cell = _target_cell(cl)
    if cell is None:
        (left_facets, _, _), (_, right_facet_set, _) = left, right
        where = {c: w for w, c in enumerate(cr)}
        perm = [where[c] for c in cl]
        if {tuple(sorted(perm[i] for i in f)) for f in left_facets} == right_facet_set:
            yield perm
        return
    u = cell[0]
    for w, c in enumerate(cr):
        if c == cl[u]:
            yield from _search(left, right, _individualize(cl, u), _individualize(cr, w))


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
    # the leftmost path: base point, its cell and the colouring it splits
    path = []
    (col,) = _refine((side,), ([0] * n,))
    while (cell := _target_cell(col)) is not None:
        path.append((col, cell[0], cell))
        (col,) = _refine((side,), (_individualize(col, cell[0]),))
    gens: list[list] = []
    order = 1
    for col, b, cell in reversed(path):
        orbit = _orbit(b, gens)
        for w in cell:
            if w in orbit:
                continue
            perm = next(_search(side, side, _individualize(col, b), _individualize(col, w)), None)
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
    if x.dimension != y.dimension or len(x.vertices) != len(y.vertices):
        return None
    if x.f_vector() != y.f_vector():
        return None
    unit = [0] * len(x.vertices)
    perm = next(_search(_indexed(x), _indexed(y), unit, unit), None)
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
