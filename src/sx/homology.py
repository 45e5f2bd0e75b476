"""Exact reduced simplicial homology over prime fields and the rationals.

`betti` reduces first, then eliminates.  `_reduce` builds every face of
the complex as a vertex bitmask from `Complex._facet_masks` and cancels
pairs of cells over Z, by coreductions and free-face collapses; both keep
the homology over Z, so over Q and every F_p.  `_residual_betti` then
assembles the boundary maps of the cells left, one sparse dict of nonzero
rows per column, and takes their ranks per field with the one sparse
column eliminator, `_pivot_rows`: modulo p with pivots scaled to a leading
1 over F_p, fraction-free over Q (integer entries throughout, each pivot
divided by the gcd of its entries).  The ranks go top-down with clearing:
the columns of ∂_k at the pivot rows of ∂_{k+1}, reduced over the same
field, are dropped before ∂_k is eliminated, which leaves its rank
unchanged.  Every rank is exact over Q and every F_p; nothing here is
floating point.  Given the vertex mask A of an induced subcomplex Y,
`_reduce` reduces the relative chain complex of the pair instead: the
faces inside A start dead, so `_residual_betti` gives the relative Betti
numbers β_j(X, Y) that `certify` decides tightness by.

The screens collapse first: a greedy collapse on the facet bitmasks that
ends at a point settles the homology over Z, and so over every field, with
no elimination; where it gets stuck, they reduce the complex once and
eliminate its residual field by field.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import gcd

from .complexes import Complex
from .errors import EmptyInput, FieldTooLarge

DEFAULT_FIELDS: tuple[int, ...] = (0, 2, 3)

_MAX_PRIME = 2**31


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def check_field(field: int) -> int:
    """Validate a coefficient field descriptor: 0 for Q, else a prime p."""
    if field == 0:
        return 0
    if field >= _MAX_PRIME:
        raise FieldTooLarge(f"prime must be below 2^31, got {field}")
    if not _is_prime(field):
        raise ValueError(f"field descriptor must be 0 or a prime, got {field}")
    return field


def field_name(field: int) -> str:
    return "Q" if field == 0 else f"F{field}"


def _divide_by_gcd(col: dict[int, int]) -> None:
    g = 0
    for v in col.values():
        g = gcd(g, v)
    if g > 1:
        for i in col:
            col[i] //= g


def _pivot_rows(cols: list[dict[int, int]], field: int) -> set[int]:
    """Pivot rows of a sparse integer column matrix over F_p (field = p) or
    Q (0); their number is its rank.

    Each column is reduced against the stored pivots, keyed by their lowest
    row, until it vanishes or its lowest row is new and it becomes a pivot.
    A pivot is normalized to a leading 1 over F_p, and over Q divided by
    the gcd of its entries with a positive leading entry.  A reduction step
    is the in-place update col -= b * piv, taken mod p over F_p; over Q the
    column is first multiplied by the pivot's leading entry a (when a != 1)
    and gcd-reduced afterwards, so every entry stays an integer.
    """
    p = field
    pivots: dict[int, dict[int, int]] = {}
    for col in cols:
        if p:
            col = {r: v % p for r, v in col.items() if v % p}
        else:
            col = {r: v for r, v in col.items() if v}
        while col:
            r = min(col)
            piv = pivots.get(r)
            if piv is None:
                if p:
                    inv = pow(col[r], p - 2, p)
                    col = {i: v * inv % p for i, v in col.items()}
                else:
                    if col[r] < 0:
                        col = {i: -v for i, v in col.items()}
                    _divide_by_gcd(col)
                pivots[r] = col
                break
            a, b = piv[r], col[r]  # a == 1 over F_p
            if a != 1:
                for i in col:
                    col[i] *= a
            for i, v in piv.items():
                w = (col.get(i, 0) - b * v) % p if p else col.get(i, 0) - b * v
                if w:
                    col[i] = w
                elif i in col:
                    del col[i]
            if a != 1:
                _divide_by_gcd(col)
    return set(pivots)


def _reduce(masks, inside: int | None = None) -> list[list[int]]:
    """The cells of the complex generated by the bitmasks that survive
    reduction over Z, grouped by size: out[s] holds the residual cells with s
    vertices, s = 0 (the empty face) to the largest generator size.

    Every face is a cell, ∅ (mask 0) the augmentation cell.  The faces are
    built top-down from the generators, each with its cofaces, a smaller
    generator joining at its own size unless it is already a face.  With
    `inside`, the vertex mask A of an induced subcomplex Y, the cells are
    those of the chain complex of the pair: the faces inside A, ∅ among
    them, start dead, and face and coface counts count live cells only.  A
    first in, first out queue then removes pairs (a, b) of live cells, a a
    face of b, wherever b has exactly one live face a (a coreduction) or a
    has exactly one live coface b (a free-face collapse); without `inside`
    the first pair is (∅, lowest vertex), and with it the queue starts at
    every cell with one live face.  Simplicial incidences are ±1, a unit
    over Z, so each pair is an elementary reduction, and its correction
    term [c:a]·[b:a]⁻¹·∂b vanishes on the cells left: ∂b has no other live
    face in a coreduction, and no other live c has a as a face in a
    collapse.  The live cells with the original incidences restricted to
    them therefore form a chain complex with the homology of the complex
    over Z, or of the pair, so over Q and every F_p.
    """
    by_size: dict[int, list[int]] = {}
    union = 0
    for g in masks:
        by_size.setdefault(g.bit_count(), []).append(g)
        union |= g
    top = max(by_size)
    # cell i is the face cells[i]; faces[i] and cofaces[i] list cell ids.
    # The ids run by size downwards, so a layer is built in id order.
    index: dict[int, int] = {}
    cells: list[int] = []
    faces: list[list[int]] = []
    cofaces: list[list[int]] = []
    layer: list[int] = []
    for size in range(top, -1, -1):
        for g in by_size.get(size, ()):
            if g in index:
                continue
            index[g] = len(cells)
            cells.append(g)
            cofaces.append([])
            layer.append(g)
        below = []
        for t in layer:
            i = len(faces)
            ids = []
            b = t
            while b:
                low = b & -b
                j = index.get(t ^ low)
                if j is None:
                    j = index[t ^ low] = len(cells)
                    cells.append(t ^ low)
                    cofaces.append([i])
                    below.append(t ^ low)
                else:
                    cofaces[j].append(i)
                ids.append(j)
                b ^= low
            faces.append(ids)
        layer = below
    if inside is None:
        live = [True] * len(cells)
        n_face = [len(ids) for ids in faces]
        n_cof = [len(ids) for ids in cofaces]
        queue = deque([index[union & -union]])  # the lowest vertex, to pair with ∅
    else:
        live = [c & ~inside != 0 for c in cells]
        n_face = [sum(live[f] for f in ids) for ids in faces]
        n_cof = [sum(live[t] for t in ids) for ids in cofaces]
        queue = deque(i for i, n in enumerate(n_face) if n == 1)
    queue.extend(i for i, n in enumerate(n_cof) if n == 1)

    def remove(c: int) -> None:
        live[c] = False
        for f in faces[c]:
            if live[f]:
                n_cof[f] -= 1
                if n_cof[f] == 1:
                    queue.append(f)
        for t in cofaces[c]:
            if live[t]:
                n_face[t] -= 1
                if n_face[t] == 1:
                    queue.append(t)

    while queue:
        c = queue.popleft()
        if not live[c]:
            continue
        if n_face[c] == 1:  # coreduction: c's one live face goes with it
            remove(next(f for f in faces[c] if live[f]))
            remove(c)
        elif n_cof[c] == 1:  # free face: c goes with its one live coface
            t = next(t for t in cofaces[c] if live[t])
            remove(c)
            remove(t)
    out: list[list[int]] = [[] for _ in range(top + 1)]
    for c, alive in zip(cells, live):
        if alive:
            out[c.bit_count()].append(c)
    return out


def _residual_betti(cells: list[list[int]], field: int) -> tuple[int, ...]:
    """Reduced Betti numbers (β̃_0, ..., β̃_d) of the residual chain complex
    of `_reduce` over one field.

    ∂ of a cell b has the entry (−1)^j at its face b ^ bit, j the rank of
    the bit among b's set bits.  Ranks go from the top down with clearing,
    over this one field throughout: a pivot of ∂_{k+1} keyed at row r is a
    reduced column, so a k-cycle whose lowest row is r; from the highest
    such r down, column r of ∂_k is therefore a combination of the columns
    not cleared, and dropping the cleared ones keeps the rank.
    """
    ranks = [0] * (len(cells) + 1)
    cleared: set[int] = set()
    for s in range(len(cells) - 1, 0, -1):
        rows = {c: i for i, c in enumerate(cells[s - 1])}
        cols = []
        for i, c in enumerate(cells[s]):
            if i in cleared:
                continue
            col = {}
            b, j = c, 0
            while b:
                low = b & -b
                r = rows.get(c ^ low)
                if r is not None:
                    col[r] = -1 if j & 1 else 1
                b ^= low
                j += 1
            cols.append(col)
        cleared = _pivot_rows(cols, field)
        ranks[s] = len(cleared)
    return tuple(len(cells[s]) - ranks[s] - ranks[s + 1] for s in range(1, len(cells)))


def betti(x: Complex, field: int = 0) -> tuple[int, ...]:
    """Reduced Betti numbers (β̃_0, ..., β̃_d) over the given field: the
    cells of x are reduced over Z by `_reduce`, and only the residual is
    eliminated, by `_residual_betti`."""
    check_field(field)
    if x.is_empty_complex:
        raise EmptyInput("betti numbers of the empty complex are not defined here")
    return _residual_betti(_reduce(x._facet_masks), field)


def euler_characteristic(x: Complex) -> int:
    return x.euler_characteristic


@dataclass(frozen=True)
class ScreenVerdict:
    """Outcome of a homology screen over a finite list of fields.

    A PASS is evidence relative to the listed fields only, never a proof
    over all fields; render_note() spells that out for downstream verdicts.
    """

    passed: bool
    kind: str
    fields: tuple[int, ...]
    detail: str = ""

    def render_note(self) -> str:
        names = ", ".join(field_name(f) for f in self.fields)
        return f"modulo field screen over {{{names}}}"


def _sphere_like(b: tuple[int, ...]) -> bool:
    return all(v == 0 for v in b[:-1]) and b[-1] == 1


def _point_like(b: tuple[int, ...]) -> bool:
    return all(v == 0 for v in b)


def _collapses_to_point(facets) -> tuple[list[tuple[int, int]], int] | None:
    """Greedy elementary collapses of the complex generated by the facet
    bitmasks: (steps, vertex) when they take it down to one vertex, else
    None.

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


def screen_homology_sphere(x: Complex, fields: tuple[int, ...] = DEFAULT_FIELDS) -> ScreenVerdict:
    """PASS iff x has the reduced homology of a d-sphere over every field.

    If x minus its lowest facet (the least mask) collapses to a point, x
    is a d-cell attached along its boundary to a contractible complex, so
    x ≃ S^d and the elimination is skipped; otherwise x is reduced once and
    its residual eliminated field by field.  Every ridge of a closed x lies in a second facet, so
    the other facets still hold the removed facet's boundary.
    """
    fields = tuple(fields)
    cls = x.classify()
    if not (cls.normal_pseudomanifold and cls.closed):
        return ScreenVerdict(False, "sphere-screen", fields, "not a closed normal pseudomanifold")
    if _collapses_to_point(x._facet_masks[1:]):
        for f in fields:
            check_field(f)
        return ScreenVerdict(True, "sphere-screen", fields)
    cells = _reduce(x._facet_masks)
    for f in fields:
        check_field(f)
        b = _residual_betti(cells, f)
        if not _sphere_like(b):
            return ScreenVerdict(
                False, "sphere-screen", fields,
                f"reduced betti over {field_name(f)} is {list(b)}",
            )
    return ScreenVerdict(True, "sphere-screen", fields)


def screen_homology_ball(x: Complex, fields: tuple[int, ...] = DEFAULT_FIELDS) -> ScreenVerdict:
    """PASS iff x is acyclic over every field and its boundary screens as a sphere.

    If x collapses to a point it is acyclic over Z, and the elimination is
    skipped; otherwise x is reduced once and its residual eliminated field
    by field.
    """
    fields = tuple(fields)
    cls = x.classify()
    if not cls.normal_pseudomanifold:
        return ScreenVerdict(False, "ball-screen", fields, "not a normal pseudomanifold")
    bd = x.boundary()
    if bd.is_empty_complex:
        return ScreenVerdict(False, "ball-screen", fields, "boundary is empty")
    if _collapses_to_point(x._facet_masks):
        for f in fields:
            check_field(f)
    else:
        cells = _reduce(x._facet_masks)
        for f in fields:
            check_field(f)
            b = _residual_betti(cells, f)
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
    inner = screen_homology_sphere(bd, fields)
    if not inner.passed:
        return ScreenVerdict(False, "ball-screen", fields, f"boundary: {inner.detail}")
    return ScreenVerdict(True, "ball-screen", fields)
