"""Exact reduced simplicial homology over prime fields and the rationals.

Boundary matrices are assembled sparsely per dimension, one dict of
nonzero rows per column, and their ranks come from a single sparse column
eliminator, `_pivot_rows`.  Over F_p it works modulo p with pivots scaled
to a leading 1; over Q it is fraction-free: integer entries throughout,
each pivot divided by the gcd of its entries.  `betti` computes the ranks
top-down with clearing: the columns of ∂_k at the pivot rows of ∂_{k+1},
reduced over the same field, are dropped before ∂_k is eliminated, which
leaves its rank unchanged.  Every rank is exact over Q and every F_p;
nothing here is floating point.

The screens collapse first: a greedy collapse on the facet bitmasks of
`Complex._facet_masks` that ends at a point settles the homology over Z,
and so over every field, with no elimination; where it gets stuck, they
fall back to exact elimination with `betti`, field by field.
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


def _boundary_columns(x: Complex, k: int) -> list[dict[int, int]]:
    """Columns of the k-th boundary map of the reduced chain complex.

    Rows and columns follow `Complex.face_index`; k = 0 yields the
    augmentation map, whose one row is the empty face.
    """
    rows = x.face_index[k - 1]
    return [
        {rows[f[:j] + f[j + 1:]]: (-1) ** j for j in range(len(f))}
        for f in x.face_index.get(k, ())
    ]


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


def _rank(cols: list[dict[int, int]], field: int) -> int:
    return len(_pivot_rows(cols, field))


def betti(x: Complex, field: int = 0) -> tuple[int, ...]:
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
        cols = _boundary_columns(x, k)
        cleared = _pivot_rows([c for i, c in enumerate(cols) if i not in cleared], field)
        ranks[k] = len(cleared)
    return tuple(f[k] - ranks[k] - ranks[k + 1] for k in range(d + 1))


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


def _collapses_to_point(facets) -> bool:
    """Whether greedy elementary collapses take the complex generated by
    the facet bitmasks down to one vertex.

    Top-down by dimension: a face of the top size is removed together with
    a free face below it, one that lies in no other face of that size, the
    free faces taken first in, first out from a queue that holds each with
    its coface set; once no face of the top size is left, the faces one
    size smaller are the top.  Each step is a homotopy equivalence, so True
    means the complex is contractible.  False means only that this order
    got stuck.
    """
    by_size: dict[int, list[int]] = {}
    for g in facets:
        by_size.setdefault(g.bit_count(), []).append(g)
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
            b = f
            while b:
                low = b & -b
                ts = cofaces[t ^ low]
                ts.discard(t)
                if len(ts) == 1:
                    queue.append(t ^ low)
                b ^= low
        if top:
            return False
        top = set(cofaces)
    top.update(by_size.get(1, ()))
    return len(top) == 1


def screen_homology_sphere(x: Complex, fields: tuple[int, ...] = DEFAULT_FIELDS) -> ScreenVerdict:
    """PASS iff x has the reduced homology of a d-sphere over every field.

    If x minus its lowest facet (the least mask) collapses to a point, x
    is a d-cell attached along its boundary to a contractible complex, so
    x ≃ S^d and the elimination is skipped; otherwise `betti` decides
    field by field.  Every ridge of a closed x lies in a second facet, so
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
    for f in fields:
        b = betti(x, f)
        if not _sphere_like(b):
            return ScreenVerdict(
                False, "sphere-screen", fields,
                f"reduced betti over {field_name(f)} is {list(b)}",
            )
    return ScreenVerdict(True, "sphere-screen", fields)


def screen_homology_ball(x: Complex, fields: tuple[int, ...] = DEFAULT_FIELDS) -> ScreenVerdict:
    """PASS iff x is acyclic over every field and its boundary screens as a sphere.

    If x collapses to a point it is acyclic over Z, and the elimination is
    skipped; otherwise `betti` decides field by field.
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
    inner = screen_homology_sphere(bd, fields)
    if not inner.passed:
        return ScreenVerdict(False, "ball-screen", fields, f"boundary: {inner.detail}")
    return ScreenVerdict(True, "ball-screen", fields)
