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
"""

from __future__ import annotations

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


def screen_homology_sphere(x: Complex, fields: tuple[int, ...] = DEFAULT_FIELDS) -> ScreenVerdict:
    """PASS iff x has the reduced homology of a d-sphere over every field."""
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


def screen_homology_ball(x: Complex, fields: tuple[int, ...] = DEFAULT_FIELDS) -> ScreenVerdict:
    """PASS iff x is acyclic over every field and its boundary screens as a sphere."""
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
    inner = screen_homology_sphere(bd, fields)
    if not inner.passed:
        return ScreenVerdict(False, "ball-screen", fields, f"boundary: {inner.detail}")
    return ScreenVerdict(True, "ball-screen", fields)
