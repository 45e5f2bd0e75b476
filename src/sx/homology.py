"""Exact reduced simplicial homology over prime fields and the rationals.

`betti` reduces first, then eliminates.  `_reduce` builds no faces: it
reduces a given face lattice from `complexes._face_lattice`, a complex's
own `Complex._lattice` or that of an induced subcomplex, by cancelling
pairs of cells over Z with coreductions and free-face collapses; both
keep the homology over Z, so over Q and every F_p.  `_residual_betti` then
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

The screens reduce a complex's own lattice once and eliminate its
residual field by field.  The ball screen is `_ball_detail`, which judges
x itself, then the sphere screen of x's boundary; `certify` runs
`_ball_detail` alone on a closure whose boundary is a sphere it has
screened already.  `_collapses_to_point`, the greedy collapse that
`certify.collapse` gives as a witness, runs on that same lattice with live
flags and live-coface counts, so every face read here comes from
`_face_lattice`, built at most once per `Complex`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import gcd

from .complexes import Complex, _bits, _Lattice
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


def _reduce(lattice: _Lattice, inside: int | None = None) -> list[list[int]]:
    """The cells of a face lattice from `_face_lattice` that survive
    reduction over Z, grouped by size: out[s] holds the residual cells with
    s vertices, s = 0 (the empty face) to the largest generator size.

    Every face is a cell, ∅ (mask 0) the augmentation cell.  With
    `inside`, the vertex mask A of an induced subcomplex Y, the cells are
    those of the chain complex of the pair: the faces inside A, ∅ among
    them, start dead, and face and coface counts count live cells only.
    The counts are this call's own, so one lattice serves every A.  A
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
    cells, faces, cofaces, sizes = lattice
    if inside is None:
        live = [True] * len(cells)
        n_face = [len(ids) for ids in faces]
        n_cof = [len(ids) for ids in cofaces]
        queue = deque([min(sizes[1], key=cells.__getitem__)])  # the lowest vertex, to pair with ∅
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
    out: list[list[int]] = [[] for _ in sizes]
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
            for j, v in enumerate(_bits(c)):
                r = rows.get(c ^ 1 << v)
                if r is not None:
                    col[r] = -1 if j & 1 else 1
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
    return _residual_betti(_reduce(x._lattice), field)


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


def _collapses_to_point(lattice: _Lattice) -> tuple[list[tuple[int, int]], int] | None:
    """Greedy elementary collapses of a face lattice from `_face_lattice`:
    (steps, vertex) when they take it down to one vertex, else None.

    Size by size from the top size s down to 2, cells are killed with live
    flags and live-coface counts: a first in, first out queue starts at the
    cells of size s − 1 with one live coface, in id order; a cell popped
    that still has one goes with that coface, and each face of the coface
    whose count drops to 1 joins the queue.  A live cell of size s left
    when the queue runs dry means the collapse is stuck.  steps lists the
    (free face, coface) mask pairs in the order removed, and vertex is the
    mask of the vertex left.  Each step is a homotopy equivalence, so a
    result means the complex is contractible; a tuple is truthy even with
    no steps.  None means only that this order got stuck.
    """
    cells, faces, cofaces, sizes = lattice
    live = [True] * len(cells)
    n_cof = [len(ids) for ids in cofaces]
    steps: list[tuple[int, int]] = []
    for s in range(len(sizes) - 1, 1, -1):
        queue = deque(f for f in sizes[s - 1] if n_cof[f] == 1)
        while queue:
            f = queue.popleft()
            if n_cof[f] != 1:  # dead, or its one coface went with another free face
                continue
            t = next(t for t in cofaces[f] if live[t])
            live[f] = live[t] = False
            steps.append((cells[f], cells[t]))
            for g in faces[t]:
                n_cof[g] -= 1
                if n_cof[g] == 1:
                    queue.append(g)
            for g in faces[f]:
                n_cof[g] -= 1
        if any(live[c] for c in sizes[s]):
            return None
    rest = [cells[v] for v in sizes[1] if live[v]]
    return (steps, rest[0]) if len(rest) == 1 else None


def _failing_field(x: Complex, fields: tuple[int, ...], like) -> str:
    """The detail of the first field, in order, over which the reduced
    Betti numbers of x are not `like`, or "" when there is none: x is
    reduced once over Z and its residual eliminated field by field."""
    cells = _reduce(x._lattice)
    for f in fields:
        check_field(f)
        b = _residual_betti(cells, f)
        if not like(b):
            return f"reduced betti over {field_name(f)} is {list(b)}"
    return ""


def screen_homology_sphere(x: Complex, fields: tuple[int, ...] = DEFAULT_FIELDS) -> ScreenVerdict:
    """PASS iff x is a closed normal pseudomanifold with the reduced
    homology of a d-sphere over every field."""
    fields = tuple(fields)
    cls = x.classify()
    if not (cls.normal_pseudomanifold and cls.closed):
        return ScreenVerdict(False, "sphere-screen", fields, "not a closed normal pseudomanifold")
    detail = _failing_field(x, fields, _sphere_like)
    return ScreenVerdict(not detail, "sphere-screen", fields, detail)


def _ball_detail(x: Complex, fields: tuple[int, ...]) -> str:
    """The ball screen's detail for x alone, or "" when it passes; x's
    boundary is not screened.  The boundary {∅} of a closed x is empty, and
    so is that of a point, whose one rim ridge is ∅."""
    cls = x.classify()
    if not cls.normal_pseudomanifold:
        return "not a normal pseudomanifold"
    if cls.closed or x.dimension == 0:
        return "boundary is empty"
    return _failing_field(x, fields, _point_like)


def screen_homology_ball(x: Complex, fields: tuple[int, ...] = DEFAULT_FIELDS) -> ScreenVerdict:
    """PASS iff x is a normal pseudomanifold, acyclic over every field, whose
    boundary screens as a sphere."""
    fields = tuple(fields)
    detail = _ball_detail(x, fields)
    if detail:
        return ScreenVerdict(False, "ball-screen", fields, detail)
    bd = x.boundary()
    if bd.dimension == 0:
        # boundary of a 1-ball: two points
        if len(bd.vertices) == 2:
            return ScreenVerdict(True, "ball-screen", fields)
        return ScreenVerdict(False, "ball-screen", fields, "0-dimensional boundary is not two points")
    inner = screen_homology_sphere(bd, fields)
    if not inner.passed:
        return ScreenVerdict(False, "ball-screen", fields, f"boundary: {inner.detail}")
    return ScreenVerdict(True, "ball-screen", fields)
