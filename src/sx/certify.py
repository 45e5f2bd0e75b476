"""Decision procedures and budgeted searches for the sphere/ball hierarchy.

Exact decisions (skeleton comparisons, dual-graph trees, closure
reconstructions) return PROVED or REFUTED outright.  Searches either
carry a replayable certificate on success or degrade to UNKNOWN at the
budget; REFUTED from a search is only ever reported when the state space
was exhausted without hitting a budget cutoff.  Any verdict resting on a
homology screen carries a note saying which fields were screened.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import deque
from dataclasses import dataclass, field

from .complexes import Complex, _bits, _face_lattice
from .constructions import stacked_ball_closure
from .errors import (
    DimensionTooHigh,
    GuardExceeded,
    NotABall,
    NotASphere,
    NotClosed,
    NotNormalPseudomanifold,
    NotWeakPseudomanifold,
    SxError,
)
from .homology import (
    DEFAULT_FIELDS,
    _ball_detail,
    _collapses_to_point,
    _reduce,
    _residual_betti,
    betti,
    check_field,
    screen_homology_ball,
    screen_homology_sphere,
)
from .moves import (
    BistellarMove,
    MoveCertificate,
    ShellingMove,
    _flip_masks,
    _live_rank,
    _Masks,
    _named,
    is_standard_sphere,
    replay,
    reverse_move,
    standard_sphere,
)

PROVED = "PROVED"
REFUTED = "REFUTED"
UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class SearchBudget:
    """Budget knobs shared by every search.

    max_nodes bounds the states a backtracking search expands, and
    max_moves the length of the move path of the stellatedness search.
    No search is randomized: seed changes no verdict and is only echoed.
    """

    max_nodes: int = 200_000
    max_moves: int = 10_000
    seed: int = 0


@dataclass
class Verdict:
    status: str
    certificate: MoveCertificate | None = None
    witness: dict | None = None
    budget_spent: dict = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    @property
    def proved(self) -> bool:
        return self.status == PROVED

    @property
    def refuted(self) -> bool:
        return self.status == REFUTED

    @property
    def exit_code(self) -> int:
        return {PROVED: 0, REFUTED: 1, UNKNOWN: 2}[self.status]

    def as_dict(self) -> dict:
        out: dict = {"status": self.status}
        if self.certificate is not None:
            import json

            out["certificate"] = json.loads(self.certificate.to_json())
        if self.witness is not None:
            out["witness"] = self.witness
        if self.budget_spent:
            out["budget_spent"] = self.budget_spent
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def _faces_out(x: Complex, faces) -> list[list]:
    return [list(f) for f in x.sorted_faces(faces)]


# -- stackedness ---------------------------------------------------------------


def _interior_face(ball: Complex, top: int) -> tuple[int, tuple] | None:
    """(m, face) for the first face of ball of dimension m <= top that is
    not on its boundary, lowest m first and then in ball's vertex order,
    which compares positions and so mixed labels too; None when there is
    none.  Both are read off ball's own lattice: the boundary ridges are
    the cells of size `dimension` with one coface, and the boundary faces
    those ridges and every face below them."""
    cells, faces, cofaces, sizes = ball._lattice
    ridges = sizes[ball.dimension]
    rim = {i for i in ridges if len(cofaces[i]) == 1}
    for i in range(ridges.start, len(cells)):  # a cell's faces have higher ids
        if i in rim:
            rim.update(faces[i])
    for m, ids in enumerate(sizes[1 : top + 2]):
        inner = [cells[i] for i in ids if i not in rim]
        if inner:
            return m, ball.sorted_faces(map(ball._labels, inner))[0]
    return None


def is_k_stacked_ball(b: Complex, k: int, fields=DEFAULT_FIELDS) -> Verdict:
    """Exact skeleton comparison between a screened ball and its boundary.

    A ball of dimension d+1 is k-stacked when every face of dimension
    <= d-k lies on the boundary.
    """
    if not (0 <= k <= b.dimension):
        raise ValueError(f"need 0 <= k <= {b.dimension}, got k={k}")
    screen = screen_homology_ball(b, fields)
    if not screen.passed:
        raise NotABall(screen.detail)
    top = b.dimension - 1 - k
    notes = (screen.render_note(),)
    hit = _interior_face(b, top)
    if hit is not None:
        m, w = hit
        return Verdict(
            REFUTED, witness={"interior_face": list(w), "dimension": m}, notes=notes
        )
    return Verdict(
        PROVED,
        witness={
            "skeleton_checked_up_to": top,
            "face_counts": list(b.f_vector()[: max(top + 1, 0)]),
        },
        notes=notes,
    )


def is_one_stacked_ball(x: Complex) -> Verdict:
    """Dual-graph tree test; exact for normal pseudomanifolds.

    A normal pseudomanifold is strongly connected, so its dual graph is a
    tree when it has one edge fewer than nodes.  A closed one bounds
    nothing: the 0-sphere's dual graph is a tree, but it is not a ball.
    """
    cls = x.classify()
    if not cls.normal_pseudomanifold:
        raise NotNormalPseudomanifold("dual-graph tree test needs a normal pseudomanifold")
    nbr = x._neighbour_masks
    m = len(nbr)
    edges = sum(n.bit_count() for n in nbr) // 2
    if edges == m - 1 and not cls.closed:
        facets = x.facets
        tree = [
            [list(facets[i]), list(facets[j])]
            for i, n in enumerate(nbr)
            for j in _bits(n)
            if i < j
        ]
        return Verdict(PROVED, witness={"tree_edges": tree})
    reason = "dual graph has a cycle" if edges >= m else "closed complex has no boundary"
    return Verdict(REFUTED, witness={"reason": reason, "nodes": m, "edges": edges})


# -- shellability ---------------------------------------------------------------


def _memo_dfs(roots, children, is_goal, budget: SearchBudget, max_depth: int | None = None):
    """Memoized depth-first search for a goal state, from each root in turn.

    States are hashable and are their own memo keys.  children(state)
    yields (move, next_state) pairs and is drawn from lazily; a child that
    is dead or already on the current path is skipped.  A state whose
    subtree holds no goal joins a dead-set shared across roots.  A node is
    counted when it is first expanded, and the search stops once more than
    budget.max_nodes are counted; a node max_depth moves from its root is
    not expanded.  Returns (states, moves, nodes, cut): the states and moves
    from a root to the first goal, or None and None when no goal was
    reached.  cut says whether either bound cut the search short.  A search
    that ends uncut has visited a set of states closed under children, so
    no goal is reachable from its roots.
    """
    dead: set = set()
    nodes = 0
    cut = False
    for root in roots:
        if root in dead:
            continue
        states, moves, pending, on_path = [root], [], [None], {root}
        while states:
            cur = states[-1]
            if pending[-1] is None:
                if is_goal(cur):
                    return states, moves, nodes, False
                nodes += 1
                if nodes > budget.max_nodes:
                    return None, None, nodes, True
                capped = len(moves) == max_depth
                cut = cut or capped
                pending[-1] = iter(() if capped else children(cur))
            for mv, nxt in pending[-1]:
                if nxt not in dead and nxt not in on_path:
                    states.append(nxt)
                    moves.append(mv)
                    pending.append(None)
                    on_path.add(nxt)
                    break
            else:
                dead.add(cur)
                on_path.discard(states.pop())
                pending.pop()
                if moves:
                    moves.pop()
    return None, None, nodes, cut


def certify_k_shelled(b: Complex, k: int, budget: SearchBudget | None = None) -> Verdict:
    """Complete backtracking over shelling orders with index < k.

    States are subsets of facets already shelled, memoized in a global
    dead-set, so exhausting the space without a budget cutoff soundly
    refutes.  The certificate starts from the seed facet (a standard
    ball) and lists the attaching (alpha, beta) moves.

    A facet sigma attaches to the shelled part P through its restriction
    face R, the set of v in sigma for which ``sigma \\ {v}`` lies in
    exactly one facet of P: the move is ``(sigma \\ R, R)`` when R has
    at most k vertices and is not a face of P (so it is not empty).  No
    other beta can be valid, because for v outside beta the face
    ``sigma \\ {v}`` contains beta, so it is not a face of P either.

    The attachment of facet j is memoised on ``near = nbr[j] & P``, its
    shelled neighbours: every facet through a ridge of j other than j is a
    neighbour of j, in any pure complex, so R and the facets through R
    depend on (j, near) alone; only whether one of those is in P is asked
    at each node.  A pseudomanifold gives at most 2^(d+1) entries a facet,
    any complex at most one a facet and node, and the memo dies with the
    call.
    """
    budget = budget or SearchBudget()
    if not b.is_pure or b.is_empty_complex:
        raise NotWeakPseudomanifold("shelling search needs a pure complex")
    if not (0 <= k <= b.dimension):
        raise ValueError(f"need 0 <= k <= {b.dimension}, got k={k}")
    facets = b.facets
    m = len(facets)
    if m == 1:
        seed = Complex([facets[0]])
        cert = MoveCertificate(
            kind="shelling", start_digest=seed.digest, moves=(), result_digest=b.digest
        )
        return Verdict(PROVED, certificate=cert)
    if k == 0:
        return Verdict(REFUTED, witness={"reason": "only the standard ball has no moves"})

    # facet masks: of the facets through each ridge sigma \ {v} of each
    # facet sigma, of each facet's neighbours, and through each vertex
    ridges, nbr = b._ridge_masks, b._neighbour_masks
    star: dict = {}
    for i, rs in enumerate(ridges):
        for v, _ in rs:
            star[v] = star.get(v, 0) | 1 << i
    memo: list[dict] = [{} for _ in range(m)]  # facet j -> near -> attachment

    def attachment(j: int, near: int) -> tuple:
        """(through, move): facet j's move onto shelled neighbours near and
        the facets through its beta, or -1 and None when j has no move."""
        beta = [v for v, r in ridges[j] if (r & near).bit_count() == 1]
        if not beta or len(beta) > k:
            return -1, None
        through = -1
        for v in beta:
            through &= star[v]
        alpha = tuple(v for v in facets[j] if v not in beta)
        return through, ShellingMove(alpha=alpha, beta=tuple(beta))

    def children(state: int):
        for j in range(m):
            # a facet that shares no ridge with P has an empty restriction face
            near = nbr[j] & state
            if not near or state >> j & 1:
                continue
            hit = memo[j].get(near)
            if hit is None:
                hit = memo[j][near] = attachment(j, near)
            if not hit[0] & state:
                yield hit[1], state | 1 << j

    full = (1 << m) - 1
    states, moves, nodes, cut = _memo_dfs(
        [1 << i for i in range(m)], children, lambda s: s == full, budget
    )
    spent = {"nodes": nodes, "seed": budget.seed}
    if states is not None:
        seed = Complex([facets[states[0].bit_length() - 1]])
        cert = MoveCertificate(
            kind="shelling",
            start_digest=seed.digest,
            moves=tuple(moves),
            result_digest=b.digest,
        )
        return Verdict(PROVED, certificate=cert, budget_spent=spent)
    if cut:
        return Verdict(
            UNKNOWN, witness={"reason": "node budget exhausted"}, budget_spent=spent
        )
    return Verdict(
        REFUTED,
        witness={"reason": "complete backtracking exhausted all shelling orders"},
        budget_spent=spent,
    )


# -- stellatedness ----------------------------------------------------------------


def _bistellar_certificate(start: Complex, moves, target: Complex) -> MoveCertificate:
    cert = MoveCertificate(
        kind="bistellar",
        start_digest=start.digest,
        moves=tuple(moves),
        result_digest=target.digest,
    )
    replay(cert, start)  # certificate must replay before we hand it out
    return cert


def _stacked_certificate(s: Complex, ball: Complex) -> MoveCertificate:
    """Bistellar certificate of a sphere s bounding a ball whose dual graph
    is a tree.  Breadth first from the ball's first facet, each facet adds
    one vertex beta, which subdivides the sphere's facet alpha on the ridge
    to its parent: the ball's boundary grows from the first facet's."""
    facets, ridges, nbr = ball.facets, ball._ridge_masks, ball._neighbour_masks
    moves, seen, queue = [], 1, deque([0])
    while queue:
        cur = queue.popleft()
        for w in _bits(nbr[cur] & ~seen):
            seen |= 1 << w
            queue.append(w)
            (u,) = [v for v, r in ridges[w] if r >> cur & 1]
            moves.append(BistellarMove(alpha=tuple(v for v in facets[w] if v != u), beta=(u,)))
    start = standard_sphere(ball.dimension - 1, labels=facets[0])
    return _bistellar_certificate(start, moves, s)


def _exhaustive_search(s: Complex, lo: int, budget: SearchBudget):
    """Depth-first search from s for the standard sphere over reverse
    moves of index lo..d, memoized on facet sets.

    A state is a sorted tuple of facet masks under one label-to-bit map
    (`moves._Masks`, which lists its moves), an exact memo key, and a
    pending child is an (alpha, beta) mask pair.  Children come in the
    canonical move order reversed: by descending index, so moves that drop
    the facet count come first, and within an index moves on later
    vertices first.  The move path is at most budget.max_moves long.
    Returns (trail, final, nodes, cut) as `_memo_dfs` does, with the facet
    set reached as final; trail and final are None when the standard
    sphere was not reached.
    """
    d = s.dimension
    m = _Masks(s)

    def children(state: tuple):
        m.load(state)
        return ((mv, _flip_masks(state, *mv)) for mv in reversed(m.bistellar(lo, d)))

    def is_goal(state: tuple) -> bool:
        # a pure d-complex with d + 2 facets on d + 2 vertices
        return len(state) == d + 2 and functools.reduce(operator.or_, state).bit_count() == d + 2

    states, trail, nodes, cut = _memo_dfs(
        [s._facet_masks], children, is_goal, budget, budget.max_moves
    )
    if states is None:
        return None, None, nodes, cut
    moves = []
    for state, (a, b) in zip(states, trail):
        rank = _live_rank(m.labels, functools.reduce(operator.or_, state))
        moves.append(BistellarMove(alpha=_named(m.labels, rank, a), beta=_named(m.labels, rank, b)))
    return moves, frozenset(frozenset(m.ascending(f)) for f in states[-1]), nodes, cut


def certify_k_stellated(
    s: Complex,
    k: int,
    budget: SearchBudget | None = None,
    fields=DEFAULT_FIELDS,
) -> Verdict:
    """Reduce s to the standard sphere by reverse moves of index > d-k.

    k = 0 is an equality test and k = 1 is decided exactly through the
    stacked-ball reconstruction.  For k >= 2 a depth-first search over the
    reverse moves answers PROVED with a replayable forward certificate.
    For k <= d it answers REFUTED when it ends without a budget cut-off:
    moves of index >= 1 add no vertex, so the states are finitely many and
    the search has visited all those reachable from s.  For k = d + 1
    index-0 moves add vertices without end, and the answer is PROVED or
    UNKNOWN.  budget_spent counts the search's nodes.
    """
    budget = budget or SearchBudget()
    cls = s.classify()
    if not cls.weak_pseudomanifold:
        raise NotWeakPseudomanifold("stellatedness is defined for pure closed pseudomanifolds")
    if not cls.closed:
        raise NotClosed("input has non-empty boundary")
    d = s.dimension
    if not 0 <= k <= d + 1:
        raise ValueError(f"need 0 <= k <= {d + 1}, got k={k}")
    if is_standard_sphere(s):
        cert = MoveCertificate(
            kind="bistellar", start_digest=s.digest, moves=(), result_digest=s.digest
        )
        return Verdict(PROVED, certificate=cert)
    if k == 0:
        return Verdict(REFUTED, witness={"reason": "not the standard sphere"})
    screen = screen_homology_sphere(s, fields)
    if not screen.passed:
        # stellated complexes are combinatorial spheres, so any homology
        # defect over any field refutes outright
        return Verdict(
            REFUTED,
            witness={"reason": f"not a homology sphere: {screen.detail}"},
            notes=(screen.render_note(),),
        )
    if k == 1 and d >= 2:
        inner = _stacked_sphere(s, 1, None, fields, (screen.render_note(),))
        if inner.refuted:
            return Verdict(REFUTED, witness=inner.witness, notes=inner.notes)
        try:
            cert = _stacked_certificate(s, Complex(inner.witness["ball_facets"]))
        except SxError as exc:
            return Verdict(
                UNKNOWN,
                witness={"reason": f"reconstructed ball rejected a tree shelling: {exc}"},
                notes=inner.notes,
            )
        return Verdict(PROVED, certificate=cert, notes=inner.notes)
    lo = d - k + 1
    trail, final, nodes, cut = _exhaustive_search(s, lo, budget)
    spent = {"nodes": nodes}
    if trail is not None:
        moves = [reverse_move(mv) for mv in reversed(trail)]
        cert = _bistellar_certificate(Complex(final), moves, s)
        return Verdict(PROVED, certificate=cert, budget_spent=spent)
    if lo >= 1 and not cut:
        return Verdict(
            REFUTED,
            witness={"reason": "reverse moves exhausted without reaching the standard sphere"},
            budget_spent=spent,
        )
    return Verdict(
        UNKNOWN,
        witness={"reason": "reduction search did not reach the standard sphere"},
        budget_spent=spent,
    )


def _closure_adds_nothing(s: Complex, size: int) -> bool:
    """True iff ``clique_closure(s, size) == s``, read off the minimal
    non-faces without building the closure.

    A closure set outside s contains a minimal non-face whose subsets of at
    most ``size`` vertices are faces, so that non-face has more than
    ``size`` vertices; and any such minimal non-face lies in the closure.
    A minimal non-face of a d-complex has at most d + 2 vertices.
    """
    return all(len(f) <= size for f in s.missing_faces(s.dimension + 1))


def certify_k_stacked_sphere(
    s: Complex, k: int, candidate: Complex | None = None, fields=DEFAULT_FIELDS
) -> Verdict:
    """Decide k-stackedness of a screened homology sphere.

    For dimension >= 2k the clique-style closure is the unique candidate
    ball, so checking it is decisive.  Below that bound a refutation is
    still available when the degree-(d-k+1) closure adds nothing (any
    witness ball would lie inside the sphere itself); otherwise only a
    caller-supplied ball can prove.
    """
    screen = screen_homology_sphere(s, fields)
    if not screen.passed:
        raise NotASphere(screen.detail)
    return _stacked_sphere(s, k, candidate, fields, (screen.render_note(),))


def _stacked_sphere(s: Complex, k: int, candidate: Complex | None, fields, notes: tuple) -> Verdict:
    """`certify_k_stacked_sphere` past its screen of s, which gave notes."""
    d = s.dimension
    if not 0 <= k <= d:
        raise ValueError(f"need 0 <= k <= {d}, got k={k}")
    if d >= 2 * k:
        ball = stacked_ball_closure(s, k)
        if ball == s:
            return Verdict(
                REFUTED,
                witness={"reason": "closure adds no faces beyond the sphere"},
                notes=notes,
            )
        if ball.dimension != d + 1 or not ball.is_pure:
            return Verdict(
                REFUTED,
                witness={
                    "reason": "closure is not a pure complex of one higher dimension",
                    "closure_dimension": ball.dimension,
                },
                notes=notes,
            )
        try:
            bd = ball.boundary()
        except NotWeakPseudomanifold:
            return Verdict(
                REFUTED, witness={"reason": "closure is not a weak pseudomanifold"}, notes=notes
            )
        if bd != s:
            return Verdict(
                REFUTED,
                witness={"reason": "closure boundary differs from the sphere"},
                notes=notes,
            )
        # its boundary is s, screened already: only the ball itself is left
        detail = _ball_detail(ball, fields)
        if detail:
            return Verdict(REFUTED, witness={"reason": f"closure: {detail}"}, notes=notes)
        hit = _interior_face(ball, d - k)
        if hit is not None:
            return Verdict(
                REFUTED,
                witness={
                    "reason": "closure has an interior face of low dimension",
                    "interior_face": list(hit[1]),
                },
                notes=notes,
            )
        return Verdict(
            PROVED,
            witness={"ball_facets": _faces_out(ball, ball.facet_sets)},
            notes=notes,
        )
    if k == d:
        # top-degree stackedness always holds: the cone over a vertex's
        # antistar is a ball with the same vertex set bounding s
        from .constructions import vertex_ball

        ball = vertex_ball(s, s.vertices[0])
        sub = is_k_stacked_ball(ball, k, fields)
        if sub.proved and ball.boundary() == s:
            return Verdict(
                PROVED,
                witness={"vertex_ball_apex": str(s.vertices[0])},
                notes=notes,
            )
    # d < 2k: no uniqueness; refute via the skeleton-forced closure if possible
    if _closure_adds_nothing(s, d - k + 1):
        return Verdict(
            REFUTED,
            witness={
                "reason": "every face of a k-stacked bounding ball would lie in the sphere",
            },
            notes=notes,
        )
    if candidate is not None:
        try:
            bounds = candidate.boundary() == s
        except NotWeakPseudomanifold:
            bounds = False
        if not bounds:
            return Verdict(
                UNKNOWN,
                witness={"reason": "candidate ball does not bound the sphere"},
                notes=notes,
            )
        sub = is_k_stacked_ball(candidate, k, fields)
        if sub.proved:
            return Verdict(
                PROVED,
                witness={"candidate_ball_facets": _faces_out(candidate, candidate.facet_sets)},
                notes=notes + sub.notes,
            )
        return Verdict(
            UNKNOWN,
            witness={"reason": "candidate ball is not k-stacked", "detail": sub.witness},
            notes=notes,
        )
    return Verdict(
        UNKNOWN,
        witness={"reason": f"dimension {d} < 2k; supply a candidate ball"},
        notes=notes,
    )


# -- ears and collapsibility -----------------------------------------------------


def is_ball_exact(c: Complex, dim: int) -> bool:
    """Exact triangulated-ball recognition for dimensions 0..2.

    A normal 1- or 2-pseudomanifold is connected and each of its vertex
    links is a path or a cycle.  So with a boundary it is a path in
    dimension 1, and in dimension 2 a surface that is a disk when its
    boundary is one cycle and its Euler characteristic is 1.  In dimension
    0 the normal complexes with a boundary are the single points.
    """
    if dim not in (0, 1, 2):
        raise DimensionTooHigh(f"no exact ball recognition in dimension {dim}")
    if c.dimension != dim:
        return False
    cls = c.classify()
    if not cls.normal_pseudomanifold or cls.closed:
        return False
    return dim < 2 or (c.boundary().is_connected and c.euler_characteristic == 1)


def ear_scan(
    b: Complex,
    budget: SearchBudget | None = None,
    fields=DEFAULT_FIELDS,
) -> list[tuple]:
    """Facets whose removal leaves a ball, via the boundary-restriction test.

    A facet is an ear iff the faces of the boundary inside its vertex set
    form a (d-1)-ball; decided exactly for d-1 <= 2, by a budgeted
    shellability screen above that.
    """
    facets = b.facets
    if len(facets) == 1:
        return [facets[0]]
    screen = screen_homology_ball(b, fields)
    if not screen.passed:
        raise NotABall(screen.detail)
    d = b.dimension
    exact = d - 1 <= 2
    bd = b.boundary()
    ears = []
    for f in facets:
        u = set(f) & bd.vertex_set
        sub = bd.induced(u)
        if exact:
            if is_ball_exact(sub, d - 1):
                ears.append(f)
        else:
            if sub.dimension != d - 1 or not sub.is_pure:
                continue
            if sub.boundary().is_empty_complex:
                continue
            v = certify_k_shelled(sub, sub.dimension, budget)
            if v.proved:
                ears.append(f)
    return ears


def collapse(b: Complex, budget: SearchBudget | None = None) -> Verdict:
    """Greedy free-face collapsing by `homology._collapses_to_point` on
    b's face lattice.

    PROVED returns the elementary collapse sequence down to one vertex, as
    (free face, coface) pairs; greedy incompleteness means failure only
    ever yields UNKNOWN.  The collapse order is fixed, and budget.seed is
    only echoed.
    """
    budget = budget or SearchBudget()
    if b.is_empty_complex:
        raise NotWeakPseudomanifold("cannot collapse the empty complex")
    result = _collapses_to_point(b._lattice)
    if result is None:
        return Verdict(
            UNKNOWN,
            witness={"reason": "greedy collapsing got stuck"},
            budget_spent={"seed": budget.seed},
        )
    steps, vertex = result
    verts = b.vertices

    def labels(mask: int) -> list:
        return [verts[i] for i in _bits(mask)]

    return Verdict(
        PROVED,
        witness={
            "collapse_steps": [[labels(f), labels(t)] for f, t in steps],
            "final_vertex": labels(vertex),
        },
        budget_spent={"steps": len(steps), "seed": budget.seed},
    )


# -- link classes -----------------------------------------------------------------


def is_in_class(
    m: Complex,
    k: int,
    cls: str = "W",
    budget: SearchBudget | None = None,
    fields=DEFAULT_FIELDS,
) -> Verdict:
    """Check every vertex link for k-stellatedness (class W) or
    k-stackedness (class K); one link per vertex orbit when the
    automorphism group is within its guard.  The links' search counters
    add up into budget_spent."""
    if cls not in ("W", "K"):
        raise ValueError("cls must be 'W' or 'K'")
    if not m.is_pure or not m.is_connected:
        raise NotWeakPseudomanifold("class membership is defined for connected pure complexes")
    try:
        from .symmetry import automorphism_group

        reps = [orbit[0] for orbit in automorphism_group(m).vertex_orbits]
    except (GuardExceeded, SxError):
        reps = list(m.vertices)
    unknowns = []
    notes: tuple[str, ...] = ()
    spent: dict = {}
    for v in reps:
        lk = m.link((v,))
        try:
            if cls == "W":
                sub = certify_k_stellated(lk, k, budget, fields)
            else:
                sub = certify_k_stacked_sphere(lk, k, fields=fields)
        except SxError as exc:
            return Verdict(
                REFUTED,
                witness={"vertex": str(v), "reason": f"link fails structure: {exc}"},
                budget_spent=spent,
            )
        notes = tuple(dict.fromkeys(notes + sub.notes))
        for key, n in sub.budget_spent.items():
            spent[key] = spent.get(key, 0) + n
        if sub.refuted:
            return Verdict(
                REFUTED,
                witness={"vertex": str(v), "link": sub.witness},
                budget_spent=spent,
                notes=notes,
            )
        if not sub.proved:
            unknowns.append(str(v))
    if unknowns:
        return Verdict(UNKNOWN, witness={"vertices_unknown": unknowns}, budget_spent=spent, notes=notes)
    return Verdict(
        PROVED, witness={"links_checked": [str(v) for v in reps]}, budget_spent=spent, notes=notes
    )


# -- tightness --------------------------------------------------------------------


def tightness_beta_condition(m: Complex, k: int, field: int) -> Verdict:
    """Exact integer test of the middle Betti number formula
    binom(n-k-3, k+1) / binom(2k+3, k+1) for members of the class
    W_k(2k+1); a non-integer right side refutes outright."""
    if not (0 <= k <= m.dimension):
        raise ValueError(f"need 0 <= k <= {m.dimension}, got k={k}")
    check_field(field)
    n = len(m.vertices)
    num = math.comb(n - k - 3, k + 1)
    den = math.comb(2 * k + 3, k + 1)
    if num % den:
        return Verdict(
            REFUTED,
            witness={"reason": "required Betti number is not an integer", "value": f"{num}/{den}"},
        )
    required = num // den
    actual = betti(m, field)[k]
    if actual == required:
        return Verdict(PROVED, witness={"beta_k": actual, "required": required})
    return Verdict(REFUTED, witness={"beta_k": actual, "required": required})


def required_tight_beta(k: int, n: int) -> tuple[int, int]:
    """Numerator and denominator of the tightness Betti formula."""
    return math.comb(n - k - 3, k + 1), math.comb(2 * k + 3, k + 1)


def is_tight_exhaustive(x: Complex, field: int, guard: int = 16) -> Verdict:
    """Brute force over induced subcomplexes Y = x[A], by size and then in
    vertex order: REFUTED at the first Y whose reduced homology fails to
    inject, with the lowest degree j where it fails.

    Over one field, with k_j the dimension of the kernel of
    H̃_j(Y) → H̃_j(x), the long exact sequence of the pair (x, Y) gives
    β_j(x, Y) − β̃_j(x) + β̃_j(Y) = k_j + k_{j−1}, with k_{−1} = 0 as Y is
    not empty.  So each k_j follows from three Betti numbers: β̃(x) once,
    β̃(Y) from `_reduce` on the lattice of the generators g & A, and
    β(x, Y) from `_reduce` on x's own lattice with the faces inside A dead;
    an acyclic Y needs no β(x, Y), as k_j <= β̃_j(Y)."""
    check_field(field)
    n = len(x.vertices)
    if n > guard:
        raise GuardExceeded(f"{n} vertices exceed the guard {guard}")
    bx = betti(x, field)  # EmptyInput on the empty complex
    masks, lattice = x._facet_masks, x._lattice
    for size in range(1, n):
        for combo in itertools.combinations(range(n), size):
            a = sum(1 << i for i in combo)
            by = _residual_betti(_reduce(_face_lattice([g & a for g in masks])), field)
            if not any(by):
                continue
            rel = _residual_betti(_reduce(lattice, a), field)
            k = 0
            for j, b in enumerate(by):
                k = rel[j] - bx[j] + b - k
                if k:
                    return Verdict(
                        REFUTED,
                        witness={"vertices": [str(x.vertices[i]) for i in combo], "dimension": j},
                    )
    return Verdict(PROVED, witness={"subsets_checked": 2**n - 2})
