"""Decision procedures and budgeted searches for the sphere/ball hierarchy.

Exact decisions (skeleton comparisons, dual-graph trees, closure
reconstructions) return PROVED or REFUTED outright.  Searches either
carry a replayable certificate on success or degrade to UNKNOWN at the
budget; REFUTED from a search is only ever reported when the state space
was exhausted without a budget cutoff, except at k = 1: stellatedness and
stackedness follow one path of vertex removals, by the lemma of
`_exhaustive_search`, and the shelling search runs only on dual trees, by
the lemma of `certify_k_shelled`.  Any verdict resting on a homology
screen carries a note saying which fields were screened.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

from .complexes import Complex, _bits, _face_lattice
from .constructions import stacked_ball_closure, vertex_ball
from .errors import (
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
    _star_residual,
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
    _Masks,
    _named,
    is_standard_sphere,
    replay,
    reverse_move,
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
            out["certificate"] = self.certificate.as_dict()
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


def is_k_stacked_ball(b: Complex, k: int) -> Verdict:
    """Exact skeleton comparison between a screened ball and its boundary.

    A ball of dimension d+1 is k-stacked when every face of dimension
    <= d-k lies on the boundary.
    """
    if not (0 <= k <= b.dimension):
        raise ValueError(f"need 0 <= k <= {b.dimension}, got k={k}")
    screen = screen_homology_ball(b)
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
    no goal is reachable from its roots.  A live child is expanded as soon
    as it is pulled, before children is called again: callers may rely on
    that for speed, never for correctness.
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

    A state's moves, ascending by facet, are derived from its parent's
    when the state is the child its parent yielded last, which `_memo_dfs`
    expands at once; any other state (a root) scans every facet.  When
    facet j joins P, a facet i that is not a neighbour of j keeps its
    shelled neighbours, so it keeps its attachment: it stays a move iff it
    was one and j does not contain its beta (j is outside its through
    mask), and it cannot become one.  j itself drops out, as it contains
    its own beta, and the neighbours of j outside P are looked up in the
    memo again.  So the moves are exactly those of a full scan, in the same
    order, and the lists live only along the search path.

    At k = 1 only a tree is searched, by the lemma: a pure complex of
    dimension >= 1 is 1-shelled iff a normal pseudomanifold whose dual graph
    is a tree.  A 1-shelling glues each facet along one ridge through a new
    vertex: it builds a PL ball, so a normal pseudomanifold, with m - 1 dual
    edges.  Conversely, a facet sigma with a neighbour tau in P, a subtree,
    has no other one there; were w = sigma \\ tau in a facet of P, the star of
    w, strongly connected by normality, would join sigma to it through
    ridges holding w, avoiding sigma's one edge towards P.  So w is new,
    every neighbour of P is a move, and one path of m - 1 nodes succeeds.
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
    if k == 1:
        tree = Verdict(REFUTED, witness={"reason": "not a normal pseudomanifold"})
        if b.classify().normal_pseudomanifold:
            tree = is_one_stacked_ball(b)
        if tree.refuted:
            lemma = "1-shelled iff a normal pseudomanifold whose dual graph is a tree"
            tree.witness["reason"] = f"{lemma}: {tree.witness['reason']}"
            return tree

    # facet masks over `facets` indices: of the facets through each ridge,
    # of each facet's neighbours, and through each vertex position
    masks, table, nbr = b._facet_masks, b._ridge_table, b._neighbour_masks
    star = [0] * len(b.vertices)
    for i, g in enumerate(masks):
        for v in _bits(g):
            star[v] |= 1 << i
    memo: list[dict] = [{} for _ in range(m)]  # facet j -> near -> attachment

    def attachment(j: int, near: int) -> tuple:
        """(j, through, move): facet j's move onto shelled neighbours near
        and the facets through its beta, or through -1 and move None when
        j has no move."""
        g = masks[j]
        beta = sum(1 << v for v in _bits(g) if (table[g ^ 1 << v] & near).bit_count() == 1)
        if not beta or beta.bit_count() > k:
            return j, -1, None
        through = -1
        for v in _bits(beta):
            through &= star[v]
        return j, through, ShellingMove(alpha=b._labels(g ^ beta), beta=b._labels(beta))

    adj = [list(_bits(n)) for n in nbr]
    last = None  # (the child yielded last, its parent's options, the facet it adds)

    def children(state: int):
        nonlocal last
        if last is not None and last[0] == state:
            _, parent, j = last
            bit, adjacent = 1 << j, nbr[j]
            # j lies in its own through mask; its neighbours are looked up again
            options = [e for e in parent if not (e[1] & bit or adjacent >> e[0] & 1)]
            scan = adj[j]
        else:
            options, scan = [], range(m)
        for i in scan:
            # a facet that shares no ridge with P has an empty restriction face
            near = nbr[i] & state
            if not near or state >> i & 1:
                continue
            e = memo[i].get(near)
            if e is None:
                e = memo[i][near] = attachment(i, near)
            if not e[1] & state:
                options.append(e)
        options.sort()
        for e in options:
            child = state | 1 << e[0]
            last = child, options, e[0]
            yield e[2], child

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


def _exhaustive_search(s: Complex, lo: int, budget: SearchBudget):
    """Depth-first search from s for the standard sphere over reverse
    moves of index lo..d, memoized on facet sets.

    A state is a sorted tuple of facet masks under one label-to-bit map
    (`moves._Masks`, which lists its moves), an exact memo key, and a
    pending child is an (alpha, beta) mask pair.  The masks step by the
    move to a child expanded as soon as it is yielded, and load the state
    only after a backtrack.  Children come in the canonical move order
    reversed: by descending index, so moves that drop the facet count come
    first, and within an index moves on later vertices first.  The move
    path is at most budget.max_moves long.
    Returns (trail, final, nodes, cut) as `_memo_dfs` does, with the facet
    set reached as final; trail and final are None when the standard
    sphere was not reached.

    At lo = d a state yields only its first child, so the search follows
    one path of vertex removals.  A path to the standard sphere, read
    backwards, stacks s, and the path gets there iff s is stacked, as
    every removal of a vertex v of degree d + 1 keeps a stacked sphere
    stacked.  For d = 1 every cycle is stacked.  For d >= 2, a stacked s
    bounds a 1-stacked ball B, which has no interior edge, so the only
    facet of B through v is {v} ∪ N(v).  It meets the rest of B along
    N(v), which is interior, as the move needs N(v) not to be a face of s,
    and removing it leaves a 1-stacked ball that bounds the new sphere.
    A stacked sphere other than the standard one always has such a v: the
    apex of a leaf facet of B's dual tree.
    """
    d = s.dimension
    m = _Masks(s)
    first = 1 if lo == d else None  # by the lemma above
    held = last = None  # the state m holds; (the child yielded last, its parent, its move)

    def children(state: tuple):
        nonlocal held, last
        if last is not None and last[0] is state and last[1] is held:
            m.swap(*last[2])  # listed valid in the parent m holds
        else:
            m.load(state)
        held = state
        for mv in itertools.islice(reversed(m.bistellar(lo, d)), first):
            last = _flip_masks(state, *mv), state, mv
            yield mv, last[0]

    def is_goal(state: tuple) -> bool:
        # a pure d-complex with d + 2 facets on d + 2 vertices
        return len(state) == d + 2 and functools.reduce(operator.or_, state).bit_count() == d + 2

    # states are sorted tuples, so a revisit of the root compares equal to it
    states, trail, nodes, cut = _memo_dfs(
        [tuple(sorted(s._facet_masks))], children, is_goal, budget, budget.max_moves
    )
    if states is None:
        return None, None, nodes, cut
    moves = []
    for state, (a, b) in zip(states, trail):
        numeric = not functools.reduce(operator.or_, state) & m.strs
        moves.append(BistellarMove(alpha=_named(m.labels, numeric, a), beta=_named(m.labels, numeric, b)))
    return moves, frozenset(frozenset(m.ascending(f)) for f in states[-1]), nodes, cut


_STUCK = "vertex removals stopped short of the standard sphere; each removal keeps a stacked sphere stacked"


def certify_k_stellated(s: Complex, k: int, budget: SearchBudget | None = None) -> Verdict:
    """Reduce s to the standard sphere by reverse moves of index > d-k.

    k = 0 is an equality test.  For k >= 1 a depth-first search over the
    reverse moves answers PROVED with a replayable forward certificate.
    For k <= d it answers REFUTED when it ends without a budget cut-off:
    moves of index >= 1 add no vertex, so the states are finitely many and
    the search has visited all those reachable from s.  At k = 1 it visits
    only one path of vertex removals, which decides by the lemma of
    `_exhaustive_search`.  For k = d + 1 index-0 moves add vertices without
    end, and the answer is PROVED or UNKNOWN.  budget_spent counts the
    search's nodes.
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
    screen = screen_homology_sphere(s)
    if not screen.passed:
        # stellated complexes are combinatorial spheres, so any homology
        # defect over any field refutes outright
        return Verdict(
            REFUTED,
            witness={"reason": f"not a homology sphere: {screen.detail}"},
            notes=(screen.render_note(),),
        )
    lo = d - k + 1
    trail, final, nodes, cut = _exhaustive_search(s, lo, budget)
    spent = {"nodes": nodes}
    if trail is not None:
        moves = [reverse_move(mv) for mv in reversed(trail)]
        cert = _bistellar_certificate(Complex(final), moves, s)
        return Verdict(PROVED, certificate=cert, budget_spent=spent)
    if lo >= 1 and not cut:
        reason = _STUCK if k == 1 else "reverse moves exhausted without reaching the standard sphere"
        return Verdict(REFUTED, witness={"reason": reason}, budget_spent=spent)
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
    A minimal non-face of a d-complex has at most d + 2 vertices, and the
    scan stops at the first one with more than ``size``.
    """
    sizes = range(max(size + 1, 2), s.dimension + 3)
    return next(s._minimal_non_faces(sizes), None) is None


def certify_k_stacked_sphere(s: Complex, k: int, candidate: Complex | None = None) -> Verdict:
    """Decide k-stackedness of a screened homology sphere.

    For dimension >= 2k the unique candidate ball decides: at k = 1 the
    stars that one path of vertex removals takes away and the simplex it
    ends on, by the lemma of `_exhaustive_search`, else the clique-style
    closure.  Below that bound a refutation is still available when the
    degree-(d-k+1) closure adds nothing (any witness ball would lie inside
    the sphere itself); otherwise only a caller-supplied ball can prove.
    Each candidate ball is judged by `_bounding_fault`.
    """
    screen = screen_homology_sphere(s)
    if not screen.passed:
        raise NotASphere(screen.detail)
    notes = (screen.render_note(),)
    d = s.dimension
    if not 0 <= k <= d:
        raise ValueError(f"need 0 <= k <= {d}, got k={k}")
    if d >= 2 * k:
        if k == 1:
            n = len(s.vertices)
            trail, final, _, _ = _exhaustive_search(s, d, SearchBudget(max_nodes=n, max_moves=n))
            if trail is None:
                return Verdict(REFUTED, witness={"reason": _STUCK}, notes=notes)
            ball = Complex([mv.alpha + mv.beta for mv in trail] + [frozenset().union(*final)])
        else:
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
        fault = _bounding_fault(s, ball, k)
        if fault is None:
            return Verdict(
                PROVED,
                witness={"ball_facets": _faces_out(ball, ball.facet_sets)},
                notes=notes,
            )
        step, found = fault
        if step == "bound":
            witness = {"reason": f"closure {found}"}
        elif step == "ball":
            witness = {"reason": f"closure: {found}"}
        else:
            witness = {
                "reason": "closure has an interior face of low dimension",
                "interior_face": found["interior_face"],
            }
        return Verdict(REFUTED, witness=witness, notes=notes)
    if k == d:
        # top-degree stackedness always holds: the cone over a vertex's
        # antistar is a ball with the same vertex set bounding s
        fault = _bounding_fault(s, vertex_ball(s, s.vertices[0]), k)
        if fault is None:
            return Verdict(
                PROVED,
                witness={"vertex_ball_apex": str(s.vertices[0])},
                notes=notes,
            )
        if fault[0] == "ball":
            raise NotABall(fault[1])
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
        fault = _bounding_fault(s, candidate, k)
        if fault is None:
            return Verdict(
                PROVED,
                witness={"candidate_ball_facets": _faces_out(candidate, candidate.facet_sets)},
                notes=notes,
            )
        step, found = fault
        if step == "ball":
            raise NotABall(found)
        if step == "bound":
            witness = {"reason": "candidate ball does not bound the sphere"}
        else:
            witness = {"reason": "candidate ball is not k-stacked", "detail": found}
        return Verdict(UNKNOWN, witness=witness, notes=notes)
    return Verdict(
        UNKNOWN,
        witness={"reason": f"dimension {d} < 2k; supply a candidate ball"},
        notes=notes,
    )


def _bounding_fault(s: Complex, ball: Complex, k: int) -> tuple[str, object] | None:
    """The first way in which ball falls short of a k-stacked ball bounded
    by s, which the caller has screened, or None: ("bound", reason) when
    ball has no boundary or its boundary is not s; ("ball", detail) when
    ball fails the ball screen, whose boundary half is the screen of s; and
    ("interior", witness) for its first interior face of dimension <= d - k,
    worded as `is_k_stacked_ball` words it."""
    try:
        if ball.boundary() != s:
            return "bound", "boundary differs from the sphere"
    except NotWeakPseudomanifold:
        return "bound", "is not a weak pseudomanifold"
    detail = _ball_detail(ball, DEFAULT_FIELDS)
    if detail:
        return "ball", detail
    hit = _interior_face(ball, s.dimension - k)
    if hit is not None:
        return "interior", {"interior_face": list(hit[1]), "dimension": hit[0]}
    return None


# -- ears and collapsibility -----------------------------------------------------


def ear_scan(b: Complex) -> list[tuple]:
    """The facets σ of the ball b whose boundary faces inside σ form a
    (d-1)-ball, in `facets` order, by the restriction-face rule.

    Let β be the vertices v of σ with σ \\ v a boundary ridge.  σ is an ear
    iff 1 <= |β| <= d and β lies in no boundary ridge.  This is exact in
    every dimension: the boundary faces inside σ are the faces of those |β|
    ridges iff β is not a boundary face, and any 1..d facets of ∂σ form a
    shellable (d-1)-ball; otherwise the boundary inside σ is not pure.  The
    bounds need no test of their own past the ball screen: the empty β lies
    in every boundary ridge, and β is never all of σ, as a normal
    pseudomanifold with two facets or more is strongly connected.
    """
    facets = b.facets
    if len(facets) == 1:
        return [facets[0]]
    screen = screen_homology_ball(b)
    if not screen.passed:
        raise NotABall(screen.detail)
    table = b._ridge_table
    rim = [r for r, h in table.items() if h.bit_count() == 1]
    ears = []
    for f, g in zip(facets, b._facet_masks):
        beta = sum(1 << v for v in _bits(g) if table[g ^ 1 << v].bit_count() == 1)
        if not any(beta & r == beta for r in rim):
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


def is_in_class(m: Complex, k: int, cls: str = "W", budget: SearchBudget | None = None) -> Verdict:
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
                sub = certify_k_stellated(lk, k, budget)
            else:
                sub = certify_k_stacked_sphere(lk, k)
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
    n = len(m.vertices)
    if n < k + 3:
        raise ValueError(f"need at least k + 3 = {k + 3} vertices, got n={n}")
    check_field(field)
    num, den = required_tight_beta(k, n)
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
    not empty.  So each k_j follows from three Betti numbers, each from a
    relative lattice of `_face_lattice` reduced by `_reduce`: β̃(x) once,
    by `betti`; β̃(Y) from `_star_residual`, the faces of Y outside the
    star of its vertex in the most facets of x; and β(x, Y) from the
    faces of x outside Y, which are those not inside A, so the simplex A
    serves as the `minus`.  No full lattice of x is built.  An acyclic Y
    needs no β(x, Y), as k_j <= β̃_j(Y)."""
    check_field(field)
    n = len(x.vertices)
    if n > guard:
        raise GuardExceeded(f"{n} vertices exceed the guard {guard}")
    bx = betti(x, field)  # EmptyInput on the empty complex
    masks = x._facet_masks
    for size in range(1, n):
        for combo in itertools.combinations(range(n), size):
            a = sum(1 << i for i in combo)
            by = _residual_betti(_star_residual(x, a), field)
            if not any(by):
                continue
            rel = _residual_betti(_reduce(_face_lattice(masks, [a])), field)
            k = 0
            for j, b in enumerate(by):
                k = rel[j] - bx[j] + b - k
                if k:
                    return Verdict(
                        REFUTED,
                        witness={"vertices": [str(x.vertices[i]) for i in combo], "dimension": j},
                    )
    return Verdict(PROVED, witness={"subsets_checked": 2**n - 2})
