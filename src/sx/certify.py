"""Decision procedures and budgeted searches for the sphere/ball hierarchy.

Exact decisions (skeleton comparisons, dual-graph trees, closure
reconstructions) return PROVED or REFUTED outright.  Searches either
carry a replayable certificate on success or degrade to UNKNOWN at the
budget; REFUTED from a search is only ever reported when the state space
was exhausted without hitting a budget cutoff.  Any verdict resting on a
homology screen carries a note saying which fields were screened.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import reduce
from operator import or_

from .complexes import Complex, skeleta_equal
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
    _boundary_columns,
    _rank,
    betti,
    check_field,
    screen_homology_ball,
    screen_homology_sphere,
)
from .moves import (
    BistellarMove,
    MoveCertificate,
    ShellingMove,
    apply_shelling,
    bistellar_options,
    boundary_certificate,
    flip_facets,
    is_standard_sphere,
    replay,
    reverse_move,
)

PROVED = "PROVED"
REFUTED = "REFUTED"
UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class SearchBudget:
    """Budget and reproducibility knobs shared by every search.

    max_nodes bounds the states a backtracking search expands, and
    max_moves the length of the move path of the stellatedness search.
    seed and restarts drive the randomized restarts of `collapse`.
    """

    max_nodes: int = 200_000
    max_moves: int = 10_000
    seed: int = 0
    restarts: int = 16

    def rng(self, restart: int) -> random.Random:
        return random.Random((self.seed * 0x9E3779B97F4A7C15 + restart) & 0xFFFFFFFFFFFFFFFF)


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


def is_k_stacked_ball(b: Complex, k: int, fields=DEFAULT_FIELDS) -> Verdict:
    """Exact skeleton comparison between a screened ball and its boundary.

    A ball of dimension d+1 is k-stacked when every face of dimension
    <= d-k lies on the boundary.
    """
    screen = screen_homology_ball(b, fields)
    if not screen.passed:
        raise NotABall(screen.detail)
    d = b.dimension - 1
    bd = b.boundary()
    top = d - k
    notes = (screen.render_note(),)
    for m in range(0, top + 1):
        inner = b.faces(m) - bd.faces(m)
        if inner:
            w = min(inner, key=lambda f: b.face_tuple(f))
            return Verdict(
                REFUTED,
                witness={"interior_face": list(b.face_tuple(w)), "dimension": m},
                notes=notes,
            )
    return Verdict(
        PROVED,
        witness={
            "skeleton_checked_up_to": top,
            "face_counts": [len(b.faces(m)) for m in range(0, max(top + 1, 0))],
        },
        notes=notes,
    )


def is_one_stacked_ball(x: Complex) -> Verdict:
    """Dual-graph tree test; exact for normal pseudomanifolds."""
    if not x.classify().normal_pseudomanifold:
        raise NotNormalPseudomanifold("dual-graph tree test needs a normal pseudomanifold")
    g = x.dual_graph()
    if g.is_tree():
        return Verdict(
            PROVED,
            witness={"tree_edges": [[list(a), list(b)] for a, b in g.edge_faces()]},
        )
    reason = "disconnected dual graph" if not g.is_connected() else "dual graph has a cycle"
    return Verdict(
        REFUTED,
        witness={"reason": reason, "nodes": len(g.nodes), "edges": len(g.edges)},
    )


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

    # facet masks: of the facets through each vertex, and through each
    # ridge sigma \ {v} of each facet sigma
    index = {frozenset(f): i for i, f in enumerate(facets)}

    def mask(fs) -> int:
        return sum(1 << index[f] for f in fs)

    star = {v: mask(fs) for v, fs in b._vertex_star.items()}
    ridges = [
        [(v, mask(b._ridge_incidence[frozenset(f) - {v}])) for v in f] for f in facets
    ]
    # a facet that shares no ridge with P has an empty restriction face
    nbr = [reduce(or_, (r for _, r in rs)) for rs in ridges]

    def children(state: int):
        for j in range(m):
            if state >> j & 1 or not nbr[j] & state:
                continue
            beta = [v for v, r in ridges[j] if (r & state).bit_count() == 1]
            if len(beta) > k:
                continue
            holders = state
            for v in beta:
                holders &= star[v]
            if not holders:
                alpha = tuple(v for v in facets[j] if v not in beta)
                yield ShellingMove(alpha=alpha, beta=tuple(beta)), state | 1 << j

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


def _forward_certificate(target: Complex, final: Complex, trail) -> MoveCertificate:
    moves = tuple(reverse_move(mv) for mv in reversed(trail))
    cert = MoveCertificate(
        kind="bistellar",
        start_digest=final.digest,
        moves=moves,
        result_digest=target.digest,
    )
    replay(cert, final)  # certificate must replay before we hand it out
    return cert


def _tree_shelling_certificate(ball: Complex) -> MoveCertificate:
    """Shelling certificate of a ball whose dual graph is a tree (breadth
    first from the canonical root; every attachment is an index-0 move)."""
    g = ball.dual_graph()
    n = len(g.nodes)
    adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for a, bb in g.edges:
        adj[a].append(bb)
        adj[bb].append(a)
    order = [0]
    seen = {0}
    queue = [0]
    parent = {0: None}
    while queue:
        cur = queue.pop(0)
        for w in sorted(adj[cur]):
            if w not in seen:
                seen.add(w)
                parent[w] = cur
                order.append(w)
                queue.append(w)
    seed = Complex([g.nodes[0]])
    current = seed
    moves = []
    for i in order[1:]:
        sigma = frozenset(g.nodes[i])
        ridge = sigma & frozenset(g.nodes[parent[i]])
        (u,) = sigma - ridge
        mv = ShellingMove(alpha=ball.face_tuple(ridge), beta=(u,))
        current = apply_shelling(current, mv)
        moves.append(mv)
    return MoveCertificate(
        kind="shelling",
        start_digest=seed.digest,
        moves=tuple(moves),
        result_digest=ball.digest,
    )


def _exhaustive_search(s: Complex, lo: int, budget: SearchBudget):
    """Depth-first search from s for the standard sphere over reverse
    moves of index lo..d, memoized on facet sets.

    A state is a facet set, and a child's comes from `flip_facets`; a
    Complex is built only to list a state's moves.  Children come in the
    canonical move order reversed: by descending index, so moves that drop
    the facet count come first, and within an index moves on later
    vertices first.  The move path is at most budget.max_moves long.
    Returns (trail, final, nodes, cut) as `_memo_dfs` does, with the facet
    set reached as final; trail and final are None when the standard
    sphere was not reached.
    """
    d = s.dimension

    def children(facets: frozenset):
        opts = bistellar_options(Complex(facets), lo, d)
        return ((mv, flip_facets(facets, mv)) for mv in reversed(opts))

    def is_goal(facets: frozenset) -> bool:
        # a pure d-complex with d + 2 facets on d + 2 vertices
        return len(facets) == d + 2 and len(frozenset().union(*facets)) == d + 2

    states, trail, nodes, cut = _memo_dfs(
        [s.facet_sets], children, is_goal, budget, budget.max_moves
    )
    return trail, states[-1] if states else None, nodes, cut


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
        inner = certify_k_stacked_sphere(s, 1, fields=fields)
        if inner.refuted:
            return Verdict(REFUTED, witness=inner.witness, notes=inner.notes)
        ball = stacked_ball_closure(s, 1)
        try:
            shelling = _tree_shelling_certificate(ball)
            seed = Complex([ball.facets[0]])
            cert = boundary_certificate(shelling, seed)
            replay(cert, seed.boundary())
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
        cert = _forward_certificate(s, Complex(final), trail)
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
    d = s.dimension
    if not 0 <= k <= d:
        raise ValueError(f"need 0 <= k <= {d}, got k={k}")
    notes = (screen.render_note(),)
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
        inner = screen_homology_ball(ball, fields)
        if not inner.passed:
            return Verdict(REFUTED, witness={"reason": f"closure: {inner.detail}"}, notes=notes)
        if not skeleta_equal(ball, s, d - k):
            for m in range(0, d - k + 1):
                diff = ball.faces(m) - s.faces(m)
                if diff:
                    w = min(diff, key=lambda f: ball.face_tuple(f))
                    return Verdict(
                        REFUTED,
                        witness={
                            "reason": "closure has an interior face of low dimension",
                            "interior_face": list(ball.face_tuple(w)),
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


def flip_scan(s: Complex, lo: int, hi: int) -> list[BistellarMove]:
    """All bistellar moves with index in [lo, hi]; empty on k-stacked
    spheres over the forbidden middle range."""
    return bistellar_options(s, lo, hi)


# -- ears and collapsibility -----------------------------------------------------


def _is_path(c: Complex) -> bool:
    if c.dimension != 1 or not c.is_pure:
        return False
    if max(len(star) for star in c._vertex_star.values()) > 2:
        return False
    return len(c.facet_sets) == len(c.vertices) - 1 and c.is_connected


def _is_disk(c: Complex) -> bool:
    """Exact test: connected 2-manifold, one boundary cycle, chi = 1."""
    if c.dimension != 2 or not c.is_weak_pseudomanifold:
        return False
    # every vertex link must be a single path or a single cycle
    for v in c.vertices:
        lk = c.link((v,))
        if not (_is_path(lk) or _is_cycle(lk)):
            return False
    return c.is_connected and _is_cycle(c.boundary()) and c.euler_characteristic == 1


def _is_cycle(c: Complex) -> bool:
    if c.dimension != 1 or not c.is_pure:
        return False
    return all(len(star) == 2 for star in c._vertex_star.values()) and c.is_connected


def is_ball_exact(c: Complex, dim: int) -> bool:
    """Exact triangulated-ball recognition for dimensions 0..2."""
    if dim == 0:
        return c.dimension == 0 and len(c.vertices) == 1
    if dim == 1:
        return _is_path(c)
    if dim == 2:
        return _is_disk(c)
    raise DimensionTooHigh(f"no exact ball recognition in dimension {dim}")


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
    """Greedy free-face collapsing with randomized restarts.

    PROVED returns the elementary collapse sequence down to one vertex;
    greedy incompleteness means failure only ever yields UNKNOWN.
    """
    budget = budget or SearchBudget()
    if b.is_empty_complex:
        raise NotWeakPseudomanifold("cannot collapse the empty complex")
    base_faces = set(b.all_faces())
    steps_total = 0
    for restart in range(budget.restarts):
        rng = budget.rng(restart)
        faces = set(base_faces)
        seq = []
        while True:
            if len(faces) == 1 and len(next(iter(faces))) == 1:
                return Verdict(
                    PROVED,
                    witness={
                        "collapse_steps": [
                            [list(b.face_tuple(g)), list(b.face_tuple(s))] for g, s in seq
                        ],
                        "final_vertex": list(b.face_tuple(next(iter(faces)))),
                    },
                    budget_spent={"restarts": restart + 1, "steps": steps_total, "seed": budget.seed},
                )
            cof: dict = {}
            for f in faces:
                for v in f:
                    g = f - {v}
                    if g:
                        cof[g] = cof.get(g, 0) + 1
            # the face set stays downward closed, so one covering coface
            # means one proper coface overall: exactly the free faces
            free = [g for g, n in cof.items() if n == 1]
            if not free:
                break
            top = max(len(g) for g in free)
            pool = sorted((g for g in free if len(g) == top), key=b.face_tuple)
            g = pool[rng.randrange(len(pool))]
            (s,) = [f2 for f2 in faces if g < f2 and len(f2) == len(g) + 1]
            faces.discard(g)
            faces.discard(s)
            seq.append((g, s))
            steps_total += 1
    return Verdict(
        UNKNOWN,
        witness={"reason": "greedy collapsing stalled on every restart"},
        budget_spent={"restarts": budget.restarts, "steps": steps_total, "seed": budget.seed},
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


def _induced_rank_injective(x: Complex, y: Complex, j: int, field: int, x_cache: dict) -> bool:
    """Injectivity of reduced H_j(y) -> H_j(x) for an induced subcomplex y.

    The kernel is (B_j(x) ∩ C_j(y)) / B_j(y), since every boundary of x is
    a cycle and the cycles of x inside C_j(y) are the cycles of y.  Deleting
    the rows of y's j-faces from ∂_{j+1}(x) leaves a matrix of rank
    dim B_j(x) - dim(B_j(x) ∩ C_j(y)), so three exact ranks decide the map.
    x_cache holds x's columns and rank per degree j.  With mixed labels y
    may order its vertices unlike x, so y's faces find their rows through
    x.face_tuple.
    """
    if j not in x_cache:
        cols = _boundary_columns(x, j + 1)
        x_cache[j] = (cols, _rank(cols, field))
    bx_cols, bx_rank = x_cache[j]
    rows = x.face_index[j]
    y_rows = {rows[x.face_tuple(f)] for f in y.faces(j)}
    outside_y = [{i: v for i, v in col.items() if i not in y_rows} for col in bx_cols]
    by_rank = _rank(_boundary_columns(y, j + 1), field)
    return bx_rank - _rank(outside_y, field) == by_rank


def is_tight_exhaustive(x: Complex, field: int, guard: int = 16) -> Verdict:
    """Brute force over induced subcomplexes: REFUTED at the first one
    whose reduced homology fails to inject."""
    check_field(field)
    n = len(x.vertices)
    if n > guard:
        raise GuardExceeded(f"{n} vertices exceed the guard {guard}")
    import itertools

    x_cache: dict = {}
    verts = x.vertices
    for size in range(1, n):
        for combo in itertools.combinations(verts, size):
            y = x.induced(combo)
            for j in range(0, y.dimension + 1):
                if not _induced_rank_injective(x, y, j, field, x_cache):
                    return Verdict(
                        REFUTED,
                        witness={"vertices": [str(v) for v in combo], "dimension": j},
                    )
    return Verdict(PROVED, witness={"subsets_checked": 2**n - 2})
