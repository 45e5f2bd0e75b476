"""Decision procedures: exact verdicts, searches, and their certificates."""

import functools
import itertools
import math
import operator
import os
import random
import subprocess
import sys
from collections import deque
from fractions import Fraction

import pytest

import sx.certify as certify_module
import sx.complexes as complexes_module
import sx.constructions as constructions_module
import sx.homology as homology_module
from sx import Complex, from_facets, replay, standard_ball, standard_sphere
from sx.certify import (
    PROVED,
    REFUTED,
    UNKNOWN,
    SearchBudget,
    Verdict,
    _exhaustive_search,
    _memo_dfs,
    certify_k_shelled,
    certify_k_stacked_sphere,
    certify_k_stellated,
    collapse,
    ear_scan,
    is_in_class,
    is_k_stacked_ball,
    is_one_stacked_ball,
    is_tight_exhaustive,
    tightness_beta_condition,
)
from sx.constructions import (
    canonical_matching,
    clique_closure,
    connected_sum,
    cross_polytope,
    klee_novik,
    stacked_ball_closure,
)
from sx.corpus import fixture
from sx.errors import (
    EmptyInput,
    GuardExceeded,
    NotABall,
    NotASphere,
    NotNormalPseudomanifold,
    NotWeakPseudomanifold,
    SxError,
)
from sx.growth import grow_shelled_ball, grow_stacked_sphere, grow_stellated_sphere
from sx.homology import (
    DEFAULT_FIELDS,
    _pivot_rows,
    _reduce,
    screen_homology_ball,
    screen_homology_sphere,
)
from sx.moves import (
    BistellarMove,
    MoveCertificate,
    ShellingMove,
    apply_bistellar,
    apply_shelling,
    bistellar_options,
    is_standard_sphere,
    reverse_move,
)
from conftest import collapse_replays, spy_on_lattices, star_relative
from test_complexes import (
    oracle_all_faces,
    oracle_boundary,
    oracle_boundary_columns,
    oracle_dual_graph,
    oracle_faces_by_dim,
)
from test_moves import boundary_certificate, complex_bistellar_options, flip_facets

RP2 = [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
       (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)]


def oracle_subset_closure(s, size):
    """Oracle: the clique-style closure by scanning all vertex subsets."""
    verts = list(s.vertices)
    member = []
    for r in range(1, len(verts) + 1):
        for cand in itertools.combinations(verts, r):
            ok = all(
                s.has_face(sub)
                for m in range(1, min(size, len(cand)) + 1)
                for sub in itertools.combinations(cand, m)
            )
            if ok:
                member.append(frozenset(cand))
    return Complex(member)


# -- stackedness --------------------------------------------------------------------


def test_standard_ball_is_zero_stacked():
    v = is_k_stacked_ball(standard_ball(4), 0)
    assert v.proved


def test_dfm_ball_is_two_stacked(dfm_ball):
    v = is_k_stacked_ball(dfm_ball, 2)
    assert v.proved
    assert any("field screen" in n for n in v.notes)


def test_stacked_ball_refutation_carries_interior_face():
    ball = stacked_ball_closure(cross_polytope(2), 2)  # the octahedron's cone-like closure
    # a simpler refutation: the 2-facet 4-ball is not 0-stacked
    two = from_facets([[1, 2, 3, 4, 5], [2, 3, 4, 5, 6]])
    v = is_k_stacked_ball(two, 0)
    assert v.refuted
    assert v.witness["interior_face"] == [2, 3, 4, 5]


# a 3-sphere with mixed labels whose 1-stacked closure bounds it but has an
# interior triangle; comparing its faces' raw labels raised TypeError
MIXED_S3 = [
    (1, 11, 4, 8), (1, 11, 4, "v2"), (1, 11, 8, "v2"), (1, 4, 6, 8), (1, 4, 6, "v3"),
    (1, 4, 9, "v3"), (1, 4, 9, "v5"), (1, 4, "v2", "v5"), (1, 6, 8, "v2"),
    (1, 6, "v2", "v3"), (1, 9, "v3", "v7"), (1, 9, "v5", "v7"), (1, "v2", "v3", "v7"),
    (1, "v2", "v5", "v7"), (10, 4, "v2", "v3"), (10, 4, "v2", "v5"), (10, 4, "v3", "v5"),
    (10, "v2", "v3", "v7"), (10, "v2", "v5", "v7"), (10, "v3", "v5", "v7"),
    (11, 4, 8, "v2"), (4, 6, 8, "v2"), (4, 6, "v2", "v3"), (4, 9, "v3", "v5"),
    (9, "v3", "v5", "v7"),
]


def test_stacked_witnesses_order_mixed_labels_by_vertex_position():
    d4 = fixture("d4_16").complex
    for k in (0, 1):
        v = is_k_stacked_ball(d4, k)
        assert v.refuted and v.witness == {"interior_face": [1, "2p", "6p"], "dimension": 2}
    v = is_k_stacked_ball(fixture("d6_18").complex, 1)
    assert v.witness == {"interior_face": [1, "2p", "6p", "a", "b"], "dimension": 4}
    v = certify_k_stacked_sphere(Complex(MIXED_S3), 1)
    assert v.refuted and v.witness == {
        "reason": "closure has an interior face of low dimension",
        "interior_face": [1, "v3", "v5"],
    }


def oracle_interior_face(ball: Complex, top: int):
    """The former `_interior_face`: the faces of ball that its boundary
    complex lacks, on the frozenset lattices of both."""
    ours, theirs = oracle_faces_by_dim(ball), oracle_faces_by_dim(oracle_boundary(ball))
    for m in range(top + 1):
        inner = ours[m] - theirs.get(m, frozenset())
        if inner:
            return m, ball.sorted_faces(inner)[0]
    return None


def test_interior_faces_match_the_boundary_difference(dfm_ball, lutz_b2):
    # the balls the `is_k_stacked_ball` tests decide, at every top
    rng = random.Random(63)
    grown = [grow_shelled_ball(rng.choice([2, 3]), 1, rng.randrange(2, 6), rng)[0] for _ in range(8)]
    b = lutz_b2.join(standard_ball(2, ("a", "b", "c")))
    glued = b.rename({v: f"{v}p" for v in b.vertices}).rename(
        {f"{v}p": v for v in (2, 4, 5, "a", "b", "c")}
    )
    balls = [
        standard_ball(4),
        dfm_ball,
        from_facets([[1, 2, 3, 4, 5], [2, 3, 4, 5, 6]]),
        fixture("d4_16").complex,
        fixture("d6_18").complex,
        Complex(set(b.facet_sets) | set(glued.facet_sets)),
        dfm_ball.join(standard_ball(1, ("a", "b"))),
        *grown,
    ]
    for ball in balls:
        for top in range(-1, ball.dimension + 1):
            want = oracle_interior_face(ball, top)
            assert certify_module._interior_face(ball, top) == want, (ball.facets, top)


def test_is_k_stacked_ball_rejects_non_balls():
    with pytest.raises(NotABall):
        is_k_stacked_ball(standard_sphere(2), 1)


def test_is_k_stacked_ball_needs_k_within_the_dimension(lutz_b1):
    for k in (-1, lutz_b1.dimension + 1, 9):
        with pytest.raises(ValueError, match=f"need 0 <= k <= 3, got k={k}$"):
            is_k_stacked_ball(lutz_b1, k)
    # every d-ball is d-stacked: no face of dimension <= -1 is interior
    assert is_k_stacked_ball(lutz_b1, lutz_b1.dimension).witness["skeleton_checked_up_to"] == -1


def test_one_stacked_ball_verdicts(ziegler_b1, lutz_b1):
    assert is_one_stacked_ball(ziegler_b1).proved
    assert is_one_stacked_ball(lutz_b1).proved
    closed = is_one_stacked_ball(standard_sphere(2))
    assert closed.refuted


def test_one_stacked_requires_normal_pseudomanifold():
    wedge = from_facets([[1, 2, 3], [3, 4, 5]])
    with pytest.raises(NotNormalPseudomanifold):
        is_one_stacked_ball(wedge)


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_standard_spheres_are_not_one_stacked_balls(d):
    # the 0-sphere's two points span a one-edge tree, but bound nothing
    v = is_one_stacked_ball(standard_sphere(d))
    assert v.refuted
    reason = "closed complex has no boundary" if d == 0 else "dual graph has a cycle"
    assert v.witness == {"reason": reason, "nodes": d + 2, "edges": (d + 2) * (d + 1) // 2}


def oracle_is_one_stacked_ball(x: Complex) -> Verdict:
    """The former `is_one_stacked_ball`, on the former dual graph.  It
    calls the 0-sphere a 1-stacked ball."""
    if not x.classify().normal_pseudomanifold:
        raise NotNormalPseudomanifold("dual-graph tree test needs a normal pseudomanifold")
    g = oracle_dual_graph(x)
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


def oracle_tree_shelling_certificate(ball: Complex) -> MoveCertificate:
    """The former `certify._tree_shelling_certificate`: a shelling
    certificate of a ball whose dual graph is a tree (breadth first from
    the canonical root; every attachment is an index-0 move)."""
    g = oracle_dual_graph(ball)
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


def oracle_one_stellated(s: Complex) -> Verdict:
    """The former k = 1 route of `certify_k_stellated` on a screened sphere
    of dimension >= 2 other than the standard one: the closure built again,
    a tree shelling of it, moved to the boundary, and the moved certificate
    replayed."""
    inner = certify_k_stacked_sphere(s, 1)
    if inner.refuted:
        return Verdict(REFUTED, witness=inner.witness, notes=inner.notes)
    ball = stacked_ball_closure(s, 1)
    try:
        shelling = oracle_tree_shelling_certificate(ball)
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


def _outcome(f, *args):
    """f(*args), a verdict as its dict, or the error it raised."""
    try:
        out = f(*args)
    except (SxError, ValueError) as exc:
        return (type(exc).__name__, str(exc))
    return out.as_dict() if isinstance(out, Verdict) else out


def test_one_stacked_verdicts_match_the_dual_graph_oracles(differential_complexes):
    rng = random.Random(41)
    spheres = [
        grow_shelled_ball(dim, 1, rng.randrange(1, 9), rng)[0].boundary()
        for dim in (2, 3, 4)
        for _ in range(4)
    ]
    seen = set()
    for x in differential_complexes + spheres:
        cls = x.classify()
        one = _outcome(is_one_stacked_ball, x)
        if cls.closed and x.dimension == 0:
            # the one change: the 0-sphere is no longer a 1-stacked ball
            assert oracle_is_one_stacked_ball(x).proved
            assert one["witness"]["reason"] == "closed complex has no boundary"
        else:
            assert one == _outcome(oracle_is_one_stacked_ball, x), x.facets
        # the closure of the oracle takes a second or more on each of the
        # larger corpus spheres; the search and the closure route reach the
        # same status by different certificates
        if (
            cls.closed
            and x.dimension >= 2
            and len(x.facets) <= 100
            and not is_standard_sphere(x)
            and screen_homology_sphere(x).passed
        ):
            stellated = certify_k_stellated(x, 1)
            assert stellated.status == oracle_one_stellated(x).status, x.facets
            if stellated.proved:
                assert _replays_to(stellated.certificate, x)
            seen.add(("stellated", stellated.status))
        seen.add(one["status"] if isinstance(one, dict) else one[0])
    assert seen == {
        PROVED, REFUTED, "NotNormalPseudomanifold", ("stellated", PROVED), ("stellated", REFUTED)
    }


# -- shellability ----------------------------------------------------------------------


def test_standard_ball_zero_shelled():
    v = certify_k_shelled(standard_ball(3), 0)
    assert v.proved and v.certificate.length == 0


def test_lutz_ball_is_two_shelled(lutz_b2):
    v = certify_k_shelled(lutz_b2, 2)
    assert v.proved
    assert v.certificate.max_index() <= 1


def test_lutz_certificate_replays(lutz_b2):
    v = certify_k_shelled(lutz_b2, 2)
    assert v.proved
    for f in lutz_b2.facets:
        seed = Complex([f])
        if seed.digest == v.certificate.start_digest:
            final, _ = replay(v.certificate, seed)
            assert final == lutz_b2
            break
    else:
        pytest.fail("certificate seed facet not found")


def test_ziegler_ball_not_shellable(ziegler_b2):
    v = certify_k_shelled(ziegler_b2, 3)
    assert v.refuted
    assert v.budget_spent["nodes"] == 2794


def test_shelled_search_budget_cutoff(ziegler_b2):
    v = certify_k_shelled(ziegler_b2, 3, SearchBudget(max_nodes=10))
    assert v.status == "UNKNOWN"


# -- the shelling and exhaustive searches against the loops they replaced ------------
#
# ``certify_k_shelled`` and ``_exhaustive_search`` as they were before both ran
# on ``_memo_dfs``, kept verbatim apart from their names: two hand-rolled
# frame/dead-set loops, and a shelling step that finds beta by trying every
# subset of the facet against a table of all subsets of all facets.


def oracle_certify_k_shelled(b: Complex, k: int, budget: SearchBudget | None = None) -> Verdict:
    """Complete backtracking over shelling orders with index < k.

    States are subsets of facets already shelled, memoized in a global
    dead-set, so exhausting the space without a budget cutoff soundly
    refutes.  The certificate starts from the seed facet (a standard
    ball) and lists the attaching (alpha, beta) moves.
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

    vsets = [frozenset(f) for f in facets]
    verts = b.vertices
    vindex = {v: i for i, v in enumerate(verts)}
    vbits = [sum(1 << vindex[v] for v in f) for f in vsets]

    # face -> bitmask of facets containing it, for every subset of a facet
    sub_mask: dict[frozenset, int] = {}
    import itertools

    for i, f in enumerate(vsets):
        for r in range(1, len(f) + 1):
            for s in itertools.combinations(facets[i], r):
                key = frozenset(s)
                sub_mask[key] = sub_mask.get(key, 0) | (1 << i)

    dmax = b.dimension
    full = (1 << m) - 1
    dead: set[int] = set()
    nodes = 0
    cutoff = False

    def moves_from(state: int, vmask: int):
        out = []
        for j in range(m):
            if state >> j & 1:
                continue
            fresh = vbits[j] & ~vmask
            if fresh.bit_count() > 1:
                continue
            sigma = vsets[j]
            if fresh:
                u = verts[fresh.bit_length() - 1]
                alpha = sigma - {u}
                if (sub_mask.get(alpha, 0) & state).bit_count() == 1:
                    out.append((j, ShellingMove(alpha=b.face_tuple(alpha), beta=(u,))))
                continue
            best = None
            for r in range(1, min(k, dmax) + 1):
                for s in itertools.combinations(facets[j], r):
                    beta = frozenset(s)
                    if sub_mask.get(beta, 0) & state:
                        continue
                    if all(
                        (sub_mask.get(sigma - {v}, 0) & state).bit_count() == 1
                        for v in beta
                    ):
                        best = ShellingMove(
                            alpha=b.face_tuple(sigma - beta), beta=b.face_tuple(beta)
                        )
                        break
                if best:
                    break
            if best:
                out.append((j, best))
        return out

    for seed_i in range(m):
        state = 1 << seed_i
        if state in dead:
            continue
        # frames: (state, vmask, pending child moves)
        stack = [(state, vbits[seed_i], None)]
        path: list[tuple[int, ShellingMove]] = []
        while stack:
            cur, vmask, pending = stack[-1]
            if cur == full:
                moves = tuple(mv for _, mv in path)
                seed = Complex([facets[seed_i]])
                cert = MoveCertificate(
                    kind="shelling",
                    start_digest=seed.digest,
                    moves=moves,
                    result_digest=b.digest,
                )
                return Verdict(
                    PROVED,
                    certificate=cert,
                    budget_spent={"nodes": nodes, "seed": budget.seed},
                )
            if pending is None:
                nodes += 1
                if nodes > budget.max_nodes:
                    cutoff = True
                    break
                pending = moves_from(cur, vmask)
                stack[-1] = (cur, vmask, pending)
            advanced = False
            while pending:
                j, mv = pending.pop(0)
                nxt = cur | (1 << j)
                if nxt in dead:
                    continue
                stack.append((nxt, vmask | vbits[j], None))
                path.append((j, mv))
                advanced = True
                break
            if not advanced:
                dead.add(cur)
                stack.pop()
                if path:
                    path.pop()
        if cutoff:
            break
    if cutoff:
        return Verdict(
            UNKNOWN,
            witness={"reason": "node budget exhausted"},
            budget_spent={"nodes": nodes, "seed": budget.seed},
        )
    return Verdict(
        REFUTED,
        witness={"reason": "complete backtracking exhausted all shelling orders"},
        budget_spent={"nodes": nodes, "seed": budget.seed},
    )


def oracle_reachable(s: Complex, lo: int) -> bool:
    """Whether reverse moves of index lo..d take s to the standard sphere,
    by breadth-first search over every complex they reach: for lo >= 1
    the definition of (d - lo + 1)-stellatedness."""
    d = s.dimension
    seen = {s}
    queue = deque([s])
    while queue:
        x = queue.popleft()
        if is_standard_sphere(x):
            return True
        for mv in bistellar_options(x, lo, d):
            y = apply_bistellar(x, mv)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return False


def shelling_cases():
    """Seeded grown balls of dimension 1-4, random pure complexes on at most
    8 vertices, a complex with a ridge in three facets (the search's
    attachments are memoised on shelled neighbours, a key that must hold
    beyond pseudomanifolds), and three corpus balls (one of them not
    shellable)."""
    rng = random.Random(5)
    cases = []
    for dim in range(1, 5):
        for k in range(1, dim + 1):
            for steps in (2, 6, 12):
                cases.append(grow_shelled_ball(dim, k, steps, rng)[0])
    for _ in range(40):
        n = rng.randint(2, 8)
        labels = list(range(1, n + 1)) if rng.random() < 0.7 else [f"v{i}" for i in range(n)]
        size = rng.randint(2, min(n, 4))
        cases.append(from_facets(rng.sample(labels, size) for _ in range(rng.randint(1, 9))))
    cases.append(from_facets([[1, 2, 3], [1, 2, 4], [1, 2, 5], [3, 4, 6]]))
    cases += [fixture(name).complex for name in ("lutz_b1", "lutz_b2", "ziegler_b2")]
    return cases


def test_shelling_search_matches_the_oracle():
    statuses = set()
    for b in shelling_cases():
        for k in range(b.dimension + 1):
            for max_nodes in (5, 50, 3000):
                budget = SearchBudget(max_nodes=max_nodes, seed=max_nodes)
                want = oracle_certify_k_shelled(b, k, budget).as_dict()
                assert certify_k_shelled(b, k, budget).as_dict() == want, (b.facets, k, max_nodes)
                statuses.add(want["status"])
    assert statuses == {PROVED, REFUTED, UNKNOWN}


def test_shelling_search_matches_the_oracle_at_a_budget_cut():
    # the corpus query's ball and k, cut by the budget deep in the search
    b = fixture("dfm_b4_16").complex
    budget = SearchBudget(max_nodes=300)
    want = oracle_certify_k_shelled(b, 3, budget).as_dict()
    assert want["status"] == UNKNOWN
    assert certify_k_shelled(b, 3, budget).as_dict() == want


def oracle_shelling_children(b: Complex, k: int):
    """The `children` of `certify_k_shelled` before each state's moves were
    derived from its parent's: every facet is scanned at every state, and
    attachments are memoised per (facet, shelled neighbours).  Returns
    children(state), the list of (move, child) pairs, for 1 <= k."""
    facets, ridges, nbr = b.facets, b._ridge_masks, b._neighbour_masks
    m = len(facets)
    star: dict = {}
    for i, rs in enumerate(ridges):
        for v, _ in rs:
            star[v] = star.get(v, 0) | 1 << i
    memo: list[dict] = [{} for _ in range(m)]

    def attachment(j: int, near: int) -> tuple:
        beta = [v for v, r in ridges[j] if (r & near).bit_count() == 1]
        if not beta or len(beta) > k:
            return -1, None
        through = -1
        for v in beta:
            through &= star[v]
        alpha = tuple(v for v in facets[j] if v not in beta)
        return through, ShellingMove(alpha=alpha, beta=tuple(beta))

    def children(state: int) -> list:
        out = []
        for j in range(m):
            near = nbr[j] & state
            if not near or state >> j & 1:
                continue
            hit = memo[j].get(near)
            if hit is None:
                hit = memo[j][near] = attachment(j, near)
            if not hit[0] & state:
                out.append((hit[1], state | 1 << j))
        return out

    return children


def test_derived_shelling_moves_match_the_full_scan(monkeypatch):
    """At every state the search expands, its (move, child) list equals the
    full scan's, in order.  The spy draws children as lazily as the search
    does, so the search derives as it would unspied, and drains the lists
    a goal or a cut left open once the search is over."""
    counts = {"states": 0, "derived": 0, "through": 0}
    real = certify_module._memo_dfs

    def spy(roots, children, is_goal, budget, max_depth=None):
        oracle = oracle_shelling_children(b, k)
        last = None  # (child yielded last, its parent, the parent's list)
        opened = []

        def checked(state):
            nonlocal last
            want = oracle(state)
            counts["states"] += 1
            if last is not None and last[0] == state:
                counts["derived"] += 1
                parent, before = last[1], last[2]
                j = (state ^ parent).bit_length() - 1
                for mv, child in before:
                    i = (child ^ parent).bit_length() - 1
                    if i == j or b._neighbour_masks[j] >> i & 1:
                        continue
                    if (mv, child | state) not in want:
                        # a move of a facet whose neighbours stay the same
                        # dies only when the facet joining P contains beta
                        assert set(mv.beta) <= set(b.facets[j]), (b.facets, k, mv)
                        counts["through"] += 1

            def compare(got):
                nonlocal last
                n = 0
                for item in got:
                    assert n < len(want) and item == want[n], (b.facets, k, state)
                    n += 1
                    last = item[1], state, want
                    yield item
                assert n == len(want), (b.facets, k, state)

            opened.append(compare(children(state)))
            return opened[-1]

        out = real(roots, checked, is_goal, budget, max_depth)
        for rest in opened:
            for _ in rest:
                pass
        return out

    monkeypatch.setattr(certify_module, "_memo_dfs", spy)
    runs = [(c, k, 3000) for c in shelling_cases() for k in range(1, c.dimension + 1)]
    runs += [(fixture(name).complex, k, 2000) for name, k in (("dfm_b4_16", 3), ("d4_16", 2))]
    for b, k, max_nodes in runs:
        certify_k_shelled(b, k, SearchBudget(max_nodes=max_nodes))
    assert counts["derived"] > counts["states"] // 2
    assert counts["through"] > 0


def test_proved_shellings_replay_from_their_seed_facet():
    proved = 0
    for b in shelling_cases():
        for k in range(b.dimension + 1):
            v = certify_k_shelled(b, k)
            if not v.proved:
                continue
            cert = v.certificate
            (seed,) = [f for f in b.facets if Complex([f]).digest == cert.start_digest]
            final, length = replay(cert, Complex([seed]))
            assert final == b and length == cert.length, (b.facets, k)
            assert cert.max_index() < k
            proved += 1
    assert proved > 30


def _replays_to(cert: MoveCertificate, s: Complex) -> bool:
    """Undo the certificate's moves from s, and replay it from the
    standard sphere that this reaches."""
    start = s
    for mv in reversed(cert.moves):
        start = apply_bistellar(start, reverse_move(mv))
    return is_standard_sphere(start) and replay(cert, start)[0] == s


def stellated_cases() -> list[Complex]:
    """Seeded grown spheres of dimension 1-4 on at most 8 vertices, and the
    octahedron with and without a vertex stacked on a triangle: neither is
    1-stellated, so the oracle also exhausts a space of two states."""
    rng = random.Random(0)
    cases = []
    for dim in range(1, 5):
        for grow_k in range(2, dim + 2):
            for steps in (3, 8):
                s, _ = grow_stellated_sphere(dim, grow_k, steps, rng)
                if len(s.vertices) <= 8:
                    cases.append(s)
    octahedron = cross_polytope(2)
    cases += [octahedron, apply_bistellar(octahedron, bistellar_options(octahedron, 0, 0)[0])]
    return cases


def test_exhaustive_search_matches_the_oracle():
    # the verdict is PROVED exactly when the standard sphere is reachable,
    # and REFUTED otherwise; index-0 moves (lo = 0) grow the sphere without
    # end, so the oracle cannot run there
    outcomes = set()
    for s in stellated_cases():
        d = s.dimension
        for lo in range(1, d + 1):
            reachable = oracle_reachable(s, lo)
            trail, _, nodes, cut = _exhaustive_search(s, lo, SearchBudget())
            assert not cut and (trail is not None) == reachable, (s.facets, lo)
            v = certify_k_stellated(s, d - lo + 1)
            assert v.status == (PROVED if reachable else REFUTED), (s.facets, lo)
            if v.proved:
                assert _replays_to(v.certificate, s)
            outcomes.add((v.status, nodes > 1))
    assert outcomes == {(PROVED, False), (PROVED, True), (REFUTED, False), (REFUTED, True)}


def test_a_search_cut_short_is_unknown():
    # a search that a budget cut short has not exhausted its state space,
    # so it must not refute: each of these spheres reduces in two moves or
    # more, and one node or one move is not enough
    cut_cases = 0
    for s in stellated_cases():
        d = s.dimension
        for lo in range(1, d):
            trail, _, _, _ = _exhaustive_search(s, lo, SearchBudget())
            if trail is None or len(trail) < 2:
                continue
            for budget in (SearchBudget(max_nodes=1), SearchBudget(max_moves=1)):
                v = certify_k_stellated(s, d - lo + 1, budget)
                assert v.status == UNKNOWN, (s.facets, lo, budget)
                cut_cases += 1
    assert cut_cases >= 10


# ``_exhaustive_search`` as it was before it ran on facet masks, verbatim apart
# from its name and the Complex-based enumerator it calls: a state is a
# frozenset of facets, and a Complex is built at every node to list its moves.


def oracle_exhaustive_search(s: Complex, lo: int, budget: SearchBudget):
    d = s.dimension

    def children(facets: frozenset):
        opts = complex_bistellar_options(Complex(facets), lo, d)
        return ((mv, flip_facets(facets, mv)) for mv in reversed(opts))

    def is_goal(facets: frozenset) -> bool:
        # a pure d-complex with d + 2 facets on d + 2 vertices
        return len(facets) == d + 2 and len(frozenset().union(*facets)) == d + 2

    states, trail, nodes, cut = _memo_dfs(
        [s.facet_sets], children, is_goal, budget, budget.max_moves
    )
    return trail, states[-1] if states else None, nodes, cut


def _search_agrees(s: Complex, lo: int, max_nodes: int):
    """The mask search against the facet-set search, which takes every
    child at every lo.  At lo = d the mask search follows the first child
    alone: when the full search reaches the standard sphere it must find
    the same trail, and otherwise it must not reach it either, refute
    wherever the full search refutes, and expand no more nodes."""
    budget = SearchBudget(max_nodes=max_nodes)
    got = _exhaustive_search(s, lo, budget)
    want = oracle_exhaustive_search(s, lo, budget)
    if lo < s.dimension or want[0] is not None:
        assert got == want, (s.facets, lo, max_nodes)
    else:
        trail, final, nodes, cut = got
        assert trail is final is None and nodes <= want[2], (s.facets, lo, max_nodes)
        assert cut <= want[3], (s.facets, lo, max_nodes)
    return got


def test_exhaustive_search_matches_the_facet_set_search(differential_complexes, sigma):
    # every closed input, at every lower index and two node budgets: the
    # same trail, final facet set, node count and cut below lo = d, and at
    # lo = d wherever the full search reaches the standard sphere.  The
    # inputs include the Poincaré homology spheres bl_sigma3_16 and s5_18.
    rng = random.Random(41)
    spheres = [c for c in differential_complexes if c.classify().closed]
    assert sigma in spheres and fixture("s5_18").complex in spheres
    for dim in (1, 2, 3):
        for steps in (4, 12):
            spheres.append(grow_stellated_sphere(dim, dim + 1, steps, rng)[0])
    outcomes = set()
    for s in spheres:
        for lo in range(s.dimension + 1):
            for max_nodes in (50, 300):
                trail, _, nodes, cut = _search_agrees(s, lo, max_nodes)
                outcomes.add((trail is not None, cut))
    assert outcomes == {(True, False), (False, False), (False, True)}


def test_exhaustive_search_orders_a_fresh_string_label(dfm):
    # w1 is new to the cross-polytope and to the unflippable sphere with
    # labels x0..x15, so it sorts last in the index-0 moves that bring it
    # in; once it has joined, string order puts it before every x and y
    _search_agrees(cross_polytope(3), 0, 300)
    relabelled = dfm.rename({v: f"x{v}" for v in dfm.vertices})
    trail, _, nodes, cut = _search_agrees(relabelled, 0, 300)
    assert (nodes, cut) == (131, False)
    assert trail[0].beta == ("w1",) and trail[0].index == 0
    assert trail[1] == BistellarMove(alpha=("x4", "x7", "x9"), beta=("w1", "x0"))


def test_exhaustive_search_turns_numeric_when_the_last_string_label_goes():
    # with the string label "a" the vertex order is 1, 10, 2, 3, 4, a; the
    # first child removes "a", and from then on 10 sorts after 4
    s = standard_sphere(2)
    s = apply_bistellar(s, BistellarMove(alpha=(1, 2, 3), beta=(10,)))
    s = apply_bistellar(s, BistellarMove(alpha=(1, 2, 10), beta=("a",)))
    assert s.vertices == (1, 10, 2, 3, 4, "a")
    for lo in range(3):
        trail, _, _, _ = _search_agrees(s, lo, 300)
        if lo:
            assert trail[0] == BistellarMove(alpha=("a",), beta=(1, 10, 2))
            assert trail[1] == BistellarMove(alpha=(10,), beta=(1, 2, 3))


def test_memo_dfs_path_never_exceeds_max_depth():
    def children(n):
        yield n, n + 1

    never = lambda n: False  # noqa: E731
    assert _memo_dfs([0], children, never, SearchBudget(), 5) == (None, None, 6, True)
    assert _memo_dfs([0], children, never, SearchBudget(max_nodes=3), 5) == (None, None, 4, True)
    # a cycle is exhausted: a state on the current path is not entered again
    ring = lambda n: [(n, (n + 1) % 4)]  # noqa: E731
    assert _memo_dfs([0], ring, never, SearchBudget(), 5) == (None, None, 4, False)


# -- stellatedness ----------------------------------------------------------------------


def test_standard_sphere_zero_stellated():
    v = certify_k_stellated(standard_sphere(3), 0)
    assert v.proved and v.certificate.length == 0


def test_zero_stellated_refuted_off_standard():
    s = grow_stacked_sphere(2, 2, random.Random(0))
    assert certify_k_stellated(s, 0).refuted


def test_ziegler_boundary_sphere_is_one_stellated(ziegler_s2):
    v = certify_k_stellated(ziegler_s2, 1)
    assert v.proved
    cert = v.certificate
    # the certificate replays from the standard sphere on its seed labels
    for f in stacked_ball_closure(ziegler_s2, 1).facets:
        seed = Complex([f]).boundary()
        if seed.digest == cert.start_digest:
            final, _ = replay(cert, seed)
            assert final == ziegler_s2
            break
    else:
        pytest.fail("no matching start sphere found")
    assert cert.max_index() == 0


def test_one_stellated_refuted_on_cross_polytope():
    v = certify_k_stellated(cross_polytope(2), 1)
    assert v.refuted


def test_stellated_cycles_always_proved():
    rng = random.Random(77)
    for n in (4, 5, 8):
        edges = [(i, (i + 1) % n) for i in range(n)]
        cyc = from_facets(edges)
        v = certify_k_stellated(cyc, 1)
        assert v.proved, (n, v)


def test_two_stellated_search_on_small_spheres():
    rng = random.Random(41)
    for _ in range(10):
        s, _ = grow_stellated_sphere(3, 2, rng.randrange(1, 5), rng)
        v = certify_k_stellated(s, 2)
        assert v.proved
        assert v.certificate.max_index() <= 1


def test_tilde_sphere_is_not_proved_two_stellated(lutz_b2):
    # two copies of (unique-ear ball * triangle), glued along the boundary
    # facet spanned by the shared ear: a 2-stacked 5-sphere that is not
    # 2-stellated, so the search must never prove it
    b = lutz_b2.join(standard_ball(2, ("a", "b", "c")))
    bp = b.rename({v: f"{v}p" for v in b.vertices})
    glued = bp.rename({f"{v}p": v for v in (2, 4, 5, "a", "b", "c")})
    btilde = Complex(set(b.facet_sets) | set(glued.facet_sets))
    assert len(btilde.vertices) == 16
    assert is_k_stacked_ball(btilde, 2).proved
    stilde = btilde.boundary()
    v = certify_k_stellated(stilde, 2, SearchBudget(max_moves=2_000))
    assert v.refuted and v.budget_spent == {"nodes": 1}


def test_dfm_sphere_stellatedness(dfm):
    # 2-neighborly with no move of index 1..3, so only k = 4 lets it move
    for k in (2, 3):
        v = certify_k_stellated(dfm, k)
        assert v.refuted and v.budget_spent == {"nodes": 1}
    v = certify_k_stellated(dfm, 4)
    assert v.proved and _replays_to(v.certificate, dfm)


def one_stellated_cases(differential_complexes) -> list[Complex]:
    """The screened spheres of `differential_complexes`, the corpus spheres
    among them; grown stacked spheres of dimension 1-5; and connected sums
    of a stacked sphere with a cross-polytope or a 2-stellated sphere: when
    the second summand is not stacked, the path of vertex removals gets
    stuck deep inside, once the stacked summand is gone."""
    rng = random.Random(35)
    spheres = [
        x for x in differential_complexes
        if x.classify().closed and not is_standard_sphere(x) and screen_homology_sphere(x).passed
    ]
    spheres += [grow_stacked_sphere(d, rng.randrange(1, 20), rng) for d in range(1, 6) for _ in range(4)]
    for d in (2, 3):
        for _ in range(3):
            for other in (cross_polytope(d), grow_stellated_sphere(d, 2, rng.randrange(2, 8), rng)[0]):
                s1 = grow_stacked_sphere(d, rng.randrange(4, 9), rng)
                s2 = other.rename({v: f"r{v}" for v in other.vertices})
                f1, f2 = rng.choice(s1.facets), rng.choice(s2.facets)
                spheres.append(connected_sum(s1, s2, f1, f2, canonical_matching(s1, f1, s2, f2)))
    return spheres


def test_one_path_of_vertex_removals_decides_one_stellatedness(differential_complexes):
    # the lemma of `_exhaustive_search`: at k = 1 the first vertex removal
    # keeps a stacked sphere stacked, so one path decides, as the closure
    # route and the full depth-first search over every removal do
    outcomes = set()
    for s in one_stellated_cases(differential_complexes):
        d = s.dimension
        v = certify_k_stellated(s, 1)
        trail, _, nodes, cut = oracle_exhaustive_search(s, d, SearchBudget())
        assert not cut and v.status == (REFUTED if trail is None else PROVED), s.facets
        assert v.budget_spent["nodes"] <= nodes
        if d >= 2:
            assert v.status == oracle_one_stellated(s).status, s.facets
        if v.proved:
            assert _replays_to(v.certificate, s)
            # a stacked sphere loses one vertex a node, down to d + 2
            assert v.budget_spent == {"nodes": len(s.vertices) - d - 2}
        outcomes.add((v.status, v.budget_spent["nodes"] > 1))
    assert outcomes == {(PROVED, False), (PROVED, True), (REFUTED, False), (REFUTED, True)}


# -- stacked spheres -------------------------------------------------------------------


def test_stacked_sphere_closure_matches_oracle():
    s = from_facets([[1, 2, 3, 4], [2, 3, 4, 5]]).boundary()
    closure = stacked_ball_closure(s, 1)
    assert closure == oracle_subset_closure(s, 2)
    assert closure == from_facets([[1, 2, 3, 4], [2, 3, 4, 5]])
    v = certify_k_stacked_sphere(s, 1)
    assert v.proved


@pytest.mark.parametrize("d", [2, 3, 4])
def test_cross_polytope_not_almost_top_stacked(d):
    assert certify_k_stacked_sphere(cross_polytope(d), d - 1).refuted


def oracle_closure_adds_nothing(s, size):
    """The test the d < 2k branch made before it read minimal non-faces."""
    return clique_closure(s, size) == s


def test_closure_test_from_minimal_non_faces_matches_the_closure(differential_complexes):
    seen = set()
    for x in differential_complexes:
        # at sizes 1 and 2 a closure on 15-19 vertices can hold up to 2^19
        # sets, so those inputs start at size 3
        low = 3 if len(x.vertices) > 14 else 1
        for size in range(low, x.dimension + 2):
            got = certify_module._closure_adds_nothing(x, size)
            assert got == oracle_closure_adds_nothing(x, size), (x.facets, size)
            seen.add(got)
    assert seen == {True, False}


def test_stacked_sphere_below_twice_k_matches_the_closure_oracle(monkeypatch):
    spheres = [cross_polytope(d) for d in (2, 3, 4)]
    for name in ("dfm_s3_16", "bl_sigma3_16", "s5_18", "s6_19",
                 "ziegler_s3_10", "ziegler_s2_10", "lutz_s3_8", "lutz_s2_8"):
        spheres.append(fixture(name).complex)
    rng = random.Random(5)
    for dim in (2, 3, 4):
        for _ in range(3):
            k = rng.randrange(1, dim + 1)
            spheres.append(grow_stellated_sphere(dim, k, rng.randrange(1, 9), rng)[0])
    cases = [(s, k) for s in spheres for k in range(s.dimension // 2 + 1, s.dimension + 1)]

    def verdicts():
        return [certify_k_stacked_sphere(s, k).as_dict() for s, k in cases]

    monkeypatch.setattr(certify_module, "_closure_adds_nothing", oracle_closure_adds_nothing)
    expected = verdicts()
    monkeypatch.undo()
    assert verdicts() == expected
    assert {v["status"] for v in expected} == {PROVED, REFUTED, UNKNOWN}


def oracle_closure_branch(s: Complex, k: int) -> Verdict:
    """The former d >= 2k branch of `certify_k_stacked_sphere`: the closure
    screened by the full ball screen, its boundary s again as a sphere, and
    its interior faces from the frozenset lattices of it and its boundary."""
    screen = screen_homology_sphere(s)
    if not screen.passed:
        raise NotASphere(screen.detail)
    d = s.dimension
    notes = (screen.render_note(),)
    ball = certify_module.stacked_ball_closure(s, k)
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
    inner = screen_homology_ball(ball)
    if not inner.passed:
        return Verdict(REFUTED, witness={"reason": f"closure: {inner.detail}"}, notes=notes)
    hit = oracle_interior_face(ball, d - k)
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
        witness={"ball_facets": [list(f) for f in ball.sorted_faces(ball.facet_sets)]},
        notes=notes,
    )


def pinched_disk() -> Complex:
    """A triangulated 4 x 6 grid with its interior vertices 11 and 14, three
    edges apart, made one: a weak pseudomanifold with the grid's boundary
    whose vertex 11 has two circles as its link."""
    squares = [(10 * i + j, 10 * i + j + 1, 10 * i + j + 10, 10 * i + j + 11)
               for i in range(3) for j in range(5)]
    grid = Complex(t for a, b, c, e in squares for t in ((a, b, e), (a, c, e)))
    return grid.rename({14: 11})


def test_closure_branch_matches_the_full_ball_screen_oracle(monkeypatch):
    spheres = [cross_polytope(d) for d in (2, 3, 4)] + [Complex(MIXED_S3)]
    spheres += [fixture(name).complex for name in (
        "dfm_s3_16", "bl_sigma3_16", "s5_18", "s6_19",
        "ziegler_s3_10", "ziegler_s2_10", "lutz_s3_8", "lutz_s2_8")]
    rng = random.Random(26)
    for dim in (2, 3, 4):
        spheres.append(grow_stacked_sphere(dim, rng.randrange(1, 8), rng))
        for k in (1, 2):
            spheres.append(grow_stellated_sphere(dim, k, rng.randrange(1, 8), rng)[0])
    # at k <= 1 the closure of a sphere on more than 14 vertices can hold
    # up to 2^n sets
    cases = [(s, k) for s in spheres for k in range(s.dimension // 2 + 1)
             if k >= 2 or len(s.vertices) <= 14]
    reasons = set()
    for s, k in cases:
        want = oracle_closure_branch(s, k).as_dict()
        assert certify_k_stacked_sphere(s, k).as_dict() == want, (s.facets, k)
        reasons.add(want["witness"].get("reason", want["status"]))
    assert reasons == {
        PROVED,
        "closure adds no faces beyond the sphere",
        "closure is not a pure complex of one higher dimension",
        "closure has an interior face of low dimension",
    }
    # crafted closures bounded by s reach the ball screen's own failures
    mobius = from_facets(RP2[1:])
    crafted = [(mobius, "closure: reduced betti over Q is [0, 1, 0]"),
               (pinched_disk(), "closure: not a normal pseudomanifold")]
    for ball, reason in crafted:
        s = ball.boundary()
        monkeypatch.setattr(certify_module, "stacked_ball_closure", lambda s, k, ball=ball: ball)
        want = oracle_closure_branch(s, 0).as_dict()
        assert want["witness"] == {"reason": reason}
        assert certify_k_stacked_sphere(s, 0).as_dict() == want


def oracle_top_and_candidate(s: Complex, k: int, candidate: Complex | None = None) -> Verdict:
    """The former d < 2k part of `certify_k_stacked_sphere`: the vertex ball
    at k = d and the caller's candidate each go through `is_k_stacked_ball`,
    whose full ball screen screens their boundary, equal to s, a second
    time.  Kept verbatim as the reference; the vertex ball is read off
    `certify` so that a stand-in reaches both."""
    screen = screen_homology_sphere(s)
    if not screen.passed:
        raise NotASphere(screen.detail)
    notes = (screen.render_note(),)
    d = s.dimension
    if k == d:
        ball = certify_module.vertex_ball(s, s.vertices[0])
        sub = is_k_stacked_ball(ball, k)
        if sub.proved and ball.boundary() == s:
            return Verdict(
                PROVED,
                witness={"vertex_ball_apex": str(s.vertices[0])},
                notes=notes,
            )
    if certify_module._closure_adds_nothing(s, d - k + 1):
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
        sub = is_k_stacked_ball(candidate, k)
        if sub.proved:
            return Verdict(
                PROVED,
                witness={"candidate_ball_facets": [list(f) for f in candidate.sorted_faces(candidate.facet_sets)]},
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


def _summary(out) -> str:
    """The status, reason or error name of an `_outcome`."""
    if isinstance(out, tuple):
        return out[0]
    return out["witness"].get("reason", out["status"])


def test_bounding_balls_match_the_former_vertex_ball_and_candidate_branches(
    differential_complexes, monkeypatch
):
    # the one change: a proved candidate no longer repeats the screen's note
    def expected(s, k, candidate):
        want = _outcome(oracle_top_and_candidate, s, k, candidate)
        if isinstance(want, dict):
            want["notes"] = list(dict.fromkeys(want["notes"]))
        return want

    spheres = [x for x in differential_complexes if x.dimension >= 1 and len(x.facets) <= 60
               and x.classify().closed and screen_homology_sphere(x).passed]
    # a disk with two interior vertices made one bounds its rim but is not
    # normal, and so is its join with a triangle's rim, which bounds a
    # 3-sphere
    pinched = pinched_disk()
    pinched_3 = pinched.join(standard_sphere(1, ("a", "b", "c")))
    spheres += [pinched.boundary(), pinched_3.boundary(), cross_polytope(3), standard_sphere(2)]
    seen = set()
    for s in spheres:
        d = s.dimension
        other = standard_ball(d + 1, [f"o{i}" for i in range(d + 2)])  # bounds another sphere
        tripod = Complex([tuple(range(d + 1)) + (f"t{i}",) for i in range(3)])  # a ridge in three facets
        bounded = [certify_module.vertex_ball(s, v) for v in s.vertices]
        bounded.append(s.join(standard_ball(0, ("apex",))))  # an interior vertex
        for j in range(2 if len(s.vertices) > 14 else 0, d // 2 + 1):
            closure = stacked_ball_closure(s, j)
            if closure.dimension == d + 1 and closure.is_weak_pseudomanifold and closure.boundary() == s:
                bounded.append(closure)
        bounded += [x for x in (pinched, pinched_3) if x.boundary() == s]
        candidates = [None, other, tripod] + bounded
        for k in range(d // 2 + 1, d + 1):
            for c in candidates:
                got = _outcome(certify_k_stacked_sphere, s, k, c)
                assert got == expected(s, k, c), (s.facets, k, c and c.facets)
                seen.add((k == d, _summary(got)))
        # at k = d the vertex ball decides first: a stand-in for it that
        # bounds another sphere lets each candidate through, and one that
        # bounds s is judged in its place.  A vertex ball always bounds s,
        # so the two orders of the checks differ only on stand-ins that
        # neither bound s nor pass the ball screen, and none is used
        monkeypatch.setattr(certify_module, "vertex_ball", lambda s, v: other)
        for c in candidates:
            got = _outcome(certify_k_stacked_sphere, s, d, c)
            assert got == expected(s, d, c), (s.facets, c and c.facets)
            seen.add(("stand-in", _summary(got)))
        for c in bounded:
            monkeypatch.setattr(certify_module, "vertex_ball", lambda s, v, c=c: c)
            got = _outcome(certify_k_stacked_sphere, s, d)
            assert got == expected(s, d, None), (s.facets, c.facets)
            seen.add(("stand-in", _summary(got)))
        monkeypatch.undo()
    assert {(True, PROVED), (False, PROVED), (False, "NotABall"), ("stand-in", "NotABall"),
            (False, "candidate ball does not bound the sphere"),
            (False, "candidate ball is not k-stacked"),
            ("stand-in", "candidate ball does not bound the sphere"),
            ("stand-in", "candidate ball is not k-stacked"),
            (False, "every face of a k-stacked bounding ball would lie in the sphere")} <= seen, seen


@pytest.mark.parametrize("name, k, ball", [
    ("lutz_s2_8", 2, None), ("ziegler_s3_10", 3, None), ("dfm_s3_16", 2, "dfm_b4_16"),
])
def test_stacked_sphere_screens_s_once_and_builds_one_boundary(monkeypatch, name, k, ball):
    # s is screened once, on entry; the bounding ball's boundary is built
    # once, to be compared with s, and never screened.  Homology reduces s
    # and the ball relative to a vertex star, never on `Complex._lattice`;
    # the full lattices built are the ball's, for its interior faces, and
    # with a candidate s's, for the missing faces its closure test reads
    real_boundary = Complex.boundary
    screened, bounded = [], []

    def spy_screen(x, fields=DEFAULT_FIELDS):
        screened.append(x)
        return screen_homology_sphere(x, fields)

    def spy_boundary(self):
        bounded.append(self)
        return real_boundary(self)

    s = Complex(fixture(name).complex.facets)  # fresh complexes: no lattice cached yet
    candidate = ball and Complex(fixture(ball).complex.facets)
    monkeypatch.setattr(homology_module, "screen_homology_sphere", spy_screen)
    monkeypatch.setattr(certify_module, "screen_homology_sphere", spy_screen)
    monkeypatch.setattr(Complex, "boundary", spy_boundary)
    built = spy_on_lattices(monkeypatch, [complexes_module, certify_module, homology_module])
    assert certify_k_stacked_sphere(s, k, candidate).proved
    assert (len(screened), len(bounded)) == (1, 1)
    assert screened[0] is s
    b = bounded[0]
    assert built == ([star_relative(s)] + [(s._facet_masks, ())] * bool(ball)
                     + [star_relative(b), (b._facet_masks, ())])


def test_is_k_stacked_ball_builds_the_lattices_of_b_and_its_boundary(monkeypatch):
    # the ball screen reduces b and its boundary relative to a vertex star
    # each, and the interior faces are read off b's full lattice, built
    # once: no full lattice of the rim
    built = spy_on_lattices(monkeypatch, [complexes_module, certify_module, homology_module])
    for name, k, proved in (("dfm_b4_16", 2, True), ("d6_18", 1, False)):
        b = Complex(fixture(name).complex.facets)  # a fresh complex: no lattice cached yet
        built.clear()
        assert is_k_stacked_ball(b, k).proved == proved
        assert built == [star_relative(b), star_relative(b.boundary()), (b._facet_masks, ())], name


def test_one_stellated_screens_the_sphere_once(monkeypatch):
    # certify_k_stellated screens s, and at k = 1 the search follows one
    # path of vertex removals: one sphere screen, one reduction of the
    # relative lattice of s, and no clique closure
    reduced, screened = [], []

    def spy_reduce(lattice):
        reduced.append(lattice)
        return _reduce(lattice)

    def spy_screen(x, fields=DEFAULT_FIELDS):
        screened.append(x)
        return screen_homology_sphere(x, fields)

    def no_closure(*args):
        raise AssertionError("a clique closure was built")

    real = complexes_module._face_lattice
    built = spy_on_lattices(monkeypatch, [complexes_module, certify_module, homology_module])
    monkeypatch.setattr(homology_module, "_reduce", spy_reduce)
    monkeypatch.setattr(certify_module, "_reduce", spy_reduce)
    monkeypatch.setattr(homology_module, "screen_homology_sphere", spy_screen)
    monkeypatch.setattr(certify_module, "screen_homology_sphere", spy_screen)
    monkeypatch.setattr(constructions_module, "clique_closure", no_closure)
    monkeypatch.setattr(certify_module, "stacked_ball_closure", no_closure)
    s = grow_stacked_sphere(3, 6, random.Random(7))
    assert certify_k_stellated(s, 1).proved
    assert len(screened) == 1 and screened[0] is s
    assert built == [star_relative(s)]
    assert reduced == [real(*star_relative(s))]


def test_dfm_stacked_via_candidate(dfm, dfm_ball):
    v = certify_k_stacked_sphere(dfm, 2, candidate=dfm_ball)
    assert v.proved
    assert certify_k_stacked_sphere(dfm, 2).status == "UNKNOWN"


def test_stacked_sphere_proved_decisively():
    rng = random.Random(1)
    s = grow_stacked_sphere(3, 4, rng)
    v = certify_k_stacked_sphere(s, 1)
    assert v.proved


# -- flip scans -------------------------------------------------------------------------


def test_flip_scan_on_dfm(dfm):
    assert bistellar_options(dfm, 1, 3) == []


def test_flip_scan_join_with_vertex_remains_unflippable(dfm_ball):
    tilde = dfm_ball.join(standard_ball(0, ("q",)))
    sphere = tilde.boundary()
    assert sphere.dimension == 4
    assert bistellar_options(sphere, 1, 4) == []


def test_flip_scan_finds_reverse_stacking_moves():
    # both apexes of the 2-facet stacked sphere admit the reverse move
    s = from_facets([[1, 2, 3, 4], [2, 3, 4, 5]]).boundary()
    moves = bistellar_options(s, 2, 2)
    assert {(frozenset(m.alpha), frozenset(m.beta)) for m in moves} == {
        (frozenset((1,)), frozenset((2, 3, 4))),
        (frozenset((5,)), frozenset((2, 3, 4))),
    }


# -- ears --------------------------------------------------------------------------------


def test_ear_scans(lutz_b2, ziegler_b2):
    assert ear_scan(lutz_b2) == [(2, 4, 5, 7)]
    assert ear_scan(ziegler_b2) == []


def test_single_facet_ball_is_its_own_ear():
    assert ear_scan(standard_ball(3)) == [(1, 2, 3, 4)]


def test_the_facet_a_shelling_adds_last_is_an_ear():
    # read backwards, the last move of a shelling removes its facet and
    # leaves a ball, so the boundary faces inside that facet form a ball
    rng = random.Random(32)
    balls = 0
    for dim in range(1, 7):
        for k in range(1, dim + 1):
            for _ in range(15):
                ball, cert = grow_shelled_ball(dim, k, rng.randrange(1, 9), rng)
                if len(ball.facets) < 2:
                    continue
                last = cert.moves[-1]
                assert tuple(sorted(last.alpha + last.beta)) in ear_scan(ball), ball.facets
                balls += 1
    assert balls == 315


# -- collapsing -------------------------------------------------------------------------


def oracle_is_path(c: Complex) -> bool:
    """The former `certify._is_path`, on a degree table of its own."""
    if c.dimension != 1 or not c.is_pure:
        return False
    deg: dict = {}
    for e in c.faces(1):
        for v in e:
            deg[v] = deg.get(v, 0) + 1
    if max(deg.values()) > 2:
        return False
    if len(c.faces(1)) != len(c.vertices) - 1:
        return False
    return c.is_connected


def oracle_is_disk(c: Complex) -> bool:
    """The former `certify._is_disk`, on an edge-degree table and rim list."""
    if c.dimension != 2 or not c.is_pure:
        return False
    edge_deg: dict = {}
    for t in c.faces(2):
        for v in t:
            e = t - {v}
            edge_deg[e] = edge_deg.get(e, 0) + 1
    if any(n > 2 for n in edge_deg.values()):
        return False
    # every vertex link must be a single path or a single cycle
    for v in c.vertices:
        lk = c.link((v,))
        if lk.dimension != 1:
            return False
        if not (oracle_is_path(lk) or oracle_is_cycle(lk)):
            return False
    if not c.is_connected:
        return False
    rim = [e for e, n in edge_deg.items() if n == 1]
    if not rim:
        return False
    if not oracle_is_cycle(Complex(rim)):
        return False
    return c.euler_characteristic == 1


def oracle_is_cycle(c: Complex) -> bool:
    """The former `certify._is_cycle`."""
    if c.dimension != 1 or not c.is_pure:
        return False
    deg: dict = {}
    for e in c.faces(1):
        for v in e:
            deg[v] = deg.get(v, 0) + 1
    return all(n == 2 for n in deg.values()) and c.is_connected


def oracle_is_ball_exact(c: Complex, dim: int) -> bool:
    """Ball recognition in dimensions 0 to 2 by degree tables."""
    if dim == 0:
        return c.dimension == 0 and len(c.vertices) == 1
    if dim == 1:
        return oracle_is_path(c)
    return oracle_is_disk(c)


def oracle_is_shelled_ball(c: Complex, dim: int) -> bool:
    """Shellable dim-ball recognition by a complete shelling search, which
    must not stop at its budget."""
    if c.dimension != dim or not c.is_pure or c.boundary().is_empty_complex:
        return False
    v = certify_k_shelled(c, dim)
    assert v.status != UNKNOWN, c.facets
    return v.proved


def oracle_ear_scan(b: Complex) -> list[tuple]:
    """The former `certify.ear_scan`: a facet is an ear iff the boundary
    faces inside it, as a complex of their own, form a (d-1)-ball.  That is
    decided by the degree tables for d <= 3, where a shelling search must
    agree with them from d = 2 on, and by the shelling search alone above
    that."""
    facets = b.facets
    if len(facets) == 1:
        return [facets[0]]
    screen = screen_homology_ball(b)
    if not screen.passed:
        raise NotABall(screen.detail)
    d = b.dimension
    bd = b.boundary()
    ears = []
    for f in facets:
        sub = bd.induced(set(f) & bd.vertex_set)
        if d <= 3:
            ear = oracle_is_ball_exact(sub, d - 1)
            assert d == 1 or ear == oracle_is_shelled_ball(sub, d - 1), (b.facets, f)
        else:
            ear = oracle_is_shelled_ball(sub, d - 1)
        if ear:
            ears.append(f)
    return ears


def test_ear_scan_matches_the_degree_table_oracle(differential_complexes):
    rng = random.Random(1932)
    grown = [
        grow_shelled_ball(dim, k, rng.randrange(1, 11), rng)[0]
        for dim in range(1, 6)
        for k in range(1, dim + 1)
        for _ in range(3)
    ]
    with_ears = []
    for x in list(differential_complexes) + grown:
        got = _outcome(ear_scan, x)
        assert got == _outcome(oracle_ear_scan, x), x.facets
        if isinstance(got, list) and got:
            with_ears.append(x.dimension)
    assert len(with_ears) >= 100
    assert sum(d >= 4 for d in with_ears) >= 25


def test_collapse_standard_balls():
    for d in (1, 2, 3, 4):
        v = collapse(standard_ball(d))
        assert v.proved
        assert len(v.witness["collapse_steps"]) * 2 + 1 == sum(standard_ball(d).f_vector())


def test_collapse_ziegler(ziegler_b2):
    v = collapse(ziegler_b2)
    assert v.proved


def test_collapse_closed_complex_unknown():
    v = collapse(standard_sphere(2))
    assert v.status == "UNKNOWN"


def _oracle_rng(seed: int, restart: int) -> random.Random:
    return random.Random((seed * 0x9E3779B97F4A7C15 + restart) & 0xFFFFFFFFFFFFFFFF)


def oracle_collapse(b: Complex, seed: int = 0, restarts: int = 16) -> Verdict:
    """The former `collapse`: greedy free-face collapsing on face sets with
    seeded randomized restarts, each step recounting every coface.  It
    sorts the free faces by raw labels, so mixed labels raise TypeError."""
    if b.is_empty_complex:
        raise NotWeakPseudomanifold("cannot collapse the empty complex")
    base_faces = set(oracle_all_faces(b))
    steps_total = 0
    for restart in range(restarts):
        rng = _oracle_rng(seed, restart)
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
                    budget_spent={"restarts": restart + 1, "steps": steps_total, "seed": seed},
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
        budget_spent={"restarts": restarts, "steps": steps_total, "seed": seed},
    )


def test_collapse_matches_the_restarts_oracle(differential_complexes):
    ran = proved = 0
    for c in differential_complexes:
        if c.is_empty_complex:
            continue
        v = collapse(c)
        assert v.status in (PROVED, UNKNOWN)
        if v.proved:
            proved += 1
            assert collapse_replays(c, v.witness), c.facets
            assert v.budget_spent == {"steps": len(v.witness["collapse_steps"]), "seed": 0}
        else:
            assert v.witness == {"reason": "greedy collapsing got stuck"}
            assert v.budget_spent == {"seed": 0}
        try:
            expected = oracle_collapse(c)
        except TypeError:  # the oracle compares mixed labels
            assert not c._numeric
            continue
        ran += 1
        assert v.proved == expected.proved, c.facets
    assert ran >= 150 and proved >= 50


@pytest.mark.parametrize("name", ["d4_16", "d6_18", "d7_19"])
def test_collapse_proves_the_mixed_label_balls(name):
    c = fixture(name).complex
    with pytest.raises(TypeError):
        oracle_collapse(c, restarts=1)
    v = collapse(c, SearchBudget(seed=5))
    assert v.proved and collapse_replays(c, v.witness)
    assert v.budget_spent == {"steps": len(v.witness["collapse_steps"]), "seed": 5}


def test_collapse_of_a_point_has_no_steps():
    v = collapse(Complex([("a",)]))
    assert v.proved
    assert v.witness == {"collapse_steps": [], "final_vertex": ["a"]}


# -- classes ------------------------------------------------------------------------------


@pytest.mark.parametrize("k,d", [(1, 2), (1, 3), (2, 4)])
def test_klee_novik_in_class_w(k, d):
    assert is_in_class(klee_novik(k, d), k, "W").proved


def test_stacked_spheres_in_class_k():
    s = grow_stacked_sphere(3, 3, random.Random(6))
    assert is_in_class(s, 1, "K").proved


def test_cross_polytope_fails_class_w_at_zero():
    assert is_in_class(cross_polytope(2), 0, "W").refuted


def test_stellated_spheres_have_stellated_links():
    rng = random.Random(51)
    for _ in range(10):
        k = rng.choice([1, 2])
        d = rng.choice([2, 3])
        k = min(k, d)
        s, _ = grow_stellated_sphere(d, k, rng.randrange(1, 5), rng)
        assert is_in_class(s, k, "W").proved


def test_class_w_adds_up_the_link_counters(monkeypatch):
    spent = []

    def counted(*args):
        v = certify_k_stellated(*args)
        spent.append(v.budget_spent.get("nodes", 0))
        return v

    monkeypatch.setattr(certify_module, "certify_k_stellated", counted)
    s, _ = grow_stellated_sphere(3, 2, 12, random.Random(8))
    v = is_in_class(s, 2, "W")
    assert v.proved and len(spent) > 1
    assert v.budget_spent == {"nodes": sum(spent)} and sum(spent) > 0
    # the refuting link's nodes count too
    spent.clear()
    v = is_in_class(fixture("dfm_s3_16").complex.join(standard_sphere(0, ("p", "q"))), 2, "W")
    assert v.refuted and v.budget_spent == {"nodes": sum(spent)} and sum(spent) > 0


# -- tightness ----------------------------------------------------------------------------


def test_tightness_beta_condition_arithmetic():
    from sx.certify import required_tight_beta

    assert required_tight_beta(1, 9) == (10, 10)
    num, den = required_tight_beta(1, 14)
    assert num % den != 0
    assert required_tight_beta(2, 12) == (35, 35)


def test_tightness_beta_condition_on_standard_sphere():
    s = standard_sphere(3)  # in W_1(3), 2-neighborly, orientable
    assert tightness_beta_condition(s, 1, 0).proved


def test_tightness_beta_condition_non_integer_refutes():
    s = grow_stacked_sphere(3, 9, random.Random(9))  # 14 vertices
    assert len(s.vertices) == 14
    v = tightness_beta_condition(s, 1, 0)
    assert v.refuted
    assert "not an integer" in v.witness["reason"]


def test_tightness_beta_condition_needs_k_within_the_dimension():
    m = fixture("lutz_s3_8").complex
    for k in (-1, 4, 5):
        with pytest.raises(ValueError, match=f"need 0 <= k <= 3, got k={k}$"):
            tightness_beta_condition(m, k, 2)


def test_tight_balls_and_spheres():
    for d in (1, 2, 3):
        assert is_tight_exhaustive(standard_ball(d), 2).proved
        sphere = standard_sphere(d)
        assert is_tight_exhaustive(sphere, 0).proved


def test_tightness_builds_only_relative_lattices(monkeypatch):
    # every β̃(x[A]) reduces the faces of x[A] outside the star of its
    # vertex in the most facets of x, β̃(x) is the case A = all, and every
    # β(x, x[A]) reduces the faces of x outside x[A], those not inside the
    # simplex A: x's full lattice is never built
    torus = seven_vertex_torus()  # a fresh complex: no lattice cached yet
    masks, n = torus._facet_masks, len(torus.vertices)
    built = spy_on_lattices(monkeypatch, [complexes_module, certify_module, homology_module])
    assert is_tight_exhaustive(torus, 2).proved
    assert "_lattice" not in torus.__dict__
    pairs = 0
    for generators, minus in built:
        if generators == masks:  # the pair (x, x[A]) for the x[A] just split
            assert minus == (a,) and a != (1 << n) - 1
            pairs += 1
        else:  # x[A] split at the star of its vertex in the most facets
            a = functools.reduce(operator.or_, generators + minus)
            v = max((i for i in range(n) if a >> i & 1), key=lambda i: sum(g >> i & 1 for g in masks))
            ys = [g & a for g in masks]
            assert (generators, minus) == (tuple(y for y in ys if not y >> v & 1),
                                           tuple(y for y in ys if y >> v & 1))
    assert built[0] == star_relative(torus)
    assert pairs >= 2 and len(built) - pairs == 2**n - 1


def test_cone_over_sphere_not_tight():
    cone = standard_ball(0, ("c",)).join(standard_sphere(2))
    v = is_tight_exhaustive(cone, 2)
    assert v.refuted
    assert v.witness == {"vertices": ["1", "2", "3", "4"], "dimension": 2}


def test_disconnected_induced_subcomplex_refutes_tightness():
    path = from_facets([[1, 2], [2, 3]])
    v = is_tight_exhaustive(path, 2)
    assert v.refuted
    assert v.witness["dimension"] == 0


def test_tightness_guard():
    with pytest.raises(GuardExceeded):
        is_tight_exhaustive(cross_polytope(8), 2, guard=16)


def test_tightness_of_the_empty_complex_is_an_input_error():
    with pytest.raises(EmptyInput):
        is_tight_exhaustive(Complex.empty(), 2)


def oracle_kernel_basis(cols, field):
    """Oracle: kernel basis of a sparse column matrix by Gaussian elimination
    with bookkeeping of column combinations, in Fractions over Q."""
    pivots = {}
    kernel = []
    for j, col in enumerate(cols):
        if field:
            work = {r: v % field for r, v in col.items() if v % field}
        else:
            work = {r: Fraction(v) for r, v in col.items() if v}
        combo = {j: Fraction(1) if field == 0 else 1}
        while work:
            r = min(work)
            if r not in pivots:
                pivots[r] = (work, combo)
                break
            pcol, pcombo = pivots[r]
            if field:
                c = (work[r] * pow(pcol[r], field - 2, field)) % field
            else:
                c = work[r] / pcol[r]
            for target, source in ((work, pcol), (combo, pcombo)):
                for i, v in source.items():
                    w = target.get(i, 0) - c * v
                    if field:
                        w %= field
                    if w:
                        target[i] = w
                    elif i in target:
                        del target[i]
        if not work:
            if field == 0:
                denom = 1
                for v in combo.values():
                    denom = denom * v.denominator // math.gcd(denom, v.denominator)
                combo = {i: int(v * denom) for i, v in combo.items()}
            kernel.append(combo)
    return kernel


def _rank(cols, field):
    return len(_pivot_rows(cols, field))


def oracle_induced_rank_injective(x, y, j, field, x_cache):
    """Injectivity of reduced H_j(y) -> H_j(x) for an induced subcomplex y:
    the former `certify._induced_rank_injective`, rows from `sorted_faces`.

    The kernel is (B_j(x) ∩ C_j(y)) / B_j(y), since every boundary of x is
    a cycle and the cycles of x inside C_j(y) are the cycles of y.  Deleting
    the rows of y's j-faces from ∂_{j+1}(x) leaves a matrix of rank
    dim B_j(x) - dim(B_j(x) ∩ C_j(y)), so three exact ranks decide the map.
    x_cache holds x's columns and rank per degree j.
    """
    if j not in x_cache:
        cols = oracle_boundary_columns(x, j + 1)
        x_cache[j] = (cols, _rank(cols, field))
    bx_cols, bx_rank = x_cache[j]
    rows = {frozenset(f): i for i, f in enumerate(x.sorted_faces(x.faces(j)))}
    y_rows = {rows[f] for f in y.faces(j)}
    outside_y = [{i: v for i, v in col.items() if i not in y_rows} for col in bx_cols]
    by_rank = _rank(oracle_boundary_columns(y, j + 1), field)
    return bx_rank - _rank(outside_y, field) == by_rank


def oracle_is_tight_by_induced_ranks(x, field):
    """The former `is_tight_exhaustive`: one `Complex` per vertex subset and
    the full boundary columns of x and of it, three ranks per degree."""
    x_cache: dict = {}
    verts = x.vertices
    for size in range(1, len(verts)):
        for combo in itertools.combinations(verts, size):
            y = x.induced(combo)
            for j in range(0, y.dimension + 1):
                if not oracle_induced_rank_injective(x, y, j, field, x_cache):
                    return REFUTED, {"vertices": [str(v) for v in combo], "dimension": j}
    return PROVED, {"subsets_checked": 2 ** len(verts) - 2}


def orientation_sign(face, reordered):
    """Sign of the permutation that turns the tuple face into reordered."""
    perm = [face.index(v) for v in reordered]
    inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
    return -1 if inversions % 2 else 1


def oracle_is_tight(x, field):
    """Oracle: lift a cycle basis of every induced subcomplex into x and
    compare the rank of cycles plus boundaries of x with what injectivity
    of reduced homology requires; the first failure is the witness."""
    verts = x.vertices
    for size in range(1, len(verts)):
        for combo in itertools.combinations(verts, size):
            y = x.induced(combo)
            for j in range(y.dimension + 1):
                z_basis = oracle_kernel_basis(oracle_boundary_columns(y, j), field)
                if not z_basis:
                    continue
                by_rank = _rank(oracle_boundary_columns(y, j + 1), field)
                bx_cols = oracle_boundary_columns(x, j + 1)
                x_index = {frozenset(f): i for i, f in enumerate(x.sorted_faces(x.faces(j)))}
                y_faces = y.sorted_faces(y.faces(j))
                # a face that x orders unlike y (mixed labels) changes sign
                signs = [orientation_sign(f, x.face_tuple(f)) for f in y_faces]
                lift = [
                    {x_index[frozenset(y_faces[i])]: signs[i] * v for i, v in vec.items()}
                    for vec in z_basis
                ]
                joint = _rank(lift + bx_cols, field)
                if joint != len(z_basis) + _rank(bx_cols, field) - by_rank:
                    return REFUTED, {"vertices": [str(v) for v in combo], "dimension": j}
    return PROVED, {"subsets_checked": 2 ** len(verts) - 2}


def random_complex(rng):
    """At most 8 vertices; half of them contain the complete graph, so that
    their induced subcomplexes are connected and fail, if at all, higher up."""
    n = rng.randrange(3, 9)
    facets = [
        rng.sample(range(1, n + 1), rng.randrange(1, min(n, 5) + 1))
        for _ in range(rng.randrange(1, 3 * n))
    ]
    if rng.random() < 0.5:
        facets += list(itertools.combinations(range(1, n + 1), 2))
    return from_facets(facets)


def test_tightness_agrees_with_kernel_basis_oracle():
    rng = random.Random(2024)
    complexes = [random_complex(rng) for _ in range(40)]
    complexes += [cross_polytope(2), from_facets(RP2), standard_ball(0, ("c",)).join(standard_sphere(2))]
    # mixed labels sort as strings, so induced subcomplexes on integer
    # labels alone order their vertices unlike the whole complex
    mixed = standard_sphere(2, (1, 10, 2, "a"))
    assert mixed.vertices == (1, 10, 2, "a")
    assert mixed.induced((1, 2, 10)).vertices == (1, 2, 10)
    relabel = {3: 10, 6: "a"}
    complexes += [mixed, from_facets([[relabel.get(v, v) for v in f] for f in RP2])]
    outcomes = set()
    for x in complexes:
        for field in (0, 2, 3):
            outcomes.add(assert_tightness_matches(x, field).get("dimension"))
    assert outcomes == {None, 0, 1, 2}


def assert_tightness_matches(x, field):
    """The relative-Betti path against the induced-rank path it replaced and
    the kernel-basis oracle: equal status and witness; returns the witness."""
    v = is_tight_exhaustive(x, field)
    got = (v.status, v.witness)
    assert got == oracle_is_tight_by_induced_ranks(x, field), (x.facets, field)
    assert got == oracle_is_tight(x, field), (x.facets, field)
    return v.witness


def seven_vertex_torus():
    """The 7-vertex torus: {i, i+1, i+3} and {i, i+2, i+3} mod 7."""
    return Complex([(i % 7 + 1, (i + a) % 7 + 1, (i + 3) % 7 + 1) for i in range(7) for a in (1, 2)])


def kuehnel_k39():
    """Kühnel's 9-vertex 3-manifold K³₉: the boundary of the nine 4-simplices
    {i, ..., i+4} mod 9 (Results Math. 9, 1986), not orientable."""
    return Complex([[(i + j) % 9 + 1 for j in range(5)] for i in range(9)]).boundary()


def test_tightness_matches_the_induced_rank_path(differential_complexes):
    # every member on at most 11 vertices, all but the corpus complexes on
    # 16 to 19 (the oracles build a complex per vertex subset), and the
    # 7-vertex torus and K³₉, pinned
    small = [x for x in differential_complexes if len(x.vertices) <= 11]
    assert len(small) >= 180
    outcomes = set()
    for x in small:
        for field in (0, 2, 3):
            outcomes.add(assert_tightness_matches(x, field).get("dimension"))
    assert outcomes == {None, 0, 1, 2}
    torus, k39 = seven_vertex_torus(), kuehnel_k39()
    assert torus.f_vector() == (7, 21, 14) and k39.f_vector() == (9, 36, 54, 27)
    for field in (0, 2):
        assert assert_tightness_matches(torus, field) == {"subsets_checked": 126}
    assert assert_tightness_matches(k39, 2) == {"subsets_checked": 510}
    assert assert_tightness_matches(k39, 0) == {"vertices": ["1", "2", "3", "4"], "dimension": 2}


# -- structural cross-checks ------------------------------------


def test_monotonicity_in_k():
    rng = random.Random(63)
    for _ in range(8):
        dim = rng.choice([2, 3])
        ball, _ = grow_shelled_ball(dim, 1, rng.randrange(2, 6), rng)
        for k in range(1, dim + 1):
            assert certify_k_shelled(ball, k).proved
        for k in range(1, dim + 1):
            assert is_k_stacked_ball(ball, k).proved


def test_search_certificates_transport_to_boundary():
    # a proved shelling certificate moves the boundary sphere with no search
    rng = random.Random(29)
    for _ in range(10):
        dim = rng.choice([2, 3])
        k = min(rng.choice([1, 2]), dim)
        ball, _ = grow_shelled_ball(dim, k, rng.randrange(2, 6), rng)
        verdict = certify_k_shelled(ball, k)
        assert verdict.proved
        for f in ball.facets:
            seed = Complex([f])
            if seed.digest == verdict.certificate.start_digest:
                sphere_cert = boundary_certificate(verdict.certificate, seed)
                final, _ = replay(sphere_cert, seed.boundary())
                assert final == ball.boundary()
                assert sphere_cert.max_index() <= k - 1 or sphere_cert.length == 0
                break
        else:
            pytest.fail("certificate seed not found")


def test_stellated_refutes_non_spheres():
    torus = klee_novik(1, 2)
    v = certify_k_stellated(torus, 2)
    assert v.refuted
    assert "not a homology sphere" in v.witness["reason"]


def test_join_with_standard_ball_stays_two_stacked(dfm_ball):
    # joining a 2-stacked ball with a standard ball preserves 2-stackedness
    tall = dfm_ball.join(standard_ball(1, ("a", "b")))
    assert tall.dimension == 6
    assert is_k_stacked_ball(tall, 2).proved


def test_exhaustive_search_path():
    rng = random.Random(3)
    s, _ = grow_stellated_sphere(3, 2, 3, rng)
    v = certify_k_stellated(s, 2)
    assert v.proved
    assert v.budget_spent == {"nodes": 3}
    # the seed is only echoed
    assert certify_k_stellated(s, 2, SearchBudget(seed=4)) == v
    # the move path is capped at max_moves: a budget below the certificate
    # length cuts the search short
    length = v.certificate.length
    assert certify_k_stellated(s, 2, SearchBudget(max_moves=length)).proved
    assert certify_k_stellated(s, 2, SearchBudget(max_moves=length - 1)).status == UNKNOWN


def test_exhaustive_search_on_moveless_sphere_is_refuted(dfm_ball):
    # the join construction is unflippable, so the reverse-move graph is a
    # single node and the search exhausts it at once
    sphere = dfm_ball.join(standard_ball(0, ("q",))).boundary()
    v = certify_k_stellated(sphere, 2)
    assert v.refuted
    assert v.budget_spent == {"nodes": 1}


def test_poincare_sphere_is_not_two_stellated(sigma):
    v = certify_k_stellated(sigma, 2)
    assert v.refuted and v.budget_spent == {"nodes": 1}


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_stellated_search_holds_facet_sets_not_complexes():
    # at k = 3 the search path on the Poincaré sphere grows about one
    # level a node; a path of Complex objects with their ridge maps peaked
    # at 154 MB after 1500 nodes, facet sets peak near 36 MB.  VmHWM is the
    # child's own peak, where ru_maxrss would carry this process's over exec.
    code = (
        "from sx.corpus import fixture\n"
        "from sx.certify import SearchBudget, certify_k_stellated\n"
        "v = certify_k_stellated(fixture('bl_sigma3_16').complex, 3, SearchBudget(max_nodes=1500))\n"
        "hwm = [ln for ln in open('/proc/self/status') if ln.startswith('VmHWM:')][0]\n"
        "print(v.status, v.budget_spent['nodes'], hwm.split()[1])\n"
    )
    src = os.path.dirname(os.path.dirname(certify_module.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert out[:2] == [UNKNOWN, "1501"]
    assert int(out[2]) < 100 * 1024  # kB


def test_ear_scan_on_paths():
    path = from_facets([[1, 2], [2, 3], [3, 4]])
    assert ear_scan(path) == [(1, 2), (3, 4)]


def test_top_degree_stackedness_always_proved():
    # every screened homology d-sphere is d-stacked via the vertex ball
    rng = random.Random(19)
    for d in (1, 2):
        s, _ = grow_stellated_sphere(d, min(2, d), rng.randrange(1, 4), rng)
        v = certify_k_stacked_sphere(s, d)
        assert v.proved
        assert "vertex_ball_apex" in v.witness


def test_dfm_links_form_class_k_at_top_degree(dfm):
    assert is_in_class(dfm, 2, "K").proved
