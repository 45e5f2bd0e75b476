"""Claim-by-claim verification harness behind ``sx verify-paper``.

Each criterion function returns a list of named sub-checks; the
acceptance test module asserts them and the CLI renders them as a
table.  Randomized suites are seed-pinned and run at least 200 trials
apiece.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb, factorial

from .certify import (
    SearchBudget,
    _bounding_fault,
    certify_k_shelled,
    certify_k_stacked_sphere,
    certify_k_stellated,
    collapse,
    ear_scan,
    is_k_stacked_ball,
    is_one_stacked_ball,
    is_tight_exhaustive,
    required_tight_beta,
)
from .complexes import Complex
from .constructions import (
    _kn_labels,
    canonical_matching,
    connected_sum,
    cross_polytope,
    klee_novik,
    klee_novik_automorphisms,
    klee_novik_bar,
    stacked_ball_closure,
    stacked_manifold_closure,
    vertex_ball,
)
from .corpus import fixture
from .growth import grow_shelled_ball, grow_stacked_sphere, grow_stellated_sphere
from .homology import betti, screen_homology_sphere
from .moves import (
    BistellarMove,
    apply_bistellar,
    apply_shelling,
    ball_from_stellated_certificate,
    bistellar_options,
    replay,
    shelling_options,
    standard_ball,
    standard_sphere,
)
from .symmetry import automorphism_group, is_automorphism, is_isomorphic

KLEE_NOVIK_CASES = ((0, 1), (1, 2), (1, 3), (1, 4), (2, 4), (2, 5))
TRIALS = 200


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def _check(name: str, ok: bool, detail: str = "") -> Check:
    return Check(name, bool(ok), detail)


def criterion_1() -> list[Check]:
    """Fixture f-vectors match exactly."""
    dfm = fixture("dfm_s3_16").complex
    bl = fixture("bl_sigma3_16").complex
    return [
        _check(
            "dfm_s3_16 f-vector",
            dfm.f_vector() == (16, 120, 208, 104),
            f"got {dfm.f_vector()}",
        ),
        _check(
            "bl_sigma3_16 f-vector",
            bl.f_vector() == (16, 106, 180, 90),
            f"got {bl.f_vector()}",
        ),
    ]


def criterion_2() -> list[Check]:
    """Unflippability of the 16-vertex sphere."""
    dfm = fixture("dfm_s3_16").complex
    edge_degrees = {len(dfm.star(e).facet_sets) for e in dfm.faces(1)}
    moves = bistellar_options(dfm, 1, 3)
    return [
        _check("2-neighborly", dfm.is_l_neighborly(2)),
        _check("no edge in exactly 3 facets", 3 not in edge_degrees, f"degrees {sorted(edge_degrees)}"),
        _check("no bistellar move of index 1..3", moves == [], f"{len(moves)} moves found"),
    ]


def criterion_3() -> list[Check]:
    """Every vertex ball over the 16-vertex sphere is a 2-stacked ball."""
    dfm = fixture("dfm_s3_16").complex
    out = []
    for x in dfm.vertices:
        ball = vertex_ball(dfm, x)
        verdict = is_k_stacked_ball(ball, 2)
        ok = verdict.proved and ball.boundary() == dfm
        out.append(_check(f"vertex ball at {x}", ok, verdict.status))
    return out


def criterion_4() -> list[Check]:
    """The non-shellable hemisphere suite."""
    b1 = fixture("ziegler_b1").complex
    b2 = fixture("ziegler_b2").complex
    s2 = fixture("ziegler_s2_10").complex
    shelled = certify_k_shelled(b2, 3, SearchBudget(max_nodes=2_000_000))
    collapsed = collapse(b2)
    return [
        _check("boundary(B1) = S2_10 = boundary(B2)", b1.boundary() == s2 == b2.boundary()),
        _check("B1 is a 1-stacked ball", is_one_stacked_ball(b1).proved),
        _check("B2 has no ears", ear_scan(b2) == []),
        _check(
            "B2 is not shellable (complete backtracking)",
            shelled.refuted,
            f"{shelled.status}, nodes={shelled.budget_spent.get('nodes')}",
        ),
        _check("B2 collapses", collapsed.proved, collapsed.status),
    ]


def criterion_5() -> list[Check]:
    """The unique-ear hemisphere suite."""
    b1 = fixture("lutz_b1").complex
    b2 = fixture("lutz_b2").complex
    s2 = fixture("lutz_s2_8").complex
    cert = fixture("lutz_b2_shelling_cert").certificate
    seed = Complex([(1, 3, 5, 7)])
    final, length = replay(cert, seed)
    return [
        _check("boundary(B1) = S2_8 = boundary(B2)", b1.boundary() == s2 == b2.boundary()),
        _check("printed shelling replays to B2", final == b2, f"length {length}"),
        _check("every shelling step has index <= 1", cert.max_index() <= 1, f"max index {cert.max_index()}"),
        _check("unique ear 2457", ear_scan(b2) == [(2, 4, 5, 7)]),
    ]


def _expected_product_betti(k: int, d: int) -> tuple[int, ...]:
    """Reduced Betti vector of the sphere product S^k x S^(d-k) over Q."""
    out = [0] * (d + 1)
    if k == 0:
        out[0] = 1
        out[d] += 2
    elif 2 * k == d:
        out[k] = 2
        out[d] += 1
    else:
        out[k] = 1
        out[d - k] += 1
        out[d] += 1
    return tuple(out)


def _generated_group(gens: list[dict], verts: list) -> set[tuple]:
    """Every element of the permutation group that ``gens`` generate,
    as image tuples over ``verts``."""
    identity = tuple(verts)
    elements = {identity}
    frontier = [identity]
    while frontier:
        g = frontier.pop()
        for h in gens:
            hg = tuple(h[v] for v in g)
            if hg not in elements:
                elements.add(hg)
                frontier.append(hg)
    return elements


def criterion_6() -> list[Check]:
    """The sign-change manifold family.

    <D, E, R> is the vertex-transitive group of order 4d+8 that Klee and
    Novik name for every (k, d).  It is the full group of the boundary
    for k >= 1 and d >= 2k+1.  At k = 0 no sign sequence changes sign,
    so the bar complex is the two simplices on the x's and on the y's,
    the boundary is two disjoint copies of the boundary of a
    (d+1)-simplex, and its full group is S_(d+2) wr C2.
    """
    out = []
    for k, d in KLEE_NOVIK_CASES:
        mbar = klee_novik_bar(k, d)
        m = klee_novik(k, d)
        perms = klee_novik_automorphisms(k, d)
        verts = sorted(m.vertices, key=str)
        expected_facets = 2 * sum(comb(d + 1, j) for j in range(k + 1))
        out.append(
            _check(
                f"facet count of bar complex ({k},{d})",
                len(mbar.facet_sets) == expected_facets,
                f"{len(mbar.facet_sets)} vs {expected_facets}",
            )
        )
        out.append(_check(f"boundary vertex count ({k},{d})", len(m.vertices) == 2 * d + 4))
        ok_der = all(
            is_automorphism(m, perms[nm]) and is_automorphism(mbar, perms[nm])
            for nm in ("D", "E", "R")
        )
        out.append(_check(f"D,E,R are automorphisms ({k},{d})", ok_der))
        named = _generated_group([perms[nm] for nm in ("D", "E", "R")], verts)
        out.append(
            _check(
                f"<D,E,R> has order 4d+8 and is vertex-transitive ({k},{d})",
                len(named) == 4 * d + 8 and {g[0] for g in named} == set(verts),
                f"order {len(named)}, stated {4 * d + 8}",
            )
        )
        got = betti(m, 0)
        want = _expected_product_betti(k, d)
        out.append(
            _check(
                f"rational Betti matches the sphere product ({k},{d})",
                got == want,
                f"{got} vs {want}",
            )
        )
        if k == 0:
            xs, ys = _kn_labels(d)
            out.append(
                _check(
                    f"bar complex is the two simplices on the x's and the y's ({k},{d})",
                    set(mbar.facet_sets) == {frozenset(xs), frozenset(ys)},
                )
            )
            # either simplex boundary may be permuted freely, and D swaps the two
            order = automorphism_group(m).order
            want = 2 * factorial(d + 2) ** 2
            out.append(
                _check(
                    f"automorphism group is S_(d+2) wr C2 of order 2((d+2)!)^2 ({k},{d})",
                    order == want,
                    f"computed {order}, stated {want}",
                )
            )
        elif d >= 2 * k + 1:
            order = automorphism_group(m).order
            out.append(
                _check(
                    f"automorphism group order is 4d+8 ({k},{d})",
                    order == 4 * d + 8,
                    f"computed {order}, stated {4 * d + 8}",
                )
            )
        if d >= 2 * k + 2:
            rec = stacked_manifold_closure(m, k)
            out.append(
                _check(
                    f"closure recovers the bar complex ({k},{d})",
                    rec == mbar,
                )
            )
    return out


def _suite_boundary_commutation(rng: random.Random) -> Check:
    steps = 0
    while steps < TRIALS:
        dim = rng.choice([2, 3, 4])
        k = min(rng.choice([1, 2]), dim)
        ball = standard_ball(dim)
        for _ in range(6):
            opts = shelling_options(ball, max_index=k - 1)
            if not opts:
                break
            mv = opts[rng.randrange(len(opts))]
            nxt = apply_shelling(ball, mv)
            moved = apply_bistellar(
                ball.boundary(), BistellarMove(alpha=mv.alpha, beta=mv.beta)
            )
            if nxt.boundary() != moved:
                return _check("shelling/boundary move commutation", False, f"failed at dim={dim}, move={mv}")
            ball = nxt
            steps += 1
    return _check("shelling/boundary move commutation", True, f"{steps} moves")


def _suite_reversibility(rng: random.Random) -> Check:
    steps = 0
    while steps < TRIALS:
        d = rng.choice([2, 3])
        sphere, _ = grow_stellated_sphere(d, min(2, d), rng.randrange(2, 6), rng)
        for mv in bistellar_options(sphere, 0, d)[:12]:
            forth = apply_bistellar(sphere, mv)
            back = apply_bistellar(forth, BistellarMove(alpha=mv.beta, beta=mv.alpha))
            if back != sphere:
                return _check("bistellar reversibility", False, f"failed for {mv}")
            steps += 1
    return _check("bistellar reversibility", True, f"{steps} moves")


def _suite_shelled_implies_stacked(rng: random.Random) -> Check:
    for trial in range(TRIALS):
        dim = rng.choice([2, 3, 4, 5])
        k = min(rng.choice([1, 2]), dim)
        ball, _ = grow_shelled_ball(dim, k, rng.randrange(2, 7), rng)
        if not is_k_stacked_ball(ball, k).proved:
            return _check("k-shelled ball fails stackedness", False, f"trial {trial}")
        if not certify_k_shelled(ball, k).proved:
            return _check("k-shelled ball fails shelling search", False, f"trial {trial}")
    return _check("k-shelled balls are shellable and k-stacked", True, f"{TRIALS} balls")


def _suite_stellated_round_trip(rng: random.Random) -> Check:
    for trial in range(TRIALS):
        k = rng.choice([1, 2])
        d = rng.choice([max(2 * k - 1, 1), 2 * k, 2 * k + 1])
        sphere, cert = grow_stellated_sphere(d, k, rng.randrange(1, 6), rng)
        ball = ball_from_stellated_certificate(cert, standard_sphere(d))
        # a screened sphere that bounds the lifted ball, with no interior
        # face of dimension <= d - k: the ball is k-stacked
        if not screen_homology_sphere(sphere).passed or _bounding_fault(sphere, ball, k) is not None:
            return _check("stellated-sphere ball lift", False, f"trial {trial} (k={k}, d={d})")
        if d >= 2 * k:
            closure = stacked_ball_closure(sphere, k)
            if closure != ball:
                return _check("reconstruction closure uniqueness", False, f"trial {trial}")
            if not certify_k_shelled(closure, k).proved:
                return _check("reconstruction closure shelling", False, f"trial {trial}")
    return _check("stellated spheres bound shelled balls (round trip)", True, f"{TRIALS} spheres")


def _suite_one_stacked_agreement(rng: random.Random) -> Check:
    for trial in range(TRIALS):
        dim = rng.choice([2, 3, 4])
        ball, _ = grow_shelled_ball(dim, 1, rng.randrange(2, 8), rng)
        verdicts = (
            is_one_stacked_ball(ball).proved,
            is_k_stacked_ball(ball, 1).proved,
            certify_k_shelled(ball, 1).proved,
        )
        if not all(verdicts):
            return _check("1-stacked ball criteria disagree", False, f"trial {trial}: {verdicts}")
    return _check("1-stacked ball criteria agree three ways", True, f"{TRIALS} balls")


def _suite_forbidden_flip_range(rng: random.Random) -> Check:
    for trial in range(TRIALS):
        d = rng.choice([3, 4])
        sphere = grow_stacked_sphere(d, rng.randrange(1, 7), rng)
        moves = bistellar_options(sphere, 2, d - 1)
        if moves:
            return _check("stacked spheres admit no middle-index moves", False, f"trial {trial}: {moves[0]}")
    return _check("stacked spheres admit no middle-index moves", True, f"{TRIALS} stacked spheres")


def _suite_connected_sum(rng: random.Random) -> Check:
    for trial in range(TRIALS):
        d = rng.choice([2, 3])
        s1 = grow_stacked_sphere(d, rng.randrange(1, 5), rng)
        s2 = grow_stacked_sphere(d, rng.randrange(1, 5), rng)
        s2 = s2.rename({v: f"r{v}" for v in s2.vertices})
        f1 = s1.facets[rng.randrange(len(s1.facets))]
        f2 = s2.facets[rng.randrange(len(s2.facets))]
        total = connected_sum(s1, s2, f1, f2, canonical_matching(s1, f1, s2, f2))
        if not certify_k_stellated(total, 1).proved:
            return _check("connected-sum closure of 1-stellated", False, f"trial {trial}")
    return _check("connected-sum closure of 1-stellated spheres", True, f"{TRIALS} sums")


def criterion_7(seed: int = 0) -> list[Check]:
    """Seed-pinned randomized structural suites."""
    suites = (
        _suite_boundary_commutation,
        _suite_reversibility,
        _suite_shelled_implies_stacked,
        _suite_stellated_round_trip,
        _suite_one_stacked_agreement,
        _suite_forbidden_flip_range,
        _suite_connected_sum,
    )
    # string seeds hash stably (sha512), so runs reproduce across processes
    return [suite(random.Random(f"{seed}:{suite.__name__}")) for suite in suites]


def criterion_8() -> list[Check]:
    """Cross-polytope boundaries are never (d-1)-stacked."""
    out = []
    for d in (2, 3, 4):
        verdict = certify_k_stacked_sphere(cross_polytope(d), d - 1)
        out.append(
            _check(f"cross-polytope boundary d={d} refuted", verdict.refuted, verdict.status)
        )
    return out


def criterion_9() -> list[Check]:
    """Tightness at desk scale plus the Betti-number arithmetic grid."""
    from fractions import Fraction

    out = []
    for d in (1, 2, 3):
        ok = (
            is_tight_exhaustive(standard_ball(d), 2).proved
            and is_tight_exhaustive(standard_ball(d), 0).proved
        )
        out.append(_check(f"standard {d}-ball is tight over F2 and Q", ok))
    for k in (1, 2, 3):
        cone = standard_ball(0, ("c",)).join(standard_sphere(k))
        ok = (
            is_tight_exhaustive(cone, 2).refuted
            and is_tight_exhaustive(cone, 0).refuted
        )
        out.append(_check(f"cone over the standard {k}-sphere is not tight", ok))
    grid_ok = True
    bad = ""
    for k in range(0, 4):
        for n in range(2 * k + 4, 31):
            num, den = required_tight_beta(k, n)
            closed_form = Fraction(comb(n - k - 3, k + 1), comb(2 * k + 3, k + 1))
            if Fraction(num, den) != closed_form or (num % den == 0) != (
                closed_form.denominator == 1
            ):
                grid_ok = False
                bad = f"k={k}, n={n}"
                break
    out.append(_check("Betti formula arithmetic grid k<=3, n<=30", grid_ok, bad))
    return out


def criterion_10() -> list[Check]:
    """Double-suspension pipeline."""
    d6 = fixture("d6_18").complex
    s5 = fixture("s5_18").complex
    sigma = fixture("bl_sigma3_16").complex
    stacked = is_k_stacked_ball(d6, 2)
    edge_link = s5.link(("a", "b"))
    link_ok = edge_link == sigma or is_isomorphic(edge_link, sigma) is not None
    screen = screen_homology_sphere(s5, (0, 2, 3))
    return [
        _check("d6_18 is a 2-stacked ball", stacked.proved, stacked.status),
        _check("boundary(d6_18) = s5_18", d6.boundary() == s5),
        _check("edge link in s5_18 matches the homology sphere", link_ok),
        _check("s5_18 homology screen over {Q,F2,F3} is sphere-like", screen.passed, screen.detail),
    ]


CRITERIA = {
    "1": ("fixture f-vectors", criterion_1),
    "2": ("unflippable 16-vertex sphere", criterion_2),
    "3": ("vertex balls are 2-stacked", criterion_3),
    "4": ("non-shellable hemisphere suite", criterion_4),
    "5": ("unique-ear hemisphere suite", criterion_5),
    "6": ("sign-change manifold suite", criterion_6),
    "7": ("randomized structural suites", criterion_7),
    "8": ("cross-polytopes are not (d-1)-stacked", criterion_8),
    "9": ("tightness at desk scale", criterion_9),
    "10": ("double-suspension pipeline", criterion_10),
}


def run_criterion(cid: str, seed: int = 0) -> list[Check]:
    title, fn = CRITERIA[cid]
    if cid == "7":
        return fn(seed)
    return fn()

