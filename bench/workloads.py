"""The three benchmark workloads and their hand-written answers.

Each workload is a list of operations built from the seed.  An operation
runs once per pass and returns a raw result; ``check`` compares it with
the expected answer, which is written here from the paper, the README
and the test suite, never recorded from a run.  ``fingerprint`` renders
what a user would see (stdout and exit code, or verdicts and digests),
so a traced pass can be compared with an untraced one.

Every call into ``sx`` goes through a module attribute looked up at call
time, so the wrappers installed by the tracer see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import sx.certify
import sx.cli
import sx.complexes
import sx.constructions
import sx.corpus
import sx.growth
import sx.io
import sx.moves

PROVED, REFUTED, UNKNOWN = "PROVED", "REFUTED", "UNKNOWN"


@dataclass
class Op:
    """One operation of a pass.

    ``check(result)`` returns one ``(name, ok, detail)`` row per
    known-answer check; ``fingerprint(result)`` is what must not change
    when tracing is on.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    fingerprint: Callable[[object], str]


# -- running the CLI in-process -------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = sx.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 64
    return code, out.getvalue()


def _cli_fingerprint(result) -> str:
    code, stdout = result
    return f"{code}\n{stdout}"


def _row(name: str, ok: bool, detail: str = "") -> tuple[str, bool, str]:
    return (name, bool(ok), detail)


# -- certificate and witness checks ---------------------------------------------


def shelling_replays(cert: sx.moves.MoveCertificate, ball) -> bool:
    """The shelling certificate replays from one facet of ``ball`` to ``ball``."""
    for f in ball.facets:
        seed = sx.complexes.Complex([f])
        if seed.digest == cert.start_digest:
            final, _ = sx.moves.replay(cert, seed)
            return final == ball
    return False


def bistellar_replays(cert: sx.moves.MoveCertificate, sphere) -> bool:
    """Undo the moves from ``sphere`` to find the start, check that it is a
    standard sphere with the pinned digest, then replay forwards."""
    start = sphere
    for mv in reversed(cert.moves):
        start = sx.moves.apply_bistellar(start, sx.moves.reverse_move(mv))
    if not sx.moves.is_standard_sphere(start) or start.digest != cert.start_digest:
        return False
    final, _ = sx.moves.replay(cert, start)
    return final == sphere


def _certificate(payload: dict) -> sx.moves.MoveCertificate:
    return sx.moves.MoveCertificate.from_json(json.dumps(payload["certificate"]))


def collapse_is_valid(c, witness: dict) -> bool:
    """Replay a collapse sequence on the face set, with plain sets."""
    faces = set()
    for f in c.facet_sets:
        f = tuple(f)
        for mask in range(1, 1 << len(f)):
            faces.add(frozenset(v for i, v in enumerate(f) if mask >> i & 1))
    for g, s in witness["collapse_steps"]:
        g, s = frozenset(g), frozenset(s)
        cofaces = [h for h in faces if g < h]
        if s not in faces or cofaces != [s] or len(s) != len(g) + 1:
            return False
        faces -= {g, s}
    return faces == {frozenset(witness["final_vertex"])}


# -- paper ------------------------------------------------------------------------

# checks per criterion, counted by hand from the statement of each criterion:
# 16 vertex balls in criterion 3; criterion 6 has 4 checks per (k, d) case,
# one more when d >= 2k+1 and another when d >= 2k+2, over the six cases
# (0,1) (1,2) (1,3) (1,4) (2,4) (2,5): 5+4+5+6+4+5 = 29
PAPER_CHECKS = {"1": 2, "2": 3, "3": 16, "4": 5, "5": 4, "6": 29, "7": 7, "8": 3, "9": 7, "10": 4}
# the known honest failure, which must stay red: Aut(M(0,1)) is S3 wr C2,
# of order 72, not the 4d+8 = 12 stated for the generic regime
PAPER_RED = {"6": {"automorphism group order is 4d+8 (0,1)": "computed 72, stated 12"}}


def paper_rows(seed: int, cids: list[str], result) -> list:
    """Known-answer rows for ``verify-paper --seed seed --criteria cids``."""
    code, stdout = result
    payload = json.loads(stdout)
    rows = []
    if payload["seed"] != seed or [c["criterion"] for c in payload["criteria"]] != cids:
        rows.append(_row("verify-paper: seed and criteria echoed", False))
    want_code = 0
    for cid, crit in zip(cids, payload["criteria"]):
        red = PAPER_RED.get(cid, {})
        want_code |= bool(red)
        for c in crit["checks"]:
            if c["name"] in red:
                ok = not c["passed"] and c["detail"] == red[c["name"]]
            else:
                ok = c["passed"]
            rows.append(_row(f"criterion {cid}: {c['name']}", ok, c["detail"]))
        if len(crit["checks"]) != PAPER_CHECKS[cid]:
            rows.append(_row(f"criterion {cid}: {PAPER_CHECKS[cid]} checks", False, str(len(crit["checks"]))))
        seen = {c["name"] for c in crit["checks"]}
        rows += [_row(f"criterion {cid}: {name} present", False) for name in red if name not in seen]
    if code != want_code:
        rows.append(_row("verify-paper: exit code", False, f"exit {code}"))
    return rows


def verify_paper_op(seed: int, cids: list[str]) -> Op:
    argv = ["verify-paper", "--seed", str(seed), "--criteria", ",".join(cids)]
    return Op(
        f"verify-paper {','.join(cids)}",
        lambda: run_cli(argv),
        lambda result: paper_rows(seed, cids, result),
        _cli_fingerprint,
    )


def paper_ops(seed: int, workdir: str) -> list[Op]:
    return [verify_paper_op(seed, [cid]) for cid in PAPER_CHECKS]


# -- corpus -------------------------------------------------------------------------

DFM_DIGEST = "4e4e4e280195ff124ceb19c5ca0934a3f5829b94ed9a45ca25537d89bf907ccb"


def _write(workdir: str, name: str, c) -> str:
    path = os.path.join(workdir, f"{name}.fac")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(sx.io.dumps_fac(c, name))
    return path


def corpus_inputs(seed: int, workdir: str) -> dict[str, str]:
    """Write every complex the queries read; return name -> path."""
    fx = sx.corpus.fixture
    files = {}
    for name in ("dfm_s3_16", "dfm_b4_16", "bl_sigma3_16", "s6_19", "d7_19", "d6_18",
                 "ziegler_b2", "ziegler_s2_10", "lutz_b1", "lutz_b2"):
        files[name] = _write(workdir, name, fx(name).complex)
    for k, d in ((2, 5), (1, 3), (1, 4)):
        files[f"kn_{k}_{d}"] = _write(workdir, f"kn_{k}_{d}", sx.constructions.klee_novik(k, d))
    sigma = fx("bl_sigma3_16").complex
    labels = [f"w{i}" for i in range(len(sigma.vertices))]
    random.Random(f"{seed}:corpus:relabel").shuffle(labels)
    files["sigma_relabelled"] = _write(
        workdir, "sigma_relabelled", sigma.rename(dict(zip(sigma.vertices, labels)))
    )
    sphere, _ = sx.growth.grow_stellated_sphere(3, 2, 30, random.Random(f"{seed}:corpus:sphere"))
    files["grown_s3"] = _write(workdir, "grown_s3", sphere)
    return files


def _load(path: str):
    return sx.io.load_path(path)[0]


def corpus_ops(seed: int, workdir: str) -> list[Op]:
    files = corpus_inputs(seed, workdir)
    s = str(seed)
    ops = []

    def query(name, argv, codes, *tests):
        """``@name`` in argv is the input file of that name; ``codes`` is the
        expected exit code or a tuple of them; ``tests`` are (label,
        predicate(payload)) pairs."""
        argv = [files[a[1:]] if a.startswith("@") else a for a in argv]
        codes = codes if isinstance(codes, tuple) else (codes,)

        def check(result) -> list:
            got, stdout = result
            rows = [_row(f"{name}: exit code", got in codes, f"exit {got}")]
            try:
                payload = json.loads(stdout)
            except json.JSONDecodeError:
                return rows + [_row(f"{name}: JSON on stdout", False, stdout[:80])]
            for label, pred in tests:
                rows.append(_row(f"{name}: {label}", pred(payload)))
            return rows

        ops.append(Op(name, lambda: run_cli(argv), check, _cli_fingerprint))

    def status(*allowed):
        return ("status", lambda p: p["status"] in allowed)

    def betti(vec):
        return ("reduced betti", lambda p: p["reduced_betti"] == vec)

    # the README's CLI examples
    query("info dfm_s3_16", ["info", "@dfm_s3_16"], 0,
          ("f-vector", lambda p: p["f_vector"] == [16, 120, 208, 104]),
          ("counts", lambda p: (p["vertices"], p["facets"], p["dimension"]) == (16, 104, 3)),
          ("euler characteristic", lambda p: p["euler_characteristic"] == 0),
          ("digest", lambda p: p["digest"] == DFM_DIGEST))
    query("classify ziegler_b2", ["classify", "@ziegler_b2"], 0,
          ("a ball: normal, not closed", lambda p: p == {
              "pure": True, "weak_pseudomanifold": True, "pseudomanifold": True,
              "normal_pseudomanifold": True, "closed": False}))
    query("homology Q bl_sigma3_16", ["homology", "--field", "0", "@bl_sigma3_16"], 0,
          ("field", lambda p: p["field"] == "Q"), betti([0, 0, 0, 1]))
    query("flips dfm_s3_16", ["flips", "--lo", "1", "--hi", "3", "@dfm_s3_16"], 0,
          ("unflippable", lambda p: p["count"] == 0 and p["moves"] == []))
    query("certify shelled ziegler_b2", ["certify", "shelled", "-k", "3", "@ziegler_b2"], 1,
          status(REFUTED))
    query("certify stellated -k 1 ziegler_s2_10",
          ["certify", "stellated", "-k", "1", "@ziegler_s2_10"], 0, status(PROVED),
          ("six index-0 moves", lambda p: len(p["certificate"]["moves"]) == 6
           and all(len(m["beta"]) == 1 for m in p["certificate"]["moves"])),
          ("certificate replays", lambda p: bistellar_replays(_certificate(p), _load(files["ziegler_s2_10"]))))
    query("certify collapsible ziegler_b2", ["certify", "collapsible", "--seed", s, "@ziegler_b2"], (0, 2),
          status(PROVED, UNKNOWN),
          ("seed echoed", lambda p: p["seed"] == seed),
          ("collapse sequence is valid", lambda p: p["status"] == UNKNOWN
           or collapse_is_valid(_load(files["ziegler_b2"]), p["witness"])))
    query("certify ears lutz_b2", ["certify", "ears", "@lutz_b2"], 0,
          ("unique ear 2457", lambda p: p == {"ears": [[2, 4, 5, 7]], "count": 1}))
    query("certify tight lutz_b1", ["certify", "tight", "--field", "2", "@lutz_b1"], 1,
          status(REFUTED))
    # homology over Q, F2 and F3 of the double-suspension sphere and ball
    for field in ("0", "2", "3"):
        query(f"homology {field} s6_19", ["homology", "--field", field, "@s6_19"], 0,
              betti([0, 0, 0, 0, 0, 0, 1]))
        query(f"homology {field} d7_19", ["homology", "--field", field, "@d7_19"], 0,
              betti([0] * 8))
    query("stacked -k 2 d6_18", ["stacked", "-k", "2", "@d6_18"], 0, status(PROVED))
    query("stacked -k 2 dfm_s3_16", ["stacked", "-k", "2", "--candidate", "@dfm_b4_16", "@dfm_s3_16"], 0,
          status(PROVED))
    query("aut klee-novik 2 5", ["aut", "@kn_2_5"], 0, ("order 28", lambda p: p["order"] == 28))
    query("aut klee-novik 1 3", ["aut", "@kn_1_3"], 0, ("order 20", lambda p: p["order"] == 20))
    query("aut dfm_s3_16", ["aut", "@dfm_s3_16"], 0,
          ("order 16", lambda p: p["order"] == 16),
          ("one orbit", lambda p: len(p["orbits"]) == 1 and len(p["orbits"][0]) == 16))
    sigma = _load(files["bl_sigma3_16"])
    relabelled = _load(files["sigma_relabelled"])
    query("iso bl_sigma3_16", ["iso", "@bl_sigma3_16", "@sigma_relabelled"], 0,
          ("isomorphic", lambda p: p["isomorphic"] is True),
          ("bijection maps facets onto facets", lambda p: {
              frozenset(p["bijection"][str(v)] for v in f) for f in sigma.facet_sets
          } == {frozenset(map(str, f)) for f in relabelled.facet_sets}))
    query("certify shelled dfm_b4_16 budget 3000",
          ["certify", "shelled", "-k", "3", "--budget-nodes", "3000", "@dfm_b4_16"], (0, 2),
          status(PROVED, UNKNOWN),
          ("certificate replays", lambda p: p["status"] == UNKNOWN
           or shelling_replays(_certificate(p), _load(files["dfm_b4_16"]))))
    query("certify stellated -k 2 grown", ["certify", "stellated", "-k", "2", "--seed", s, "@grown_s3"], (0, 2),
          status(PROVED, UNKNOWN),
          ("certificate replays", lambda p: p["status"] == UNKNOWN
           or bistellar_replays(_certificate(p), _load(files["grown_s3"]))))
    query("class-w -k 1 klee-novik 1 4", ["certify", "class-w", "-k", "1", "@kn_1_4"], 0, status(PROVED))
    query("class-k -k 1 klee-novik 1 4", ["certify", "class-k", "-k", "1", "@kn_1_4"], 0, status(PROVED))
    # the criteria of verify-paper that take a second or less; 7, 6, 3 and 4
    # are the paper workload's
    ops.append(verify_paper_op(seed, ["1", "2", "5", "8", "9", "10"]))
    return ops


# -- ladder -----------------------------------------------------------------------

BALL_RUNGS = ((3, 1, (20, 40, 60)), (4, 2, (20, 40)))
SPHERE_RUNGS = (3, 2, (20, 40, 80))


def _ball_rung(seed: int, dim: int, k: int, facets: int) -> Op:
    def run():
        rng = random.Random(f"{seed}:ladder:ball:{dim}:{k}:{facets}")
        ball, cert = sx.growth.grow_shelled_ball(dim, k, facets - 1, rng)
        replayed, _ = sx.moves.replay(cert, sx.moves.standard_ball(dim))
        shelled = sx.certify.certify_k_shelled(ball, k)
        one = sx.certify.is_one_stacked_ball(ball) if k == 1 else None
        return ball, replayed, shelled, one

    def check(result) -> list:
        ball, replayed, shelled, one = result
        name = f"{dim}-ball k={k} {facets} facets"
        rows = [
            # every shelling move adds one facet, and a cone over a rim
            # ridge is always available, so growth never stops early
            _row(f"{name}: facet count", len(ball.facet_sets) == facets, str(len(ball.facet_sets))),
            _row(f"{name}: growth certificate replays", replayed == ball),
            _row(f"{name}: shelled search", shelled.status in (PROVED, UNKNOWN), shelled.status),
        ]
        if shelled.proved:
            rows.append(_row(f"{name}: shelling replays", shelling_replays(shelled.certificate, ball)))
        if one is not None:
            rows.append(_row(f"{name}: 1-stacked", one.proved, one.status))
        return rows

    def fingerprint(result) -> str:
        ball, _, shelled, one = result
        cert = shelled.certificate.to_json() if shelled.certificate else ""
        return f"{ball.digest} {shelled.status} {cert} {one and one.status}"

    return Op(f"ball_{dim}_{k}_{facets}", run, check, fingerprint)


def _sphere_rung(seed: int, dim: int, k: int, steps: int) -> Op:
    def run():
        rng = random.Random(f"{seed}:ladder:sphere:{dim}:{k}:{steps}")
        sphere, cert = sx.growth.grow_stellated_sphere(dim, k, steps, rng)
        replayed, _ = sx.moves.replay(cert, sx.moves.standard_sphere(dim))
        verdict = sx.certify.certify_k_stellated(sphere, k, sx.certify.SearchBudget(seed=seed))
        return sphere, replayed, verdict

    def check(result) -> list:
        sphere, replayed, verdict = result
        name = f"{dim}-sphere k={k} {steps} moves"
        rows = [
            _row(f"{name}: growth certificate replays", replayed == sphere),
            _row(f"{name}: stellated search", verdict.status in (PROVED, UNKNOWN), verdict.status),
        ]
        if verdict.proved:
            rows.append(_row(f"{name}: certificate replays", bistellar_replays(verdict.certificate, sphere)))
        return rows

    def fingerprint(result) -> str:
        sphere, _, verdict = result
        cert = verdict.certificate.to_json() if verdict.certificate else ""
        return f"{sphere.digest} {verdict.status} {cert}"

    return Op(f"sphere_{dim}_{k}_{steps}", run, check, fingerprint)


def ladder_ops(seed: int, workdir: str) -> list[Op]:
    ops = [_ball_rung(seed, dim, k, n) for dim, k, sizes in BALL_RUNGS for n in sizes]
    dim, k, steps = SPHERE_RUNGS
    ops += [_sphere_rung(seed, dim, k, n) for n in steps]
    return ops


WORKLOADS = {"paper": paper_ops, "corpus": corpus_ops, "ladder": ladder_ops}
