"""Command-line front end.

JSON is the only machine format and goes to stdout; human-readable
tables go to stderr under --pretty.  Exit codes: 0 proved/success,
1 refuted/failure, 2 unknown, 64 usage error, 65 input parse error, 69
broken precondition or guard, 73 output file cannot be created.
Only `verify-paper` draws random inputs, from its --seed; `certify`
verdicts echo --seed, and identical argv reproduce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import io as sxio
from .certify import (
    SearchBudget,
    Verdict,
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
from .complexes import Complex
from .constructions import (
    canonical_matching,
    connected_sum,
    klee_novik,
    klee_novik_bar,
    stacked_ball_closure,
    stacked_manifold_closure,
)
from .corpus import fixture, fixture_names
from .errors import BadDimension, SxError, UnknownFixture
from .homology import betti, euler_characteristic
from .moves import bistellar_options, standard_ball, standard_sphere
from .symmetry import automorphism_group, is_isomorphic, permutation_cycles

USAGE_ERROR = 64
PARSE_ERROR = 65
PRECONDITION = 69
CANT_CREATE = 73


def _usage_error(message: str):
    print(f"usage error: {message}", file=sys.stderr)
    raise SystemExit(USAGE_ERROR)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _usage_error(message)


def _emit(payload: dict, pretty: bool = False):
    print(json.dumps(payload, separators=(",", ":")))
    if pretty:
        for key, value in payload.items():
            print(f"{key}: {value}", file=sys.stderr)


class _SourceError(Exception):
    """A source could not be read or parsed; the cause says why."""


def _load_source(src: str, fmt: str | None) -> tuple[Complex, str | None]:
    try:
        if src.startswith("fixtures:"):
            fx = fixture(src.split(":", 1)[1])
            if fx.complex is None:
                raise SxError(f"fixture {fx.name} is a certificate, not a complex")
            return fx.complex, fx.name
        if src == "-":
            return sxio.load(sys.stdin, fmt)
        return sxio.load_path(src, fmt)
    except (SxError, ValueError, OSError) as exc:
        raise _SourceError(exc) from exc


def _budget(args) -> SearchBudget:
    return SearchBudget(
        max_nodes=args.budget_nodes,
        max_moves=args.budget_moves,
        seed=args.seed,
    )


def _finish_verdict(verdict: Verdict, args) -> int:
    payload = verdict.as_dict()
    payload["seed"] = args.seed
    _emit(payload, args.pretty)
    return verdict.exit_code


def _write_complex(c: Complex, args, name: str | None = None) -> int:
    if args.format == "fac":
        sys.stdout.write(sxio.dumps_fac(c, name))
    else:
        print(sxio.dumps_json(c, name))
    return 0


def nonnegative_int(text: str) -> int:
    """A budget, guard or move index; zero is allowed, a
    negative value is a usage error."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


# the options of the commands that load one source, beside --format and
# --pretty; each command takes only those it reads, and `certify` takes all
_OPTIONS = {
    "--field": dict(type=int, default=0, help="0 for rationals, else a prime"),
    "-k": dict(type=int, default=1, dest="k"),
    "--budget-nodes": dict(type=nonnegative_int, default=200_000),
    "--budget-moves": dict(type=nonnegative_int, default=10_000),
    "--seed": dict(type=int, default=0),
    "--guard-vertices": dict(type=nonnegative_int, default=16),
}


def _add_source(p: argparse.ArgumentParser, *options: str):
    p.add_argument("source", help="file path, '-' for stdin, or fixtures:NAME")
    p.add_argument("--format", choices=("fac", "json"), default=None)
    p.add_argument("--pretty", action="store_true")
    for name in options:
        p.add_argument(name, **_OPTIONS[name])


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="sx", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    _add_source(sub.add_parser("info"))
    _add_source(sub.add_parser("classify"))
    _add_source(sub.add_parser("homology"), "--field")

    p = sub.add_parser("flips")
    _add_source(p)
    p.add_argument("--lo", type=nonnegative_int, required=True)
    p.add_argument("--hi", type=int, required=True)

    p = sub.add_parser("certify")
    p.add_argument(
        "what",
        choices=(
            "stellated",
            "shelled",
            "one-stacked",
            "collapsible",
            "ears",
            "tight",
            "class-w",
            "class-k",
            "beta",
        ),
    )
    _add_source(p, *_OPTIONS)

    p = sub.add_parser("stacked")
    _add_source(p, "-k")
    p.add_argument("--candidate", default=None, help="candidate ball source for low dimensions")
    # nothing in `stacked` is random; its verdict echoes the seed 0
    p.set_defaults(seed=0)

    p = sub.add_parser("bar")
    _add_source(p, "-k")
    p.add_argument("--manifold", action="store_true")

    p = sub.add_parser("generate")
    p.add_argument("what", choices=("klee-novik", "klee-novik-bar", "cross-polytope", "standard-sphere", "standard-ball"))
    p.add_argument("params", nargs="+", type=int)
    p.add_argument("--format", choices=("fac", "json"), default=None)
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("aut")
    _add_source(p, "--guard-vertices")
    p.set_defaults(guard_vertices=64)

    p = sub.add_parser("iso")
    p.add_argument("source", help="first complex")
    p.add_argument("source2", help="second complex")
    p.add_argument("--format", choices=("fac", "json"), default=None)
    p.add_argument("--guard-vertices", type=nonnegative_int, default=64)
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("sum")
    p.add_argument("source")
    p.add_argument("source2")
    p.add_argument("--format", choices=("fac", "json"), default=None)
    p.add_argument("--facet1", default=None, help="whitespace-separated facet of the first complex")
    p.add_argument("--facet2", default=None)
    p.add_argument("--match", default=None, help="comma-separated a=b vertex pairs")
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("fixtures")
    p.add_argument("action", choices=("list", "export"))
    p.add_argument("name", nargs="?")
    p.add_argument("path", nargs="?")
    p.add_argument("--format", choices=("fac", "json"), default="fac")
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("verify-paper")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--criteria", default=None, help="comma-separated criterion ids, default all")
    p.add_argument("--pretty", action="store_true")
    return parser


def _cmd_info(args) -> int:
    c, name = _load_source(args.source, args.format)
    payload = {
        "name": name,
        "dimension": c.dimension,
        "vertices": len(c.vertices),
        "facets": len(c.facet_sets),
        "f_vector": list(c.f_vector()),
        "euler_characteristic": euler_characteristic(c),
        "pure": c.is_pure,
        "digest": c.digest,
    }
    _emit(payload, args.pretty)
    return 0


def _cmd_classify(args) -> int:
    c, _ = _load_source(args.source, args.format)
    _emit(c.classify().as_dict(), args.pretty)
    return 0


def _cmd_homology(args) -> int:
    c, _ = _load_source(args.source, args.format)
    b = betti(c, args.field)
    field = "Q" if args.field == 0 else args.field
    _emit({"field": field, "reduced_betti": list(b)}, args.pretty)
    return 0


def _cmd_flips(args) -> int:
    if args.lo > args.hi:
        _usage_error(f"--lo {args.lo} exceeds --hi {args.hi}")
    c, _ = _load_source(args.source, args.format)
    if args.hi > c.dimension:
        raise BadDimension(f"need 0 <= lo <= hi <= {c.dimension}, got lo={args.lo}, hi={args.hi}")
    moves = bistellar_options(c, args.lo, args.hi)
    payload = {
        "lo": args.lo,
        "hi": args.hi,
        "count": len(moves),
        "moves": [dict(m.as_dict(), index=m.index) for m in moves],
    }
    _emit(payload, args.pretty)
    return 0


def _cmd_certify(args) -> int:
    c, _ = _load_source(args.source, args.format)
    budget = _budget(args)
    if args.what == "stellated":
        return _finish_verdict(certify_k_stellated(c, args.k, budget), args)
    if args.what == "shelled":
        return _finish_verdict(certify_k_shelled(c, args.k, budget), args)
    if args.what == "one-stacked":
        return _finish_verdict(is_one_stacked_ball(c), args)
    if args.what == "collapsible":
        return _finish_verdict(collapse(c, budget), args)
    if args.what == "ears":
        ears = ear_scan(c, budget=budget)
        _emit({"ears": [list(e) for e in ears], "count": len(ears)}, args.pretty)
        return 0
    if args.what == "tight":
        return _finish_verdict(
            is_tight_exhaustive(c, args.field, guard=args.guard_vertices), args
        )
    if args.what in ("class-w", "class-k"):
        cls = "W" if args.what == "class-w" else "K"
        return _finish_verdict(is_in_class(c, args.k, cls, budget), args)
    if args.what == "beta":
        return _finish_verdict(tightness_beta_condition(c, args.k, args.field), args)
    raise AssertionError(args.what)


def _cmd_stacked(args) -> int:
    c, _ = _load_source(args.source, args.format)
    if not c.classify().closed:
        if args.candidate:
            _usage_error("--candidate is read only for a closed input")
        return _finish_verdict(is_k_stacked_ball(c, args.k), args)
    candidate = _load_source(args.candidate, args.format)[0] if args.candidate else None
    return _finish_verdict(certify_k_stacked_sphere(c, args.k, candidate), args)


def _cmd_bar(args) -> int:
    c, name = _load_source(args.source, args.format)
    out = stacked_manifold_closure(c, args.k) if args.manifold else stacked_ball_closure(c, args.k)
    return _write_complex(out, args, name and f"{name}-bar")


def _cmd_generate(args) -> int:
    what, params = args.what, args.params
    if what in ("klee-novik", "klee-novik-bar"):
        if len(params) != 2:
            _usage_error(f"generate {what} takes two parameters, k and d")
        k, d = params
        c = klee_novik(k, d) if what == "klee-novik" else klee_novik_bar(k, d)
        name = f"{what}-{k}-{d}"
    else:
        if len(params) != 1:
            _usage_error(f"generate {what} takes one parameter, d")
        (d,) = params
        if what == "cross-polytope":
            c = standard_sphere(0, ("x1", "y1"))
            for i in range(2, d + 2):
                c = c.join(standard_sphere(0, (f"x{i}", f"y{i}")))
        elif what == "standard-sphere":
            c = standard_sphere(d)
        else:
            c = standard_ball(d)
        name = f"{what}-{d}"
    return _write_complex(c, args, name)


def _cmd_aut(args) -> int:
    c, _ = _load_source(args.source, args.format)
    group = automorphism_group(c, guard=args.guard_vertices)
    payload = {
        "order": group.order,
        "generators": [
            " ".join("(" + " ".join(map(str, cyc)) + ")" for cyc in permutation_cycles(g)) or "()"
            for g in group.generators
        ],
        "orbits": [[str(v) for v in orbit] for orbit in group.vertex_orbits],
    }
    _emit(payload, args.pretty)
    return 0


def _cmd_iso(args) -> int:
    a, _ = _load_source(args.source, args.format)
    b, _ = _load_source(args.source2, args.format)
    bijection = is_isomorphic(a, b, guard=args.guard_vertices)
    if bijection is None:
        _emit({"isomorphic": False, "bijection": None}, args.pretty)
        return 1
    _emit(
        {"isomorphic": True, "bijection": {str(k): str(v) for k, v in sorted(bijection.items(), key=lambda kv: str(kv[0]))}},
        args.pretty,
    )
    return 0


def _parse_facet(text: str):
    return tuple(sxio.parse_label(tok) for tok in text.split())


def _cmd_sum(args) -> int:
    a, _ = _load_source(args.source, args.format)
    b, _ = _load_source(args.source2, args.format)
    fa = _parse_facet(args.facet1) if args.facet1 else a.facets[-1]
    fb = _parse_facet(args.facet2) if args.facet2 else b.facets[-1]
    if args.match:
        matching = {}
        for pair in args.match.split(","):
            left, right = pair.split("=")
            matching[sxio.parse_label(left.strip())] = sxio.parse_label(right.strip())
    else:
        matching = canonical_matching(a, fa, b, fb)
    return _write_complex(connected_sum(a, b, fa, fb, matching), args)


def _cmd_fixtures(args) -> int:
    if args.action == "list":
        rows = []
        for name in fixture_names():
            fx = fixture(name)
            kind = "certificate" if fx.complex is None else "complex"
            rows.append({"name": name, "kind": kind, "provenance": fx.provenance})
        _emit({"fixtures": rows}, args.pretty)
        return 0
    if not args.name:
        _usage_error("fixtures export needs a fixture name")
    fx = fixture(args.name)
    if fx.complex is None:
        text = fx.certificate.to_json() + "\n"
    elif args.format == "json":
        text = sxio.dumps_json(fx.complex, fx.name) + "\n"
    else:
        text = sxio.dumps_fac(fx.complex, fx.name)
    if args.path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(args.path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def _cmd_verify_paper(args) -> int:
    from .verify import CRITERIA, run_criterion

    wanted = args.criteria.split(",") if args.criteria else list(CRITERIA)
    table = []
    all_ok = True
    for cid in wanted:
        if cid not in CRITERIA:
            _usage_error(f"unknown criterion {cid!r}; choose from {', '.join(CRITERIA)}")
        title = CRITERIA[cid][0]
        checks = run_criterion(cid, args.seed)
        ok = all(c.ok for c in checks)
        all_ok = all_ok and ok
        table.append(
            {
                "criterion": cid,
                "title": title,
                "passed": ok,
                "checks": [
                    {"name": c.name, "passed": c.ok, "detail": c.detail} for c in checks
                ],
            }
        )
        if args.pretty:
            mark = "PASS" if ok else "FAIL"
            print(f"[{mark}] criterion {cid}: {title}", file=sys.stderr)
            for c in checks:
                sub = "pass" if c.ok else "FAIL"
                detail = f" ({c.detail})" if c.detail else ""
                print(f"    {sub}: {c.name}{detail}", file=sys.stderr)
    print(json.dumps({"seed": args.seed, "criteria": table}, separators=(",", ":")))
    return 0 if all_ok else 1


_COMMANDS = {
    "info": _cmd_info,
    "classify": _cmd_classify,
    "homology": _cmd_homology,
    "flips": _cmd_flips,
    "certify": _cmd_certify,
    "stacked": _cmd_stacked,
    "bar": _cmd_bar,
    "generate": _cmd_generate,
    "aut": _cmd_aut,
    "iso": _cmd_iso,
    "sum": _cmd_sum,
    "fixtures": _cmd_fixtures,
    "verify-paper": _cmd_verify_paper,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SystemExit:
        raise
    # a fixture name that does not exist is an unreadable source wherever
    # it is named, `fixtures export` included
    except (_SourceError, UnknownFixture) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    # _load_source wraps every read error, so a bare OSError is a write
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CANT_CREATE
    except (SxError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
