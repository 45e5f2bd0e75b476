"""Layer tracing of the ``sx`` package, installed from outside it.

Every traced function is wrapped in each ``sx.*`` module namespace that
binds it, because ``certify``, ``verify``, ``growth`` and ``cli`` import
functions by name; ``Complex`` methods are wrapped on the class.  Nothing
in ``src/`` is edited and the wrappers are removed again by ``uninstall``.

Spans are kept in memory as a call-path tree: one node per distinct path
of traced calls (``cli.main > certify.certify_k_shelled > ...``), holding
its call count, inclusive time and the time covered by its children, so
self time is ``total - child``.  Millions of ``has_face`` calls then cost
one node instead of one record each.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# layer -> traced function names; "Complex.x" names are methods on the class
TRACED = {
    "complexes": (
        "Complex.__init__",
        "Complex.has_face",
        "Complex.link",
        "Complex.faces",
        "Complex.classify",
        "Complex.boundary",
    ),
    "moves": ("shelling_options", "bistellar_options", "apply_shelling", "apply_bistellar", "replay"),
    "homology": ("betti", "screen_homology_sphere", "screen_homology_ball"),
    "certify": (
        "certify_k_shelled",
        "certify_k_stellated",
        "certify_k_stacked_sphere",
        "is_k_stacked_ball",
        "is_one_stacked_ball",
        "collapse",
        "ear_scan",
        "is_in_class",
        "is_tight_exhaustive",
    ),
    "symmetry": ("automorphism_group", "is_isomorphic"),
    "constructions": ("clique_closure", "klee_novik_bar", "vertex_ball", "connected_sum"),
    "growth": ("grow_shelled_ball", "grow_stellated_sphere"),
    "io": ("load_path",),
    "cli": ("main",),
    "corpus": ("fixture",),
    "verify": tuple(f"criterion_{i}" for i in range(1, 11)),
}


def span_name(layer: str, func: str) -> str:
    """``complexes.Complex`` for construction, ``complexes.has_face`` for a
    method, ``moves.replay`` for a function."""
    return f"{layer}.{func.replace('Complex.__init__', 'Complex').replace('Complex.', '')}"


class Node:
    """All calls of one span name under one parent path."""

    __slots__ = ("name", "parent", "children", "calls", "total", "child")

    def __init__(self, name: str, parent: "Node | None"):
        self.name = name
        self.parent = parent
        self.children: dict[str, Node] = {}
        self.calls = 0
        self.total = 0.0
        self.child = 0.0

    @property
    def self_s(self) -> float:
        return self.total - self.child

    def walk(self):
        yield self
        for c in self.children.values():
            yield from c.walk()


class Tracer:
    """Collects the call-path tree and the work counters of one traced pass."""

    def __init__(self):
        self.root = Node("pass", None)
        self._stack = [self.root]
        self.counters: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def count(self, key: str, n: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, fn, name: str, namer=None, counter=None):
        """A wrapper recording one span per call of fn under ``name``.

        ``namer(args, kwargs)`` may refine the name per call and
        ``counter(tracer, result)`` adds work counts read from the result.
        """
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            key = namer(args, kwargs) if namer else name
            node = parent.children.get(key)
            if node is None:
                node = parent.children[key] = Node(key, parent)
            stack.append(node)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                node.calls += 1
                node.total += dt
                parent.child += dt
            if counter is not None:
                counter(self, result)
            return result

        return functools.wraps(fn)(traced)

    # -- installing ------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced function in every ``sx`` namespace binding it."""
        homes = {layer: importlib.import_module(f"sx.{layer}") for layer in TRACED}
        modules = [m for n, m in sorted(sys.modules.items()) if n == "sx" or n.startswith("sx.")]
        for layer, funcs in TRACED.items():
            home = homes[layer]
            for func in funcs:
                name = span_name(layer, func)
                if func.startswith("Complex."):
                    attr = func.split(".", 1)[1]
                    cls = homes["complexes"].Complex
                    self._set(cls, attr, self.wrap(cls.__dict__[attr], name))
                    continue
                original = getattr(home, func)
                wrapper = self.wrap(original, name, _NAMERS.get(name), _COUNTERS.get(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, attr, wrapper)
                if layer == "verify":
                    # the CLI dispatches through the CRITERIA table, which holds
                    # the functions themselves
                    table = home.CRITERIA
                    for cid, (title, fn) in list(table.items()):
                        if fn is original:
                            self._patches.append((table, cid, (title, fn)))
                            table[cid] = (title, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._patches.clear()

    # -- reading ---------------------------------------------------------------

    def by_name(self) -> dict[str, dict]:
        """Calls and self time summed over every path of each span name."""
        out: dict[str, dict] = {}
        for node in self.root.walk():
            if node is self.root:
                continue
            agg = out.setdefault(node.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            agg["calls"] += node.calls
            agg["self_s"] += node.self_s
            # inclusive time counts a name once, at its outermost call
            if not _has_ancestor(node, node.name):
                agg["total_s"] += node.total
        return out

    def spans(self) -> list[dict]:
        """The call-path tree as a flat list, parents before children."""
        ids = {}
        rows = []
        for node in self.root.walk():
            ids[id(node)] = len(rows)
            rows.append(
                {
                    "id": len(rows),
                    "parent": ids[id(node.parent)] if node.parent is not None else None,
                    "name": node.name,
                    "calls": node.calls,
                    "total_s": node.total,
                    "self_s": node.self_s,
                }
            )
        return rows


def _has_ancestor(node: Node, name: str) -> bool:
    p = node.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


def _betti_field(args, kwargs) -> str:
    field = args[1] if len(args) > 1 else kwargs.get("field", 0)
    return "homology.betti.q" if field == 0 else "homology.betti.fp"


def _count_options(tracer: Tracer, result) -> None:
    tracer.count("moves.options", len(result))


def _count_search(tracer: Tracer, verdict) -> None:
    spent = verdict.budget_spent
    tracer.count("certify.nodes", spent.get("nodes", 0))
    tracer.count("certify.moves_tried", spent.get("moves_tried", 0))
    tracer.count("certify.searches", 1)
    tracer.count("certify.unknown", int(verdict.status == "UNKNOWN"))


def _count_group(tracer: Tracer, group) -> None:
    tracer.count("symmetry.elements", group.order)


def _count_checks(tracer: Tracer, checks) -> None:
    tracer.count("verify.checks", len(checks))
    tracer.count("verify.checks_failed", sum(not c.ok for c in checks))


_NAMERS = {"homology.betti": _betti_field}
_COUNTERS = {
    "moves.shelling_options": _count_options,
    "moves.bistellar_options": _count_options,
    "certify.certify_k_shelled": _count_search,
    "certify.certify_k_stellated": _count_search,
    "symmetry.automorphism_group": _count_group,
    **{f"verify.criterion_{i}": _count_checks for i in range(1, 11)},
}


# Self time is reported only for layers and functions that every workload
# calls, so that no time metric is zero by construction; the spans file of
# a traced run has the self time of every span.
TIMED_LAYERS = ("complexes", "moves", "homology", "certify")
TIMED_SPANS = (
    "complexes.Complex",
    "complexes.has_face",
    "complexes.link",
    "complexes.faces",
    "complexes.classify",
    "moves.bistellar_options",
    "moves.apply_bistellar",
    "moves.replay",
    "homology.betti.q",
    "homology.betti.fp",
    "certify.certify_k_shelled",
    "certify.certify_k_stellated",
)


def layer_metrics(tracer: Tracer, traced_wall: float, plain_wall: float) -> dict:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    by = tracer.by_name()

    def agg(name: str, stat: str):
        return by.get(name, {}).get(stat, 0)

    out: dict = {}
    for layer, funcs in TRACED.items():
        names = [span_name(layer, f) for f in funcs]
        if layer == "homology":
            names[0:1] = ["homology.betti.q", "homology.betti.fp"]
        if layer == "verify":
            names = []
        for name in names:
            out[f"{name}.calls"] = (agg(name, "calls"), "count")
        if layer in TIMED_LAYERS:
            out[f"{layer}.self_s"] = (sum(agg(n, "self_s") for n in names), "s")
    for name in TIMED_SPANS:
        out[f"{name}.self_s"] = (agg(name, "self_s"), "s")
    c = tracer.counters.get
    for key in ("moves.options", "certify.nodes", "certify.moves_tried", "certify.searches",
                "certify.unknown", "symmetry.elements", "verify.checks", "verify.checks_failed"):
        out[key] = (c(key, 0), "count")
    applies = agg("moves.apply_shelling", "calls") + agg("moves.apply_bistellar", "calls")
    out["moves.options_per_apply"] = (c("moves.options", 0) / max(applies, 1), "ratio")
    shelled = agg("certify.certify_k_shelled", "total_s")
    out["certify.nodes_per_s"] = (c("certify.nodes", 0) / shelled if shelled else 0.0, "1/s")
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    return out
