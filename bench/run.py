"""Benchmark of the sx reproduction: ``paper``, ``corpus`` and ``ladder``.

    python3 bench/run.py --workload corpus --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; ``sx`` is imported from ``src/``
and nothing is installed.  With ``--trace 0`` the workload runs in a
closed loop (one operation after another, one thread) until ``--seconds``
of timed work are done, at least one full pass, and the end-to-end
metrics are printed.  With ``--trace 1`` one untraced pass and one traced
pass run, their user-visible outputs must agree, and the per-layer
metrics are printed.  Every result is checked against hand-written
answers.  The last line of stdout is one JSON object; progress and the
run's environment go to stderr, and scratch files go to
``.bench_build/sx-bench/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 9


# -- set-up ---------------------------------------------------------------------


def fresh_setup(workload: str, seed: int, workdir: str):
    """Import sx and the workloads from scratch, load and self-validate every
    corpus fixture, and build the workload's operations and input files."""
    for name in list(sys.modules):
        if name in ("sx", "workloads") or name.startswith("sx."):
            del sys.modules[name]
    workloads = importlib.import_module("workloads")
    corpus = sys.modules["sx.corpus"]
    for name in corpus.fixture_names():
        corpus.fixture(name)
    return workloads.WORKLOADS[workload](seed, workdir)


def setup(workload: str, seed: int, workdir: str):
    """Set up ``SETUP_REPEATS`` times; the operations and the median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = fresh_setup(workload, seed, workdir)
        times.append(time.perf_counter() - t0)
    return ops, statistics.median(times)


# -- passes -----------------------------------------------------------------------


class Pass:
    """One run of every operation, with per-operation wall times."""

    def __init__(self, ops):
        self.ops = ops
        self.results = []
        self.times = []
        for op in ops:
            start = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # an uncaught exception is a failed operation
                traceback.print_exc(file=sys.stderr)
                result = exc
            self.times.append(time.perf_counter() - start)
            self.results.append(result)
        self.wall = sum(self.times)

    def check(self) -> tuple[int, int]:
        """(attempted, failed) over every known-answer check of the pass."""
        attempted = failed = 0
        for op, result in zip(self.ops, self.results):
            if isinstance(result, Exception):
                rows = [(f"{op.name}: raised", False, repr(result))]
            else:
                try:
                    rows = op.check(result)
                except Exception as exc:  # a malformed output fails its check
                    rows = [(f"{op.name}: output readable", False, repr(exc))]
            for name, ok, detail in rows:
                attempted += 1
                if not ok:
                    failed += 1
                    print(f"bench: FAILED {name} ({detail})", file=sys.stderr)
        return attempted, failed

    def fingerprints(self) -> list[str]:
        return [
            repr(r) if isinstance(r, Exception) else op.fingerprint(r)
            for op, r in zip(self.ops, self.results)
        ]


def measure(ops, seconds: float):
    """Closed loop: whole passes until ``seconds`` of timed work are done."""
    passes = []
    attempted = failed = 0
    while not passes or sum(p.wall for p in passes) < seconds:
        p = Pass(ops)
        passes.append(p)
        a, f = p.check()
        attempted += a
        failed += f
        print(f"bench: pass {len(passes)} {p.wall:.3f}s", file=sys.stderr)
        p.results = None  # keep only the times
    # each operation's median over the passes, so that a slow spell of the
    # machine during one pass moves only the operations it overlapped
    times = {op.name: [p.times[i] for p in passes] for i, op in enumerate(ops)}
    wall_s = sum(statistics.median(t) for t in times.values())
    return {"wall_s": (wall_s, "s")}, times, attempted, failed


def trace(ops, workload: str, seed: int, workdir: str, digest: str):
    """One untraced and one traced pass; per-layer metrics from the latter."""
    import tracer as tracing

    plain = Pass(ops)
    t = tracing.Tracer()
    t.install()
    try:
        traced = Pass(ops)
    finally:
        t.uninstall()
    attempted = failed = 0
    for p in (plain, traced):
        a, f = p.check()
        attempted += a
        failed += f
    # self-test: tracing must not change any output the user sees
    for op, a, b in zip(ops, plain.fingerprints(), traced.fingerprints()):
        attempted += 1
        if a != b:
            failed += 1
            print(f"bench: FAILED {op.name}: output differs with tracing on", file=sys.stderr)
    metrics = tracing.layer_metrics(t, traced.wall, plain.wall)
    failed += check_counts_repeat(metrics, f"{workload}-{seed}-{digest[:16]}", workdir)
    attempted += 1
    with open(os.path.join(workdir, "spans.json"), "w", encoding="utf-8") as fh:
        json.dump({"ops": [[op.name, dt] for op, dt in zip(ops, traced.times)], "spans": t.spans()}, fh)
    return metrics, attempted, failed


def check_counts_repeat(metrics: dict, key: str, workdir: str) -> int:
    """Work counts must be identical across runs of the same code and seed;
    compare with the counts an earlier traced run left, if any."""
    counts = {k: v for k, (v, unit) in metrics.items() if unit == "count"}
    path = os.path.join(os.path.dirname(workdir), f"counts-{key}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            before = json.load(fh)
        diff = sorted(k for k in set(before) | set(counts) if before.get(k) != counts.get(k))
        if diff:
            print(f"bench: FAILED work counts differ from an earlier run: {diff}", file=sys.stderr)
            return 1
        return 0
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(counts, fh, sort_keys=True)
    return 0


# -- environment --------------------------------------------------------------------


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "sx")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".fac")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


# -- main ------------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("paper", "corpus", "ladder"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sx", "__init__.py")):
        print(f"bench: no sx sources under {SRC}; run from the root of an sx checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(ROOT, ".bench_build", "sx-bench", f"{args.workload}-{args.seed}")
    os.makedirs(workdir, exist_ok=True)
    env = environment()

    ops, setup_s = setup(args.workload, args.seed, workdir)
    op_times = None
    if args.trace:
        metrics, attempted, failed = trace(ops, args.workload, args.seed, workdir, env["source_sha256"])
    else:
        metrics, op_times, attempted, failed = measure(ops, args.seconds)
        metrics["setup_s"] = (setup_s, "s")
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (peak_kib / 1024, "MB")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(vars(args), env=env, op_times=op_times, result=result)
    print(f"bench: {json.dumps(record['env'])}", file=sys.stderr)
    with open(os.path.join(os.path.dirname(workdir), "results.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
