"""One pass of the tower-walk workload, in a fresh interpreter.

    python3 perfbench/worker.py --seed 1 [--trace] [--limit N]

run.py starts one worker per pass with PYTHONPATH pointing at the checkout's
src/, so every pass starts with cold functools caches and the caches warm
across the requests of the pass, as they do when someone tabulates. Each request
is timed alone; checks that call back into centdim run after the last
request, so they neither count as request time nor warm a cache the requests
use. Prints one JSON object on stdout.
"""

import sys
import time

# Timed before this file imports anything that centdim.cli would import too.
_t0 = time.perf_counter()
import centdim.cli  # noqa: E402,F401
IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
from fractions import Fraction  # noqa: E402

from centdim import bijection, bratteli, dims  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import CAP_S  # noqa: E402


class RequestCap(Exception):
    """A request ran past the per-request cap."""


def _alarm(signum, frame):
    raise RequestCap()


def _square_sums(diagram):
    return [sum(c * c for _, c in row) for row in diagram.rows]


def _export_problem(diagram, fmt, text):
    """Why an export does not match the diagram it renders, or None."""
    rows = diagram.rows
    if fmt == "json":
        doc = json.loads(text)
        got = [[int(v["count"]) for v in lv["vertices"]] for lv in doc["levels"]]
        if got != [[c for _, c in row] for row in rows]:
            return "json export counts differ from the diagram"
    elif fmt == "text":
        lines = text.splitlines()
        totals = [int(line.rsplit("|", 1)[1]) for line in lines]
        if totals != _square_sums(diagram):
            return "text export square sums differ from the diagram"
    else:
        edges = sum(1 for line in text.splitlines() if "->" in line)
        nodes = sum(1 for line in text.splitlines() if line.startswith('    "'))
        if edges != sum(len(e) for e in diagram.edges) or nodes != sum(len(r) for r in rows):
            return "dot export node or edge count differs from the diagram"
    return None


def _check(req, out):
    """Problems found in one request's output, and for a build the tower
    contexts, square sums and last row to check against dims after the pass."""
    if req[0] == "build":
        _, group, module, n, _, fmt = req
        diagram, text = out
        problem = _export_problem(diagram, fmt, text)
        ctxs = [dims.GroupModuleContext(group, n, module, lv) for lv in diagram.levels()]
        last = {lab: c for lab, c in diagram.rows[-1] if c}
        return [problem] if problem else [], (ctxs, _square_sums(diagram), last)
    _, n, level, lam, expected = req
    diagram, paths, back = out
    problems = []
    if not len(paths) == diagram.vertex_count(level, lam) == expected:
        problems.append(f"walk to {lam}: {len(paths)} paths, subscript "
                        f"{diagram.vertex_count(level, lam)}, expected {expected}")
    if back != paths:
        problems.append(f"walk to {lam}: round trip changed a path")
    return problems, None


def run_pass(seed, trace, limit=None):
    reqs = workloads.requests("tower-walk", seed)[:limit]
    tracer = None
    build, export = bratteli.build_diagram, bratteli.export
    enumerate_paths = bratteli.enumerate_paths
    to_pair, to_path = bijection.path_to_pair, bijection.pair_to_path
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        build = tracer.wrap(build, "bratteli.build_diagram")
        export = tracer.wrap(export, "bratteli.export")
        enumerate_paths = tracer.wrap(enumerate_paths, "bratteli.enumerate_paths")
        to_pair = tracer.wrap(to_pair, "bijection.path_to_pair")
        to_path = tracer.wrap(to_path, "bijection.pair_to_path")

    def serve(req):
        if req[0] == "build":
            _, group, module, n, top, fmt = req
            diagram = build(group, n, module, Fraction(top))
            return diagram, export(diagram, fmt)
        _, n, level, lam, _ = req
        diagram = build("S", n, "perm", Fraction(level))
        paths = enumerate_paths(diagram, level, lam)
        return diagram, paths, [to_path(*to_pair(p, n), n) for p in paths]

    latencies, errors, wrong, spans = [], [], [], []
    deferred = []  # (request index, tower contexts, square sums, last row) checked after the pass
    signal.signal(signal.SIGALRM, _alarm)
    for i, req in enumerate(reqs):
        kind = req[0]
        out = None
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, CAP_S)
            try:
                out = serve(req)
            finally:
                # cleared before any check runs; an alarm that fires first
                # still lands in the RequestCap clause below
                signal.setitimer(signal.ITIMER_REAL, 0)
        except RequestCap:
            errors.append([i, f"{kind}: hit the {CAP_S} s per-request cap"])
        except Exception as exc:  # a crash is a failed request, not a failed run
            errors.append([i, f"{kind}: {type(exc).__name__}: {exc}"])
        dt = time.perf_counter() - t0
        if out is not None:
            try:
                problems, later = _check(req, out)
            except Exception as exc:  # unreadable output is a wrong output
                problems, later = [f"check raised {type(exc).__name__}: {exc}"], None
            wrong += [[i, problem] for problem in problems]
            if later:
                deferred.append((i, *later))
        out = None  # so peak RSS is one request's, not two
        latencies.append(dt)
        if tracer:
            spans.append({"request": i, "kind": kind, "s": dt, **tracer.take()})
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    for i, ctxs, squares, last in deferred:
        try:
            got = [dims.dim_z_algebra(c) for c in ctxs]
            if got != squares:
                wrong.append([i, f"square sum {squares} != algebra dimension {got}"])
            if dict(dims.decompose(ctxs[-1])) != last:
                wrong.append([i, "last tower row differs from decompose"])
        except Exception as exc:
            wrong.append([i, f"check raised {type(exc).__name__}: {exc}"])

    return {
        "latencies": latencies,
        "errors": errors,
        "wrong": wrong,
        "rss_kb": rss_kb,
        "import_s": IMPORT_S,
        "trace": tracing.merge(spans) if tracer else None,
        "spans": spans,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--limit", type=int, help="run only the first N requests")
    args = parser.parse_args(argv)
    result = run_pass(args.seed, args.trace, args.limit)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
