"""The cli-cold workload: one fresh `centdim` process per request.

Requests run one at a time (a closed loop with one client). Untraced passes
start `python -m centdim.cli`; traced passes start cli_entry.py, which
installs the same boundary wrappers as the tower-walk worker inside the
child and writes its counters to a file. Outputs are checked after the pass,
against the character oracle and the Bell-number algebra dimension, which
share no code with the block formulas.
"""

import csv
import io
import json
import os
import re
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def run_pass(reqs, env, cwd, trace_dir=None):
    """Run every request once. Returns the pass record and the raw outputs."""
    latencies, errors, outputs, traced = [], [], [], []
    stdout_bytes = 0
    for i, (kind, argv, _) in enumerate(reqs):
        if trace_dir is None:
            cmd = [sys.executable, "-m", "centdim.cli", *argv]
            child_env = env
        else:
            trace_file = os.path.join(trace_dir, f"child-{os.getpid()}-{i}.json")
            cmd = [sys.executable, os.path.join(HERE, "cli_entry.py"), *argv]
            child_env = dict(env, PERFBENCH_TRACE_FILE=trace_file)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=child_env, cwd=cwd, capture_output=True, text=True, timeout=workloads.CAP_S)
        except subprocess.TimeoutExpired:
            latencies.append(time.perf_counter() - t0)
            errors.append([i, f"{kind}: hit the {workloads.CAP_S} s per-request cap"])
            outputs.append(None)
            continue
        latencies.append(time.perf_counter() - t0)
        outputs.append((proc.returncode, proc.stdout, proc.stderr))
        stdout_bytes += len(proc.stdout.encode())
        if trace_dir is not None and os.path.exists(trace_file):
            with open(trace_file) as f:
                traced.append((i, json.load(f)))
            os.remove(trace_file)
    record = {"latencies": latencies, "errors": errors, "wrong": [], "stdout_bytes": stdout_bytes}
    if trace_dir is not None:
        traces = [t for _, t in traced]
        record["trace"] = tracing.merge(traces)
        record["import_s"] = statistics.median(t["import_s"] for t in traces) if traces else 0.0
        record["spans"] = [{"request": i, "kind": reqs[i][0], **t} for i, t in traced]
    return record, outputs


# --- checks ---------------------------------------------------------------------


def _ctx(group, n, module, level):
    from centdim.dims import GroupModuleContext

    return GroupModuleContext(group, int(n), module, Fraction(level))


def _label(group, text):
    from centdim.branch import parse_alt_label
    from centdim.young import parse_partition

    return parse_partition(text) if group == "S" else parse_alt_label(text)


def _oracle(ctx, text):
    from centdim.oracle import multiplicity_oracle

    return multiplicity_oracle(ctx, _label(ctx.group, text))


def _algebra(ctx):
    from centdim.dims import dim_z_algebra

    return dim_z_algebra(ctx)


def _all_labels(ctx):
    m = ctx.label_size
    return workloads.sym_labels(m) if ctx.group == "S" else workloads.alt_labels(m)


def _flags(argv):
    return {argv[j][2:]: argv[j + 1] for j in range(1, len(argv) - 1, 2) if argv[j].startswith("--")}


def _parse_blocks(fmt, out):
    if fmt == "json":
        return [(b["label"], int(b["multiplicity"])) for b in json.loads(out)["blocks"]]
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        return [(lab, int(d)) for lab, d in rows[1:]]
    return [(cell.rsplit(":", 1)[0], int(cell.rsplit(":", 1)[1])) for cell in out.strip().split("  ")]


_CELL = re.compile(r"\[([^\]]*)\]:(\d+)")
_DOT_NODE = re.compile(r'^\s+"(\d+):[^"]*" \[label="\[([^\]]*)\]:(\d+)"\];$')


def _parse_rows(fmt, out):
    if fmt == "json":
        return [[(v["label"], int(v["count"])) for v in lv["vertices"]] for lv in json.loads(out)["levels"]]
    if fmt == "text":
        return [[(lab, int(c)) for lab, c in _CELL.findall(line)] for line in out.splitlines()]
    rows = []
    for line in out.splitlines():
        m = _DOT_NODE.match(line)
        if m:
            i = int(m.group(1))
            while len(rows) <= i:
                rows.append([])
            rows[i].append((m.group(2), int(m.group(3))))
    return rows


def _against_oracle(ctx, got):
    """Compare {label: multiplicity} for one level with the oracle; labels
    missing from got must have multiplicity 0."""
    for text in _all_labels(ctx):
        want = _oracle(ctx, text)
        if got.get(text, 0) != want:
            return f"{text} at level {ctx.level}: got {got.get(text, 0)}, oracle {want}"
    return None


def _is_walk(path, n):
    if not path or path[0] != (n,) or len(path) % 2 == 0:
        return False
    for i in range(1, len(path)):
        big, small = (path[i - 1], path[i]) if i % 2 else (path[i], path[i - 1])
        small = small + (0,) * (len(big) - len(small))
        if len(small) != len(big) or sum(big) - sum(small) != 1:
            return False
        if any(a < b for a, b in zip(big, small)) or any(
            big[j] < big[j + 1] for j in range(len(big) - 1)
        ):
            return False
    return True


def _is_pair(blocks, rows, n, k):
    members = sorted(x for b in blocks for x in b)
    entries = sorted(x for r in rows for x in r)
    semistandard = all(r[j] <= r[j + 1] for r in rows for j in range(len(r) - 1)) and all(
        rows[i][j] < rows[i + 1][j] for i in range(len(rows) - 1) for j in range(len(rows[i + 1]))
    )
    expected = sorted([0] * (n - len(blocks)) + [max(b) for b in blocks])
    return members == list(range(1, k + 1)) and semistandard and entries == expected


def _problem(kind, argv, out, err):
    """Why a completed request's output is wrong, or None."""
    from centdim import bijection

    if kind == "malformed":
        lines = err.splitlines()
        if out or len(lines) != 1 or not lines[0].startswith("error:"):
            return f"expected one 'error:' line on stderr, got {lines!r}"
        return None
    if kind == "verify":
        last = out.strip().splitlines()[-1] if out.strip() else ""
        return None if last.endswith(" 0 failures") else f"verify reported {last!r}"
    flags = _flags(argv)
    if kind in ("dim", "deep"):
        ctx = _ctx(flags["group"], flags["n"], flags["module"], flags["k"])
        got = int(out)
        if got < 0:
            return f"negative dimension {got}"
        if ctx.n <= 8:
            want = _oracle(ctx, flags["lambda"])
            return None if got == want else f"dim {got}, oracle {want}"
        return None
    if kind == "decompose":
        ctx = _ctx(flags["group"], flags["n"], flags["module"], flags["k"])
        blocks = _parse_blocks(flags["format"], out)
        square = sum(d * d for _, d in blocks)
        if square != _algebra(ctx):
            return f"square sum {square} != algebra dimension {_algebra(ctx)}"
        return _against_oracle(ctx, dict(blocks)) if ctx.n <= 8 else None
    if kind == "bratteli":
        group, n = flags["pair"].split(":")
        rows = _parse_rows(flags["format"], out)
        if len(rows) != 2 * Fraction(flags["levels"]) + 1:
            return f"{len(rows)} rows for top level {flags['levels']}"
        for i, row in enumerate(rows):
            ctx = _ctx(group, n, flags["module"], Fraction(i, 2))
            if sum(c * c for _, c in row) != _algebra(ctx):
                return f"row {i}: square sum differs from the algebra dimension"
        return _against_oracle(ctx, dict(rows[-1])) if int(n) <= 8 else None
    doc = json.loads(flags["input"])
    n = int(flags["n"])
    res = json.loads(out)
    if kind == "to-pair":
        path = tuple(tuple(s) for s in doc["path"])
        blocks = tuple(tuple(b) for b in res["setPartition"])
        rows = tuple(tuple(r) for r in res["tableau"])
        if not _is_pair(blocks, rows, n, (len(path) - 1) // 2):
            return "output is not a (set partition, tableau) pair"
        if tuple(len(r) for r in rows) != path[-1]:
            return "tableau shape differs from the walk's last shape"
        return None if bijection.pair_to_path(blocks, rows, n) == path else "round trip changed the walk"
    blocks = tuple(tuple(b) for b in doc["setPartition"])
    rows = tuple(tuple(r) for r in doc["tableau"])
    path = tuple(tuple(s) for s in res["path"])
    if not _is_walk(path, n) or len(path) != 2 * len({x for b in blocks for x in b}) + 1:
        return "output is not a walk of the right length"
    if path[-1] != tuple(len(r) for r in rows):
        return "walk ends away from the tableau shape"
    return None if bijection.path_to_pair(path, n) == (blocks, rows) else "round trip changed the pair"


def check(reqs, outputs, record):
    """Sort each completed request into ok, error (crash) or wrong."""
    for i, ((kind, argv, expect), result) in enumerate(zip(reqs, outputs)):
        if result is None:
            continue
        code, out, err = result
        if "Traceback (most recent call last)" in err:
            record["errors"].append([i, f"{kind}: exit {code}, {err.strip().splitlines()[-1]}"])
            continue
        if code != expect:
            record["wrong"].append([i, f"{kind}: exit {code}, expected {expect}: {err.strip()[:200]}"])
            continue
        try:
            problem = _problem(kind, argv, out, err)
        except Exception as exc:  # unparseable output is a wrong output
            problem = f"output check raised {type(exc).__name__}: {exc}"
        if problem:
            record["wrong"].append([i, f"{kind}: {problem}"])
