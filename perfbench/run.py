"""The centdim benchmark.

    python3 perfbench/run.py --workload tower-walk --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --compare before.txt after.txt

Each workload is a closed loop with one client: one request at a time, the
next sent when the last has finished.

  tower-walk       bratteli.build_diagram + export, interleaved with walks:
                   every path to one vertex of a small S perm tower, sent
                   through bijection.path_to_pair and back. Stresses branch,
                   bratteli and bijection.
  cli-cold         one fresh `python -m centdim.cli` process per request,
                   all five subcommands at small sizes, a deep-level slice
                   and a malformed-argv slice. Stresses interpreter start,
                   import, argparse, oracle and verify.

A run times a fresh interpreter importing centdim.cli a few times before
every pass (setup_s is the median of all of them), and runs passes over the
seeded request list until --seconds is spent, at least one. Each tower-walk
pass runs in a new worker interpreter (worker.py), and each cli-cold request
in a new centdim process, so functools caches start cold in every pass.
wall_s sums each request's median latency over the passes, and the
percentiles are taken over the same medians; peak_rss_mb is the median over
passes. With --trace 1 the run alternates untraced and traced passes and prints the per-layer metrics
instead (tracing.py); it also writes the traced spans to
perfbench/out/trace-<workload>-seed<seed>.json.

Every output is checked (worker.py, clicold.py). A request fails when its
output is wrong, its exit code is wrong, it crashes with a traceback, or it
hits the per-request cap. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. correct is false when some
request failed, with one exception: a cli-cold deep-level request that dies
of a RecursionError is a known defect of centdim, counted as failed without
making the run incorrect. The line before it, starting with
"detail: ", holds every pass's values and their quartiles, the Python version,
the machine and a fixed host-speed probe (recorded, never used to rescale).
"""

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(SRC))  # the checks import centdim from this checkout

import clicold  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = [
    ("wall_s", "s"),
    ("req_p50_ms", "ms"),
    ("req_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]
SETUP_PROBES_FIRST = 3
SETUP_PROBES_PER_PASS = 2
WORKER_TIMEOUT_S = 120.0


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def host_probe():
    """Seconds for a fixed piece of stdlib work; the median of three."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        rng = random.Random(12345)
        data = sorted(rng.random() for _ in range(100_000))
        sum(i * i for i in range(200_000)) + len(data)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def host_info():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "host_probe_s": host_probe(),
    }


def setup_once(env):
    """Seconds from starting an interpreter to centdim.cli imported and ready."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", "import centdim.cli; print('ready', flush=True)"],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=WORKER_TIMEOUT_S)
    if line.strip() != "ready":
        raise RuntimeError("the set-up probe could not import centdim.cli")
    return elapsed


def tower_walk_pass(seed, traced, env, limit):
    cmd = [sys.executable, str(HERE / "worker.py"), "--seed", str(seed)] + (["--trace"] if traced else [])
    if limit:
        cmd += ["--limit", str(limit)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def one_pass(workload, seed, reqs, traced, env, trace_dir, limit):
    if workload == "tower-walk":
        return tower_walk_pass(seed, traced, env, limit)
    rec, outputs = clicold.run_pass(reqs, env, ROOT, trace_dir if traced else None)
    # the largest child so far: every request is a child that has been waited for
    rec["rss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    clicold.check(reqs, outputs, rec)
    return rec


def pass_metrics(rec):
    lat = rec["latencies"]
    return {
        "wall_s": sum(lat),
        "req_p50_ms": 1000 * statistics.median(lat),
        "req_p90_ms": 1000 * percentile90(lat),
        "peak_rss_mb": rec["rss_kb"] / 1024,
    }


def percentile90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def end_to_end(plain, setups):
    """The run's end-to-end metrics from its untraced passes.

    The host's speed drifts by tens of percent within seconds, so each
    request's latency is taken as its median over the passes (every pass
    runs the same list from the same cold start), and wall_s and the
    percentiles are taken over those medians. A slow spell then has to cover
    the same requests in most passes to move a metric. Every list holds at
    least 100 requests, so at least ten lie beyond the 90th percentile.
    """
    per_request = [statistics.median(lats) for lats in zip(*(r["latencies"] for r in plain))]
    return {
        "wall_s": sum(per_request),
        "req_p50_ms": 1000 * statistics.median(per_request),
        "req_p90_ms": 1000 * percentile90(per_request),
        "peak_rss_mb": statistics.median(r["rss_kb"] for r in plain) / 1024,
        "setup_s": statistics.median(setups),
    }


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, statistics.median(values), q3]


def layer_values(rec, plain_wall):
    m = tracing.layer_metrics(rec["trace"])
    m["cli.import_s"] = (rec["import_s"], "s")
    m["cli.stdout_bytes"] = (rec.get("stdout_bytes", 0), "bytes")
    m["trace.overhead_ratio"] = (sum(rec["latencies"]) / plain_wall, "ratio")
    return m


def self_time_split(traced):
    """Self seconds per pass by request kind and layer, from the spans."""
    split = {}
    for rec in traced:
        for span in rec["spans"]:
            layers = split.setdefault(span["kind"], {})
            for name, (_, _, self_s) in span["boundaries"].items():
                layer = name.split(".")[0]
                layers[layer] = layers.get(layer, 0.0) + self_s / len(traced)
    return split


def is_correct(workload, reqs, errors, wrong):
    """False on any wrong output, crash or capped request, except the known
    defect: cli-cold's deep-level requests that die of a RecursionError."""
    return not wrong and all(
        workload == "cli-cold" and reqs[i][0] == "deep" and "RecursionError" in reason
        for i, reason in errors
    )


def run(workload, seed, seconds, trace, limit=None):
    env = child_env()
    info = host_info()
    reqs = workloads.requests(workload, seed)[:limit] if workload == "cli-cold" else None
    trace_dir = None
    if trace:
        trace_dir = HERE / "out"
        trace_dir.mkdir(exist_ok=True)
    # set-up probes are spread over the run, a few before each pass
    setups = [setup_once(env) for _ in range(SETUP_PROBES_FIRST)]
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        setups += [setup_once(env) for _ in range(SETUP_PROBES_PER_PASS)]
        plain.append(one_pass(workload, seed, reqs, False, env, trace_dir, limit))
        if trace:
            traced.append(one_pass(workload, seed, reqs, True, env, trace_dir, limit))
        elapsed = time.perf_counter() - start
        if elapsed * (len(plain) + 1) / len(plain) > seconds:
            break

    rows = [pass_metrics(r) for r in plain]
    per_pass = {name: [row[name] for row in rows] for name in rows[0]}
    per_pass["setup_s"] = setups
    metrics = end_to_end(plain, setups)
    units = dict(END_TO_END)
    if trace:
        layers = [layer_values(r, metrics["wall_s"]) for r in traced]
        units = {name: unit for name, (_, unit) in layers[0].items()}
        per_pass = {name: [layer[name][0] for layer in layers] for name in units}
        metrics = {name: statistics.median(vals) for name, vals in per_pass.items()}
        with open(trace_dir / f"trace-{workload}-seed{seed}.json", "w") as f:
            json.dump({"workload": workload, "seed": seed,
                       "passes": [r["spans"] for r in traced]}, f)
        split = self_time_split(traced)

    runs = plain + traced
    attempted = sum(len(r["latencies"]) for r in runs)
    errors = [e for r in runs for e in r["errors"]]
    wrong = [w for r in runs for w in r["wrong"]]
    failed = len(errors) + len(wrong)
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "host": info, "passes": len(plain), "requests_per_pass": len(plain[0]["latencies"]),
        "metrics": metrics, "units": units, "per_pass": per_pass,
        "quartiles": {name: quartiles(v) for name, v in per_pass.items()},
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "errors": errors[:20], "wrong": wrong[:20],
    }
    _print_table(detail)
    if trace:
        print("self seconds per traced pass, by request kind and layer:")
        for kind, layers in split.items():
            ranked = sorted(layers.items(), key=lambda item: -item[1])
            print(f"  {kind:10} " + "  ".join(f"{layer} {s:.4f}" for layer, s in ranked))
    print("detail: " + json.dumps(detail))
    result = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    correct = is_correct(workload, reqs, errors, wrong)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


def _print_table(detail):
    host = detail["host"]
    print(f"centdim benchmark: workload {detail['workload']}, seed {detail['seed']}, "
          f"{detail['seconds']} s, trace {detail['trace']}")
    print(f"python {host['python']} on {host['machine']} ({host['cpus']} cpus), "
          f"host probe {host['host_probe_s']:.4f} s")
    print(f"{detail['passes']} passes of {detail['requests_per_pass']} requests, one client, "
          f"closed loop; {detail['attempted']} attempted, {detail['failed']} failed")
    print(f"{'metric':36} {'value':>14} {'pass q1':>14} {'pass q3':>14}  unit")
    for name, value in detail["metrics"].items():
        q1, _, q3 = detail["quartiles"][name]
        print(f"{name:36} {value:>14.6g} {q1:>14.6g} {q3:>14.6g}  {detail['units'][name]}")
    print(f"{'fail_ratio':36} {detail['fail_ratio']:>14.6g} {'':>14} {'':>14}  ratio")
    for i, reason in detail["errors"][:5] + detail["wrong"][:5]:
        print(f"  failed request {i}: {reason}")


# --- compare mode -------------------------------------------------------------------


def details(text):
    """The detail records in saved benchmark output."""
    return [json.loads(line[len("detail: "):]) for line in text.splitlines() if line.startswith("detail: ")]


def bounds():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}


def spread(values):
    """Interquartile distance as a share of the median; None below 4 values."""
    if len(values) < 4 or not statistics.median(values):
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def samples(records, workload, metric):
    """Each run's reported value of one metric."""
    return [r["metrics"][metric] for r in records if r["workload"] == workload and metric in r["metrics"]]


def compare(path_a, path_b):
    """Each metric's ratio B/A of the medians over the runs of each file.

    The files are saved outputs of series.py (one run per seed) or of run.py.
    A verdict needs a spread on both sides, so a workload with fewer than four
    runs in a file is marked unresolved.
    """
    a, b = (details(Path(p).read_text()) for p in (path_a, path_b))

    def settings(records):
        return sorted((r["workload"], r["seed"], r["seconds"], r["trace"]) for r in records)

    if not a or settings(a) != settings(b):
        print("error: the two files do not hold runs of the same seeds and settings", file=sys.stderr)
        return 2
    limits = bounds()
    print(f"{'workload':16} {'metric':34} {'base A':>12} {'base B':>12} {'B/A':>8} "
          f"{'spread A':>9} {'spread B':>9}  verdict")
    for workload in dict.fromkeys(r["workload"] for r in a):
        for metric in a[[r["workload"] for r in a].index(workload)]["metrics"]:
            va, vb = samples(a, workload, metric), samples(b, workload, metric)
            ma, mb = statistics.median(va), statistics.median(vb)
            ratio = mb / ma if ma else float("nan")
            sa, sb = spread(va), spread(vb)
            bound = limits.get(metric)
            if bound is None:
                verdict = "no bound"
            elif sa is None or sb is None or max(sa, sb) > bound:
                verdict = "unresolved"
            elif ratio > 1 + bound:
                verdict = "worse"
            else:
                verdict = "within bound"
            sa_text, sb_text = ("n/a" if x is None else f"{x:.3f}" for x in (sa, sb))
            print(f"{workload:16} {metric:34} {ma:>12.6g} {mb:>12.6g} {ratio:>8.4f} "
                  f"{sa_text:>9} {sb_text:>9}  {verdict}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description="The centdim benchmark.")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int,
                        help="run only the first N requests of each pass (smoke tests)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two saved outputs of series.py (or run.py)")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    if not (SRC / "centdim" / "cli.py").is_file():
        print(f"error: no centdim sources under {SRC}", file=sys.stderr)
        return 2
    return run(args.workload, args.seed, args.seconds, args.trace, args.limit)


if __name__ == "__main__":
    sys.exit(main())
