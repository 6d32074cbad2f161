"""Run the benchmark over several seeds, workloads interleaved, and report
each end-to-end metric's median, quartiles and spread across the runs.

    python3 perfbench/series.py --seeds 1-10 --out series.txt
    python3 perfbench/series.py --seeds 1-5 --workloads cli-cold --seconds 30

For each seed every workload runs once, in turn, so slow drift of the host
shows in all workloads alike instead of in one. The spread is the distance
between the first and third quartile of the runs' values, as a share of
their median; a metric is marked steady when the spread is below a third of
its bound in BENCHMARK.json. --out keeps every run's output, which
`run.py --compare` reads.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="a seed or a range, like 1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", help="file that keeps every run's output")
    args = parser.parse_args(argv)

    names = args.workloads.split(",")
    records, failures = [], 0
    out = open(args.out, "w") if args.out else None
    try:
        for seed in seed_list(args.seeds):
            for workload in names:
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                if out:
                    out.write(proc.stdout)
                    out.flush()
                if proc.returncode != 0:
                    failures += 1
                    print(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                    continue
                result = json.loads(proc.stdout.splitlines()[-1])
                records.extend(bench.details(proc.stdout))
                summary = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
                print(f"{workload} seed {seed}: {summary} failed={result['failed']}", flush=True)
    finally:
        if out:
            out.close()

    print(f"\n{'workload':16} {'metric':12} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7} {'bound':>6}")
    for workload in names:
        for metric in spec["end_to_end"]:
            vals = [r["metrics"][metric["name"]] for r in records
                    if r["workload"] == workload]
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            mark = "steady" if spread < metric["bound"] / 3 else "NOT steady"
            print(f"{workload:16} {metric['name']:12} {med:>10.5g} {q1:>10.5g} {q3:>10.5g} "
                  f"{spread:>7.3f} {metric['bound']:>6}  {mark}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
