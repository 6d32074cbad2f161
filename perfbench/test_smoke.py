"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload for one pass of a few requests, untraced and traced,
and checks that the last line names every metric of BENCHMARK.json with its
unit, that the table before it prints each metric by name, and that the
benchmark refuses to run where there are no centdim sources. Also checks
which failures make a run incorrect, and the verdicts of compare mode.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--limit", "12")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 12
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    table = "\n".join(lines[:-2])
    for m in wanted:
        assert f"{m['name']} " in table
    assert "fail_ratio" in table
    assert lines[-2].startswith("detail: ")


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = bench("--workload", "cli-cold", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_only_the_known_defect_keeps_a_failed_run_correct():
    reqs = [("deep", [], 0), ("dim", [], 0)]
    recursion = "deep: exit 1, RecursionError: maximum recursion depth exceeded"
    assert run.is_correct("cli-cold", reqs, [[0, recursion]], [])
    assert not run.is_correct("cli-cold", reqs, [[0, "deep: hit the 30.0 s per-request cap"]], [])
    assert not run.is_correct("cli-cold", reqs, [[1, "dim: exit 1, RecursionError: too deep"]], [])
    assert not run.is_correct("cli-cold", reqs, [], [[1, "dim 3, oracle 4"]])
    assert not run.is_correct("tower-walk", None, [[0, "build: ValueError: x"]], [])
    assert run.is_correct("tower-walk", None, [], [])


def test_compare_prints_ratio_with_both_bases(tmp_path):
    def series(walls):
        return "".join(
            "detail: " + json.dumps({"workload": "tower-walk", "seed": seed, "seconds": 30, "trace": 0,
                                     "metrics": {"wall_s": wall, "setup_s": 0.1}}) + "\n"
            for seed, wall in enumerate(walls, 1))

    steady, noisy = [2.0, 2.0, 2.0, 2.0], [1.0, 2.0, 3.0, 4.0]
    a, b, c, one = (tmp_path / f"{name}.txt" for name in ("a", "b", "c", "one"))
    a.write_text(series(steady))
    b.write_text(series([x * 1.5 for x in steady]))
    c.write_text(series(noisy))
    one.write_text(series([2.0]))

    rows = {line.split()[1]: line for line in bench("--compare", str(a), str(b)).stdout.splitlines()[1:]}
    assert rows["wall_s"].split()[2:5] == ["2", "3", "1.5000"]
    assert rows["wall_s"].endswith("worse")
    assert rows["setup_s"].endswith("within bound")
    assert bench("--compare", str(a), str(c)).stdout.splitlines()[1].endswith("unresolved")
    assert bench("--compare", str(one), str(one)).stdout.splitlines()[1].endswith("unresolved")
    assert bench("--compare", str(a), str(one)).returncode == 2
