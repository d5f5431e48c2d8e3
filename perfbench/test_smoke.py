"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs untraced and traced; each metric named in
BENCHMARK.json must print with its unit, and every check must pass.  The
output checkers must flag output files that this test corrupts.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                 "--trace", str(trace), "--scale", "0.02")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, lines
    assert result["attempted"] >= 1
    names = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in names}
    for m in names:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        assert any(line.startswith(m["name"] + " ") and line.endswith(" " + m["unit"])
                   for line in lines), m["name"]


def test_checkers_flag_corrupted_outputs(tmp_path):
    workload = workloads.Convert(str(tmp_path), 3, 0.02)
    workload.setup()
    rec = workloads.Recorder()
    rec.begin_cycle()
    workload.cycle(rec)
    assert rec.failed == 0 and rec.attempted == 9 + 2 * 3 * len(workload.forest)

    trees_path = workload.shards[0][0]
    decoded = tmp_path / "dynamic-0.trees"
    assert workloads.check_identical(trees_path, str(decoded)) == []
    # rename the root of the first tree with a phrase root: the yield stays,
    # one bracket no longer matches
    lines = decoded.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if line.count("(") > 2)
    lines[i] = "(WRONG " + lines[i].split(" ", 1)[1]
    decoded.write_text("\n".join(lines) + "\n")
    assert workloads.check_identical(trees_path, str(decoded))
    f1, problems = workloads.check_eval(trees_path, str(decoded),
                                        "P 100.00 R 100.00 F1 100.00")
    assert f1 < 1.0 and problems

    # an output that differs from the first cycle's is flagged too
    assert workload.same_output("decoded", str(decoded), lambda: []) == []
    decoded.write_text(decoded.read_text() + "(S (P0 x))\n")
    assert workload.same_output("decoded", str(decoded), lambda: [])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "convert", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
