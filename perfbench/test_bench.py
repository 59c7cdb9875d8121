"""Self-test of the benchmark in its tiny mode.

    python3 -m pytest perfbench/test_bench.py -q

Checks that every metric named in BENCHMARK.json is printed with its unit,
that the traced run's layer self times and remainder add up to its wall
time, that a tampered golden digest makes jobs fail, and that the benchmark
refuses to report when the program's sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
GOLDENS = json.loads((HERE / "goldens.json").read_text(encoding="utf-8"))
MINT_SEED = GOLDENS["mint_seeds"][0]
WORKLOADS = ("steady-sim", "converge-scan", "oracle")

# setup-phase layers are timed outside the traced pass
SETUP_LAYERS = {"topology.build_s", "tree_orientation.legit_gen_s", "spanning_tree.legit_gen_s", "engine.arbitrary_gen_s"}


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tiny(workload: str, trace: int) -> dict:
    return result_line(
        bench("--workload", workload, "--seed", str(MINT_SEED), "--seconds", "0.2", "--trace", str(trace), "--tiny")
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    line = tiny(workload, 0)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == want
    for name, metric in line["metrics"].items():
        assert isinstance(metric["value"], (int, float)) and metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_printed_and_add_up(workload):
    line = tiny(workload, 1)
    assert line["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = line["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == want
    value = {k: v["value"] for k, v in metrics.items()}
    self_total = sum(
        v for k, v in value.items()
        if k.endswith("_s") and k not in SETUP_LAYERS and not k.startswith(("trace.", "oracle."))
    )
    self_total += value["oracle.query_s"] * value["oracle.queries"]
    assert self_total + value["trace.unaccounted_s"] == pytest.approx(value["trace.wall_s"], rel=1e-9, abs=1e-9)
    assert 0 <= value["trace.unaccounted_s"] < value["trace.wall_s"]


def copy_benchmark(dest: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))


def test_tampered_golden_fails_jobs(tmp_path):
    copy_benchmark(tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    tampered = json.loads(json.dumps(GOLDENS))
    entries = tampered["steady-sim-tiny"][str(MINT_SEED)]
    first = sorted(entries)[0]
    entries[first]["trace"] = "0" * 64
    (tmp_path / "perfbench" / "goldens.json").write_text(json.dumps(tampered), encoding="utf-8")
    line = result_line(
        bench("--workload", "steady-sim", "--seed", str(MINT_SEED), "--seconds", "0.2", "--trace", "0", "--tiny", cwd=tmp_path)
    )
    assert not line["correct"]
    assert line["failed"] / line["attempted"] > 0


def test_refuses_without_program_sources(tmp_path):
    copy_benchmark(tmp_path)
    proc = bench("--workload", "oracle", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
