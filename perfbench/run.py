"""strongstab benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload steady-sim --seed 1 --seconds 60 --trace 0

Jobs run one at a time in a closed loop with a single client. The pool of
job groups is built from ``--seed`` during set-up; groups then run in order
(wrapping around to repeat the pool) while the next group is expected to
end within ``--seconds``, and at least the workload's minimum number of
groups. Every job is checked: the trace audit must pass, no bound may FAIL,
outputs must match the stored goldens where one exists, and a repeated job
must reproduce its earlier outputs.

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it reports the per-layer metrics, taken
from a traced pass over the same groups as an untraced pass that precedes
it. See METRICS.md for definitions, ratio bases and predictions.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = HERE / "goldens.json"
WORK_DIR = ROOT / ".perfbench"
SETUP_PROBES = 11
SETUP_BUILDS = 2


def load_program():
    """Import the benchmark's job module, which imports strongstab from the
    checkout's source tree."""
    if not (SRC / "strongstab" / "__init__.py").is_file():
        raise ImportError(f"strongstab sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import jobs

    return jobs


def metric_spec() -> tuple[dict, dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def setup_probe(workload: str, seed: int, tiny: bool) -> list[float]:
    """In a fresh interpreter: the import, then SETUP_BUILDS builds of the
    pool, each timed on its own."""
    t0 = time.perf_counter()
    jobs = load_program()
    times = [time.perf_counter() - t0]
    for _ in range(SETUP_BUILDS):
        t0 = time.perf_counter()
        jobs.build_pool(workload, seed, tiny)
        times.append(time.perf_counter() - t0)
    return times


def setup_probe_seconds(workload: str, seed: int, tiny: bool) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    if tiny:
        cmd.append("--tiny")
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
    return json.loads(out.stdout.strip().splitlines()[-1])


def setup_seconds(probes: list[list[float]]) -> float:
    """Median import time plus median pool-build time."""
    imports = [p[0] for p in probes]
    builds = [t for p in probes for t in p[1:]]
    return statistics.median(imports) + statistics.median(builds)


class Runner:
    """Runs groups of a pool and applies the correctness gate to each job."""

    def __init__(self, jobs, pool, goldens: dict, scratch: str):
        self.jobs = jobs
        self.pool = pool
        self.goldens = goldens
        self.scratch = scratch
        self.first_digests: dict[str, dict] = {}
        self.results = []

    def run_group(self, index: int, tracer=None, stats=None, before_job=None) -> list:
        group = self.pool.groups[index % len(self.pool.groups)]
        out = []
        for job in group:
            if before_job is not None:
                before_job()
            t0 = time.perf_counter()
            try:
                res = self.jobs.run_job(job, self.scratch, tracer, stats)
            except Exception as exc:  # a crashing job is a failed job; keep measuring
                traceback.print_exc(file=sys.stderr)
                res = self.jobs.JobResult(job.key, time.perf_counter() - t0, 0, {}, failure=f"{type(exc).__name__}: {exc}")
            if res.failure is None:
                res.failure = self.jobs.golden_mismatch(res, self.jobs.golden_for(self.goldens, self.pool, job))
            earlier = self.first_digests.setdefault(job.key, res.digests)
            if res.failure is None and earlier != res.digests:
                res.failure = "outputs differ from an earlier run of the same job"
            if res.failure is not None:
                print(f"FAILED {self.pool.workload} seed {self.pool.seed} {job.key}: {res.failure}", file=sys.stderr)
            out.append(res)
        self.results.extend(out)
        return out

    def run_for(self, seconds: float, min_groups: int = 1, before_job=None) -> list[list]:
        """Whole groups, in pool order, while the next group is expected (at
        the mean group time so far) to end within `seconds`, and at least
        `min_groups` groups."""
        groups = []
        t0 = time.perf_counter()
        while len(groups) < min_groups or (time.perf_counter() - t0) * (len(groups) + 1) / len(groups) <= seconds:
            groups.append(self.run_group(len(groups), before_job=before_job))
        return groups


def end_to_end_metrics(results: list, setup_s: float) -> dict:
    """Timings are robust to single slow jobs: each job shape (a job's key
    without its group) contributes the median of its samples. `wall_s` is
    the time of one typical pass over the shape mix. `job_p50_s` is the
    median over shapes, so it is built from per-shape medians rather than
    from the slowest sample of one shape and the fastest of the next."""
    by_shape: dict[str, list] = {}
    for r in results:
        by_shape.setdefault(r.key.split(".", 1)[1], []).append(r)
    seconds = [statistics.median(r.seconds for r in rs) for rs in by_shape.values()]
    work = sum(statistics.median(r.work for r in rs) for rs in by_shape.values())
    return {
        "setup_s": setup_s,
        "wall_s": sum(seconds),
        "job_p50_s": statistics.median(seconds),
        "verified_per_s": work / sum(seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "conclusive_share": sum(r.conclusive for r in results) / len(results),
    }


def per_layer_metrics(setup_tracer, tracer, stats: Counter, untraced_wall: float, traced_wall: float) -> dict:
    own = tracer.self_times()
    setup_own = setup_tracer.self_times()

    def s(name: str) -> float:
        return own.get(name, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    queries = stats["oracle.queries"]
    return {
        "topology.build_s": setup_own.get("topology.build", 0.0),
        "tree_orientation.legit_gen_s": setup_own.get("tree_orientation.legit_gen", 0.0),
        "spanning_tree.legit_gen_s": setup_own.get("spanning_tree.legit_gen", 0.0),
        "engine.arbitrary_gen_s": setup_own.get("engine.arbitrary_gen", 0.0),
        "engine.run_s": s("engine.run"),
        "engine.steps": stats["engine.steps"],
        "engine.activations": stats["engine.activations"],
        "engine.actions_fired": stats["engine.actions_fired"],
        "engine.us_per_step": 1e6 * ratio(s("engine.run"), stats["engine.steps"]),
        "engine.us_per_activation": 1e6 * ratio(s("engine.run"), stats["engine.activations"]),
        "audit.locality_s": s("audit.locality"),
        "audit.simultaneity_s": s("audit.simultaneity"),
        "audit.priority_s": s("audit.priority"),
        "audit.replay_s": s("audit.replay"),
        "audit.fairness_s": s("audit.fairness"),
        "adversary.act_s": s("adversary.act"),
        "adversary.act_calls": stats["adversary.act_calls"],
        "adversary.byz_writes": stats["adversary.byz_writes"],
        "analysis.verify_s": s("analysis.verify"),
        "analysis.scan_self_s": s("analysis.scan"),
        "analysis.count_o_changes_s": s("analysis.count_o_changes"),
        "stability.check_s": s("stability.check"),
        "stability.checks": stats["stability.checks"],
        "stability.repeat_ratio": ratio(stats["stability.repeats"], stats["stability.checks"]),
        "stability.unknown": ratio(stats["stability.unknown_distinct"], stats["stability.distinct"]),
        "oracle.query_s": ratio(s("oracle.query"), queries),
        "oracle.queries": queries,
        "oracle.states": stats["oracle.states"],
        "oracle.anchors": stats["oracle.anchors"],
        "oracle.us_per_state": 1e6 * ratio(s("oracle.query"), stats["oracle.states"]),
        "engine.write_trace_s": s("engine.write_trace"),
        "engine.trace_bytes": stats["engine.trace_bytes"],
        "analysis.render_s": s("analysis.render"),
        "trace.wall_s": traced_wall,
        "trace.unaccounted_s": traced_wall - sum(own.values()),
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.spans": len(tracer.spans),
    }


def measure_traced(jobs, args, goldens: dict, scratch: str):
    import tracing

    setup_tracer = tracing.Tracer()
    pool = jobs.build_pool(args.workload, args.seed, args.tiny, tracer=setup_tracer)
    runner = Runner(jobs, pool, goldens, scratch)
    # a third of the time untraced, then the same groups traced, so the
    # traced run stays within the time of an untraced one
    untraced = runner.run_for(args.seconds / 3)
    untraced_wall = sum(r.seconds for g in untraced for r in g)
    tracer, stats = tracing.Tracer(), Counter()
    with tracing.instrument_analysis(jobs.analysis, tracer, stats):
        traced = [runner.run_group(i, tracer, stats) for i in range(len(untraced))]
    traced_wall = sum(r.seconds for g in traced for r in g)
    values = per_layer_metrics(setup_tracer, tracer, stats, untraced_wall, traced_wall)

    spans_dir = WORK_DIR / "spans"
    spans_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    setup_tracer.write(str(spans_dir / f"{stem}-setup.jsonl"))
    tracer.write(str(spans_dir / f"{stem}-jobs.jsonl"))
    print(
        f"{args.workload} seed {args.seed}: traced {len(untraced)} group(s), "
        f"wall {traced_wall:.3f} s traced, {untraced_wall:.3f} s untraced"
    )
    print(
        f"layer self times {sum(tracer.self_times().values()):.3f} s"
        f" + unaccounted {values['trace.unaccounted_s']:.3f} s = traced wall {traced_wall:.3f} s"
    )
    print(f"spans written to {spans_dir}/{stem}-*.jsonl")
    return runner, values


def measure_untraced(jobs, args, goldens: dict, scratch: str):
    # set-up is timed in fresh interpreters, spread evenly over the run so
    # a short slow spell on the host cannot move the medians
    probes = []
    start = time.perf_counter()

    def probe() -> None:
        due = 1 + SETUP_PROBES * (time.perf_counter() - start) / args.seconds
        if len(probes) < min(SETUP_PROBES, due):
            probes.append(setup_probe_seconds(args.workload, args.seed, args.tiny))

    pool = jobs.build_pool(args.workload, args.seed, args.tiny)
    runner = Runner(jobs, pool, goldens, scratch)
    groups = runner.run_for(args.seconds, jobs.MIN_GROUPS[args.workload], before_job=probe)
    while len(probes) < SETUP_PROBES:
        probe()
    values = end_to_end_metrics(runner.results, setup_seconds(probes))
    print(
        f"{args.workload} seed {args.seed}: {len(groups)} group(s), "
        f"job_p50_s {values['job_p50_s']:.4f} s over {len(runner.results)} jobs in {len(pool.groups[0])} shapes"
    )
    return runner, values


def measure(args) -> int:
    try:
        jobs = load_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    end_units, layer_units = metric_spec()
    units = layer_units if args.trace else end_units
    with open(GOLDENS, encoding="utf-8") as fh:
        goldens = json.load(fh)

    WORK_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        runner, values = (measure_traced if args.trace else measure_untraced)(jobs, args, goldens, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    results = runner.results
    failed = sum(r.failure is not None for r in results)
    print(f"attempted {len(results)} failed {failed} failed_share {failed / len(results):.4f}")
    for name in units:
        print(f"{name} {values[name]} {units[name]}")
    line = {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(line))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("steady-sim", "converge-scan", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small pool, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed, args.tiny)))
        return 0
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
