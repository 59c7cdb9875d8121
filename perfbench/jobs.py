"""Workload pools and job execution for the strongstab benchmark.

A workload is a pool of job groups generated from the workload seed alone.
Every group holds the workload's whole shape mix (each size, protocol and
adversary once), so a run that stops at a group boundary has measured every
shape equally often.

A simulation job is one closed-loop verification of one seeded run:
``engine.run``, the trace audit, ``analysis.verify_containment``,
``engine.write_trace`` and ``analysis.render_report``. Its inputs (topology
and initial configuration) are built during set-up. An oracle job is one
``analysis.brute_force_verify`` query.

Only public functions of the ``strongstab`` modules are called. The traced
variants wrap those calls in spans (see ``tracing.py``).
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from dataclasses import dataclass, field
from typing import Optional

from strongstab import analysis, engine, spanning_tree, tree_orientation
from strongstab.adversary import make_adversary
from strongstab.cli import PROTOCOLS, Scenario, bound_limits
from strongstab.topology import (
    Topology,
    TopologyError,
    build_topology,
    random_connected_graph_edges,
    random_tree_edges,
)

from tracing import AdversaryProbe, span

WORKLOADS = ("steady-sim", "converge-scan", "oracle")

# steady-sim: long never-quiet runs, mostly on the fast membership path, so
# engine.run and the audit dominate. Sizes are fixed so that seeds vary the
# graphs, never the amount of work in a group.
STEADY_TO_SIZES = (32, 64, 96, 128)
STEADY_ST_SIZES = (16, 32, 48, 64)
STEADY_STEPS = 500
STEADY_GROUPS = 6
# ss-to from LC1 starts on small trees: configurations with an internally
# rooted component are not in LC2, so their stability checks leave the fast
# membership path and run the budgeted search (StabilityChecker._search).
# Above n = 16 these searches grow heavy-tailed and some exhaust the budget.
STEADY_SEARCH_SIZES = (12, 16)

# converge-scan: short runs from arbitrary starts; the stability search
# dominates and its cost is heavy-tailed (some searches exhaust the default
# 20000-node budget). Every generated job is kept.
CONVERGE_SIZES = (16, 20, 24)
CONVERGE_ADVERSARIES = ("silent", "level-inflation")
CONVERGE_STEPS = 300
CONVERGE_GROUPS = 12

# oracle: (name, protocol, property, level bound, edges, root, byzantine)
ORACLE_QUERIES = (
    ("path3-to-converges", "ss-to", "converges-to", 2, ((0, 1), (1, 2)), None, ()),
    ("path3-st-converges", "ss-st", "converges-to", 1, ((0, 1), (1, 2)), 0, ()),
    ("star4-to-worst", "ss-to", "worst-disruptions", 2, ((0, 1), (0, 2), (0, 3)), None, (0,)),
    ("cycle4-st-worst", "ss-st", "worst-disruptions", 3, ((0, 1), (1, 2), (2, 3), (0, 3)), 0, (2,)),
)
TINY_ORACLE_QUERIES = ("path3-st-converges", "cycle4-st-worst")

# a run measures at least this many groups, so that every job shape has
# enough samples for its median: an oracle group takes 18-21 s, and a median
# of two samples is their mean, which keeps a slow first query; on
# converge-scan, budget-exhausting stability searches eat the run's time
MIN_GROUPS = {"steady-sim": 1, "converge-scan": 5, "oracle": 3}

VERDICT_FIELDS = ("converges", "worst_disruptions", "worst_per_process", "unbounded", "anchors")


@dataclass
class SimJob:
    key: str
    protocol: str
    topo: Topology
    init: engine.Configuration
    adversary: str
    adv_params: dict
    adv_seed: int
    daemon_seed: int
    max_steps: int
    limits: dict


@dataclass
class OracleJob:
    key: str
    golden_key: str
    protocol: str
    prop: str
    level_bound: int
    topo: Topology


@dataclass
class Pool:
    workload: str
    seed: int
    tiny: bool
    groups: list = field(default_factory=list)

    @property
    def golden_scope(self) -> str:
        return self.workload + ("-tiny" if self.tiny else "")


@dataclass
class JobResult:
    key: str
    seconds: float
    work: int  # simulated steps, or oracle states explored
    digests: dict
    conclusive: bool = True
    failure: Optional[str] = None


# ---------------------------------------------------------------------------
# set-up: topologies and initial configurations, all drawn from the seed


def build_pool(workload: str, seed: int, tiny: bool = False, tracer=None) -> Pool:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng = random.Random(f"strongstab-bench:{workload}:{seed}")
    pool = Pool(workload, seed, tiny)
    if workload == "steady-sim":
        to_sizes, search_sizes, st_sizes = (
            ((12,), (8,), (8, 8)) if tiny else (STEADY_TO_SIZES, STEADY_SEARCH_SIZES, STEADY_ST_SIZES)
        )
        steps = 200 if tiny else STEADY_STEPS
        for g in range(1 if tiny else STEADY_GROUPS):
            group = [_to_job(rng, f"g{g}.ss-to.n{n}", n, "lc2", "level-inflation", steps, tracer) for n in to_sizes]
            group += [
                _to_job(rng, f"g{g}.ss-to.n{n}.lc1", n, "lc1", "level-inflation", steps, tracer) for n in search_sizes
            ]
            # alternate legitimate and arbitrary starts so both generators are measured
            group += [
                _st_job(rng, f"g{g}.ss-st.n{n}.{init}", n, init, steps, tracer)
                for n, init in zip(st_sizes, ("legitimate", "arbitrary") * len(st_sizes))
            ]
            pool.groups.append(group)
    elif workload == "converge-scan":
        sizes = (8,) if tiny else CONVERGE_SIZES
        steps = 100 if tiny else CONVERGE_STEPS
        for g in range(1 if tiny else CONVERGE_GROUPS):
            pool.groups.append(
                [
                    _to_job(rng, f"g{g}.ss-to.n{n}.{adv}", n, "arbitrary", adv, steps, tracer)
                    for n in sizes
                    for adv in CONVERGE_ADVERSARIES
                ]
            )
    else:
        # one group: the seed draws each query's neighbor order
        group = []
        for name, protocol, prop, level_bound, edges, root, byz in ORACLE_QUERIES:
            if tiny and name not in TINY_ORACLE_QUERIES:
                continue
            with span(tracer, "topology.build"):
                topo = build_topology(edges, root=root, byzantine=byz, neighbor_seed=rng.getrandbits(32), mode=protocol)
            group.append(OracleJob(f"g0.{name}", oracle_golden_key(name, topo), protocol, prop, level_bound, topo))
        pool.groups.append(group)
    return pool


def oracle_golden_key(name: str, topo: Topology) -> str:
    """Oracle verdicts are minted for every neighbor order of each query, so
    any seed is checked against a golden."""
    return name + "@" + ";".join(",".join(map(str, order)) for order in topo.neighbor_order)


def _to_job(rng, key, n, init_kind, adversary, steps, tracer) -> SimJob:
    topo_seed = rng.getrandbits(32)
    byz = [rng.randrange(n)]
    with span(tracer, "topology.build"):
        topo = build_topology(random_tree_edges(n, topo_seed), byzantine=byz, neighbor_seed=topo_seed, mode="ss-to")
    init_seed = rng.getrandbits(32)
    if init_kind in ("lc1", "lc2"):
        with span(tracer, "tree_orientation.legit_gen"):
            init = tree_orientation.legitimate_configuration(topo, init_seed, kind=init_kind)
    else:
        with span(tracer, "engine.arbitrary_gen"):
            init = engine.arbitrary_configuration(topo, PROTOCOLS["ss-to"], init_seed)
    return _sim_job(rng, key, "ss-to", topo, init, adversary, {}, steps, ("to_disruptions", "to_changes"))


def _st_job(rng, key, n, init_kind, steps, tracer) -> SimJob:
    # two Byzantine processes on a random graph; redraw until the correct
    # processes stay connected, as ss-st requires
    while True:
        topo_seed = rng.getrandbits(32)
        byz = rng.sample(range(1, n), 2)
        try:
            with span(tracer, "topology.build"):
                topo = build_topology(
                    random_connected_graph_edges(n, max(1, n // 8), topo_seed),
                    root=0,
                    byzantine=byz,
                    neighbor_seed=topo_seed,
                    mode="ss-st",
                )
            break
        except TopologyError:
            continue
    init_seed = rng.getrandbits(32)
    if init_kind == "legitimate":
        with span(tracer, "spanning_tree.legit_gen"):
            init = spanning_tree.legitimate_configuration(topo, init_seed)
    else:
        with span(tracer, "engine.arbitrary_gen"):
            init = engine.arbitrary_configuration(topo, PROTOCOLS["ss-st"], init_seed)
    return _sim_job(
        rng, key, "ss-st", topo, init, "oscillate", {"period": "2"}, steps,
        ("st_disruptions", "st_changes", "st_rounds"),
    )


def _sim_job(rng, key, protocol, topo, init, adversary, adv_params, steps, bounds) -> SimJob:
    limits = bound_limits(list(bounds), topo, Scenario(topology_path="-", protocol=protocol))
    return SimJob(
        key, protocol, topo, init, adversary, adv_params,
        adv_seed=rng.getrandbits(32), daemon_seed=rng.getrandbits(32), max_steps=steps, limits=limits,
    )


# ---------------------------------------------------------------------------
# execution


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def run_sim_job(job: SimJob, trace_path: str, tracer=None, stats=None) -> JobResult:
    """One closed-loop verification. With a tracer, the audit is split into
    its five public checks and the adversary is wrapped in a counting proxy;
    the work done is the same."""
    protocol = PROTOCOLS[job.protocol]
    topo = job.topo
    fairness = 2 * topo.n
    adversary = make_adversary(job.adversary, job.adv_params, job.adv_seed, topo, protocol)
    if tracer is not None:
        adversary = AdversaryProbe(adversary, tracer, stats)
    daemon = engine.Daemon(kind="distributed", fairness_bound=fairness, rng_seed=job.daemon_seed)
    failure = None
    t0 = time.perf_counter()
    with span(tracer, "engine.run"):
        trace = engine.run(topo, protocol, adversary, daemon, job.init, engine.StopCondition(max_steps=job.max_steps))
    try:
        if tracer is None:
            engine.check_trace(trace, topo, protocol, fairness)
        else:
            with span(tracer, "audit.locality"):
                engine.check_locality(trace, topo)
            with span(tracer, "audit.simultaneity"):
                engine.check_simultaneity(trace, topo, protocol)
            with span(tracer, "audit.priority"):
                engine.check_priority(trace, topo, protocol)
            with span(tracer, "audit.replay"):
                engine.check_replay(trace, topo, protocol)
            with span(tracer, "audit.fairness"):
                engine.check_fairness(trace, topo.correct, fairness)
    except engine.EngineError as exc:
        failure = f"audit: {exc}"
    with span(tracer, "analysis.verify"):
        report = analysis.verify_containment(trace, topo, protocol, 0, job.limits)
    with span(tracer, "engine.write_trace"):
        engine.write_trace(trace_path, trace, topo, protocol)
    with span(tracer, "analysis.render"):
        text = analysis.render_report(report)
    seconds = time.perf_counter() - t0

    failed_bounds = sorted(name for name, b in report.bounds_checked.items() if not b.passed)
    if failure is None and failed_bounds:
        failure = "bound FAIL: " + " ".join(failed_bounds)
    if stats is not None:
        stats["engine.steps"] += len(trace.steps)
        stats["engine.activations"] += sum(len(s.activated) for s in trace.steps)
        stats["engine.actions_fired"] += sum(1 for s in trace.steps for a in s.actions.values() if a is not None)
        stats["engine.trace_bytes"] += os.path.getsize(trace_path)
    digests = {
        "trace": _sha256_file(trace_path),
        "report": hashlib.sha256(text.encode("utf-8")).hexdigest(),
    }
    return JobResult(
        job.key, seconds, len(trace.steps), digests, conclusive=not report.stability_unknown_seen, failure=failure
    )


def run_oracle_job(job: OracleJob, tracer=None, stats=None) -> JobResult:
    protocol = PROTOCOLS[job.protocol]
    t0 = time.perf_counter()
    with span(tracer, "oracle.query"):
        result = analysis.brute_force_verify(job.topo, protocol, job.prop, job.level_bound)
    seconds = time.perf_counter() - t0
    if stats is not None:
        stats["oracle.queries"] += 1
        stats["oracle.states"] += result.states_explored
        stats["oracle.anchors"] += result.anchors
    verdict = {name: getattr(result, name) for name in VERDICT_FIELDS}
    return JobResult(job.key, seconds, result.states_explored, {"verdict": verdict})


def run_job(job, scratch_dir: str, tracer=None, stats=None) -> JobResult:
    if isinstance(job, OracleJob):
        return run_oracle_job(job, tracer, stats)
    return run_sim_job(job, os.path.join(scratch_dir, "trace.jsonl"), tracer, stats)


# ---------------------------------------------------------------------------
# correctness gate


def golden_for(goldens: dict, pool: Pool, job) -> Optional[dict]:
    """The stored expectation for a job, or None when none was minted.

    Oracle verdicts exist for every neighbor order; simulation digests exist
    for the seeds listed in the goldens file."""
    if isinstance(job, OracleJob):
        verdict = goldens.get("oracle", {}).get(job.golden_key)
        return None if verdict is None else {"verdict": verdict}
    return goldens.get(pool.golden_scope, {}).get(str(pool.seed), {}).get(job.key)


def golden_mismatch(result: JobResult, golden: Optional[dict]) -> Optional[str]:
    """Compare a job's outputs with its golden. A report digest is only
    stored for jobs that were conclusive when the golden was minted."""
    if golden is None:
        return None
    for name, want in sorted(golden.items()):
        if want is None:
            continue
        if result.digests.get(name) != want:
            return f"{name} differs from golden"
    return None
