"""Acceptance gate for the harness, one printed pass/fail line per
criterion. The last two criteria (the total-vs-per-process inequality and
the engine-semantics invariants) aggregate over every run the earlier
criteria produced."""

import random
import time

from conftest import check_level_monotonic, in_lc1, path_edges, random_st_topology, random_to_topology

from strongstab import analysis
from strongstab.adversary import make_adversary
from strongstab.engine import (
    Daemon,
    StopCondition,
    arbitrary_configuration,
    Kernel,
    check_trace,
    run,
)
from strongstab.spanning_tree import SS_ST
from strongstab.spanning_tree import legitimate_configuration as st_legit
from strongstab.tree_orientation import SS_TO, in_lc2
from strongstab.tree_orientation import legitimate_configuration as to_legit
from strongstab.topology import build_topology, correct_diameter

ALL_REPORTS: list[analysis.ContainmentReport] = []
CHECKED_TRACES = {"count": 0}


def _audit(trace, topo, protocol, fairness_bound):
    """Engine-semantics invariants, enforced on every trace we generate."""
    check_trace(trace, topo, protocol, fairness_bound)
    if protocol is SS_TO:
        check_level_monotonic(trace, topo)
    CHECKED_TRACES["count"] += 1


def _run(topo, protocol, adversary_name, params, seeds, max_steps, predicate=None,
         kind="distributed", fairness=None, init=None):
    adv = make_adversary(adversary_name, params, seeds + 3, topo, protocol)
    daemon = Daemon(
        kind=kind,
        fairness_bound=fairness if fairness is not None else 2 * topo.n,
        rng_seed=seeds + 1,
    )
    if init is None:
        init = arbitrary_configuration(topo, protocol, seeds + 2)
    trace = run(topo, protocol, adv, daemon, init, StopCondition(max_steps, predicate))
    _audit(trace, topo, protocol, daemon.fairness_bound)
    return trace


def _report(trace, topo, protocol, radius, bounds):
    rep = analysis.verify_containment(trace, topo, protocol, radius, bounds)
    ALL_REPORTS.append(rep)
    return rep


def test_criterion_1_construction_closure():
    started = time.time()
    rng = random.Random(1)
    for case in range(200):
        n = rng.randint(3, 16)
        f = min(rng.randint(0, 3), n - 2)
        topo = random_st_topology(n, f, seed=case, extra=rng.randint(0, 3))
        cfg = st_legit(topo, case + 1000)
        assert Kernel(topo, SS_ST).quiescent(cfg), case  # the legitimate set is the quiescent configurations
    elapsed = time.time() - started
    assert elapsed < 5.0, f"closure sweep took {elapsed:.1f}s"
    print(f"\nCRITERION 1 PASS: 200 legitimate configurations quiescent in {elapsed:.2f}s")


def test_criterion_2_construction_convergence():
    rng = random.Random(2)
    worst_rounds_ratio = 0.0
    adversaries = [("silent", {}), ("fake-root", {}), ("oscillate", {"period": 1})]
    for case in range(200):
        n = rng.randint(4, 16)
        f = min(rng.randint(0, 3), n - 2)
        topo = random_st_topology(n, f, seed=5000 + case, extra=rng.randint(0, 3))
        name, params = adversaries[case % 3]
        trace = _run(
            topo, SS_ST, name, params, seeds=case * 10, max_steps=8000,
            predicate=Kernel(topo, SS_ST).quiescent,
        )
        assert trace.stop_reason == "predicate", (case, trace.stop_reason)
        limit = 4 * (topo.n - len(topo.byzantine)) * topo.max_degree ** correct_diameter(topo)
        rounds = len(trace.round_ends)
        assert rounds <= limit, (case, rounds, limit)
        worst_rounds_ratio = max(worst_rounds_ratio, rounds / limit)
        rep = _report(trace, topo, SS_ST, 0, {"st_rounds": (limit, "max")})
        assert not rep.never_stabilized
    print(f"\nCRITERION 2 PASS: 200 arbitrary starts reached the legitimate set; "
          f"worst rounds/limit = {worst_rounds_ratio:.3f}")


def _exhaustive_st_instance(edges, byz, seed):
    return build_topology(edges, root=0, byzantine=byz, neighbor_seed=seed, mode="ss-st")


def test_criterion_3_construction_disruption_bounds():
    # exact small instances: the worst-case game search is the oracle, and
    # the scripted worst-case adversary must reproduce its count in a run
    small = [
        (_exhaustive_st_instance(path_edges(3), [2], 1), 3),
        (_exhaustive_st_instance(path_edges(4), [3], 2), 3),
        (_exhaustive_st_instance([(0, 1), (0, 2), (0, 3)], [3], 3), 3),
    ]
    for topo, bound in small:
        k_limit = topo.max_degree ** correct_diameter(topo)
        t_limit = len(topo.byzantine) * k_limit
        oracle = analysis.brute_force_verify(topo, SS_ST, "worst-disruptions", level_bound=bound)
        assert not oracle.unbounded
        assert oracle.worst_disruptions <= t_limit
        assert oracle.worst_per_process <= k_limit
        if oracle.worst_disruptions:
            adv_params = {"level_bound": bound}
            trace = _run(
                topo, SS_ST, "max-damage", adv_params, seeds=17, max_steps=2000,
                kind="central", fairness=100_000, init=oracle.best_anchor,
            )
            rep = _report(trace, topo, SS_ST, 0,
                          {"st_disruptions": (t_limit, "max"), "st_changes": (k_limit, "max")})
            assert rep.t_observed == oracle.worst_disruptions, "run must match the exact game value"
            assert rep.k_observed <= oracle.worst_per_process

    # randomized larger instances: 500 seeded adversary scripts
    rng = random.Random(3)
    for case in range(500):
        n = rng.randint(5, 12)
        f = rng.randint(1, 3)
        topo = random_st_topology(n, min(f, n - 2), seed=20_000 + case, extra=rng.randint(0, 2))
        params = {"period": rng.randint(1, 3), "cycles": rng.randint(3, 5)}
        name = "oscillate" if case % 2 else "fake-root"
        trace = _run(
            topo, SS_ST, name, params if name == "oscillate" else {},
            seeds=case * 7, max_steps=1500, init=st_legit(topo, case),
        )
        k_limit = topo.max_degree ** correct_diameter(topo)
        rep = _report(
            trace, topo, SS_ST, 0,
            {"st_disruptions": (len(topo.byzantine) * k_limit, "max"), "st_changes": (k_limit, "max")},
        )
        assert rep.verdict == "pass", (case, rep.bounds_checked)
    print("\nCRITERION 3 PASS: exact worst cases match the game oracle; "
          "500 randomized adversary runs within disruption bounds")


def test_criterion_4_orientation_fault_free():
    rng = random.Random(4)
    worst = (0.0, None)
    for case in range(200):
        n = rng.randint(2, 32)
        topo = random_to_topology(n, 0, seed=40_000 + case)
        trace = _run(topo, SS_TO, "silent", {}, seeds=case * 11, max_steps=6000)
        assert trace.stop_reason == "quiescent", case
        assert Kernel(topo, SS_TO).quiescent(trace.configs[-1]), case
        assert len({state.level for state in trace.configs[-1].states}) == 1, case  # LC0 is flat
        d = correct_diameter(topo)
        rounds = len(trace.round_ends)
        assert rounds <= 2 * d + 2, (case, rounds, d)
        if rounds / (2 * d + 2) > worst[0]:
            worst = (rounds / (2 * d + 2), case)
    print(f"\nCRITERION 4 PASS: 200 fault-free trees quiesced into the flat "
          f"legitimate set; worst rounds/(2d+2) = {worst[0]:.2f}")


def test_criterion_5_orientation_single_byzantine():
    rng = random.Random(5)
    c1_frozen = 4  # recorded constant: measured max below stays well under it
    measured = 0.0

    # (i) convergence to the single-Byzantine legitimate set in c1*n rounds
    adversaries = [("level-inflation", {"step": 1}), ("oscillate", {"period": 2}), ("silent", {})]
    for case in range(60):
        n = rng.randint(3, 16)
        topo = random_to_topology(n, 1, seed=50_000 + case, prefer_internal=bool(case % 2))
        name, params = adversaries[case % 3]
        trace = _run(
            topo, SS_TO, name, params, seeds=case * 13, max_steps=8000,
            predicate=lambda c, t=topo: in_lc1(c, t),
        )
        assert trace.stop_reason == "predicate", (case, trace.stop_reason)
        rounds = len(trace.round_ends)
        assert rounds <= c1_frozen * topo.n, (case, rounds)
        measured = max(measured, rounds / topo.n)

    # (ii) from the legitimate set: at most degree(z) disruptions and at
    # most one parent change per correct process
    for case in range(60):
        n = rng.randint(3, 16)
        topo = random_to_topology(n, 1, seed=60_000 + case, prefer_internal=bool(case % 2))
        z = next(iter(topo.byzantine))
        init = to_legit(topo, case, kind="lc1")
        assert in_lc1(init, topo)
        name, params = adversaries[case % 2]
        trace = _run(topo, SS_TO, name, params, seeds=case * 17, max_steps=1500, init=init)
        rep = _report(
            trace, topo, SS_TO, 0,
            {"to_disruptions": (topo.degree(z), "max"), "to_changes": (1, "max")},
        )
        assert rep.verdict == "pass", (case, rep.bounds_checked)

    # (iii) from the fully z-oriented legitimate set nothing ever moves a parent
    for case in range(100):
        n = rng.randint(3, 16)
        topo = random_to_topology(n, 1, seed=70_000 + case, prefer_internal=bool(case % 3))
        init = to_legit(topo, case, kind="lc2")
        assert in_lc2(init, topo)
        name, params = adversaries[case % 3]
        trace = _run(topo, SS_TO, name, params, seeds=case * 19, max_steps=900, init=init)
        for i in range(len(trace.steps)):
            for v in topo.correct:
                assert trace.configs[i + 1].states[v].prnt == trace.configs[i].states[v].prnt, case

    # exact small instances, scripted worst-case adversary included
    for edges, byz in ([(path_edges(3)), [2]], [path_edges(3), [1]], [path_edges(4), [3]]):
        topo = build_topology(edges, byzantine=byz, neighbor_seed=2, mode="ss-to")
        z = next(iter(topo.byzantine))
        oracle = analysis.brute_force_verify(topo, SS_TO, "worst-disruptions", level_bound=3)
        assert not oracle.unbounded
        assert oracle.worst_disruptions <= topo.degree(z)
        assert oracle.worst_per_process <= 1
        if oracle.worst_disruptions:
            trace = _run(
                topo, SS_TO, "max-damage", {"level_bound": 3}, seeds=23, max_steps=2000,
                kind="central", fairness=100_000, init=oracle.best_anchor,
            )
            rep = _report(trace, topo, SS_TO, 0,
                          {"to_disruptions": (topo.degree(z), "max"), "to_changes": (1, "max")})
            assert rep.t_observed == oracle.worst_disruptions
            assert rep.verdict == "pass"

    print(f"\nCRITERION 5 PASS: single-Byzantine containment held; measured "
          f"rounds-to-legitimate c1 = {measured:.2f} (frozen at {c1_frozen})")


def test_criterion_6_impossibility_demonstration():
    observed = {}
    for n in (5, 9):
        topo = build_topology(path_edges(n), byzantine=[0, n - 1], neighbor_seed=3, mode="ss-to")
        trace = _run(topo, SS_TO, "chain-replay", {}, seeds=n * 29, max_steps=5000)
        rep = _report(trace, topo, SS_TO, 0, {})
        assert rep.t_observed >= 10, (n, rep.t_observed)
        checker = analysis.StabilityChecker(topo, SS_TO, 0)
        for rec in rep.disruptions:
            assert checker.anchor(trace.configs[rec.start_index])
        observed[n] = rep.t_observed
    print(f"\nCRITERION 6 PASS: chains with two Byzantine endpoints produced "
          + ", ".join(f"{t} disruptions at n={n}" for n, t in observed.items())
          + "; every window opened from a re-stabilized configuration")


def test_criterion_7_total_bounded_by_n_times_per_process():
    assert ALL_REPORTS, "earlier criteria must have produced reports"
    for rep in ALL_REPORTS:
        check = rep.bounds_checked["prop_total_le_n_times_k"]
        assert check.passed, rep
    print(f"\nCRITERION 7 PASS: total-vs-per-process inequality held on all "
          f"{len(ALL_REPORTS)} containment reports")


def test_criterion_8_engine_semantics_everywhere():
    count = CHECKED_TRACES["count"]
    assert count >= 900, count
    print(f"\nCRITERION 8 PASS: locality, simultaneity, priority, replay and "
          f"fairness invariants checked on {count} traces")
