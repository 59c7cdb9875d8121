import functools
import graphlib
import itertools
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    in_lc1,
    local_view,
    path_edges,
    quick_run,
    random_st_topology,
    random_to_topology,
    ref_fire,
    st_topology,
    to_topology,
)

from strongstab import analysis, cli
from strongstab.adversary import Adversary
from strongstab.analysis import (
    OracleCapError,
    Stability,
    StabilityChecker,
    brute_force_verify,
    c_correct_set,
    count_o_changes,
    find_disruptions,
    render_report,
    verify_containment,
)
from strongstab.engine import (
    Configuration,
    Daemon,
    EngineError,
    ExecutionTrace,
    GuardedAction,
    Kernel,
    LocalEffect,
    ProcessState,
    RegisterValue,
    StopCondition,
    apply_effects,
    consistent_registers,
    run,
)
from strongstab.spanning_tree import SS_ST, spec_st
from strongstab.spanning_tree import legitimate_configuration as st_legit
from strongstab.tree_orientation import SS_TO, TreeOrientationProtocol, ga1, spec_to
from strongstab.tree_orientation import legitimate_configuration as to_legit
from strongstab.topology import build_topology, load_topology, random_tree_edges

TOPOLOGIES = Path(__file__).resolve().parents[1] / "topologies"


def test_c_correct_set_examples():
    path5 = build_topology(path_edges(5), byzantine=[0])
    assert c_correct_set(path5, 1) == {2, 3, 4}
    assert c_correct_set(path5, 0) == {1, 2, 3, 4}
    fault_free = build_topology(path_edges(5))
    assert c_correct_set(fault_free, 3) == set(range(5))


def test_all_byzantine_makes_legitimacy_vacuous():
    t = build_topology(path_edges(3), root=0, byzantine=[0, 1, 2])
    cfg = Configuration(
        tuple(ProcessState(0, i) for i in range(3)),
        tuple(RegisterValue(False, 0) for _ in range(t.num_registers)),
    )
    assert all(spec_st(v, cfg, t) for v in c_correct_set(t, 0))


def test_unoriented_pair_is_illegitimate():
    t = to_topology(2)
    states = [ProcessState(1, 4), ProcessState(1, 4)]
    # both claim the other as parent -> legitimate; flip one register story:
    cfg = Configuration(tuple(states), consistent_registers(t, states))
    assert all(spec_to(v, cfg, t) for v in range(2))
    # now neither points at the other (impossible on a 2-path, so use 3)
    t3 = to_topology(3, seed=1)
    pos = t3.neighbor_pos
    bad = [ProcessState(pos[0][1], 4), ProcessState(pos[1][0], 4), ProcessState(pos[2][1], 4)]
    bad[1] = ProcessState(pos[1][0], 4)
    cfg = Configuration(tuple(bad), consistent_registers(t3, bad))
    assert not spec_to(2, cfg, t3) or all(spec_to(v, cfg, t3) for v in range(3))


def test_stability_fast_path_and_one_step_search():
    t = st_topology(4, byz=(3,), edges=path_edges(4), seed=2)
    cfg = st_legit(t, 3)
    assert StabilityChecker(t, SS_ST, 0).check(cfg) is Stability.STABLE

    t0 = to_topology(4, seed=1)
    cfg = to_legit(t0, 2, kind="lc0")
    assert StabilityChecker(t0, SS_TO, 0).check(cfg) is Stability.STABLE

    # a pending tie-break move is an O-variable change one step away
    pos = t0.neighbor_pos
    states = [
        ProcessState(pos[0][1], 4),
        ProcessState(pos[1][0], 4),
        ProcessState(pos[2][1], 4),
        ProcessState(pos[3][2], 4),
    ]
    states[2] = ProcessState(pos[2][3], 4)  # edge 1-2 unoriented
    cfg = Configuration(tuple(states), consistent_registers(t0, states))
    assert StabilityChecker(t0, SS_TO, 0).check(cfg) is Stability.UNSTABLE


def test_stability_budget_exhaustion_reports_unknown(monkeypatch):
    t = st_topology(6, byz=(5,), edges=path_edges(6), seed=2)
    from strongstab.engine import arbitrary_configuration

    cfg = arbitrary_configuration(t, SS_ST, 3)
    monkeypatch.setattr(analysis, "STABILITY_BUDGET", 0)
    checker = StabilityChecker(t, SS_ST, 0)
    verdict = checker.check(cfg)
    assert verdict in (Stability.UNKNOWN, Stability.UNSTABLE)


@pytest.mark.parametrize("budget", [0, 20_000])
def test_run_without_watched_processes_stabilizes_at_once(monkeypatch, budget):
    # a radius this wide leaves no c-correct process, so no move changes a watched O-variable
    monkeypatch.setattr(analysis, "STABILITY_BUDGET", budget)
    t = build_topology(random_tree_edges(12, 1), byzantine=[0], neighbor_seed=1, mode="ss-to")
    trace, _ = quick_run(t, SS_TO, init_seed=1, daemon_seed=1, max_steps=300)
    assert not c_correct_set(t, 12)
    report = verify_containment(trace, t, SS_TO, 12)
    assert report.stabilization_index == 0 and not report.stability_unknown_seen
    assert report.disruptions == [] and report.verdict == "pass"


def test_trace_that_never_leaves_legitimacy_has_no_disruptions():
    t = st_topology(4, edges=path_edges(4), seed=1)
    trace, _ = quick_run(t, SS_ST, init=st_legit(t, 2))
    scan = find_disruptions(trace, t, 0, SS_ST)
    assert scan.disruptions == [] and not scan.never_stabilized


def test_single_flip_yields_one_record_with_counts():
    t = st_topology(3, byz=(2,), seed=1)
    oracle = brute_force_verify(t, SS_ST, "worst-disruptions", level_bound=3)
    from strongstab.adversary import make_adversary
    from strongstab.engine import Daemon, StopCondition, run

    adv = make_adversary("max-damage", {"level_bound": 3}, 0, t, SS_ST)
    daemon = Daemon(kind="central", fairness_bound=100_000, rng_seed=1)
    trace = run(t, SS_ST, adv, daemon, oracle.best_anchor, StopCondition(max_steps=100))
    scan = find_disruptions(trace, t, 0, SS_ST)
    assert len(scan.disruptions) == oracle.worst_disruptions == 1
    rec = scan.disruptions[0]
    assert rec.start_index < rec.end_index
    assert sum(rec.o_var_changes.values()) >= 1


def test_windows_do_not_overlap_and_each_contains_a_change():
    t = random_st_topology(6, 1, 31, extra=1)
    trace, _ = quick_run(
        t, SS_ST, "oscillate", {"period": 1, "cycles": 6},
        init=st_legit(t, 1), daemon_seed=3, adversary_seed=4, max_steps=1500,
    )
    scan = find_disruptions(trace, t, 0, SS_ST)
    prev_end = -1
    for rec in scan.disruptions:
        assert rec.start_index >= prev_end
        assert rec.end_index > rec.start_index
        assert sum(rec.o_var_changes.values()) >= 1
        prev_end = rec.end_index


def test_scan_totals_match_count_o_changes():
    """`find_disruptions` totals each watched process's O-variable changes
    in its one pass; `count_o_changes` from the first anchor is the
    reference, and a trace that never stabilizes totals nothing."""
    for protocol in (SS_TO, SS_ST):
        seen = set()
        for seed in range(8):
            if protocol is SS_TO:
                t, adversary, params = random_to_topology(7, 1, seed), "level-inflation", {}
                init = None
            else:
                t, adversary, params = random_st_topology(8, 2, seed), "oscillate", {"period": 1, "cycles": 6}
                init = st_legit(t, seed) if seed % 2 == 0 else None
            # three steps from an arbitrary start rarely reach an anchor
            trace, _ = quick_run(
                t, protocol, adversary, params, init=init, init_seed=seed, daemon_seed=seed,
                adversary_seed=seed, max_steps=3 if seed % 4 == 3 else 400,
            )
            for radius in (0, 1):
                scan = find_disruptions(trace, t, radius, protocol)
                if scan.never_stabilized:
                    expected = dict.fromkeys(c_correct_set(t, radius), 0)
                else:
                    expected = count_o_changes(trace, t, radius, protocol, scan.stabilization_index)
                assert scan.per_process_changes == expected, (protocol.name, seed, radius)
                seen.add("never stabilized" if scan.never_stabilized else "changes" if any(expected.values()) else "quiet")
        assert seen == {"never stabilized", "changes", "quiet"}, protocol.name


def test_radius_monotonicity():
    t = build_topology(path_edges(6), root=0, byzantine=[5], neighbor_seed=2, mode="ss-st")
    assert c_correct_set(t, 2) <= c_correct_set(t, 1) <= c_correct_set(t, 0)
    trace, _ = quick_run(
        t, SS_ST, "oscillate", {"period": 1, "cycles": 4},
        init=st_legit(t, 4), daemon_seed=5, adversary_seed=6, max_steps=900,
    )
    check0 = StabilityChecker(t, SS_ST, 0)
    check2 = StabilityChecker(t, SS_ST, 2)
    for cfg in trace.configs[:: max(1, len(trace.configs) // 40)]:
        if check0.anchor(cfg):
            assert check2.anchor(cfg)  # wider radius watches fewer processes


def test_report_checks_total_against_n_times_per_process():
    t = st_topology(3, byz=(2,), seed=1)
    trace, _ = quick_run(
        t, SS_ST, "oscillate", {"period": 1, "cycles": 3},
        init=st_legit(t, 1), daemon_seed=2, adversary_seed=3, max_steps=400,
    )
    report = verify_containment(trace, t, SS_ST, 0, {"st_disruptions": (2, "max")})
    prop = report.bounds_checked["prop_total_le_n_times_k"]
    assert prop.passed and report.t_observed <= t.n * report.k_observed + 0
    text = render_report(report)
    assert text == render_report(report)  # stable rendering
    assert "prop_total_le_n_times_k" in text


def test_never_stabilized_flag():
    # three steps from this arbitrary start never satisfy the spec everywhere
    t = to_topology(6)
    trace, _ = quick_run(t, SS_TO, init_seed=1, max_steps=3)
    assert not any(all(spec_to(v, cfg, t) for v in range(t.n)) for cfg in trace.configs)
    scan = find_disruptions(trace, t, 0, SS_TO)
    assert scan.never_stabilized and scan.stabilization_index is None and scan.disruptions == []
    assert scan.verdict == "FAIL"  # a run that never stabilized has shown nothing about the bounds
    report = verify_containment(trace, t, SS_TO, 0, {"to_rounds": (12, "max")})  # 2d+2 on the 6-path
    assert "bound to_rounds observed -1 <= limit 12 FAIL\nresult FAIL\n" in render_report(report)


def test_oracle_two_node_orientation_converges_everywhere():
    t = to_topology(2)
    result = brute_force_verify(t, SS_TO, "converges-to", level_bound=4)
    assert result.converges is True
    assert not result.diverged_by_cycle
    assert result.states_explored == 2500  # 25 state pairs x 100 register pairs


def _enumerate_domain(topo, protocol, level_bound):
    """Every configuration with in-domain states and registers, in the product order of
    `_domain_choices`: the reference the oracle's coded starts are checked against."""
    choices = analysis._domain_choices(topo, protocol, level_bound)
    for states in itertools.product(*choices[: topo.n]):
        for regs in itertools.product(*choices[topo.n :]):
            yield Configuration(states, regs)


def _flip(view):
    return LocalEffect(view.state._replace(level=1 - view.state.level), view.out_regs)


class _Toggle(TreeOrientationProtocol):
    """ss-to's domains and legitimate set, with one always-enabled action that flips a level between 0 and 1."""

    _actions = (GuardedAction("FLIP", lambda view: True, _flip),)


class _Idle(TreeOrientationProtocol):
    """ss-to's domains and legitimate set, with no actions: every configuration is terminal."""

    _actions = ()


def test_oracle_convergence_fails_on_a_cycle():
    t = to_topology(2)
    result = brute_force_verify(t, _Toggle(), "converges-to", level_bound=1)
    assert result.converges is False and result.diverged_by_cycle
    assert result.counterexample == next(_enumerate_domain(t, SS_TO, 1))


def test_oracle_convergence_fails_when_disabled_outside_lc0():
    t = to_topology(2)
    result = brute_force_verify(t, _Idle(), "converges-to", level_bound=1)
    first = next(_enumerate_domain(t, SS_TO, 1))
    assert result.converges is False and not result.diverged_by_cycle
    assert result.counterexample == first
    assert first not in set(SS_TO.legitimate_set(t, analysis._level_cap(t, 1)))


def _flip_shown(view):
    level = 1 - view.state.level
    return LocalEffect(view.state._replace(level=level), tuple(r._replace(level=level) for r in view.out_regs))


class _StuckAndCycle(TreeOrientationProtocol):
    """ss-to's domains and legitimate set, with one action: a process whose in-registers all show
    level 0 flips its level and shows it, unless it is a leaf at level 1. On the 3-path its registers
    keep parent bit false, so no reached configuration is legitimate; from the first configuration,
    process 0's move leads to a stuck one and process 1's move and back is a cycle."""

    _actions = (
        GuardedAction(
            "FLIP",
            lambda view: all(r.level == 0 for r in view.in_regs) and (view.degree == 2 or view.state.level == 0),
            _flip_shown,
        ),
    )


# --- the convergence walk against the post-order search ----------------------
#
# The reference below is the earlier convergence query: a post-order DFS that
# memoizes True and False verdicts, marks every cycle it meets and so walks all
# of a failing start's reachable configurations before it stops.

def _ref_oracle_converges(topo, protocol, level_bound):
    kernel, level_cap = Kernel(topo, protocol), analysis._level_cap(topo, level_bound)
    legitimate = set(protocol.legitimate_set(topo, level_cap))
    memo, cycle_nodes = {}, set()
    result = analysis.OracleResult(prop="converges-to", converges=True)

    def converges_from(start):
        stack, on_stack = [(start, None)], set()
        while stack:
            cfg, children = stack.pop()
            if children is None:
                if cfg in memo:
                    continue
                if cfg in on_stack:
                    result.diverged_by_cycle = True
                    cycle_nodes.add(cfg)
                    continue
                succs = []
                for _, effect, nxt in kernel.moves(cfg):
                    if effect.state.level > level_cap:
                        raise OracleCapError("level escaped the bounded domain")
                    succs.append(nxt)
                if not succs:
                    memo[cfg] = cfg in legitimate
                    continue
                on_stack.add(cfg)
                stack.append((cfg, succs))
                stack.extend((nxt, None) for nxt in succs)
            else:
                on_stack.discard(cfg)
                memo[cfg] = cfg not in cycle_nodes and all(memo.get(nxt, False) for nxt in children)
        return memo[start]

    for cfg in _enumerate_domain(topo, protocol, level_bound):
        result.states_explored += 1
        if not converges_from(cfg):
            result.converges, result.counterexample = False, cfg
            break
    result.states_explored = max(result.states_explored, len(memo))
    return result


# ss-st on the 3-path at level bound 2 (419 904 starts, some 8 s a query) is left out for time
@pytest.mark.parametrize(
    "protocol,root,n,level_bound",
    [
        pytest.param(protocol, root, n, lb, id=f"{protocol.name}-path{n}-lb{lb}")
        for protocol, root, n, lb in [(SS_TO, None, n, lb) for n in (2, 3) for lb in (1, 2)]
        + [(SS_ST, 0, 2, 1), (SS_ST, 0, 2, 2), (SS_ST, 0, 3, 1)]
    ],
)
def test_convergence_walk_matches_post_order_search(protocol, root, n, level_bound):
    for topo in _every_neighbor_order(path_edges(n), root=root, mode=protocol.name):
        got = brute_force_verify(topo, protocol, "converges-to", level_bound)
        want = _ref_oracle_converges(topo, protocol, level_bound)
        fields = ("converges", "counterexample", "states_explored")
        assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields], topo.neighbor_order
        assert got.converges


@pytest.mark.parametrize("toy,n", [(_Toggle, 2), (_Idle, 2), (_StuckAndCycle, 3)])
def test_convergence_walk_matches_post_order_search_on_toys(toy, n):
    topo = to_topology(n)
    got = brute_force_verify(topo, toy(), "converges-to", level_bound=1)
    want = _ref_oracle_converges(topo, toy(), 1)
    assert (got.converges, got.counterexample) == (want.converges, want.counterexample) == (False, next(_enumerate_domain(topo, SS_TO, 1)))


def test_convergence_walk_reports_its_first_failure():
    # the walk takes process 0's move first and meets the stuck configuration before the
    # cycle, which the post-order search, walking everything the start reaches, also marks
    topo = to_topology(3)
    got = brute_force_verify(topo, _StuckAndCycle(), "converges-to", level_bound=1)
    assert not got.diverged_by_cycle and _ref_oracle_converges(topo, _StuckAndCycle(), 1).diverged_by_cycle
    assert got.states_explored == 3  # the start, process 0's move, then process 2's: stuck


class _PointsAtHighest(TreeOrientationProtocol):
    """ss-to's domains and legitimate set, with ss-to's GA1 always enabled: a process points at
    the neighbor showing the highest level, even a lower one, so a Byzantine leaf that shows a
    level above its neighbor's takes it as a child and lets it go, one disruption per round trip."""

    _actions = (GuardedAction("GA1", lambda view: True, ga1),)


def _rise(view):
    level = max(r.level for r in view.in_regs)
    return LocalEffect(view.state._replace(level=level), tuple(r._replace(level=level) for r in view.out_regs))


def _swap_parent(view):
    return LocalEffect(view.state._replace(prnt=3 - view.state.prnt), view.out_regs)


class _RiseThenSpin(TreeOrientationProtocol):
    """ss-to's domains and legitimate set, with two actions: a process takes up a higher level
    shown to it, and a process of degree 2 above level 0 swaps its parent. A Byzantine leaf that
    shows level 1 sets its neighbor swapping forever: no disruption ever ends, but the changes
    never stop."""

    _actions = (
        GuardedAction("RISE", lambda view: any(r.level > view.state.level for r in view.in_regs), _rise),
        GuardedAction("SPIN", lambda view: view.degree == 2 and view.state.level > 0, _swap_parent),
    )


@pytest.mark.parametrize("level_bound,anchors,states", [(1, 10, 16), (2, 26, 48)])
def test_oracle_reports_unbounded_disruptions(tmp_path, monkeypatch, capsys, level_bound, anchors, states):
    t = to_topology(3, byz=(0,))  # the 3-path with Byzantine leaf 0
    result = brute_force_verify(t, _PointsAtHighest(), "worst-disruptions", level_bound)
    assert result.unbounded_disruptions and (result.anchors, result.states_explored) == (anchors, states)
    assert result.worst_disruptions is None and result.worst_per_process is None
    anchor = min(_PointsAtHighest().legitimate_set(t, level_bound))
    with pytest.raises(OracleCapError, match="disruption count is unbounded from this start"):
        analysis.best_disruption_play(t, _PointsAtHighest(), anchor, level_bound)
    monkeypatch.setitem(cli.PROTOCOLS, "ss-to", _PointsAtHighest())
    topo = tmp_path / "path3.topo"
    topo.write_text("n 3\nbyz 0\nedge 0 1\nedge 1 2\n", encoding="utf-8")
    assert cli.main(["oracle", "--topology", str(topo), "--protocol", "ss-to", "--level-bound", str(level_bound)]) == 1
    assert capsys.readouterr().out == f"anchors: {anchors}\nworst disruptions: UNBOUNDED\n"


def test_oracle_reports_unbounded_changes_with_bounded_disruptions(tmp_path, monkeypatch, capsys):
    t = to_topology(3, byz=(0,))
    result = brute_force_verify(t, _RiseThenSpin(), "worst-disruptions", 1)
    assert result.unbounded_changes and not result.unbounded_disruptions and result.unbounded
    assert (result.anchors, result.states_explored) == (4, 56)
    assert result.worst_disruptions == 0 and result.best_play == [] and result.worst_per_process is None
    # a bounded disruption count gives a play, however the changes go
    anchor = min(_RiseThenSpin().legitimate_set(t, 1))
    assert analysis.best_disruption_play(t, _RiseThenSpin(), anchor, 1) == (0, [])
    monkeypatch.setitem(cli.PROTOCOLS, "ss-to", _RiseThenSpin())
    topo = tmp_path / "path3.topo"
    topo.write_text("n 3\nbyz 0\nedge 0 1\nedge 1 2\n", encoding="utf-8")
    assert cli.main(["oracle", "--topology", str(topo), "--protocol", "ss-to", "--level-bound", "1"]) == 1
    assert capsys.readouterr().out == "anchors: 4\nworst disruptions: 0\nworst per-process changes: UNBOUNDED\n"


def test_oracle_worst_disruptions_three_node_construction():
    # golden values minted by this oracle: one deception is the exact worst
    # case on the 3-path with a Byzantine leaf, within bounds f*D^d=2, D^d=2
    t = st_topology(3, byz=(2,), seed=1)
    result = brute_force_verify(t, SS_ST, "worst-disruptions", level_bound=3)
    assert not result.unbounded
    assert result.worst_disruptions == 1 <= 2
    assert result.worst_per_process == 1 <= 2


def test_oracle_worst_disruptions_three_node_orientation():
    t = to_topology(3, byz=(2,), seed=1)
    result = brute_force_verify(t, SS_TO, "worst-disruptions", level_bound=3)
    assert not result.unbounded
    assert result.worst_disruptions <= t.degree(2) == 1
    assert result.worst_per_process <= 1


def test_oracle_caps(monkeypatch):
    # each branch of a 5-path with a middle Byzantine process has 112 LC1 configurations at level bound 3
    monkeypatch.setattr(analysis, "STATE_CAP", 100)
    t5 = build_topology(path_edges(5), byzantine=[2], mode="ss-to")
    with pytest.raises(OracleCapError, match="legitimate configurations exceed cap 100"):
        brute_force_verify(t5, SS_TO, "worst-disruptions", level_bound=3)
    t = st_topology(3)
    with pytest.raises(OracleCapError):
        brute_force_verify(t, SS_ST, "converges-to", level_bound=6)


@pytest.mark.parametrize(
    "protocol,kwargs,edges,level_bound,worst",
    [
        # Δ_z = 2 is tight in the middle of a 5-path
        pytest.param(SS_TO, dict(byzantine=[2], mode="ss-to"), path_edges(5), 2, (2, 1), id="ss-to-path5-byz-middle-lb2"),
        pytest.param(
            SS_ST, dict(root=0, byzantine=[2], mode="ss-st"), [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], 3, (3, 3),
            id="ss-st-cycle5-lb3",
        ),
    ],
)
def test_oracle_five_processes(protocol, kwargs, edges, level_bound, worst):
    result = brute_force_verify(build_topology(edges, **kwargs), protocol, "worst-disruptions", level_bound)
    assert (result.worst_disruptions, result.worst_per_process) == worst and not result.unbounded


def test_oracle_answer_ignores_the_stability_budget(monkeypatch):
    # a budget-0 search cannot settle the LC1 anchors of a 4-path with an inner Byzantine
    # process; the oracle decides stability without a budget, so its answer stays the same
    t = to_topology(byz=(1,), edges=path_edges(4))
    want = brute_force_verify(t, SS_TO, "worst-disruptions", level_bound=1)
    monkeypatch.setattr(analysis, "STABILITY_BUDGET", 0)
    checker = StabilityChecker(t, SS_TO, 0)
    assert any(checker.check(cfg) is Stability.UNKNOWN for cfg in SS_TO.legitimate_set(t, 1))
    got = brute_force_verify(t, SS_TO, "worst-disruptions", level_bound=1)
    for name in (*_GAME_FIELDS, "best_anchor", "best_play"):
        assert getattr(got, name) == getattr(want, name), name


# --- fast paths against the exhaustive ones, on small instances --------------

def _small_instances():
    """Paths and stars with n <= 5 for both protocols: fault-free, and with
    one Byzantine process at a leaf, and (ss-to) at an inner process."""
    paths = [(f"path{n}", path_edges(n), 1) for n in (3, 4, 5)]
    stars = [(f"star{n}", [(0, i) for i in range(1, n)], 0) for n in (4, 5)]
    for name, edges, inner in paths + stars:
        n = len(edges) + 1
        yield pytest.param(SS_ST, st_topology(edges=edges, seed=n), id=f"ss-st-{name}")
        yield pytest.param(SS_ST, st_topology(byz=(n - 1,), edges=edges, seed=n), id=f"ss-st-{name}-byz-leaf")
        yield pytest.param(SS_TO, to_topology(edges=edges, seed=n), id=f"ss-to-{name}")
        yield pytest.param(SS_TO, to_topology(byz=(n - 1,), edges=edges, seed=n), id=f"ss-to-{name}-byz-leaf")
        yield pytest.param(SS_TO, to_topology(byz=(inner,), edges=edges, seed=n), id=f"ss-to-{name}-byz-inner")


@pytest.mark.parametrize("protocol,topo", _small_instances())
def test_fast_stable_implies_exhaustive_search_stable(protocol, topo):
    # ss-to's fast path is LC2, so it needs its one Byzantine process; every
    # other legitimate start is quiescent, which the search settles at once
    has_fast_path = protocol is SS_TO and bool(topo.byzantine)
    kinds = ["lc1", "lc2"] if has_fast_path else [None]
    adversary = "level-inflation" if protocol is SS_TO else "oscillate"
    configs = {}
    for seed in range(4):
        for kind in kinds:
            init = protocol.legitimate_configuration(topo, seed, kind)
            trace, _ = quick_run(topo, protocol, adversary, init=init, daemon_seed=seed, adversary_seed=seed, max_steps=40)
            configs.update(dict.fromkeys(trace.configs))
        trace, _ = quick_run(topo, protocol, adversary, init_seed=seed, daemon_seed=seed, adversary_seed=seed, max_steps=60)
        configs.update(dict.fromkeys(trace.configs))
    checker, quiescent = StabilityChecker(topo, protocol, 0), Kernel(topo, protocol).quiescent
    fast = [cfg for cfg in configs if protocol.fast_stable(cfg, topo)]
    quiet = [cfg for cfg in configs if quiescent(cfg)]
    assert fast if has_fast_path else quiet and not fast
    for cfg in fast:
        assert checker._search(cfg) is Stability.STABLE
    for cfg in quiet:
        assert checker.check(cfg) is checker._search(cfg) is Stability.STABLE


def _legitimate_set_cases():
    """The small instances (ss-to with a Byzantine process at level bound 1:
    every register value of the Byzantine writer multiplies the widened
    domain), a fault-free ss-to tree that branches, and ss-st on a 4-cycle,
    where parents can point around the cycle."""
    for case in _small_instances():
        protocol, topo = case.values
        yield pytest.param(protocol, topo, 1 if protocol is SS_TO and topo.byzantine else 2, id=case.id)
    spider = to_topology(edges=[(0, 1), (0, 2), (0, 3), (1, 4), (2, 5)], seed=6)
    yield pytest.param(SS_TO, spider, 2, id="ss-to-spider6")
    cycle4 = [(0, 1), (1, 2), (2, 3), (0, 3)]
    yield pytest.param(SS_ST, st_topology(edges=cycle4, seed=4), 3, id="ss-st-cycle4")
    yield pytest.param(SS_ST, st_topology(byz=(2,), edges=cycle4, seed=4), 3, id="ss-st-cycle4-byz")


def _membership(protocol, topo):
    """The legitimate set's predicate: LC1 for ss-to with a Byzantine process, else quiescence."""
    if protocol is SS_TO and topo.byzantine:
        return lambda cfg: in_lc1(cfg, topo)
    return Kernel(topo, protocol).quiescent


@pytest.mark.parametrize("protocol,topo,level_bound", _legitimate_set_cases())
def test_lc_anchors_are_the_legitimate_configurations_of_the_domain(protocol, topo, level_bound):
    generated = list(protocol.legitimate_set(topo, level_bound))
    for cfg in generated:
        assert all(protocol.spec(v, cfg, topo) for v in c_correct_set(topo, 0))
    # every correct process over its whole state domain, Byzantine states
    # pinned and their registers over the register domain: the members the
    # predicate keeps, in (ascending) product order, are the generated set sorted
    in_set = _membership(protocol, topo)
    pinned = [ProcessState(protocol.prnt_min, 0)]
    choices = [protocol.state_domain(topo.degree(v), level_bound) if v in topo.correct else pinned for v in range(topo.n)]
    byz_slots = [slot for b in sorted(topo.byzantine) for slot in topo.out_slot[b]]
    byz_values = protocol.register_domain(level_bound, RegisterValue(False, 0))
    members = []
    for states in itertools.product(*choices):
        registers = list(consistent_registers(topo, states))
        for combo in itertools.product(byz_values, repeat=len(byz_slots)):
            for slot, value in zip(byz_slots, combo):
                registers[slot] = value
            cfg = Configuration(states, tuple(registers))
            if in_set(cfg):
                members.append(cfg)
    assert sorted(generated) == members


def test_level_cap_set_decides_convergence_like_the_predicate():
    # every configuration the path3 convergence queries reach, terminal ones
    # included, is in the level-cap set exactly when the predicate holds
    for protocol, root in ((SS_TO, None), (SS_ST, 0)):
        topo = build_topology(path_edges(3), root=root, mode=protocol.name)
        in_set = _membership(protocol, topo)
        kernel, level_cap = Kernel(topo, protocol), analysis._level_cap(topo, 1)
        legitimate = set(protocol.legitimate_set(topo, level_cap))
        reached = set(_enumerate_domain(topo, protocol, 1))
        stack, terminal = list(reached), 0
        while stack:
            cfg = stack.pop()
            assert (cfg in legitimate) == in_set(cfg), cfg
            successors = []
            for _, effect, nxt in kernel.moves(cfg):
                assert effect.state.level <= level_cap, cfg  # the query would refuse the move
                successors.append(nxt)
            terminal += not successors
            for nxt in successors:
                if nxt not in reached:
                    reached.add(nxt)
                    stack.append(nxt)
        assert terminal and max(s.level for cfg in reached for s in cfg.states) > 1


# --- the compact game against the product game --------------------------------
#
# The reference below is the earlier game: every edge keeps its move and a
# frozenset of changed processes, a Byzantine move writes any combination of
# its out-registers (each kept or set to a value of its domain) through
# `apply_effects`, correct moves come from
# `ref_fire` (no memo), nodes are keyed by (configuration, dirty) tuples, and the
# longest paths scan every edge per weight function.

def _ref_byz_write_options(topo, protocol, cfg, b, level_bound):
    # a register may also keep its value, which a supplied start may hold outside the write domain
    per_edge = [
        dict.fromkeys([*protocol.register_domain(level_bound, cfg.registers[slot]), cfg.registers[slot]])
        for slot in topo.out_slot[b]
    ]
    for combo in itertools.product(*per_edge):
        yield LocalEffect(state=cfg.states[b], out_regs=tuple(combo))


def _fresh_moves(topo, protocol, cfg):
    moves = []
    for v in sorted(topo.correct):
        fired = ref_fire(protocol, protocol.role_of(topo, v), local_view(topo, cfg, v))
        if fired is not None:
            moves.append((v, apply_effects(cfg, topo, [(v, fired[1])])))
    return moves


class _RefGame:
    def __init__(self, topo, protocol, level_bound, radius, state_cap):
        self.topo, self.protocol, self.level_bound, self.state_cap = topo, protocol, level_bound, state_cap
        self.watch = c_correct_set(topo, radius)
        self.checker = StabilityChecker(topo, protocol, radius)
        self.level_cap = level_bound + 2 * topo.n + 2
        self._anchor_cache = {}
        self.index = {}
        self.nodes = []
        self.edges = []

    def is_anchor(self, cfg):
        hit = self._anchor_cache.get(cfg)
        if hit is None:
            hit = self._anchor_cache[cfg] = self.checker.anchor(cfg)
        return hit

    def node_id(self, node):
        nid = self.index.get(node)
        if nid is None:
            nid = len(self.nodes)
            if nid > self.state_cap:
                raise OracleCapError("game graph too large")
            self.index[node] = nid
            self.nodes.append(node)
            self.edges.append(None)
        return nid

    def expand(self, starts):
        start_ids = [self.node_id(s) for s in starts]
        stack = list(start_ids)
        while stack:
            nid = stack.pop()
            if self.edges[nid] is not None:
                continue
            cfg, dirty = self.nodes[nid]
            out = []
            for move, nxt, changed in self._successors(cfg):
                d2 = dirty or bool(changed & self.watch)
                weight = 0
                if self.is_anchor(nxt):
                    weight = 1 if d2 else 0
                    d2 = False
                tid = self.node_id((nxt, d2))
                out.append((tid, weight, changed & self.watch, move))
                if self.edges[tid] is None:
                    stack.append(tid)
            self.edges[nid] = out
        return start_ids

    def _successors(self, cfg):
        for v, nxt in _fresh_moves(self.topo, self.protocol, cfg):
            if any(s.level > self.level_cap for s in nxt.states):
                raise OracleCapError("level escaped the bounded domain")
            changed = frozenset([v] if self.protocol.o_changed(cfg.states[v], nxt.states[v]) else [])
            yield (v, None), nxt, changed
        for b in sorted(self.topo.byzantine):
            for write in _ref_byz_write_options(self.topo, self.protocol, cfg, b, self.level_bound):
                nxt = apply_effects(cfg, self.topo, [(b, write)])
                if nxt != cfg:
                    yield (b, write), nxt, frozenset()

    def sccs(self):
        # iterative Tarjan with an explicit on-stack flag and edge cursors
        n = len(self.nodes)
        comp, low, num, on_stack = [-1] * n, [0] * n, [-1] * n, [False] * n
        counter = comp_count = 0
        stack_s = []
        for root in range(n):
            if num[root] != -1:
                continue
            work = [(root, 0)]
            while work:
                v, pi = work[-1]
                if pi == 0:
                    num[v] = low[v] = counter
                    counter += 1
                    stack_s.append(v)
                    on_stack[v] = True
                advanced = False
                out = self.edges[v] or []
                while pi < len(out):
                    w = out[pi][0]
                    pi += 1
                    if num[w] == -1:
                        work[-1] = (v, pi)
                        work.append((w, 0))
                        advanced = True
                        break
                    if on_stack[w]:
                        low[v] = min(low[v], num[w])
                if advanced:
                    continue
                if low[v] == num[v]:
                    while True:
                        w = stack_s.pop()
                        on_stack[w] = False
                        comp[w] = comp_count
                        if w == v:
                            break
                    comp_count += 1
                work.pop()
                if work:
                    u, _ = work[-1]
                    low[u] = min(low[u], low[v])
        return comp, comp_count

    def longest(self, comp, comp_count, weight_of):
        for nid in range(len(self.nodes)):
            for tid, w, changed, _ in self.edges[nid]:
                if comp[nid] == comp[tid] and weight_of(w, changed) > 0:
                    return None, True
        value = [0] * comp_count
        for nid in sorted(range(len(self.nodes)), key=lambda nid: comp[nid]):
            for tid, w, changed, _ in self.edges[nid]:
                if comp[tid] != comp[nid]:
                    value[comp[nid]] = max(value[comp[nid]], weight_of(w, changed) + value[comp[tid]])
        return value, False


def _ref_extract_play(game, comp, value, start):
    play = []
    nid = start
    remaining = value[comp[start]]
    while remaining > 0:
        prev = {nid: None}
        queue = [nid]
        hop = None
        while queue and hop is None:
            cur = queue.pop(0)
            for tid, w, _, move in game.edges[cur]:
                if w == 1 and value[comp[tid]] == remaining - 1:
                    hop = (cur, tid, move)
                    break
                if w == 0 and value[comp[tid]] == remaining and tid not in prev:
                    prev[tid] = (cur, move)
                    queue.append(tid)
        cur, tid, move = hop
        path = []
        node = cur
        while prev[node] is not None:
            node, pmove = prev[node]
            path.append(pmove)
        play.extend(reversed(path))
        play.append(move)
        nid = tid
        remaining -= 1
    return play


def _ref_oracle_worst(topo, protocol, level_bound, state_cap=500_000, anchors=None):
    game = _RefGame(topo, protocol, level_bound, 0, state_cap)
    if anchors is None:
        anchors = [c for c in sorted(protocol.legitimate_set(topo, level_bound)) if game.is_anchor(c)]
    result = analysis.OracleResult(prop="worst-disruptions", anchors=len(anchors))
    start_ids = game.expand([(c, False) for c in anchors])
    comp, comp_count = game.sccs()
    result.states_explored = len(game.nodes)
    value, unbounded = game.longest(comp, comp_count, lambda w, ch: w)
    if unbounded:
        result.unbounded_disruptions = result.unbounded_changes = True
        return result
    best = max(value[comp[s]] for s in start_ids)
    result.worst_disruptions = best
    best_start = next(s for s in start_ids if value[comp[s]] == best)
    result.best_anchor = game.nodes[best_start][0]
    result.best_play = _ref_extract_play(game, comp, value, best_start)
    worst_k = 0
    for p in sorted(game.watch):
        val_p, unb = game.longest(comp, comp_count, lambda w, ch, p=p: 1 if p in ch else 0)
        if unb:
            result.unbounded_changes = True
            return result
        worst_k = max(worst_k, max(val_p[comp[s]] for s in start_ids))
    result.worst_per_process = worst_k
    return result


def _every_neighbor_order(edges, **kwargs):
    base = build_topology(edges, **kwargs)
    for order in itertools.product(*(itertools.permutations(o) for o in base.neighbor_order)):
        yield build_topology(edges, neighbor_order=order, **kwargs)


def _assert_single_register_writes(topo, protocol, anchor, play):
    # replay the play: every Byzantine step changes exactly one of its out-registers
    cfg = anchor
    for pid, write in play:
        if write is None:
            write = ref_fire(protocol, protocol.role_of(topo, pid), local_view(topo, cfg, pid))[1]
        else:
            own = cfg.registers[topo.register_access[pid][2]]
            assert sum(a != b for a, b in zip(own, write.out_regs)) == 1, (own, write)
        cfg = apply_effects(cfg, topo, [(pid, write)])


_GAME_CASES = [
    pytest.param(SS_ST, dict(root=0, byzantine=[2], mode="ss-st"), [(0, 1), (1, 2), (2, 3), (0, 3)], 2, id="ss-st-cycle4-lb2"),
    pytest.param(SS_ST, dict(root=0, byzantine=[2], mode="ss-st"), [(0, 1), (1, 2), (2, 3), (0, 3)], 3, id="ss-st-cycle4-lb3"),
    pytest.param(SS_TO, dict(byzantine=[1], mode="ss-to"), path_edges(4), 2, id="ss-to-path4-byz-inner-lb2"),
    pytest.param(SS_TO, dict(byzantine=[0], mode="ss-to"), [(0, 1), (0, 2), (0, 3)], 1, id="ss-to-star4-byz-centre-lb1"),
]
_GAME_FIELDS = ("anchors", "worst_disruptions", "worst_per_process", "unbounded")


@pytest.mark.parametrize("protocol,kwargs,edges,level_bound", _GAME_CASES)
def test_compact_game_matches_move_storing_game(protocol, kwargs, edges, level_bound):
    orders = 0
    for topo in _every_neighbor_order(edges, **kwargs):
        orders += 1
        got = brute_force_verify(topo, protocol, "worst-disruptions", level_bound)
        want = _ref_oracle_worst(topo, protocol, level_bound)
        for name in _GAME_FIELDS:
            assert getattr(got, name) == getattr(want, name), (name, topo.neighbor_order)
        _assert_single_register_writes(topo, protocol, got.best_anchor, got.best_play)
    assert orders == math.prod(math.factorial(len(edges_of)) for edges_of in topo.neighbor_order)


# every tree shape with 3 to 6 processes
_TREE_SHAPES = {
    "path3": path_edges(3),
    "path4": path_edges(4),
    "star4": [(0, 1), (0, 2), (0, 3)],
    "path5": path_edges(5),
    "star5": [(0, 1), (0, 2), (0, 3), (0, 4)],
    "fork5": [(0, 1), (1, 2), (2, 3), (2, 4)],
    "path6": path_edges(6),
    "star6": [(0, i) for i in range(1, 6)],
    "fork6-inner": [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)],
    "fork6-middle": [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)],
    "double-star6": [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)],
    "long-arm6": [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5)],
}


def _inner_byzantine_cases():
    """Each tree shape with each process of degree two or more as the Byzantine one, at level
    bound 1, and at level bound 2 for the shapes up to 5 processes but the 5-star."""
    for name, edges in _TREE_SHAPES.items():
        n = len(edges) + 1
        bounds = (1, 2) if n <= 5 and name != "star5" else (1,)
        for z in range(n):
            if sum(z in edge for edge in edges) >= 2:
                for level_bound in bounds:
                    yield pytest.param(edges, z, level_bound, id=f"{name}-byz{z}-lb{level_bound}")


def _play_trace(topo, protocol, start, play):
    """The trace of `play` from `start`, one mover a step through `Kernel.step`."""
    kernel, configs = Kernel(topo, protocol), [start]
    for pid, write in play:
        actions, nxt = kernel.step(configs[-1], frozenset([pid]), {} if write is None else {pid: write})
        assert write is not None or actions[pid], (pid, "a correct move of the play must fire")
        configs.append(nxt)
    return ExecutionTrace(configs, [], [])


@pytest.mark.parametrize("edges,z,level_bound", _inner_byzantine_cases())
def test_composed_oracle_matches_the_whole_game(edges, z, level_bound):
    # the branches' answers compose into the whole tree's, and the composed play from the
    # composed anchor scores the composed worst case
    topo = build_topology(edges, byzantine=[z], mode="ss-to")
    assert len(SS_TO.pieces(topo)) == topo.degree(z)
    got = brute_force_verify(topo, SS_TO, "worst-disruptions", level_bound)
    want = analysis._oracle_worst(topo, SS_TO, level_bound, 0, None)
    for name in _GAME_FIELDS:
        assert getattr(got, name) == getattr(want, name), name
    assert got.best_anchor in set(SS_TO.legitimate_set(topo, level_bound))
    trace = _play_trace(topo, SS_TO, got.best_anchor, got.best_play)
    assert find_disruptions(trace, topo, 0, SS_TO).t_observed == got.worst_disruptions


def test_move_memo_matches_fresh_fire(monkeypatch):
    # a query fires its misses unmemoized, so its kernel's memo stays empty and the coding's
    # per-view memo is its one memo; each entry is the move a fresh kernel finds on the decoded
    # configuration, and a second query, on another neighbor order, starts from an empty memo of its own
    made = []

    class Recorded(analysis._Coding):
        def __init__(self, *args):
            super().__init__(*args)
            made.append((self, sum(map(len, self.kernel.memo.values())) + sum(len(memo) for _, _, memo in self._views)))

    monkeypatch.setattr(analysis, "_Coding", Recorded)
    for protocol, root in ((SS_TO, None), (SS_ST, 0)):
        made.clear()
        for order in ([[1], [0, 2], [1]], [[1], [2, 0], [1]]):
            topo = build_topology(path_edges(3), root=root, neighbor_order=order, mode=protocol.name)
            assert brute_force_verify(topo, protocol, "converges-to", 1).converges
            coding, fresh = made[-1][0], Kernel(topo, protocol)
            assert not any(coding.kernel.memo.values())
            for v, _, memo in coding._views:
                for key, move in memo.items():
                    cfg = coding.decode(key)
                    want = [
                        (v, coding.encode(nxt) - key, protocol.o_changed(cfg.states[v], effect.state))
                        for u, effect, nxt in fresh.moves(cfg)
                        if u == v
                    ]
                    assert ([move] if move else []) == want, (v, cfg)
        (first, empty_first), (second, empty_second) = made
        assert empty_first == empty_second == 0
        assert all(memo and memo is not other for (_, _, memo), (_, _, other) in zip(first._views, second._views))


def _start_ids(game, configs):
    """The clean node of each anchor among `configs`, in order."""
    codes = map(game.coding.encode, configs)
    return [game._node(entry, code, False) for code in codes if (entry := game.entry(code))[0]]


def test_compact_game_state_cap(monkeypatch):
    # the query's 49 legitimate configurations are refused past a cap of 20;
    # below the cap, the game graph itself stops at it
    topo = build_topology([(0, 1), (1, 2), (2, 3), (0, 3)], root=0, byzantine=[2], mode="ss-st")
    monkeypatch.setattr(analysis, "STATE_CAP", 20)
    with pytest.raises(OracleCapError, match="legitimate configurations exceed cap 20"):
        brute_force_verify(topo, SS_ST, "worst-disruptions", 3)
    monkeypatch.setattr(analysis, "STATE_CAP", 49)
    with pytest.raises(OracleCapError, match="exceeds 49 nodes"):
        brute_force_verify(topo, SS_ST, "worst-disruptions", 3)
    # the game has 328 nodes: a cap of 328 holds it, and a cap one below refuses it
    monkeypatch.setattr(analysis, "STATE_CAP", 328)
    assert brute_force_verify(topo, SS_ST, "worst-disruptions", 3).states_explored == 328
    monkeypatch.setattr(analysis, "STATE_CAP", 327)
    with pytest.raises(OracleCapError, match="exceeds 327 nodes"):
        brute_force_verify(topo, SS_ST, "worst-disruptions", 3)
    # from at most 20 starts, which fit under a cap of 20, the walk that builds the graph meets it
    monkeypatch.setattr(analysis, "STATE_CAP", 20)
    game = analysis._Game(topo, SS_ST, 3, 0)
    start_ids = _start_ids(game, sorted(SS_ST.legitimate_set(topo, 3))[:20])
    with pytest.raises(OracleCapError, match="exceeds 20 nodes"):
        game.solve(start_ids)


_edge_lists = st.lists(
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 1), st.sampled_from([None, 0, 1])), max_size=4),
    min_size=1,
    max_size=8,
)


@settings(max_examples=300, deadline=None)
@given(adjacency=_edge_lists)
def test_condensed_longest_matches_edge_scan(adjacency):
    # random graphs, positive cycles included, on the walk that values the game alone: from
    # every node in id order, `solve` numbers components as the reference Tarjan does, and each
    # entry of each value vector, and each unbounded flag, is the reference's longest path
    n = len(adjacency)
    edges = [[(t % n, w, ch) for t, w, ch in out] for out in adjacency]
    game = analysis._Game.__new__(analysis._Game)
    game.nodes, game.edges, game.watch = [None] * n, [None] * n, {0, 1}
    game._edges = lambda nid: list(edges[nid])
    game.solve(list(range(n)))
    assert game.edges == edges
    ref = _RefGame.__new__(_RefGame)
    ref.nodes = game.nodes
    ref.edges = [[(t, w, frozenset() if ch is None else frozenset([ch]), None) for t, w, ch in out] for out in edges]
    comp, comp_count = ref.sccs()
    assert game.comp == comp and len(game.values) == comp_count
    weights = [lambda w, ch: w] + [lambda w, ch, p=p: 1 if p in ch else 0 for p in (0, 1)]
    longest = [ref.longest(comp, comp_count, weight_of) for weight_of in weights]
    assert game.unbounded_disruptions == longest[0][1]
    assert game.unbounded_changes == (longest[1][1] or longest[2][1])
    for k, (value, unbounded) in enumerate(longest):
        if not unbounded:
            assert [vector[k] for vector in game.values] == value


# --- the coded oracle against configurations ----------------------------------
#
# The oracle walks integer codes; `_Coding` maps them to configurations. The
# references below are configurations built by `Kernel.moves`, `Kernel.step`
# and the register splicing the game did before it walked codes.

_PATH3_DOMAINS = [pytest.param(SS_TO, None, 2, id="ss-to-lb2"), pytest.param(SS_ST, 0, 1, id="ss-st-lb1")]


@pytest.mark.parametrize("protocol,root,level_bound", _PATH3_DOMAINS)
def test_coding_round_trips_the_path3_domains(protocol, root, level_bound):
    # the domains of the path3 convergence queries: the starts decode, in order, to the product
    # of `_domain_choices`, each configuration encodes back to its start, and each start's
    # fields hold digits below their radices, within the bits the fields take together
    topo = build_topology(path_edges(3), root=root, mode=protocol.name)
    coding = analysis._Coding(topo, protocol, level_bound)
    starts = list(coding.starts())
    domain = list(_enumerate_domain(topo, protocol, level_bound))
    assert len(starts) == len(set(starts)) == len(domain) == coding.domain_size
    assert list(map(coding.decode, starts)) == domain
    assert list(map(coding.encode, domain)) == starts
    assert all(d < radix for start in starts for d, radix in zip(coding.digits(start), coding.radices))
    assert 0 <= min(starts) and max(starts) < 1 << sum((radix - 1).bit_length() for radix in coding.radices)


@st.composite
def _coded_instances(draw):
    """A random fault-free tree (ss-to) or connected graph (ss-st) on 2-5 processes, a level
    bound of 0-2, an anchor to widen the alphabets by, with levels past the level cap and
    parents past the degree, and a code drawn digit by digit."""
    n, seed, level_bound = draw(st.integers(2, 5)), draw(st.integers(0, 10_000)), draw(st.integers(0, 2))
    protocol = draw(st.sampled_from([SS_TO, SS_ST]))
    topo = random_to_topology(n, 0, seed) if protocol is SS_TO else random_st_topology(n, 0, seed)
    high = analysis._level_cap(topo, level_bound) + 3
    anchor = Configuration(
        tuple(ProcessState(draw(st.integers(0, topo.degree(v) + 1)), draw(st.integers(0, high))) for v in range(topo.n)),
        tuple(RegisterValue(draw(st.booleans()), draw(st.integers(0, high))) for _ in range(topo.num_registers)),
    )
    coding = analysis._Coding(topo, protocol, level_bound, [anchor])
    digits = [draw(st.integers(0, radix - 1)) for radix in coding.radices]
    return coding, topo, protocol, level_bound, anchor, sum(map(math.prod, zip(digits, coding.weights))), digits


@settings(max_examples=150, deadline=None)
@given(instance=_coded_instances())
def test_coding_round_trips_random_topologies(instance):
    coding, topo, protocol, level_bound, anchor, code, digits = instance
    assert coding.digits(code) == digits
    assert coding.encode(coding.decode(code)) == code
    assert coding.decode(coding.encode(anchor)) == anchor
    # each alphabet starts with the in-domain values, in order, then the level cap's
    for alphabet, inner, wide in zip(
        coding.alphabets,
        analysis._domain_choices(topo, protocol, level_bound),
        analysis._domain_choices(topo, protocol, coding.level_cap),
    ):
        assert alphabet[: len(inner)] == inner and set(alphabet[: len(wide)]) == set(wide)


def _kernel_coded_moves(coding, kernel, protocol, cfg):
    """`Kernel.moves` from `cfg` as (mover, successor's code, whether its O-variable changes);
    OracleCapError, as the coding's, at a move that passes the level cap or leaves the alphabet."""
    out = []
    for v, effect, nxt in kernel.moves(cfg):
        try:
            code = coding.encode(nxt)
        except KeyError:
            code = None
        if code is None or effect.state.level > coding.level_cap:
            raise OracleCapError("level escaped the bounded domain")
        out.append((v, code, protocol.o_changed(cfg.states[v], effect.state)))
    return out


def _outcome(moves):
    """The moves `moves()` returns, or the type and message of the error it raises: a guard
    raises ValueError at a state outside its protocol's domain, which the anchor may hold."""
    try:
        return moves()
    except (OracleCapError, ValueError) as error:
        return type(error), str(error)


@settings(max_examples=150, deadline=None)
@given(instance=_coded_instances())
def test_view_masks_match_kernel_moves_on_random_topologies(instance):
    # through one coding, the drawn code and then the code with each field in turn moved to
    # another digit: a view mask that missed a field would answer from a stale memo entry
    coding, topo, protocol, level_bound, anchor, code, digits = instance
    kernel = Kernel(topo, protocol)
    codes = [code] + [code + ((d + 1) % k - d) * w for d, k, w in zip(digits, coding.radices, coding.weights)]
    for c in codes:
        got = _outcome(lambda: [(v, c + delta, changed) for v, delta, changed in coding.moves(c)])
        assert got == _outcome(lambda: _kernel_coded_moves(coding, kernel, protocol, coding.decode(c)))


@pytest.mark.parametrize("protocol,root", [pytest.param(SS_TO, None, id="ss-to"), pytest.param(SS_ST, 0, id="ss-st")])
def test_coded_moves_match_kernel_moves(protocol, root):
    # move for move, every configuration of the path3 domains at level bound 1, in both neighbor
    # orders: the mover, its successor and whether its O-variable changes
    for topo in _every_neighbor_order(path_edges(3), root=root, mode=protocol.name):
        coding, kernel = analysis._Coding(topo, protocol, 1), Kernel(topo, protocol)
        for code in coding.starts():
            cfg = coding.decode(code)
            got = [(v, coding.decode(code + delta), changed) for v, delta, changed in coding.moves(code)]
            want = [(v, nxt, protocol.o_changed(cfg.states[v], effect.state)) for v, effect, nxt in kernel.moves(cfg)]
            assert got == want, cfg


def _spliced_successors(topo, protocol, kernel, watch, level_bound, cfg):
    """The game's moves as configurations: correct moves, then each Byzantine write of one
    out-register to another value of its domain, spliced into the register tuple."""
    for v, effect, nxt in kernel.moves(cfg):
        yield v, nxt, v if v in watch and protocol.o_changed(cfg.states[v], effect.state) else None
    states, regs = cfg
    for b in sorted(topo.byzantine):
        out = topo.register_access[b][2]
        own, head, tail = regs[out], regs[: out.start], regs[out.stop :]
        for i, current in enumerate(own):
            for value in protocol.register_domain(level_bound, current):
                if value != current:
                    yield b, Configuration(states, head + own[:i] + (value,) + own[i + 1 :] + tail), None


@pytest.mark.parametrize("protocol,kwargs,edges,level_bound", _GAME_CASES)
def test_coded_game_successors_match_spliced_configurations(protocol, kwargs, edges, level_bound):
    topo = build_topology(edges, **kwargs)
    game = analysis._Game(topo, protocol, level_bound, 0)
    coding = game.coding
    game.solve(_start_ids(game, sorted(protocol.legitimate_set(topo, level_bound))))
    kernel = Kernel(topo, protocol)
    for code in {code for code, _ in game.nodes}:
        got = [(pid, coding.decode(nxt), changed) for pid, _, nxt, changed in game._successors(code)]
        assert got == list(_spliced_successors(topo, protocol, kernel, game.watch, level_bound, coding.decode(code)))


@pytest.mark.parametrize("protocol,kwargs,edges,level_bound", _GAME_CASES)
def test_coded_stability_matches_the_budgeted_search(protocol, kwargs, edges, level_bound):
    # on every node code of the solved game, in node order (so later walks meet codes earlier
    # ones found stable): the one stability walk over the oracle's coded moves and over the
    # runs' configurations, never out of budget here, against a full search of each closure
    topo = build_topology(edges, **kwargs)
    game = analysis._Game(topo, protocol, level_bound, 0)
    game.solve(_start_ids(game, sorted(protocol.legitimate_set(topo, level_bound))))
    checker, kernel = StabilityChecker(topo, protocol, 0), Kernel(topo, protocol)
    configs = {code: game.coding.decode(code) for code, _ in game.nodes}
    want = {code: _stable_by_full_search(kernel, protocol, game.watch, cfg) for code, cfg in configs.items()}
    coded = {code: not analysis._reaches_change(code, game._correct_moves, game.stable_codes) for code in configs}
    searched = {code: checker._search(cfg) for code, cfg in configs.items()}
    assert coded == want
    assert searched == {code: Stability.STABLE if stable else Stability.UNSTABLE for code, stable in want.items()}


def test_stability_walk_stops_at_a_change_skips_stable_nodes_and_keeps_its_budget():
    # nodes 0..5 in a chain; the move out of node 2 changes the watched process 0
    chain = lambda node: [(0, node + 1, 0 if node == 2 else None)] if node < 5 else []
    assert analysis._reaches_change(0, chain, set()) is True
    assert analysis._reaches_change(3, chain, set(), budget=1) is None  # 5 would be its third node
    stable = set()
    assert analysis._reaches_change(3, chain, stable, budget=2) is False and stable == {3, 4, 5}
    assert analysis._reaches_change(2, chain, stable, budget=0) is True and stable == {3, 4, 5}
    assert analysis._reaches_change(1, {1: [(1, 4, None)]}.get, stable, budget=0) is False and stable == {1, 3, 4, 5}


def _stable_by_full_search(kernel, protocol, watch, config):
    """Whether no configuration reachable by single correct moves from `config` has a move
    that changes a watched O-variable, found by visiting every one of them."""
    reached, frontier, changes = {config}, [config], False
    for cfg in frontier:  # the loop also reads the configurations appended while it runs
        for v, effect, nxt in kernel.moves(cfg):
            changes |= v in watch and protocol.o_changed(cfg.states[v], effect.state)
            if nxt not in reached:
                reached.add(nxt)
                frontier.append(nxt)
    return not changes


def _climb(view):
    level = view.state.level + 1
    return LocalEffect(view.state._replace(level=level), tuple(r._replace(level=level) for r in view.out_regs))


def _stray(view):
    return LocalEffect(view.state._replace(prnt=view.degree + 1), view.out_regs)


class _Climb(TreeOrientationProtocol):
    """ss-to's domains and legitimate set, with one always-enabled action that raises a level by one."""

    _actions = (GuardedAction("UP", lambda view: True, _climb),)


class _Stray(TreeOrientationProtocol):
    """ss-to's domains and legitimate set, with one always-enabled action that points past the last neighbor."""

    _actions = (GuardedAction("STRAY", lambda view: True, _stray),)


def test_coded_moves_refuse_to_leave_the_domain():
    # a level past the level cap, and a state no alphabet holds, end a query with one message
    for toy in (_Climb(), _Stray()):
        with pytest.raises(OracleCapError, match="^level escaped the bounded domain$"):
            brute_force_verify(to_topology(2), toy, "converges-to", level_bound=1)
    # ss-st on a correct 5-path whose every non-root process also neighbors the Byzantine hub
    hub = [(0, 1), (1, 2), (2, 3), (3, 4), (5, 1), (5, 2), (5, 3), (5, 4)]
    topo = build_topology(hub, root=0, byzantine=[5], mode="ss-st")
    with pytest.raises(OracleCapError, match="^level escaped the bounded domain$"):
        brute_force_verify(topo, SS_ST, "worst-disruptions", level_bound=1)


def _short(view):
    return LocalEffect(view.state, view.out_regs[:-1])


class _Short(TreeOrientationProtocol):
    """ss-to's domains and legitimate set, with one always-enabled action that writes one register too few."""

    _actions = (GuardedAction("SHORT", lambda view: True, _short),)


def test_coded_moves_refuse_a_short_effect():
    # the coded moves refuse an effect with one register too few, as the kernel's moves do
    topo, toy = to_topology(3), _Short()
    message = "^effect for process 0 has the wrong register count$"
    with pytest.raises(EngineError, match=message):
        brute_force_verify(topo, toy, "converges-to", level_bound=1)
    with pytest.raises(EngineError, match=message):
        list(Kernel(topo, toy).moves(next(_enumerate_domain(topo, toy, 1))))


def test_max_damage_anchor_above_the_level_bound():
    # max-damage hands the game a run's start, whose levels pass the level bound: the
    # alphabets take its values, and the game answers as the move-storing one from that start
    level_bound = 1
    to_topo = to_topology(byz=(1,), edges=path_edges(4), seed=3)
    st_topo = st_topology(byz=(2,), edges=[(0, 1), (1, 2), (2, 3), (0, 3)], seed=4)
    # the seeds draw starts from which the game forces one and two disruptions
    for protocol, topo, anchor in [(SS_TO, to_topo, to_legit(to_topo, 25, "lc1")), (SS_ST, st_topo, st_legit(st_topo, 9))]:
        assert max(s.level for s in anchor.states) > level_bound
        worst, play = analysis.best_disruption_play(topo, protocol, anchor, level_bound)
        want = _ref_oracle_worst(topo, protocol, level_bound, anchors=[anchor])
        assert worst == want.worst_disruptions == (1 if protocol is SS_TO else 2) and not want.unbounded
        _assert_single_register_writes(topo, protocol, anchor, play)
        got = analysis._oracle_worst(topo, protocol, level_bound, 0, [anchor])
        assert (got.anchors, got.worst_per_process, got.best_anchor) == (1, want.worst_per_process, anchor)


def _converges_under(topo, protocol, level_bound, successors):
    """Whether every maximal sequence of `successors` from each in-domain configuration
    ends disabled inside the level-cap legitimate set, with no cycle on the way."""
    level_cap = analysis._level_cap(topo, level_bound)
    legitimate = set(protocol.legitimate_set(topo, level_cap))
    graph, stack = {}, list(_enumerate_domain(topo, protocol, level_bound))
    while stack:
        cfg = stack.pop()
        if cfg not in graph:
            graph[cfg] = successors(cfg)
            assert all(s.level <= level_cap for nxt in graph[cfg] for s in nxt.states)
            stack.extend(graph[cfg])
    if any(not nexts and cfg not in legitimate for cfg, nexts in graph.items()):
        return False
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError:
        return False
    return True


@pytest.mark.parametrize("protocol,root", [pytest.param(SS_TO, None, id="ss-to"), pytest.param(SS_ST, 0, id="ss-st")])
def test_single_moves_decide_convergence_like_simultaneous_moves(protocol, root):
    # the oracle expands one process at a time, while the distributed daemon also fires sets
    # of processes at once: on the path3 domains at level bound 1, every nonempty set of
    # enabled processes moving through `Kernel.step` converges exactly when single moves do
    for topo in _every_neighbor_order(path_edges(3), root=root, mode=protocol.name):
        kernel = Kernel(topo, protocol)

        def simultaneous(cfg):
            enabled = [v for v in kernel.correct if kernel.fire(cfg, v)]
            sets = itertools.chain.from_iterable(itertools.combinations(enabled, k) for k in range(1, len(enabled) + 1))
            return [kernel.step(cfg, moving, {})[1] for moving in sets]

        assert brute_force_verify(topo, protocol, "converges-to", 1).converges is _converges_under(topo, protocol, 1, simultaneous)


class _RandomWriter(Adversary):
    """Each Byzantine write sets every out-register to a random value of the
    oracle's register domain at `level_bound`, and keeps the writer's state."""

    def __init__(self, seed, topo, protocol, level_bound):
        super().__init__({}, seed, topo, protocol)
        self.level_bound = level_bound

    def act(self, config, topo, pid):
        domain = self.protocol.register_domain
        out = tuple(self.rng.choice(domain(self.level_bound, config.registers[slot])) for slot in topo.out_slot[pid])
        return LocalEffect(config.states[pid], out)


# ss-st hubs and cycles as (edges, Byzantine z), built here because a new topology file would
# add queries to the checked-in oracle matrix
_ST_SHAPES = {
    "hub_d2_st": ([(0, 1), (1, 2), (1, 3), (2, 3)], 3),
    "hub_d3_st": (path_edges(4) + [(1, 4), (2, 4), (3, 4)], 4),
    "cycle4_st": (path_edges(4) + [(3, 0)], 2),
    "cycle5_st": (path_edges(5) + [(4, 0)], 2),
}


@functools.cache
def _oracle_and_anchors(name, protocol, level_bound):
    """An instance, its oracle answer, and the members of its legitimate set that a run's
    anchor test accepts."""
    if name in _ST_SHAPES:
        edges, z = _ST_SHAPES[name]
        topo = st_topology(byz=(z,), edges=edges)
    else:
        topo = load_topology(str(TOPOLOGIES / f"{name}.topo"), mode=protocol.name)
    oracle = brute_force_verify(topo, protocol, "worst-disruptions", level_bound)
    checker = StabilityChecker(topo, protocol, 0)
    return topo, oracle, [c for c in sorted(protocol.legitimate_set(topo, level_bound)) if checker.anchor(c)]


@pytest.mark.parametrize("kind", ["distributed", "central"])
@pytest.mark.parametrize(
    "name,protocol,level_bound",
    [
        pytest.param(*case, id=f"{case[0]}-lb{case[2]}")
        for case in [
            ("path5_to", SS_TO, 2), ("path3_st", SS_ST, 2), ("star4_to", SS_TO, 1), ("tree8_to", SS_TO, 1),
            ("hub_d2_st", SS_ST, 2), ("hub_d3_st", SS_ST, 1), ("cycle4_st", SS_ST, 3), ("cycle5_st", SS_ST, 2),
        ]
    ],
)
def test_no_run_beats_the_oracle(name, protocol, level_bound, kind):
    # the oracle plays single moves, so under the distributed daemon this also tests that model
    topo, oracle, anchors = _oracle_and_anchors(name, protocol, level_bound)
    assert anchors and not oracle.unbounded
    rng = random.Random(f"{name} {kind}")
    for seed in range(40):
        adversary = _RandomWriter(seed, topo, protocol, level_bound)
        daemon = Daemon(kind=kind, fairness_bound=2 * topo.n, rng_seed=seed)
        trace = run(topo, protocol, adversary, daemon, rng.choice(anchors), StopCondition(max_steps=60))
        report = verify_containment(trace, topo, protocol, 0)
        assert report.verdict == "pass", render_report(report)
        assert report.t_observed <= oracle.worst_disruptions and report.k_observed <= oracle.worst_per_process
