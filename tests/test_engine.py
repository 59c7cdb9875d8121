import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    fired_label,
    local_view,
    path_edges,
    quick_run,
    random_st_topology,
    random_to_topology,
    ref_fire,
    ref_write_trace,
    st_topology,
    to_topology,
)

from strongstab.engine import (
    Configuration,
    Daemon,
    EngineError,
    ExecutionTrace,
    FairnessError,
    Kernel,
    LocalEffect,
    LocalView,
    ProcessState,
    RegisterValue,
    Step,
    StopCondition,
    arbitrary_configuration,
    check_fairness,
    check_locality,
    check_replay,
    check_trace,
    consistent_registers,
    read_trace,
    round_boundaries,
    run,
    write_trace,
)
from strongstab.engine import _Scheduler
from strongstab.topology import build_topology
from strongstab import spanning_tree, tree_orientation
from strongstab.spanning_tree import SS_ST, legitimate_configuration
from strongstab.tree_orientation import SS_TO


def _quiescent_config(topo):
    return legitimate_configuration(topo, 1)


def test_step_rejects_empty_activation():
    t = st_topology(3)
    cfg = _quiescent_config(t)
    with pytest.raises(EngineError, match="nonempty"):
        Kernel(t, SS_ST).step(cfg, frozenset(), {})


def test_step_rejects_byz_write_for_correct_process():
    t = st_topology(3, byz=(2,))
    cfg = _quiescent_config(t)
    write = LocalEffect(ProcessState(0, 9), (RegisterValue(False, 9),) * 2)
    with pytest.raises(EngineError, match="correct process"):
        Kernel(t, SS_ST).step(cfg, frozenset({1}), {1: write})
    with pytest.raises(EngineError, match="non-activated process 2"):
        Kernel(t, SS_ST).step(cfg, frozenset({1}), {2: write._replace(out_regs=write.out_regs[:1])})


def test_replay_rejects_wrong_recorded_action():
    t = st_topology(3)
    cfg = _quiescent_config(t)  # nothing is enabled here
    bad = Step(activated=frozenset({1}), actions={1: "GA1"}, byz_writes={})
    trace = ExecutionTrace([cfg, cfg], [bad], [], "max_steps")
    with pytest.raises(EngineError, match="step 1: step records action 'GA1' for process 1, but None is enabled"):
        check_replay(trace, t, SS_ST)


def test_byzantine_write_only_touches_own_state_and_registers():
    t = st_topology(3, byz=(2,))
    cfg = _quiescent_config(t)
    write = LocalEffect(ProcessState(0, 999), (RegisterValue(True, 999),) * t.degree(2))
    _, nxt = Kernel(t, SS_ST).step(cfg, frozenset({2}), {2: write})
    assert nxt.states[2] == ProcessState(0, 999)
    assert all(nxt.states[v] == cfg.states[v] for v in (0, 1))
    touched = {slot for slot in range(t.num_registers) if nxt.registers[slot] != cfg.registers[slot]}
    assert touched <= set(t.out_slot[2])


def test_simultaneous_neighbors_read_stale_registers():
    # two adjacent enabled processes both compute against the pre-step registers
    t = to_topology(2)
    states = (ProcessState(1, 0), ProcessState(1, 0))
    regs = [RegisterValue(False, 3), RegisterValue(False, 5)]
    registers = [None, None]
    registers[t.out_slot[0][0]] = regs[0]
    registers[t.out_slot[1][0]] = regs[1]
    cfg = Configuration(states, tuple(registers))
    actions, nxt = Kernel(t, SS_TO).step(cfg, frozenset({0, 1}), {})
    assert actions == {0: "GA1", 1: "GA1"}
    # each copied the other's old advertisement, not the freshly written one
    assert nxt.states[0].level == 5
    assert nxt.states[1].level == 3


def test_run_from_legitimate_configuration_is_quiescent_immediately():
    t = st_topology(2)
    init = _quiescent_config(t)
    trace, _ = quick_run(t, SS_ST, init=init)
    assert trace.stop_reason == "quiescent"
    assert len(trace.configs) == 1 and not trace.steps


def test_two_node_recovery_hand_replay():
    # root r=0 and one node a=1 with a corrupted level; a must end with the
    # root as parent at level 1 (worked out by hand: GA1 reads the root's
    # register 0 and writes 0+1)
    t = st_topology(2)
    good = _quiescent_config(t)
    states = list(good.states)
    states[1] = ProcessState(prnt=1, level=5)
    init = Configuration(tuple(states), good.registers)
    trace, _ = quick_run(t, SS_ST, init=init, kind="central", daemon_seed=4, fairness=4)
    assert trace.stop_reason == "quiescent"
    final = trace.configs[-1].states[1]
    assert final == ProcessState(prnt=1, level=1)


def test_determinism_identical_seeds_identical_traces():
    t = st_topology(5, byz=(4,), edges=path_edges(5), seed=2)
    runs = []
    for _ in range(2):
        trace, _ = quick_run(
            t, SS_ST, "oscillate", {"period": 2, "cycles": 3},
            init_seed=7, daemon_seed=9, adversary_seed=11, max_steps=500,
        )
        runs.append(trace)
    assert runs[0].configs == runs[1].configs
    assert runs[0].steps == runs[1].steps


def test_round_boundaries_examples():
    def fake_trace(activated_sets):
        cfgs = [None] * (len(activated_sets) + 1)
        steps = [Step(frozenset(s), {}, {}) for s in activated_sets]
        return ExecutionTrace(configs=cfgs, steps=steps, round_ends=[])

    assert round_boundaries(fake_trace([{0}, {1}, {0, 1}]), frozenset({0, 1})) == [2, 3]
    assert round_boundaries(fake_trace([{0, 1}, {0, 1}]), frozenset({0, 1})) == [1, 2]
    assert round_boundaries(fake_trace([{0}, {1}, {0}, {1}]), frozenset({0, 1, 2})) == []


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_fairness_window_by_construction(seed):
    t = st_topology(4, edges=path_edges(4), seed=seed % 7)
    trace, daemon = quick_run(
        t, SS_ST, init_seed=seed, daemon_seed=seed, max_steps=60, fairness=4
    )
    check_fairness(trace, t.correct, 4)


def test_fairness_error_when_central_bound_too_small():
    t = st_topology(6, edges=path_edges(6))
    with pytest.raises(EngineError):
        quick_run(t, SS_ST, init_seed=3, daemon_seed=1, kind="central", fairness=2, max_steps=300)


def test_engine_invariants_on_byzantine_run():
    t = st_topology(5, byz=(4,), edges=path_edges(5), seed=3)
    trace, daemon = quick_run(
        t, SS_ST, "oscillate", {"period": 1, "cycles": 4},
        init_seed=1, daemon_seed=2, adversary_seed=3, max_steps=800,
    )
    check_trace(trace, t, SS_ST, daemon.fairness_bound)


def test_hostile_daemon_honors_proposals_but_tops_up_fairness():
    from strongstab.adversary import Adversary
    from strongstab.engine import Daemon, StopCondition, run

    class Grabby(Adversary):
        name = "grabby"

        def act(self, config, topo, pid):
            return None

        def propose_activation(self, config, topo, t):
            return frozenset(topo.byzantine)  # starve the correct processes

    t = st_topology(4, byz=(3,), edges=path_edges(4), seed=1)
    adv = Grabby({}, 0, t, SS_ST)
    daemon = Daemon(kind="distributed", fairness_bound=3, rng_seed=2)
    init = arbitrary_configuration(t, SS_ST, 5)
    trace = run(t, SS_ST, adv, daemon, init, StopCondition(max_steps=30))
    check_fairness(trace, t.correct, 3)
    assert all(3 in step.activated for step in trace.steps)


def test_arbitrary_configuration_domain_and_determinism():
    t = to_topology(6, edges=path_edges(6))
    a = arbitrary_configuration(t, SS_TO, 5)
    b = arbitrary_configuration(t, SS_TO, 5)
    c = arbitrary_configuration(t, SS_TO, 6)
    assert a == b and a != c
    for v in range(t.n):
        assert 1 <= a.states[v].prnt <= t.degree(v)
        assert 0 <= a.states[v].level <= 2 * t.n
    for r in a.registers:
        assert 0 <= r.level <= 2 * t.n


def test_guard_evaluation_is_pure_and_ordered():
    t = st_topology(3)
    cfg = arbitrary_configuration(t, SS_ST, 12)
    view = local_view(t, cfg, 1)
    label = fired_label(SS_ST, "node", view)
    assert label == fired_label(SS_ST, "node", view)
    assert label in (None, "GA1", "GA2")


def test_trace_file_roundtrip(tmp_path):
    t = st_topology(4, byz=(3,), edges=path_edges(4), seed=5)
    trace, _ = quick_run(
        t, SS_ST, "fake-root", init_seed=8, daemon_seed=9, adversary_seed=10, max_steps=300
    )
    path = tmp_path / "trace.jsonl"
    write_trace(str(path), trace, t, SS_ST)
    loaded, topo2, name = read_trace(str(path))
    assert name == "ss-st"
    assert topo2.neighbor_order == t.neighbor_order
    assert loaded.configs == trace.configs
    assert loaded.steps == trace.steps
    assert loaded.stop_reason == trace.stop_reason
    check_locality(loaded, topo2)


def _writer_case(protocol, n, f, adversary, seed):
    """A short run on a random topology of `n` processes, `f` of them Byzantine,
    from an arbitrary configuration."""
    topo = (random_to_topology if protocol is SS_TO else random_st_topology)(n, f, seed)
    trace, _ = quick_run(
        topo, protocol, adversary, init_seed=seed, daemon_seed=seed + 1, adversary_seed=seed + 2, max_steps=40
    )
    return trace, topo


def _same_trace_bytes(tmp_path, trace, topo, protocol):
    write_trace(str(tmp_path / "fast.jsonl"), trace, topo, protocol)
    ref_write_trace(str(tmp_path / "ref.jsonl"), trace, topo, protocol)
    return (tmp_path / "fast.jsonl").read_bytes() == (tmp_path / "ref.jsonl").read_bytes()


_WRITER_ADVERSARIES = ("silent", "oscillate", "fake-root", "level-inflation")


@settings(max_examples=60, deadline=None)
@given(
    protocol=st.sampled_from([SS_TO, SS_ST]),
    n=st.integers(2, 12),
    f=st.integers(0, 2),
    adversary=st.sampled_from(_WRITER_ADVERSARIES),
    seed=st.integers(0, 10**6),
)
def test_trace_writer_matches_the_reference_writer(tmp_path_factory, protocol, n, f, adversary, seed):
    trace, topo = _writer_case(protocol, n, min(f, n - 1), adversary, seed)
    assert _same_trace_bytes(tmp_path_factory.mktemp("w"), trace, topo, protocol)


def test_trace_writer_cases_reach_every_record_shape(tmp_path):
    # two-digit register slots, Byzantine writes of None, steps with no
    # register change and steps where no activated process fired
    seen = set()
    for protocol in (SS_TO, SS_ST):
        for adversary in _WRITER_ADVERSARIES:
            trace, topo = _writer_case(protocol, 12, 1, adversary, 5)
            assert _same_trace_bytes(tmp_path, trace, topo, protocol)
            for before, after, step in zip(trace.configs, trace.configs[1:], trace.steps):
                changed = [s for s in range(topo.num_registers) if before.registers[s] != after.registers[s]]
                shapes = {
                    "two-digit slot": any(s >= 10 for s in changed),
                    "no register change": not changed,
                    "none written": None in step.byz_writes.values(),
                    "none fired": not any(step.actions.values()),
                }
                seen |= {shape for shape, present in shapes.items() if present}
    assert seen == {"two-digit slot", "no register change", "none written", "none fired"}


class _RefScheduler:
    """The daemon's choice with the forced set, and the central daemon's windows of the next
    k steps that k deadlines fill, rebuilt by a full scan at every step."""

    def __init__(self, daemon, topo):
        self.daemon, self.rng = daemon, random.Random(daemon.rng_seed)
        self.last_seen = {v: 0 for v in sorted(topo.correct)}
        self.all_pids = list(range(topo.n))

    def pick(self, t, proposal):
        bound, rng = self.daemon.fairness_bound, self.rng
        forced = {v for v, seen in self.last_seen.items() if t - seen >= bound}
        if self.daemon.kind == "central":
            deadlines = {v: seen + bound for v, seen in self.last_seen.items()}
            within = lambda k: sum(deadline < t + k for deadline in deadlines.values())
            if any(within(k) >= k for k in range(1, len(deadlines) + 1)):
                first = min(deadlines.values())
                activated = {rng.choice(sorted(v for v, deadline in deadlines.items() if deadline == first))}
            else:
                activated = set(proposal) if proposal else {rng.choice(self.all_pids)}
        else:
            activated = set() if proposal is None else set(proposal) | forced
            if not activated:
                activated = {v for v in self.all_pids if rng.random() < 0.5} | forced
            if not activated:
                activated = {rng.choice(self.all_pids)}
        for v in activated & self.last_seen.keys():
            self.last_seen[v] = t
        if forced - activated:
            raise FairnessError(f"fairness bound {bound} unsatisfiable at step {t} (kind={self.daemon.kind})")
        return frozenset(activated)


def _picks(scheduler, proposals):
    """Each step's activated set, and the fairness error that ends the run early, if any."""
    picked = []
    try:
        for t, proposal in enumerate(proposals, 1):
            picked.append(scheduler.pick(t, proposal))
    except FairnessError as exc:
        return picked, str(exc)
    return picked, None


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 8),
    byz=st.sets(st.integers(0, 7)) | st.just(frozenset(range(8))),
    kind=st.sampled_from(["central", "distributed"]),
    bound=st.sampled_from(["1", "2", "n"]),
    seed=st.integers(0, 10**6),
)
def test_scheduler_picks_what_the_full_scan_picks(n, byz, kind, bound, seed):
    # `byz` may cover every process, and then the correct set is empty
    topo = build_topology(path_edges(n), byzantine=byz & set(range(n)))
    daemon = Daemon(kind=kind, fairness_bound=n if bound == "n" else int(bound), rng_seed=seed)
    rng = random.Random(seed)
    # what an adversary may propose: a set, nothing, or no wish at all
    size = 1 if kind == "central" else n
    wishes = lambda: [None, frozenset(), frozenset(rng.sample(range(n), rng.randint(1, size)))]
    proposals = [rng.choice(wishes()) for _ in range(60)]
    assert _picks(_Scheduler(daemon, topo), proposals) == _picks(_RefScheduler(daemon, topo), proposals)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 9),
    byz=st.sets(st.integers(0, 8)),
    slack=st.integers(0, 3),
    seed=st.integers(0, 10**6),
)
def test_central_daemon_keeps_every_bound_of_at_least_the_correct_count(n, byz, slack, seed):
    # whatever a scheduling adversary proposes, Byzantine processes included
    topo = build_topology(path_edges(n), byzantine=byz & set(range(n)))
    correct, rng = len(topo.correct), random.Random(seed)
    proposals = [rng.choice([None, frozenset({rng.randrange(n)})]) for _ in range(80)]
    keep = Daemon(kind="central", fairness_bound=max(correct, 1) + slack, rng_seed=seed)
    assert _picks(_Scheduler(keep, topo), proposals)[1] is None
    if correct >= 2:
        miss = Daemon(kind="central", fairness_bound=correct - 1, rng_seed=seed)
        assert _picks(_Scheduler(miss, topo), proposals)[1] is not None


# ---------------------------------------------------------------------------
# the audit must reject tampered traces

def _byz_trace():
    t = st_topology(5, byz=(4,), edges=path_edges(5), seed=3)
    trace, daemon = quick_run(
        t, SS_ST, "oscillate", {"period": 1, "cycles": 4},
        init_seed=1, daemon_seed=2, adversary_seed=3, max_steps=200,
    )
    check_trace(trace, t, SS_ST, daemon.fairness_bound)
    return t, trace, daemon.fairness_bound


def _tampered(trace, configs=None, steps=None):
    """A copy of `trace` with {index: value} replacements in its configurations and steps."""
    configs = [(configs or {}).get(k, c) for k, c in enumerate(trace.configs)]
    steps = [(steps or {}).get(k, s) for k, s in enumerate(trace.steps)]
    return ExecutionTrace(configs, steps, trace.round_ends, trace.stop_reason)


def _bumped_state(config, pid):
    states = list(config.states)
    states[pid] = states[pid]._replace(level=states[pid].level + 1)
    return config._replace(states=tuple(states))


def _first_step(trace, topo, pred):
    return next(i for i, step in enumerate(trace.steps) if pred(step, topo))


def test_audit_rejects_state_change_by_non_activated_process():
    t, trace, bound = _byz_trace()
    i = _first_step(trace, t, lambda s, t: len(s.activated) < t.n)
    idle = min(set(range(t.n)) - trace.steps[i].activated)
    with pytest.raises(EngineError, match="non-activated process"):
        check_trace(_tampered(trace, configs={i + 1: _bumped_state(trace.configs[i + 1], idle)}), t, SS_ST, bound)


def test_audit_rejects_register_written_outside_activated_set():
    t, trace, bound = _byz_trace()
    i = _first_step(trace, t, lambda s, t: len(s.activated) < t.n)
    allowed = {slot for pid in trace.steps[i].activated for slot in t.out_slot[pid]}
    slot = min(set(range(t.num_registers)) - allowed)
    registers = list(trace.configs[i + 1].registers)
    registers[slot] = registers[slot]._replace(level=registers[slot].level + 1)
    after = trace.configs[i + 1]._replace(registers=tuple(registers))
    with pytest.raises(EngineError, match="outside activated set"):
        check_trace(_tampered(trace, configs={i + 1: after}), t, SS_ST, bound)


def test_audit_rejects_label_that_differs_from_enabled_guard():
    t, trace, bound = _byz_trace()
    i = _first_step(trace, t, lambda s, t: any(a is not None for a in s.actions.values()))
    step = trace.steps[i]
    pid = min(p for p, a in step.actions.items() if a is not None)
    other = "GA2" if step.actions[pid] == "GA1" else "GA1"
    forged = Step(step.activated, {**step.actions, pid: other}, step.byz_writes)
    with pytest.raises(EngineError):
        check_trace(_tampered(trace, steps={i: forged}), t, SS_ST, bound)


def test_audit_rejects_result_that_differs_from_merged_stale_reads():
    t, trace, bound = _byz_trace()
    i = _first_step(trace, t, lambda s, t: bool(s.activated - t.byzantine))
    pid = min(trace.steps[i].activated - t.byzantine)
    with pytest.raises(EngineError):
        check_trace(_tampered(trace, configs={i + 1: _bumped_state(trace.configs[i + 1], pid)}), t, SS_ST, bound)


def test_audit_rejects_configurations_of_the_wrong_shape():
    # a process missing from every configuration of a trace
    t, trace, bound = _byz_trace()
    short = [c._replace(states=c.states[:-1]) for c in trace.configs]
    with pytest.raises(EngineError, match="shape"):
        check_trace(_tampered(trace, configs=dict(enumerate(short))), t, SS_ST, bound)


def test_audit_rejects_byzantine_write_recorded_for_correct_process():
    t, trace, bound = _byz_trace()
    i = _first_step(trace, t, lambda s, t: bool(s.activated - t.byzantine))
    step = trace.steps[i]
    pid = min(step.activated - t.byzantine)
    after = trace.configs[i + 1]
    write = LocalEffect(after.states[pid], tuple(after.registers[s] for s in t.out_slot[pid]))
    forged = Step(step.activated, step.actions, {**step.byz_writes, pid: write})
    with pytest.raises(EngineError):
        check_trace(_tampered(trace, steps={i: forged}), t, SS_ST, bound)


def test_audit_rejects_fairness_gap():
    t, trace, bound = _byz_trace()
    with pytest.raises(EngineError, match="fairness violated"):
        check_trace(trace, t, SS_ST, 1)


def test_audit_rejects_round_ends_the_steps_do_not_complete():
    t, trace, bound = _byz_trace()
    assert trace.round_ends
    for ends in (trace.round_ends[:-1], [r + 1 for r in trace.round_ends], list(range(1, len(trace.steps) + 1))):
        with pytest.raises(EngineError, match="recorded round_ends differ"):
            check_trace(dataclasses.replace(trace, round_ends=ends), t, SS_ST, bound)


def test_audit_rejects_a_quiescent_stop_with_a_correct_process_enabled():
    t = to_topology(5, byz=(2,), edges=[(0, 1), (1, 2), (2, 3), (1, 4)], seed=4)
    trace, daemon = quick_run(t, SS_TO, "level-inflation", init_seed=1, max_steps=12)
    assert trace.stop_reason == "max_steps" and not Kernel(t, SS_TO).quiescent(trace.configs[-1])
    check_trace(trace, t, SS_TO, daemon.fairness_bound)
    with pytest.raises(EngineError, match="trace stops quiescent, but a correct process is enabled"):
        check_trace(dataclasses.replace(trace, stop_reason="quiescent"), t, SS_TO, daemon.fairness_bound)


# --- differential: the one-pass audit against separate reference checks ------

# the paper's guards per protocol and role, each with the negations of the ones before it
_TO, _ST = tree_orientation, spanning_tree
PAPER_GUARDS = {
    ("ss-to", "node"): (
        ("GA1", _TO.pred1),
        ("GA2", lambda v: not _TO.pred1(v) and _TO.pred2(v)),
        ("GA3", lambda v: not _TO.pred1(v) and not _TO.pred2(v) and _TO.pred3(v)),
    ),
    ("ss-st", "node"): (("GA1", _ST.pred1), ("GA2", lambda v: not _ST.pred1(v) and _ST.pred2(v))),
    ("ss-st", "root"): (("GA0", _ST.pred0),),
}


def _paper_enabled(protocol, role, view):
    return [label for label, guard in PAPER_GUARDS[protocol.name, role] if guard(view)]


def _ref_fire(topo, protocol, config, pid):
    view = local_view(topo, config, pid)
    role = protocol.role_of(topo, pid)
    enabled = _paper_enabled(protocol, role, view)
    if len(enabled) > 1:
        raise EngineError(f"guards not mutually exclusive: {enabled}")
    actions = {a.label: a for a in protocol.actions(role)}
    return (actions[enabled[0]] if enabled else None), view


def _ref_merge(topo, config, effects):
    states = list(config.states)
    registers = list(config.registers)
    for pid, (state, out_regs) in effects:
        states[pid] = state
        for slot, value in zip(topo.out_slot[pid], out_regs):
            registers[slot] = value
    return Configuration(tuple(states), tuple(registers))


def _ref_apply_step(config, step, protocol, topo):
    if not step.activated:
        raise EngineError("activated set must be nonempty")
    for pid in step.byz_writes:
        if pid not in topo.byzantine or pid not in step.activated:
            raise EngineError("misplaced byzantine write")
    effects = []
    for pid in sorted(step.activated):
        if pid in topo.byzantine:
            write = step.byz_writes.get(pid)
            if write is None:
                continue
            if len(write.out_regs) != topo.degree(pid):
                raise EngineError("byzantine write has wrong register count")
            effects.append((pid, write))
        else:
            action, view = _ref_fire(topo, protocol, config, pid)
            if (action.label if action else None) != step.actions.get(pid):
                raise EngineError("recorded action differs")
            if action is not None:
                effects.append((pid, action.effect(view)))
    return _ref_merge(topo, config, effects)


def _ref_check_locality(trace, topo):
    for i, step in enumerate(trace.steps):
        before, after = trace.configs[i], trace.configs[i + 1]
        allowed = {s for pid in step.activated for s in topo.out_slot[pid]}
        for pid in range(topo.n):
            if before.states[pid] != after.states[pid] and pid not in step.activated:
                raise EngineError("locality")
        for slot in range(topo.num_registers):
            if before.registers[slot] != after.registers[slot] and slot not in allowed:
                raise EngineError("locality")


def _ref_check_simultaneity(trace, topo, protocol):
    for i, step in enumerate(trace.steps):
        before = trace.configs[i]
        effects = []
        for pid in sorted(step.activated):
            if pid in topo.byzantine:
                write = step.byz_writes.get(pid)
                if write is not None:
                    effects.append((pid, write))
            else:
                action, view = _ref_fire(topo, protocol, before, pid)
                if action is not None:
                    effects.append((pid, action.effect(view)))
        if _ref_merge(topo, before, effects) != trace.configs[i + 1]:
            raise EngineError("simultaneity")


def _ref_check_priority(trace, topo, protocol):
    for i, step in enumerate(trace.steps):
        for pid in step.activated - topo.byzantine:
            view = local_view(topo, trace.configs[i], pid)
            enabled = _paper_enabled(protocol, protocol.role_of(topo, pid), view)
            if len(enabled) > 1:
                raise EngineError("priority")
            if step.actions.get(pid) != (enabled[0] if enabled else None):
                raise EngineError("priority")


def _ref_check_replay(trace, topo, protocol):
    config = trace.configs[0]
    for i, step in enumerate(trace.steps):
        config = _ref_apply_step(config, step, protocol, topo)
        if config != trace.configs[i + 1]:
            raise EngineError("replay")


def _ref_check_fairness(trace, correct, bound):
    steps = trace.steps
    for start in range(len(steps) - bound + 1):
        window = set()
        for step in steps[start : start + bound]:
            window |= step.activated
        missing = correct - window
        if missing:
            raise EngineError(
                f"fairness violated: {sorted(missing)} absent from steps {start + 1}..{start + bound}"
            )


def _ref_check_rounds(trace, topo):
    ends, seen = [], set()
    for i, step in enumerate(trace.steps, 1):
        seen |= step.activated
        if topo.correct <= seen:
            ends.append(i)
            seen = set()
    if trace.round_ends != ends:
        raise EngineError("rounds")


def _ref_check_stop(trace, topo, protocol):
    last = trace.configs[-1]
    if trace.stop_reason == "quiescent" and any(_ref_fire(topo, protocol, last, v)[0] for v in topo.correct):
        raise EngineError("quiescent")


def _ref_check_trace(trace, topo, protocol, bound):
    _ref_check_locality(trace, topo)
    _ref_check_simultaneity(trace, topo, protocol)
    _ref_check_priority(trace, topo, protocol)
    _ref_check_replay(trace, topo, protocol)
    _ref_check_rounds(trace, topo)
    _ref_check_stop(trace, topo, protocol)
    _ref_check_fairness(trace, topo.correct, bound)


def _raises(fn, *args):
    try:
        fn(*args)
    except Exception:  # guards may reject a tampered state with ValueError
        return True
    return False


def _mutated(trace, topo, rng):
    """One field of the trace, as a trace file stores it, changed at random."""
    i = rng.randrange(len(trace.steps))
    step = trace.steps[i]
    kind = rng.choice(["start", "state", "register", "activated", "label", "byz"])
    if kind in ("start", "state", "register"):
        k = 0 if kind == "start" else i + 1
        cfg = trace.configs[k]
        if kind == "register" or (kind == "start" and rng.random() < 0.5):
            registers = list(cfg.registers)
            slot = rng.randrange(topo.num_registers)
            old = registers[slot]
            registers[slot] = RegisterValue(not old.prnt, old.level + rng.choice((-1, 0, 1)))
            cfg = cfg._replace(registers=tuple(registers))
        else:
            states = list(cfg.states)
            pid = rng.randrange(topo.n)
            old = states[pid]
            states[pid] = ProcessState(old.prnt + rng.choice((-1, 0, 1)), old.level + rng.choice((-1, 1)))
            cfg = cfg._replace(states=tuple(states))
        return _tampered(trace, configs={k: cfg})
    if kind == "activated":
        forged = Step(step.activated ^ {rng.randrange(topo.n)}, step.actions, step.byz_writes)
    elif kind == "label":
        pid = rng.randrange(topo.n)
        label = rng.choice([None, "GA0", "GA1", "GA2", "GA3"])
        forged = Step(step.activated, {**step.actions, pid: label}, step.byz_writes)
    else:
        pid = rng.randrange(topo.n)
        degree = topo.degree(pid) + rng.choice((0, 0, 1))
        write = LocalEffect(ProcessState(0, rng.randrange(9)), (RegisterValue(False, rng.randrange(9)),) * degree)
        forged = Step(step.activated, step.actions, {**step.byz_writes, pid: write})
    return _tampered(trace, steps={i: forged})


_DIFF_CASES = {
    "ss-st": lambda: (
        st_topology(5, byz=(3,), edges=[(0, 1), (1, 2), (2, 3), (3, 4), (1, 4)], seed=2),
        SS_ST, "oscillate", {"period": 2},
    ),
    "ss-to": lambda: (
        to_topology(5, byz=(2,), edges=[(0, 1), (1, 2), (2, 3), (1, 4)], seed=4),
        SS_TO, "level-inflation", {},
    ),
}


@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from(sorted(_DIFF_CASES)), seed=st.integers(0, 10**6))
def test_one_pass_audit_rejects_exactly_what_the_five_checks_reject(case, seed):
    topo, protocol, adversary, params = _DIFF_CASES[case]()
    trace, _ = quick_run(
        topo, protocol, adversary, params, init_seed=seed, daemon_seed=seed + 1,
        adversary_seed=seed + 2, max_steps=12, fairness=4,
    )
    tampered = _mutated(trace, topo, random.Random(seed))
    bound = 4 if seed % 3 else 2
    audit = _raises(check_trace, tampered, topo, protocol, bound)
    assert audit == _raises(_ref_check_trace, tampered, topo, protocol, bound)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 6),
    bound=st.integers(1, 6),
    sets=st.lists(st.frozensets(st.integers(0, 7)), max_size=30),
)
def test_fairness_scan_matches_window_unions(n, bound, sets):
    steps = [Step(s, {}, {}) for s in sets]
    trace = ExecutionTrace(configs=[None] * (len(sets) + 1), steps=steps, round_ends=[])
    correct = frozenset(range(n))

    def message(check):
        try:
            check(trace, correct, bound)
        except EngineError as exc:
            return str(exc)
        return None

    assert message(check_fairness) == message(_ref_check_fairness)


# --- `fire` against the paper's guards ---------------------------------------

def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return ValueError


_registers = st.builds(RegisterValue, st.booleans(), st.integers(0, 3))


@st.composite
def _views(draw):
    degree = draw(st.integers(1, 4))
    # prnt outside 1..degree makes the predicates that need a parent raise
    state = ProcessState(draw(st.integers(-1, degree + 1)), draw(st.integers(0, 3)))
    regs = st.lists(_registers, min_size=degree, max_size=degree).map(tuple)
    return LocalView(state, degree, draw(regs), draw(regs))


@settings(max_examples=400, deadline=None)
@given(case=st.sampled_from(sorted(PAPER_GUARDS)), view=_views())
def test_fire_takes_the_one_paper_guard_that_holds(case, view):
    protocol = {"ss-to": SS_TO, "ss-st": SS_ST}[case[0]]
    enabled = _outcome(_paper_enabled, protocol, case[1], view)
    label = _outcome(fired_label, protocol, case[1], view)
    if enabled is ValueError:
        assert label is ValueError
    else:
        assert len(enabled) <= 1
        assert label == (enabled[0] if enabled else None)


def test_fire_raises_where_the_paper_guards_raise():
    # no higher neighbor, the equal neighbor claims this process, prnt 0:
    # only pred3 is left to decide, and it needs a valid parent
    view = LocalView(ProcessState(0, 2), 1, (RegisterValue(True, 2),), (RegisterValue(False, 2),))
    with pytest.raises(ValueError, match="needs prnt"):
        _paper_enabled(SS_TO, "node", view)
    with pytest.raises(ValueError, match="needs prnt"):
        fired_label(SS_TO, "node", view)


@st.composite
def _kernel_cases(draw):
    """A random tree (ss-to) or graph (ss-st) with at most one Byzantine
    process, and configurations over a small domain, so views repeat across
    processes and configurations; prnt 0 makes the guards that need a
    parent raise."""
    protocol = draw(st.sampled_from([SS_TO, SS_ST]))
    n, f, seed = draw(st.integers(3, 7)), draw(st.integers(0, 1)), draw(st.integers(0, 10**6))
    topo = (random_to_topology if protocol is SS_TO else random_st_topology)(n, f, seed)
    levels = st.integers(0, 2)
    registers = st.lists(st.builds(RegisterValue, st.booleans(), levels), min_size=topo.num_registers, max_size=topo.num_registers)
    configs = st.builds(
        Configuration,
        st.tuples(*(st.builds(ProcessState, st.integers(0, topo.degree(v)), levels) for v in range(topo.n))),
        registers.map(tuple),
    )
    return topo, protocol, draw(st.lists(configs, min_size=1, max_size=4))


@settings(max_examples=150, deadline=None)
@given(case=_kernel_cases())
def test_kernel_fires_like_the_reference_walk(case):
    # every correct process, twice through one kernel and once through a
    # fresh one; a result that raises leaves the memo as it was
    topo, protocol, configs = case
    kernel = Kernel(topo, protocol)
    for cfg in configs:
        for v in kernel.correct:
            want = _outcome(ref_fire, protocol, protocol.role_of(topo, v), local_view(topo, cfg, v))
            size = sum(map(len, kernel.memo.values()))
            assert _outcome(kernel.fire, cfg, v) == want
            assert _outcome(kernel.fire, cfg, v) == want
            assert _outcome(Kernel(topo, protocol).fire, cfg, v) == want
            grown = sum(map(len, kernel.memo.values())) - size
            assert grown in ((0,) if want is ValueError else (0, 1))
