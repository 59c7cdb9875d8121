import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import path_edges, quick_run, st_topology, to_topology

from strongstab.engine import (
    ByzWrite,
    Configuration,
    Daemon,
    EngineError,
    ExecutionTrace,
    LocalView,
    ProcessState,
    Protocol,
    RegisterValue,
    Step,
    StopCondition,
    apply_step,
    arbitrary_configuration,
    check_fairness,
    check_locality,
    check_trace,
    consistent_registers,
    evaluate_guards,
    local_view,
    read_trace,
    round_boundaries,
    run,
    write_trace,
)
from strongstab.spanning_tree import SS_ST, legitimate_configuration
from strongstab.tree_orientation import SS_TO


def _quiescent_config(topo):
    return legitimate_configuration(topo, 1)


def test_apply_step_rejects_empty_activation():
    t = st_topology(3)
    cfg = _quiescent_config(t)
    with pytest.raises(EngineError, match="nonempty"):
        apply_step(cfg, Step(frozenset(), {}, {}), SS_ST, t)


def test_apply_step_rejects_byz_write_for_correct_process():
    t = st_topology(3, byz=(2,))
    cfg = _quiescent_config(t)
    bad = Step(
        activated=frozenset({1}),
        actions={},
        byz_writes={1: ByzWrite(ProcessState(0, 9), (RegisterValue(False, 9),) * 2)},
    )
    with pytest.raises(EngineError, match="correct process"):
        apply_step(cfg, bad, SS_ST, t)


def test_apply_step_rejects_wrong_recorded_action():
    t = st_topology(3)
    cfg = _quiescent_config(t)  # nothing is enabled here
    bad = Step(activated=frozenset({1}), actions={1: "GA1"}, byz_writes={})
    with pytest.raises(EngineError, match="records action"):
        apply_step(cfg, bad, SS_ST, t)


def test_byzantine_write_only_touches_own_state_and_registers():
    t = st_topology(3, byz=(2,))
    cfg = _quiescent_config(t)
    write = ByzWrite(ProcessState(0, 999), (RegisterValue(True, 999),) * t.degree(2))
    step = Step(activated=frozenset({2}), actions={}, byz_writes={2: write})
    nxt = apply_step(cfg, step, SS_ST, t)
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
    step = Step(activated=frozenset({0, 1}), actions={0: "GA1", 1: "GA1"}, byz_writes={})
    nxt = apply_step(cfg, step, SS_TO, t)
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
        return ExecutionTrace(initial=None, configs=cfgs, steps=steps, round_ends=[])

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
    daemon = Daemon(kind="distributed", fairness_bound=3, rng_seed=2, hostile=True)
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
    labels = evaluate_guards(view, "node", SS_ST)
    assert labels == evaluate_guards(view, "node", SS_ST)
    assert labels in ([], ["GA1"], ["GA2"])


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


def _tampered(trace, configs=None, steps=None, initial=None):
    """A copy of `trace` with {index: value} replacements in its
    configurations and steps, and optionally another initial configuration."""
    configs = [(configs or {}).get(k, c) for k, c in enumerate(trace.configs)]
    steps = [(steps or {}).get(k, s) for k, s in enumerate(trace.steps)]
    return ExecutionTrace(
        initial=trace.initial if initial is None else initial,
        configs=configs, steps=steps, round_ends=trace.round_ends, stop_reason=trace.stop_reason,
    )


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


def test_audit_rejects_trace_that_does_not_start_at_its_initial_configuration():
    t, trace, bound = _byz_trace()
    idle = min(set(range(t.n)) - trace.steps[0].activated)
    with pytest.raises(EngineError):
        check_trace(_tampered(trace, initial=_bumped_state(trace.initial, idle)), t, SS_ST, bound)


def test_audit_rejects_byzantine_write_recorded_for_correct_process():
    t, trace, bound = _byz_trace()
    i = _first_step(trace, t, lambda s, t: bool(s.activated - t.byzantine))
    step = trace.steps[i]
    pid = min(step.activated - t.byzantine)
    after = trace.configs[i + 1]
    write = ByzWrite(after.states[pid], tuple(after.registers[s] for s in t.out_slot[pid]))
    forged = Step(step.activated, step.actions, {**step.byz_writes, pid: write})
    with pytest.raises(EngineError):
        check_trace(_tampered(trace, steps={i: forged}), t, SS_ST, bound)


def test_step_rejects_overlapping_guards():
    from strongstab.engine import GuardedAction, LocalEffect, Protocol

    class Overlapping(Protocol):
        name = "overlapping"

        def actions(self, role):
            keep = lambda view: LocalEffect(view.state, view.out_regs)
            return (GuardedAction("A", lambda view: True, keep), GuardedAction("B", lambda view: True, keep))

    t = st_topology(3)
    step = Step(frozenset({1}), {1: "A"}, {})
    with pytest.raises(EngineError, match="not mutually exclusive"):
        apply_step(_quiescent_config(t), step, Overlapping(), t)


def test_audit_rejects_fairness_gap():
    t, trace, bound = _byz_trace()
    with pytest.raises(EngineError, match="fairness violated"):
        check_trace(trace, t, SS_ST, 1)


# --- differential: the one-pass audit against the five separate checks ------

def _ref_fire(topo, protocol, config, pid):
    view = local_view(topo, config, pid)
    enabled = [a for a in protocol.actions(protocol.role_of(topo, pid)) if a.guard(view)]
    if len(enabled) > 1:
        raise EngineError(f"guards not mutually exclusive: {[a.label for a in enabled]}")
    return (enabled[0], view) if enabled else (None, view)


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
            enabled = evaluate_guards(view, protocol.role_of(topo, pid), protocol)
            if len(enabled) > 1:
                raise EngineError("priority")
            if step.actions.get(pid) != (enabled[0] if enabled else None):
                raise EngineError("priority")


def _ref_check_replay(trace, topo, protocol):
    config = trace.initial
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


def _ref_check_trace(trace, topo, protocol, bound):
    _ref_check_locality(trace, topo)
    _ref_check_simultaneity(trace, topo, protocol)
    _ref_check_priority(trace, topo, protocol)
    _ref_check_replay(trace, topo, protocol)
    _ref_check_fairness(trace, topo.correct, bound)


def _raises(fn, *args):
    try:
        fn(*args)
    except Exception:  # guards may reject a tampered state with ValueError
        return True
    return False


def _mutated(trace, topo, rng):
    """One field of the trace, as a trace file stores it, changed at random.
    The start configuration is stored once, so `initial` and `configs[0]`
    change together."""
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
        return _tampered(trace, configs={k: cfg}, initial=cfg if kind == "start" else None)
    if kind == "activated":
        forged = Step(step.activated ^ {rng.randrange(topo.n)}, step.actions, step.byz_writes)
    elif kind == "label":
        pid = rng.randrange(topo.n)
        label = rng.choice([None, "GA0", "GA1", "GA2", "GA3"])
        forged = Step(step.activated, {**step.actions, pid: label}, step.byz_writes)
    else:
        pid = rng.randrange(topo.n)
        degree = topo.degree(pid) + rng.choice((0, 0, 1))
        write = ByzWrite(ProcessState(0, rng.randrange(9)), (RegisterValue(False, rng.randrange(9)),) * degree)
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
    trace = ExecutionTrace(initial=None, configs=[None] * (len(sets) + 1), steps=steps, round_ends=[])
    correct = frozenset(range(n))

    def message(check):
        try:
            check(trace, correct, bound)
        except EngineError as exc:
            return str(exc)
        return None

    assert message(check_fairness) == message(_ref_check_fairness)


# --- protocol `enabled` overrides against the per-guard list -----------------

def _enabled_outcome(enabled, role, view):
    try:
        return [a.label for a in enabled(role, view)]
    except ValueError as exc:
        return ("ValueError", str(exc))


_registers = st.builds(RegisterValue, st.booleans(), st.integers(0, 3))


@st.composite
def _views(draw):
    degree = draw(st.integers(1, 4))
    # prnt outside 1..degree makes the predicates that need a parent raise
    state = ProcessState(draw(st.integers(-1, degree + 1)), draw(st.integers(0, 3)))
    regs = st.lists(_registers, min_size=degree, max_size=degree).map(tuple)
    return LocalView(state, degree, draw(regs), draw(regs))


@settings(max_examples=400, deadline=None)
@given(protocol_role=st.sampled_from([(SS_TO, "node"), (SS_ST, "node"), (SS_ST, "root")]), view=_views())
def test_enabled_override_equals_per_guard_list(protocol_role, view):
    protocol, role = protocol_role
    base = _enabled_outcome(lambda r, v: Protocol.enabled(protocol, r, v), role, view)
    assert _enabled_outcome(protocol.enabled, role, view) == base


def test_enabled_override_raises_where_the_guards_raise():
    # no higher neighbor, the equal neighbor claims this process, prnt 0:
    # only pred3 is left to decide, and it needs a valid parent
    view = LocalView(ProcessState(0, 2), 1, (RegisterValue(True, 2),), (RegisterValue(False, 2),))
    for enabled in (SS_TO.enabled, lambda r, v: Protocol.enabled(SS_TO, r, v)):
        with pytest.raises(ValueError, match="pred3"):
            enabled("node", view)
