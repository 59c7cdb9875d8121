import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fired_label, quick_run, random_st_topology, st_topology

from strongstab.engine import (
    Configuration,
    Kernel,
    LocalView,
    ProcessState,
    RegisterValue,
    consistent_registers,
)
from strongstab.spanning_tree import (
    SS_ST,
    ga1,
    legitimate_configuration,
    next_after,
    pred0,
    pred1,
    pred2,
    spec_st,
)
from strongstab import analysis


def view(prnt, level, degree, in_regs=None, out_regs=None):
    default = RegisterValue(False, 0)
    return LocalView(
        state=ProcessState(prnt, level),
        degree=degree,
        in_regs=tuple(in_regs or [default] * degree),
        out_regs=tuple(out_regs or [default] * degree),
    )


@pytest.mark.parametrize("k, degree, expect", [(1, 3, 2), (3, 3, 1), (0, 1, 1), (0, 2, 1), (0, 3, 1)])
def test_round_robin_successor(k, degree, expect):
    assert next_after(k, degree) == expect


def test_quiescent_root_has_no_enabled_guard():
    v = view(0, 0, 2)
    assert not pred0(v)
    assert fired_label(SS_ST, "root", v) is None


def test_root_with_nonzero_level_fires_reset():
    assert fired_label(SS_ST, "root", view(0, 7, 2)) == "GA0"
    # a dirty out-register alone also triggers the reset
    dirty = view(0, 0, 2, out_regs=[RegisterValue(False, 0), RegisterValue(True, 0)])
    assert fired_label(SS_ST, "root", dirty) == "GA0"


def test_parentless_process_is_enabled():
    assert pred1(view(0, 3, 2))
    assert pred1(view(5, 3, 2))  # out-of-range junk counts as no parent


def test_quiescent_non_root():
    in_regs = [RegisterValue(False, 1), RegisterValue(False, 4)]
    out_regs = [RegisterValue(False, 5), RegisterValue(True, 5)]
    v = view(2, 5, 2, in_regs, out_regs)
    assert not pred1(v)
    assert not pred2(v)
    assert fired_label(SS_ST, "node", v) is None


def test_register_mismatch_enables_rewrite_only():
    in_regs = [RegisterValue(False, 4), RegisterValue(False, 1)]
    stale = [RegisterValue(False, 0), RegisterValue(False, 5)]
    v = view(2, 2, 2, in_regs, stale)
    assert fired_label(SS_ST, "node", v) == "GA2"


def test_adoption_reads_the_new_parents_register():
    # prnt advances 1 -> 2; the k=2 register shows 4, so the level becomes 5
    in_regs = [RegisterValue(False, 9), RegisterValue(False, 4)]
    v = view(1, 9 + 1, 3, in_regs + [RegisterValue(False, 0)])
    effect = ga1(view(1, 7, 3, in_regs + [RegisterValue(False, 0)]))
    assert effect.state == ProcessState(2, 5)
    assert effect.out_regs[1] == RegisterValue(True, 5)
    assert effect.out_regs[0] == RegisterValue(False, 5)
    assert effect.out_regs[2] == RegisterValue(False, 5)


def test_spec_examples():
    t = st_topology(3, byz=(2,))
    # node 1 adopted the Byzantine neighbor: the escape clause applies
    k_byz = t.neighbor_pos[1][2]
    states = [ProcessState(0, 0), ProcessState(k_byz, 4), ProcessState(0, 77)]
    cfg = Configuration(tuple(states), consistent_registers(t, states))
    assert spec_st(1, cfg, t)

    bad_root = [ProcessState(0, 3), ProcessState(t.neighbor_pos[1][0], 4), ProcessState(0, 0)]
    cfg = Configuration(tuple(bad_root), consistent_registers(t, bad_root))
    assert not spec_st(0, cfg, t)

    t2 = st_topology(3)
    chain = [ProcessState(0, 0), ProcessState(t2.neighbor_pos[1][0], 1), ProcessState(t2.neighbor_pos[2][1], 2)]
    cfg = Configuration(tuple(chain), consistent_registers(t2, chain))
    assert all(spec_st(v, cfg, t2) for v in range(3))


def test_fake_root_shape_is_legitimate():
    # two trees: one under the real root, one under a Byzantine process that
    # advertises itself as a root; edge 1-4 keeps the correct processes
    # connected around it
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 4)]
    t = st_topology(6, byz=(3,), edges=edges, seed=4)
    pos = t.neighbor_pos
    states = [
        ProcessState(0, 0),
        ProcessState(pos[1][0], 1),
        ProcessState(pos[2][1], 2),
        ProcessState(0, 0),  # fake root
        ProcessState(pos[4][3], 1),
        ProcessState(pos[5][4], 2),
    ]
    cfg = Configuration(tuple(states), consistent_registers(t, states))
    assert all(spec_st(v, cfg, t) for v in analysis.c_correct_set(t, 0))
    assert Kernel(t, SS_ST).quiescent(cfg)  # levels happen to chain correctly here


def test_lc_membership_on_three_node_path_with_byzantine_leaf():
    # enumerated against the set definition: node 1 between the root and a
    # Byzantine process; membership turns on what the parent shows it
    t = st_topology(3, byz=(2,))
    k_root, k_byz = t.neighbor_pos[1][0], t.neighbor_pos[1][2]

    def cfg(prnt, level, byz_reg_level):
        states = [ProcessState(0, 0), ProcessState(prnt, level), ProcessState(0, 5)]
        regs = list(consistent_registers(t, states))
        slot = t.out_slot[2][t.neighbor_pos[2][1] - 1]
        regs[slot] = RegisterValue(False, byz_reg_level)
        return Configuration(tuple(states), tuple(regs))

    quiescent = Kernel(t, SS_ST).quiescent
    assert quiescent(cfg(k_root, 1, 9))
    assert not quiescent(cfg(k_root, 2, 9))
    assert quiescent(cfg(k_byz, 10, 9))  # level = advertised 9 + 1
    assert not quiescent(cfg(k_byz, 9, 9))
    assert not quiescent(cfg(0, 1, 9))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(3, 16), f=st.integers(0, 3), seed=st.integers(0, 10_000))
def test_closure_no_correct_process_enabled_in_lc(n, f, seed):
    t = random_st_topology(n, min(f, n - 2), seed)
    cfg = legitimate_configuration(t, seed + 1)
    assert Kernel(t, SS_ST).quiescent(cfg)


def test_round_robin_recovery_on_traces():
    # consecutive adoptions by one process walk its neighbor list in order,
    # so re-designating the same neighbor takes a full cycle
    t = random_st_topology(6, 1, 11, extra=2)
    trace, _ = quick_run(
        t, SS_ST, "oscillate", {"period": 1, "cycles": 6},
        init_seed=3, daemon_seed=4, adversary_seed=5, max_steps=1500,
    )
    last_ga1_prnt: dict[int, int] = {}
    for i, step in enumerate(trace.steps):
        for pid, label in step.actions.items():
            if label != "GA1":
                continue
            new_prnt = trace.configs[i + 1].states[pid].prnt
            if pid in last_ga1_prnt:
                assert new_prnt == next_after(last_ga1_prnt[pid], t.degree(pid))
            last_ga1_prnt[pid] = new_prnt


def test_per_process_action_bound_after_stabilization():
    # depth-delta processes act at most Delta^delta times once legitimate
    t = random_st_topology(7, 1, 23, extra=1)
    trace, _ = quick_run(
        t, SS_ST, "oscillate", {"period": 1, "cycles": 8},
        init=legitimate_configuration(t, 2), daemon_seed=6, adversary_seed=7, max_steps=2500,
    )
    # BFS depth within the correct subgraph
    depth = {t.root: 0}
    frontier = [t.root]
    while frontier:
        nxt = []
        for v in frontier:
            for u in t.neighbor_order[v]:
                if u in t.correct and u not in depth:
                    depth[u] = depth[v] + 1
                    nxt.append(u)
        frontier = nxt
    fired = {v: 0 for v in t.correct}
    for step in trace.steps:
        for pid, label in step.actions.items():
            if label is not None:
                fired[pid] += 1
    for v in t.correct:
        assert fired[v] <= t.max_degree ** max(depth[v], 1), (v, fired[v], depth[v])
