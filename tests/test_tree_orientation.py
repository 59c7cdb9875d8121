import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import check_level_monotonic, fired_label, in_lc1, quick_run, random_to_topology, to_topology

from strongstab.engine import (
    Configuration,
    LocalView,
    ProcessState,
    RegisterValue,
    Kernel,
    consistent_registers,
)
from strongstab.tree_orientation import (
    SS_TO,
    ga1,
    ga2,
    in_lc2,
    legitimate_configuration,
    pred1,
    pred2,
    pred3,
    spec_to,
)
from strongstab.topology import TopologyError


def view(prnt, level, in_regs, out_regs=None):
    degree = len(in_regs)
    if out_regs is None:
        out_regs = [RegisterValue(k == prnt, level) for k in range(1, degree + 1)]
    return LocalView(ProcessState(prnt, level), degree, tuple(in_regs), tuple(out_regs))


def test_higher_neighbor_level_enables_adoption():
    v = view(1, 3, [RegisterValue(True, 2), RegisterValue(False, 9)])
    assert pred1(v)
    assert fired_label(SS_TO, "node", v) == "GA1"


def test_equal_level_unoriented_edge_enables_tiebreak():
    v = view(1, 4, [RegisterValue(True, 4), RegisterValue(False, 4)])
    assert not pred1(v)
    assert pred2(v)
    assert fired_label(SS_TO, "node", v) == "GA2"


def test_consistent_registers_leave_nothing_enabled():
    v = view(2, 4, [RegisterValue(False, 3), RegisterValue(True, 4)])
    assert not pred3(v)
    assert fired_label(SS_TO, "node", v) is None


def test_adoption_takes_the_maximum_with_lowest_index_ties():
    v = view(1, 3, [RegisterValue(False, 5), RegisterValue(False, 2)])
    effect = ga1(v)
    assert effect.state == ProcessState(1, 5)
    tied = view(2, 3, [RegisterValue(False, 5), RegisterValue(False, 5)])
    assert ga1(tied).state == ProcessState(1, 5)


def test_mutual_root_link_is_stable():
    # both endpoints point at each other with equal levels: nothing fires
    v = view(1, 4, [RegisterValue(True, 4)])
    assert fired_label(SS_TO, "node", v) is None


def test_tiebreak_increments_and_adopts_hand_traced_chain():
    # chain u-v-w with v pointing at w; u has the same level and does not
    # point at v, so v adopts u and bumps its level to 5
    t = to_topology(3, seed=2)
    k_u = t.neighbor_pos[1][0]
    k_w = t.neighbor_pos[1][2]
    in_regs = [None, None]
    in_regs[k_u - 1] = RegisterValue(False, 4)
    in_regs[k_w - 1] = RegisterValue(True, 4)
    v = view(k_w, 4, in_regs)
    assert fired_label(SS_TO, "node", v) == "GA2"
    effect = ga2(v)
    assert effect.state == ProcessState(k_u, 5)
    assert effect.out_regs[k_u - 1] == RegisterValue(True, 5)


def test_spec_examples():
    t = to_topology(4, seed=1)
    pos = t.neighbor_pos
    # oriented toward the 1-2 root link
    states = [
        ProcessState(pos[0][1], 5),
        ProcessState(pos[1][2], 5),
        ProcessState(pos[2][1], 5),
        ProcessState(pos[3][2], 5),
    ]
    cfg = Configuration(tuple(states), consistent_registers(t, states))
    assert all(spec_to(v, cfg, t) for v in range(4))

    # 1 and 2 point away from each other: both violate the contract
    states[1] = ProcessState(pos[1][0], 5)
    states[2] = ProcessState(pos[2][3], 5)
    cfg = Configuration(tuple(states), consistent_registers(t, states))
    assert not spec_to(1, cfg, t) and not spec_to(2, cfg, t)

    tb = to_topology(2, byz=(0,))
    states = [ProcessState(1, 0), ProcessState(1, 9)]
    cfg = Configuration(tuple(states), consistent_registers(tb, states))
    assert spec_to(1, cfg, tb)  # the only neighbor is Byzantine


def _quiet_z(t, states, z):
    regs = list(consistent_registers(t, states))
    for slot in t.out_slot[z]:
        regs[slot] = RegisterValue(False, 0)  # z advertises nothing appealing
    return Configuration(tuple(states), tuple(regs))


def _lc1_fixture(as_c1_left=True):
    # path 0-1-2-3-4 with Byzantine center 2: branches {0,1} and {3,4}
    t = to_topology(5, byz=(2,), seed=3)
    pos = t.neighbor_pos
    if as_c1_left:
        left = [ProcessState(pos[0][1], 3), ProcessState(pos[1][2], 4)]
    else:  # internal root link 0-1, equal levels
        left = [ProcessState(pos[0][1], 3), ProcessState(pos[1][0], 3)]
    right = [ProcessState(pos[3][2], 6), ProcessState(pos[4][3], 5)]
    return t, _quiet_z(t, left + [ProcessState(1, 0)] + right, 2)


def test_lc1_takes_internally_rooted_branches_lc2_does_not():
    t, cfg = _lc1_fixture(as_c1_left=False)  # left branch C2, right branch C1
    assert in_lc1(cfg, t) and not in_lc2(cfg, t)

    t, cfg = _lc1_fixture(as_c1_left=True)  # both branches C1
    assert in_lc2(cfg, t) and in_lc1(cfg, t)


def test_neither_when_levels_split_without_pointer_to_byzantine():
    t = to_topology(5, byz=(2,), seed=3)
    pos = t.neighbor_pos
    states = [
        ProcessState(pos[0][1], 3),
        ProcessState(pos[1][0], 7),  # two levels, root link present
        ProcessState(1, 0),
        ProcessState(pos[3][2], 6),
        ProcessState(pos[4][3], 5),
    ]
    cfg = Configuration(tuple(states), consistent_registers(t, states))
    assert not in_lc1(cfg, t) and not in_lc2(cfg, t)


def test_neither_when_levels_rise_away_from_byzantine():
    # the right branch's root 3 points at z, but the level rises from 5 at 3 to 6 at 4
    t = to_topology(5, byz=(2,), seed=3)
    pos = t.neighbor_pos
    states = [ProcessState(pos[0][1], 3), ProcessState(pos[1][2], 4), ProcessState(1, 0)]
    cfg = _quiet_z(t, states + [ProcessState(pos[3][2], 5), ProcessState(pos[4][3], 6)], 2)
    assert not in_lc1(cfg, t) and not in_lc2(cfg, t)
    cfg = _quiet_z(t, states + [ProcessState(pos[3][2], 5), ProcessState(pos[4][3], 5)], 2)
    assert in_lc2(cfg, t)


def test_neither_when_an_edge_inside_a_branch_is_unoriented():
    # path 0-...-6 with Byzantine 3: branch {0,1,2} has one level and its root 2
    # points at z, but 1 points at 0, so the edge 1-2 is oriented by neither end
    t = to_topology(7, byz=(3,), seed=4)
    pos = t.neighbor_pos
    states = [
        ProcessState(pos[0][1], 4),
        ProcessState(pos[1][0], 4),
        ProcessState(pos[2][3], 4),
        ProcessState(1, 0),
        ProcessState(pos[4][3], 4),
        ProcessState(pos[5][4], 4),
        ProcessState(pos[6][5], 4),
    ]
    cfg = _quiet_z(t, states, 3)
    assert not spec_to(1, cfg, t) and not spec_to(2, cfg, t)
    assert not in_lc1(cfg, t) and not in_lc2(cfg, t)


def test_one_process_branch_points_at_byzantine_whatever_its_level():
    # path 0-1-2 with Byzantine 1: each branch is one leaf, whose only prnt value
    # names z, so it is C1 at any level; a prnt outside 1..degree is in neither set
    t = to_topology(3, byz=(1,), seed=0)
    for left, right in ((0, 7), (5, 2)):
        cfg = _quiet_z(t, [ProcessState(1, left), ProcessState(1, 0), ProcessState(1, right)], 1)
        assert in_lc2(cfg, t) and in_lc1(cfg, t)
    cfg = _quiet_z(t, [ProcessState(2, 5), ProcessState(1, 0), ProcessState(1, 2)], 1)
    assert not in_lc1(cfg, t) and not in_lc2(cfg, t)


@pytest.mark.parametrize("byz", [(), (0, 4)], ids=["f0", "f2"])
def test_lc1_and_lc2_need_exactly_one_byzantine_process(byz):
    t = to_topology(5, byz=byz, seed=3)
    states = [ProcessState(1, 0)] * 5
    cfg = Configuration(tuple(states), consistent_registers(t, states))
    for in_lc in (in_lc1, in_lc2):
        with pytest.raises(TopologyError, match="exactly one Byzantine"):
            in_lc(cfg, t)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 16), seed=st.integers(0, 10_000))
def test_lc0_generator_members_are_quiescent(n, seed):
    t = random_to_topology(n, 0, seed)
    cfg = legitimate_configuration(t, seed, kind="lc0")
    assert Kernel(t, SS_TO).quiescent(cfg)
    assert len({state.level for state in cfg.states}) == 1  # LC0 is flat


@settings(max_examples=30, deadline=None)
@given(n=st.integers(3, 16), seed=st.integers(0, 10_000), internal=st.booleans())
def test_lc_generators_classify_as_promised(n, seed, internal):
    t = random_to_topology(n, 1, seed, prefer_internal=internal)
    cfg2 = legitimate_configuration(t, seed + 1, kind="lc2")
    assert in_lc2(cfg2, t)
    cfg1 = legitimate_configuration(t, seed + 2, kind="lc1")
    assert in_lc1(cfg1, t)


def test_no_parent_changes_after_lc2_under_inflation():
    t = random_to_topology(9, 1, 5, prefer_internal=True)
    init = legitimate_configuration(t, 6, kind="lc2")
    trace, _ = quick_run(
        t, SS_TO, "level-inflation", {"step": 3},
        init=init, daemon_seed=8, adversary_seed=9, max_steps=700,
    )
    for i in range(len(trace.steps)):
        for v in t.correct:
            assert trace.configs[i + 1].states[v].prnt == trace.configs[i].states[v].prnt
    check_level_monotonic(trace, t)


def test_levels_never_decrease_on_arbitrary_runs():
    t = random_to_topology(10, 1, 7)
    trace, _ = quick_run(
        t, SS_TO, "oscillate", {"period": 2, "cycles": 5},
        init_seed=1, daemon_seed=2, adversary_seed=3, max_steps=1200,
    )
    check_level_monotonic(trace, t)
