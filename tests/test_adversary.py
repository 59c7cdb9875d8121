import pytest

from conftest import path_edges, quick_run, st_topology, to_topology

from strongstab.adversary import ChainReplayAdversary, make_adversary
from strongstab.engine import (
    Daemon,
    LocalEffect,
    ProcessState,
    RegisterValue,
    StopCondition,
    Kernel,
    run,
)
from strongstab.spanning_tree import SS_ST, legitimate_configuration
from strongstab.tree_orientation import SS_TO
from strongstab.tree_orientation import legitimate_configuration as to_legit
from strongstab.topology import TopologyError
from strongstab import analysis


def test_unknown_strategy_name():
    t = st_topology(3, byz=(2,))
    with pytest.raises(ValueError, match="unknown adversary"):
        make_adversary("nope", {}, 0, t, SS_ST)


def test_silent_never_acts_and_pledges():
    t = st_topology(3, byz=(2,))
    adv = make_adversary("silent", {}, 0, t, SS_ST)
    cfg = legitimate_configuration(t, 0)
    assert adv.act(cfg, t, 2) is None
    assert adv.pledges_silence()


def test_fake_root_advertises_level_zero_then_goes_quiet():
    t = st_topology(3, byz=(2,))
    adv = make_adversary("fake-root", {}, 0, t, SS_ST)
    cfg = legitimate_configuration(t, 0)
    assert not adv.pledges_silence()
    write = adv.act(cfg, t, 2)
    assert write.state == ProcessState(0, 0)
    assert all(r == RegisterValue(False, 0) for r in write.out_regs)
    assert adv.pledges_silence()


def test_level_inflation_raises_by_step_each_activation():
    t = to_topology(3, byz=(2,))
    adv = make_adversary("level-inflation", {"step": 4}, 0, t, SS_TO)
    cfg = to_legit(t, 1, kind="lc2")
    w1 = adv.act(cfg, t, 2)
    assert w1.state.level == cfg.states[2].level + 4
    # apply and inflate again from the new state
    _, cfg2 = Kernel(t, SS_TO).step(cfg, frozenset({2}), {2: w1})
    w2 = adv.act(cfg2, t, 2)
    assert w2.state.level == w1.state.level + 4
    assert not adv.pledges_silence()


def test_oscillate_switches_phases_and_exhausts():
    t = st_topology(3, byz=(2,))
    adv = make_adversary("oscillate", {"period": 2, "cycles": 1}, 5, t, SS_ST)
    cfg = legitimate_configuration(t, 0)
    levels = [adv.act(cfg, t, 2).out_regs[0].level for _ in range(4)]
    assert levels[0] == levels[1] == 0
    assert levels[2] == levels[3] > 0
    assert adv.pledges_silence()
    assert adv.act(cfg, t, 2) is None


def test_chain_replay_requires_chain_with_byzantine_endpoints():
    star = to_topology(4, byz=(0, 3), edges=[(0, 1), (1, 2), (1, 3)])
    with pytest.raises(TopologyError, match="chain"):
        ChainReplayAdversary({}, 0, star, SS_TO)
    mid = to_topology(4, byz=(1, 3), edges=path_edges(4))
    with pytest.raises(TopologyError, match="chain"):
        ChainReplayAdversary({}, 0, mid, SS_TO)


def test_chain_replay_waits_for_quiescence_then_alternates_endpoints():
    t = to_topology(3, byz=(0, 2), edges=path_edges(3))
    trace, _ = quick_run(
        t, SS_TO, "chain-replay", {"reversals": 6},
        init_seed=4, daemon_seed=5, adversary_seed=6, max_steps=600,
    )
    writers = [pid for s in trace.steps for pid, w in s.byz_writes.items() if w is not None]
    assert len(writers) == 6
    assert all(a != b for a, b in zip(writers, writers[1:]))
    # the single interior process flipped its parent on every reversal wave
    flips = sum(
        trace.configs[i].states[1].prnt != trace.configs[i + 1].states[1].prnt
        for i in range(len(trace.steps))
    )
    assert flips >= 5


def test_engine_rejects_strategy_output_for_correct_process():
    t = st_topology(3, byz=(2,))
    cfg = legitimate_configuration(t, 0)
    rogue = {0: LocalEffect(ProcessState(0, 0), (RegisterValue(False, 0),))}
    with pytest.raises(Exception, match="correct process"):
        Kernel(t, SS_ST).step(cfg, frozenset({0}), rogue)


def test_max_damage_reproduces_oracle_worst_case():
    t = st_topology(3, byz=(2,), seed=1)
    oracle = analysis.brute_force_verify(t, SS_ST, "worst-disruptions", level_bound=3)
    adv = make_adversary("max-damage", {"level_bound": 3}, 0, t, SS_ST)
    daemon = Daemon(kind="central", fairness_bound=100_000, rng_seed=2)
    trace = run(t, SS_ST, adv, daemon, oracle.best_anchor, StopCondition(max_steps=500))
    report = analysis.verify_containment(trace, t, SS_ST, 0, {})
    assert report.t_observed == oracle.worst_disruptions
    assert report.k_observed <= oracle.worst_per_process
