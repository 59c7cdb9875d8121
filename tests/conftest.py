import json
import random

from hypothesis import strategies as st

from strongstab.engine import (
    Configuration,
    Daemon,
    Kernel,
    LocalView,
    ProcessState,
    RegisterValue,
    StopCondition,
    arbitrary_configuration,
    run,
)
from strongstab.adversary import make_adversary
from strongstab.tree_orientation import _in_lc
from strongstab.topology import (
    build_topology,
    random_connected_graph_edges,
    random_tree_edges,
    TopologyError,
)


def path_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


def st_topology(n=3, byz=(), seed=0, edges=None):
    return build_topology(edges or path_edges(n), root=0, byzantine=byz, neighbor_seed=seed, mode="ss-st")


def to_topology(n=3, byz=(), seed=0, edges=None):
    return build_topology(edges or path_edges(n), byzantine=byz, neighbor_seed=seed, mode="ss-to")


def random_st_topology(n, f, seed, extra=1):
    """Random connected graph with root 0 and f Byzantine processes chosen so
    the correct subgraph stays connected."""
    rng = random.Random(seed)
    for attempt in range(60):
        s = seed * 100 + attempt
        edges = random_connected_graph_edges(n, extra, s)
        byz = rng.sample(range(1, n), f) if f else []
        try:
            return build_topology(edges, root=0, byzantine=byz, neighbor_seed=s, mode="ss-st")
        except TopologyError:
            continue
    raise AssertionError("no valid topology found")


def random_to_topology(n, f, seed, prefer_internal=False):
    rng = random.Random(seed)
    edges = random_tree_edges(n, seed)
    byz = []
    if f:
        degs = {}
        for u, v in edges:
            degs[u] = degs.get(u, 0) + 1
            degs[v] = degs.get(v, 0) + 1
        if prefer_internal:
            byz = [max(degs, key=lambda v: (degs[v], -v))]
        else:
            byz = rng.sample(range(n), f)
    return build_topology(edges, byzantine=byz, neighbor_seed=seed, mode="ss-to")


def quick_run(topo, protocol, adversary_name="silent", adversary_params=None, *,
              init=None, init_seed=0, daemon_seed=0, adversary_seed=0,
              max_steps=2000, fairness=None, kind="distributed", predicate=None):
    adv = make_adversary(adversary_name, adversary_params or {}, adversary_seed, topo, protocol)
    daemon = Daemon(
        kind=kind,
        fairness_bound=fairness if fairness is not None else 2 * topo.n,
        rng_seed=daemon_seed,
    )
    if init is None:
        init = arbitrary_configuration(topo, protocol, init_seed)
    trace = run(topo, protocol, adv, daemon, init, StopCondition(max_steps=max_steps, predicate=predicate))
    return trace, daemon


def in_lc1(config, topo):
    """ss-to's LC1: registers in sync and the spec at every correct process,
    and every branch of the one Byzantine process z C1 or C2."""
    return _in_lc(config, topo, c2_ok=True)


def check_level_monotonic(trace, topo):
    """A correct process's level never decreases, at any step of any run."""
    for i in range(len(trace.steps)):
        before, after = trace.configs[i], trace.configs[i + 1]
        for v in topo.correct:
            if after.states[v].level < before.states[v].level:
                raise AssertionError(f"level of {v} decreased at step {i + 1}")


def local_view(topo, config, v):
    """What process `v` reads in `config`: its state and its link registers."""
    degree, in_regs, out_regs = topo.register_access[v]
    regs = config.registers
    return LocalView(config.states[v], degree, in_regs(regs), regs[out_regs])


def ref_fire(protocol, role, view):
    """The reference step kernel, without a memo: the label and effect of the
    first of `role`'s actions, in priority order, whose guard holds in
    `view`, or None when none holds."""
    for action in protocol.actions(role):
        if action.guard(view):
            return action.label, action.effect(view)
    return None


def fired_label(protocol, role, view):
    """The label of the action a fresh `Kernel` fires (its miss path) for a
    process in `role` that sees exactly `view`, or None: fire at the center
    of a star."""
    root = None if protocol.name == "ss-to" else 0 if role == "root" else 1
    topo = build_topology([(0, k) for k in range(1, view.degree + 1)], root=root, mode=protocol.name)
    registers = [RegisterValue(False, 0)] * topo.num_registers
    for slot, value in zip(topo.in_slot[0] + topo.out_slot[0], view.in_regs + view.out_regs):
        registers[slot] = value
    config = Configuration((view.state,) + (ProcessState(1, 0),) * view.degree, tuple(registers))
    assert local_view(topo, config, 0) == view and protocol.role_of(topo, 0) == role
    fired = Kernel(topo, protocol).fire(config, 0)
    return fired and fired[0]


def ref_write_trace(path, trace, topo, protocol):
    """The reference trace writer: each record built as a dict and encoded
    whole with sorted keys, one per line."""

    def reg(r):
        return [int(r.prnt), r.level]

    dumps = json.JSONEncoder(sort_keys=True).encode
    with open(path, "w", encoding="utf-8") as fh:
        meta = {
            "type": "meta",
            "protocol": protocol.name,
            "n": topo.n,
            "edges": [list(e) for e in topo.edges],
            "root": topo.root,
            "byz": sorted(topo.byzantine),
            "neighbor_order": [list(o) for o in topo.neighbor_order],
        }
        fh.write(dumps(meta) + "\n")
        init = {
            "type": "init",
            "states": [list(s) for s in trace.configs[0].states],
            "registers": [reg(r) for r in trace.configs[0].registers],
        }
        fh.write(dumps(init) + "\n")
        for i, step in enumerate(trace.steps):
            before, after = trace.configs[i], trace.configs[i + 1]
            rec = {
                "type": "step",
                "i": i + 1,
                "activated": sorted(step.activated),
                "actions": {str(p): a for p, a in sorted(step.actions.items())},
                "byz": {
                    str(p): None if w is None else {"state": list(w.state), "out": [reg(r) for r in w.out_regs]}
                    for p, w in sorted(step.byz_writes.items())
                },
                "states": [list(s) for s in after.states],
                "reg_diff": {
                    str(slot): reg(new)
                    for slot, (old, new) in enumerate(zip(before.registers, after.registers))
                    if old != new
                },
            }
            fh.write(dumps(rec) + "\n")
        tail = {"type": "end", "stop_reason": trace.stop_reason, "round_ends": trace.round_ends}
        fh.write(dumps(tail) + "\n")


def keyed_text(arity, words=()):
    """Hypothesis strategy for `key arg...` input text over the keys of
    ``arity`` (key -> (fewest, most arguments or None)): lines with a known
    key and an argument count it takes (five in seven lines), stray tokens,
    comments, blank lines and arbitrary text."""
    token = st.one_of(
        st.integers(-1, 4).map(str),
        st.sampled_from(sorted(arity) + list(words)),
        st.text(alphabet="az=#-_.0123456789", min_size=1, max_size=5),
    )

    def well_formed(key):
        low, high = arity[key]
        return st.lists(token, min_size=low, max_size=low + 3 if high is None else high).map(lambda args: " ".join([key, *args]))

    known = st.sampled_from(sorted(arity)).flatmap(well_formed)
    line = st.one_of(known, known, known, known, known, st.lists(token, max_size=5).map(" ".join), st.text(max_size=12))
    return st.lists(line, max_size=12).map("\n".join)
