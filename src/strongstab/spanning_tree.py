"""Rooted spanning-tree construction that survives Byzantine neighbors.

A deceived process does not chase the "best-looking" neighbor; it walks its
neighbor list round-robin. That single choice is what bounds how often a
Byzantine process can disturb anyone: after being burned, a process must
cycle through all other neighbors before it can point at the liar again.

Protocol string name: ``ss-st``. O-variables: prnt and level.
"""

from __future__ import annotations

import random
from typing import Optional

from .engine import (
    Configuration,
    GuardedAction,
    LocalEffect,
    LocalView,
    ProcessState,
    Protocol,
    RegisterValue,
    consistent_registers,
    out_registers,
)
from .topology import Topology, TopologyError


def next_after(k: int, degree: int) -> int:
    """Round-robin successor on 1..degree; any integer (junk included) maps in."""
    return (k % degree) + 1


def pred0(view: LocalView) -> bool:
    """Root is out of shape: nonzero state or any out-register not (false, 0)."""
    if view.state.prnt != 0 or view.state.level != 0:
        return True
    return any(r != RegisterValue(False, 0) for r in view.out_regs)


def pred1(view: LocalView) -> bool:
    """No valid parent, or own level does not extend the parent's register."""
    prnt = view.state.prnt
    if not 1 <= prnt <= view.degree:
        return True
    return view.state.level != view.in_regs[prnt - 1].level + 1


def pred2(view: LocalView) -> bool:
    """Out-registers disagree with the local state (requires a valid parent)."""
    prnt = view.state.prnt
    if not 1 <= prnt <= view.degree:
        raise ValueError("pred2 needs prnt in 1..degree")
    level = view.state.level
    for k, reg in enumerate(view.out_regs, 1):
        want = RegisterValue(prnt=(k == prnt), level=level)
        if reg != want:
            return True
    return False


def ga0(view: LocalView) -> LocalEffect:
    return LocalEffect(state=ProcessState(0, 0), out_regs=out_registers(0, 0, view.degree))


def ga1(view: LocalView) -> LocalEffect:
    prnt = next_after(view.state.prnt, view.degree)
    level = view.in_regs[prnt - 1].level + 1
    return LocalEffect(state=ProcessState(prnt, level), out_regs=out_registers(prnt, level, view.degree))


def ga2(view: LocalView) -> LocalEffect:
    prnt, level = view.state.prnt, view.state.level
    return LocalEffect(state=ProcessState(prnt, level), out_regs=out_registers(prnt, level, view.degree))


def spec_st(v: int, config: Configuration, topo: Topology) -> bool:
    """Per-process correctness: the root sits at (0, 0); everyone else has a
    real parent and either extends the parent's level variable by one or
    points at a Byzantine process."""
    st = config.states[v]
    if v == topo.root:
        return st.prnt == 0 and st.level == 0
    if not 1 <= st.prnt <= topo.degree(v):
        return False
    parent = topo.neighbor_order[v][st.prnt - 1]
    if parent in topo.byzantine:
        return True
    return st.level == config.states[parent].level + 1


def in_lc(config: Configuration, topo: Topology) -> bool:
    """Membership in the legitimate set: the quiescent configurations.

    Root at (0, 0); every correct non-root has a valid parent and a level
    one above what that parent shows it (the parent's own level for correct
    parents, the advertised register for Byzantine ones, which is all a
    child can ever see); and every correct process's out-registers agree
    with its state. Equivalent to "no correct process enabled".
    """
    if topo.root is None:
        raise TopologyError("legitimate set is defined for rooted topologies")
    for v in sorted(topo.correct):
        st = config.states[v]
        if v == topo.root:
            if st.prnt != 0 or st.level != 0:
                return False
        else:
            if not 1 <= st.prnt <= topo.degree(v):
                return False
            parent = topo.neighbor_order[v][st.prnt - 1]
            if parent in topo.byzantine:
                shown = config.registers[topo.in_slot[v][st.prnt - 1]].level
            else:
                shown = config.states[parent].level
            if st.level != shown + 1:
                return False
        for k, slot in enumerate(topo.out_slot[v], 1):
            if config.registers[slot] != RegisterValue(prnt=(k == st.prnt), level=st.level):
                return False
    return True


def legitimate_configuration(topo: Topology, seed: int) -> Configuration:
    """Seeded random member of the legitimate set.

    Grows a random spanning forest over the correct processes whose tree
    roots are the real root and the Byzantine processes (posing as fake
    roots at arbitrary levels), then propagates levels and writes every
    register consistently.
    """
    if topo.root is None or topo.root in topo.byzantine:
        raise TopologyError("need a correct root")
    rng = random.Random(seed)
    level = {b: rng.randint(0, 2 * topo.n) for b in topo.byzantine}
    level[topo.root] = 0
    parent: dict[int, int] = {}
    frontier = [topo.root] + sorted(topo.byzantine)
    rng.shuffle(frontier)
    reached = set(frontier)
    while frontier:
        idx = rng.randrange(len(frontier))
        v = frontier.pop(idx)
        for u in topo.neighbor_order[v]:
            if u in reached or u in topo.byzantine:
                continue
            reached.add(u)
            parent[u] = v
            level[u] = level[v] + 1
            frontier.append(u)
    if reached != set(range(topo.n)):
        raise TopologyError("correct subgraph must be connected")

    states = []
    for v in range(topo.n):
        if v == topo.root:
            states.append(ProcessState(0, 0))
        elif v in topo.byzantine:
            states.append(ProcessState(rng.randint(0, topo.degree(v)), level[v]))
        else:
            states.append(ProcessState(topo.neighbor_pos[v][parent[v]], level[v]))
    return Configuration(states=tuple(states), registers=consistent_registers(topo, states))


class SpanningTreeProtocol(Protocol):
    name = "ss-st"
    o_variables = ("prnt", "level")
    # GA1 and GA2 read only the levels of in-registers
    reads_parent_bit = False
    bound_names = ("st_disruptions", "st_changes", "st_rounds")

    _root_actions = (GuardedAction("GA0", pred0, ga0),)
    _node_actions = (
        GuardedAction("GA1", pred1, ga1),
        GuardedAction("GA2", lambda v: not pred1(v) and pred2(v), ga2),
    )

    def actions(self, role: str) -> tuple[GuardedAction, ...]:
        return self._root_actions if role == "root" else self._node_actions

    def enabled(self, role: str, view: LocalView) -> list[GuardedAction]:
        if role == "root":
            return super().enabled(role, view)
        a1, a2 = self._node_actions  # the node guards, with pred1 evaluated once
        return [a1] if pred1(view) else [a2] if pred2(view) else []

    spec = staticmethod(spec_st)
    in_legitimate_set = staticmethod(in_lc)

    def fast_stable(self, config: Configuration, topo: Topology) -> bool:
        return topo.root is not None and in_lc(config, topo)

    def legitimate_configuration(self, topo: Topology, seed: int, kind: Optional[str] = None) -> Configuration:
        if kind is not None:
            raise ValueError(f"{self.name} has no legitimate kind {kind!r}")
        return legitimate_configuration(topo, seed)

    def sweep_placement(self, n: int, f: int, rng: random.Random) -> tuple[Optional[int], list[int]]:
        return 0, (rng.sample(range(1, n), f) if f else [])

    def anchor_states(self, topo: Topology, v: int, level_bound: int) -> list[ProcessState]:
        if v == topo.root:
            return [ProcessState(0, 0)]
        return super().anchor_states(topo, v, level_bound)


SS_ST = SpanningTreeProtocol()
