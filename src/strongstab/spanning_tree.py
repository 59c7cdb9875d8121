"""Rooted spanning-tree construction that survives Byzantine neighbors.

A deceived process does not chase the "best-looking" neighbor; it walks its
neighbor list round-robin. That single choice is what bounds how often a
Byzantine process can disturb anyone: after being burned, a process must
cycle through all other neighbors before it can point at the liar again.

Protocol string name: ``ss-st``. O-variables: prnt and level.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, Optional

from .engine import (
    Bound,
    Configuration,
    GuardedAction,
    Kernel,
    LocalEffect,
    LocalView,
    ProcessState,
    Protocol,
    byzantine_writes,
    consistent_registers,
    out_registers,
    registers_stale,
)
from .engine import out_of_sync as pred2, resync as ga2  # the paper's names for the register-sync rule
from .topology import InputError, Topology, TopologyError


def next_after(k: int, degree: int) -> int:
    """Round-robin successor on 1..degree; any integer (junk included) maps in."""
    return (k % degree) + 1


def pred0(view: LocalView) -> bool:
    """Root is out of shape: nonzero state or any out-register not (false, 0)."""
    return view.state != (0, 0) or registers_stale(view.state, view.out_regs)


def pred1(view: LocalView) -> bool:
    """No valid parent, or own level does not extend the parent's register."""
    prnt = view.state.prnt
    if not 1 <= prnt <= view.degree:
        return True
    return view.state.level != view.in_regs[prnt - 1].level + 1


def ga0(view: LocalView) -> LocalEffect:
    return LocalEffect(state=ProcessState(0, 0), out_regs=out_registers(0, 0, view.degree))


def ga1(view: LocalView) -> LocalEffect:
    prnt = next_after(view.state.prnt, view.degree)
    level = view.in_regs[prnt - 1].level + 1
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
    bounds = (
        Bound("st_disruptions", "disruptions", lambda m: m.f * m.delta**m.d),
        Bound("st_changes", "changes", lambda m: m.delta**m.d),
        Bound("st_rounds", "rounds", lambda m: 4 * (m.n - m.f) * m.delta**m.d),
    )

    _root_actions = (GuardedAction("GA0", pred0, ga0),)
    # in the paper's priority order: GA2 fires only where pred1 does not hold
    _node_actions = (GuardedAction("GA1", pred1, ga1), GuardedAction("GA2", pred2, ga2))

    def actions(self, role: str) -> tuple[GuardedAction, ...]:
        return self._root_actions if role == "root" else self._node_actions

    spec = staticmethod(spec_st)

    def legitimate_set(self, topo: Topology, level_bound: int) -> Iterator[Configuration]:
        # the parents and the Byzantine registers force every level; quiescence turns away parent cycles
        if topo.root is None:
            raise TopologyError("legitimate set is defined for rooted topologies")
        quiescent = Kernel(topo, self).quiescent
        nodes = sorted(topo.correct - {topo.root})
        for write in byzantine_writes(topo, self, level_bound):
            for prnts in itertools.product(*(range(1, topo.degree(v) + 1) for v in nodes)):
                states = [ProcessState(0, 0)] * topo.n  # the root's state, and the pinned Byzantine one
                for _ in nodes:  # pass k settles each process k hops below the root or a Byzantine parent
                    for v, p in zip(nodes, prnts):
                        shown = write.get(topo.in_slot[v][p - 1]) or states[topo.neighbor_order[v][p - 1]]
                        states[v] = ProcessState(p, shown.level + 1)
                cfg = Configuration(tuple(states), consistent_registers(topo, states, write))
                if max(state.level for state in states) <= level_bound and quiescent(cfg):
                    yield cfg

    def legitimate_configuration(self, topo: Topology, seed: int, kind: Optional[str] = None) -> Configuration:
        if kind is not None:
            raise InputError(f"{self.name} has no legitimate kind {kind!r}")
        return legitimate_configuration(topo, seed)

    def sweep_placement(self, n: int, f: int, rng: random.Random) -> tuple[Optional[int], list[int]]:
        return 0, (rng.sample(range(1, n), f) if f else [])


SS_ST = SpanningTreeProtocol()
