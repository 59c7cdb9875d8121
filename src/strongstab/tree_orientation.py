"""Tree orientation by root link, with one-sided Byzantine influence.

Every process keeps a non-decreasing level and adopts the neighbor showing
the highest level. A Byzantine process can therefore pull the root link
toward itself by inflating its level, but it can never push the link away:
lowering its advertised level enables nobody. With a single Byzantine
process that caps the damage at one parent change per correct process.

Protocol string name: ``ss-to``. O-variable: prnt only; level is internal.
"""

from __future__ import annotations

import random
from enum import Enum
from typing import Optional

from .engine import (
    Bound,
    BoundInputs,
    Configuration,
    ExecutionTrace,
    GuardedAction,
    LocalEffect,
    LocalView,
    ProcessState,
    Protocol,
    RegisterValue,
    consistent_registers,
    out_registers,
    registers_stale,
)
from .engine import out_of_sync as pred3, resync as ga3  # the paper's names for the register-sync rule
from .topology import InputError, Topology, TopologyError


def pred1(view: LocalView) -> bool:
    """Some neighbor advertises a strictly higher level."""
    return any(r.level > view.state.level for r in view.in_regs)


def pred2(view: LocalView) -> bool:
    """Some non-parent neighbor has an equal level and does not claim this
    process as its parent: the edge is unoriented on both sides."""
    prnt, level = view.state.prnt, view.state.level
    return any(
        k != prnt and r.level == level and not r.prnt
        for k, r in enumerate(view.in_regs, 1)
    )


def ga1(view: LocalView) -> LocalEffect:
    # adopt the maximal advertised level; ties go to the lowest neighbor index
    best = max(r.level for r in view.in_regs)
    prnt = next(k for k, r in enumerate(view.in_regs, 1) if r.level == best)
    return LocalEffect(state=ProcessState(prnt, best), out_regs=out_registers(prnt, best, view.degree))


def ga2(view: LocalView) -> LocalEffect:
    old_prnt, level = view.state.prnt, view.state.level
    prnt = next(
        k
        for k, r in enumerate(view.in_regs, 1)
        if k != old_prnt and r.level == level and not r.prnt
    )
    level += 1
    return LocalEffect(state=ProcessState(prnt, level), out_regs=out_registers(prnt, level, view.degree))


def spec_to(v: int, config: Configuration, topo: Topology) -> bool:
    """Every incident edge is oriented by one of its endpoints, Byzantine
    neighbors excepted."""
    prnt = config.states[v].prnt
    mine = topo.neighbor_order[v][prnt - 1] if 1 <= prnt <= topo.degree(v) else None
    for u in topo.neighbor_order[v]:
        if u in topo.byzantine or mine == u:
            continue
        up = config.states[u].prnt
        if not (1 <= up <= topo.degree(u) and topo.neighbor_order[u][up - 1] == v):
            return False
    return True


class SubtreeClass(Enum):
    C1 = "C1"
    C2 = "C2"
    NEITHER = "neither"


def components_without(topo: Topology, z: int) -> list[frozenset[int]]:
    """Connected components of the system minus one process."""
    remaining = set(range(topo.n)) - {z}
    comps = []
    while remaining:
        start = min(remaining)
        seen = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for u in topo.neighbor_order[v]:
                if u in remaining and u not in seen:
                    seen.add(u)
                    frontier.append(u)
        comps.append(frozenset(seen))
        remaining -= seen
    return comps


def _points_at(config: Configuration, topo: Topology, v: int, u: int) -> bool:
    prnt = config.states[v].prnt
    return 1 <= prnt <= topo.degree(v) and topo.neighbor_order[v][prnt - 1] == u


def classify_subtree(config: Configuration, topo: Topology, subtree: frozenset[int], z: int) -> SubtreeClass:
    """C1: oriented toward the Byzantine process with levels non-increasing
    away from it; C2: internally rooted with all levels equal; else neither.
    Nearness is hop distance in the full tree."""
    if topo.byzantine != {z}:
        raise TopologyError("classification needs exactly one Byzantine process")
    spec_ok = all(spec_to(v, config, topo) for v in subtree)

    # hop distances from z inside subtree + z
    dist = {z: 0}
    frontier = [z]
    while frontier:
        v = frontier.pop()
        for u in topo.neighbor_order[v]:
            if (u in subtree) and u not in dist:
                dist[u] = dist[v] + 1
                frontier.append(u)
    y = next(u for u in topo.neighbor_order[z] if u in subtree)

    monotone = True
    for v in subtree:
        for u in topo.neighbor_order[v]:
            if u in subtree and dist[u] == dist[v] + 1:
                if config.states[v].level < config.states[u].level:
                    monotone = False
    if spec_ok and _points_at(config, topo, y, z) and monotone:
        return SubtreeClass.C1

    levels = {config.states[v].level for v in subtree}
    if spec_ok and len(levels) == 1:
        return SubtreeClass.C2
    return SubtreeClass.NEITHER


def _registers_consistent(config: Configuration, topo: Topology, who) -> bool:
    for v in who:
        degree, _, out = topo.register_access[v]
        st = config.states[v]
        if not 1 <= st.prnt <= degree or registers_stale(st, config.registers[out]):
            return False
    return True


def in_lc0(config: Configuration, topo: Topology) -> bool:
    """Fault-free legitimate set: spec everywhere, one shared level, and
    out-registers in sync (the quiescent configurations)."""
    if topo.byzantine:
        raise TopologyError("lc0 is a fault-free notion")
    if not _registers_consistent(config, topo, range(topo.n)):
        return False
    if len({config.states[v].level for v in range(topo.n)}) != 1:
        return False
    return all(spec_to(v, config, topo) for v in range(topo.n))


def _single_byz(topo: Topology) -> int:
    if len(topo.byzantine) != 1:
        raise TopologyError("lc1/lc2 need exactly one Byzantine process")
    return next(iter(topo.byzantine))


def _every_subtree_in(config: Configuration, topo: Topology, classes: tuple[SubtreeClass, ...]) -> bool:
    z = _single_byz(topo)
    return _registers_consistent(config, topo, sorted(topo.correct)) and all(
        classify_subtree(config, topo, comp, z) in classes for comp in components_without(topo, z)
    )


def in_lc1(config: Configuration, topo: Topology) -> bool:
    return _every_subtree_in(config, topo, (SubtreeClass.C1, SubtreeClass.C2))


def in_lc2(config: Configuration, topo: Topology) -> bool:
    return _every_subtree_in(config, topo, (SubtreeClass.C1,))


LEGITIMATE_KINDS = ("auto", "lc0", "lc1", "lc2")


def legitimate_configuration(topo: Topology, seed: int, kind: str = "auto") -> Configuration:
    """Seeded member of LC0 (fault-free), LC2, or a mixed LC1 configuration.

    kind: 'auto' picks lc0 when fault-free and lc2 otherwise; 'lc1' makes
    each multi-process component internally rooted (C2) or z-oriented (C1)
    at random.
    """
    if kind not in LEGITIMATE_KINDS:
        raise ValueError(f"unknown legitimate kind {kind!r}; known: {', '.join(LEGITIMATE_KINDS)}")
    rng = random.Random(seed)
    if kind == "auto":
        kind = "lc0" if not topo.byzantine else "lc2"
    if kind == "lc0":
        if topo.byzantine:
            raise TopologyError("lc0 generation is fault-free only")
        u, v = topo.edges[rng.randrange(len(topo.edges))]
        states = _orient_toward(topo, {u, v}, set(range(topo.n)), rng.randint(0, 2 * topo.n), flat=True)
        states[u] = ProcessState(topo.neighbor_pos[u][v], states[u].level)
        states[v] = ProcessState(topo.neighbor_pos[v][u], states[v].level)
        ordered = [states[w] for w in range(topo.n)]
        return Configuration(tuple(ordered), consistent_registers(topo, ordered))

    z = _single_byz(topo)
    states: dict[int, ProcessState] = {z: ProcessState(rng.randint(1, topo.degree(z)), rng.randint(0, 2 * topo.n))}
    z_regs: dict[int, RegisterValue] = {}
    for comp in components_without(topo, z):
        y = next(u for u in topo.neighbor_order[z] if u in comp)
        as_c1 = kind == "lc2" or len(comp) == 1 or rng.random() < 0.5
        if as_c1:
            top = rng.randint(1, 2 * topo.n)
            comp_states = _orient_toward(topo, {y}, set(comp), top, flat=False, rng=rng)
            comp_states[y] = ProcessState(topo.neighbor_pos[y][z], comp_states[y].level)
        else:
            edge = rng.choice([e for e in topo.edges if e[0] in comp and e[1] in comp])
            a, b = edge
            top = rng.randint(1, 2 * topo.n)
            comp_states = _orient_toward(topo, {a, b}, set(comp), top, flat=True)
            comp_states[a] = ProcessState(topo.neighbor_pos[a][b], top)
            comp_states[b] = ProcessState(topo.neighbor_pos[b][a], top)
        states.update(comp_states)
        # keep the anchor stable: z must not out-advertise or court its neighbor
        z_regs[y] = RegisterValue(prnt=bool(rng.getrandbits(1)), level=max(0, comp_states[y].level - 1))

    ordered = [states[v] for v in range(topo.n)]
    registers = list(consistent_registers(topo, ordered))
    for k, slot in enumerate(topo.out_slot[z], 1):
        neighbor = topo.neighbor_order[z][k - 1]
        registers[slot] = z_regs[neighbor]
    return Configuration(tuple(ordered), tuple(registers))


def _orient_toward(topo, sinks: set[int], members: set[int], top_level: int, flat: bool, rng=None):
    """prnt pointing along BFS toward the sink set; levels equal (flat) or
    non-increasing away from the sinks."""
    states: dict[int, ProcessState] = {}
    dist = {s: 0 for s in sinks}
    level = {s: top_level for s in sinks}
    frontier = sorted(sinks)
    while frontier:
        nxt = []
        for v in frontier:
            for u in topo.neighbor_order[v]:
                if u in members and u not in dist:
                    dist[u] = dist[v] + 1
                    drop = 0 if flat or rng is None else rng.randint(0, 1)
                    level[u] = max(0, level[v] - drop)
                    states[u] = ProcessState(topo.neighbor_pos[u][v], level[u])
                    nxt.append(u)
        frontier = nxt
    for s in sinks:
        if s in members and s not in states:
            states[s] = ProcessState(1, top_level)  # parent fixed up by caller
    return states


def check_level_monotonic(trace: ExecutionTrace, topo: Topology) -> None:
    """A correct process's level never decreases, at any step of any run."""
    for i in range(len(trace.steps)):
        before, after = trace.configs[i], trace.configs[i + 1]
        for v in topo.correct:
            if after.states[v].level < before.states[v].level:
                raise AssertionError(f"level of {v} decreased at step {i + 1}")


def _byzantine_degree(m: BoundInputs) -> int:
    """Δ_z, the degree of the one Byzantine process z."""
    if len(m.topo.byzantine) != 1:
        raise InputError("to_disruptions needs exactly one Byzantine process")
    return m.topo.degree(next(iter(m.topo.byzantine)))


class TreeOrientationProtocol(Protocol):
    name = "ss-to"
    o_variables = ("prnt",)
    prnt_min = 1
    # the containment bounds are proved for one Byzantine process, the round bound fault-free
    bounds = (
        Bound("to_disruptions", "disruptions", _byzantine_degree, swept=lambda f: f != 0),
        Bound("to_changes", "changes", lambda m: 1, swept=lambda f: f != 0),
        Bound("to_rounds", "rounds", lambda m: 2 * m.d + 2, swept=lambda f: f == 0),
    )
    legitimate_kinds = LEGITIMATE_KINDS

    # in the paper's priority order: an action fires only where no earlier guard holds
    _actions = (
        GuardedAction("GA1", pred1, ga1),
        GuardedAction("GA2", pred2, ga2),
        GuardedAction("GA3", pred3, ga3),
    )

    def actions(self, role: str) -> tuple[GuardedAction, ...]:
        return self._actions

    spec = staticmethod(spec_to)

    def in_legitimate_set(self, config: Configuration, topo: Topology) -> bool:
        return in_lc1(config, topo) if topo.byzantine else in_lc0(config, topo)

    def fast_stable(self, config: Configuration, topo: Topology) -> bool:
        if not topo.byzantine:
            return in_lc0(config, topo)
        return len(topo.byzantine) == 1 and in_lc2(config, topo)

    def legitimate_configuration(self, topo: Topology, seed: int, kind: Optional[str] = None) -> Configuration:
        return legitimate_configuration(topo, seed, kind or "auto")


SS_TO = TreeOrientationProtocol()
