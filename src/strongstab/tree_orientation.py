"""Tree orientation by root link, with one-sided Byzantine influence.

Every process keeps a non-decreasing level and adopts the neighbor showing
the highest level. A Byzantine process can therefore pull the root link
toward itself by inflating its level, but it can never push the link away:
lowering its advertised level enables nobody. With a single Byzantine
process that caps the damage at one parent change per correct process.

Protocol string name: ``ss-to``. O-variable: prnt only; level is internal.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import Iterator, Optional

from .engine import (
    Bound,
    BoundInputs,
    Configuration,
    GuardedAction,
    LocalEffect,
    LocalView,
    ProcessState,
    Protocol,
    RegisterValue,
    byzantine_writes,
    consistent_registers,
    out_registers,
    registers_stale,
)
from .engine import out_of_sync as pred3, resync as ga3  # the paper's names for the register-sync rule
from .topology import InputError, Topology, TopologyError, build_topology


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


def _parent(config: Configuration, topo: Topology, v: int) -> Optional[int]:
    """The neighbor v points at, or None when prnt is out of range."""
    order = topo.neighbor_order[v]
    prnt = config.states[v].prnt
    return order[prnt - 1] if 1 <= prnt <= len(order) else None


def spec_to(v: int, config: Configuration, topo: Topology) -> bool:
    """Every incident edge is oriented by one of its endpoints, Byzantine
    neighbors excepted."""
    mine = _parent(config, topo, v)
    for u in topo.neighbor_order[v]:
        if u != mine and u not in topo.byzantine and _parent(config, topo, u) != v:
            return False
    return True


def _single_byz(topo: Topology) -> int:
    if len(topo.byzantine) != 1:
        raise TopologyError("lc1/lc2 need exactly one Byzantine process")
    return next(iter(topo.byzantine))


@functools.lru_cache(maxsize=1)  # topologies hash by identity, and an LC test asks once per configuration
def _branches(topo: Topology) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """The subtrees of the tree minus its one Byzantine process z, ordered by
    their smallest process id. Each is (y, edges): y is z's neighbor in it,
    and each edge (u, v) has u one hop nearer z, in breadth-first order from y."""
    z = _single_byz(topo)
    walks = []
    for y in topo.neighbor_order[z]:
        walk = [(z, y)]
        for u, v in walk:  # extended while it is read: a breadth-first walk away from z
            walk.extend((v, w) for w in topo.neighbor_order[v] if w != u)
        walks.append(walk)
    walks.sort(key=lambda walk: min(v for _, v in walk))
    return tuple((walk[0][1], tuple(walk[1:])) for walk in walks)


def _in_lc(config: Configuration, topo: Topology, c2_ok: bool) -> bool:
    """Registers in sync and the spec at every correct process, and every
    branch C1 (its root y points at z, levels non-increasing away from z)
    or, where `c2_ok`, C2 (one level throughout, rooted inside)."""
    z = _single_byz(topo)
    states, registers = config.states, config.registers
    for v in sorted(topo.correct):
        degree, _, out = topo.register_access[v]
        synced = 1 <= states[v].prnt <= degree and not registers_stale(states[v], registers[out])
        if not (synced and spec_to(v, config, topo)):
            return False
    for y, edges in _branches(topo):
        c1 = _parent(config, topo, y) == z and all(states[u].level >= states[v].level for u, v in edges)
        if not (c1 or (c2_ok and all(states[u].level == states[v].level for u, v in edges))):
            return False
    return True


def in_lc2(config: Configuration, topo: Topology) -> bool:
    return _in_lc(config, topo, c2_ok=False)


LEGITIMATE_KINDS = ("auto", "lc0", "lc1", "lc2")


def legitimate_configuration(topo: Topology, seed: int, kind: str = "auto") -> Configuration:
    """Seeded member of LC0 (fault-free), LC2, or a mixed LC1 configuration.

    kind: 'auto' picks lc0 when fault-free and lc2 otherwise; 'lc1' makes
    each multi-process branch internally rooted (C2) or z-oriented (C1)
    at random.
    """
    if kind not in LEGITIMATE_KINDS:
        raise InputError(f"unknown legitimate kind {kind!r}; known: {', '.join(LEGITIMATE_KINDS)}")
    rng = random.Random(seed)
    if kind == "auto":
        kind = "lc0" if not topo.byzantine else "lc2"
    if kind == "lc0":
        if topo.byzantine:
            raise TopologyError("lc0 generation is fault-free only")
        link = topo.edges[rng.randrange(len(topo.edges))]
        states = _orient_toward(topo, link, range(topo.n), rng.randint(0, 2 * topo.n))
        ordered = [states[w] for w in range(topo.n)]
        return Configuration(tuple(ordered), consistent_registers(topo, ordered))

    z = _single_byz(topo)
    states: dict[int, ProcessState] = {z: ProcessState(rng.randint(1, topo.degree(z)), rng.randint(0, 2 * topo.n))}
    z_regs: dict[int, RegisterValue] = {}
    for y, edges in _branches(topo):
        if kind == "lc2" or not edges or rng.random() < 0.5:
            # C1: y points at z, and each edge drops the level by 0 or 1 away from z
            states[y] = ProcessState(topo.neighbor_pos[y][z], rng.randint(1, 2 * topo.n))
            for u, v in edges:
                states[v] = ProcessState(topo.neighbor_pos[v][u], max(0, states[u].level - rng.randint(0, 1)))
        else:
            members = {y, *(v for _, v in edges)}
            link = rng.choice([e for e in topo.edges if e[0] in members and e[1] in members])
            states.update(_orient_toward(topo, link, members, rng.randint(1, 2 * topo.n)))
        # keep the anchor stable: z must not out-advertise or court its neighbor
        z_regs[y] = RegisterValue(prnt=bool(rng.getrandbits(1)), level=max(0, states[y].level - 1))

    ordered = [states[v] for v in range(topo.n)]
    writes = {slot: z_regs[u] for u, slot in zip(topo.neighbor_order[z], topo.out_slot[z])}
    return Configuration(tuple(ordered), consistent_registers(topo, ordered, writes))


def _orient_toward(topo: Topology, link: tuple[int, int], members, level: int) -> dict[int, ProcessState]:
    """Every member at one level: the two ends of the root link point at
    each other, and every other member points along a breadth-first walk
    toward them."""
    a, b = link
    states = {a: ProcessState(topo.neighbor_pos[a][b], level), b: ProcessState(topo.neighbor_pos[b][a], level)}
    walk = [a, b]
    for v in walk:  # extended while it is read
        for u in topo.neighbor_order[v]:
            if u in members and u not in states:
                states[u] = ProcessState(topo.neighbor_pos[u][v], level)
                walk.append(u)
    return states


def _branch_states(topo: Topology, z: int, y: int, edges, levels: range) -> list[dict[int, ProcessState]]:
    """Branch (y, edges)'s states in LC1 over `levels`: C1 (y points at z; each edge (u, v)
    gives v a level up to u's), then C2 but not C1 (one level, rooted at a branch edge)."""
    c1 = [{y: ProcessState(topo.neighbor_pos[y][z], level)} for level in levels]
    for u, v in edges:
        c1 = [{**c, v: ProcessState(topo.neighbor_pos[v][u], level)} for c in c1 for level in range(c[u].level + 1)]
    members = {y, *(v for _, v in edges)}
    return c1 + [_orient_toward(topo, link, members, level) for link in edges for level in levels]


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

    # in the paper's priority order: an action fires only where no earlier guard holds
    _actions = (
        GuardedAction("GA1", pred1, ga1),
        GuardedAction("GA2", pred2, ga2),
        GuardedAction("GA3", pred3, ga3),
    )

    def actions(self, role: str) -> tuple[GuardedAction, ...]:
        return self._actions

    spec = staticmethod(spec_to)

    def legitimate_set(self, topo: Topology, level_bound: int) -> Iterator[Configuration]:
        # LC0: the whole tree oriented toward one edge at one level; LC1: one choice per branch of z
        levels = range(level_bound + 1)
        if topo.byzantine:
            z = _single_byz(topo)
            pieces = [_branch_states(topo, z, y, edges, levels) for y, edges in _branches(topo)]
        else:
            pieces = [[_orient_toward(topo, link, range(topo.n), level) for link in topo.edges for level in levels]]
        pinned, writes = ProcessState(self.prnt_min, 0), byzantine_writes(topo, self, level_bound)
        for parts in itertools.product(*pieces):
            states = {v: state for part in parts for v, state in part.items()}
            ordered = tuple(states.get(v, pinned) for v in range(topo.n))
            registers = list(consistent_registers(topo, ordered))
            for write in writes:  # each sets all of z's slots, so one list serves every write
                for slot, value in write.items():
                    registers[slot] = value
                yield Configuration(ordered, tuple(registers))

    def pieces(self, topo: Topology) -> tuple[tuple[Topology, tuple[int, ...]], ...]:
        """With one Byzantine process z of degree two or more, one piece per branch of z: z
        plus the branch, ids renumbered in increasing order, each neighbor order restricted
        to the piece. Else the whole tree.

        Why the worst case composes (disruptions add up, per-process changes take the most):
        - the branches share only z, whose registers only Byzantine moves write. A correct
          move reads and writes inside its own branch, so moves of different branches
          commute, and a configuration's reachable moves are each branch's;
        - the spec of a correct process reads only its branch (z's parent pointer is exempt),
          and stability, with z frozen, is each branch's stability. So a configuration is
          legitimate and stable exactly when each branch's projection is, and the anchors
          are the product of the branches' anchors;
        - a global disruption window changes an O-variable in some branch, which is dirty
          from then on, and that branch is an anchor again by the window's end. So the
          window holds at least one branch window, and windows do not overlap: the global
          count is at most the sum of the branches' counts;
        - the branches' plays can be played one after another, each from its own worst
          anchor: while one branch plays, the others rest at anchors, so each branch
          disruption closes a global one, and the sum is reached;
        - each process lives in one branch, so its changes are its branch's.
        """
        z = next(iter(topo.byzantine), None)
        if len(topo.byzantine) != 1 or topo.degree(z) < 2:
            return super().pieces(topo)
        out = []
        for y, edges in _branches(topo):
            ids = tuple(sorted({z, y, *(v for _, v in edges)}))
            local = {v: i for i, v in enumerate(ids)}
            order = [[local[u] for u in topo.neighbor_order[v] if u in local] for v in ids]
            piece_edges = [(local[u], local[v]) for u, v in ((z, y), *edges)]
            out.append((build_topology(piece_edges, byzantine=[local[z]], neighbor_order=order), ids))
        return tuple(out)

    def fast_stable(self, config: Configuration, topo: Topology) -> bool:
        # the one closed form beyond quiescence: levels in LC2 may still rise, but no parent changes
        return len(topo.byzantine) == 1 and in_lc2(config, topo)

    def legitimate_configuration(self, topo: Topology, seed: int, kind: Optional[str] = None) -> Configuration:
        return legitimate_configuration(topo, seed, kind or "auto")


SS_TO = TreeOrientationProtocol()
