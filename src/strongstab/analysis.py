"""Containment measurements: c-correct sets, legitimacy, stability,
disruption windows, bound reports, and an exhaustive small-instance oracle.

A disruption is a trace window that starts at a configuration that is both
c-legitimate and c-stable, contains at least one O-variable change by a
c-correct process, and ends at the next configuration that is again
c-legitimate and c-stable. Windows never overlap; a trace that never
reaches a legitimate stable configuration reports no disruptions and a
`never_stabilized` flag instead.

Stability ("no c-correct process will ever change an O-variable while the
Byzantine processes stay silent") is decided by exhaustive search over
correct-process activations with the Byzantine state frozen, with a budget;
a blown budget is reported as unknown and treated as not stable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
from typing import Iterable, Optional

from .engine import (
    ByzWrite,
    Configuration,
    EngineError,
    ExecutionTrace,
    Protocol,
    RegisterValue,
    apply_effects,
    consistent_registers,
    fire,
)
from .topology import Topology, distance_to_byzantine


class OracleCapError(RuntimeError):
    """The exhaustive search exceeded its configured size limits."""


def c_correct_set(topo: Topology, c: int) -> frozenset[int]:
    """Correct processes more than c hops from every Byzantine process."""
    if c < 0:
        raise ValueError("radius must be non-negative")
    dist = distance_to_byzantine(topo)
    return frozenset(v for v in topo.correct if dist[v] > c)


def is_c_legitimate(config: Configuration, topo: Topology, radius: int, spec) -> bool:
    return all(spec(v, config, topo) for v in c_correct_set(topo, radius))


class Stability(Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    UNKNOWN = "unknown"


class StabilityChecker:
    """Budgeted reachability search for O-variable changes under Byzantine
    silence, memoized per configuration. The protocol's fast stability test
    short-circuits the search."""

    def __init__(self, topo: Topology, protocol: Protocol, radius: int, budget: int = 20000):
        self.topo = topo
        self.protocol = protocol
        self.radius = radius
        self.budget = budget
        self.watch = c_correct_set(topo, radius)
        self.correct = sorted(topo.correct)
        self._cache: dict[Configuration, Stability] = {}
        self.saw_unknown = False

    def check(self, config: Configuration) -> Stability:
        hit = self._cache.get(config)
        if hit is not None:
            return hit
        if self.protocol.fast_stable(config, self.topo):
            self._cache[config] = Stability.STABLE
            return Stability.STABLE
        verdict = self._search(config)
        if verdict is Stability.UNKNOWN:
            self.saw_unknown = True
        self._cache[config] = verdict
        return verdict

    def _search(self, config: Configuration) -> Stability:
        topo, protocol = self.topo, self.protocol
        seen = {config}
        frontier = [config]
        while frontier:
            cfg = frontier.pop()
            for v in self.correct:
                fired = fire(topo, protocol, cfg, v)
                if fired is None:
                    continue
                effect = fired[1]
                if v in self.watch and protocol.o_changed(cfg.states[v], effect.state):
                    return Stability.UNSTABLE
                nxt = apply_effects(cfg, topo, [(v, effect)])
                if nxt not in seen:
                    if len(seen) > self.budget:
                        return Stability.UNKNOWN
                    seen.add(nxt)
                    frontier.append(nxt)
        return Stability.STABLE


def is_c_stable(
    config: Configuration, topo: Topology, radius: int, protocol: Protocol, budget: int = 20000
) -> Stability:
    return StabilityChecker(topo, protocol, radius, budget).check(config)


# ---------------------------------------------------------------------------
# disruption windows

@dataclass(frozen=True)
class DisruptionRecord:
    start_index: int
    end_index: int
    o_var_changes: dict[int, int]


@dataclass
class TraceScan:
    records: list[DisruptionRecord]
    never_stabilized: bool
    first_anchor: Optional[int]
    stability_unknown_seen: bool


def _changed_watch(trace: ExecutionTrace, i: int, watch, protocol: Protocol) -> list[int]:
    before, after = trace.configs[i].states, trace.configs[i + 1].states
    changed = protocol.o_changed
    return [v for v in watch if changed(before[v], after[v])]


def find_disruptions(
    trace: ExecutionTrace,
    topo: Topology,
    radius: int,
    protocol: Protocol,
    budget: int = 20000,
    checker: Optional[StabilityChecker] = None,
) -> TraceScan:
    """Earliest-match, non-overlapping disruption windows over a trace.

    The recorded start is the last configuration verified legitimate and
    stable before the window's first O-variable change (stability is not
    re-tested on quiet configurations in between; the count is unaffected).
    """
    spec = protocol.spec
    watch = c_correct_set(topo, radius)
    checker = checker or StabilityChecker(topo, protocol, radius, budget)

    def anchor(i: int) -> bool:
        cfg = trace.configs[i]
        return is_c_legitimate(cfg, topo, radius, spec) and checker.check(cfg) is Stability.STABLE

    n_cfg = len(trace.configs)
    first_anchor = None
    for i in range(n_cfg):
        if anchor(i):
            first_anchor = i
            break
    if first_anchor is None:
        return TraceScan([], True, None, checker.saw_unknown)

    records: list[DisruptionRecord] = []
    last_anchor = first_anchor
    i = first_anchor
    while i < n_cfg - 1:
        changed = _changed_watch(trace, i, watch, protocol)
        if not changed:
            i += 1
            continue
        # window opens; accumulate changes until the next legit+stable config
        counts: dict[int, int] = {}
        for v in changed:
            counts[v] = counts.get(v, 0) + 1
        j = i + 1
        closed = False
        while j < n_cfg:
            if anchor(j):
                records.append(DisruptionRecord(last_anchor, j, counts))
                last_anchor = j
                closed = True
                break
            if j < n_cfg - 1:
                for v in _changed_watch(trace, j, watch, protocol):
                    counts[v] = counts.get(v, 0) + 1
            j += 1
        if not closed:
            break  # trailing window never closes: not a disruption
        i = j
    return TraceScan(records, False, first_anchor, checker.saw_unknown)


def count_o_changes(
    trace: ExecutionTrace, topo: Topology, radius: int, protocol: Protocol, from_index: int
) -> dict[int, int]:
    """Total O-variable changes per c-correct process from a config index on."""
    watch = c_correct_set(topo, radius)
    counts = {v: 0 for v in watch}
    for i in range(from_index, len(trace.configs) - 1):
        for v in _changed_watch(trace, i, watch, protocol):
            counts[v] += 1
    return counts


# ---------------------------------------------------------------------------
# containment reports

@dataclass(frozen=True)
class BoundCheck:
    limit: int
    observed: int
    passed: bool
    kind: str = "max"  # 'max': observed <= limit, 'min': observed >= limit


@dataclass
class ContainmentReport:
    protocol: str
    n: int
    radius: int
    f: int
    never_stabilized: bool
    stabilization_index: Optional[int]
    stabilization_round: Optional[int]
    disruptions: list[DisruptionRecord]
    per_process_changes: dict[int, int]
    bounds_checked: dict[str, BoundCheck] = field(default_factory=dict)
    stability_unknown_seen: bool = False

    @property
    def t_observed(self) -> int:
        return len(self.disruptions)

    @property
    def k_observed(self) -> int:
        return max(self.per_process_changes.values(), default=0)

    @property
    def all_passed(self) -> bool:
        return all(b.passed for b in self.bounds_checked.values())


def verify_containment(
    trace: ExecutionTrace,
    topo: Topology,
    protocol: Protocol,
    radius: int,
    bounds: Optional[dict[str, tuple[int, str]]] = None,
    f: Optional[int] = None,
    budget: int = 20000,
) -> ContainmentReport:
    """Assemble the per-trace containment report and check named bounds.

    `bounds` maps a name to (limit, kind) where kind is 'max' or 'min' and
    the observed value is picked by name: disruption count for names ending
    in 'disruptions', the max per-process O-change count for names ending in
    'changes', the stabilization round for names ending in 'rounds'. The
    total-vs-per-process inequality t <= n*k is always checked.
    """
    if f is None:
        f = len(topo.byzantine)
    elif f != len(topo.byzantine):
        raise ValueError("declared f disagrees with the topology")
    checker = StabilityChecker(topo, protocol, radius, budget)
    scan = find_disruptions(trace, topo, radius, protocol, budget, checker)

    if scan.first_anchor is None:
        stab_round = None
        per_proc = {v: 0 for v in c_correct_set(topo, radius)}
    else:
        stab_round = sum(1 for r in trace.round_ends if r <= scan.first_anchor)
        per_proc = count_o_changes(trace, topo, radius, protocol, scan.first_anchor)

    report = ContainmentReport(
        protocol=protocol.name,
        n=topo.n,
        radius=radius,
        f=f,
        never_stabilized=scan.never_stabilized,
        stabilization_index=scan.first_anchor,
        stabilization_round=stab_round,
        disruptions=scan.records,
        per_process_changes=per_proc,
        stability_unknown_seen=scan.stability_unknown_seen,
    )

    t_obs, k_obs = report.t_observed, report.k_observed
    for name, (limit, kind) in (bounds or {}).items():
        if name.endswith("disruptions"):
            observed = t_obs
        elif name.endswith("changes"):
            observed = k_obs
        elif name.endswith("rounds"):
            if scan.never_stabilized:
                report.bounds_checked[name] = BoundCheck(limit, -1, False, kind)
                continue
            observed = stab_round
        else:
            raise ValueError(f"bound {name!r} has no observable")
        passed = observed <= limit if kind == "max" else observed >= limit
        report.bounds_checked[name] = BoundCheck(limit, observed, passed, kind)

    report.bounds_checked["prop_total_le_n_times_k"] = BoundCheck(
        limit=topo.n * k_obs, observed=t_obs, passed=t_obs <= topo.n * k_obs, kind="max"
    )
    return report


def render_report(report: ContainmentReport) -> str:
    lines = [
        f"protocol {report.protocol}",
        f"n {report.n}",
        f"f {report.f}",
        f"radius {report.radius}",
        f"never_stabilized {str(report.never_stabilized).lower()}",
        f"stabilization_index {report.stabilization_index if report.stabilization_index is not None else '-'}",
        f"stabilization_round {report.stabilization_round if report.stabilization_round is not None else '-'}",
        f"disruptions {report.t_observed}",
        f"max_process_changes {report.k_observed}",
        f"stability_unknown_seen {str(report.stability_unknown_seen).lower()}",
    ]
    shown = report.disruptions[:20]
    for i, rec in enumerate(shown):
        changes = " ".join(f"{v}:{c}" for v, c in sorted(rec.o_var_changes.items()))
        lines.append(f"disruption {i} start {rec.start_index} end {rec.end_index} changes {changes}")
    if len(report.disruptions) > len(shown):
        lines.append(f"disruption_detail_truncated {len(report.disruptions) - len(shown)}")
    for name in sorted(report.bounds_checked):
        b = report.bounds_checked[name]
        op = "<=" if b.kind == "max" else ">="
        verdict = "pass" if b.passed else "FAIL"
        lines.append(f"bound {name} observed {b.observed} {op} limit {b.limit} {verdict}")
    lines.append(f"result {'pass' if report.all_passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# exhaustive oracle for small instances

@dataclass
class OracleResult:
    prop: str
    converges: Optional[bool] = None
    counterexample: Optional[Configuration] = None
    diverged_by_cycle: bool = False
    worst_disruptions: Optional[int] = None
    worst_per_process: Optional[int] = None
    unbounded: bool = False
    anchors: int = 0
    states_explored: int = 0
    best_anchor: Optional[Configuration] = None
    best_play: Optional[list] = None


def brute_force_verify(
    topo: Topology,
    protocol: Protocol,
    prop: str,
    level_bound: int,
    radius: int = 0,
    n_cap: int = 4,
    state_cap: int = 500_000,
    anchors: Optional[Iterable[Configuration]] = None,
) -> OracleResult:
    """Exact small-instance verdicts by full exploration.

    'converges-to' (fault-free only): from every configuration in the
    bounded domain, every maximal activation sequence of single processes
    ends disabled inside the protocol's legitimate set.

    'worst-disruptions': treat the Byzantine writes as game moves over the
    bounded register domain and compute, over all legitimate stable starting
    configurations (or the given `anchors`), the exact maximum number of
    disruptions and of per-process O-variable changes any schedule can
    realize, plus one play achieving the disruption maximum.
    """
    if topo.n > n_cap:
        raise OracleCapError(f"n={topo.n} exceeds oracle cap {n_cap}")
    if prop == "converges-to":
        return _oracle_converges(topo, protocol, level_bound, state_cap)
    if prop == "worst-disruptions":
        return _oracle_worst(topo, protocol, level_bound, radius, state_cap, anchors)
    raise ValueError(f"unknown oracle property {prop!r}")


def _singleton_moves(topo: Topology, protocol: Protocol, cfg: Configuration):
    for v in sorted(topo.correct):
        fired = fire(topo, protocol, cfg, v)
        if fired is not None:
            yield v, apply_effects(cfg, topo, [(v, fired[1])])


def _oracle_converges(topo, protocol, level_bound, state_cap) -> OracleResult:
    if topo.byzantine:
        raise OracleCapError("convergence oracle supports fault-free instances only")
    level_cap = level_bound + 2 * topo.n + 2

    per_state = math.prod(len(protocol.state_domain(topo.degree(v), level_bound)) for v in range(topo.n))
    total = per_state * (2 * (level_bound + 1)) ** topo.num_registers
    if total > state_cap:
        raise OracleCapError(f"{total} initial configurations exceed cap {state_cap}")

    memo: dict[Configuration, bool] = {}
    cycle_nodes: set[Configuration] = set()
    result = OracleResult(prop="converges-to", converges=True)

    def converges_from(start: Configuration) -> bool:
        # iterative DFS; a cycle counts as divergence (an unfair schedule
        # could spin in it forever, and the protocols under test are
        # cycle-free when fault-free, so hitting one is itself a finding)
        stack = [(start, None)]
        on_stack: set[Configuration] = set()
        while stack:
            cfg, children = stack.pop()
            if children is None:
                if cfg in memo:
                    continue
                if cfg in on_stack:
                    result.diverged_by_cycle = True
                    cycle_nodes.add(cfg)
                    continue
                succs = []
                for _, nxt in _singleton_moves(topo, protocol, cfg):
                    if any(s.level > level_cap for s in nxt.states):
                        raise OracleCapError("level escaped the bounded domain")
                    succs.append(nxt)
                if not succs:
                    memo[cfg] = protocol.in_legitimate_set(cfg, topo)
                    continue
                on_stack.add(cfg)
                stack.append((cfg, succs))
                for nxt in succs:
                    stack.append((nxt, None))
            else:
                on_stack.discard(cfg)
                memo[cfg] = cfg not in cycle_nodes and all(
                    memo.get(nxt, False) for nxt in children
                )
        return memo[start]

    for cfg in _enumerate_domain(topo, protocol, level_bound):
        result.states_explored += 1
        if not converges_from(cfg):
            result.converges = False
            result.counterexample = cfg
            break
    memo_size = len(memo)
    result.states_explored = max(result.states_explored, memo_size)
    return result


def _enumerate_domain(topo: Topology, protocol: Protocol, level_bound: int):
    """Every configuration with in-domain states and registers."""
    state_choices = [protocol.state_domain(topo.degree(v), level_bound) for v in range(topo.n)]
    reg_choices = [RegisterValue(b, l) for b in (False, True) for l in range(level_bound + 1)]
    for states in itertools.product(*state_choices):
        for regs in itertools.product(reg_choices, repeat=topo.num_registers):
            yield Configuration(states, regs)


# --- worst-case disruption game ---------------------------------------------

class _Game:
    """Reachable game graph over (configuration, dirty-flag) nodes.

    Node i is `nodes[i]`; `edges[i]` holds one (target, weight, changed)
    triple per move, in `_successors` order. Weight 1 marks a move into an
    anchor reached dirty (a disruption completes); changed is the watched
    process whose O-variable the move changes, or None. `seen` maps a
    configuration to [is anchor, clean node, dirty node], so a successor
    costs one hash. Edges keep no moves: `move` replays the source's
    successors to recover one. Byzantine writes keep the Byzantine state
    (nobody reads it), which keeps the graph small.
    """

    def __init__(self, topo, protocol, level_bound, radius, state_cap):
        self.topo, self.protocol, self.level_bound, self.radius, self.state_cap = (
            topo, protocol, level_bound, radius, state_cap)
        self.watch = c_correct_set(topo, radius)
        self.checker = StabilityChecker(topo, protocol, radius)
        self.level_cap = level_bound + 2 * topo.n + 2
        self.seen: dict[Configuration, list] = {}
        self.nodes: list[tuple[Configuration, bool]] = []
        self.edges: list[Optional[list]] = []

    def entry(self, cfg: Configuration) -> list:
        entry = self.seen.get(cfg)
        if entry is None:
            anchor = is_c_legitimate(cfg, self.topo, self.radius, self.protocol.spec) and (
                self.checker.check(cfg) is Stability.STABLE
            )
            entry = self.seen[cfg] = [anchor, None, None]
        return entry

    def _node(self, entry: list, cfg: Configuration, dirty: bool) -> int:
        nid = entry[1 + dirty]
        if nid is None:
            nid = entry[1 + dirty] = len(self.nodes)
            if nid > self.state_cap:
                raise OracleCapError(f"game graph exceeds {self.state_cap} nodes")
            self.nodes.append((cfg, dirty))
            self.edges.append(None)
        return nid

    def expand(self, starts: list[Configuration]) -> list[int]:
        start_ids = [self._node(self.entry(c), c, False) for c in starts]
        edges, stack = self.edges, list(start_ids)
        while stack:
            nid = stack.pop()
            if edges[nid] is not None:
                continue
            out = []
            for _, _, tid, weight, changed in self._edges(nid):
                out.append((tid, weight, changed))
                if edges[tid] is None:
                    stack.append(tid)
            edges[nid] = out
        return start_ids

    def _edges(self, nid: int):
        """(mover, register write or None, target, weight, changed) per move
        from node `nid`; reached targets get ids."""
        cfg, dirty = self.nodes[nid]
        for pid, write, nxt, changed in self._successors(cfg):
            entry = self.seen.get(nxt) or self.entry(nxt)
            d2 = dirty or changed is not None
            weight = 0
            if entry[0]:
                weight, d2 = int(d2), False
            tid = entry[1 + d2]
            yield pid, write, self._node(entry, nxt, d2) if tid is None else tid, weight, changed

    def _successors(self, cfg: Configuration):
        """Correct moves, then every Byzantine register write in the bounded
        domain spliced into the register tuple."""
        protocol = self.protocol
        for v, nxt in _singleton_moves(self.topo, protocol, cfg):
            if any(s.level > self.level_cap for s in nxt.states):
                raise OracleCapError("level escaped the bounded domain")
            changed = protocol.o_changed(cfg.states[v], nxt.states[v]) and v in self.watch
            yield v, None, nxt, v if changed else None
        states, regs = cfg
        for b in sorted(self.topo.byzantine):
            degree, _, out = self.topo.register_access[b]
            own = regs[out]
            if len(own) != degree:
                raise EngineError(f"process {b} has the wrong register count")
            head, tail = regs[: out.start], regs[out.stop :]
            domains = [protocol.register_domain(self.level_bound, r) for r in own]
            for combo in itertools.product(*domains):
                if combo != own:
                    yield b, combo, Configuration(states, head + combo + tail), None

    def move(self, nid: int, tid: int, weight: int) -> tuple:
        """The move of the first edge from `nid` to `tid` with `weight`."""
        pid, write = next((p, wr) for p, wr, t, w, _ in self._edges(nid) if (t, w) == (tid, weight))
        return pid, None if write is None else ByzWrite(self.nodes[nid][0].states[pid], write)

    def sccs(self) -> list[int]:
        """Each node's strongly connected component, by iterative Tarjan,
        which numbers components in reverse topological order."""
        n = len(self.nodes)
        comp, num, low = [-1] * n, [-1] * n, [0] * n
        stack, counter, self.comp_count = [], 0, 0
        target = itemgetter(0)
        for root in range(n):
            if num[root] != -1:
                continue
            num[root] = low[root] = counter
            counter += 1
            stack.append(root)
            work = [(root, map(target, self.edges[root]))]
            while work:
                v, out = work[-1]
                for w in out:
                    if num[w] == -1:
                        num[w] = low[w] = counter
                        counter += 1
                        stack.append(w)
                        work.append((w, map(target, self.edges[w])))
                        break
                    if comp[w] == -1 and num[w] < low[v]:  # w is still on the stack
                        low[v] = num[w]
                else:
                    work.pop()
                    if work and low[v] < low[work[-1][0]]:
                        low[work[-1][0]] = low[v]
                    if low[v] == num[v]:
                        while comp[v] == -1:
                            comp[stack.pop()] = self.comp_count
                        self.comp_count += 1
        return comp

    def condense(self) -> list[int]:
        """Each node's component, after building the condensed DAG: per component,
        its distinct (target component, weight, changed) labels out and (weight, changed) in."""
        comp = self.sccs()
        self.cross = [set() for _ in range(self.comp_count)]
        self.inner = [set() for _ in range(self.comp_count)]
        for nid, out in enumerate(self.edges):
            c = comp[nid]
            for tid, weight, changed in out:
                tc = comp[tid]
                if tc == c:
                    self.inner[c].add((weight, changed))
                else:
                    self.cross[c].add((tc, weight, changed))
        return comp

    def longest(self, weight_of) -> tuple[Optional[list[int]], bool]:
        """Max path value per component of the condensed DAG; None,True when
        a positive cycle exists.

        Tarjan numbers components in reverse topological order, so a single
        pass in component order sees successors first.
        """
        if any(weight_of(w, ch) > 0 for labels in self.inner for w, ch in labels):
            return None, True
        value = [0] * self.comp_count
        for c, labels in enumerate(self.cross):
            for tc, w, ch in labels:
                cand = weight_of(w, ch) + value[tc]
                if cand > value[c]:
                    value[c] = cand
        return value, False


def _oracle_worst(topo, protocol, level_bound, radius, state_cap, anchors) -> OracleResult:
    game = _Game(topo, protocol, level_bound, radius, state_cap)
    if anchors is None:
        anchor_list = [c for c in _enumerate_lc_anchors(topo, protocol, level_bound) if game.entry(c)[0]]
    else:
        anchor_list = list(anchors)
        for c in anchor_list:
            if not game.entry(c)[0]:
                raise ValueError("supplied start is not legitimate and stable")
    result = OracleResult(prop="worst-disruptions", anchors=len(anchor_list))
    if not anchor_list:
        result.worst_disruptions = 0
        result.worst_per_process = 0
        return result

    start_ids = game.expand(anchor_list)
    comp = game.condense()
    result.states_explored = len(game.nodes)

    value, unbounded = game.longest(lambda w, ch: w)
    if unbounded:
        result.unbounded = True
        return result
    best = max(value[comp[s]] for s in start_ids)
    result.worst_disruptions = best
    best_start = next(s for s in start_ids if value[comp[s]] == best)
    result.best_anchor = game.nodes[best_start][0]
    result.best_play = _extract_play(game, comp, value, best_start)

    worst_k = 0
    for p in sorted(game.watch):
        val_p, unb = game.longest(lambda w, ch, p=p: int(ch == p))
        if unb:
            result.unbounded = True
            return result
        worst_k = max(worst_k, max(val_p[comp[s]] for s in start_ids))
    result.worst_per_process = worst_k
    return result


def _extract_play(game: _Game, comp, value, start: int) -> list:
    """One play realizing the disruption maximum: hop between value levels
    through zero-weight edges that preserve the remaining value."""
    play = []
    nid = start
    remaining = value[comp[start]]
    while remaining > 0:
        # BFS over value-preserving edges to the next weight-1 edge
        prev = {nid: None}
        queue = [nid]
        hop = None
        while queue and hop is None:
            cur = queue.pop(0)
            for tid, w, _ in game.edges[cur]:
                if w == 1 and value[comp[tid]] == remaining - 1:
                    hop = (cur, tid, 1)
                    break
                if w == 0 and value[comp[tid]] == remaining and tid not in prev:
                    prev[tid] = cur
                    queue.append(tid)
        if hop is None:
            raise OracleCapError("play extraction failed")  # cannot happen on a sound DP
        hops = [hop]
        while prev[hops[-1][0]] is not None:
            node = hops[-1][0]
            hops.append((prev[node], node, 0))
        play.extend(game.move(*h) for h in reversed(hops))
        nid = hop[1]
        remaining -= 1
    return play


def best_disruption_play(
    topo: Topology, protocol: Protocol, anchor: Configuration, level_bound: int, radius: int = 0
) -> tuple[int, list]:
    """Exact worst disruption count from one anchor and a play achieving it."""
    result = _oracle_worst(topo, protocol, level_bound, radius, 500_000, [anchor])
    if result.unbounded:
        raise OracleCapError("disruption count is unbounded from this start")
    return result.worst_disruptions, result.best_play or []


def _enumerate_lc_anchors(topo: Topology, protocol: Protocol, level_bound: int):
    """All members of the protocol's legitimate set with in-domain levels,
    consistent correct registers, and Byzantine registers over the domain."""
    state_choices = [protocol.anchor_states(topo, v, level_bound) for v in range(topo.n)]
    byz_slots = [slot for b in sorted(topo.byzantine) for slot in topo.out_slot[b]]
    byz_reg_choices = protocol.register_domain(level_bound, RegisterValue(False, 0))
    for states in itertools.product(*state_choices):
        base = list(consistent_registers(topo, states))
        for combo in itertools.product(byz_reg_choices, repeat=len(byz_slots)):
            for slot, val in zip(byz_slots, combo):
                base[slot] = val
            cfg = Configuration(states, tuple(base))
            if protocol.in_legitimate_set(cfg, topo):
                yield cfg
