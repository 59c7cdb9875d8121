"""Containment measurements: c-correct sets, legitimacy, stability,
disruption windows, bound reports, and an exhaustive small-instance oracle.

A disruption is a trace window that starts at a configuration that is both
c-legitimate and c-stable, contains at least one O-variable change by a
c-correct process, and ends at the next configuration that is again
c-legitimate and c-stable. Windows never overlap. The scan that finds
them builds the run's containment report; `verify_containment` adds the
bound checks, and the report's verdict is the run's. A trace that never
reaches a legitimate stable configuration reports no disruptions and
`never_stabilized`, and fails: the bounds say nothing about it.

Stability ("no c-correct process will ever change an O-variable while the
Byzantine processes stay silent") is decided by one walk, `_reaches_change`,
over single correct-process moves with the Byzantine state frozen. Runs walk
configurations with a budget; a blown budget is reported as unknown, which
the disruption scan treats as not stable. The oracle walks the coded moves
of its bounded domain exactly, with no budget. Later walks skip what
earlier ones proved stable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter, mul, ne
from typing import Iterator, Optional

from .engine import (
    Configuration,
    EngineError,
    ExecutionTrace,
    Kernel,
    LocalEffect,
    Protocol,
    RegisterValue,
)
from .topology import InputError, Topology, distance_to_byzantine


# the most initial or legitimate configurations, and game nodes, an oracle query takes on
STATE_CAP = 500_000
# the most configurations one stability search of a run visits before it answers unknown
STABILITY_BUDGET = 20_000


class OracleCapError(RuntimeError):
    """The exhaustive search exceeded its size limits, or a move left its
    bounded domain."""


def c_correct_set(topo: Topology, c: int) -> frozenset[int]:
    """Correct processes more than c hops from every Byzantine process."""
    if c < 0:
        raise ValueError("radius must be non-negative")
    dist = distance_to_byzantine(topo)
    return frozenset(v for v in topo.correct if dist[v] > c)


class Stability(Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    UNKNOWN = "unknown"


def _reaches_change(start, moves, stable: set, budget: Optional[int] = None) -> Optional[bool]:
    """Whether moves from `start` can change a watched O-variable: a depth-first walk that
    stops at the first move whose `changed` (the watched mover, else None) is set, where
    `moves(node)` yields (mover, next node, changed). It skips the nodes of `stable` and
    adds to it every node it visited when it meets no change; None past `budget` nodes."""
    if start in stable:
        return False
    visited, stack = {start}, [start]
    while stack:
        for _, nxt, changed in moves(stack.pop()):
            if changed is not None:
                return True
            if nxt not in visited and nxt not in stable:
                if budget is not None and len(visited) > budget:
                    return None
                visited.add(nxt)
                stack.append(nxt)
    stable |= visited
    return False


class StabilityChecker:
    """The runs' stability test: `_reaches_change` over `Kernel.moves` within
    `STABILITY_BUDGET` configurations, memoized per configuration and sharing one stable
    set. The protocol's fast stability test short-circuits the walk. `watch` is the
    c-correct set. The oracle walks its coded moves instead (`_Game.entry`)."""

    def __init__(self, topo: Topology, protocol: Protocol, radius: int):
        self.topo = topo
        self.protocol = protocol
        self.watch = c_correct_set(topo, radius)
        self.kernel = Kernel(topo, protocol)
        self._cache: dict[Configuration, Stability] = {}
        self._stable: set[Configuration] = set()
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

    def anchor(self, config: Configuration) -> bool:
        """Whether `config` is c-legitimate (the spec holds on every watched
        process) and c-stable; only c-legitimate configurations are checked."""
        spec, topo = self.protocol.spec, self.topo
        return all(spec(v, config, topo) for v in self.watch) and self.check(config) is Stability.STABLE

    def _search(self, config: Configuration) -> Stability:
        if not self.watch:  # no move can change an O-variable anyone watches
            return Stability.STABLE
        reaches = _reaches_change(config, self._moves, self._stable, STABILITY_BUDGET)
        return Stability.UNKNOWN if reaches is None else Stability.UNSTABLE if reaches else Stability.STABLE

    def _moves(self, config: Configuration) -> Iterator[tuple[int, Configuration, Optional[int]]]:
        o_changed, watch = self.protocol.o_changed, self.watch
        for v, effect, nxt in self.kernel.moves(config):
            yield v, nxt, v if v in watch and o_changed(config.states[v], effect.state) else None


# ---------------------------------------------------------------------------
# disruption windows and containment reports

# the bound a scenario lists to expect at least `expect_min_disruptions` disruptions
MIN_DISRUPTIONS = "min_disruptions"


@dataclass(frozen=True)
class DisruptionRecord:
    start_index: int
    end_index: int
    o_var_changes: dict[int, int]


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
    stabilization_index: Optional[int]  # the first legitimate stable configuration, None if none is
    stabilization_round: Optional[int]
    disruptions: list[DisruptionRecord]
    # O-variable changes per c-correct process from `stabilization_index` on (all 0 when never stabilized)
    per_process_changes: dict[int, int]
    stability_unknown_seen: bool = False
    bounds_checked: dict[str, BoundCheck] = field(default_factory=dict)

    @property
    def never_stabilized(self) -> bool:
        return self.stabilization_index is None

    @property
    def t_observed(self) -> int:
        return len(self.disruptions)

    @property
    def k_observed(self) -> int:
        return max(self.per_process_changes.values(), default=0)

    @property
    def all_passed(self) -> bool:
        return all(b.passed for b in self.bounds_checked.values())

    @property
    def verdict(self) -> str:
        """'inconclusive' once a stability search ran out of budget, since
        the anchors, and so every count, may then be off; else 'pass' when
        every checked bound holds on a run that stabilized, else 'FAIL'. The
        bounds speak of runs from a legitimate stable configuration, so a run
        that never reaches one has shown nothing and fails."""
        if self.stability_unknown_seen:
            return "inconclusive"
        return "pass" if self.all_passed and not self.never_stabilized else "FAIL"


def _changed_watch(trace: ExecutionTrace, i: int, watch, protocol: Protocol) -> list[int]:
    before, after = trace.configs[i].states, trace.configs[i + 1].states
    changed = protocol.o_changed
    candidates = itertools.compress(range(len(before)), map(ne, before, after))
    return [v for v in candidates if v in watch and changed(before[v], after[v])]


def find_disruptions(
    trace: ExecutionTrace,
    topo: Topology,
    radius: int,
    protocol: Protocol,
) -> ContainmentReport:
    """The containment report of a trace, with no bound checked yet: its
    earliest-match, non-overlapping disruption windows.

    The recorded start is the last configuration verified legitimate and
    stable before the window's first O-variable change (stability is not
    re-tested on quiet configurations in between; the count is unaffected).
    The same pass totals each process's changes as `count_o_changes` does.
    """
    checker = StabilityChecker(topo, protocol, radius)
    watch, configs, n_cfg = checker.watch, trace.configs, len(trace.configs)
    first_anchor = next((i for i in range(n_cfg) if checker.anchor(configs[i])), None)
    report = ContainmentReport(
        protocol.name, topo.n, radius, len(topo.byzantine), first_anchor, None, [], {v: 0 for v in watch}
    )
    if first_anchor is not None:
        report.stabilization_round = sum(1 for r in trace.round_ends if r <= first_anchor)
        totals, records = report.per_process_changes, report.disruptions
        last_anchor = first_anchor
        counts = None  # per-process changes in the open window, None while none is open
        for i in range(first_anchor, n_cfg - 1):
            changed = _changed_watch(trace, i, watch, protocol)
            if changed and counts is None:
                counts = {}
            for v in changed:
                totals[v] += 1
                counts[v] = counts.get(v, 0) + 1
            if counts is not None and checker.anchor(configs[i + 1]):
                records.append(DisruptionRecord(last_anchor, i + 1, counts))
                last_anchor, counts = i + 1, None
        # a trailing window that never closes is not a disruption
    report.stability_unknown_seen = checker.saw_unknown
    return report


def count_o_changes(
    trace: ExecutionTrace, topo: Topology, radius: int, protocol: Protocol, from_index: int
) -> dict[int, int]:
    """Total O-variable changes per c-correct process from a config index on;
    the reference for `ContainmentReport.per_process_changes`, testing every one at every step."""
    watch = c_correct_set(topo, radius)
    counts = {v: 0 for v in watch}
    for before, after in zip(trace.configs[from_index:], trace.configs[from_index + 1 :]):
        for v in watch:
            if protocol.o_changed(before.states[v], after.states[v]):
                counts[v] += 1
    return counts


def verify_containment(
    trace: ExecutionTrace,
    topo: Topology,
    protocol: Protocol,
    radius: int,
    bounds: Optional[dict[str, tuple[int, str]]] = None,
) -> ContainmentReport:
    """The trace's containment report, from `find_disruptions`, with named bounds checked.

    `bounds` maps a name to (limit, kind) where kind is 'max' or 'min'. A
    name is one of `protocol.bounds`, whose record gives the observable, or
    `MIN_DISRUPTIONS`, the disruption count. A round bound fails when the
    run never stabilizes. The total-vs-per-process inequality t <= n*k is
    always checked.
    """
    report = find_disruptions(trace, topo, radius, protocol)
    t_obs, k_obs = report.t_observed, report.k_observed
    values = {"disruptions": t_obs, "changes": k_obs, "rounds": report.stabilization_round}
    observables = {b.name: b.observable for b in protocol.bounds}
    observables[MIN_DISRUPTIONS] = "disruptions"
    for name, (limit, kind) in (bounds or {}).items():
        if name not in observables:
            raise ValueError(f"{protocol.name} has no bound {name!r}")
        observed = values[observables[name]]
        if observed is None:  # a round bound on a run that never stabilized
            report.bounds_checked[name] = BoundCheck(limit, -1, False, kind)
            continue
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
    lines.append(f"result {report.verdict}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# exhaustive oracle for small instances

@dataclass
class OracleResult:
    """An oracle answer. A 'worst-disruptions' answer holds the number of anchors (legitimate
    stable starts) and of game states, each worst case (None when unbounded, as its flag
    says), a start and a play from it that score `worst_disruptions`, and, when the query
    composed several pieces, each piece's global ids and answer (`parts`)."""

    prop: str
    converges: Optional[bool] = None
    counterexample: Optional[Configuration] = None
    diverged_by_cycle: bool = False
    worst_disruptions: Optional[int] = None
    worst_per_process: Optional[int] = None
    unbounded_disruptions: bool = False
    unbounded_changes: bool = False
    anchors: int = 0
    states_explored: int = 0
    best_anchor: Optional[Configuration] = None
    best_play: Optional[list] = None
    parts: list[tuple[tuple[int, ...], OracleResult]] = field(default_factory=list)

    @property
    def unbounded(self) -> bool:
        return self.unbounded_disruptions or self.unbounded_changes


def brute_force_verify(topo: Topology, protocol: Protocol, prop: str, level_bound: int) -> OracleResult:
    """Exact small-instance verdicts by full exploration.

    'converges-to' (fault-free only): from every configuration in the
    bounded domain, every maximal activation sequence of single processes
    ends disabled inside the protocol's legitimate set. The walk stops at
    the first start that fails, its `counterexample`.

    'worst-disruptions': treat the Byzantine writes as game moves over the
    bounded register domain and compute, over all legitimate stable starting
    configurations, the exact maximum number of disruptions and of
    per-process O-variable changes any schedule can realize, plus one play
    achieving the disruption maximum. The game runs on each of
    `protocol.pieces(topo)` alone, with its own level cap and state cap, and
    the answers compose: anchors multiply, game states and disruptions add
    up, per-process changes take the most, the best anchors merge and the
    plays run one after another.

    OracleCapError: more initial or legitimate configurations than
    `STATE_CAP`, a larger game graph, or a move past the level cap.
    InputError: no anchor within `level_bound`, so there is no worst case.
    """
    if prop == "converges-to":
        return _oracle_converges(topo, protocol, level_bound)
    if prop == "worst-disruptions":
        pieces = protocol.pieces(topo)
        if len(pieces) == 1:
            return _oracle_worst(topo, protocol, level_bound, 0, None)
        parts = [(piece, ids, _oracle_worst(piece, protocol, level_bound, 0, None)) for piece, ids in pieces]
        return _compose(topo, parts)
    raise ValueError(f"unknown oracle property {prop!r}")


def _compose(topo: Topology, parts: list[tuple[Topology, tuple[int, ...], OracleResult]]) -> OracleResult:
    """The worst-disruptions answer on `topo` from its pieces' answers, each with its piece
    and the global id of every local id."""
    results = [r for _, _, r in parts]
    result = OracleResult(
        prop="worst-disruptions",
        anchors=math.prod(r.anchors for r in results),
        states_explored=sum(r.states_explored for r in results),
        unbounded_disruptions=any(r.unbounded_disruptions for r in results),
        unbounded_changes=any(r.unbounded_changes for r in results),
        parts=[(ids, r) for _, ids, r in parts],
    )
    if result.unbounded_disruptions:
        return result
    result.worst_disruptions = sum(r.worst_disruptions for r in results)
    if not result.unbounded_changes:
        result.worst_per_process = max(r.worst_per_process for r in results)
    states, registers = [None] * topo.n, [None] * topo.num_registers
    slots = [_global_slots(topo, piece, ids) for piece, ids, _ in parts]
    for (_, ids, r), to_global in zip(parts, slots):
        for v, state in zip(ids, r.best_anchor.states):
            states[v] = state
        for slot, value in zip(to_global, r.best_anchor.registers):
            registers[slot] = value
    result.best_anchor = Configuration(tuple(states), tuple(registers))
    # a Byzantine write of a piece writes the process's whole out-register tuple as it then stands
    result.best_play = play = []
    for (piece, ids, r), to_global in zip(parts, slots):
        for pid, write in r.best_play:
            v = ids[pid]
            if write is not None:
                for slot, value in zip(piece.out_slot[pid], write.out_regs):
                    registers[to_global[slot]] = value
                write = LocalEffect(write.state, tuple(registers[slot] for slot in topo.out_slot[v]))
            play.append((v, write))
    return result


def _global_slots(topo: Topology, piece: Topology, ids: tuple[int, ...]) -> list[int]:
    """`topo`'s register slot of each of `piece`'s slots, where `ids` holds the global id of
    every local id."""
    slots = [0] * piece.num_registers
    for v, order in enumerate(piece.neighbor_order):
        g = ids[v]
        for u, slot in zip(order, piece.out_slot[v]):
            slots[slot] = topo.out_slot[g][topo.neighbor_pos[g][ids[u]] - 1]
    return slots


def _level_cap(topo: Topology, level_bound: int) -> int:
    """The highest level an oracle query lets a correct move write; a move past it is refused."""
    return level_bound + 2 * topo.n + 2


def _oracle_converges(topo, protocol, level_bound) -> OracleResult:
    """A depth-first walk from each start in enumeration order, to the first cycle (an unfair
    schedule could spin in it forever) or configuration disabled outside the legitimate set.
    A code settles at once, without joining the path, when it is disabled inside the
    legitimate set or every one of its successors has converged already."""
    if topo.byzantine:
        raise OracleCapError("convergence oracle supports fault-free instances only")
    coding = _Coding(topo, protocol, level_bound)
    if coding.domain_size > STATE_CAP:
        raise OracleCapError(f"{coding.domain_size} initial configurations exceed cap {STATE_CAP}")
    legitimate = set(map(coding.encode, protocol.legitimate_set(topo, coding.level_cap)))
    moves = coding.moves
    # every maximal single-process sequence from a converged code ends disabled inside `legitimate`
    converged: set[int] = set()
    on_path: set[int] = set()  # the walk's current path, or the failing one once it stops

    def walk(start: int) -> Optional[bool]:
        """None when `start` converges; else whether the walk's first failure is a cycle."""
        stack = []  # the path in order, each code with its successors not yet walked
        code = start
        while True:
            found = moves(code)
            if not found and code not in legitimate:
                on_path.add(code)
                return False
            nexts = [nxt for _, delta, _ in found if (nxt := code + delta) not in converged]
            if nexts:
                on_path.add(code)
                stack.append((code, iter(nexts)))
            else:
                converged.add(code)
            while stack:  # to the next successor not yet converged of the deepest code on the path
                top, rest = stack[-1]
                code = next(rest, None)
                if code is None:
                    stack.pop()
                    on_path.remove(top)
                    converged.add(top)
                elif code not in converged:
                    if code in on_path:
                        return True
                    break
            else:
                return None

    result = OracleResult(prop="converges-to", converges=True)
    for start in coding.starts():
        if start not in converged and (cycle := walk(start)) is not None:
            result.converges, result.counterexample, result.diverged_by_cycle = False, coding.decode(start), cycle
            break
    result.states_explored = len(converged) + len(on_path)
    return result


def _domain_choices(topo: Topology, protocol: Protocol, level_bound: int) -> list[list]:
    """Each process's in-domain states, then each register's in-domain values."""
    registers = [RegisterValue(b, l) for b in (False, True) for l in range(level_bound + 1)]
    return [protocol.state_domain(topo.degree(v), level_bound) for v in range(topo.n)] + [registers] * topo.num_registers


_ESCAPED = "level escaped the bounded domain"


class _Coding:
    """An integer code for the configurations an oracle query reaches, laid out in bit fields.

    Position i < n is process i's state and position n + s is register slot s;
    position 0 holds the lowest bits. A position's alphabet is its
    `_domain_choices` values at `level_bound`, then the values the level cap
    adds, then any other value the `anchors` hold there. Position i stores
    the index of its value in `(radix_i - 1).bit_length()` bits from
    `shifts[i]`; `weights[i]` is `1 << shifts[i]`.

    A correct move adds a delta to the code. The delta depends only on the
    mover's view, its state field and its in- and out-register fields, so it
    is memoized per process on the code masked to that view, the query's one
    memo. A miss reads those fields, asks `Kernel.first_action`, and adds up
    the index changes of the state and out-register fields, each times its
    weight. It refuses a move whose level passes the level cap, whose effect
    has the wrong register count, or whose effect falls outside the alphabet.
    """

    def __init__(self, topo: Topology, protocol: Protocol, level_bound: int, anchors=()):
        self.topo, self.protocol, self.kernel = topo, protocol, Kernel(topo, protocol)
        self.level_cap = _level_cap(topo, level_bound)
        inner, wide = _domain_choices(topo, protocol, level_bound), _domain_choices(topo, protocol, self.level_cap)
        held = [c.states + c.registers for c in anchors]
        self.alphabets = [
            list(dict.fromkeys([*inner[i], *wide[i], *(values[i] for values in held)])) for i in range(len(inner))
        ]
        self.index = [{value: d for d, value in enumerate(alphabet)} for alphabet in self.alphabets]
        self.radices = [len(alphabet) for alphabet in self.alphabets]
        bits = [(radix - 1).bit_length() for radix in self.radices]
        self.masks = [(1 << b) - 1 for b in bits]
        self.shifts = list(itertools.accumulate(bits[:-1], initial=0))
        self.weights = [1 << shift for shift in self.shifts]
        self._inner = [len(choices) for choices in inner]
        self.domain_size = math.prod(self._inner)
        fields = list(map(mul, self.masks, self.weights))
        # per correct process, the positions of its view: its state, its out-registers, its in-registers
        self._ports = {v: (v, *[topo.n + s for s in topo.out_slot[v] + topo.in_slot[v]]) for v in sorted(topo.correct)}
        self._views = [(v, sum(fields[p] for p in ports), {}) for v, ports in self._ports.items()]

    def starts(self) -> Iterator[int]:
        """The code of every in-domain configuration, in the product order of `_domain_choices`."""
        columns = [range(0, k * w, w) for k, w in zip(self._inner, self.weights)]
        return map(sum, itertools.product(*columns))

    def encode(self, config: Configuration) -> int:
        """The code of `config`; KeyError when a value is outside its position's alphabet."""
        return sum(map(mul, self.weights, map(dict.__getitem__, self.index, config.states + config.registers)))

    def digits(self, code: int) -> list[int]:
        return [(code >> shift) & mask for shift, mask in zip(self.shifts, self.masks)]

    def decode(self, code: int) -> Configuration:
        values = list(map(list.__getitem__, self.alphabets, self.digits(code)))
        return Configuration(tuple(values[: self.topo.n]), tuple(values[self.topo.n :]))

    def moves(self, code: int) -> list[tuple[int, int, bool]]:
        """(v, delta, whether v's O-variable changes) per correct v whose action fires when v
        moves alone from `code`, in id order."""
        out = []
        for v, view, memo in self._views:
            key = code & view
            move = memo.get(key, memo)
            if move is memo:
                move = memo[key] = self._move(v, code)
            if move is not None:
                out.append(move)
        return out

    def _move(self, v: int, code: int) -> Optional[tuple[int, int, bool]]:
        ports = self._ports[v]
        degree = len(ports) // 2
        digits = [(code >> self.shifts[p]) & self.masks[p] for p in ports]
        state, *regs = [self.alphabets[p][d] for p, d in zip(ports, digits)]
        fired = self.kernel.first_action(v, state, tuple(regs[degree:]), tuple(regs[:degree]))
        if fired is None:
            return None
        effect = fired[1]
        if effect.state.level > self.level_cap:
            raise OracleCapError(_ESCAPED)
        if len(effect.out_regs) != degree:
            raise EngineError(f"effect for process {v} has the wrong register count")
        try:  # the effect writes the state and out-register positions, the first 1 + degree
            delta = sum(
                (self.index[p][value] - d) * self.weights[p]
                for p, value, d in zip(ports, (effect.state, *effect.out_regs), digits)
            )
        except KeyError:
            raise OracleCapError(_ESCAPED) from None
        return v, delta, self.protocol.o_changed(state, effect.state)


# --- worst-case disruption game ---------------------------------------------

class _Game:
    """Reachable game graph over (configuration code, dirty-flag) nodes, built
    and valued by one walk, `solve`.

    Node i is `nodes[i]`; `edges[i]` holds one (target, weight, changed)
    triple per move, in `_successors` order. Weight 1 marks a move into an
    anchor reached dirty (a disruption completes); changed is the watched
    process whose O-variable the move changes, or None. Each strongly
    connected component's value vector holds the most disruptions, then the
    most changes of each watched process, that a play from it can score.
    `seen` maps a code to [is anchor, clean node, dirty node], so a successor
    costs one hash; a code is an anchor when the spec holds at every watched
    process and `entry` finds it stable. Edges keep no moves: `move` pairs the
    source's successors with its row to recover one. Byzantine writes keep
    the Byzantine state (nobody reads it), which keeps the graph small.

    A Byzantine move writes one out-register: deg·(|domain| − 1) edges, not
    the |domain|^deg − 1 combined writes. The values stay the same:
    - single writes are combined writes, which may keep a register's value;
    - a combined write is a chain of single writes whose intermediate
      configurations, each one combined write from the source, are nodes;
    - a chain never weighs less. Byzantine moves change no O-variable, so
      the chain keeps the dirty flag d up to its first anchor. An
      intermediate anchor scores d one disruption early and leaves the
      chain clean where the combined write keeps d; from there on both make
      the same moves, and d can add at most that one disruption.
    """

    def __init__(self, topo, protocol, level_bound, radius, anchors=()):
        self.topo, self.spec = topo, protocol.spec
        self.watch = c_correct_set(topo, radius)
        self.coding = coding = _Coding(topo, protocol, level_bound, anchors)
        self.seen: dict[int, list] = {}
        self.stable_codes: set[int] = set()
        self.nodes: list[tuple[int, bool]] = []
        self.edges: list[Optional[list]] = []
        # per Byzantine out-register, in writer and slot order: (writer, its index among the
        # writer's out-registers, the field's shift and mask, per current digit the (delta,
        # value) of each write)
        self.byz_writes = []
        for b in sorted(topo.byzantine):
            for i, slot in enumerate(topo.out_slot[b]):
                pos = topo.n + slot
                alphabet, index, weight = coding.alphabets[pos], coding.index[pos], coding.weights[pos]
                writes = [
                    [((index[value] - d) * weight, value) for value in protocol.register_domain(level_bound, current) if value != current]
                    for d, current in enumerate(alphabet)
                ]
                self.byz_writes.append((b, i, coding.shifts[pos], coding.masks[pos], writes))

    def entry(self, code: int, cfg: Optional[Configuration] = None) -> list:
        """`seen`'s entry for `code`, made on its first lookup by the anchor test of its
        configuration (`cfg` when given, else decoded). A correct move is a game move, so the
        stability walk stays in the game's bounded domain and needs no budget."""
        entry = self.seen.get(code)
        if entry is None:
            cfg = self.coding.decode(code) if cfg is None else cfg
            anchor = all(self.spec(v, cfg, self.topo) for v in self.watch) and not _reaches_change(
                code, self._correct_moves, self.stable_codes
            )
            entry = self.seen[code] = [anchor, None, None]
        return entry

    def _node(self, entry: list, code: int, dirty: bool) -> int:
        nid = entry[1 + dirty]
        if nid is None:
            nid = entry[1 + dirty] = len(self.nodes)
            if nid >= STATE_CAP:
                raise OracleCapError(f"game graph exceeds {STATE_CAP} nodes")
            self.nodes.append((code, dirty))
            self.edges.append(None)
        return nid

    def _edges(self, nid: int) -> list[tuple[int, int, Optional[int]]]:
        """The row of node `nid`: (target, weight, changed) per move, in `_successors`
        order; reached targets get ids."""
        code, dirty = self.nodes[nid]
        row = []
        for _, _, nxt, changed in self._successors(code):
            entry = self.seen.get(nxt) or self.entry(nxt)
            d2 = dirty or changed is not None
            weight = 0
            if entry[0]:
                weight, d2 = int(d2), False
            tid = entry[1 + d2]
            row.append((self._node(entry, nxt, d2) if tid is None else tid, weight, changed))
        return row

    def _correct_moves(self, code: int):
        """(mover, next code, changed) per correct move from `code`: changed is the mover when
        it is watched and its O-variable changes, else None; OracleCapError when the move
        leaves the coded domain."""
        watch = self.watch
        for v, delta, o_changed in self.coding.moves(code):
            yield v, code + delta, v if o_changed and v in watch else None

    def _successors(self, code: int):
        """(mover, write, next code, changed) per move: the correct moves, then every Byzantine
        write of one out-register to another value of its bounded domain, as (index, value)."""
        for v, nxt, changed in self._correct_moves(code):
            yield v, None, nxt, changed
        for b, i, shift, mask, writes in self.byz_writes:
            for delta, value in writes[(code >> shift) & mask]:
                yield b, (i, value), code + delta, None

    def move(self, nid: int, tid: int, weight: int) -> tuple:
        """The move of the first edge from `nid` to `tid` with `weight`."""
        moves = zip(self._successors(self.nodes[nid][0]), self.edges[nid])
        pid, write = next((p, wr) for (p, wr, _, _), (t, w, _) in moves if (t, w) == (tid, weight))
        if write is None:
            return pid, None
        cfg, (i, value) = self.coding.decode(self.nodes[nid][0]), write
        own = cfg.registers[self.topo.register_access[pid][2]]
        return pid, LocalEffect(cfg.states[pid], own[:i] + (value,) + own[i + 1 :])

    def solve(self, start_ids: list[int]) -> None:
        """Make the edges of the nodes reachable from `start_ids`, each the first
        time it is visited, and value them, in one iterative Tarjan walk from
        each start in order.

        Tarjan closes components in reverse topological order, so a closing
        component's successors are valued already. `comp` holds each node's
        component, and `values` each component's vector: (worst disruptions,
        then worst changes of each watched process in id order), each the
        best over its distinct out-labels of the label's weight plus the
        target's entry. A label inside a component sets `unbounded_disruptions`
        when it weighs 1 and `unbounded_changes` when it changes a process;
        those entries of the vectors then mean nothing.
        """
        edges, target, order = self.edges, itemgetter(0), itertools.count()
        column = {p: k for k, p in enumerate(sorted(self.watch), 1)}
        self.comp, self.values = comp, values = [-1] * len(edges), []
        self.unbounded_disruptions = self.unbounded_changes = False
        num, low, stack, work = comp.copy(), comp.copy(), [], []

        def enter(nid: int) -> None:
            num[nid] = low[nid] = next(order)
            stack.append(nid)
            out = edges[nid] = self._edges(nid)
            for per_node in (comp, num, low):  # the targets just numbered
                per_node += [-1] * (len(edges) - len(per_node))
            work.append((nid, map(target, out)))

        def close(root: int) -> None:
            c, members = len(values), []
            while comp[root] == -1:  # the root is the component's deepest node on the stack
                members.append(stack.pop())
                comp[members[-1]] = c
            value = (0,) * (len(column) + 1)
            for tc, weight, changed in {(comp[tid], w, ch) for nid in members for tid, w, ch in edges[nid]}:
                if tc == c:  # a label inside the component
                    self.unbounded_disruptions |= weight == 1
                    self.unbounded_changes |= changed is not None
                    continue
                cand = list(values[tc])
                cand[0] += weight
                if changed is not None:
                    cand[column[changed]] += 1
                value = tuple(map(max, value, cand))
            values.append(value)

        for root in start_ids:
            if num[root] != -1:
                continue
            enter(root)
            while work:
                v, out = work[-1]
                for w in out:
                    if num[w] == -1:
                        enter(w)
                        break
                    if comp[w] == -1 and num[w] < low[v]:  # w is still on the stack
                        low[v] = num[w]
                else:
                    work.pop()
                    if work and low[v] < low[work[-1][0]]:
                        low[work[-1][0]] = low[v]
                    if low[v] == num[v]:
                        close(v)


def _oracle_worst(topo, protocol, level_bound, radius, anchors) -> OracleResult:
    """The worst-disruptions game from `anchors`, or from every legitimate
    stable configuration of the bounded domain when none are given."""
    supplied = anchors is not None
    if not supplied:
        members = list(itertools.islice(protocol.legitimate_set(topo, level_bound), STATE_CAP + 1))
        if len(members) > STATE_CAP:
            raise OracleCapError(f"legitimate configurations exceed cap {STATE_CAP}")
        anchors = sorted(members)
    # the members' values are in the domain already; a supplied start's may not be
    game = _Game(topo, protocol, level_bound, radius, anchors if supplied else ())
    start_ids = []
    for c in anchors:
        code = game.coding.encode(c)
        if (entry := game.entry(code, c))[0]:
            start_ids.append(game._node(entry, code, False))
        elif supplied:
            raise InputError("supplied start is not legitimate and stable")
    if not start_ids:
        raise InputError(f"no legitimate stable configuration has levels within level bound {level_bound}")
    game.solve(start_ids)
    result = OracleResult(
        prop="worst-disruptions",
        anchors=len(start_ids),
        states_explored=len(game.nodes),
        unbounded_disruptions=game.unbounded_disruptions,
        unbounded_changes=game.unbounded_changes,
    )
    if result.unbounded_disruptions:
        return result
    worst = [game.values[game.comp[s]] for s in start_ids]
    best = max(value[0] for value in worst)
    result.worst_disruptions = best
    best_start = next(s for s, value in zip(start_ids, worst) if value[0] == best)
    result.best_anchor = game.coding.decode(game.nodes[best_start][0])
    result.best_play = _extract_play(game, game.comp, [value[0] for value in game.values], best_start)
    if not result.unbounded_changes:
        result.worst_per_process = max(max(value[1:], default=0) for value in worst)
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
        for cur in queue:  # the loop also reads the nodes appended while it runs
            for tid, w, _ in game.edges[cur]:
                if w == 1 and value[comp[tid]] == remaining - 1:
                    hop = (cur, tid, 1)
                    break
                if w == 0 and value[comp[tid]] == remaining and tid not in prev:
                    prev[tid] = cur
                    queue.append(tid)
            if hop is not None:
                break
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
    result = _oracle_worst(topo, protocol, level_bound, radius, [anchor])
    if result.unbounded_disruptions:
        raise OracleCapError("disruption count is unbounded from this start")
    return result.worst_disruptions, result.best_play or []

